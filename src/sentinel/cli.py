"""Command-line entry point.

Subcommands: simulate (event log + truth sidecar), forensics (train and
save the email classifier), detect (alerts + run report for one log), and
experiment (full variant x seed matrix plus the LSC theta sweep). A JSON
config file supplies defaults; flags win over config values. The config
path can also come from the SENTINEL_CONFIG environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import evalkit, forensics, siem, simkit
from .events import (parse_event_log, serialize_alert_log,
                     serialize_event_log, truth_from_dict, truth_to_dict)

ENV_CONFIG = "SENTINEL_CONFIG"

_INT, _INTS, _NUMBER, _STR = ("an integer", "a list of integers", "a number",
                               "a string")
_VARIANT = "one of " + ", ".join(siem.VARIANT_NAMES)
_CONFIG_KEYS = {   # key -> what its value must be
    "seed": _INT, "seeds": _INTS, "variant": _VARIANT, "theta_base": _NUMBER,
    "out_dir": _STR, "total_steps": _INT, "warmup_steps": _INT,
    "mistake_prob": _NUMBER, "power_report_every": _INT,
    "forensics_model": _STR, "n_ham": _INT, "n_spam": _INT, "train_seed": _INT,
}


def _has_type(value, kind: str) -> bool:
    if kind == _INTS:
        return isinstance(value, list) and all(_has_type(v, _INT) for v in value)
    if kind == _STR:
        return isinstance(value, str)
    if kind == _VARIANT:
        return value in siem.VARIANT_NAMES
    return isinstance(value, int if kind == _INT else (int, float)) \
        and not isinstance(value, bool)


class ConfigError(ValueError):
    pass


def load_config(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except (ValueError, RecursionError) as exc:   # not UTF-8, not JSON, too deep
        raise ConfigError(f"config file {path} is not valid JSON: "
                          f"{getattr(exc, 'msg', exc)}")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in sorted(doc.items()):
        if not _has_type(value, _CONFIG_KEYS[key]):
            raise ConfigError(f"config key {key!r} must be "
                              f"{_CONFIG_KEYS[key]}, got {value!r}")
    return doc


def _sim_config(cfg: dict) -> simkit.SimConfig:
    names = [f.name for f in dataclasses.fields(simkit.SimConfig)]
    sim = simkit.SimConfig(**{key: cfg[key] for key in names if key in cfg})
    sim.validate()
    return sim


def _out_dir(args, cfg: dict) -> Path:
    out = Path(args.out or cfg.get("out_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args, cfg: dict) -> int:
    seed = args.seed if args.seed is not None else cfg.get("seed", 101)
    result = simkit.run_simulation(_sim_config(cfg), seed)
    out = _out_dir(args, cfg)
    (out / "events.jsonl").write_bytes(serialize_event_log(result.events))
    sidecar = {
        "seed": result.seed,
        "total_steps": result.total_steps,
        "warmup_steps": result.warmup_steps,
        "actors": simkit.roster_to_dict(result.roster),
        "ground_truth": truth_to_dict(result.truths),
    }
    (out / "truth.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {len(result.events)} events for {len(result.roster)} actors "
          f"to {out}")
    return 0


def cmd_forensics(args, cfg: dict) -> int:
    model = evalkit.train_default_model(
        cfg.get("train_seed", evalkit.FORENSICS_TRAIN_SEED),
        cfg.get("n_ham", 1700), cfg.get("n_spam", 300))
    out = _out_dir(args, cfg)
    path = out / "forensics_model.json"
    path.write_bytes(forensics.save_model(model))
    acc = model.accuracies[model.selected_family]
    print(f"trained {model.selected_family} model "
          f"(holdout accuracy {acc:.4f}) -> {path}")
    return 0


def _read_sidecar(path: Path, events) -> simkit.SimResult:
    """The log of `events` with the roster, truth and run facts that the
    truth sidecar at `path` gives.

    ValueError unless the sidecar is an object whose actor lists name the
    same actors, each once, with bool `malicious` and `compliance` flags,
    an int `first_malicious_step` for each malicious actor, an int seed
    (default 101) and int steps 0 <= warmup_steps < total_steps, with
    actors x total_steps within simkit.MAX_ACTOR_STEPS.
    """
    try:
        doc = json.loads(path.read_text("utf-8"))
    except RecursionError:
        raise ValueError("truth sidecar nests JSON too deep") from None
    if not (isinstance(doc, dict) and isinstance(doc.get("actors"), list)
            and isinstance(doc.get("ground_truth"), list)):
        raise ValueError("truth sidecar must be an object with 'actors' and "
                         "'ground_truth' lists")
    ints = [doc.get("warmup_steps"), doc.get("total_steps"),
            doc.get("seed", 101)]
    if any(isinstance(n, bool) or not isinstance(n, int) for n in ints) \
            or not 0 <= ints[0] < ints[1]:
        raise ValueError("truth sidecar needs an int seed and int steps with "
                         f"0 <= warmup_steps < total_steps, got {ints[:2]}")
    try:
        roster = simkit.roster_from_dict(doc["actors"])
        truths = tuple(truth_from_dict(doc["ground_truth"]))
        ids = sorted(a.actor_id for a in roster)
        same = ids == sorted(t.actor_id for t in truths) \
            and len(set(ids)) == len(ids)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"truth sidecar has a malformed actor entry "
                         f"({type(exc).__name__}: {exc})") from None
    if not same:
        raise ValueError("truth sidecar 'actors' and 'ground_truth' name "
                         "different actors or an actor twice")
    flags = [a.compliance for a in roster] + [
        x.malicious for x in roster + truths]
    if not all(isinstance(f, bool) for f in flags):
        raise ValueError("truth sidecar 'malicious' and 'compliance' flags "
                         "must be booleans")
    onsets = [t.first_malicious_step for t in truths if t.malicious]
    if any(isinstance(s, bool) or not isinstance(s, int) for s in onsets):
        raise ValueError("truth sidecar needs an int first_malicious_step "
                         "for each malicious actor")
    warmup, total, seed = ints
    simkit.check_size(len(roster), total)
    return simkit.SimResult(tuple(events), truths, roster, seed, total, warmup)


def cmd_detect(args, cfg: dict) -> int:
    events_path = Path(args.events)
    truth_path = Path(args.truth) if args.truth else \
        events_path.with_name("truth.json")
    if not events_path.exists():
        print(f"error: event log not found: {events_path}", file=sys.stderr)
        return 2
    if not truth_path.exists():
        print(f"error: truth sidecar not found: {truth_path}", file=sys.stderr)
        return 2
    log = _read_sidecar(truth_path, parse_event_log(events_path.read_bytes()))
    if args.seed is not None:
        log = dataclasses.replace(log, seed=args.seed)
    name = args.variant or cfg.get("variant", "eg")
    theta = args.theta_base if args.theta_base is not None else \
        cfg.get("theta_base", 4.0)
    model = None
    if siem.VariantConfig(name).pretrained_model:
        model_path = args.model or cfg.get("forensics_model")
        if model_path is None:
            print("error: variant eg-pt needs --model PATH", file=sys.stderr)
            return 1
        try:
            model = forensics.load_model(Path(model_path).read_bytes())
        except (OSError, forensics.ModelFormatError) as exc:
            print(f"error: cannot load model {model_path}: {exc}",
                  file=sys.stderr)
            return 2
    alerts, report = evalkit.run_cell(name, log, theta, model)
    out = _out_dir(args, cfg)
    (out / f"alerts_{name}.jsonl").write_bytes(serialize_alert_log(alerts))
    (out / f"report_{name}.json").write_text(
        json.dumps(report.__dict__, indent=2, sort_keys=True) + "\n",
        "utf-8")
    print(f"{name}: {report.confirmed_alerts} confirmed alerts, "
          f"actor F1 {report.actor_f1:.3f}")
    return 0


def cmd_experiment(args, cfg: dict) -> int:
    sim_config = _sim_config(cfg)
    seeds = cfg.get("seeds", list(evalkit.DEFAULT_SEEDS))
    n_seeds = len(seeds) if args.runs is None else args.runs
    if not 1 <= n_seeds <= evalkit.MAX_SEEDS:
        print(f"error: experiment runs 1 to {evalkit.MAX_SEEDS} seeds "
              f"(--runs or the 'seeds' list), got {n_seeds}", file=sys.stderr)
        return 1
    if args.runs is not None:
        seeds = seeds[:args.runs]
        if len(seeds) < args.runs:
            seeds = list(seeds) + [max(seeds, default=100) + i + 1
                                   for i in range(args.runs - len(seeds))]
    variants = (args.variants.split(",") if args.variants
                else siem.VARIANT_NAMES)
    for v in variants:
        if v not in siem.VARIANT_NAMES:
            print(f"error: unknown variant {v!r}", file=sys.stderr)
            return 1
    matrix, sweep = evalkit.run_experiment(
        variants=variants, seeds=seeds, sim_config=sim_config,
        sweep=args.sweep)
    out = _out_dir(args, cfg)
    (out / "experiment.csv").write_text(evalkit.reports_to_csv(matrix), "utf-8")
    msg = f"wrote {out / 'experiment.csv'} ({len(matrix)} rows)"
    if sweep:
        (out / "sweep.csv").write_text(evalkit.reports_to_csv(sweep), "utf-8")
        msg += f" and {out / 'sweep.csv'} ({len(sweep)} rows)"
    print(msg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentinel",
        description="Insider-threat simulation and SIEM correlation toolkit")
    parser.add_argument("--config", help="JSON config file "
                        f"(or ${ENV_CONFIG})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate an event log")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("forensics", help="train the email forensics model")
    p.add_argument("--out")
    p.set_defaults(func=cmd_forensics)

    p = sub.add_parser("detect", help="run one variant over an event log")
    p.add_argument("events", help="event JSONL path")
    p.add_argument("--truth", help="truth sidecar (default: truth.json "
                                   "next to the log)")
    p.add_argument("--variant", choices=siem.VARIANT_NAMES)
    p.add_argument("--theta-base", type=float, dest="theta_base")
    p.add_argument("--model", help="forensics model for eg-pt")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("experiment", help="variant x seed matrix and sweep")
    p.add_argument("--runs", type=int, help="number of seeds to use")
    p.add_argument("--variants", help="comma-separated subset")
    p.add_argument("--sweep", action="store_true",
                   help="also run the LSC theta sweep")
    p.add_argument("--out")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
