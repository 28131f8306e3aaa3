"""Behaviour lock: CLI outputs for seed 101, the LSC sweep's CSVs
included, match the stored reference digests, and the benchmark's tracer
still finds what it wraps.

The digests live in ``bench/reference.json`` (sections ``"101"`` and
``"model"``), which the benchmark checks every output against; this test
reads them from there, so both stay pinned to the same bytes.
"""

import hashlib
import importlib.util
import json
import math
import pkgutil
from functools import reduce
from operator import add
from pathlib import Path

import sentinel
from sentinel import evalkit, siem, simkit
from sentinel.cli import ENV_CONFIG, main
from sentinel.events import ActionKind, Event, Role
from sentinel.simkit import ActorSpec

BENCH = Path(__file__).resolve().parent.parent / "bench"
REFERENCE = BENCH / "reference.json"
VARIANTS = ("lsc", "ce", "eg", "eg-pt")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_seed_101_outputs_match_reference_digests(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    reference = json.loads(REFERENCE.read_text("utf-8"))
    sim, model, det = tmp_path / "sim", tmp_path / "model", tmp_path / "det"
    assert main(["simulate", "--seed", "101", "--out", str(sim)]) == 0
    assert main(["forensics", "--out", str(model)]) == 0
    model_path = model / "forensics_model.json"
    for variant in VARIANTS:
        argv = ["detect", str(sim / "events.jsonl"), "--variant", variant,
                "--out", str(det)]
        if variant == "eg-pt":
            argv += ["--model", str(model_path)]
        assert main(argv) == 0

    produced = {"events.jsonl": sim / "events.jsonl",
                "truth.json": sim / "truth.json"}
    produced.update({f"alerts_{v}.jsonl": det / f"alerts_{v}.jsonl"
                     for v in VARIANTS})
    mismatched = [name for name, path in sorted(produced.items())
                  if _sha256(path) != reference["101"][name]]
    if _sha256(model_path) != reference["model"]["forensics_model.json"]:
        mismatched.append("forensics_model.json")
    assert not mismatched, f"outputs differ from {REFERENCE.name}: {mismatched}"


def test_seed_101_lsc_sweep_matches_reference_digests(tmp_path, monkeypatch):
    # The benchmark's lsc-sweep command: `experiment --variants lsc --sweep`
    # over seed 101 alone.
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    reference = json.loads(REFERENCE.read_text("utf-8"))["101"]
    config, out = tmp_path / "sweep.json", tmp_path / "sweep"
    config.write_text(json.dumps({"seeds": [101]}), "utf-8")
    assert main(["--config", str(config), "experiment", "--variants", "lsc",
                 "--sweep", "--out", str(out)]) == 0
    mismatched = [name for name in ("experiment.csv", "sweep.csv")
                  if _sha256(out / name) != reference[name]]
    assert not mismatched, f"outputs differ from {REFERENCE.name}: {mismatched}"


def test_benchmark_tracer_wraps_every_target():
    # bench/tracer.py wraps functions by name and reads the engine's
    # variant; a rename in src/ would otherwise break only `--trace 1`.
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    original_run = siem.SiemEngine.run
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert siem.SiemEngine.run is not original_run
        roster = [ActorSpec("u001", Role.STAFF, malicious=False)]
        events = [Event(1, "u001", ActionKind.EMAIL_SEND,
                        {"recipient_domain": "external",
                         "recipient": "x.example", "body": "hello"})]
        for name in VARIANTS[:3]:
            siem.SiemEngine([siem.VariantConfig(name)], roster,
                            seed=1).run(events, total_steps=3, warmup_steps=0,
                                        feedback=lambda actor_id: False)
    finally:
        tracer.uninstall()
    assert siem.SiemEngine.run is original_run
    assert tracer.phish_scores == 2 and tracer.phish_wasted == 0
    assert tracer.abduce_calls > 0
    for name in VARIANTS:
        assert siem.VariantConfig(name).forensics == (name != "lsc")


def _sum_312(iterable, /, start=0):
    """CPython 3.12's builtin ``sum`` (gh-100425) in Python: ints add
    exactly, floats with Neumaier compensation, and anything else leaves
    the fast paths for plain ``+``. Matched the real 3.12.1 and 3.13.0 on
    20,000 random lists of mixed ints and floats."""
    it = iter(iterable)
    total = start
    if type(total) is int:
        for x in it:
            total = total + x
            if type(x) not in (int, bool):
                break
    if type(total) is float:
        c = 0.0
        for x in it:
            if type(x) is float:
                t = total + x
                c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
                total = t
            elif isinstance(x, int) and -2 ** 63 <= x < 2 ** 63:
                total += float(x)
            else:
                if c and math.isfinite(c):
                    total += c
                total = total + x
                break
        else:
            if c and math.isfinite(c):
                total += c
            return total
    for x in it:
        total = total + x
    return total


def _seed_101_scores(model):
    log = simkit.run_simulation(simkit.SimConfig(), 101)
    runs = evalkit.run_cells([(v, 4.0) for v in VARIANTS], log, model)
    return {v: [(a.tier, a.actor_id, a.step, a.score) for a in alerts]
            for v, (alerts, _) in zip(VARIANTS, runs)}


def test_alert_scores_do_not_depend_on_the_builtin_sum(pretrained_model,
                                                       monkeypatch):
    # From Python 3.12 the builtin sum compensates float rounding, so a float
    # sum gives different bits than 3.11's left-to-right additions. Raw
    # alert scores must come out the same under either.
    assert _sum_312([0.1] * 10) == 1.0
    assert reduce(add, [0.1] * 10, 0) == 0.9999999999999999
    plain = _seed_101_scores(pretrained_model)
    for info in pkgutil.iter_modules(sentinel.__path__):
        module = importlib.import_module(f"sentinel.{info.name}")
        monkeypatch.setattr(module, "sum", _sum_312, raising=False)
    compensated = _seed_101_scores(pretrained_model)
    for variant in VARIANTS:
        assert compensated[variant] == plain[variant], variant
