"""End-to-end CLI runs in temporary directories."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentinel import evalkit, forensics, simkit
from sentinel.cli import _read_sidecar, _sim_config, main
from sentinel.events import (ActionKind, Event, GroundTruth, Role, Scenario,
                             parse_event_log, serialize_event_log,
                             truth_to_dict)

SMALL = {"total_steps": 110, "warmup_steps": 60, "seed": 7}
DEEP = b"[" * 100_000 + b"]" * 100_000   # nested past the recursion limit
NOT_UTF8 = b'{"seed": "\xe9"}'


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


@pytest.fixture()
def simulated(tmp_path, small_config):
    out = tmp_path / "sim"
    assert main(["--config", small_config, "simulate", "--out", str(out)]) == 0
    return out


def test_simulate_outputs(simulated, capsys):
    events = parse_event_log((simulated / "events.jsonl").read_bytes())
    assert events and all(e.step < SMALL["total_steps"] for e in events)
    sidecar = json.loads((simulated / "truth.json").read_text())
    assert sidecar["seed"] == 7
    assert len(sidecar["actors"]) == 42
    assert len(sidecar["ground_truth"]) == 42


def test_simulate_flag_overrides_config_seed(tmp_path, small_config):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["--config", small_config, "simulate", "--out", str(a)]) == 0
    assert main(["--config", small_config, "simulate", "--seed", "8",
                 "--out", str(b)]) == 0
    assert json.loads((b / "truth.json").read_text())["seed"] == 8
    assert (a / "events.jsonl").read_bytes() != (b / "events.jsonl").read_bytes()


def test_simulate_idempotent(tmp_path, small_config):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["--config", small_config, "simulate",
                     "--out", str(out)]) == 0
    assert (a / "events.jsonl").read_bytes() == (b / "events.jsonl").read_bytes()
    assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()


def test_detect_on_simulated_log(simulated, tmp_path):
    out = tmp_path / "det"
    assert main(["detect", str(simulated / "events.jsonl"),
                 "--variant", "eg", "--out", str(out)]) == 0
    alerts = [json.loads(line) for line in
              (out / "alerts_eg.jsonl").read_text().splitlines()]
    report = json.loads((out / "report_eg.json").read_text())
    assert report["variant"] == "eg"
    assert report["confirmed_alerts"] == sum(
        1 for a in alerts
        if a["tier"] == "confirmed" and a["step"] >= SMALL["warmup_steps"])


def test_detect_missing_inputs(tmp_path):
    assert main(["detect", str(tmp_path / "missing.jsonl")]) == 2


# id -> (corruption of a copy of the log's first email, what the error names)
HOSTILE_LOGS = {
    "unknown_actor": (lambda e: e.update(actor_id="u999"), "'u999'"),
    "non_string_body": (lambda e: e["payload"].update(body=5), "body"),
    "bool_step": (lambda e: e.update(step=True), "step must be an int"),
    "float_step": (lambda e: e.update(step=2.5), "step must be an int"),
    "step_past_end": (lambda e: e.update(step=9999), "step 9999: outside"),
    "list_actor_id": (lambda e: e.update(actor_id=["u001"]),
                      "actor_id must be a string"),
    "deep_nesting": (lambda e: DEEP, "malformed JSON"),
    "not_utf8": (lambda e: b"\xff" + json.dumps(e).encode(), "not UTF-8"),
    # Past the float range the engine sums volumes in.
    "huge_volume": (lambda e: json.dumps(dict(
        e, kind="file_export", payload={"volume": 10 ** 400, "resource": "x",
                                        "destination": "external"})).encode(),
        "export volume must be an int in [0, 2**53)"),
}


def _hostile_log(log: bytes, corrupt) -> bytes:
    """The log with a corrupted copy of its first email right after it, or
    last when the corruption moves its step, so the log stays step-ordered
    and only the corruption can be at fault. A corruption that returns bytes
    replaces the copied line with them."""
    lines = log.splitlines()
    at = next(i for i, line in enumerate(lines)
              if json.loads(line)["kind"] == "email_send")
    dup = json.loads(lines[at])
    line = corrupt(dup)
    if not isinstance(line, bytes):
        line = json.dumps(dup).encode()
    moved = dup["step"] != json.loads(lines[at])["step"]
    lines.insert(len(lines) if moved else at + 1, line)
    return b"\n".join(lines) + b"\n"


@pytest.mark.parametrize("corrupt, named", list(HOSTILE_LOGS.values()),
                         ids=list(HOSTILE_LOGS))
def test_detect_hostile_log_exits_2(simulated, tmp_path, capsys, corrupt,
                                    named):
    log = tmp_path / "hostile.jsonl"
    log.write_bytes(_hostile_log(
        (simulated / "events.jsonl").read_bytes(), corrupt))
    assert main(["detect", str(log), "--truth", str(simulated / "truth.json"),
                 "--variant", "lsc", "--out", str(tmp_path / "det")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]


def _bound_steps(actors: int) -> int:
    """The most steps a run of `actors` actors may declare."""
    return simkit.MAX_ACTOR_STEPS // actors


# id -> (corruption of the sidecar object, what the error names)
HOSTILE_SIDECARS = {
    "empty_object": (lambda d: d.clear(), "'actors' and 'ground_truth' lists"),
    "string_total_steps": (lambda d: d.update(total_steps="110"),
                           "0 <= warmup_steps < total_steps"),
    "int_ground_truth": (lambda d: d.update(ground_truth=5),
                         "'actors' and 'ground_truth' lists"),
    "warmup_past_total": (lambda d: d.update(warmup_steps=500),
                          "got [500, 110]"),
    "bool_warmup": (lambda d: d.update(warmup_steps=True),
                    "0 <= warmup_steps < total_steps"),
    "list_seed": (lambda d: d.update(seed=[7]), "int seed"),
    "int_actor_entry": (lambda d: d["actors"].append(7),
                        "malformed actor entry"),
    "truth_misses_actor": (lambda d: d["ground_truth"].pop(),
                           "name different actors"),
    "duplicate_actor": (lambda d: d["actors"].append(
        dict(d["actors"][0], role="admin")), "an actor twice"),
    "duplicate_truth": (lambda d: d["ground_truth"].append(
        d["ground_truth"][0]), "an actor twice"),
    "string_malicious": (lambda d: d["ground_truth"][-1].update(
        malicious="yes"), "must be booleans"),
    "int_compliance": (lambda d: d["actors"][0].update(compliance=1),
                       "must be booleans"),
    "deep_nesting": (lambda d: DEEP, "nests JSON too deep"),
    "steps_past_bound": (lambda d: d.update(
        total_steps=_bound_steps(len(d["actors"])) + 1), "actor-steps"),
    # Time to detection subtracts it from a detecting alert's step.
    "null_onset": (lambda d: next(t for t in d["ground_truth"]
                                  if t["malicious"]).update(
        first_malicious_step=None), "int first_malicious_step"),
}


def _hostile_sidecar(sidecar: dict, corrupt) -> bytes:
    doc = copy.deepcopy(sidecar)
    payload = corrupt(doc)
    return payload if isinstance(payload, bytes) else json.dumps(doc).encode()


@pytest.mark.parametrize("corrupt, named", list(HOSTILE_SIDECARS.values()),
                         ids=list(HOSTILE_SIDECARS))
def test_detect_hostile_sidecar_exits_2(simulated, tmp_path, capsys, corrupt,
                                        named):
    truth = tmp_path / "hostile_truth.json"
    truth.write_bytes(_hostile_sidecar(
        json.loads((simulated / "truth.json").read_text()), corrupt))
    assert main(["detect", str(simulated / "events.jsonl"), "--truth",
                 str(truth), "--variant", "lsc",
                 "--out", str(tmp_path / "det")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]


@pytest.fixture(scope="module")
def model_doc():
    corpus = forensics.generate_synthetic_corpus(7, 100, 30)
    return json.loads(forensics.save_model(forensics.train_classifier(corpus)))


@pytest.mark.parametrize("corrupt, named", [
    (lambda d: DEEP, "corrupt model payload"),
    (lambda d: b"[1]", "unsupported model format"),
    (lambda d: d.update(vocabulary=sorted(d["vocabulary"])), "vocabulary"),
    (lambda d: d.update(selected_family="nope"), "selected_family 'nope'"),
], ids=["deep_nesting", "json_list", "list_vocabulary", "unknown_family"])
def test_detect_hostile_model_exits_2(simulated, tmp_path, capsys, model_doc,
                                      corrupt, named):
    doc = copy.deepcopy(model_doc)
    payload = corrupt(doc)
    model = tmp_path / "hostile_model.json"
    model.write_bytes(payload if isinstance(payload, bytes)
                      else json.dumps(doc).encode())
    assert main(["detect", str(simulated / "events.jsonl"), "--variant",
                 "eg-pt", "--model", str(model),
                 "--out", str(tmp_path / "det")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]


def test_detect_eg_pt_requires_model(simulated):
    assert main(["detect", str(simulated / "events.jsonl"),
                 "--variant", "eg-pt"]) == 1


def test_forensics_then_eg_pt(simulated, tmp_path, small_config):
    fout = tmp_path / "model"
    cfg = tmp_path / "fcfg.json"
    cfg.write_text(json.dumps({"n_ham": 300, "n_spam": 80}))
    assert main(["--config", str(cfg), "forensics", "--out", str(fout)]) == 0
    model_path = fout / "forensics_model.json"
    assert model_path.exists()
    out = tmp_path / "det"
    assert main(["detect", str(simulated / "events.jsonl"),
                 "--variant", "eg-pt", "--model", str(model_path),
                 "--out", str(out)]) == 0
    assert (out / "report_eg-pt.json").exists()


def test_experiment_small(tmp_path, small_config):
    out = tmp_path / "exp"
    assert main(["--config", small_config, "experiment", "--runs", "2",
                 "--variants", "lsc", "--out", str(out)]) == 0
    lines = (out / "experiment.csv").read_text().splitlines()
    assert len(lines) == 4  # header, two seeds, mean row
    assert lines[0].startswith("variant,seed,theta_base")
    assert lines[-1].split(",")[1] == "mean"


def test_experiment_rejects_unknown_variant(tmp_path):
    assert main(["experiment", "--variants", "bogus",
                 "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("seeds, runs", [
    ([7, 8], "-1"), ([7, 8], "0"), ([], None),
], ids=["negative_runs", "zero_runs", "empty_seeds"])
def test_experiment_rejects_an_empty_seed_run(tmp_path, capsys, seeds, runs):
    config = tmp_path / "seeds.json"
    config.write_text(json.dumps({"seeds": seeds, "total_steps": 110}))
    argv = ["--config", str(config), "experiment", "--variants", "lsc",
            "--out", str(tmp_path / "x")]
    capsys.readouterr()
    assert main(argv + (["--runs", runs] if runs else [])) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "seed" in err[0]
    assert not (tmp_path / "x" / "experiment.csv").exists()


@pytest.mark.parametrize("seeds, runs", [
    ([7], str(evalkit.MAX_SEEDS + 1)),
    (list(range(1, evalkit.MAX_SEEDS + 2)), None),
], ids=["runs_past_the_bound", "seeds_past_the_bound"])
def test_experiment_rejects_more_seeds_than_the_bound(tmp_path, capsys, seeds,
                                                      runs):
    config = tmp_path / "seeds.json"
    config.write_text(json.dumps({"seeds": seeds, "total_steps": 110}))
    argv = ["--config", str(config), "experiment", "--variants", "lsc",
            "--out", str(tmp_path / "x")]
    capsys.readouterr()
    started = time.monotonic()
    assert main(argv + (["--runs", runs] if runs else [])) == 1
    assert time.monotonic() - started < 2.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") \
        and str(evalkit.MAX_SEEDS) in err[0]
    assert not (tmp_path / "x" / "experiment.csv").exists()


def test_config_errors(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["--config", missing, "simulate"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "simulate"]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"frobnicate": 1}))
    assert main(["--config", str(unknown), "simulate"]) == 1


@pytest.mark.parametrize("config, command, key", [
    ({"theta_base": "4"}, "detect", "theta_base"),
    ({"total_steps": "240"}, "simulate", "total_steps"),
    ({"seed": True}, "simulate", "seed"),
    ({"variant": ["lsc"]}, "detect", "variant"),
    ({"variant": "bogus"}, "detect", "variant"),
    (DEEP, "simulate", "not valid JSON"),
    (NOT_UTF8, "simulate", "not valid JSON"),
], ids=["string_theta_base", "string_total_steps", "bool_seed", "list_variant",
        "unknown_variant", "deep_nesting", "not_utf8"])
def test_config_value_of_wrong_type_exits_1(simulated, tmp_path, capsys,
                                            config, command, key):
    # A bytes config is written as it is: a file that is not UTF-8 JSON.
    path = tmp_path / "typed.json"
    path.write_bytes(config if isinstance(config, bytes)
                     else json.dumps(config).encode())
    argv = ["--config", str(path), command, "--out", str(tmp_path / "o")]
    if command == "detect":
        argv[3:3] = [str(simulated / "events.jsonl")]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]


def test_config_env_var(tmp_path, small_config, monkeypatch):
    monkeypatch.setenv("SENTINEL_CONFIG", small_config)
    out = tmp_path / "env"
    assert main(["simulate", "--out", str(out)]) == 0
    assert json.loads((out / "truth.json").read_text())["seed"] == 7


def test_invalid_runtime_config_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"total_steps": 50, "warmup_steps": 60}))
    assert main(["--config", str(cfg), "simulate",
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_detect_rejects_non_finite_theta_flag(simulated, tmp_path, capsys,
                                              theta):
    capsys.readouterr()
    assert main(["detect", str(simulated / "events.jsonl"), "--variant",
                 "lsc", f"--theta-base={theta}",
                 "--out", str(tmp_path / "det")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") \
        and "theta_base must be a finite number" in err[0]


@pytest.mark.parametrize("theta", ["NaN", "Infinity"])
def test_detect_rejects_non_finite_theta_config(simulated, tmp_path, capsys,
                                                theta):
    # Python's json reads NaN and Infinity as floats, so the type check
    # passes them; the variant's own check rejects them.
    config = tmp_path / "theta.json"
    config.write_text(f'{{"theta_base": {theta}}}')
    capsys.readouterr()
    assert main(["--config", str(config), "detect",
                 str(simulated / "events.jsonl"), "--variant", "lsc",
                 "--out", str(tmp_path / "det")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") \
        and "theta_base must be a finite number" in err[0]


# -- any sidecar and log: alerts, or one error line ---------------------------

def _tiny_log():
    """A 30-step log of three actors, small enough to detect in milliseconds:
    (sidecar object, log bytes)."""
    roster = (simkit.ActorSpec("u001", Role.STAFF, False),
              simkit.ActorSpec("u002", Role.STAFF, True,
                               Scenario.EMAIL_LEAKAGE, 12),
              simkit.ActorSpec("u003", Role.POWER_USER, False,
                               compliance=True))
    truths = [GroundTruth("u001", False), GroundTruth("u003", False),
              GroundTruth("u002", True, Scenario.EMAIL_LEAKAGE, 12)]
    events = []
    for step in range(30):
        for actor in ("u001", "u002", "u003"):
            events.append(Event(step, actor, ActionKind.LOGIN,
                                {"context": "normal"}))
        events.append(Event(step, "u003", ActionKind.FILE_EXPORT, {
            "volume": 400 + 10 * step, "resource": "crm_db",
            "destination": "staging" if step % 3 else "external"}))
        if step >= 12:
            events.append(Event(step, "u002", ActionKind.FILE_ACCESS, {
                "resource": "hr_records", "sensitivity": "sensitive"}))
            events.append(Event(step, "u002", ActionKind.EMAIL_SEND, {
                "recipient_domain": "external",
                "recipient": "privatemail.example",
                "body": "urgent: the confidential payroll, act now"}))
    sidecar = {"seed": 7, "total_steps": 30, "warmup_steps": 10,
               "actors": simkit.roster_to_dict(roster),
               "ground_truth": truth_to_dict(truths)}
    return sidecar, serialize_event_log(events)


TINY_SIDECAR, TINY_LOG = _tiny_log()
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 40) | st.integers()
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
_VALUES = _JSON | st.sampled_from(
    ["u001", "u002", "u999", "staff", "admin", "email_leakage", "stealth",
     "login", "email_send", "file_export", "external", "staging",
     "after_hours", "privatemail.example", "partnercorp.example",
     -1, 0, 2 ** 53, 10 ** 400, 1e308])
_DELETE = object()
_KEYS = {
    "actors": ("actor_id", "role", "malicious", "scenario", "start_step",
               "compliance", "style_mean", "report_phase"),
    "ground_truth": ("actor_id", "malicious", "scenario",
                     "first_malicious_step"),
    "event": ("step", "actor_id", "kind", "payload", "extra"),
    "payload": ("context", "resource", "sensitivity", "volume",
                "destination", "recipient_domain", "recipient", "body"),
}
# Every field of the sidecar an edit can hit: (list, entry, key); list None
# for the top-level object.
_SLOTS = [(None, 0, key) for key in (
    "seed", "total_steps", "warmup_steps", "actors", "ground_truth", "extra")]
_SLOTS += [(where, i, key) for where in ("actors", "ground_truth")
           for i in range(3) for key in _KEYS[where]]


def _edit(target: dict, key: str, value) -> None:
    if value is _DELETE:
        target.pop(key, None)
    elif key in ("total_steps", "warmup_steps") and isinstance(value, int) \
            and not -5 <= value <= 200:
        # A sidecar may declare up to simkit.MAX_ACTOR_STEPS actor-steps,
        # and the engine runs every step; keep each example short.
        target[key] = value % 200
    else:
        target[key] = value


@st.composite
def _sidecar_bytes(draw):
    doc = copy.deepcopy(TINY_SIDECAR)
    for where, i, key in draw(st.lists(st.sampled_from(_SLOTS), min_size=1,
                                       max_size=3)):
        entries = [doc] if where is None else doc.get(where)
        target = entries[i] if isinstance(entries, list) \
            and i < len(entries) else None
        if isinstance(target, dict):
            _edit(target, key, draw(st.just(_DELETE) | _VALUES))
    if draw(st.integers(0, 9)) == 0:
        doc = draw(_JSON)
    return json.dumps(doc).encode()


@st.composite
def _log_bytes(draw):
    # Each line is an event object or, once overwritten, raw bytes.
    lines = [json.loads(line) for line in TINY_LOG.splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        at = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["event", "payload", "bytes", "drop",
                                    "repeat"]))
        if how == "bytes":
            lines[at] = draw(st.binary(max_size=20))
        elif how == "drop":
            del lines[at]
        elif how == "repeat":
            lines.insert(at, copy.deepcopy(lines[at]))
        elif isinstance(lines[at], dict):
            target = lines[at] if how == "event" else lines[at].get("payload")
            if isinstance(target, dict):
                _edit(target, draw(st.sampled_from(_KEYS[how])),
                      draw(st.just(_DELETE) | _VALUES))
    return b"".join((line if isinstance(line, bytes)
                     else json.dumps(line).encode()) + b"\n"
                    for line in lines)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, model_doc):
    path = tmp_path_factory.mktemp("model") / "forensics_model.json"
    path.write_text(json.dumps(model_doc))
    return path


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("any_input")


def _examples(test):
    """Every hostile log and sidecar above, each with the other input
    intact, and both inputs intact."""
    cases = [(TINY_SIDECAR, _hostile_log(TINY_LOG, corrupt))
             for corrupt, _ in HOSTILE_LOGS.values()]
    cases += [(_hostile_sidecar(TINY_SIDECAR, corrupt), TINY_LOG)
              for corrupt, _ in HOSTILE_SIDECARS.values()]
    cases.append((TINY_SIDECAR, TINY_LOG))
    for sidecar, log in cases:
        if isinstance(sidecar, dict):
            sidecar = json.dumps(sidecar).encode()
        for variant in ("lsc", "eg"):
            test = example(inputs=(sidecar, log), variant=variant,
                           theta=None)(test)
    return test


@_examples
@given(inputs=st.one_of(
    st.tuples(_sidecar_bytes(), st.just(TINY_LOG)),
    st.tuples(st.just(json.dumps(TINY_SIDECAR).encode()), _log_bytes()),
    st.tuples(_sidecar_bytes(), _log_bytes())),
       variant=st.sampled_from(["lsc", "ce", "eg", "eg-pt"]),
       theta=st.none() | st.floats() | st.sampled_from([0.0, 4.0, -3.0]))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_detect_any_sidecar_and_log_ends_cleanly(work_dir, model_path,
                                                 inputs, variant, theta):
    # Whatever the sidecar and log hold, detect writes alerts (exit 0) or
    # ends in one `error:` line (exit 1 or 2), never a traceback.
    sidecar, log = inputs
    (work_dir / "events.jsonl").write_bytes(log)
    (work_dir / "truth.json").write_bytes(sidecar)
    argv = ["detect", str(work_dir / "events.jsonl"), "--variant", variant,
            "--model", str(model_path), "--out", str(work_dir / "out")]
    if theta is not None:
        argv.append(f"--theta-base={theta!r}")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code in (1, 2)
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


# -- the actors x steps bound -------------------------------------------------

def test_inputs_at_the_step_bound_are_accepted(tmp_path):
    # Read, not run: a run at the bound takes tens of seconds.
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(dict(TINY_SIDECAR,
                                     total_steps=_bound_steps(3))))
    assert _read_sidecar(truth, parse_event_log(TINY_LOG)).total_steps \
        == _bound_steps(3)
    steps = _bound_steps(42)   # the simulator's roster has 42 actors
    assert _sim_config({"total_steps": steps}).total_steps == steps


@pytest.mark.parametrize("command", ["simulate", "experiment", "detect"])
def test_inputs_past_the_step_bound_end_at_once(tmp_path, capsys, command):
    # The config's steps reach simulate and experiment; detect reads the
    # sidecar's.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"total_steps": _bound_steps(42) + 1}))
    argv = ["--config", str(config), command, "--out", str(tmp_path / "o")]
    if command == "detect":
        (tmp_path / "events.jsonl").write_bytes(TINY_LOG)
        (tmp_path / "truth.json").write_text(json.dumps(dict(
            TINY_SIDECAR, total_steps=_bound_steps(3) + 1)))
        argv = ["detect", str(tmp_path / "events.jsonl"), "--variant", "lsc",
                "--out", str(tmp_path / "o")]
    started = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - started < 2.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") \
        and "actor-steps" in err[0]


# -- a seeded draw over more than 2**64 values --------------------------------

@pytest.mark.parametrize("command", ["simulate", "experiment"])
def test_a_report_cycle_past_2_to_the_64_ends_at_once(tmp_path, command):
    # power_report_every is the span of each actor's report-phase draw; past
    # 2**64 the generator's rejection loop once had no word to accept and
    # never returned. It runs in a child so that a hang fails this test
    # rather than stalling the suite.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"power_report_every": 2 ** 65}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH", "")])))
    done = subprocess.run(
        [sys.executable, "-m", "sentinel.cli", "--config", str(config),
         command, "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=20)
    err = done.stderr.splitlines()
    assert done.returncode == 2
    assert len(err) == 1 and err[0].startswith("error: ") \
        and "exceeds 2**64" in err[0]


# -- the training corpus bound ------------------------------------------------

@pytest.mark.parametrize("n_ham, n_spam", [
    (3, 1), (1, 1), (17_000, 3_000), (forensics.MAX_CORPUS_DOCS - 300, 301),
], ids=["only_spam_held_out", "every_document_held_out", "far_past_the_bound",
        "one_past_the_bound"])
def test_forensics_rejects_a_corpus_it_cannot_train_on(tmp_path, capsys,
                                                       n_ham, n_spam):
    # One error line and nothing else: no model, no numpy warning.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_ham": n_ham, "n_spam": n_spam}))
    capsys.readouterr()
    started = time.monotonic()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(config), "forensics",
                     "--out", str(tmp_path / "m")]) == 2
    assert time.monotonic() - started < 2.0
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "m" / "forensics_model.json").exists()


def test_forensics_accepts_a_corpus_at_the_bound(tmp_path, monkeypatch,
                                                 pretrained_model):
    # Generated, not trained: training 10,000 documents takes seconds, so
    # short bodies stand in for composed ones and the trained model is the
    # default one.
    corpora = []

    def train(corpus):
        corpora.append(corpus)
        return pretrained_model

    monkeypatch.setattr(forensics, "compose_body",
                        lambda *args: "filler " * forensics.MIN_WORDS)
    monkeypatch.setattr(forensics, "train_classifier", train)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_ham": forensics.MAX_CORPUS_DOCS - 300,
                                  "n_spam": 300}))
    assert main(["--config", str(config), "forensics",
                 "--out", str(tmp_path / "m")]) == 0
    [corpus] = corpora
    assert len(corpus) == forensics.MAX_CORPUS_DOCS
    assert (tmp_path / "m" / "forensics_model.json").exists()
