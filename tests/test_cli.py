"""End-to-end CLI runs in temporary directories."""

import json

import pytest

from sentinel.cli import main
from sentinel.events import parse_event_log

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


@pytest.mark.parametrize("corrupt, named", [
    (lambda e: e.update(actor_id="u999"), "'u999'"),
    (lambda e: e["payload"].update(body=5), "body"),
    (lambda e: e.update(step=True), "step must be an int"),
    (lambda e: e.update(step=2.5), "step must be an int"),
    (lambda e: e.update(step=9999), "step 9999: outside"),
    (lambda e: e.update(actor_id=["u001"]), "actor_id must be a string"),
    (lambda e: DEEP, "malformed JSON"),
    (lambda e: b"\xff" + json.dumps(e).encode(), "not UTF-8"),
], ids=["unknown_actor", "non_string_body", "bool_step", "float_step",
        "step_past_end", "list_actor_id", "deep_nesting", "not_utf8"])
def test_detect_hostile_log_exits_2(simulated, tmp_path, capsys, corrupt,
                                    named):
    # A corrupted copy of the first email goes right after it, or last when
    # the corruption moves its step, so the log stays step-ordered and only
    # the corruption can be at fault. A corruption that returns bytes
    # replaces the copied line with them.
    lines = (simulated / "events.jsonl").read_bytes().splitlines()
    at = next(i for i, line in enumerate(lines)
              if json.loads(line)["kind"] == "email_send")
    copy = json.loads(lines[at])
    line = corrupt(copy)
    if not isinstance(line, bytes):
        line = json.dumps(copy).encode()
    moved = copy["step"] != json.loads(lines[at])["step"]
    lines.insert(len(lines) if moved else at + 1, line)
    log = tmp_path / "hostile.jsonl"
    log.write_bytes(b"\n".join(lines) + b"\n")
    assert main(["detect", str(log), "--truth", str(simulated / "truth.json"),
                 "--variant", "lsc", "--out", str(tmp_path / "det")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]


@pytest.mark.parametrize("corrupt, named", [
    (lambda d: d.clear(), "'actors' and 'ground_truth' lists"),
    (lambda d: d.update(total_steps="110"), "0 <= warmup_steps < total_steps"),
    (lambda d: d.update(ground_truth=5), "'actors' and 'ground_truth' lists"),
    (lambda d: d.update(warmup_steps=500), "got [500, 110]"),
    (lambda d: d.update(warmup_steps=True), "0 <= warmup_steps < total_steps"),
    (lambda d: d.update(seed=[7]), "int seed"),
    (lambda d: d["actors"].append(7), "malformed actor entry"),
    (lambda d: d["ground_truth"].pop(), "name different actors"),
    (lambda d: d["actors"].append(dict(d["actors"][0], role="admin")),
     "an actor twice"),
    (lambda d: d["ground_truth"].append(d["ground_truth"][0]),
     "an actor twice"),
    (lambda d: d["ground_truth"][-1].update(malicious="yes"),
     "must be booleans"),
    (lambda d: d["actors"][0].update(compliance=1), "must be booleans"),
    (lambda d: DEEP, "nests JSON too deep"),
], ids=["empty_object", "string_total_steps", "int_ground_truth",
        "warmup_past_total", "bool_warmup", "list_seed", "int_actor_entry",
        "truth_misses_actor", "duplicate_actor", "duplicate_truth",
        "string_malicious", "int_compliance", "deep_nesting"])
def test_detect_hostile_sidecar_exits_2(simulated, tmp_path, capsys, corrupt,
                                        named):
    sidecar = json.loads((simulated / "truth.json").read_text())
    truth = tmp_path / "hostile_truth.json"
    payload = corrupt(sidecar)
    truth.write_bytes(payload if isinstance(payload, bytes)
                      else json.dumps(sidecar).encode())
    assert main(["detect", str(simulated / "events.jsonl"), "--truth",
                 str(truth), "--variant", "lsc",
                 "--out", str(tmp_path / "det")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]


@pytest.mark.parametrize("payload, named", [
    (DEEP, "corrupt model payload"),
    (b"[1]", "unsupported model format"),
], ids=["deep_nesting", "json_list"])
def test_detect_hostile_model_exits_2(simulated, tmp_path, capsys, payload,
                                      named):
    model = tmp_path / "hostile_model.json"
    model.write_bytes(payload)
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
    (DEEP, "simulate", "not valid JSON"),
    (NOT_UTF8, "simulate", "not valid JSON"),
], ids=["string_theta_base", "string_total_steps", "bool_seed", "list_variant",
        "deep_nesting", "not_utf8"])
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
