"""Behaviour lock: CLI outputs for seed 101 match the stored reference digests.

The digests live in ``bench/reference.json`` (sections ``"101"`` and
``"model"``), which the benchmark checks every output against; this test
reads them from there, so both stay pinned to the same bytes.
"""

import hashlib
import json
from pathlib import Path

from sentinel.cli import ENV_CONFIG, main

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
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
