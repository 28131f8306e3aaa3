"""Smoke tests for the benchmark itself.

    python3 bench/smoke.py

Runs every workload at its smallest length (``--seconds 1``: one pass) with
tracing off and on, and checks the printed result against BENCHMARK.json.
Also checks that a corrupted reference digest shows up as failed ops, that
traced call counts and ratios repeat exactly, and that the benchmark exits
non-zero without a result where the program is absent. Takes a few minutes.
The file name keeps it out of the repository's pytest collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
SCRATCH = ROOT / ".bench_work" / "smoke"


def bench(root: Path, workload: str, trace: int, seed: int = 7):
    """Run the benchmark in ``root``; return (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def result(lines: list[str]) -> dict:
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc
    return doc


def copy_checkout(name: str, with_program: bool) -> Path:
    """A checkout under SCRATCH holding BENCHMARK.json, bench/ and maybe src/."""
    root = SCRATCH / name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, root / "bench", ignore=ignore)
    if with_program:
        shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
    return root


class SmokeTest(unittest.TestCase):

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def check_metrics(self, doc: dict, section: str) -> None:
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {k: v["unit"] for k, v in doc["metrics"].items()}
        self.assertEqual(printed, expected)
        for name, metric in doc["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_prints_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = bench(ROOT, workload, trace)
                    self.assertEqual(code, 0)
                    doc = result(lines)
                    self.assertTrue(doc["correct"])
                    self.assertGreaterEqual(doc["attempted"], 1)
                    self.assertEqual(doc["failed"], 0)
                    self.check_metrics(doc, section)
                    if trace == 0:
                        for m in SPEC["end_to_end"]:
                            self.assertGreater(doc["metrics"][m["name"]]
                                               ["value"], 0, m["name"])

    def test_traced_counts_repeat(self):
        runs = [result(bench(ROOT, "lsc-sweep", 1)[1])["metrics"]
                for _ in range(2)]
        exact = [k for k, v in runs[0].items()
                 if v["unit"] in ("count", "ratio")]
        self.assertTrue(exact)
        for name in exact:
            self.assertEqual(runs[0][name], runs[1][name], name)

    def test_corrupted_digest_fails_ops(self):
        root = copy_checkout("corrupt", with_program=True)
        path = root / "bench" / "reference.json"
        reference = json.loads(path.read_text("utf-8"))
        for section in reference.values():
            if "events.jsonl" in section:
                section["events.jsonl"] = "0" * 64
        path.write_text(json.dumps(reference), "utf-8")
        code, lines = bench(root, "lsc-sweep", 0)
        self.assertEqual(code, 0)
        doc = result(lines)
        self.assertGreater(doc["failed"], 0)
        self.assertFalse(doc["correct"])

    def test_no_program_no_result(self):
        root = copy_checkout("bare", with_program=False)
        code, lines = bench(root, "lsc-sweep", 0)
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
