"""Benchmark for sentinel-sim.

Runs one workload in-process through the public entry point
``sentinel.cli.main(argv)``, closed-loop, one client, single-threaded:
every operation waits for the previous one. Each operation's output bytes
are checked against the reference digests in ``bench/reference.json``.

    python3 bench/run.py --workload detect --seed 3 --seconds 45 --trace 0

Workloads (see bench/README.md for why each exists):

* ``detect``: set-up trains the forensics model and simulates the input
  logs; the timed phase runs ``sentinel detect`` for every variant over
  every log.
* ``lsc-sweep``: ``sentinel experiment --variants lsc --sweep`` over one
  seed (one matrix cell plus five theta cells, each re-simulating).

``--seed`` picks the workload's simulation seeds from ``POOL``, whose outputs
all have stored digests. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

WORKLOADS = ("detect", "lsc-sweep")
VARIANTS = ("lsc", "ce", "eg", "eg-pt")
# Simulation seeds a run may draw its inputs from; bench/record.py stores
# the digests of every output for each of them.
POOL = tuple(range(101, 117))
DETECT_LOGS = 2
# setup_s is the median of at least SETUP_MIN set-ups, repeated until they
# have taken SETUP_BUDGET_S, so a cheap set-up gets many samples.
SETUP_MIN = 3
SETUP_BUDGET_S = 2.0
SWEEP_CELLS = 6          # one lsc matrix cell plus five theta cells per seed


class ProgramMissing(RuntimeError):
    pass


def load_reference() -> dict:
    """Stored digests; a missing file leaves every output unchecked."""
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text("utf-8"))


def load_program():
    """(Re-)import ``sentinel.cli`` from this checkout's ``src``.

    Dropping the package from ``sys.modules`` first makes every set-up pay
    the package's import, so import-time work shows in ``setup_s``.
    """
    if not (SRC / "sentinel" / "cli.py").is_file():
        raise ProgramMissing(f"no program at {SRC / 'sentinel'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "sentinel" or n.startswith("sentinel.")]:
        del sys.modules[name]
    cli = importlib.import_module("sentinel.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"sentinel imported from {cli.__file__}, "
                             f"not from {SRC}")
    return cli


@dataclass
class Op:
    """One ``sentinel`` command and the files it must write."""
    kind: str
    argv: list[str]
    out: Path
    files: tuple[str, ...]
    ref: str                  # reference.json section holding the digests
    events: int = 0           # events the command processes


class Runner:
    """Runs ops, times them and checks their outputs.

    With ``record`` set it stores digests into ``reference`` instead of
    checking against it (see bench/record.py).
    """

    def __init__(self, reference: dict, record: bool = False):
        self.reference = reference
        self.record = record
        self.tracer: Tracer | None = None
        self.cli = None
        self.ops: list[dict] = []
        self.first_digest: dict[tuple[str, str], str] = {}
        self.failed = 0
        self.checked = 0
        self.unchecked: set[tuple[str, str]] = set()
        self.failures: list[str] = []

    def run(self, op: Op, phase: str) -> float:
        """Run one op; return its wall time (the ``main`` call only)."""
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        err = io.StringIO()
        rc, problem = None, None
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(op.argv)
            except (Exception, SystemExit) as exc:  # a failed op, not a crash
                problem = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        if problem is None and rc != 0:
            problem = f"exit code {rc}: {err.getvalue().strip()}"
        if problem is None:
            problem = self._check(op)
        self.ops.append({"phase": phase, "kind": op.kind, "argv": op.argv,
                         "seconds": elapsed, "ok": problem is None})
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{' '.join(op.argv)}: {problem}")
        return elapsed

    def _check(self, op: Op) -> str | None:
        section = self.reference.setdefault(op.ref, {}) if self.record \
            else self.reference.get(op.ref, {})
        for name in op.files:
            path = op.out / name
            if not path.is_file():
                return f"{name} not written"
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            # Repeats of one output within a run must agree, reference or not.
            first = self.first_digest.setdefault((op.ref, name), digest)
            if digest != first:
                return f"{name} differs from its first write in this run"
            if self.record:
                if section.setdefault(name, digest) != digest:
                    return f"{name} differs from the recorded digest"
                continue
            expected = section.get(name)
            if expected is None:
                self.unchecked.add((op.ref, name))
            elif expected != digest:
                return f"{name} sha256 {digest[:12]} != reference " \
                       f"{expected[:12]}"
            else:
                self.checked += 1
        return None


# -- workloads ---------------------------------------------------------------
#
# Each workload has a set-up (timed as setup_s), the op list of one pass of
# its timed phase, and post ops (checked, not timed).

def simulate_op(work: Path, seed: int) -> Op:
    out = work / f"sim{seed}"
    return Op("simulate", ["simulate", "--seed", str(seed), "--out", str(out)],
              out, ("events.jsonl", "truth.json"), str(seed))


def count_events(op: Op) -> int:
    return (op.out / "events.jsonl").read_bytes().count(b"\n")


def model_op(work: Path) -> Op:
    out = work / "model"
    return Op("forensics", ["forensics", "--out", str(out)], out,
              ("forensics_model.json",), "model")


def detect_op(work: Path, log: Op, variant: str, model: Path) -> Op:
    out = work / f"det{log.ref}"
    argv = ["detect", str(log.out / "events.jsonl"), "--variant", variant,
            "--out", str(out)]
    if variant == "eg-pt":
        argv += ["--model", str(model)]
    return Op(variant, argv, out, (f"alerts_{variant}.jsonl",), log.ref,
              log.events)


def sweep_op(work: Path, seed: int) -> Op:
    config = work / f"sweep{seed}.json"
    config.write_text(json.dumps({"seeds": [seed]}), "utf-8")
    out = work / f"sweep{seed}"
    return Op("lsc-sweep", ["--config", str(config), "experiment",
                            "--variants", "lsc", "--sweep", "--out", str(out)],
              out, ("experiment.csv", "sweep.csv"), str(seed))


class Workload:
    """Set-up, timed op list and post ops of one workload run."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seeds = random.Random(f"{name}:{seed}").sample(
            POOL, DETECT_LOGS if name == "detect" else 1)

    def setup(self, runner: Runner, work: Path) -> list[Op]:
        """Make the inputs under ``work``; return the ops that made logs."""
        work.mkdir(parents=True)
        if self.name == "detect":
            model = model_op(work)
            runner.run(model, "setup")
            ops = []
            for seed in self.seeds:
                log = simulate_op(work, seed)
                runner.run(log, "setup")
                ops.append(log)
            return ops
        return []

    def timed_ops(self, work: Path, inputs: list[Op]) -> list[Op]:
        if self.name == "lsc-sweep":
            return [sweep_op(work, self.seeds[0])]
        for log in inputs:
            log.events = count_events(log)
        model = work / "model" / "forensics_model.json"
        return [detect_op(work, log, v, model)
                for log in inputs for v in VARIANTS]

    def post(self, runner: Runner, work: Path, ops: list[Op]) -> None:
        """Count the sweep's events from the program's own output."""
        if self.name == "lsc-sweep":
            log = simulate_op(work, self.seeds[0])
            runner.run(log, "post")
            for op in ops:
                op.events = count_events(log) * SWEEP_CELLS


# -- machine facts -------------------------------------------------------------

def _cpu_jiffies() -> list[int]:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return []


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(jiffies_start: list[int], load_start) -> dict:
    """Facts that let a reader recognise a noisy run."""
    jiffies_end = _cpu_jiffies()
    delta = [b - a for a, b in zip(jiffies_start, jiffies_end)]
    steal = delta[7] if len(delta) > 7 else 0
    numpy = sys.modules.get("numpy")
    return {
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "steal_jiffies": steal,
        "steal_share": steal / sum(delta) if sum(delta) > 0 else 0.0,
    }


# -- the run -----------------------------------------------------------------

def kind_summary(runner: Runner) -> dict[str, dict]:
    """Per "<phase>:<kind>": sample count and median / min / max seconds."""
    times: dict[str, list[float]] = {}
    for op in runner.ops:
        times.setdefault(f"{op['phase']}:{op['kind']}", []).append(
            op["seconds"])
    return {k: {"n": len(v), "median_s": statistics.median(v),
                "min_s": min(v), "max_s": max(v)} for k, v in times.items()}


def run_untraced(workload: Workload, runner: Runner, work: Path,
                 seconds: float) -> dict:
    setup_s: list[float] = []
    while len(setup_s) < SETUP_MIN or sum(setup_s) < SETUP_BUDGET_S:
        # Free the previous set-up's modules first, so that peak_rss_mb does
        # not grow with the number of set-ups.
        gc.collect()
        t0 = time.perf_counter()
        runner.cli = load_program()
        inputs_dir = work / f"setup{len(setup_s)}"
        inputs = workload.setup(runner, inputs_dir)
        setup_s.append(time.perf_counter() - t0)
    ops = workload.timed_ops(inputs_dir, inputs)

    samples: list[list[float]] = [[] for _ in ops]
    i = 0
    deadline = time.perf_counter() + seconds
    # At least one whole pass, then until the deadline.
    while i < len(ops) or time.perf_counter() < deadline:
        samples[i % len(ops)].append(runner.run(ops[i % len(ops)], "timed"))
        i += 1
    workload.post(runner, inputs_dir, ops)
    # One pass at each op's own median time, so a deadline that cuts a pass
    # short weighs no op more than another.
    wall = sum(statistics.median(t) for t in samples)
    return {
        "metrics": {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (wall, "s"),
            "events_per_s": (sum(op.events for op in ops) / wall,
                             "events/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MiB"),
        },
        "setup_samples_s": setup_s,
        "ops_by_kind": kind_summary(runner),
    }


def run_traced(workload: Workload, runner: Runner, work: Path,
               spans_path: Path) -> dict:
    runner.cli = load_program()
    tracer = Tracer()
    runner.tracer = tracer
    tracer.install()
    try:
        inputs = workload.setup(runner, work / "setup")
    finally:
        tracer.uninstall()
    ops = workload.timed_ops(work / "setup", inputs)
    # Each op runs untraced and then traced, so host drift over the pass
    # hits both sides of the overhead alike.
    untraced = traced = 0.0
    for op in ops:
        untraced += runner.run(op, "untraced")
        tracer.install()
        try:
            traced += runner.run(op, "traced")
        finally:
            tracer.uninstall()
    workload.post(runner, work / "setup", ops)
    metrics = tracer.layer_metrics()
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.spans"] = (len(tracer.start), "count")
    tracer.write(spans_path, runner.ops)
    return {"metrics": metrics, "ops_by_kind": kind_summary(runner),
            "spans_file": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    jiffies, load = _cpu_jiffies(), os.getloadavg()
    t_start = time.perf_counter()
    try:
        reference = load_reference()
        workload = Workload(args.workload, args.seed)
        runner = Runner(reference)
        work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        OUT.mkdir(exist_ok=True)
        try:
            if args.trace:
                result = run_traced(workload, runner, work,
                                    OUT / f"{tag}-spans.json.gz")
            else:
                result = run_untraced(workload, runner, work, args.seconds)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    facts = machine_facts(jiffies, load)
    digests = {"checked": runner.checked,
               "unchecked": sorted(f"{r}/{n}" for r, n in runner.unchecked),
               "failed": runner.failed}
    metrics = {k: {"value": v, "unit": u}
               for k, (v, u) in result.pop("metrics").items()}
    record = {"workload": args.workload, "seed": args.seed,
              "sim_seeds": workload.seeds, "trace": args.trace,
              "seconds": args.seconds,
              "run_s": time.perf_counter() - t_start, "machine": facts,
              "digests": digests, "failures": runner.failures,
              "metrics": metrics, **result, "ops": runner.ops}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                     "utf-8")

    print(f"workload {args.workload} seed {args.seed} "
          f"(simulation seeds {workload.seeds}), trace {args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for kind, s in sorted(result["ops_by_kind"].items()):
        print(f"op {kind}: n={s['n']} median {s['median_s']:.4f} s "
              f"(min {s['min_s']:.4f}, max {s['max_s']:.4f})")
    status = "unchecked" if runner.unchecked else "checked"
    print(f"reference digests: {status} ({runner.checked} matched, "
          f"{len(runner.unchecked)} without a stored digest, "
          f"{runner.failed} ops failed)")
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for k, m in metrics.items():
        print(f"{k} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": runner.failed == 0 and not runner.unchecked,
        "attempted": len(runner.ops),
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
