"""Record the reference digests the benchmark checks outputs against.

    python3 bench/record.py

For the forensics model and for every simulation seed in ``run.POOL``, runs
every command a workload can issue and stores the SHA-256 of each output in
``bench/reference.json``, replacing the file. Run it only when a change
alters the program's outputs on purpose, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    reference: dict = {}
    runner = run.Runner(reference, record=True)
    runner.cli = run.load_program()
    work = run.WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    try:
        model = run.model_op(work)
        runner.run(model, "record")
        for seed in run.POOL:
            log = run.simulate_op(work, seed)
            runner.run(log, "record")
            for variant in run.VARIANTS:
                runner.run(run.detect_op(work, log, variant,
                                         model.out / model.files[0]), "record")
            runner.run(run.sweep_op(work, seed), "record")
            print(f"seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if runner.failed:
        for failure in runner.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return 1
    ordered = {k: dict(sorted(v.items()))
               for k, v in sorted(reference.items())}
    run.REFERENCE.write_text(json.dumps(ordered, indent=1) + "\n", "utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
