"""Shared fixtures.

The expensive artifacts (trained forensics model, the full variant x seed
alert matrix) are built once per session and shared between the unit tests
and the acceptance suite.
"""

import time

import pytest

from sentinel import evalkit, simkit

SEEDS = tuple(evalkit.DEFAULT_SEEDS)
VARIANTS = ("lsc", "ce", "eg", "eg-pt")


@pytest.fixture(scope="session")
def pretrained_model():
    return evalkit.train_default_model()


@pytest.fixture(scope="session")
def sim_results():
    """seed -> SimResult for the default 10-seed experiment."""
    cfg = simkit.default_config()
    return {seed: simkit.run_simulation(cfg, seed) for seed in SEEDS}


@pytest.fixture(scope="session")
def experiment_matrix(pretrained_model, sim_results):
    """(variant, seed) -> (alerts, report); plus the wall time it took.

    This is the default-config variant x seed matrix behind the qualitative
    replication checks. Alerts are kept (not just reports) so gate audits
    can inspect evidence.
    """
    cells = {}
    t0 = time.monotonic()
    for seed in SEEDS:
        runs = evalkit.run_cells([(name, 4.0) for name in VARIANTS],
                                 sim_results[seed], pretrained_model)
        cells.update(((name, seed), run) for name, run in zip(VARIANTS, runs))
    return {"cells": cells, "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="session")
def lsc_sweep(sim_results):
    """(theta, seed) -> report for the LSC threshold sweep, plus wall time."""
    cells = {}
    t0 = time.monotonic()
    for seed in SEEDS:
        runs = evalkit.run_cells([("lsc", t) for t in evalkit.SWEEP_THETAS],
                                 sim_results[seed])
        cells.update(((theta, seed), report) for theta, (_, report)
                     in zip(evalkit.SWEEP_THETAS, runs))
    return {"cells": cells, "elapsed": time.monotonic() - t0}
