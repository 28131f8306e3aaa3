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
        for name in VARIANTS:
            cells[(name, seed)] = evalkit.run_cell(
                name, sim_results[seed], model=pretrained_model)
    return {"cells": cells, "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="session")
def lsc_sweep(sim_results):
    """(theta, seed) -> report for the LSC threshold sweep, plus wall time."""
    cells = {}
    t0 = time.monotonic()
    for theta in evalkit.SWEEP_THETAS:
        for seed in SEEDS:
            cells[(theta, seed)] = evalkit.run_cell(
                "lsc", sim_results[seed], theta)[1]
    return {"cells": cells, "elapsed": time.monotonic() - t0}
