"""Isolation forest oracles and ML-advice behavior."""

import math

import pytest

from sentinel.anomaly import (IsoForest, MlAdviceConfig, average_path_length,
                              behavior_vector, harmonic, ml_advice)
from sentinel.events import ActionKind, Event
from sentinel.rng import substream
from sentinel.siem import summarize


def brute_force_path(tree, v):
    """Independent recursive evaluation of a serialized partition tree."""
    if "leaf" in tree:
        if "value" in tree and list(v) != tree["value"]:
            return 0.0
        return average_path_length(tree["leaf"])
    child = tree["left"] if v[tree["dim"]] < tree["split"] else tree["right"]
    return 1.0 + brute_force_path(child, v)


def test_harmonic_closed_form():
    assert harmonic(1) == 1.0
    assert harmonic(4) == pytest.approx(1 + 1 / 2 + 1 / 3 + 1 / 4)


def test_average_path_length_reference():
    assert average_path_length(0) == 0.0
    assert average_path_length(1) == 0.0
    assert average_path_length(2) == pytest.approx(2.0 * 1.0 - 1.0)
    n = 256
    assert average_path_length(n) == pytest.approx(
        2.0 * (math.log(n - 1) + 0.5772156649) - 2.0 * (n - 1) / n, rel=1e-3)


def test_path_length_matches_brute_force_small_psi():
    for seed in range(10):
        rng = substream(seed, "pl-test")
        data = [(rng.random() * 10.0,) for _ in range(12)]
        forest = IsoForest.fit(data, seed=seed, psi=4, t=25)
        queries = data + [(rng.random() * 20.0 - 5.0,) for _ in range(20)]
        for v in queries:
            for tree in forest.trees:
                assert forest.path_length(v, tree) == pytest.approx(
                    brute_force_path(tree, v))


def test_injected_outliers_score_above_training():
    for seed in range(20):
        rng = substream(seed, "outlier-test")
        data = [(1.0 + rng.random(),) for _ in range(64)]
        forest = IsoForest.fit(data, seed=seed)
        scores = sorted(forest.score(v) for v in data)
        outlier = (10.0 * max(v[0] for v in data),)
        # training-cloud edge points can isolate as fast as a far outlier, so
        # require separation from the bulk rather than beating every point
        assert forest.score(outlier) > scores[len(scores) * 9 // 10]
        assert forest.score(outlier) > 0.5


def test_fit_validation():
    with pytest.raises(ValueError, match="at least 2"):
        IsoForest.fit([(1.0,)], seed=1)
    with pytest.raises(ValueError, match="dimensions"):
        IsoForest.fit([(1.0,), (1.0, 2.0)], seed=1)
    forest = IsoForest.fit([(1.0,), (2.0,)], seed=1)
    with pytest.raises(ValueError, match="dimension"):
        forest.score((1.0, 2.0))


def test_ml_advice_band_and_cap():
    cfg = MlAdviceConfig(weight=0.5, score_floor=0.5, band=0.8)
    theta = 5.0
    # below the band: exact no-op regardless of score
    assert ml_advice(0.99, 3.9, theta, cfg) == 3.9
    # inside the band: bump by weight * (score - floor), capped
    assert ml_advice(0.7, 4.2, theta, cfg) == pytest.approx(4.2 + 0.5 * 0.2)
    assert ml_advice(0.3, 4.2, theta, cfg) == 4.2  # below score floor
    # the cap: advice alone cannot bridge more than (1 - band) * theta
    assert ml_advice(5.0, 4.2, theta, cfg) == pytest.approx(4.2 + 0.2 * theta)


def test_ml_advice_never_lowers_risk():
    cfg = MlAdviceConfig()
    rng = substream(3, "advice")
    for _ in range(500):
        risk = rng.random() * 8.0
        score = rng.random()
        theta = 3.0 + rng.random() * 4.0
        assert ml_advice(score, risk, theta, cfg) >= risk


def test_behavior_vector_counts():
    window = [
        Event(0, "u1", ActionKind.LOGIN, {"context": "after_hours"}),
        Event(1, "u1", ActionKind.LOGIN, {"context": "normal"}),
        Event(2, "u1", ActionKind.DB_QUERY,
              {"resource": "crm_db", "sensitivity": "sensitive"}),
        Event(3, "u1", ActionKind.FILE_EXPORT,
              {"volume": 400, "resource": "crm_db", "destination": "external"}),
        Event(4, "u1", ActionKind.EMAIL_SEND,
              {"recipient_domain": "external", "recipient": "x.example",
               "body": "hello"}),
    ]
    vec = behavior_vector(summarize(window, frozenset()))
    assert vec == (2.0, 1.0, 1.0, 1.0, 1.0, 400.0, 1.0)
