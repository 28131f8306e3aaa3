"""Isolation forest oracles and ML-advice behavior."""

import math

import oracle_engine
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentinel import anomaly
from sentinel.anomaly import (IsoForest, average_path_length, behavior_vector,
                              harmonic, ml_advice)
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
    assert (anomaly.ML_WEIGHT, anomaly.ML_SCORE_FLOOR, anomaly.ML_BAND) == (
        0.5, 0.5, 0.8)
    theta = 5.0
    # below the band: exact no-op regardless of score
    assert ml_advice(0.99, 3.9, theta) == 3.9
    # inside the band: bump by weight * (score - floor), capped
    assert ml_advice(0.7, 4.2, theta) == pytest.approx(4.2 + 0.5 * 0.2)
    assert ml_advice(0.3, 4.2, theta) == 4.2  # below score floor
    # the cap: advice alone cannot bridge more than (1 - band) * theta
    assert ml_advice(5.0, 4.2, theta) == pytest.approx(4.2 + 0.2 * theta)


def test_ml_advice_never_lowers_risk():
    rng = substream(3, "advice")
    for _ in range(500):
        risk = rng.random() * 8.0
        score = rng.random()
        theta = 3.0 + rng.random() * 4.0
        assert ml_advice(score, risk, theta) >= risk


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


_VALUE = st.sampled_from([0.0, 1.0, 2.0, 7.0, 1500.0]) | st.floats(0.0, 1e4)


@st.composite
def forest_samples(draw):
    """Rows of one to seven dimensions, some of them constant, drawn from a
    few distinct rows so that duplicates are common; from two rows to more
    than the default psi of 64."""
    fixed = [draw(st.none() | _VALUE) for _ in range(draw(st.integers(1, 7)))]
    distinct = draw(st.lists(st.tuples(*(
        _VALUE if c is None else st.just(c) for c in fixed)),
        min_size=1, max_size=40))
    return draw(st.lists(st.sampled_from(distinct), min_size=2, max_size=90))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(vectors=forest_samples(), seed=st.integers(0, 2**31 - 1),
       psi=st.sampled_from([2, 5, 64]), t=st.integers(1, 8), data=st.data())
def test_forest_matches_frozen_builder(vectors, seed, psi, t, data):
    live = IsoForest.fit(vectors, seed, psi=psi, t=t)
    frozen = oracle_engine.IsoForest.fit(vectors, seed, psi=psi, t=t)
    assert live.trees == frozen.trees
    probe = data.draw(st.tuples(*[_VALUE] * len(vectors[0])))
    for v in vectors[:4] + [probe]:
        assert live.score(v) == frozen.score(v)
