"""Metric oracles and report plumbing on small hand-built examples."""

import csv
import io
from collections import Counter

import pytest

from sentinel import anomaly, siem, simkit
from sentinel.events import Alert, Evidence, EvidenceKind, GroundTruth, Scenario
from sentinel.evalkit import (CSV_COLUMNS, SWEEP_THETAS, RunReport,
                              actor_metrics, aggregate, alert_metrics,
                              f1_score, reports_to_csv, run_cell,
                              run_experiment, score_run, ttd, ttd_by_scenario)

_EV = (Evidence(EvidenceKind.POLICY_VIOLATION, 2.0, 0),)


def _alert(actor, step, tier="confirmed"):
    return Alert(tier=tier, actor_id=actor, step=step, score=5.0,
                 evidence=_EV, tom_assisted=False)


TRUTHS = [
    GroundTruth("u001", False),
    GroundTruth("u002", False),
    GroundTruth("u040", True, Scenario.STEALTH, 70),
    GroundTruth("u041", True, Scenario.EMAIL_LEAKAGE, 80),
]


def test_f1_score_oracles():
    assert f1_score(0.0, 0.0) == 0.0
    assert f1_score(1.0, 1.0) == 1.0
    assert f1_score(0.5, 1.0) == pytest.approx(2 / 3)
    # reference operating points and their exact harmonic means
    assert f1_score(0.369, 0.888) == pytest.approx(2 * 0.369 * 0.888 / 1.257)
    assert f1_score(0.633, 1.000) == pytest.approx(1.266 / 1.633)
    assert f1_score(0.975, 0.875) == pytest.approx(2 * 0.975 * 0.875 / 1.850)
    assert f1_score(1.000, 0.875) == pytest.approx(1.750 / 1.875)


def test_actor_metrics_oracle():
    alerts = [_alert("u040", 75), _alert("u040", 76), _alert("u001", 90),
              _alert("u041", 50, tier="early")]
    p, r, f1 = actor_metrics(alerts, TRUTHS, warmup_steps=60)
    # detected actors: u040 (tp), u001 (fp); u041 missed (early only)
    assert p == pytest.approx(0.5)
    assert r == pytest.approx(0.5)
    assert f1 == pytest.approx(0.5)


def test_alert_metrics_oracle():
    alerts = [_alert("u040", 75), _alert("u001", 90),
              _alert("u040", 74, tier="early"), _alert("u002", 74, tier="early"),
              _alert("u002", 76, tier="early")]
    early_p, confirmed_p, fp = alert_metrics(alerts, TRUTHS)
    assert early_p == pytest.approx(1 / 3)
    assert confirmed_p == pytest.approx(0.5)
    assert fp == 1


def test_ttd_counts_first_confirmed_at_or_after_onset():
    alerts = [_alert("u040", 65),  # before onset: ignored
              _alert("u040", 77), _alert("u040", 99),
              _alert("u041", 83)]
    avg, worst = ttd(alerts, TRUTHS)
    assert avg == pytest.approx((7 + 3) / 2)
    assert worst == 7
    by_scenario = ttd_by_scenario(alerts, TRUTHS)
    assert by_scenario[Scenario.STEALTH] == 7
    assert by_scenario[Scenario.EMAIL_LEAKAGE] == 3
    assert ttd([], TRUTHS) == (None, None)


def test_score_run_drops_warmup_alerts():
    alerts = [_alert("u001", 10), _alert("u040", 75)]
    report = score_run("eg", 1, 4.0, alerts, TRUTHS, warmup_steps=60)
    assert report.actor_precision == 1.0
    assert report.confirmed_alerts == 1
    assert report.ttd_scenario == {"stealth": 5.0}


def test_aggregate_means_and_validation():
    r1 = score_run("eg", 1, 4.0, [_alert("u040", 75)], TRUTHS, 60)
    r2 = score_run("eg", 2, 4.0, [_alert("u040", 79), _alert("u041", 85)],
                   TRUTHS, 60)
    mean = aggregate([r1, r2])
    assert mean.seed == -1
    assert mean.actor_recall == pytest.approx((0.5 + 1.0) / 2)
    # F1 is the mean of per-run F1s (2/3 and 1), not f1 of the mean P and R
    assert mean.actor_f1 == pytest.approx((r1.actor_f1 + r2.actor_f1) / 2)
    assert mean.actor_f1 == pytest.approx(5 / 6)
    assert mean.actor_f1 != pytest.approx(
        f1_score(mean.actor_precision, mean.actor_recall))
    assert f1_score(mean.actor_precision, mean.actor_recall) == \
        pytest.approx(6 / 7)
    assert mean.ttd_avg == pytest.approx((5.0 + 7.0) / 2)
    # scenario means skip seeds where the scenario went undetected
    assert mean.ttd_scenario["email_leakage"] == pytest.approx(5.0)
    with pytest.raises(ValueError, match="nothing"):
        aggregate([])
    with pytest.raises(ValueError, match="mixed variants"):
        aggregate([r1, score_run("ce", 1, 4.0, [], TRUTHS, 60)])


def test_csv_shape_and_formatting():
    r1 = score_run("eg", 1, 4.0, [_alert("u040", 75)], TRUTHS, 60)
    text = reports_to_csv([r1, aggregate([r1])])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 3
    assert rows[1][0] == "eg" and rows[1][1] == "1"
    assert rows[2][1] == "mean"
    assert rows[1][3] == "1.000000"  # floats carry six decimals
    assert rows[1][-1] == ""  # undetected scenario leaves the cell empty


def test_aggregate_and_csv_cover_every_field_in_order():
    # Every measure holds values of its own, so a skipped field or a shifted
    # column shows; halves keep every mean exact.
    measures = [0.5, 1.5, 2.5, 3.5, 4.5, 5, 6, 7, 8.5, 9, 10]
    r1 = RunReport("eg", 1, 4.0, *measures, {"email_leakage": 11.0})
    r2 = RunReport("eg", 2, 4.0, *[m + 1 for m in measures],
                   {"email_leakage": 12.0, "stealth": 3.0})
    assert aggregate([r1, r2]) == RunReport(
        "eg", -1, 4.0, *[m + 0.5 for m in measures],
        {"email_leakage": 11.5, "stealth": 3.0})
    rows = list(csv.reader(io.StringIO(reports_to_csv([r1, r2]))))
    assert rows == [
        ["variant", "seed", "theta_base", "actor_precision", "actor_recall",
         "actor_f1", "early_precision", "confirmed_precision",
         "confirmed_alerts", "confirmed_fp", "early_alerts", "ttd_avg",
         "ttd_max", "tom_assisted", "ttd_email_leakage"],
        ["eg", "1", "4.000000", "0.500000", "1.500000", "2.500000",
         "3.500000", "4.500000", "5", "6", "7", "8.500000", "9", "10",
         "11.000000"],
        ["eg", "2", "4.000000", "1.500000", "2.500000", "3.500000",
         "4.500000", "5.500000", "6", "7", "8", "9.500000", "10", "11",
         "12.000000"],
    ]


def test_run_experiment_simulates_each_seed_once(monkeypatch):
    config = simkit.SimConfig(total_steps=110)
    seeds = (7, 8)
    logs = {seed: simkit.run_simulation(config, seed) for seed in seeds}
    simulated = []

    def counting(sim_config, seed):
        simulated.append(seed)
        return logs[seed]
    monkeypatch.setattr(simkit, "run_simulation", counting)
    matrix, sweep = run_experiment(variants=("lsc", "ce"), seeds=seeds,
                                   sim_config=config, sweep=True)
    assert simulated == list(seeds)

    # The same rows built cell by cell, in the variant-major matrix and the
    # theta-major sweep order.
    def rows(variant, theta):
        reports = [run_cell(variant, logs[seed], theta)[1] for seed in seeds]
        return reports + [aggregate(reports)]
    assert reports_to_csv(matrix) == reports_to_csv(
        rows("lsc", 4.0) + rows("ce", 4.0))
    assert reports_to_csv(sweep) == reports_to_csv(
        [r for theta in SWEEP_THETAS for r in rows("lsc", theta)])


def test_run_experiment_shares_one_feature_pass_per_seed(monkeypatch):
    # The LSC matrix and sweep cells of one seed share one engine run: one
    # warm-up scorer fit, not one per cell. A role's forest is fitted when a
    # decision first reads its score, so no role is fitted twice and the
    # forests fitted are exactly those scored.
    config = simkit.SimConfig(total_steps=110)
    log = simkit.run_simulation(config, 7)
    monkeypatch.setattr(simkit, "run_simulation", lambda cfg, seed: log)
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(siem.SiemEngine, "run",
                        counting("run", siem.SiemEngine.run))
    monkeypatch.setattr(siem.OnlineScorer, "warmup_fit", counting(
        "warmup_fit", siem.OnlineScorer.warmup_fit))
    fitted, seeds, scored = [], [], set()
    fit, score = anomaly.IsoForest.fit.__func__, anomaly.IsoForest.score

    def recording_fit(cls, vectors, seed, *args, **kwargs):
        seeds.append(seed)   # one substream seed per role
        fitted.append(fit(cls, vectors, seed, *args, **kwargs))
        return fitted[-1]

    def recording_score(forest, v):
        scored.add(id(forest))
        return score(forest, v)
    monkeypatch.setattr(anomaly.IsoForest, "fit", classmethod(recording_fit))
    monkeypatch.setattr(anomaly.IsoForest, "score", recording_score)
    matrix, sweep = run_experiment(variants=("lsc",), seeds=(7,),
                                   sim_config=config, sweep=True)
    roles = {a.role for a in log.roster}
    assert dict(calls) == {"run": 1, "warmup_fit": 1}
    assert len(set(seeds)) == len(seeds) <= len(roles)
    assert scored and {id(forest) for forest in fitted} == scored
    assert len(matrix) == 2 and len(sweep) == 2 * len(SWEEP_THETAS)
