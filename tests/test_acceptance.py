"""Acceptance suite: eleven primary criteria, one printed verdict line each.

Each test computes its result, prints "criterion N: PASS/FAIL ..." before
asserting, and enforces the stated runtime budget. Criteria that cannot hold
as written fail here rather than being weakened; the assertion message says
exactly which sub-check broke.
"""

import math
import time

import numpy as np
import pytest

from sentinel import evalkit, simkit
from sentinel.anomaly import IsoForest, average_path_length
from sentinel.events import (Alert, Evidence, EvidenceKind, GroundTruth,
                             serialize_alert_log, serialize_event_log)
from sentinel.forensics import MultinomialClassifier
from sentinel.rng import substream
from sentinel.siem import (TRUST_HI, TRUST_INIT, TRUST_LO, EwmaState,
                           ewma_update, thresholds, update_trust)

SEEDS = tuple(evalkit.DEFAULT_SEEDS)
INSIDER_IDS = {f"u{i:03d}" for i in range(35, 43)}


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- 1: metric formula fidelity ---------------------------------------------

# The paper's actor-level (P, R, F1) per variant, each a mean over ten runs.
# Its F1 column is a mean of per-run F1 scores, as `evalkit.aggregate`
# computes it, so it need not equal the harmonic mean of the mean P and R.
CRITERION_1_ROWS = {
    "lsc": (0.369, 0.888, 0.521),
    "ce": (0.633, 1.000, 0.774),
    "eg": (0.975, 0.875, 0.922),
    "eg-pt": (1.000, 0.875, 0.933),
}

# Ten per-run (insiders detected, benign actors detected) outcomes per row.
# The paper publishes no per-run data: these are constructed examples whose
# means reproduce each row through score_run and aggregate.
CRITERION_1_RUNS = {
    "lsc": ((4, 23), (5, 15), (7, 11), (7, 12), (8, 8), (8, 10),
            (8, 11), (8, 11), (8, 11), (8, 16)),
    "ce": ((8, 3),) + ((8, 4),) * 3 + ((8, 5),) * 4 + ((8, 6),) * 2,
    "eg": ((7, 0),) * 8 + ((7, 1),) * 2,
    "eg-pt": ((7, 0),) * 10,
}


def _constructed_report(variant, seed, tp, fp, roster, warmup_steps):
    """score_run over one confirmed post-warmup alert per detected actor."""
    insiders = [a.actor_id for a in roster if a.malicious]
    benign = [a.actor_id for a in roster if not a.malicious]
    truths = [GroundTruth(a.actor_id, a.malicious, a.scenario, a.start_step)
              for a in roster]
    evidence = (Evidence(EvidenceKind.POLICY_VIOLATION, 2.0, warmup_steps),)
    alerts = [Alert("confirmed", actor, warmup_steps, 5.0, evidence, False)
              for actor in insiders[:tp] + benign[:fp]]
    return evalkit.score_run(variant, seed, 4.0, alerts, truths,
                             warmup_steps)


def test_criterion_1_metric_formula_fidelity():
    t0 = time.monotonic()
    cfg = simkit.SimConfig()
    roster = simkit.generate_roster(cfg, SEEDS[0])
    broken = []
    concavity, reproduction = {}, {}
    for variant, (p, r, f1) in CRITERION_1_ROWS.items():
        # (a) a mean of per-run F1s never exceeds f1 of the mean P and R
        concavity[variant] = f1 - evalkit.f1_score(p, r)
        if concavity[variant] > 1e-3:
            broken.append(f"{variant} (a) concavity bound: F1 {f1} exceeds "
                          f"f1_score({p}, {r}) = "
                          f"{evalkit.f1_score(p, r):.4f} by more than 0.001")
        # (b) the repo's own metric path reproduces the row
        mean = evalkit.aggregate([
            _constructed_report(variant, seed, tp, fp, roster,
                                cfg.warmup_steps)
            for seed, (tp, fp) in zip(SEEDS, CRITERION_1_RUNS[variant])])
        got = (mean.actor_precision, mean.actor_recall, mean.actor_f1)
        reproduction[variant] = max(abs(g - w) for g, w in
                                    zip(got, (p, r, f1)))
        if reproduction[variant] > 1e-3:
            broken.append(f"{variant} (b) score_run -> aggregate gives "
                          f"P/R/F1 {'/'.join('%.4f' % g for g in got)}, "
                          f"not {p}/{r}/{f1} within 0.001")
    elapsed = time.monotonic() - t0
    ok = not broken and elapsed < 1.0
    _verdict(1, ok, "per row, (a) F1 - f1(P, R) and (b) largest |aggregate - "
                    "paper|: " + ", ".join(
                        f"{v} {concavity[v]:+.4f} {reproduction[v]:.4f}"
                        for v in CRITERION_1_ROWS) + f", {elapsed:.3f}s")
    assert elapsed < 1.0
    assert not broken, "; ".join(broken)


# -- 2: threshold formula ---------------------------------------------------

def test_criterion_2_threshold_formula():
    t0 = time.monotonic()
    base, slope, frac = 4.0, 2.0, 0.6
    exact = True
    last = -math.inf
    increasing = True
    for i in range(100):
        trust = i / 99.0
        early, confirm = thresholds(trust, base, slope, frac)
        exact &= confirm == base + slope * (trust - 0.5)
        exact &= early == frac * confirm
        increasing &= confirm > last
        last = confirm
    elapsed = time.monotonic() - t0
    ok = exact and increasing and elapsed < 1.0
    _verdict(2, ok, f"100-point grid exact={exact}, strictly "
                    f"increasing={increasing}, {elapsed:.3f}s")
    assert ok


# -- 3: trust dynamics ------------------------------------------------------

def test_criterion_3_trust_dynamics():
    t0 = time.monotonic()
    rng = substream(303, "acceptance-trust")
    outcomes = ("true_positive", "false_positive", "decay_tick")
    in_bounds = True
    for _ in range(10_000):
        trust = TRUST_LO + rng.random() * (TRUST_HI - TRUST_LO)
        for _ in range(rng.randint(1, 15)):
            trust = update_trust(trust, outcomes[rng.randint(0, 2)])
            in_bounds &= TRUST_LO <= trust <= TRUST_HI
    converged = True
    for start in (TRUST_LO, TRUST_HI):
        trust = start
        for _ in range(500):
            trust = update_trust(trust, "decay_tick")
        converged &= abs(trust - TRUST_INIT) < 1e-6
    elapsed = time.monotonic() - t0
    ok = in_bounds and converged and elapsed < 5.0
    _verdict(3, ok, f"bounds [0.10, 0.95] held={in_bounds}, decay converges "
                    f"to 0.7={converged}, {elapsed:.2f}s")
    assert ok


# -- 4: EWMA oracle ---------------------------------------------------------

def test_criterion_4_ewma_oracle():
    t0 = time.monotonic()
    rng = substream(404, "acceptance-ewma")
    worst = 0.0
    for _ in range(1000):
        alpha = 0.01 + rng.random() * 0.5
        state = EwmaState(mean=rng.random(), var=rng.random(), alpha=alpha)
        mean, var = state.mean, state.var
        for _ in range(25):
            x = rng.random() * 10.0
            state, dev = ewma_update(state, x, eps=1e-6)
            expected_dev = max(0.0, (x - mean) / math.sqrt(var + 1e-6))
            var = (1 - alpha) * (var + alpha * (x - mean) ** 2)
            mean = (1 - alpha) * mean + alpha * x
            worst = max(worst, abs(dev - expected_dev),
                        abs(state.mean - mean), abs(state.var - var))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    _verdict(4, ok, f"1000 streams, worst closed-form delta {worst:.2e}, "
                    f"{elapsed:.2f}s")
    assert ok


# -- 5: isolation forest oracle ---------------------------------------------

def _brute_force_path(tree, v):
    if "leaf" in tree:
        if "value" in tree and list(v) != tree["value"]:
            return 0.0
        return average_path_length(tree["leaf"])
    child = tree["left"] if v[tree["dim"]] < tree["split"] else tree["right"]
    return 1.0 + _brute_force_path(child, v)


def test_criterion_5_isolation_forest_oracle():
    t0 = time.monotonic()
    paths_match = True
    for seed in range(10):
        rng = substream(seed, "acceptance-if-path")
        data = [(rng.random() * 10.0,) for _ in range(12)]
        forest = IsoForest.fit(data, seed=seed, psi=4, t=25)
        for v in data + [(rng.random() * 20.0 - 5.0,) for _ in range(10)]:
            for tree in forest.trees:
                paths_match &= forest.path_length(v, tree) == pytest.approx(
                    _brute_force_path(tree, v))
    outliers_on_top = True
    for seed in range(20):
        rng = substream(seed, "acceptance-if-outlier")
        data = [(1.0 + rng.random(),) for _ in range(64)]
        outlier = (10.0 * max(v[0] for v in data),)
        forest = IsoForest.fit(data + [outlier], seed=seed)
        top = max(forest.score(v) for v in data)
        outliers_on_top &= forest.score(outlier) > top
    elapsed = time.monotonic() - t0
    ok = paths_match and outliers_on_top and elapsed < 10.0
    _verdict(5, ok, f"brute-force paths match={paths_match}, injected 10x "
                    f"outliers on top on 20 seeds={outliers_on_top}, "
                    f"{elapsed:.2f}s")
    assert ok


# -- 6: classifier ----------------------------------------------------------

def test_criterion_6_classifier():
    t0 = time.monotonic()
    model = evalkit.train_default_model()  # 2000 emails, 85/15 split
    accuracy = model.accuracies[model.selected_family]
    nb_exact = True
    rng = substream(606, "acceptance-nb")
    for _ in range(20):
        n_docs = rng.randint(3, 5)
        n_terms = rng.randint(3, 6)
        counts = np.array([[rng.randint(0, 4) for _ in range(n_terms)]
                           for _ in range(n_docs)], dtype=float)
        y = np.array([0, 1] + [rng.randint(0, 1) for _ in range(n_docs - 2)])
        clf = MultinomialClassifier(alpha=1.0).fit(counts, y)
        for row in counts:
            post = []
            for c in (0, 1):
                rows = counts[y == c]
                totals = rows.sum(axis=0) + 1.0
                post.append(math.log(len(rows) / len(y))
                            + float(row @ np.log(totals / totals.sum())))
            m = max(post)
            expected = math.exp(post[1] - m) / sum(math.exp(p - m) for p in post)
            nb_exact &= abs(clf.predict_proba(row[None, :])[0] - expected) < 1e-12
    elapsed = time.monotonic() - t0
    ok = accuracy >= 0.97 and nb_exact and elapsed < 30.0
    _verdict(6, ok, f"{model.selected_family} hold-out accuracy "
                    f"{accuracy:.4f} (>= 0.97), naive Bayes matches "
                    f"brute-force Bayes={nb_exact}, {elapsed:.1f}s")
    assert ok


# -- 7: qualitative variant ordering ----------------------------------------

def _means(matrix, variant):
    rows = [matrix["cells"][(variant, seed)][1] for seed in SEEDS]
    return evalkit.aggregate(rows)


def test_criterion_7_variant_ordering(experiment_matrix):
    lsc = _means(experiment_matrix, "lsc")
    ce = _means(experiment_matrix, "ce")
    eg = _means(experiment_matrix, "eg")
    checks = {
        "(a) recall CE >= LSC": ce.actor_recall >= lsc.actor_recall,
        "(b) confirmed precision EG >= 0.95 and EG >= CE >= LSC":
            eg.confirmed_precision >= 0.95
            and eg.confirmed_precision >= ce.confirmed_precision
            >= lsc.confirmed_precision,
        "(c) confirmed FP/run EG <= 1.0 and EG < CE":
            eg.confirmed_fp <= 1.0 and eg.confirmed_fp < ce.confirmed_fp,
        "(d) F1 EG > CE > LSC":
            eg.actor_f1 > ce.actor_f1 > lsc.actor_f1,
        "(e) confirmed volume EG < CE":
            eg.confirmed_alerts < ce.confirmed_alerts,
    }
    elapsed = experiment_matrix["elapsed"]
    ok = all(checks.values()) and elapsed < 300.0
    _verdict(7, ok, "; ".join(f"{k}={v}" for k, v in checks.items())
             + f"; matrix wall time {elapsed:.0f}s")
    assert elapsed < 300.0
    assert all(checks.values()), {k: v for k, v in checks.items() if not v}


# -- 8: LSC theta sweep -----------------------------------------------------

def test_criterion_8_lsc_sweep(lsc_sweep):
    per_theta = {
        theta: evalkit.aggregate(
            [lsc_sweep["cells"][(theta, seed)] for seed in SEEDS])
        for theta in evalkit.SWEEP_THETAS
    }
    thetas = sorted(per_theta)
    precision_ok = recall_ok = ttd_ok = True
    for lo, hi in zip(thetas, thetas[1:]):
        precision_ok &= (per_theta[hi].actor_precision
                         >= per_theta[lo].actor_precision - 0.02)
        recall_ok &= (per_theta[hi].actor_recall
                      <= per_theta[lo].actor_recall + 0.02)
        ttd_ok &= per_theta[hi].ttd_avg >= per_theta[lo].ttd_avg
    elapsed = lsc_sweep["elapsed"]
    ok = precision_ok and recall_ok and ttd_ok and elapsed < 180.0
    detail = ", ".join(
        f"theta={t}: P {per_theta[t].actor_precision:.3f} "
        f"R {per_theta[t].actor_recall:.3f} TTD {per_theta[t].ttd_avg:.2f}"
        for t in thetas)
    _verdict(8, ok, f"{detail}; precision up={precision_ok}, recall "
                    f"down={recall_ok}, TTD up={ttd_ok}, {elapsed:.0f}s")
    assert ok


# -- 9: EG gating audit -----------------------------------------------------

def test_criterion_9_gating_audit(experiment_matrix):
    cfg = simkit.SimConfig()
    violations = 0
    subset_ok = True
    for seed in SEEDS:
        for name in ("eg", "eg-pt"):
            alerts, _ = experiment_matrix["cells"][(name, seed)]
            for a in alerts:
                if a.tier != "confirmed" or a.step < cfg.warmup_steps:
                    continue
                kinds = {e.kind for e in a.evidence}
                if len(kinds) < 2 or not a.gates:
                    violations += 1
        eg_alerts, _ = experiment_matrix["cells"][("eg", seed)]
        ce_alerts, _ = experiment_matrix["cells"][("ce", seed)]

        def confirmed_actors(alerts):
            return {a.actor_id for a in alerts if a.tier == "confirmed"
                    and a.step >= cfg.warmup_steps}

        subset_ok &= confirmed_actors(eg_alerts) <= confirmed_actors(ce_alerts)
    ok = violations == 0 and subset_ok
    _verdict(9, ok, f"gating violations {violations}/0, EG confirmed-actor "
                    f"set within CE's on all seeds={subset_ok}")
    assert ok


# -- 10: determinism --------------------------------------------------------

def test_criterion_10_determinism():
    t0 = time.monotonic()
    seeds = (101, 102)

    def one_pass():
        matrix, sweep = evalkit.run_experiment(seeds=seeds, sweep=False)
        sim = simkit.run_simulation(simkit.SimConfig(), seeds[0])
        alerts, _ = evalkit.run_cell("eg", sim)
        return (evalkit.reports_to_csv(matrix).encode(),
                serialize_event_log(sim.events),
                serialize_alert_log(alerts))
    first = one_pass()
    second = one_pass()
    identical = first == second
    elapsed = time.monotonic() - t0
    ok = identical and elapsed < 600.0
    _verdict(10, ok, f"two full passes over seeds {list(seeds)}: CSV and "
                     f"JSONL byte-identical={identical}, {elapsed:.0f}s")
    assert ok


# -- 11: pretrained-model timeliness ----------------------------------------

def test_criterion_11_eg_pt_timeliness(experiment_matrix):
    leak = "email_leakage"
    eg = _means(experiment_matrix, "eg")
    egpt = _means(experiment_matrix, "eg-pt")
    ttd_eg = eg.ttd_scenario.get(leak)
    ttd_pt = egpt.ttd_scenario.get(leak)
    faster = ttd_pt is not None and ttd_eg is not None and ttd_pt <= ttd_eg
    no_fp_increase = egpt.confirmed_fp <= eg.confirmed_fp
    ok = faster and no_fp_increase
    _verdict(11, ok, f"email-leakage TTD eg-pt {ttd_pt} <= eg {ttd_eg}: "
                     f"{faster}; FP/run {egpt.confirmed_fp} <= "
                     f"{eg.confirmed_fp}: {no_fp_increase}")
    assert ok
