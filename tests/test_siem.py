"""Correlation engine unit oracles: EWMA, thresholds, trust, scorer,
policy rules, gates, peer normalization, regularity suppression."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentinel import siem
from sentinel.events import (ActionKind, Event, Evidence, EvidenceKind, Role,
                             Scenario, serialize_alert_log)
from sentinel.rng import substream
from sentinel.siem import (EwmaState, GATE_EXCESS, GATE_LOGIN_CONTEXT,
                           GATE_STAGING, GATE_TIGHT_CHAIN, TRUST_HI, TRUST_INIT,
                           TRUST_LO, W_POLICY, OnlineScorer, PolicyRules,
                           SiemEngine, VariantConfig, ewma_update, excess_gate,
                           gate_confirm, peer_normalize, regularity_suppression,
                           satisfied_gates, scorer_features, summarize,
                           thresholds, update_trust)
from sentinel.simkit import ActorSpec, SimConfig, run_simulation


# -- EWMA -------------------------------------------------------------------

def closed_form_ewma(x0_mean, x0_var, alpha, xs):
    """Independent expansion of the recurrence, folded separately."""
    means = [x0_mean]
    for x in xs:
        means.append((1 - alpha) * means[-1] + alpha * x)
    var = x0_var
    variances = [var]
    for i, x in enumerate(xs):
        var = (1 - alpha) * (var + alpha * (x - means[i]) ** 2)
        variances.append(var)
    return means, variances


def test_ewma_oracle_thousand_streams():
    rng = substream(99, "ewma-oracle")
    for _ in range(1000):
        alpha = 0.01 + rng.random() * 0.5
        xs = [rng.random() * 10.0 for _ in range(30)]
        state = EwmaState(mean=rng.random(), var=rng.random(), alpha=alpha)
        means, variances = closed_form_ewma(state.mean, state.var, alpha, xs)
        for i, x in enumerate(xs):
            state, dev = ewma_update(state, x, eps=1e-6)
            expected_dev = max(0.0, (x - means[i]) / math.sqrt(variances[i] + 1e-6))
            assert abs(dev - expected_dev) < 1e-9
            assert abs(state.mean - means[i + 1]) < 1e-9
            assert abs(state.var - variances[i + 1]) < 1e-9


def test_ewma_state_validation():
    with pytest.raises(ValueError):
        EwmaState(alpha=0.0)
    with pytest.raises(ValueError):
        EwmaState(alpha=1.0)
    with pytest.raises(ValueError):
        EwmaState(var=-0.1)


@given(st.floats(0.01, 0.99), st.lists(st.floats(0, 1e4), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_ewma_deviation_nonnegative_and_finite(alpha, xs):
    state = EwmaState(alpha=alpha)
    for x in xs:
        state, dev = ewma_update(state, x, eps=1e-6)
        assert dev >= 0.0
        assert math.isfinite(state.mean) and math.isfinite(state.var)
        assert state.var >= 0.0


def _python_ewma_update(mean, var, alpha, x, eps):
    """The scalar update in plain Python floats: math.sqrt and ``**``."""
    deviation = max(0.0, (x - mean) / math.sqrt(var + eps))
    return ((1.0 - alpha) * mean + alpha * x,
            (1.0 - alpha) * (var + alpha * (x - mean) ** 2), deviation)


_grid = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.floats(0.0, 1e6) | st.integers(0, 2**52).map(
        lambda k: k / 2**32), min_size=3, max_size=3),
    min_size=n, max_size=n))
# Differences whose square by pow (Python's **) and by one multiplication
# (numpy's **) differ in the last bit.
_X = [[float.fromhex("0x1.b2761c521a374p+19"),
       float.fromhex("0x1.43563d5117365p+17"),
       float.fromhex("0x1.01bfc877a6872p+17")]]
_MEAN = [[0.0, float.fromhex("0x1.86245bcf29229p+17"), 0.0]]


@given(mean=_grid, var=_grid, x=_grid, eps=_grid, alpha=st.floats(0.01, 0.99))
@example(mean=_MEAN, var=[[0.0] * 3], x=_X, eps=[[0.0] * 3], alpha=0.05)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_array_ewma_update_equals_scalar_calls(mean, var, x, eps, alpha):
    # One (n, 3) update is n x 3 scalar updates, bit for bit, and each of
    # those is the plain Python float arithmetic.
    n = min(map(len, (mean, var, x, eps)))
    mean, var, x, eps = (np.array(g[:n]) for g in (mean, var, x, eps))
    eps += 1e-6
    state, deviation = ewma_update(EwmaState(mean, var, alpha), x, eps)
    for i in range(n):
        for j in range(3):
            args = (mean[i, j].item(), var[i, j].item(), alpha,
                    x[i, j].item(), eps[i, j].item())
            scalar, dev = ewma_update(EwmaState(*args[:3]), *args[3:])
            assert (state.mean[i, j], state.var[i, j], deviation[i, j]) \
                == (scalar.mean, scalar.var, dev) \
                == _python_ewma_update(*args)


def test_array_ewma_state_rejects_one_negative_variance():
    var = np.zeros((4, 3))
    var[2, 1] = -1e-300
    with pytest.raises(ValueError, match="variance"):
        EwmaState(mean=np.zeros((4, 3)), var=var)
    EwmaState(mean=np.zeros((4, 3)), var=np.zeros((4, 3)))


# -- thresholds and trust ---------------------------------------------------

def test_threshold_formula_grid_exact():
    base, slope, frac = 4.0, 2.0, 0.6
    last = None
    for i in range(100):
        trust = i / 99.0
        early, confirm = thresholds(trust, base, slope, frac)
        assert confirm == base + slope * (trust - 0.5)
        assert early == frac * confirm
        if last is not None:
            assert confirm > last  # strictly increasing for positive slope
        last = confirm


def test_trust_bounds_ten_thousand_sequences():
    rng = substream(17, "trust-fuzz")
    outcomes = ("true_positive", "false_positive", "decay_tick")
    for _ in range(10000):
        trust = TRUST_LO + rng.random() * (TRUST_HI - TRUST_LO)
        for _ in range(rng.randint(1, 20)):
            trust = update_trust(trust, outcomes[rng.randint(0, 2)])
            assert TRUST_LO <= trust <= TRUST_HI


def test_trust_decay_converges_from_both_bounds():
    for start in (TRUST_LO, TRUST_HI):
        trust = start
        for _ in range(200):
            trust = update_trust(trust, "decay_tick")
        assert abs(trust - TRUST_INIT) < 1e-6


def test_trust_unknown_outcome():
    with pytest.raises(ValueError, match="unknown trust outcome"):
        update_trust(TRUST_INIT, "shrug")


# -- policy rules -----------------------------------------------------------

def test_policy_rules_bundled_hits():
    rules = PolicyRules.bundled()
    denied_mail = Event(0, "u1", ActionKind.EMAIL_SEND,
                        {"recipient_domain": "external",
                         "recipient": "darkpartner.example", "body": "x"})
    assert rules.rule_hits(denied_mail, Role.STAFF) == (
        "denied_domain:darkpartner.example",)

    over_cap = Event(0, "u1", ActionKind.FILE_EXPORT,
                     {"volume": 10_000, "resource": "shared_drive",
                      "destination": "external"})
    assert rules.rule_hits(over_cap, Role.STAFF) == ("export_cap:staff",)
    # power users have a much higher cap
    assert rules.rule_hits(
        Event(0, "u1", ActionKind.FILE_EXPORT,
              {"volume": 4000, "resource": "analytics_db",
               "destination": "external"}),
        Role.POWER_USER) == ()

    denied_res = Event(0, "u1", ActionKind.DB_QUERY,
                       {"resource": "customer_master", "sensitivity": "sensitive"})
    assert rules.rule_hits(denied_res, Role.STAFF) == (
        "denied_resource:customer_master",)
    internal = Event(0, "u1", ActionKind.FILE_EXPORT,
                     {"volume": 10_000, "resource": "shared_drive",
                      "destination": "internal"})
    assert rules.rule_hits(internal, Role.STAFF) == ()
    # one event can break two rules at once
    both = Event(0, "u1", ActionKind.FILE_EXPORT,
                 {"volume": 10_000, "resource": "customer_master",
                  "destination": "external"})
    assert rules.rule_hits(both, Role.STAFF) == (
        "denied_resource:customer_master", "export_cap:staff")


def test_engine_policy_evidence_one_item_per_distinct_rule():
    def denied_mail(step):
        return Event(step, "u001", ActionKind.EMAIL_SEND,
                     {"recipient_domain": "external",
                      "recipient": "darkpartner.example", "body": "notes"})
    over_cap = Event(2, "u001", ActionKind.FILE_EXPORT,
                     {"volume": 10_000, "resource": "shared_drive",
                      "destination": "external"})
    roster = [ActorSpec("u001", Role.STAFF, malicious=False)]
    alerts = SiemEngine([VariantConfig("lsc")], roster, seed=1).run(
        [denied_mail(1), over_cap, denied_mail(3)], total_steps=4,
        warmup_steps=0, feedback=lambda actor_id: False)[0]
    at_step_3 = [a for a in alerts if a.step == 3]
    assert len(at_step_3) == 1
    policy = [(e.detail, e.step, e.weight) for e in at_step_3[0].evidence
              if e.kind is EvidenceKind.POLICY_VIOLATION]
    # the repeated rule counts once, at its first hit in the window
    assert policy == [("denied_domain:darkpartner.example", 1, W_POLICY),
                      ("export_cap:staff", 2, W_POLICY)]


def test_engine_rejects_an_actor_listed_twice():
    roster = [ActorSpec("u001", Role.STAFF, malicious=False),
              ActorSpec("u002", Role.STAFF, malicious=False),
              ActorSpec("u001", Role.ADMIN, malicious=False)]
    with pytest.raises(ValueError, match="'u001' twice"):
        SiemEngine([VariantConfig("lsc")], roster, seed=1)


# -- variant configs --------------------------------------------------------

def test_variant_layer_matrix():
    # README's variant table: ce adds ToM and email forensics to lsc, eg adds
    # the precision layers, eg-pt swaps in the pretrained classifier.
    table = {  # variant: (forensics, gating, pretrained_model)
        "lsc": (False, False, False),
        "ce": (True, False, False),
        "eg": (True, True, False),
        "eg-pt": (True, True, True),
    }
    for name, layers in table.items():
        cfg = VariantConfig(name, theta_base=5.0)
        assert (cfg.forensics, cfg.gating, cfg.pretrained_model) == layers
        assert cfg.variant.value == name and cfg.theta_base == 5.0
    with pytest.raises(ValueError):
        VariantConfig("bogus")


# -- online scorer ----------------------------------------------------------

def test_scorer_update_requires_warmup():
    scorer = OnlineScorer()
    with pytest.raises(RuntimeError, match="before warmup"):
        scorer.update((0.0,) * 8, 1)


def test_scorer_learns_separable_toy_problem():
    scorer = OnlineScorer()
    neg = (0.0,) * 8
    pos = (1.0,) * 8
    scorer.warmup_fit([neg, pos] * 20, [0, 1] * 20)
    assert scorer.predict(pos) > 0.9
    assert scorer.predict(neg) < 0.1
    p_before = scorer.predict(pos)
    scorer.update(pos, 1)
    assert scorer.predict(pos) >= p_before  # gradient moves toward the label


def test_scorer_features_anchor_bits():
    window = [
        Event(0, "u1", ActionKind.FILE_EXPORT,
              {"volume": 1500, "resource": "crm_db", "destination": "staging"}),
        Event(1, "u1", ActionKind.LOGIN, {"context": "new_location"}),
    ]
    x = scorer_features(summarize(window, APPROVED), forensics_flag=True,
                        tom_flag=False)
    assert x == (0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0)


# -- gates ------------------------------------------------------------------

APPROVED = frozenset({"partnercorp.example"})


def _chain_window():
    return [
        Event(70, "u1", ActionKind.DB_QUERY,
              {"resource": "crm_db", "sensitivity": "sensitive"}),
        Event(73, "u1", ActionKind.FILE_EXPORT,
              {"volume": 4000, "resource": "crm_db", "destination": "external"}),
        Event(75, "u1", ActionKind.EMAIL_SEND,
              {"recipient_domain": "external", "recipient": "drop.example",
               "body": "x"}),
    ]


def test_tight_chain_gate():
    assert siem.CHAIN_WINDOW == 10
    gates = satisfied_gates(summarize(_chain_window(), APPROVED))
    assert GATE_TIGHT_CHAIN in gates
    # same endpoints too far apart: no chain
    spread = _chain_window()
    spread[2] = Event(85, "u1", ActionKind.EMAIL_SEND,
                      {"recipient_domain": "external",
                       "recipient": "drop.example", "body": "x"})
    assert GATE_TIGHT_CHAIN not in satisfied_gates(summarize(spread, APPROVED))


def test_tight_chain_ignores_approved_partner_mail():
    window = _chain_window()
    window[2] = Event(75, "u1", ActionKind.EMAIL_SEND,
                      {"recipient_domain": "external",
                       "recipient": "partnercorp.example", "body": "x"})
    assert GATE_TIGHT_CHAIN not in satisfied_gates(summarize(window, APPROVED))


def test_staging_gate_needs_two_stages_then_external():
    stage = lambda s: Event(s, "u1", ActionKind.FILE_EXPORT,
                            {"volume": 900, "resource": "crm_db",
                             "destination": "staging"})
    ext = Event(80, "u1", ActionKind.FILE_EXPORT,
                {"volume": 4000, "resource": "crm_db", "destination": "external"})
    assert siem.GATE_STAGING_MIN == 2
    assert GATE_STAGING in satisfied_gates(
        summarize([stage(70), stage(74), ext], APPROVED))
    assert GATE_STAGING not in satisfied_gates(
        summarize([stage(70), ext], APPROVED))
    # external before the second stage does not count
    early_ext = Event(72, "u1", ActionKind.FILE_EXPORT,
                      {"volume": 4000, "resource": "crm_db",
                       "destination": "external"})
    assert GATE_STAGING not in satisfied_gates(
        summarize([stage(70), early_ext, stage(74)], APPROVED))


def test_login_context_gate():
    window = [
        Event(70, "u1", ActionKind.LOGIN, {"context": "after_hours"}),
        Event(75, "u1", ActionKind.DB_QUERY,
              {"resource": "hr_records", "sensitivity": "sensitive"}),
    ]
    assert GATE_LOGIN_CONTEXT in satisfied_gates(summarize(window, APPROVED))
    window[1] = Event(85, "u1", ActionKind.DB_QUERY,
                      {"resource": "hr_records", "sensitivity": "sensitive"})
    assert GATE_LOGIN_CONTEXT not in satisfied_gates(
        summarize(window, APPROVED))


def test_excess_evidence_gate_counts_kinds():
    def ev(kind):
        return Evidence(kind=kind, weight=1.0, step=0)
    four = [ev(EvidenceKind.POLICY_VIOLATION), ev(EvidenceKind.BASELINE_DEVIATION),
            ev(EvidenceKind.ML_ANOMALY), ev(EvidenceKind.PEER_EXPORT_OUTLIER)]
    assert excess_gate(four) == (GATE_EXCESS,)
    assert excess_gate(four[:3]) == ()
    assert GATE_EXCESS not in satisfied_gates(summarize([], APPROVED))


def test_gate_confirm_logic():
    def ev(kind):
        return Evidence(kind=kind, weight=2.0, step=0)
    two_kinds = [ev(EvidenceKind.POLICY_VIOLATION),
                 ev(EvidenceKind.BASELINE_DEVIATION)]
    # non-gating variant: threshold only
    assert gate_confirm(5.0, two_kinds, 4.4, (), gating=False)
    assert not gate_confirm(4.0, two_kinds, 4.4, (), gating=False)
    # gating: needs 2 kinds and a gate
    assert not gate_confirm(5.0, two_kinds[:1], 4.4, (GATE_TIGHT_CHAIN,), True)
    assert not gate_confirm(5.0, two_kinds, 4.4, (), True)
    assert gate_confirm(5.0, two_kinds, 4.4, (GATE_TIGHT_CHAIN,), True)
    # compliance override suppresses gates whose triggers are in scope
    assert not gate_confirm(5.0, two_kinds, 4.4, (GATE_STAGING,), True,
                            compliance=True)
    assert not gate_confirm(5.0, two_kinds, 4.4, (GATE_EXCESS,), True,
                            compliance=True)
    # the login-context gate involves logins, which approvals never cover
    assert gate_confirm(5.0, two_kinds, 4.4, (GATE_LOGIN_CONTEXT,), True,
                        compliance=True)


# -- peer normalization and regularity --------------------------------------

def test_peer_normalize_median_mad_oracle():
    assert (siem.PEER_EPS, siem.PEER_Z_MIN, siem.W_PEER, siem.PEER_CAP,
            siem.PEER_MIN_GROUP) == (300.0, 2.5, 0.5, 1.0, 3)
    peers = [0.0, 0.0, 100.0, 200.0, 0.0]
    # median 0, mad 0 -> z = v / 300
    assert peer_normalize(600.0, peers, 0) is None  # z = 2.0
    ev = peer_normalize(1200.0, peers, 0)           # z = 4.0
    assert ev is not None
    assert ev.weight == 1.0  # 0.5 * 4 capped at 1.0
    assert "z=4.00" in ev.detail
    assert peer_normalize(10_000.0, peers[:2], 0) is None  # group too small


@given(volume=st.integers(0, 749), peers=st.lists(
    st.integers(0, 2000) | st.integers(0, 2**60), max_size=12))
@example(volume=749, peers=[0, 0, 0])
@example(volume=749, peers=[0, 0, 0, 1, 10**9])
@settings(max_examples=300, derandomize=True, deadline=None)
def test_peer_normalize_is_silent_below_the_skip_line(volume, peers):
    # Peer volumes are int sums, so the median and MAD are >= 0 and no
    # volume below PEER_Z_MIN * PEER_EPS = 750 reaches z = PEER_Z_MIN: the
    # engine does not call peer_normalize for one.
    assert siem.PEER_Z_MIN * siem.PEER_EPS == 750
    assert peer_normalize(float(volume), [float(v) for v in peers], 0) \
        is None


def test_regularity_suppression():
    def export(s):
        return Event(s, "u1", ActionKind.FILE_EXPORT,
                     {"volume": 500, "resource": "crm_db",
                      "destination": "internal"})
    def steps(window):
        return summarize(window, APPROVED).export_steps
    regular = [export(s) for s in (60, 64, 68, 72, 76)]
    assert regularity_suppression(steps(regular)) == 0.5
    irregular = [export(s) for s in (60, 61, 70, 71, 79)]
    assert regularity_suppression(steps(irregular)) == 1.0
    assert regularity_suppression(steps(regular[:2])) == 1.0  # too few events


# -- truth boundary ---------------------------------------------------------

@pytest.fixture(scope="module")
def short_log():
    """A 60-step log of the first three actors of each role and every
    insider: (roster, events, malicious actor ids)."""
    log = run_simulation(SimConfig(total_steps=60, warmup_steps=10), 101)
    keep = {a.actor_id for role in Role for a in [
        a for a in log.roster if a.role is role and not a.malicious][:3]}
    keep |= {a.actor_id for a in log.roster if a.malicious}
    return (tuple(a for a in log.roster if a.actor_id in keep),
            tuple(e for e in log.events if e.actor_id in keep),
            sorted(a.actor_id for a in log.roster if a.malicious))


def _alert_bytes(roster, events, malicious, model) -> list[bytes]:
    engine = SiemEngine([VariantConfig(v) for v in siem.VARIANT_NAMES],
                        roster, 101, model=model)
    return [serialize_alert_log(alerts) for alerts in engine.run(
        events, 60, 10, frozenset(malicious).__contains__)]


@pytest.fixture(scope="module")
def short_log_alerts(short_log, pretrained_model):
    alerts = _alert_bytes(*short_log, pretrained_model)
    assert all(alerts)   # every variant alerts, so there is something to keep
    return alerts


# What the simulator knows of an actor and a SIEM's directory does not.
_SIMULATOR_ONLY = st.fixed_dictionaries({
    "malicious": st.booleans(),
    "scenario": st.none() | st.sampled_from(list(Scenario)),
    "start_step": st.none() | st.integers(0, 60),
    "style_mean": st.floats(1.0, 30.0),
    "style_sd": st.floats(0.5, 6.0),
    "report_phase": st.integers(0, 24),
})


@given(data=st.data())
@settings(max_examples=8, derandomize=True, deadline=None)
def test_alerts_read_no_truth_from_the_roster(short_log, short_log_alerts,
                                              pretrained_model, data):
    # The engine may learn who is malicious only from the labels it is
    # given as analyst feedback, never from the roster's simulator fields.
    roster, events, malicious = short_log
    scrambled = tuple(
        dataclasses.replace(actor, **fields) for actor, fields in zip(
            roster, data.draw(st.lists(_SIMULATOR_ONLY, min_size=len(roster),
                                       max_size=len(roster)))))
    assert _alert_bytes(scrambled, events, malicious, pretrained_model) \
        == short_log_alerts


def test_engine_never_rescans_a_window(short_log, short_log_alerts,
                                       pretrained_model, monkeypatch):
    # Each actor's summary changes only as events enter and leave its
    # window, so a full-window summarize() at some step fails this test.
    def rescan(window, approved_domains):
        raise AssertionError("the engine summarized a whole window")

    monkeypatch.setattr(siem, "summarize", rescan)
    assert _alert_bytes(*short_log, pretrained_model) == short_log_alerts


def test_engine_updates_all_baselines_once_per_step(
        short_log, short_log_alerts, pretrained_model, monkeypatch):
    # One array update per step covers every actor and metric.
    shapes = []
    update = siem.ewma_update

    def counting(state, x, eps=siem.EWMA_EPS):
        shapes.append(np.shape(x))
        return update(state, x, eps)
    monkeypatch.setattr(siem, "ewma_update", counting)
    assert _alert_bytes(*short_log, pretrained_model) == short_log_alerts
    assert shapes == [(len(short_log[0]), len(siem.EWMA_METRICS))] * 60


def test_features_stream_one_step_at_a_time(short_log):
    # A row reads live window state, so phase 1 must not read ahead: while
    # a step's rows are out, no window holds an event of a later step.
    roster, events, _ = short_log
    engine = SiemEngine([VariantConfig("eg")], roster, 101)
    stream = engine.features(events, 60, 10)
    for expected_step in range(10, 15):
        step, rows = next(stream)
        assert step == expected_step
        assert [(r.actor_id, r.step, r.compliance) for r in rows] == sorted(
            (a.actor_id, step, a.compliance) for a in roster)
        assert max(e.step for state in engine.actors.values()
                   for e in state.window) == step
        assert any(e.step > step for e in events)


def test_feedback_labels_each_confirmed_alert_once(sim_results,
                                                   pretrained_model):
    # Truth reaches the engine only through feedback: one call per
    # confirmed alert, with its actor. Cells decide a step in turn, so the
    # calls come step by step, then cell by cell, in each cell's alert order.
    log = sim_results[101]
    malicious = {t.actor_id for t in log.truths if t.malicious}
    calls = []

    def feedback(actor_id):
        calls.append(actor_id)
        return actor_id in malicious
    engine = SiemEngine([VariantConfig(v) for v in siem.VARIANT_NAMES],
                        log.roster, log.seed, model=pretrained_model)
    got = engine.run(log.events, log.total_steps, log.warmup_steps, feedback)
    confirmed = sorted((a.step, cell, i, a.actor_id)
                       for cell, alerts in enumerate(got)
                       for i, a in enumerate(alerts) if a.tier == "confirmed")
    assert {cell for _, cell, _, _ in confirmed} == {0, 1, 2, 3}
    assert calls == [actor_id for *_, actor_id in confirmed]
