"""Correlation engine unit oracles: EWMA, thresholds, trust, scorer,
policy rules, gates, peer normalization, regularity suppression."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentinel import siem
from sentinel.events import ActionKind, Event, Evidence, EvidenceKind, Role
from sentinel.rng import substream
from sentinel.siem import (EwmaState, GATE_EXCESS, GATE_LOGIN_CONTEXT,
                           GATE_STAGING, GATE_TIGHT_CHAIN, TRUST_HI, TRUST_INIT,
                           TRUST_LO, W_POLICY, OnlineScorer, PolicyRules,
                           SiemEngine, VariantConfig, ewma_update, excess_gate,
                           gate_confirm, peer_normalize, regularity_suppression,
                           satisfied_gates, scorer_features, summarize,
                           thresholds, update_trust)
from sentinel.simkit import ActorSpec


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
    alerts = SiemEngine([VariantConfig("lsc")], roster, [], seed=1).run(
        [denied_mail(1), over_cap, denied_mail(3)], total_steps=4,
        warmup_steps=0)[0]
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
        SiemEngine([VariantConfig("lsc")], roster, [], seed=1)


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
