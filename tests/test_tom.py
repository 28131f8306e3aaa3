"""Intent inference: template matching, contradiction, evidence emission,
and the per-event matching checked against the frozen ToM."""

import oracle_engine
import oracle_layers
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_engine_differential import ROSTER, _event

from sentinel import siem
from sentinel.events import ActionKind, Event, EvidenceKind, serialize_alert_log
from sentinel.tom import (APPROVAL_SCOPE, TAU, WEIGHT, PlanLibrary, abduce,
                          check_contradiction, tom_evidence, _specificity)

APPROVED = frozenset({"partnercorp.example", "consulting.example"})
LIB = PlanLibrary.bundled()


def _ev(step, kind, **payload):
    return Event(step, "u001", kind, payload)


def _abduce(window):
    """abduce() as the engine calls it: only the events some plan element
    matches, with their masks."""
    masks = [LIB.mask(e, APPROVED) for e in window]
    return abduce([e for e, m in zip(window, masks) if m],
                  [m for m in masks if m], LIB)


def _plan_match(window, plan):
    """(completion, confidence, matched kinds) of one plan over a window."""
    h = next((h for h in _abduce(window) if h.plan == plan), None)
    return (h.completion, h.confidence, h.matched_kinds) if h else \
        (0.0, 0.0, frozenset())


def _stealth_window():
    return [
        _ev(0, ActionKind.LOGIN, context="after_hours"),
        _ev(2, ActionKind.FILE_EXPORT, volume=300, resource="shared_drive",
            destination="internal"),
        _ev(5, ActionKind.FILE_EXPORT, volume=250, resource="shared_drive",
            destination="internal"),
        _ev(8, ActionKind.FILE_EXPORT, volume=280, resource="shared_drive",
            destination="internal"),
        _ev(10, ActionKind.EMAIL_SEND, recipient_domain="external",
            recipient="privatemail.example", body="see attached"),
    ]


def test_specificity_multipliers():
    assert _specificity({"kind": "db_query", "sensitivity": "sensitive"}) == 2.0
    assert _specificity({"kind": "login"}) == 0.5
    assert _specificity({"kind": "email_send", "recipient_domain": "external",
                         "unapproved_recipient": True}) == 5.0
    assert _specificity({"kind": "file_export", "destination": "staging"}) == 1.0


def test_full_stealth_match():
    completion, confidence, kinds = _plan_match(
        _stealth_window(), "stealth")
    assert completion == 1.0
    assert confidence == 1.0
    assert kinds == frozenset({ActionKind.LOGIN, ActionKind.FILE_EXPORT,
                               ActionKind.EMAIL_SEND})


def test_stealth_without_email_stays_below_tau():
    window = _stealth_window()[:-1]
    _, confidence, _ = _plan_match(window, "stealth")
    # (0.5 + 3) / (0.5 + 3 + 5)
    assert confidence == pytest.approx(3.5 / 8.5)
    assert confidence < TAU


def test_leakage_partial_confidence_oracle():
    window = [
        _ev(1, ActionKind.FILE_ACCESS, resource="shared_drive",
            sensitivity="sensitive"),
        _ev(3, ActionKind.EMAIL_SEND, recipient_domain="external",
            recipient="privatemail.example", body="x"),
        _ev(5, ActionKind.EMAIL_SEND, recipient_domain="external",
            recipient="privatemail.example", body="y"),
    ]
    completion, confidence, _ = _plan_match(
        window, "email_leakage")
    assert completion == pytest.approx(3 / 4)
    # (2 + 5 + 5) / (2 + 5 + 5 + 5)
    assert confidence == pytest.approx(12 / 17)


def test_approved_recipient_blocks_unapproved_elements():
    window = [
        _ev(1, ActionKind.FILE_ACCESS, resource="shared_drive",
            sensitivity="sensitive"),
        _ev(3, ActionKind.EMAIL_SEND, recipient_domain="external",
            recipient="partnercorp.example", body="newsletter"),
    ]
    completion, _, _ = _plan_match(
        window, "email_leakage")
    assert completion == pytest.approx(1 / 4)  # only the file access matched


def test_power_cycle_window_stays_below_tau_everywhere():
    window = [
        _ev(0, ActionKind.DB_QUERY, resource="analytics_db",
            sensitivity="sensitive"),
        _ev(1, ActionKind.FILE_EXPORT, volume=900, resource="analytics_db",
            destination="staging"),
        _ev(2, ActionKind.FILE_EXPORT, volume=3400, resource="analytics_db",
            destination="external"),
        _ev(3, ActionKind.EMAIL_SEND, recipient_domain="external",
            recipient="partnercorp.example", body="report attached"),
    ]
    for h in _abduce(window):
        if h.malicious:
            assert h.confidence < TAU, h.plan


def test_benign_explanation_contradicts_staging_hypothesis():
    window = [
        _ev(0, ActionKind.DB_QUERY, resource="crm_db", sensitivity="sensitive"),
        _ev(1, ActionKind.FILE_EXPORT, volume=900, resource="crm_db",
            destination="staging"),
        _ev(2, ActionKind.FILE_EXPORT, volume=800, resource="crm_db",
            destination="staging"),
        _ev(3, ActionKind.FILE_EXPORT, volume=850, resource="crm_db",
            destination="staging"),
    ]
    hyps = _abduce(window)
    staging = next(h for h in hyps if h.plan == "staging_exfiltration")
    backup = next(h for h in hyps if h.plan == "scheduled_backup")
    assert backup.completion == 1.0
    assert backup.completion >= staging.completion
    benign = [h for h in hyps if not h.malicious]
    assert check_contradiction(staging, benign, compliance_approval=False)


def test_compliance_approval_contradicts_in_scope_hypothesis():
    hyps = _abduce(_stealth_window()[1:])
    # without the login the stealth prefix never starts; exfil-like plans may
    live = [h for h in hyps if h.malicious]
    for h in live:
        assert check_contradiction(h, (), compliance_approval=True) == (
            h.matched_kinds <= APPROVAL_SCOPE)


def test_login_outside_approval_scope_survives_compliance():
    hyps = _abduce(_stealth_window())
    stealth = next(h for h in hyps if h.plan == "stealth")
    assert ActionKind.LOGIN in stealth.matched_kinds
    assert not check_contradiction(stealth, (), compliance_approval=True)


def test_tom_evidence_tau_gate_and_weight():
    hyps = _abduce(_stealth_window())
    ev = tom_evidence(hyps, step=10)
    assert ev is not None
    assert ev.kind is EvidenceKind.TOM_INTENT
    assert ev.detail == "stealth"
    assert ev.weight == pytest.approx(WEIGHT)  # confidence 1.0
    partial = _abduce(_stealth_window()[:-1])
    assert tom_evidence(partial, step=9) is None


def test_abduce_empty_window():
    assert abduce([], [], LIB) == []


def test_events_matching_no_element_have_an_empty_mask():
    window = _stealth_window()
    internal_mail = _ev(11, ActionKind.EMAIL_SEND, recipient_domain="internal",
                        recipient="corp.example", body="lunch")
    assert LIB.mask(internal_mail, APPROVED) == 0
    assert all(LIB.mask(e, APPROVED) for e in window)


# -- the per-event matching against the frozen ToM ----------------------------

FROZEN = oracle_layers.PlanLibrary.bundled()


@st.composite
def _windows(draw):
    """One actor's window: events at steps 0..19, several per step at times,
    drawn like the differential test's (export volumes on both sides of 500
    and 3600, approved, denied and unapproved recipients)."""
    steps = sorted(draw(st.lists(st.integers(0, 19), max_size=40)))
    return [draw(_event(step, "u001")) for step in steps]


def _fields(hypotheses):
    return [(h.plan, h.malicious, h.completion, h.confidence, h.matched_kinds)
            for h in hypotheses]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(window=_windows())
def test_per_event_abduce_matches_frozen_tom(window):
    live = _abduce(window)
    frozen = oracle_layers.abduce(window, FROZEN, approved_domains=APPROVED)
    # Tuples compare completion and confidence with ==, not approx.
    assert _fields(live) == _fields(frozen)
    for compliance in (False, True):
        context = oracle_layers.ActorContext(
            compliance, tuple(h for h in frozen if not h.malicious))
        assert [check_contradiction(h, live, compliance) for h in live] == [
            oracle_layers.check_contradiction(h, context).contradicted
            for h in frozen]


@pytest.mark.parametrize("appended", [True, False],
                         ids=["evict_and_append", "evict_only"])
def test_hypotheses_recomputed_when_the_tom_deque_changes(appended):
    # At step 19 the window holds a full stealth chain that starts with the
    # login at step 0. At step 20 that login leaves the window; with
    # `appended`, a sensitive query enters it in the same step, so the ToM
    # deque keeps its length, and without it the deque keeps its last step.
    # Either way the greedy match moves: stealth can no longer start.
    events = [Event(0, "u001", ActionKind.LOGIN, {"context": "after_hours"})]
    events += [Event(s, "u001", ActionKind.FILE_EXPORT,
                     {"volume": 300, "resource": "shared_drive",
                      "destination": "internal"}) for s in (1, 2, 3)]
    events.append(Event(4, "u001", ActionKind.EMAIL_SEND,
                        {"recipient_domain": "external",
                         "recipient": "privatemail.example",
                         "body": "see attached"}))
    if appended:
        events.append(Event(20, "u001", ActionKind.DB_QUERY,
                            {"resource": "wiki", "sensitivity": "sensitive"}))
    total, warmup = 22, 5
    cells = [siem.VariantConfig(v) for v in ("ce", "eg")]
    got = siem.SiemEngine(cells, ROSTER, 11).run(events, total, warmup,
                                                 lambda actor_id: False)
    for cell, alerts in zip(cells, got):
        intent = {a.step: e.detail for a in alerts for e in a.evidence
                  if e.kind is EvidenceKind.TOM_INTENT}
        assert intent.get(19) == "stealth" and intent.get(20) != "stealth"
        expected = oracle_engine.run_detection(
            events, ROSTER, [], oracle_engine.variant_config(
                cell.variant.value), 11, total, warmup)
        assert serialize_alert_log(alerts) == serialize_alert_log(expected)
