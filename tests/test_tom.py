"""Intent inference: template matching, contradiction, evidence emission."""

import pytest

from sentinel.events import ActionKind, Event, EvidenceKind
from sentinel.tom import (APPROVAL_SCOPE, TAU, WEIGHT, PlanLibrary, abduce,
                          check_contradiction, tom_evidence, _match_template,
                          _specificity)

APPROVED = frozenset({"partnercorp.example", "consulting.example"})
LIB = PlanLibrary.bundled()
PLANS = {template[0]: template for template in LIB.templates}


def _ev(step, kind, **payload):
    return Event(step, "u001", kind, payload)


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
    completion, confidence, kinds = _match_template(
        _stealth_window(), PLANS["stealth"], APPROVED)
    assert completion == 1.0
    assert confidence == 1.0
    assert kinds == frozenset({ActionKind.LOGIN, ActionKind.FILE_EXPORT,
                               ActionKind.EMAIL_SEND})


def test_stealth_without_email_stays_below_tau():
    window = _stealth_window()[:-1]
    _, confidence, _ = _match_template(window, PLANS["stealth"], APPROVED)
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
    completion, confidence, _ = _match_template(
        window, PLANS["email_leakage"], APPROVED)
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
    completion, _, _ = _match_template(
        window, PLANS["email_leakage"], APPROVED)
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
    for template in LIB.templates:
        if template[1]:
            _, confidence, _ = _match_template(window, template, APPROVED)
            assert confidence < TAU, template[0]


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
    hyps = abduce(window, LIB, APPROVED)
    staging = next(h for h in hyps if h.plan == "staging_exfiltration")
    backup = next(h for h in hyps if h.plan == "scheduled_backup")
    assert backup.completion == 1.0
    assert backup.completion >= staging.completion
    benign = [h for h in hyps if not h.malicious]
    assert check_contradiction(staging, benign, compliance_approval=False)


def test_compliance_approval_contradicts_in_scope_hypothesis():
    hyps = abduce(_stealth_window()[1:], LIB, APPROVED)
    # without the login the stealth prefix never starts; exfil-like plans may
    live = [h for h in hyps if h.malicious]
    for h in live:
        assert check_contradiction(h, (), compliance_approval=True) == (
            h.matched_kinds <= APPROVAL_SCOPE)


def test_login_outside_approval_scope_survives_compliance():
    hyps = abduce(_stealth_window(), LIB, APPROVED)
    stealth = next(h for h in hyps if h.plan == "stealth")
    assert ActionKind.LOGIN in stealth.matched_kinds
    assert not check_contradiction(stealth, (), compliance_approval=True)


def test_tom_evidence_tau_gate_and_weight():
    hyps = abduce(_stealth_window(), LIB, APPROVED)
    ev = tom_evidence(hyps, step=10)
    assert ev is not None
    assert ev.kind is EvidenceKind.TOM_INTENT
    assert ev.detail == "stealth"
    assert ev.weight == pytest.approx(WEIGHT)  # confidence 1.0
    partial = abduce(_stealth_window()[:-1], LIB, APPROVED)
    assert tom_evidence(partial, step=9) is None


def test_abduce_empty_window():
    assert abduce([], LIB, APPROVED) == []
