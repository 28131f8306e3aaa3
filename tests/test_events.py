"""Data model validation and the JSONL interchange format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentinel.events import (ActionKind, Alert, Event, Evidence, EvidenceKind,
                             GroundTruth, LogFormatError, Scenario,
                             parse_event_log, serialize_alert_log,
                             serialize_event_log,
                             truth_from_dict, truth_to_dict)

_ids = st.from_regex(r"u[0-9]{3}", fullmatch=True)
_words = st.text(alphabet="abcdefghij ", min_size=0, max_size=40)


def _payloads(kind):
    if kind is ActionKind.LOGIN:
        return st.fixed_dictionaries(
            {"context": st.sampled_from(["normal", "after_hours", "new_location"])})
    if kind in (ActionKind.DB_QUERY, ActionKind.FILE_ACCESS):
        return st.fixed_dictionaries(
            {"resource": st.sampled_from(["crm_db", "wiki", "hr_records"]),
             "sensitivity": st.sampled_from(["normal", "sensitive"])})
    if kind is ActionKind.FILE_EXPORT:
        return st.fixed_dictionaries(
            {"volume": st.integers(0, 10**6),
             "resource": st.sampled_from(["crm_db", "shared_drive"]),
             "destination": st.sampled_from(["internal", "external", "staging"])})
    return st.fixed_dictionaries(
        {"recipient_domain": st.sampled_from(["internal", "external"]),
         "recipient": st.sampled_from(["corp.example", "partnercorp.example"]),
         "body": _words})


_events = st.sampled_from(list(ActionKind)).flatmap(
    lambda kind: st.tuples(st.integers(0, 500), _ids, _payloads(kind)).map(
        lambda t: Event(step=t[0], actor_id=t[1], kind=kind, payload=t[2])))


@given(st.lists(_events, max_size=30).map(
    lambda evs: sorted(evs, key=lambda e: e.step)))
@settings(max_examples=150, deadline=None)
def test_event_log_round_trip(events):
    assert parse_event_log(serialize_event_log(events)) == events


def test_empty_log_round_trip():
    assert serialize_event_log([]) == b""
    assert parse_event_log(b"") == []


def test_parse_rejects_malformed_json():
    with pytest.raises(LogFormatError, match="line 1"):
        parse_event_log(b"{not json\n")


def test_parse_rejects_unknown_kind():
    with pytest.raises(LogFormatError, match="unknown kind"):
        parse_event_log(b'{"step":0,"actor_id":"u001","kind":"teleport","payload":{}}\n')


def test_parse_rejects_non_monotone_steps():
    lines = serialize_event_log([
        Event(5, "u001", ActionKind.LOGIN, {"context": "normal"}),
    ]) + serialize_event_log([
        Event(3, "u001", ActionKind.LOGIN, {"context": "normal"}),
    ])
    with pytest.raises(LogFormatError, match="step-ordered"):
        parse_event_log(lines)


def test_event_payload_validation():
    with pytest.raises(ValueError, match="missing"):
        Event(0, "u001", ActionKind.FILE_EXPORT, {"volume": 10})
    with pytest.raises(ValueError, match="extra"):
        Event(0, "u001", ActionKind.LOGIN, {"context": "normal", "x": 1})
    with pytest.raises(ValueError, match="context"):
        Event(0, "u001", ActionKind.LOGIN, {"context": "weekend"})
    for volume in (-5, True):
        with pytest.raises(ValueError, match="volume"):
            Event(0, "u001", ActionKind.FILE_EXPORT,
                  {"volume": volume, "resource": "crm_db",
                   "destination": "internal"})
    with pytest.raises(ValueError, match="actor_id must be a string"):
        Event(0, ["u001"], ActionKind.LOGIN, {"context": "normal"})
    with pytest.raises(ValueError, match="negative step"):
        Event(-1, "u001", ActionKind.LOGIN, {"context": "normal"})
    for kind, payload in (
            (ActionKind.EMAIL_SEND, {"recipient_domain": "external",
                                     "recipient": "x.example", "body": 5}),
            (ActionKind.EMAIL_SEND, {"recipient_domain": "external",
                                     "recipient": None, "body": "hi"}),
            (ActionKind.DB_QUERY, {"resource": ["crm_db"],
                                   "sensitivity": "normal"})):
        with pytest.raises(ValueError, match="must be a string"):
            Event(0, "u001", kind, payload)


def test_alert_round_trip_with_gates():
    alerts = [
        Alert(tier="confirmed", actor_id="u001", step=80, score=5.125,
              evidence=(Evidence(EvidenceKind.POLICY_VIOLATION, 2.0, 79, "cap"),
                        Evidence(EvidenceKind.BASELINE_DEVIATION, 1.5, 80)),
              tom_assisted=False, gates=("tight_exfiltration_chain",)),
        Alert(tier="early", actor_id="u002", step=81, score=3.0,
              evidence=(Evidence(EvidenceKind.TOM_INTENT, 3.0, 81, "stealth"),),
              tom_assisted=True),
    ]
    assert serialize_alert_log(alerts) == (
        b'{"tier":"confirmed","actor_id":"u001","step":80,"score":5.125,'
        b'"evidence":[{"kind":"policy_violation","weight":2.0,"step":79,'
        b'"detail":"cap"},{"kind":"baseline_deviation","weight":1.5,'
        b'"step":80,"detail":""}],"tom_assisted":false,'
        b'"gates":["tight_exfiltration_chain"]}\n'
        b'{"tier":"early","actor_id":"u002","step":81,"score":3.0,'
        b'"evidence":[{"kind":"tom_intent","weight":3.0,"step":81,'
        b'"detail":"stealth"}],"tom_assisted":true,"gates":[]}\n')


def test_alert_validation():
    ev = (Evidence(EvidenceKind.POLICY_VIOLATION, 2.0, 0),)
    with pytest.raises(ValueError, match="tier"):
        Alert(tier="maybe", actor_id="u001", step=0, score=1.0,
              evidence=ev, tom_assisted=False)
    with pytest.raises(ValueError, match="at least one evidence"):
        Alert(tier="early", actor_id="u001", step=0, score=1.0,
              evidence=(), tom_assisted=False)
    with pytest.raises(ValueError, match="tom_assisted"):
        Alert(tier="early", actor_id="u001", step=0, score=1.0,
              evidence=ev, tom_assisted=True)
    with pytest.raises(ValueError, match=">= 0"):
        Evidence(EvidenceKind.POLICY_VIOLATION, -0.1, 0)


def test_ground_truth_round_trip_and_validation():
    truths = [
        GroundTruth("u001", False),
        GroundTruth("u040", True, Scenario.STEALTH, 75),
    ]
    assert truth_from_dict(truth_to_dict(truths)) == truths
    with pytest.raises(ValueError, match="needs a scenario"):
        GroundTruth("u002", True)
    with pytest.raises(ValueError, match="cannot carry"):
        GroundTruth("u003", False, Scenario.STEALTH)
