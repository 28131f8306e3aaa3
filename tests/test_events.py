"""Data model validation and the JSONL interchange format."""

import json

import oracle_layers
import pytest
from hypothesis import example, given, settings
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


@given(st.binary(max_size=200) | st.lists(
    st.sampled_from([b"{", b"}", b"[", b"]", b'"step":', b'"kind":"login"',
                     b'"payload":{"context":"normal"}', b'"actor_id":"u1"',
                     b"0", b"-1", b"true", b"null", b",", b"\n", b"\xff"]),
    max_size=30).map(b"".join))
@example(b"[" * 100_000 + b"]" * 100_000 + b"\n")   # nested too deep
@example(b'{"step": 0, "kind": "\xe9"}\n')            # not UTF-8
@example(b"1" * 5000 + b"\n")                         # int past str limit
@settings(max_examples=300, derandomize=True, deadline=None)
def test_parse_any_bytes_gives_events_or_log_format_error(data):
    try:
        events = parse_event_log(data)
    except LogFormatError:
        return
    assert all(isinstance(e, Event) for e in events)


# -- the reader against its frozen copy ------------------------------------

# Characters str.splitlines() breaks at and "\n"-only splitting does not: a
# line holding one is read differently by design, so no drawn line has one.
_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

_VALID_LINES = [json.dumps(obj, separators=(",", ":")) for obj in (
    {"step": 0, "actor_id": "u001", "kind": "login",
     "payload": {"context": "normal"}},
    {"step": 1, "actor_id": "u002", "kind": "db_query",
     "payload": {"resource": "crm_db", "sensitivity": "sensitive"}},
    {"step": 1, "actor_id": "u001", "kind": "file_export",
     "payload": {"volume": 1000, "resource": "crm_db",
                 "destination": "external"}},
    {"step": 2, "actor_id": "u003", "kind": "email_send",
     "payload": {"recipient_domain": "external", "recipient": "x.example",
                 "body": "urgent: verify now"}},
    {"step": 3, "actor_id": "u002", "kind": "file_access",
     "payload": {"resource": "wiki", "sensitivity": "normal"}})]

_PAYLOADS = ("null", "[]", '["context"]', '["volume","resource"]', '"context"',
             '"x"', "1", "true", "{}", '{"context":null}', '{"context":[1]}',
             '{"volume":true,"resource":"crm_db","destination":"internal"}')
_STEPS = ("true", "false", "null", "-1", "1.0", '"3"', "[3]", "1" * 5000)
_KIND_VALUES = ('"teleport"', "null", "1", '["login"]', '{"a":1}', '"LOGIN"')
# JSON whitespace, and whitespace str.strip() drops but JSON does not allow.
_SPACES = (" ", "\t", "  \t", "\x1f", "\xa0", "\u3000")


def _replace(line, key, value):
    """``line`` with the value of its top-level ``key`` swapped for the
    JSON text ``value``."""
    obj = json.loads(line)
    obj[key] = "\0"
    return json.dumps(obj, separators=(",", ":")).replace('"\\u0000"', value)


def _nested(depth, inner):
    return "[" * depth + inner + "]" * depth


@st.composite
def _mutated_line(draw):
    line = draw(st.sampled_from(_VALID_LINES))
    how = draw(st.sampled_from(
        ["truncate", "extra", "twice", "bom", "space", "payload", "step",
         "kind", "drop_key", "deep", "text"]))
    if how == "truncate":
        return line[:draw(st.integers(0, len(line) - 1))]
    if how == "extra":
        return line + draw(st.sampled_from(["x", " 1", "}", ",", "]", " {}"]))
    if how == "twice":
        return line + draw(st.sampled_from(["", " ", "\t"])) + line
    if how == "bom":
        return draw(st.sampled_from(["", " "])) + "\ufeff" + line
    if how == "space":
        return draw(st.sampled_from(("",) + _SPACES)) + line + draw(
            st.sampled_from(("", "\r") + _SPACES))
    if how == "payload":
        return _replace(line, "payload", draw(st.sampled_from(_PAYLOADS)))
    if how == "step":
        return _replace(line, "step", draw(st.sampled_from(_STEPS)))
    if how == "kind":
        return _replace(line, "kind", draw(st.sampled_from(_KIND_VALUES)))
    if how == "drop_key":
        obj = json.loads(line)
        del obj[draw(st.sampled_from(sorted(obj)))]
        return json.dumps(obj, separators=(",", ":"))
    if how == "deep":
        # Far below or far past the recursion limit: near it, whether the
        # scanner fails depends on how deep the caller's stack already is.
        depth = draw(st.sampled_from([1, 2, 40, 100_000]))
        key = draw(st.sampled_from(["payload", "step", None]))
        return _nested(depth, line) if key is None else _replace(
            line, key, _nested(depth, "{}"))
    return draw(st.text(st.characters(blacklist_characters=_LINE_BREAKS + "\n",
                                      blacklist_categories=("Cs",)),
                        max_size=60))


@given(lines=st.lists(st.sampled_from(_VALID_LINES) | _mutated_line()
                      | st.sampled_from(["", "  "]), min_size=1, max_size=6))
@settings(max_examples=400, derandomize=True, deadline=None)
def test_reader_matches_frozen_reader(lines):
    # Equal events, or a LogFormatError with the same text. A "\r" ends only
    # whole lines: inside a cut-off string it is a control character to the
    # reader but a line break the frozen reader drops.
    assert not any(c in line for line in lines for c in _LINE_BREAKS + "\n"
                   if not (c == "\r" and line.endswith("}\r")))
    data = "".join(line + "\n" for line in lines).encode("utf-8")

    def outcome(parse):
        try:
            return parse(data)
        except LogFormatError as exc:
            return str(exc)
    assert outcome(parse_event_log) == outcome(oracle_layers.parse_event_log)


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
def test_raw_line_separator_in_a_body_round_trips(char):
    # JSON allows these raw inside a string; str.splitlines() breaks at them.
    event = Event(4, "u001", ActionKind.EMAIL_SEND,
                  {"recipient_domain": "external", "recipient": "x.example",
                   "body": f"first{char}second"})
    raw = json.dumps({"step": 4, "actor_id": "u001", "kind": "email_send",
                      "payload": event.payload}, ensure_ascii=False)
    assert char in raw
    assert parse_event_log(raw.encode("utf-8") + b"\n") == [event]
    assert parse_event_log(serialize_event_log([event])) == [event]


def test_only_newline_ends_a_line():
    events = [Event(0, "u001", ActionKind.LOGIN, {"context": "normal"}),
              Event(1, "u002", ActionKind.LOGIN, {"context": "after_hours"})]
    lines = serialize_event_log(events).rstrip(b"\n").split(b"\n")
    assert parse_event_log(b"\r\n".join(lines) + b"\r\n") == events
    for separator in (b"\r", b"\x0c"):
        with pytest.raises(LogFormatError,
                           match=r"^line 1: malformed JSON \(Extra data\)$"):
            parse_event_log(separator.join(lines) + b"\n")


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
