"""Canonical event, actor, and alert data model plus the JSONL interchange format.

Everything downstream (simulator, correlation engine, evaluation harness)
speaks these types. Serialization uses one JSON object per line with a fixed
field order, so identical logs are byte-identical.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence


class ActionKind(str, Enum):
    LOGIN = "login"
    DB_QUERY = "db_query"
    FILE_ACCESS = "file_access"
    FILE_EXPORT = "file_export"
    EMAIL_SEND = "email_send"


class Role(str, Enum):
    STAFF = "staff"
    DEVELOPER = "developer"
    ADMIN = "admin"
    POWER_USER = "power_user"


class Scenario(str, Enum):
    EXFILTRATION = "exfiltration"
    STEALTH = "stealth"
    TAKEOVER = "takeover"
    STAGING_EXFILTRATION = "staging_exfiltration"
    EMAIL_LEAKAGE = "email_leakage"


class EvidenceKind(str, Enum):
    POLICY_VIOLATION = "policy_violation"
    BASELINE_DEVIATION = "baseline_deviation"
    ML_ANOMALY = "ml_anomaly"
    TOM_INTENT = "tom_intent"
    FORENSICS_FLAG = "forensics_flag"
    PEER_EXPORT_OUTLIER = "peer_export_outlier"
    AFTER_HOURS_LOGIN = "after_hours_login"
    STAGING_PATTERN = "staging_pattern"


class LogFormatError(ValueError):
    """Raised when an event log line cannot be parsed."""


# Payload field order per kind; also doubles as the schema for validation.
_PAYLOAD_FIELDS = {
    ActionKind.LOGIN: ("context",),
    ActionKind.DB_QUERY: ("resource", "sensitivity"),
    ActionKind.FILE_ACCESS: ("resource", "sensitivity"),
    ActionKind.FILE_EXPORT: ("volume", "resource", "destination"),
    ActionKind.EMAIL_SEND: ("recipient_domain", "recipient", "body"),
}

_FIELD_SETS = {kind: frozenset(fields) for kind, fields in _PAYLOAD_FIELDS.items()}
_KINDS = {kind.value: kind for kind in ActionKind}

_LOGIN_CONTEXTS = {"normal", "after_hours", "new_location"}
_DESTINATIONS = {"internal", "external", "staging"}
_SENSITIVITIES = {"normal", "sensitive"}
_DOMAINS = {"internal", "external"}


@dataclass(frozen=True)
class Event:
    step: int
    actor_id: str
    kind: ActionKind
    payload: dict

    def __post_init__(self):
        if isinstance(self.step, bool) or not isinstance(self.step, int):
            raise ValueError(f"step must be an int, not {self.step!r}")
        if self.step < 0:
            raise ValueError(f"negative step {self.step}")
        if not isinstance(self.actor_id, str):
            raise ValueError(f"actor_id must be a string: {self.actor_id!r}")
        validate_payload(self.kind, self.payload)


def validate_payload(kind: ActionKind, payload: dict) -> None:
    fields = _PAYLOAD_FIELDS[kind]
    # The lists only word the error; a dict with the right keys skips them.
    if not isinstance(payload, dict) or payload.keys() != _FIELD_SETS[kind]:
        missing = [f for f in fields if f not in payload]
        extra = [f for f in payload if f not in fields]
        if missing or extra:
            raise ValueError(
                f"payload for {kind.value} must have fields {fields}; "
                f"missing={missing} extra={extra}"
            )
    for name in ("resource", "recipient", "body"):
        if name in payload and not isinstance(payload[name], str):
            raise ValueError(f"{kind.value} {name} must be a string")
    if kind is ActionKind.LOGIN and payload["context"] not in _LOGIN_CONTEXTS:
        raise ValueError(f"unknown login context {payload['context']!r}")
    if kind in (ActionKind.DB_QUERY, ActionKind.FILE_ACCESS):
        if payload["sensitivity"] not in _SENSITIVITIES:
            raise ValueError(f"unknown sensitivity {payload['sensitivity']!r}")
    if kind is ActionKind.FILE_EXPORT:
        if payload["destination"] not in _DESTINATIONS:
            raise ValueError(f"unknown destination {payload['destination']!r}")
        # type(), not isinstance(): a bool is an int but not a volume. The
        # engine sums volumes as floats, which hold every int below 2**53.
        if type(payload["volume"]) is not int \
                or not 0 <= payload["volume"] < 2 ** 53:
            raise ValueError("export volume must be an int in [0, 2**53)")
    if kind is ActionKind.EMAIL_SEND:
        if payload["recipient_domain"] not in _DOMAINS:
            raise ValueError(
                f"unknown recipient_domain {payload['recipient_domain']!r}"
            )


@dataclass(frozen=True)
class Evidence:
    kind: EvidenceKind
    weight: float
    step: int
    detail: str = ""

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("evidence weight must be >= 0")


@dataclass(frozen=True)
class Alert:
    tier: str  # "early" | "confirmed"
    actor_id: str
    step: int
    score: float
    evidence: tuple[Evidence, ...]
    tom_assisted: bool
    gates: tuple[str, ...] = ()   # escalation gates satisfied at confirm time

    def __post_init__(self):
        if self.tier not in ("early", "confirmed"):
            raise ValueError(f"unknown alert tier {self.tier!r}")
        if not self.evidence:
            raise ValueError("alert must carry at least one evidence item")
        has_tom = any(e.kind is EvidenceKind.TOM_INTENT for e in self.evidence)
        if self.tom_assisted != has_tom:
            raise ValueError("tom_assisted must reflect presence of ToM evidence")


@dataclass(frozen=True)
class GroundTruth:
    actor_id: str
    malicious: bool
    scenario: Optional[Scenario] = None
    first_malicious_step: Optional[int] = None

    def __post_init__(self):
        if self.malicious and self.scenario is None:
            raise ValueError("malicious actor needs a scenario")
        if not self.malicious and self.scenario is not None:
            raise ValueError("benign actor cannot carry a scenario")


# ---------------------------------------------------------------------------
# Event log JSONL

def event_to_json(e: Event) -> str:
    payload = {f: e.payload[f] for f in _PAYLOAD_FIELDS[e.kind]}
    obj = {"step": e.step, "actor_id": e.actor_id, "kind": e.kind.value,
           "payload": payload}
    return json.dumps(obj, separators=(",", ":"))


def serialize_event_log(events: Sequence[Event]) -> bytes:
    """One JSON object per line, fixed field order; empty input -> empty bytes."""
    return "".join(event_to_json(e) + "\n" for e in events).encode("utf-8")


_JSON_SPACE = re.compile(r"[ \t\n\r]*").match   # JSON's own whitespace
_JSON = json.JSONDecoder()


def _json_line(line: str):
    """``json.loads(line)``, with its error messages, minus its wrappers."""
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError(
            "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    obj, end = _JSON.raw_decode(line, _JSON_SPACE(line).end())
    if (end := _JSON_SPACE(line, end).end()) != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return obj


def parse_event_log(stream: bytes) -> list[Event]:
    """Inverse of serialize_event_log; rejects malformed or non-monotone logs.
    Any bytes give events or a LogFormatError. Lines end at "\n" only: JSON
    strings may hold U+2028, U+2029 and U+0085 raw, and a "\r" before the
    "\n" is JSON whitespace."""
    events: list[Event] = []
    last_step = -1
    try:
        text = stream.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LogFormatError(f"log is not UTF-8: {exc}") from None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = _json_line(line)
        except (ValueError, RecursionError) as exc:   # RecursionError: too deep
            raise LogFormatError(f"line {lineno}: malformed JSON "
                                 f"({getattr(exc, 'msg', exc)})") from exc
        if not isinstance(obj, dict) or "kind" not in obj:
            raise LogFormatError(f"line {lineno}: missing 'kind' field")
        kind = _KINDS.get(obj["kind"]) if isinstance(obj["kind"], str) else None
        if kind is None:
            raise LogFormatError(f"line {lineno}: unknown kind {obj['kind']!r}")
        try:
            event = Event(step=obj["step"], actor_id=obj["actor_id"],
                          kind=kind, payload=obj["payload"])
        except (KeyError, TypeError, ValueError) as exc:
            raise LogFormatError(f"line {lineno}: {exc}") from exc
        if event.step < last_step:
            raise LogFormatError(
                f"line {lineno}: step {event.step} after step {last_step} "
                "(log must be step-ordered)"
            )
        last_step = event.step
        events.append(event)
    return events


# ---------------------------------------------------------------------------
# Alert JSONL

def alert_to_json(a: Alert) -> str:
    obj = {
        "tier": a.tier,
        "actor_id": a.actor_id,
        "step": a.step,
        "score": round(a.score, 6),
        "evidence": [
            {"kind": e.kind.value, "weight": round(e.weight, 6),
             "step": e.step, "detail": e.detail}
            for e in a.evidence
        ],
        "tom_assisted": a.tom_assisted,
        "gates": list(a.gates),
    }
    return json.dumps(obj, separators=(",", ":"))


def serialize_alert_log(alerts: Sequence[Alert]) -> bytes:
    return "".join(alert_to_json(a) + "\n" for a in alerts).encode("utf-8")


# ---------------------------------------------------------------------------
# Ground truth sidecar (JSON, one document)

def truth_to_dict(truths: Iterable[GroundTruth]) -> list[dict]:
    return [dict(vars(t), scenario=t.scenario.value if t.scenario else None)
            for t in sorted(truths, key=lambda t: t.actor_id)]


def truth_from_dict(items: Sequence[dict]) -> list[GroundTruth]:
    return [
        GroundTruth(
            actor_id=i["actor_id"],
            malicious=i["malicious"],
            scenario=Scenario(i["scenario"]) if i.get("scenario") else None,
            first_malicious_step=i.get("first_malicious_step"),
        )
        for i in items
    ]
