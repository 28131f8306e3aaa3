"""Frozen ToM, keyword-scoring and log-reading layers for reference tests.

``oracle_engine`` imports this module as both its ``tom`` and its
``forensics`` layer. The first part is a verbatim copy of ``sentinel.tom``
as it stood before intent inference was simplified; the only edit is that
``.events`` became ``sentinel.events``. The second part is a verbatim copy of
the keyword phishing scorer of ``sentinel.forensics`` from the same commit:
the keyword lists, ``tokenize``, ``count_keyword_hits`` and
``keyword_phishing_score``. The third part is the event log reader of
``sentinel.events`` as it stood before it decoded lines with the JSON
scanner directly: ``parse_event_log``, ``validate_payload`` and the checks of
``Event.__post_init__``. Its one edit is that those checks run before the
live ``Event`` is built, outside the ``try``, so a live check that rejects
what the frozen one accepts raises instead of matching the frozen error.
None of the parts is ever optimised or simplified, so a rewrite of intent
inference, phishing scoring or log reading is compared with the code it
replaces. The first two parts read the bundled data files (the plan library
and the keyword lists) from ``sentinel.data``. ``PretrainedModel`` is the one
name re-exported from the live ``sentinel.forensics``: the reference engine
only passes a trained model through to it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources
from typing import Optional, Sequence

from sentinel.events import ActionKind, Event, Evidence, EvidenceKind


@dataclass(frozen=True)
class TomConfig:
    tau: float = 0.5           # minimum confidence before ToM emits evidence
    weight: float = 4.1        # evidence weight per unit confidence
    spec_sensitive: float = 2.0
    spec_external: float = 2.0
    spec_login: float = 0.5
    spec_unapproved: float = 2.5


@dataclass(frozen=True)
class IntentHypothesis:
    actor_id: str
    plan: str                  # scenario name or benign template id
    malicious: bool
    completion: float
    confidence: float
    contradicted: bool = False
    matched_kinds: frozenset[ActionKind] = frozenset()


class PlanLibrary:
    """Ordered action templates, one per scenario, plus benign explanations."""

    def __init__(self, doc: dict):
        self.malicious: dict[str, list[dict]] = doc["malicious"]
        self.benign: dict[str, list[dict]] = doc["benign"]
        # Kind lookups and specificity sums are hot inside the per-step match
        # loop, so pre-resolve them once per template.
        self._compiled: dict[int, list[tuple[ActionKind, dict]]] = {}
        self._weights: dict[tuple[int, TomConfig], tuple[tuple[float, ...], float]] = {}
        for templates in (self.malicious, self.benign):
            for template in templates.values():
                self._compiled[id(template)] = [
                    (ActionKind(e["kind"]), e) for e in template
                ]

    def compiled(self, template: list[dict]) -> list[tuple[ActionKind, dict]]:
        return self._compiled[id(template)]

    def weights(self, template: list[dict],
                config: TomConfig) -> tuple[tuple[float, ...], float]:
        key = (id(template), config)
        out = self._weights.get(key)
        if out is None:
            per = tuple(_specificity(e, config) for e in template)
            out = (per, sum(per))
            self._weights[key] = out
        return out

    @classmethod
    def bundled(cls) -> "PlanLibrary":
        text = resources.files("sentinel.data").joinpath("plan_library.json").read_text("utf-8")
        return cls(json.loads(text))


def _element_matches(
    element: dict, event: Event, approved_domains: frozenset[str]
) -> bool:
    p = event.payload
    for key in ("sensitivity", "destination", "context", "recipient_domain"):
        if key in element and p.get(key) != element[key]:
            return False
    if "min_volume" in element and p.get("volume", 0) < element["min_volume"]:
        return False
    if "max_volume" in element and p.get("volume", 0) > element["max_volume"]:
        return False
    if element.get("approved_recipient") and p.get("recipient") not in approved_domains:
        return False
    if element.get("unapproved_recipient") and p.get("recipient") in approved_domains:
        return False
    return True


def _specificity(element: dict, config: TomConfig) -> float:
    w = 1.0
    if element.get("sensitivity") == "sensitive":
        w *= config.spec_sensitive
    if element.get("destination") == "external" or element.get("recipient_domain") == "external":
        w *= config.spec_external
    if element.get("unapproved_recipient"):
        w *= config.spec_unapproved
    if element["kind"] == "login":
        w *= config.spec_login
    return w


def _match_template(
    window: Sequence[Event], template: list[dict],
    approved_domains: frozenset[str], config: TomConfig,
    library: PlanLibrary,
) -> tuple[float, float, frozenset[ActionKind]]:
    """Greedy subsequence match of the window against the template prefix.

    ``template`` must be one of ``library``'s templates. Returns
    (completion, confidence, matched kinds).
    """
    compiled = library.compiled(template)
    weights, total_weight = library.weights(template, config)
    idx = 0
    matched_weight = 0.0
    kinds: set[ActionKind] = set()
    want_kind, want_element = compiled[0]
    for event in window:
        if event.kind is want_kind and _element_matches(
                want_element, event, approved_domains):
            matched_weight += weights[idx]
            kinds.add(event.kind)
            idx += 1
            if idx >= len(compiled):
                break
            want_kind, want_element = compiled[idx]
    completion = idx / len(template)
    confidence = matched_weight / total_weight if total_weight else 0.0
    return completion, confidence, frozenset(kinds)


def abduce(
    window: Sequence[Event], library: PlanLibrary,
    config: TomConfig = TomConfig(),
    approved_domains: frozenset[str] = frozenset(),
) -> list[IntentHypothesis]:
    """Intent hypotheses for one actor's recent window (completion 0 omitted)."""
    if not window:
        return []
    actor_id = window[0].actor_id
    hypotheses = []
    for malicious, templates in ((True, library.malicious), (False, library.benign)):
        for plan, template in templates.items():
            completion, confidence, kinds = _match_template(
                window, template, approved_domains, config, library
            )
            if completion > 0.0:
                hypotheses.append(IntentHypothesis(
                    actor_id=actor_id, plan=plan, malicious=malicious,
                    completion=completion, confidence=confidence,
                    matched_kinds=kinds,
                ))
    return hypotheses


# Action kinds a compliance approval covers; logins are never covered.
APPROVAL_SCOPE = frozenset({
    ActionKind.DB_QUERY, ActionKind.FILE_ACCESS,
    ActionKind.FILE_EXPORT, ActionKind.EMAIL_SEND,
})


@dataclass(frozen=True)
class ActorContext:
    """What contradiction checking knows about the actor beyond the window."""
    compliance_approval: bool = False
    benign_hypotheses: tuple[IntentHypothesis, ...] = ()


def check_contradiction(
    h: IntentHypothesis, context: ActorContext
) -> IntentHypothesis:
    """Mark a malicious hypothesis contradicted when a benign explanation
    covers the window at >= its completion, or a compliance approval covers
    the matched actions."""
    if not h.malicious or h.contradicted:
        return h
    for b in context.benign_hypotheses:
        if not b.malicious and b.completion >= h.completion:
            return replace(h, contradicted=True)
    if context.compliance_approval and h.matched_kinds <= APPROVAL_SCOPE:
        return replace(h, contradicted=True)
    return h


def tom_evidence(
    hypotheses: Sequence[IntentHypothesis], step: int,
    config: TomConfig = TomConfig(),
) -> Optional[Evidence]:
    """Weighted intent evidence from the strongest live malicious hypothesis."""
    live = [h for h in hypotheses if h.malicious and not h.contradicted]
    if not live:
        return None
    best = max(live, key=lambda h: (h.confidence, h.plan))
    if best.confidence < config.tau or best.confidence <= 0.0:
        return None
    return Evidence(
        kind=EvidenceKind.TOM_INTENT,
        weight=config.weight * best.confidence,
        step=step,
        detail=best.plan,
    )


# ---------------------------------------------------------------------------
# Keyword phishing scorer (from ``sentinel.forensics``)

import re

from sentinel.forensics import PretrainedModel  # re-exported


def _load_keywords(name: str) -> tuple[str, ...]:
    text = resources.files("sentinel.data").joinpath(name).read_text("utf-8")
    return tuple(
        line.strip().lower()
        for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    )


URGENT_KEYWORDS = _load_keywords("keywords_urgent.txt")
SENSITIVE_KEYWORDS = _load_keywords("keywords_sensitive.txt")


_SENTENCE_SPLIT = re.compile(r"[.!?]+")
_TOKEN = re.compile(r"[a-z0-9']+")


def tokenize(text: str) -> list[list[str]]:
    """Rule-based sentence/token splitting, lowercased.

    Sentences split on ``.!?`` runs; tokens are maximal runs of
    lowercase alphanumerics (plus apostrophe). Empty text gives ``[]``.
    """
    sentences = []
    for raw in _SENTENCE_SPLIT.split(text.lower()):
        tokens = _TOKEN.findall(raw)
        if tokens:
            sentences.append(tokens)
    return sentences


def count_keyword_hits(text: str, keywords: Sequence[str]) -> int:
    """Occurrences of each keyword/phrase in the lowercased text.

    Single words match on token boundaries; multi-word phrases match as
    whitespace-normalized substrings.
    """
    low = " ".join(text.lower().split())
    tokens = [t for s in tokenize(text) for t in s]
    hits = 0
    for kw in keywords:
        if " " in kw:
            hits += low.count(kw)
        else:
            hits += sum(1 for t in tokens if t == kw)
    return hits


def keyword_phishing_score(body: str) -> float:
    """Keyword-only phishing heuristic used when no pretrained model is loaded."""
    s = count_keyword_hits(body, SENSITIVE_KEYWORDS)
    u = count_keyword_hits(body, URGENT_KEYWORDS)
    return min(1.0, 0.18 * s + 0.22 * u)



# ---------------------------------------------------------------------------
# Event log reader (from ``sentinel.events``)

from sentinel.events import LogFormatError

# Payload field order per kind; also doubles as the schema for validation.
_PAYLOAD_FIELDS = {
    ActionKind.LOGIN: ("context",),
    ActionKind.DB_QUERY: ("resource", "sensitivity"),
    ActionKind.FILE_ACCESS: ("resource", "sensitivity"),
    ActionKind.FILE_EXPORT: ("volume", "resource", "destination"),
    ActionKind.EMAIL_SEND: ("recipient_domain", "recipient", "body"),
}

_LOGIN_CONTEXTS = {"normal", "after_hours", "new_location"}
_DESTINATIONS = {"internal", "external", "staging"}
_SENSITIVITIES = {"normal", "sensitive"}
_DOMAINS = {"internal", "external"}


def _check_event(step, actor_id, kind, payload):
    """``Event.__post_init__``."""
    if isinstance(step, bool) or not isinstance(step, int):
        raise ValueError(f"step must be an int, not {step!r}")
    if step < 0:
        raise ValueError(f"negative step {step}")
    if not isinstance(actor_id, str):
        raise ValueError(f"actor_id must be a string: {actor_id!r}")
    validate_payload(kind, payload)


def validate_payload(kind: ActionKind, payload: dict) -> None:
    fields = _PAYLOAD_FIELDS[kind]
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


def parse_event_log(stream: bytes) -> list[Event]:
    """Inverse of serialize_event_log; rejects malformed or non-monotone logs.
    Any bytes give events or a LogFormatError."""
    events: list[Event] = []
    last_step = -1
    try:
        text = stream.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LogFormatError(f"log is not UTF-8: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:   # RecursionError: too deep
            raise LogFormatError(f"line {lineno}: malformed JSON "
                                 f"({getattr(exc, 'msg', exc)})") from exc
        try:
            kind = ActionKind(obj["kind"])
        except ValueError:
            raise LogFormatError(f"line {lineno}: unknown kind {obj.get('kind')!r}") from None
        except (KeyError, TypeError):
            raise LogFormatError(f"line {lineno}: missing 'kind' field") from None
        try:
            _check_event(step=obj["step"], actor_id=obj["actor_id"],
                         kind=kind, payload=obj["payload"])
        except (KeyError, TypeError, ValueError) as exc:
            raise LogFormatError(f"line {lineno}: {exc}") from exc
        event = Event(step=obj["step"], actor_id=obj["actor_id"], kind=kind,
                      payload=obj["payload"])
        if event.step < last_step:
            raise LogFormatError(
                f"line {lineno}: step {event.step} after step {last_step} "
                "(log must be step-ordered)"
            )
        last_step = event.step
        events.append(event)
    return events
