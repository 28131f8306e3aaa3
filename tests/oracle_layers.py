"""Frozen ToM and keyword-scoring layers for the reference engine.

``oracle_engine`` imports this module as both its ``tom`` and its
``forensics`` layer. The first part is a verbatim copy of ``sentinel.tom``
as it stood before intent inference was simplified; the only edit is that
``.events`` became ``sentinel.events``. The second part is a verbatim copy of
the keyword phishing scorer of ``sentinel.forensics`` from the same commit:
the keyword lists, ``tokenize``, ``count_keyword_hits`` and
``keyword_phishing_score``. Neither part is ever optimised or simplified, so
a rewrite of intent inference or phishing scoring is compared with the code
it replaces. Both parts read the bundled data files (the plan library and
the keyword lists) from ``sentinel.data``. ``PretrainedModel`` is the one
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

