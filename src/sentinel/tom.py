"""Intent inference over observed action windows.

A plan library (bundled data, editable without code changes) holds one
abstract action template per attack scenario plus benign explanation
templates. Matching a window against a template prefix by subsequence gives
a completion fraction; specificity weighting turns that into a confidence.
A hypothesis is discarded ("contradicted") when a benign template explains
the window at least as well, or when the actor holds a compliance approval
covering the matched actions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

from .events import ActionKind, Event, Evidence, EvidenceKind

TAU = 0.5              # minimum confidence before ToM emits evidence
WEIGHT = 4.1           # evidence weight per unit confidence
# Specificity multipliers: how much matching an element says about intent.
SPEC_SENSITIVE = 2.0
SPEC_EXTERNAL = 2.0
SPEC_LOGIN = 0.5
SPEC_UNAPPROVED = 2.5

# One template as matching reads it: (plan, malicious,
# ((kind, element, specificity), ...), total specificity).
CompiledTemplate = tuple[str, bool, tuple[tuple[ActionKind, dict, float], ...],
                         float]


@dataclass(frozen=True)
class IntentHypothesis:
    plan: str                  # scenario name or benign template id
    malicious: bool
    completion: float
    confidence: float
    matched_kinds: frozenset[ActionKind]


def _specificity(element: dict) -> float:
    w = 1.0
    if element.get("sensitivity") == "sensitive":
        w *= SPEC_SENSITIVE
    if element.get("destination") == "external" or element.get("recipient_domain") == "external":
        w *= SPEC_EXTERNAL
    if element.get("unapproved_recipient"):
        w *= SPEC_UNAPPROVED
    if element["kind"] == "login":
        w *= SPEC_LOGIN
    return w


def _compile(plan: str, malicious: bool,
             template: list[dict]) -> CompiledTemplate:
    elements = tuple((ActionKind(e["kind"]), e, _specificity(e))
                     for e in template)
    return plan, malicious, elements, sum(w for _, _, w in elements)


class PlanLibrary:
    """Ordered action templates, one per scenario, plus benign explanations,
    compiled once at load: malicious plans first, each in file order."""

    def __init__(self, doc: dict):
        self.templates: tuple[CompiledTemplate, ...] = tuple(
            _compile(plan, malicious, template)
            for malicious, key in ((True, "malicious"), (False, "benign"))
            for plan, template in doc[key].items())

    @classmethod
    def bundled(cls) -> "PlanLibrary":
        text = resources.files("sentinel.data").joinpath("plan_library.json").read_text("utf-8")
        return cls(json.loads(text))


def _element_matches(element: dict, event: Event,
                     approved_domains: frozenset[str]) -> bool:
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


def _match_template(
    window: Sequence[Event], template: CompiledTemplate,
    approved_domains: frozenset[str],
) -> tuple[float, float, frozenset[ActionKind]]:
    """Greedy subsequence match of the window against the template prefix:
    (completion, confidence, matched kinds)."""
    _, _, elements, total_weight = template
    idx = 0
    matched_weight = 0.0
    kinds: set[ActionKind] = set()
    want_kind, want_element, weight = elements[0]
    for event in window:
        if event.kind is want_kind and _element_matches(
                want_element, event, approved_domains):
            matched_weight += weight
            kinds.add(event.kind)
            idx += 1
            if idx >= len(elements):
                break
            want_kind, want_element, weight = elements[idx]
    completion = idx / len(elements)
    confidence = matched_weight / total_weight if total_weight else 0.0
    return completion, confidence, frozenset(kinds)


def abduce(window: Sequence[Event], library: PlanLibrary,
           approved_domains: frozenset[str]) -> list[IntentHypothesis]:
    """Intent hypotheses for one actor's recent window (completion 0 omitted)."""
    hypotheses = []
    for template in library.templates:
        completion, confidence, kinds = _match_template(
            window, template, approved_domains)
        if completion > 0.0:
            hypotheses.append(IntentHypothesis(
                template[0], template[1], completion, confidence, kinds))
    return hypotheses


# Action kinds a compliance approval covers; logins are never covered.
APPROVAL_SCOPE = frozenset({ActionKind.DB_QUERY, ActionKind.FILE_ACCESS,
                            ActionKind.FILE_EXPORT, ActionKind.EMAIL_SEND})


def check_contradiction(h: IntentHypothesis,
                        hypotheses: Sequence[IntentHypothesis],
                        compliance_approval: bool) -> bool:
    """Whether a malicious hypothesis is contradicted: a benign hypothesis
    among ``hypotheses`` covers the window at >= its completion, or a
    compliance approval covers the matched actions."""
    if not h.malicious:
        return False
    if any(not b.malicious and b.completion >= h.completion
           for b in hypotheses):
        return True
    return compliance_approval and h.matched_kinds <= APPROVAL_SCOPE


def tom_evidence(hypotheses: Sequence[IntentHypothesis],
                 step: int) -> Optional[Evidence]:
    """Weighted intent evidence from the strongest malicious hypothesis;
    callers drop contradicted ones first."""
    malicious = [h for h in hypotheses if h.malicious]
    if not malicious:
        return None
    best = max(malicious, key=lambda h: (h.confidence, h.plan))
    if best.confidence < TAU or best.confidence <= 0.0:
        return None
    return Evidence(kind=EvidenceKind.TOM_INTENT, step=step,
                    weight=WEIGHT * best.confidence, detail=best.plan)
