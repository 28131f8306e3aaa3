"""Intent inference over observed action windows.

A plan library (bundled data, editable without code changes) holds one
abstract action template per attack scenario plus benign explanation
templates. Matching a window against a template prefix by subsequence gives
a completion fraction; specificity weighting turns that into a confidence.
Plan elements are matched once per event, when the event is ingested: its
mask holds one bit per distinct template element it matches, and only events
with a non-zero mask take part in matching at all. Each template's
completion, confidence and matched kinds per matched prefix are tabulated
once, when the library loads.
A hypothesis is discarded ("contradicted") when a benign template explains
the window at least as well, or when the actor holds a compliance approval
covering the matched actions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from itertools import accumulate
from typing import Optional, Sequence

from .events import ActionKind, Event, Evidence, EvidenceKind

TAU = 0.5              # minimum confidence before ToM emits evidence
WEIGHT = 4.1           # evidence weight per unit confidence
# Specificity multipliers: how much matching an element says about intent.
SPEC_SENSITIVE = 2.0
SPEC_EXTERNAL = 2.0
SPEC_LOGIN = 0.5
SPEC_UNAPPROVED = 2.5

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


class PlanLibrary:
    """Ordered action templates, one per scenario, plus benign explanations,
    compiled once at load: malicious plans first, each in file order.

    Each distinct element gets one bit; ``templates`` holds, per template,
    its element bits in order with a trailing 0 that no mask matches, and
    the hypothesis each matched prefix length 1..n gives."""

    def __init__(self, doc: dict):
        elements: list[tuple[ActionKind, dict]] = []
        self._by_kind: dict[ActionKind, list[tuple[dict, int]]] = {}
        templates = []
        for malicious, key in ((True, "malicious"), (False, "benign")):
            for plan, template in doc[key].items():
                bits, prefixes, kinds = [], [], set()
                # Weights add left to right, as a greedy match accumulates
                # them; the last running total is the template's total.
                totals = list(accumulate(map(_specificity, template)))
                for k, (e, matched) in enumerate(zip(template, totals), 1):
                    kind = ActionKind(e["kind"])
                    if (kind, e) not in elements:
                        elements.append((kind, e))
                        self._by_kind.setdefault(kind, []).append(
                            (e, 1 << (len(elements) - 1)))
                    bits.append(1 << elements.index((kind, e)))
                    kinds.add(kind)
                    prefixes.append(IntentHypothesis(
                        plan, malicious, k / len(template),
                        matched / totals[-1] if totals[-1] else 0.0,
                        frozenset(kinds)))
                templates.append((tuple(bits) + (0,), tuple(prefixes)))
        self.templates = tuple(templates)

    @classmethod
    def bundled(cls) -> "PlanLibrary":
        text = resources.files("sentinel.data").joinpath("plan_library.json").read_text("utf-8")
        return cls(json.loads(text))

    def mask(self, event: Event, approved_domains: frozenset[str]) -> int:
        """The bits of the distinct elements ``event`` matches."""
        return sum(bit for element, bit in self._by_kind.get(event.kind, ())
                   if _element_matches(element, event, approved_domains))


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


def abduce(window: Sequence[Event], masks: Sequence[int],
           library: PlanLibrary) -> list[IntentHypothesis]:
    """Intent hypotheses for one actor's recent window (completion 0 omitted).

    ``window`` is the actor's events in order and ``masks`` their
    ``library.mask`` values; an event that matches no element never
    advances a match, so it may be left out of both. Each template's greedy
    subsequence match reads only the masks."""
    hypotheses = []
    for bits, prefixes in library.templates:
        idx = 0
        for mask in masks:
            if mask & bits[idx]:
                idx += 1
        if idx:
            hypotheses.append(prefixes[idx - 1])
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
