"""Layered correlation engine.

Every variant shares one core: policy rules, EWMA behavior baselines,
trust-adaptive thresholds, an online logistic scorer, and weak ML advice
from an isolation forest. The variant name alone decides which layers stack
on top (see VariantConfig): CE adds intent (ToM) and email forensics
evidence; EG adds the precision layers: evidence gating, peer normalization,
regularity suppression, contradiction checking, and the compliance override.

One run serves (variant, theta) cells in two phases. features() streams the
shared feature pass, with each actor's WindowSummary kept live as events
enter and leave its window; then each cell decides with its own trust, scorer
and alerts, and gets ground truth only as run()'s analyst feedback.
"""

from __future__ import annotations

import copy
import json
import math
import statistics
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property, partial, reduce
from importlib import resources
from operator import add, mul
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from . import anomaly, forensics, tom
from .events import (ActionKind, Alert, Event, Evidence, EvidenceKind, Role)
from .rng import substream
from .simkit import ActorSpec

EWMA_METRICS = ("login_rate", "query_rate", "export_volume")


class Variant(str, Enum):
    LSC = "lsc"
    CE_SIEM = "ce"
    EG_SIEM = "eg"
    EG_SIEM_PT = "eg-pt"


VARIANT_NAMES = tuple(v.value for v in Variant)


@dataclass(frozen=True)
class VariantConfig:
    """A variant and its base threshold; the variant fixes the layers."""
    variant: Variant
    theta_base: float = 4.0

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        if not math.isfinite(self.theta_base):
            raise ValueError(f"theta_base must be a finite number, got "
                             f"{self.theta_base!r}")

    @property
    def forensics(self) -> bool:
        """ToM intent and email forensics evidence: every variant but LSC."""
        return self.variant is not Variant.LSC

    @property
    def gating(self) -> bool:
        """Gates, peer normalization, regularity suppression, contradiction
        checking and the compliance override: the EG variants."""
        return self.variant in (Variant.EG_SIEM, Variant.EG_SIEM_PT)

    @property
    def pretrained_model(self) -> bool:
        """A trained email classifier in place of the keyword heuristic."""
        return self.variant is Variant.EG_SIEM_PT


# ---------------------------------------------------------------------------
# Policy rules

class PolicyRules:
    """Deny-lists and caps loaded from a data file."""

    def __init__(self, doc: dict):
        self.approved_email_domains = frozenset(doc["approved_email_domains"])
        self.denied_email_domains = frozenset(doc["denied_email_domains"])
        self.denied_resources = {
            res: frozenset(Role(r) for r in roles)
            for res, roles in doc["denied_resources"].items()
        }
        self.export_caps = {Role(r): cap
                            for r, cap in doc["external_export_caps"].items()}

    @classmethod
    def bundled(cls) -> "PolicyRules":
        text = resources.files("sentinel.data").joinpath(
            "policy_rules.json").read_text("utf-8")
        return cls(json.loads(text))

    def rule_hits(self, event: Event, role: Role) -> tuple[str, ...]:
        hits = []
        p = event.payload
        if event.kind is ActionKind.EMAIL_SEND:
            if p["recipient"] in self.denied_email_domains:
                hits.append(f"denied_domain:{p['recipient']}")
        if event.kind in (ActionKind.DB_QUERY, ActionKind.FILE_ACCESS,
                          ActionKind.FILE_EXPORT):
            denied_for = self.denied_resources.get(p["resource"], frozenset())
            if role in denied_for:
                hits.append(f"denied_resource:{p['resource']}")
        if event.kind is ActionKind.FILE_EXPORT and p["destination"] == "external":
            cap = self.export_caps[role]
            if p["volume"] > cap:
                hits.append(f"export_cap:{role.value}")
        return tuple(hits)


# ---------------------------------------------------------------------------
# EWMA baselines

EWMA_EPS = 1e-6
EWMA_VOL_SCALE = 300.0   # typical export size for the variance floor


@dataclass(frozen=True)
class EwmaState:
    """One baseline, or equal-shape arrays of them updated element-wise."""
    mean: float | np.ndarray = 0.0
    var: float | np.ndarray = 0.0
    alpha: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if np.any(self.var < 0):
            raise ValueError("variance must be >= 0")


def ewma_update(state: EwmaState, x: float | np.ndarray,
                eps: float | np.ndarray = EWMA_EPS
                ) -> tuple[EwmaState, float | np.ndarray]:
    """One observation: deviation against the old state, then the update,
    element-wise. The square is libm's pow, as Python's ``**`` takes it;
    numpy's ``**`` multiplies, which can differ in the last bit."""
    deviation = np.maximum(0.0, (x - state.mean) / np.sqrt(state.var + eps))
    a = state.alpha
    mean = (1.0 - a) * state.mean + a * x
    var = (1.0 - a) * (state.var + a * np.float_power(x - state.mean, 2))
    return EwmaState(mean=mean, var=var, alpha=a), deviation


# ---------------------------------------------------------------------------
# Trust

TRUST_INIT, TRUST_LO, TRUST_HI = 0.7, 0.10, 0.95
TRUST_DELTA_TP, TRUST_DELTA_FP, TRUST_DECAY = -0.15, 0.05, 0.01
THETA_SLOPE, EARLY_FRACTION = 2.0, 0.6   # confirm and early thresholds


def thresholds(trust: float, theta_base: float, theta_slope: float,
               early_fraction: float) -> tuple[float, float]:
    theta_confirm = theta_base + theta_slope * (trust - 0.5)
    return early_fraction * theta_confirm, theta_confirm


def update_trust(t: float, outcome: str) -> float:
    """Apply one trust outcome; always clamped to [TRUST_LO, TRUST_HI]."""
    if outcome == "true_positive":
        t += TRUST_DELTA_TP
    elif outcome == "false_positive":
        t += TRUST_DELTA_FP
    elif outcome == "decay_tick":
        if t > TRUST_INIT:
            t = max(TRUST_INIT, t - TRUST_DECAY)
        elif t < TRUST_INIT:
            t = min(TRUST_INIT, t + TRUST_DECAY)
    else:
        raise ValueError(f"unknown trust outcome {outcome!r}")
    return min(TRUST_HI, max(TRUST_LO, t))


# ---------------------------------------------------------------------------
# Window summary

@dataclass
class WindowSummary:
    """What the layers read from one actor's window, kept up to date by
    _count(); step lists keep window order."""
    logins: int = 0
    suspicious_logins: deque = field(default_factory=deque)   # (step, context)
    queries: int = 0
    sensitive_steps: deque = field(default_factory=deque)
    export_steps: deque = field(default_factory=deque)
    export_volumes: deque = field(default_factory=deque)
    export_total: int = 0   # the volumes' exact sum
    large_exports: int = 0
    external_export_steps: deque = field(default_factory=deque)
    staging_export_steps: deque = field(default_factory=deque)
    external_emails: int = 0
    unapproved_email_steps: deque = field(default_factory=deque)

    @property
    def export_volume(self) -> float:
        """The volumes summed as floats in window order: exactly the total
        while it is below 2**53, as volumes are ints in [0, 2**53)."""
        if self.export_total < 2 ** 53:
            return float(self.export_total)
        return reduce(add, self.export_volumes, 0.0)

    @property
    def peer_volume(self) -> float:
        """Window export volume with the two largest exports removed.

        Lone spikes are already covered by policy and baseline evidence;
        peer comparison looks for sustained multi-export volume, so it stays
        robust to one-off events.
        """
        return float(sum(sorted(self.export_volumes)[:-2]))


def _count(s: WindowSummary, e: Event, approved_domains: frozenset[str],
           sign: int) -> None:
    """Count an event in as it enters the window (sign 1) or out as it leaves
    (-1, always the oldest): which logins are suspicious, which accesses
    sensitive, which exports large, staged or external, and which emails go
    outside the approved partner list."""
    put = deque.append if sign > 0 else lambda steps, _: steps.popleft()
    p = e.payload
    if e.kind is ActionKind.LOGIN:
        s.logins += sign
        if p["context"] != "normal":
            put(s.suspicious_logins, (e.step, p["context"]))
    elif e.kind in (ActionKind.DB_QUERY, ActionKind.FILE_ACCESS):
        s.queries += sign
        if p["sensitivity"] == "sensitive":
            put(s.sensitive_steps, e.step)
    elif e.kind is ActionKind.FILE_EXPORT:
        put(s.export_steps, e.step)
        put(s.export_volumes, p["volume"])
        s.export_total += sign * p["volume"]
        if p["volume"] >= 1000:
            s.large_exports += sign
        if p["destination"] == "external":
            put(s.external_export_steps, e.step)
        elif p["destination"] == "staging":
            put(s.staging_export_steps, e.step)
    elif p["recipient_domain"] == "external":
        s.external_emails += sign
        # Routine partner mail is not an exfiltration endpoint.
        if p["recipient"] not in approved_domains:
            put(s.unapproved_email_steps, e.step)


def summarize(window: Sequence[Event],
              approved_domains: frozenset[str]) -> WindowSummary:
    """A whole window's summary: each event counted in, in order."""
    s = WindowSummary()
    for e in window:
        _count(s, e, approved_domains, 1)
    return s


# ---------------------------------------------------------------------------
# EG layers

CV_MIN, M_REG, REGULARITY_MIN_EVENTS = 0.25, 0.5, 3
PEER_Z_MIN, PEER_EPS, PEER_MIN_GROUP = 2.5, 300.0, 3
W_PEER, PEER_CAP = 0.5, 1.0


def regularity_suppression(export_steps: Sequence[int]) -> float:
    """Multiplier for baseline weights when exports follow a regular beat."""
    steps = sorted(export_steps)
    if len(steps) < REGULARITY_MIN_EVENTS:
        return 1.0
    gaps = [b - a for a, b in zip(steps, steps[1:])]
    mean = sum(gaps) / len(gaps)
    if mean == 0:
        return 1.0
    var = reduce(add, ((g - mean) ** 2 for g in gaps), 0) / len(gaps)
    cv = math.sqrt(var) / mean
    return M_REG if cv < CV_MIN else 1.0


def peer_normalize(actor_volume: float, peer_volumes: Sequence[float],
                   step: int) -> Optional[Evidence]:
    """Robust z of the actor's window export volume against role peers."""
    if len(peer_volumes) < PEER_MIN_GROUP:
        return None
    median = statistics.median(peer_volumes)
    mad = statistics.median([abs(v - median) for v in peer_volumes])
    z = (actor_volume - median) / (mad + PEER_EPS)
    if z < PEER_Z_MIN:
        return None
    return Evidence(kind=EvidenceKind.PEER_EXPORT_OUTLIER,
                    weight=min(W_PEER * z, PEER_CAP),
                    step=step, detail=f"z={z:.2f}")


# ---------------------------------------------------------------------------
# Online scorer

SCORER_FEATURES = ("recent_email", "after_hours_login", "large_export",
                   "sensitive_access", "external_destination", "staging_export",
                   "forensics_flag", "tom_intent")


class OnlineScorer:
    """Logistic model over binary anchor features; benign warmup batch first,
    then one gradient step per analyst-labeled alert."""

    def __init__(self):
        self.weights = [0.0] * len(SCORER_FEATURES)
        self.bias = 0.0
        self.trained = False

    def predict(self, x: Sequence[float]) -> float:
        z = self.bias + reduce(add, map(mul, self.weights, x), 0)
        z = max(-30.0, min(30.0, z))
        return 1.0 / (1.0 + math.exp(-z))

    def _step(self, x: Sequence[float], label: int, lr: float) -> None:
        err = self.predict(x) - label
        for i, v in enumerate(x):
            self.weights[i] -= lr * (err * v + SCORER_L2 * self.weights[i])
        self.bias -= lr * err

    def warmup_fit(self, samples: Sequence[Sequence[float]],
                   labels: Sequence[int]) -> None:
        for _ in range(WARMUP_EPOCHS):
            for x, y in zip(samples, labels):
                self._step(x, y, WARMUP_LR)
        self.trained = True

    def update(self, x: Sequence[float], label: int) -> None:
        if not self.trained:
            raise RuntimeError("online update before warmup training")
        self._step(x, label, SCORER_LR)


def scorer_features(summary: WindowSummary, forensics_flag: bool,
                    tom_flag: bool) -> tuple[float, ...]:
    """The SCORER_FEATURES bits, in order."""
    s = summary
    return tuple(1.0 if bit else 0.0 for bit in (
        s.external_emails, s.suspicious_logins, s.large_exports,
        s.sensitive_steps, s.external_export_steps, s.staging_export_steps,
        forensics_flag, tom_flag))


# ---------------------------------------------------------------------------
# Gating

GATE_TIGHT_CHAIN = "tight_exfiltration_chain"
GATE_STAGING = "staging_activity"
GATE_LOGIN_CONTEXT = "login_context"
GATE_EXCESS = "excess_evidence"
CHAIN_WINDOW = 10       # steps a tight chain or a login-to-access pair spans
GATE_STAGING_MIN = 2    # staged exports the StagingActivity gate needs

# Event kinds each gate is triggered by, for the compliance override check.
_GATE_TRIGGER_KINDS = {
    GATE_TIGHT_CHAIN: frozenset({ActionKind.DB_QUERY, ActionKind.FILE_ACCESS,
                                 ActionKind.FILE_EXPORT, ActionKind.EMAIL_SEND}),
    GATE_STAGING: frozenset({ActionKind.FILE_EXPORT}),
    GATE_LOGIN_CONTEXT: frozenset({ActionKind.LOGIN, ActionKind.DB_QUERY,
                                   ActionKind.FILE_ACCESS}),
    GATE_EXCESS: frozenset(),  # no specific trigger actions
}


def satisfied_gates(summary: WindowSummary) -> tuple[str, ...]:
    """EG escalation gates over the current window; excess_gate() adds the
    one that reads the evidence."""
    gates = []
    sensitive = summary.sensitive_steps
    external, staged = summary.external_export_steps, summary.staging_export_steps
    if any(s <= x <= m and m - s <= CHAIN_WINDOW
           for s in sensitive for x in external
           for m in summary.unapproved_email_steps if x <= m):
        gates.append(GATE_TIGHT_CHAIN)
    if len(staged) >= GATE_STAGING_MIN and external \
            and sorted(staged)[GATE_STAGING_MIN - 1] <= max(external):
        gates.append(GATE_STAGING)
    if any(l <= s <= l + CHAIN_WINDOW
           for l, _ in summary.suspicious_logins for s in sensitive):
        gates.append(GATE_LOGIN_CONTEXT)
    return tuple(gates)


def excess_gate(evidence: Sequence[Evidence]) -> tuple[str, ...]:
    """The one gate that reads the evidence: four distinct kinds."""
    return (GATE_EXCESS,) if len({e.kind for e in evidence}) >= 4 else ()


def gate_confirm(risk: float, evidence: Sequence[Evidence], theta_confirm: float,
                 gates: Sequence[str], gating: bool,
                 compliance: bool = False) -> bool:
    """Confirmed-tier decision. Gating variants demand two distinct evidence
    kinds plus a satisfied gate, and honor the compliance override."""
    if risk < theta_confirm:
        return False
    if not gating:
        return True
    if len({e.kind for e in evidence}) < 2:
        return False
    if not gates:
        return False
    if compliance and all(_GATE_TRIGGER_KINDS[g] <= tom.APPROVAL_SCOPE
                          for g in gates):
        return False
    return True


# ---------------------------------------------------------------------------
# Engine

WINDOW = 20         # steps an actor's window spans
SAMPLE_EVERY = 5    # warm-up steps between scorer and forest samples
D_MIN = 1.3         # EWMA deviation that counts as a baseline anomaly
W_POLICY = 2.0
W_BASELINE, BASELINE_CAP = 1.5, 2.2
W_SUSPICIOUS_LOGIN = 0.4
W_STAGING, STAGING_MIN = 1.5, 3   # staged exports for staging_pattern evidence
W_FORENSICS, PHISHING_THRESHOLD = 2.0, 0.7
W_SCORER, SCORER_GATE, SCORER_CAP = 2.0, 0.6, 0.4
SCORER_LR, SCORER_L2, WARMUP_EPOCHS, WARMUP_LR = 0.1, 1e-3, 20, 0.5


@dataclass
class _ActorState:
    spec: ActorSpec
    window: deque = field(default_factory=deque)
    summary: WindowSummary = field(default_factory=WindowSummary)   # of window
    policy_cache: deque = field(default_factory=deque)   # (step, rule ids)
    phishing: deque = field(default_factory=deque)   # (step, {pretrained: p})
    # The window's events that match some plan element, their element masks,
    # and the hypotheses abduced from them by gating kind, contradicted ones
    # dropped for gating (None once either deque changes).
    tom: deque = field(default_factory=deque)
    tom_masks: deque = field(default_factory=deque)
    hypotheses: Optional[dict] = None


@dataclass
class _Row:
    """One actor at one step as every cell reads it. The two reads only
    some decisions need are made once, when first asked for, within the
    row's step: the summary is live and changes at the next ingest."""
    actor_id: str
    step: int
    compliance: bool
    features: dict   # Variant -> (evidence before ML, scorer features, after)
    summary: WindowSummary
    # The role's forest, fitted on the first call; None: no ML advice.
    forest: Optional[Callable[[], anomaly.IsoForest]]

    @cached_property
    def forest_score(self) -> float:
        return self.forest().score(anomaly.behavior_vector(self.summary))

    @cached_property
    def window_gates(self) -> tuple[str, ...]:
        return satisfied_gates(self.summary)


@dataclass
class _Cell:
    """One (variant, theta) cell's decision state."""
    variant: VariantConfig
    scorer: OnlineScorer   # its copy of the warm-up fit
    trust: dict = field(default_factory=dict)   # actor id -> trust level
    # The scorer's outputs by feature vector since its last update: it
    # changes only on a confirmed alert.
    predictions: dict = field(default_factory=dict)
    alerts: list = field(default_factory=list)

    def decide(self, row: _Row, feedback: Callable[[str], bool]) -> None:
        """One actor's decision: ML evidence from the cell's scorer, peer
        evidence, risk, ML advice and the gates; then the alert, and on a
        confirmed one the analyst's label, ``feedback(actor_id)``, which
        moves the actor's trust and trains the scorer."""
        trust = self.trust.get(row.actor_id, TRUST_INIT)
        if trust != TRUST_INIT:   # a decay tick keeps it there
            trust = self.trust[row.actor_id] = update_trust(trust, "decay_tick")
        before, x, after = row.features[self.variant.variant]
        p = self.predictions.get(x)
        if p is None:
            p = self.predictions[x] = self.scorer.predict(x)
        if p < SCORER_GATE and not before and not after:
            return
        theta_early, theta_confirm = thresholds(
            trust, self.variant.theta_base, THETA_SLOPE, EARLY_FRACTION)
        evidence = list(before)
        if p >= SCORER_GATE:
            evidence.append(Evidence(
                kind=EvidenceKind.ML_ANOMALY,
                weight=min(W_SCORER * (p - 0.5), SCORER_CAP),
                step=row.step, detail=f"p={p:.3f}"))
        evidence += after
        risk = reduce(add, (e.weight for e in evidence), 0)
        if row.forest is not None and risk >= anomaly.ML_BAND * theta_confirm:
            risk = anomaly.ml_advice(row.forest_score, risk, theta_confirm)
        gating = self.variant.gating
        gates = ()
        if gating and risk >= theta_confirm:   # gate_confirm reads no others
            gates = row.window_gates + excess_gate(evidence)
        confirmed = gate_confirm(risk, evidence, theta_confirm, gates, gating,
                                 row.compliance)
        if not confirmed and risk < theta_early:
            return
        evidence.sort(key=lambda e: (e.kind.value, e.step, e.detail))
        self.alerts.append(Alert(
            tier="confirmed" if confirmed else "early", actor_id=row.actor_id,
            step=row.step, score=risk, evidence=tuple(evidence),
            tom_assisted=any(e.kind is EvidenceKind.TOM_INTENT
                             for e in evidence),
            gates=gates if confirmed else ()))
        if confirmed:
            label = 1 if feedback(row.actor_id) else 0
            outcome = "true_positive" if label else "false_positive"
            self.trust[row.actor_id] = update_trust(trust, outcome)
            self.scorer.update(x, label)
            self.predictions.clear()


class SiemEngine:
    """Runs (variant, theta) cells over one event log: one feature pass
    that every cell shares, one decision state per cell; see run()."""

    def __init__(self, cells: Sequence[VariantConfig],
                 roster: Sequence[ActorSpec], seed: int,
                 model: Optional[forensics.PretrainedModel] = None):
        if not cells:
            raise ValueError("no (variant, theta) cell to run")
        if any(c.pretrained_model for c in cells) and model is None:
            raise ValueError("EG_SIEM_PT requires a pretrained forensics model")
        ids = [a.actor_id for a in roster]
        for actor_id in sorted(ids):
            if ids.count(actor_id) > 1:
                raise ValueError(f"roster lists actor {actor_id!r} twice")
        # Forensics and gating nest in VARIANT_NAMES order, so the widest
        # cell has either layer when some cell has it. bench/tracer.py reads it.
        self.variant = max(cells, key=lambda c: VARIANT_NAMES.index(
            c.variant.value))
        self.cells = list(cells)
        self.variants = [VariantConfig(v)
                         for v in dict.fromkeys(c.variant for c in cells)]
        read = [v for v in self.variants if v.forensics]
        self._phish_kinds = sorted({v.pretrained_model for v in read})
        self._tom_kinds = sorted({v.gating for v in read})
        self.rules = PolicyRules.bundled()
        self.library = tom.PlanLibrary.bundled()
        self.model = model
        self.seed = seed
        self.actors = {a.actor_id: _ActorState(spec=a) for a in roster}
        self.scorer: Optional[OnlineScorer] = None   # the warm-up fit
        self.forests: dict[Role, Callable[[], anomaly.IsoForest]] = {}

    def _ingest(self, state: _ActorState, event: Event, read: bool) -> None:
        """Count the event in and, unless it leaves the window before the
        first correlate() (not ``read``), its rule hits, mask and scores."""
        state.window.append(event)
        _count(state.summary, event, self.rules.approved_email_domains, 1)
        if not read:
            return
        hits = self.rules.rule_hits(event, state.spec.role)
        if hits:
            state.policy_cache.append((event.step, hits))
        mask = self.variant.forensics and self.library.mask(
            event, self.rules.approved_email_domains)
        if mask:
            state.tom.append(event)
            state.tom_masks.append(mask)
            state.hypotheses = None
        if self.variant.forensics and event.kind is ActionKind.EMAIL_SEND:
            body = event.payload["body"]
            state.phishing.append((event.step, {
                pt: self.model.phishing_prob(body) if pt
                else forensics.keyword_phishing_score(body)
                for pt in self._phish_kinds}))

    def _evict(self, state: _ActorState, now: int) -> None:
        horizon = now - WINDOW
        while state.window and state.window[0].step <= horizon:
            _count(state.summary, state.window.popleft(),
                   self.rules.approved_email_domains, -1)
        while state.policy_cache and state.policy_cache[0][0] <= horizon:
            state.policy_cache.popleft()
        while state.phishing and state.phishing[0][0] <= horizon:
            state.phishing.popleft()
        while state.tom and state.tom[0].step <= horizon:
            state.tom.popleft()
            state.tom_masks.popleft()
            state.hypotheses = None

    # -- feature pass -----------------------------------------------------

    def correlate(self, actor_id: str, step: int, deviations: Sequence[float],
                  role_volumes: Mapping[str, float]) -> _Row:
        """One actor's evidence at one step for every requested variant,
        all but the ML-anomaly item, which reads each cell's own scorer.
        Nothing here depends on theta or trust.

        ``deviations`` are the actor's EWMA deviations in EWMA_METRICS
        order. ``role_volumes`` maps the actor and its role peers to their
        peer volumes; only gating variants read it.
        """
        state = self.actors[actor_id]
        summary = state.summary
        rules_seen: dict[str, int] = {}
        for s, hits in state.policy_cache:
            for rule in hits:
                rules_seen.setdefault(rule, s)
        policy = [Evidence(kind=EvidenceKind.POLICY_VIOLATION,
                           weight=W_POLICY, step=s, detail=rule)
                  for rule, s in sorted(rules_seen.items())]

        # Only the strongest metric contributes: one behavioral anomaly score
        # per actor, not one per metric; the first one on a tie.
        dev = max(deviations)
        top_metric = EWMA_METRICS[deviations.index(dev)]
        reg_mult = 1.0
        if self.variant.gating and dev >= D_MIN:
            reg_mult = regularity_suppression(summary.export_steps)

        window_evidence = []
        if summary.suspicious_logins:
            first_step, context = summary.suspicious_logins[0]
            window_evidence.append(Evidence(
                kind=EvidenceKind.AFTER_HOURS_LOGIN,
                weight=W_SUSPICIOUS_LOGIN, step=first_step,
                detail=context))
        staging_count = len(summary.staging_export_steps)
        if staging_count >= STAGING_MIN:
            window_evidence.append(Evidence(
                kind=EvidenceKind.STAGING_PATTERN, weight=W_STAGING,
                step=step, detail=f"count={staging_count}"))

        top_phish = {pt: max(probs[pt] for _, probs in state.phishing)
                     for pt in self._phish_kinds} if state.phishing else {}
        # ToM evidence by gating: gating variants drop contradicted ones.
        # Greedy matching starts at the first event, so an eviction can move
        # it: the hypotheses are reused only while the ToM deque is unchanged.
        intent = {}
        if self.variant.forensics and state.tom:
            if state.hypotheses is None:
                hyps = tom.abduce(state.tom, state.tom_masks, self.library)
                state.hypotheses = {gating: [
                    h for h in hyps if not tom.check_contradiction(
                        h, hyps, state.spec.compliance)] if gating else hyps
                    for gating in self._tom_kinds}
            intent = {gating: tom.tom_evidence(live, step)
                      for gating, live in state.hypotheses.items()}
        peer = []
        # Peer volumes are int sums >= 0, so are their median and MAD, and
        # z <= volume / PEER_EPS: below PEER_Z_MIN * PEER_EPS, z < PEER_Z_MIN.
        if self.variant.gating \
                and role_volumes[actor_id] >= PEER_Z_MIN * PEER_EPS:
            peers = [v for other, v in role_volumes.items() if other != actor_id]
            peer_ev = peer_normalize(role_volumes[actor_id], peers, step)
            peer = [peer_ev] if peer_ev is not None else []

        features = {}
        for v in self.variants:
            # Risk is summed in this append order, and float addition is not
            # associative: policy, baseline, login, staging, forensics, ToM.
            evidence = list(policy)
            if dev >= D_MIN:
                weight = min(W_BASELINE * dev, BASELINE_CAP) * (
                    reg_mult if v.gating else 1.0)
                evidence.append(Evidence(
                    kind=EvidenceKind.BASELINE_DEVIATION, weight=weight,
                    step=step, detail=top_metric))
            evidence += window_evidence
            top = top_phish.get(v.pretrained_model) if v.forensics else None
            flagged = top is not None and top >= PHISHING_THRESHOLD
            if flagged:
                evidence.append(Evidence(
                    kind=EvidenceKind.FORENSICS_FLAG, weight=W_FORENSICS,
                    step=step, detail=f"max_phish={top:.3f}"))
            tom_ev = intent.get(v.gating) if v.forensics else None
            if tom_ev is not None:
                evidence.append(tom_ev)
            x = scorer_features(summary, flagged, tom_ev is not None)
            features[v.variant] = (evidence, x, peer if v.gating else [])
        forest = self.forests.get(state.spec.role) if state.window else None
        return _Row(actor_id, step, state.spec.compliance, features, summary,
                    forest)

    def features(self, events: Sequence[Event], total_steps: int,
                 warmup_steps: int) -> Iterator[tuple[int, list[_Row]]]:
        """Phase 1, with no truth in it: (step, rows) for each post-warm-up
        step, one row per actor in sorted order, valid until the next step
        is asked for. Each step ingests, evicts and updates the baselines
        once; the first of them fits self.scorer and the role forests."""
        by_step: dict[int, list[Event]] = {}
        for e in events:
            if e.actor_id not in self.actors:
                raise ValueError(f"event at step {e.step}: actor "
                                 f"{e.actor_id!r} is not in the roster")
            if not 0 <= e.step < total_steps:
                raise ValueError(f"event at step {e.step}: outside the "
                                 f"log's steps 0..{total_steps - 1}")
            by_step.setdefault(e.step, []).append(e)
        states = [self.actors[a] for a in sorted(self.actors)]
        warmup_samples: list[tuple[float, ...]] = []
        warmup_vectors: dict[Role, list[tuple[float, ...]]] = {}

        # The baselines of every actor (rows, in states order) and metric
        # (columns, in EWMA_METRICS order), updated once per step.
        baselines = EwmaState(mean=np.zeros((len(states), 3)),
                              var=np.zeros((len(states), 3)))
        # Count rates over a window of W steps scatter like Poisson counts,
        # so their variance is at least mean / W even when the smoothed
        # variance has collapsed; export volume scales that by a typical
        # export size.
        floor_scale = np.array([1.0, 1.0, EWMA_VOL_SCALE])

        for step in range(total_steps):
            for e in by_step.get(step, ()):
                self._ingest(self.actors[e.actor_id], e,
                             step > warmup_steps - WINDOW)
            for state in states:
                self._evict(state, step)
            rates = np.array([(s.logins, s.queries, s.export_volume) for s in (
                state.summary for state in states)],
                dtype=float).reshape(-1, 3) / WINDOW
            eps = EWMA_EPS + np.maximum(0.0, baselines.mean) / WINDOW \
                * floor_scale
            baselines, deviations = ewma_update(baselines, rates, eps)

            if step < warmup_steps:
                if step % SAMPLE_EVERY == 0 and step > 0:
                    for state in states:
                        warmup_samples.append(
                            scorer_features(state.summary, False, False))
                        if state.window:
                            warmup_vectors.setdefault(
                                state.spec.role, []).append(
                                    anomaly.behavior_vector(state.summary))
                continue
            if step == warmup_steps:
                self.scorer = OnlineScorer()
                self.scorer.warmup_fit(warmup_samples,
                                       [0] * len(warmup_samples))
                for role, vectors in sorted(warmup_vectors.items()):
                    if len(vectors) >= 2:
                        # Fitted when a decision first reads its score.
                        self.forests[role] = cache(partial(
                            anomaly.IsoForest.fit, vectors, seed=substream(
                                self.seed, "forest", role.value).next_u64()
                            & 0x7FFFFFFF))

            volumes_by_role: dict[Role, dict[str, float]] = {}
            if self.variant.gating:
                for state in states:
                    volumes_by_role.setdefault(state.spec.role, {})[
                        state.spec.actor_id] = state.summary.peer_volume
            yield step, [self.correlate(
                state.spec.actor_id, step, devs,
                volumes_by_role.get(state.spec.role, {}))
                for state, devs in zip(states, deviations.tolist())]

    def run(self, events: Sequence[Event], total_steps: int,
            warmup_steps: int,
            feedback: Callable[[str], bool]) -> list[list[Alert]]:
        """Each cell's alerts, in the order the cells were given: phase 2
        decides each step's rows, cell by cell, in actor order, so a cell's
        one scorer learns as it goes. ``feedback(actor_id)``, the analyst's
        label for a confirmed alert, is the only way truth reaches the engine.
        """
        cells: list[_Cell] = []
        for _, rows in self.features(events, total_steps, warmup_steps):
            if not cells:   # each cell takes its copy of the warm-up fit
                cells = [_Cell(c, copy.deepcopy(self.scorer))
                         for c in self.cells]
            for cell in cells:
                for row in rows:
                    cell.decide(row, feedback)
        return [cell.alerts for cell in cells] or [[] for _ in self.cells]
