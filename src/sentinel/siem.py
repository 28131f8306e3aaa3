"""Layered correlation engine.

Every variant shares one core: policy rules, EWMA behavior baselines,
trust-adaptive thresholds, an online logistic scorer, and weak ML advice
from an isolation forest. The variant name alone decides which layers stack
on top (see VariantConfig): CE adds intent (ToM) and email forensics
evidence; EG adds the precision layers: evidence gating, peer normalization,
regularity suppression, contradiction checking, and the compliance override.

Each actor's window is read once per step, by summarize(); every layer reads
the resulting WindowSummary instead of the events.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Mapping, Optional, Sequence

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


def variant_config(name: str, theta_base: float = 4.0) -> VariantConfig:
    return VariantConfig(Variant(name), theta_base)


@dataclass(frozen=True)
class DetectorConfig:
    window: int = 20
    chain_window: int = 10
    theta_slope: float = 2.0
    early_fraction: float = 0.6
    ewma_alpha: float = 0.05
    ewma_eps: float = 1e-6
    ewma_vol_scale: float = 300.0   # typical export size for the variance floor
    d_min: float = 1.3
    w_baseline: float = 1.5
    baseline_cap: float = 2.2
    w_policy: float = 2.0
    w_scorer: float = 2.0
    scorer_gate: float = 0.6
    scorer_cap: float = 0.4
    scorer_online_lr: float = 0.1
    w_forensics: float = 2.0
    phishing_threshold: float = 0.7
    w_suspicious_login: float = 0.4
    w_staging: float = 1.5
    staging_min: int = 3        # exports needed for staging_pattern evidence
    gate_staging_min: int = 2   # exports needed for the StagingActivity gate
    peer_z_min: float = 2.5
    w_peer: float = 0.5
    peer_cap: float = 1.0
    peer_eps: float = 300.0
    peer_min_group: int = 3
    cv_min: float = 0.25
    m_reg: float = 0.5
    regularity_min_events: int = 3
    trust_init: float = 0.7
    trust_lo: float = 0.10
    trust_hi: float = 0.95
    trust_delta_tp: float = -0.15
    trust_delta_fp: float = 0.05
    trust_decay: float = 0.01
    iforest_psi: int = 64
    iforest_trees: int = 50
    sample_every: int = 5
    tom_config: tom.TomConfig = field(default_factory=tom.TomConfig)
    ml_config: anomaly.MlAdviceConfig = field(default_factory=anomaly.MlAdviceConfig)


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

@dataclass(frozen=True)
class EwmaState:
    mean: float = 0.0
    var: float = 0.0
    alpha: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.var < 0:
            raise ValueError("variance must be >= 0")


def ewma_update(state: EwmaState, x: float,
                eps: float = 1e-6) -> tuple[EwmaState, float]:
    """One observation: deviation against the old state, then the update."""
    deviation = max(0.0, (x - state.mean) / math.sqrt(state.var + eps))
    a = state.alpha
    mean = (1.0 - a) * state.mean + a * x
    var = (1.0 - a) * (state.var + a * (x - state.mean) ** 2)
    return EwmaState(mean=mean, var=var, alpha=a), deviation


# ---------------------------------------------------------------------------
# Trust

@dataclass(frozen=True)
class TrustState:
    trust: float = 0.7


def thresholds(trust: float, theta_base: float, theta_slope: float,
               early_fraction: float) -> tuple[float, float]:
    theta_confirm = theta_base + theta_slope * (trust - 0.5)
    return early_fraction * theta_confirm, theta_confirm


def update_trust(state: TrustState, outcome: str,
                 config: DetectorConfig = DetectorConfig()) -> TrustState:
    """Apply one trust outcome; always clamped to the configured bounds."""
    t = state.trust
    if outcome == "true_positive":
        t += config.trust_delta_tp
    elif outcome == "false_positive":
        t += config.trust_delta_fp
    elif outcome == "decay_tick":
        if t > config.trust_init:
            t = max(config.trust_init, t - config.trust_decay)
        elif t < config.trust_init:
            t = min(config.trust_init, t + config.trust_decay)
    else:
        raise ValueError(f"unknown trust outcome {outcome!r}")
    t = min(config.trust_hi, max(config.trust_lo, t))
    return TrustState(trust=t)


# ---------------------------------------------------------------------------
# Window summary

@dataclass
class WindowSummary:
    """What the layers read from one actor's window; step lists keep window
    order."""
    logins: int = 0
    suspicious_logins: list = field(default_factory=list)   # (step, context)
    queries: int = 0
    sensitive_steps: list = field(default_factory=list)
    export_steps: list = field(default_factory=list)
    export_volumes: list = field(default_factory=list)
    export_volume: float = 0.0   # the volumes summed as floats, in order
    large_exports: int = 0
    external_export_steps: list = field(default_factory=list)
    staging_export_steps: list = field(default_factory=list)
    external_emails: int = 0
    unapproved_email_steps: list = field(default_factory=list)

    @property
    def peer_volume(self) -> float:
        """Window export volume with the two largest exports removed.

        Lone spikes are already covered by policy and baseline evidence;
        peer comparison looks for sustained multi-export volume, so it stays
        robust to one-off events.
        """
        return float(sum(sorted(self.export_volumes)[:-2]))


def summarize(window: Sequence[Event],
              approved_domains: frozenset[str]) -> WindowSummary:
    """One pass over a window, holding every payload rule: which logins are
    suspicious, which accesses sensitive, which exports large, staged or
    external, and which emails go outside the approved partner list."""
    s = WindowSummary()
    for e in window:
        p = e.payload
        if e.kind is ActionKind.LOGIN:
            s.logins += 1
            if p["context"] != "normal":
                s.suspicious_logins.append((e.step, p["context"]))
        elif e.kind in (ActionKind.DB_QUERY, ActionKind.FILE_ACCESS):
            s.queries += 1
            if p["sensitivity"] == "sensitive":
                s.sensitive_steps.append(e.step)
        elif e.kind is ActionKind.FILE_EXPORT:
            s.export_steps.append(e.step)
            s.export_volumes.append(p["volume"])
            s.export_volume += p["volume"]
            if p["volume"] >= 1000:
                s.large_exports += 1
            if p["destination"] == "external":
                s.external_export_steps.append(e.step)
            elif p["destination"] == "staging":
                s.staging_export_steps.append(e.step)
        elif p["recipient_domain"] == "external":
            s.external_emails += 1
            # Routine partner mail is not an exfiltration endpoint.
            if p["recipient"] not in approved_domains:
                s.unapproved_email_steps.append(e.step)
    return s


# ---------------------------------------------------------------------------
# EG layers

def regularity_suppression(export_steps: Sequence[int], cv_min: float = 0.25,
                           m_reg: float = 0.5, min_events: int = 3) -> float:
    """Multiplier for baseline weights when exports follow a regular beat."""
    steps = sorted(export_steps)
    if len(steps) < min_events:
        return 1.0
    gaps = [b - a for a, b in zip(steps, steps[1:])]
    mean = sum(gaps) / len(gaps)
    if mean == 0:
        return 1.0
    var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
    cv = math.sqrt(var) / mean
    return m_reg if cv < cv_min else 1.0


def peer_normalize(actor_volume: float, peer_volumes: Sequence[float], step: int,
                   config: DetectorConfig = DetectorConfig()) -> Optional[Evidence]:
    """Robust z of the actor's window export volume against role peers."""
    if len(peer_volumes) < config.peer_min_group:
        return None
    ordered = sorted(peer_volumes)
    n = len(ordered)
    median = (ordered[n // 2] if n % 2 else
              0.5 * (ordered[n // 2 - 1] + ordered[n // 2]))
    deviations = sorted(abs(v - median) for v in ordered)
    mad = (deviations[n // 2] if n % 2 else
           0.5 * (deviations[n // 2 - 1] + deviations[n // 2]))
    z = (actor_volume - median) / (mad + config.peer_eps)
    if z < config.peer_z_min:
        return None
    return Evidence(kind=EvidenceKind.PEER_EXPORT_OUTLIER,
                    weight=min(config.w_peer * z, config.peer_cap),
                    step=step, detail=f"z={z:.2f}")


# ---------------------------------------------------------------------------
# Online scorer

SCORER_FEATURES = ("recent_email", "after_hours_login", "large_export",
                   "sensitive_access", "external_destination", "staging_export",
                   "forensics_flag", "tom_intent")


class OnlineScorer:
    """Logistic model over binary anchor features; benign warmup batch first,
    then one gradient step per analyst-labeled alert."""

    def __init__(self, lr: float = 0.1, l2: float = 1e-3):
        self.weights = [0.0] * len(SCORER_FEATURES)
        self.bias = 0.0
        self.lr = lr
        self.l2 = l2
        self.trained = False

    def predict(self, x: Sequence[float]) -> float:
        z = self.bias + sum(w * v for w, v in zip(self.weights, x))
        z = max(-30.0, min(30.0, z))
        return 1.0 / (1.0 + math.exp(-z))

    def _step(self, x: Sequence[float], label: int, lr: float) -> None:
        err = self.predict(x) - label
        for i, v in enumerate(x):
            self.weights[i] -= lr * (err * v + self.l2 * self.weights[i])
        self.bias -= lr * err

    def warmup_fit(self, samples: Sequence[Sequence[float]],
                   labels: Sequence[int], epochs: int = 20,
                   lr: float = 0.5) -> None:
        for _ in range(epochs):
            for x, y in zip(samples, labels):
                self._step(x, y, lr)
        self.trained = True

    def update(self, x: Sequence[float], label: int) -> None:
        if not self.trained:
            raise RuntimeError("online update before warmup training")
        self._step(x, label, self.lr)


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

# Event kinds each gate is triggered by, for the compliance override check.
_GATE_TRIGGER_KINDS = {
    GATE_TIGHT_CHAIN: frozenset({ActionKind.DB_QUERY, ActionKind.FILE_ACCESS,
                                 ActionKind.FILE_EXPORT, ActionKind.EMAIL_SEND}),
    GATE_STAGING: frozenset({ActionKind.FILE_EXPORT}),
    GATE_LOGIN_CONTEXT: frozenset({ActionKind.LOGIN, ActionKind.DB_QUERY,
                                   ActionKind.FILE_ACCESS}),
    GATE_EXCESS: frozenset(),  # no specific trigger actions
}


def satisfied_gates(summary: WindowSummary, evidence: Sequence[Evidence],
                    chain_window: int, staging_min: int = 2) -> tuple[str, ...]:
    """EG escalation gates over the current window."""
    gates = []
    sensitive = summary.sensitive_steps
    external, staged = summary.external_export_steps, summary.staging_export_steps
    if any(s <= x <= m and m - s <= chain_window
           for s in sensitive for x in external
           for m in summary.unapproved_email_steps if x <= m):
        gates.append(GATE_TIGHT_CHAIN)
    if len(staged) >= staging_min and external \
            and sorted(staged)[staging_min - 1] <= max(external):
        gates.append(GATE_STAGING)
    if any(l <= s <= l + chain_window
           for l, _ in summary.suspicious_logins for s in sensitive):
        gates.append(GATE_LOGIN_CONTEXT)
    if len({e.kind for e in evidence}) >= 4:
        gates.append(GATE_EXCESS)
    return tuple(gates)


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

@dataclass
class _ActorState:
    spec: ActorSpec
    window: deque = field(default_factory=deque)
    ewma: dict = field(default_factory=dict)
    trust: TrustState = field(default_factory=TrustState)
    policy_cache: deque = field(default_factory=deque)   # (step, rule ids)
    phishing: deque = field(default_factory=deque)       # (step, prob)


class SiemEngine:
    """Runs one variant over one event log; see run()."""

    def __init__(self, variant: VariantConfig, roster: Sequence[ActorSpec],
                 malicious_actors: Sequence[str], seed: int,
                 model: Optional[forensics.PretrainedModel] = None):
        if variant.pretrained_model and model is None:
            raise ValueError("EG_SIEM_PT requires a pretrained forensics model")
        self.variant = variant
        self.config = DetectorConfig()
        self.rules = PolicyRules.bundled()
        self.library = tom.PlanLibrary.bundled()
        self.model = model
        self.seed = seed
        self.malicious = frozenset(malicious_actors)
        self.actors = {
            a.actor_id: _ActorState(
                spec=a,
                ewma={m: EwmaState(alpha=self.config.ewma_alpha)
                      for m in EWMA_METRICS},
                trust=TrustState(trust=self.config.trust_init),
            )
            for a in roster
        }
        self.scorer = OnlineScorer(lr=self.config.scorer_online_lr)
        self.forests: dict[Role, anomaly.IsoForest] = {}
        self._warmup_samples: list[tuple[float, ...]] = []
        self._warmup_vectors: dict[Role, list[tuple[float, ...]]] = {}

    # -- helpers ----------------------------------------------------------

    def _phish_prob(self, body: str) -> float:
        if self.variant.pretrained_model:
            return self.model.phishing_prob(body)
        return forensics.keyword_phishing_score(body)

    def _ingest(self, state: _ActorState, event: Event) -> None:
        state.window.append(event)
        hits = self.rules.rule_hits(event, state.spec.role)
        if hits:
            state.policy_cache.append((event.step, hits))
        if self.variant.forensics and event.kind is ActionKind.EMAIL_SEND:
            state.phishing.append((event.step, self._phish_prob(
                event.payload["body"])))

    def _evict(self, state: _ActorState, now: int) -> None:
        horizon = now - self.config.window
        while state.window and state.window[0].step <= horizon:
            state.window.popleft()
        while state.policy_cache and state.policy_cache[0][0] <= horizon:
            state.policy_cache.popleft()
        while state.phishing and state.phishing[0][0] <= horizon:
            state.phishing.popleft()

    def _metric_eps(self, metric: str, mean: float) -> float:
        """Variance floor for a windowed rate.

        Count rates over a window of W steps scatter like Poisson counts, so
        their variance is at least mean / W even when the smoothed EWMA
        variance has collapsed; export volume scales that by a typical
        export size.
        """
        w = float(self.config.window)
        floor = max(0.0, mean) / w
        if metric == "export_volume":
            floor *= self.config.ewma_vol_scale
        return self.config.ewma_eps + floor

    # -- correlation ------------------------------------------------------

    def correlate(self, actor_id: str, step: int, summary: WindowSummary,
                  deviations: Mapping[str, float], theta_confirm: float,
                  role_volumes: Mapping[str, float]) -> tuple[
                      float, tuple[Evidence, ...], tuple[str, ...],
                      tuple[float, ...]]:
        """Assemble the evidence set and risk for one actor at one step.

        ``role_volumes`` maps the actor and its role peers to their peer
        volumes; only gating variants read it. Returns (risk after ML
        advice, evidence, satisfied gates, scorer features).
        """
        cfg = self.config
        state = self.actors[actor_id]
        gating = self.variant.gating
        evidence: list[Evidence] = []

        rules_seen: dict[str, int] = {}
        for s, hits in state.policy_cache:
            for rule in hits:
                rules_seen.setdefault(rule, s)
        for rule, s in sorted(rules_seen.items()):
            evidence.append(Evidence(kind=EvidenceKind.POLICY_VIOLATION,
                                     weight=cfg.w_policy, step=s, detail=rule))

        reg_mult = 1.0
        if gating:
            reg_mult = regularity_suppression(
                summary.export_steps, cfg.cv_min, cfg.m_reg,
                cfg.regularity_min_events)
        # Only the strongest metric contributes: one behavioral anomaly score
        # per actor, not one per metric.
        top_metric = max(EWMA_METRICS, key=lambda m: deviations[m])
        dev = deviations[top_metric]
        if dev >= cfg.d_min:
            weight = min(cfg.w_baseline * dev, cfg.baseline_cap) * reg_mult
            evidence.append(Evidence(kind=EvidenceKind.BASELINE_DEVIATION,
                                     weight=weight, step=step, detail=top_metric))

        if summary.suspicious_logins:
            first_step, context = summary.suspicious_logins[0]
            evidence.append(Evidence(kind=EvidenceKind.AFTER_HOURS_LOGIN,
                                     weight=cfg.w_suspicious_login,
                                     step=first_step, detail=context))

        staging_count = len(summary.staging_export_steps)
        if staging_count >= cfg.staging_min:
            evidence.append(Evidence(kind=EvidenceKind.STAGING_PATTERN,
                                     weight=cfg.w_staging, step=step,
                                     detail=f"count={staging_count}"))

        forensics_flag = False
        if self.variant.forensics and state.phishing:
            top = max(p for _, p in state.phishing)
            if top >= cfg.phishing_threshold:
                forensics_flag = True
                evidence.append(Evidence(kind=EvidenceKind.FORENSICS_FLAG,
                                         weight=cfg.w_forensics, step=step,
                                         detail=f"max_phish={top:.3f}"))

        tom_ev = None
        if self.variant.forensics and state.window:
            hyps = tom.abduce(list(state.window), self.library, cfg.tom_config,
                              self.rules.approved_email_domains)
            if gating:
                context = tom.ActorContext(
                    compliance_approval=state.spec.compliance,
                    benign_hypotheses=tuple(h for h in hyps if not h.malicious),
                )
                hyps = [tom.check_contradiction(h, context) for h in hyps]
            tom_ev = tom.tom_evidence(hyps, step, cfg.tom_config)
            if tom_ev is not None:
                evidence.append(tom_ev)

        # run() fits the scorer before the first post-warm-up step.
        x = scorer_features(summary, forensics_flag, tom_ev is not None)
        p = self.scorer.predict(x)
        if p >= cfg.scorer_gate:
            evidence.append(Evidence(
                kind=EvidenceKind.ML_ANOMALY,
                weight=min(cfg.w_scorer * (p - 0.5), cfg.scorer_cap),
                step=step, detail=f"p={p:.3f}"))

        if gating:
            peers = [v for other, v in role_volumes.items() if other != actor_id]
            peer_ev = peer_normalize(role_volumes[actor_id], peers, step, cfg)
            if peer_ev is not None:
                evidence.append(peer_ev)

        risk = sum(e.weight for e in evidence)
        if (self.forests.get(state.spec.role) is not None and state.window
                and risk >= cfg.ml_config.band * theta_confirm):
            score = self.forests[state.spec.role].score(
                anomaly.behavior_vector(summary))
            risk = anomaly.ml_advice(score, risk, theta_confirm, cfg.ml_config)

        gates = ()
        if gating:
            gates = satisfied_gates(summary, evidence, cfg.chain_window,
                                    cfg.gate_staging_min)
        evidence.sort(key=lambda e: (e.kind.value, e.step, e.detail))
        return risk, tuple(evidence), gates, x

    # -- main loop --------------------------------------------------------

    def run(self, events: Sequence[Event], total_steps: int,
            warmup_steps: int) -> list[Alert]:
        cfg = self.config
        by_step: dict[int, list[Event]] = {}
        for e in events:
            if e.actor_id not in self.actors:
                raise ValueError(f"event at step {e.step}: actor "
                                 f"{e.actor_id!r} is not in the roster")
            if not 0 <= e.step < total_steps:
                raise ValueError(f"event at step {e.step}: outside the "
                                 f"log's steps 0..{total_steps - 1}")
            by_step.setdefault(e.step, []).append(e)
        actor_ids = sorted(self.actors)
        w = float(cfg.window)
        alerts: list[Alert] = []

        for step in range(total_steps):
            for e in by_step.get(step, ()):
                self._ingest(self.actors[e.actor_id], e)
            summaries: dict[str, WindowSummary] = {}
            deviations: dict[str, dict[str, float]] = {}
            for actor_id in actor_ids:
                state = self.actors[actor_id]
                self._evict(state, step)
                summary = summaries[actor_id] = summarize(
                    state.window, self.rules.approved_email_domains)
                rates = {"login_rate": summary.logins / w,
                         "query_rate": summary.queries / w,
                         "export_volume": summary.export_volume / w}
                devs = {}
                for metric in EWMA_METRICS:
                    eps = self._metric_eps(metric, state.ewma[metric].mean)
                    state.ewma[metric], devs[metric] = ewma_update(
                        state.ewma[metric], rates[metric], eps)
                deviations[actor_id] = devs

            if step < warmup_steps:
                if step % cfg.sample_every == 0 and step > 0:
                    for actor_id in actor_ids:
                        state = self.actors[actor_id]
                        self._warmup_samples.append(
                            scorer_features(summaries[actor_id], False, False))
                        if state.window:
                            self._warmup_vectors.setdefault(
                                state.spec.role, []).append(
                                    anomaly.behavior_vector(summaries[actor_id]))
                continue
            if step == warmup_steps:
                self.scorer.warmup_fit(self._warmup_samples,
                                       [0] * len(self._warmup_samples))
                for role, vectors in sorted(self._warmup_vectors.items()):
                    if len(vectors) >= 2:
                        self.forests[role] = anomaly.IsoForest.fit(
                            vectors, seed=substream(
                                self.seed, "forest", role.value).next_u64()
                            & 0x7FFFFFFF,
                            psi=cfg.iforest_psi, t=cfg.iforest_trees)

            volumes_by_role: dict[Role, dict[str, float]] = {}
            if self.variant.gating:
                for actor_id in actor_ids:
                    volumes_by_role.setdefault(
                        self.actors[actor_id].spec.role, {})[actor_id] = \
                        summaries[actor_id].peer_volume

            for actor_id in actor_ids:
                state = self.actors[actor_id]
                state.trust = update_trust(state.trust, "decay_tick", cfg)
                theta_early, theta_confirm = thresholds(
                    state.trust.trust, self.variant.theta_base,
                    cfg.theta_slope, cfg.early_fraction)
                risk, evidence, gates, x = self.correlate(
                    actor_id, step, summaries[actor_id], deviations[actor_id],
                    theta_confirm, volumes_by_role.get(state.spec.role, {}))
                if not evidence:
                    continue
                tom_assisted = any(e.kind is EvidenceKind.TOM_INTENT
                                   for e in evidence)
                confirmed = gate_confirm(risk, evidence, theta_confirm, gates,
                                         self.variant.gating,
                                         state.spec.compliance)
                if confirmed:
                    alerts.append(Alert(tier="confirmed", actor_id=actor_id,
                                        step=step, score=risk,
                                        evidence=evidence,
                                        tom_assisted=tom_assisted,
                                        gates=gates))
                    label = 1 if actor_id in self.malicious else 0
                    outcome = "true_positive" if label else "false_positive"
                    state.trust = update_trust(state.trust, outcome, cfg)
                    self.scorer.update(x, label)
                elif risk >= theta_early:
                    alerts.append(Alert(tier="early", actor_id=actor_id,
                                        step=step, score=risk,
                                        evidence=evidence,
                                        tom_assisted=tom_assisted))
        return alerts


def run_detection(events: Sequence[Event], roster: Sequence[ActorSpec],
                  malicious_actors: Sequence[str], variant: VariantConfig,
                  seed: int, total_steps: int, warmup_steps: int,
                  model: Optional[forensics.PretrainedModel] = None) -> list[Alert]:
    """Convenience wrapper: build an engine and run it over one log."""
    engine = SiemEngine(variant, roster, malicious_actors, seed, model=model)
    return engine.run(events, total_steps, warmup_steps)
