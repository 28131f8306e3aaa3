"""Frozen reference engine for differential tests.

A verbatim copy of the correlation engine (``siem``) and of the
isolation-forest module (``anomaly``) as they stood before the engine read
each window through one summary. It is deliberately slow and is never
optimised: ``test_engine_differential`` runs it beside ``sentinel.siem`` and
requires byte-identical alert logs. The only edit is that the engine calls
the copied anomaly functions directly instead of through ``anomaly.``.

From ``sentinel`` it imports only the event and alert types, the RNG and the
actor roster type; its ToM and keyword-scoring layers are the frozen copies
in ``oracle_layers``, which passes ``sentinel.forensics.PretrainedModel``
through.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Mapping, Optional, Sequence

import oracle_layers as forensics, oracle_layers as tom
from sentinel.events import (ActionKind, Alert, Event, Evidence, EvidenceKind,
                             Role)
from sentinel.rng import substream
from sentinel.simkit import ActorSpec


# ---------------------------------------------------------------------------
# Isolation forest (the ``anomaly`` module)

def behavior_vector(window: Sequence[Event]) -> tuple[float, ...]:
    """Aggregate one actor's window into a fixed-order count/sum vector:
    (logins, after-hours logins, db queries, sensitive accesses, exports,
    export volume, external emails)."""
    logins = after_hours = queries = sensitive = exports = volume = ext_mail = 0
    for e in window:
        if e.kind is ActionKind.LOGIN:
            logins += 1
            if e.payload["context"] in ("after_hours", "new_location"):
                after_hours += 1
        elif e.kind in (ActionKind.DB_QUERY, ActionKind.FILE_ACCESS):
            queries += 1
            if e.payload["sensitivity"] == "sensitive":
                sensitive += 1
        elif e.kind is ActionKind.FILE_EXPORT:
            exports += 1
            volume += e.payload["volume"]
        elif e.kind is ActionKind.EMAIL_SEND:
            if e.payload["recipient_domain"] == "external":
                ext_mail += 1
    return (float(logins), float(after_hours), float(queries), float(sensitive),
            float(exports), float(volume), float(ext_mail))


def harmonic(n: int) -> float:
    return sum(1.0 / k for k in range(1, n + 1))


@lru_cache(maxsize=None)
def average_path_length(n: int) -> float:
    """c(n): expected unsuccessful-search path length in a BST of n points."""
    if n <= 1:
        return 0.0
    return 2.0 * harmonic(n - 1) - 2.0 * (n - 1) / n


class IsoForest:
    """Ensemble of seeded random partition trees; score in (0, 1)."""

    def __init__(self, trees: list[dict], psi: int, dimension: int):
        self.trees = trees
        self.psi = psi
        self.dimension = dimension

    @classmethod
    def fit(cls, vectors: Sequence[Sequence[float]], seed: int,
            psi: int = 64, t: int = 50) -> "IsoForest":
        vectors = [tuple(float(x) for x in v) for v in vectors]
        if len(vectors) < 2:
            raise ValueError("need at least 2 vectors to fit a forest")
        dims = {len(v) for v in vectors}
        if len(dims) != 1:
            raise ValueError("inconsistent vector dimensions")
        dimension = dims.pop()
        psi_eff = min(psi, len(vectors))
        depth_limit = max(1, math.ceil(math.log2(psi_eff)))
        rng = substream(seed, "isoforest")
        trees = []
        for _ in range(t):
            idx = list(range(len(vectors)))
            rng.shuffle(idx)
            sample = [vectors[i] for i in idx[:psi_eff]]
            trees.append(_build_tree(sample, rng, 0, depth_limit))
        return cls(trees, psi_eff, dimension)

    def path_length(self, v: Sequence[float], tree: dict) -> float:
        depth = 0
        node = tree
        while "leaf" not in node:
            node = node["left"] if v[node["dim"]] < node["split"] else node["right"]
            depth += 1
        # A query that differs from a pure point-mass leaf is separable from
        # the whole mass, i.e. effectively isolated at this depth.
        if "value" in node and list(v) != node["value"]:
            return float(depth)
        return depth + average_path_length(node["leaf"])

    def score(self, v: Sequence[float]) -> float:
        if len(v) != self.dimension:
            raise ValueError(
                f"vector dimension {len(v)} != forest dimension {self.dimension}"
            )
        mean_path = sum(self.path_length(v, t) for t in self.trees) / len(self.trees)
        return 2.0 ** (-mean_path / average_path_length(self.psi))


def _leaf(sample: list[tuple[float, ...]]) -> dict:
    node = {"leaf": len(sample)}
    if len(sample) > 1 and all(s == sample[0] for s in sample):
        node["value"] = list(sample[0])
    return node


def _build_tree(sample: list[tuple[float, ...]], rng, depth: int, limit: int) -> dict:
    if len(sample) <= 1 or depth >= limit:
        return _leaf(sample)
    splittable = [d for d in range(len(sample[0]))
                  if min(s[d] for s in sample) < max(s[d] for s in sample)]
    if not splittable:
        return _leaf(sample)
    dim = splittable[rng.randint(0, len(splittable) - 1)]
    lo = min(s[dim] for s in sample)
    hi = max(s[dim] for s in sample)
    split = lo + (hi - lo) * rng.random()
    left = [s for s in sample if s[dim] < split]
    right = [s for s in sample if s[dim] >= split]
    if not left or not right:  # degenerate cut at the boundary
        return _leaf(sample)
    return {"dim": dim, "split": split,
            "left": _build_tree(left, rng, depth + 1, limit),
            "right": _build_tree(right, rng, depth + 1, limit)}


@dataclass(frozen=True)
class MlAdviceConfig:
    weight: float = 0.5
    score_floor: float = 0.5   # forest scores below this are ignored
    band: float = 0.8          # advice applies only when risk >= band * threshold


def ml_advice(score: float, risk: float, theta_confirm: float,
              config: MlAdviceConfig = MlAdviceConfig()) -> float:
    """Nudge a near-threshold risk upward using the anomaly score.

    Never lowers risk; never fires below the near-threshold band; the nudge
    is capped so ML advice alone cannot bridge more than
    (1 - band) * theta_confirm.
    """
    if risk < config.band * theta_confirm:
        return risk
    bump = config.weight * max(0.0, score - config.score_floor)
    return risk + min(bump, (1.0 - config.band) * theta_confirm)


# ---------------------------------------------------------------------------
# Correlation engine (the ``siem`` module)

EWMA_METRICS = ("login_rate", "query_rate", "export_volume")


class Variant(str, Enum):
    LSC = "lsc"
    CE_SIEM = "ce"
    EG_SIEM = "eg"
    EG_SIEM_PT = "eg-pt"


@dataclass(frozen=True)
class VariantConfig:
    variant: Variant
    theta_base: float = 4.0
    theta_slope: float = 2.0
    early_fraction: float = 0.6
    tom: bool = False
    forensics: bool = False
    pretrained_model: bool = False
    gating: bool = False
    peer_norm: bool = False
    regularity: bool = False
    compliance_override: bool = False

    def validate(self) -> None:
        v = self.variant
        layers = (self.tom, self.forensics, self.gating, self.peer_norm,
                  self.regularity, self.compliance_override)
        if v is Variant.LSC and any(layers):
            raise ValueError("LSC must run with every optional layer disabled")
        if v is Variant.CE_SIEM and not (self.tom and self.forensics):
            raise ValueError("CE requires the tom and forensics layers")
        if v is Variant.CE_SIEM and (self.gating or self.peer_norm
                                     or self.regularity or self.compliance_override):
            raise ValueError("CE must not enable EG precision layers")
        if v in (Variant.EG_SIEM, Variant.EG_SIEM_PT) and not all(layers):
            raise ValueError("EG variants require every layer enabled")
        if self.pretrained_model != (v is Variant.EG_SIEM_PT):
            raise ValueError("pretrained model is exactly the EG_SIEM_PT addition")


def variant_config(name: str, theta_base: float = 4.0, theta_slope: float = 2.0,
                   early_fraction: float = 0.6) -> VariantConfig:
    """Canonical per-variant layer toggles for a variant name."""
    variant = Variant(name)
    on = variant in (Variant.EG_SIEM, Variant.EG_SIEM_PT)
    cfg = VariantConfig(
        variant=variant, theta_base=theta_base, theta_slope=theta_slope,
        early_fraction=early_fraction,
        tom=variant is not Variant.LSC,
        forensics=variant is not Variant.LSC,
        pretrained_model=variant is Variant.EG_SIEM_PT,
        gating=on, peer_norm=on, regularity=on, compliance_override=on,
    )
    cfg.validate()
    return cfg


@dataclass(frozen=True)
class DetectorConfig:
    window: int = 20
    chain_window: int = 10
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
    ml_config: MlAdviceConfig = field(default_factory=MlAdviceConfig)


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
# EG layers

def regularity_suppression(window: Sequence[Event], cv_min: float = 0.25,
                           m_reg: float = 0.5, min_events: int = 3) -> float:
    """Multiplier for baseline weights when exports follow a regular beat."""
    steps = sorted(e.step for e in window if e.kind is ActionKind.FILE_EXPORT)
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


def scorer_features(window: Sequence[Event], forensics_flag: bool,
                    tom_flag: bool) -> tuple[float, ...]:
    recent_email = after_hours = large_export = sensitive = 0.0
    external_dest = staging = 0.0
    for e in window:
        p = e.payload
        if e.kind is ActionKind.EMAIL_SEND and p["recipient_domain"] == "external":
            recent_email = 1.0
        elif e.kind is ActionKind.LOGIN and p["context"] != "normal":
            after_hours = 1.0
        elif e.kind in (ActionKind.DB_QUERY, ActionKind.FILE_ACCESS):
            if p["sensitivity"] == "sensitive":
                sensitive = 1.0
        elif e.kind is ActionKind.FILE_EXPORT:
            if p["volume"] >= 1000:
                large_export = 1.0
            if p["destination"] == "external":
                external_dest = 1.0
            elif p["destination"] == "staging":
                staging = 1.0
    return (recent_email, after_hours, large_export, sensitive, external_dest,
            staging, 1.0 if forensics_flag else 0.0, 1.0 if tom_flag else 0.0)


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


def satisfied_gates(window: Sequence[Event], evidence: Sequence[Evidence],
                    approved_domains: frozenset[str], chain_window: int,
                    staging_min: int = 2) -> tuple[str, ...]:
    """EG escalation gates over the current window."""
    gates = []
    sensitive_steps = [e.step for e in window
                       if e.kind in (ActionKind.DB_QUERY, ActionKind.FILE_ACCESS)
                       and e.payload["sensitivity"] == "sensitive"]
    external_exports = [e.step for e in window
                        if e.kind is ActionKind.FILE_EXPORT
                        and e.payload["destination"] == "external"]
    staging_exports = [e.step for e in window
                      if e.kind is ActionKind.FILE_EXPORT
                      and e.payload["destination"] == "staging"]
    # "External email" in the chain sense means outside the approved partner
    # list; routine partner mail is not an exfiltration endpoint.
    unapproved_emails = [e.step for e in window
                         if e.kind is ActionKind.EMAIL_SEND
                         and e.payload["recipient_domain"] == "external"
                         and e.payload["recipient"] not in approved_domains]
    suspicious_logins = [e.step for e in window
                         if e.kind is ActionKind.LOGIN
                         and e.payload["context"] != "normal"]

    if any(s <= x <= m and m - s <= chain_window
           for s in sensitive_steps for x in external_exports
           for m in unapproved_emails if x <= m):
        gates.append(GATE_TIGHT_CHAIN)
    if len(staging_exports) >= staging_min and external_exports \
            and sorted(staging_exports)[staging_min - 1] <= max(external_exports):
        gates.append(GATE_STAGING)
    if any(l <= s <= l + chain_window
           for l in suspicious_logins for s in sensitive_steps):
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
        variant.validate()
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
        self.forests: dict[Role, IsoForest] = {}
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

    def _peer_volume(self, state: _ActorState) -> float:
        """Window export volume with the two largest exports removed.

        Lone spikes are already covered by policy and baseline evidence;
        peer comparison looks for sustained multi-export volume, so it stays
        robust to one-off events.
        """
        volumes = sorted(e.payload["volume"] for e in state.window
                         if e.kind is ActionKind.FILE_EXPORT)
        return float(sum(volumes[:-2]))

    def _window_rates(self, state: _ActorState) -> dict[str, float]:
        w = float(self.config.window)
        logins = queries = 0
        volume = 0.0
        for e in state.window:
            if e.kind is ActionKind.LOGIN:
                logins += 1
            elif e.kind in (ActionKind.DB_QUERY, ActionKind.FILE_ACCESS):
                queries += 1
            elif e.kind is ActionKind.FILE_EXPORT:
                volume += e.payload["volume"]
        return {"login_rate": logins / w, "query_rate": queries / w,
                "export_volume": volume / w}

    # -- correlation ------------------------------------------------------

    def correlate(self, actor_id: str, step: int,
                  deviations: Mapping[str, float],
                  peer_volumes: Sequence[float] = ()) -> tuple[
                      float, tuple[Evidence, ...], tuple[str, ...]]:
        """Assemble the evidence set and risk for one actor at one step.

        Returns (risk after ML advice, evidence, satisfied gates).
        """
        cfg = self.config
        state = self.actors[actor_id]
        window = list(state.window)
        evidence: list[Evidence] = []

        rules_seen: dict[str, int] = {}
        for s, hits in state.policy_cache:
            for rule in hits:
                rules_seen.setdefault(rule, s)
        for rule, s in sorted(rules_seen.items()):
            evidence.append(Evidence(kind=EvidenceKind.POLICY_VIOLATION,
                                     weight=cfg.w_policy, step=s, detail=rule))

        reg_mult = 1.0
        if self.variant.regularity:
            reg_mult = regularity_suppression(
                window, cfg.cv_min, cfg.m_reg, cfg.regularity_min_events)
        # Only the strongest metric contributes: one behavioral anomaly score
        # per actor, not one per metric.
        top_metric = max(EWMA_METRICS, key=lambda m: deviations[m])
        dev = deviations[top_metric]
        if dev >= cfg.d_min:
            weight = min(cfg.w_baseline * dev, cfg.baseline_cap) * reg_mult
            evidence.append(Evidence(kind=EvidenceKind.BASELINE_DEVIATION,
                                     weight=weight, step=step, detail=top_metric))

        suspicious = [e for e in window if e.kind is ActionKind.LOGIN
                      and e.payload["context"] != "normal"]
        if suspicious:
            evidence.append(Evidence(kind=EvidenceKind.AFTER_HOURS_LOGIN,
                                     weight=cfg.w_suspicious_login,
                                     step=suspicious[0].step,
                                     detail=suspicious[0].payload["context"]))

        staging_count = sum(1 for e in window if e.kind is ActionKind.FILE_EXPORT
                            and e.payload["destination"] == "staging")
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
        if self.variant.tom and window:
            hyps = tom.abduce(window, self.library, cfg.tom_config,
                              self.rules.approved_email_domains)
            if self.variant.compliance_override or self.variant.gating:
                context = tom.ActorContext(
                    compliance_approval=state.spec.compliance,
                    benign_hypotheses=tuple(h for h in hyps if not h.malicious),
                )
                hyps = [tom.check_contradiction(h, context) for h in hyps]
            tom_ev = tom.tom_evidence(hyps, step, cfg.tom_config)
            if tom_ev is not None:
                evidence.append(tom_ev)

        x = scorer_features(window, forensics_flag, tom_ev is not None)
        if self.scorer.trained:
            p = self.scorer.predict(x)
            if p >= cfg.scorer_gate:
                evidence.append(Evidence(
                    kind=EvidenceKind.ML_ANOMALY,
                    weight=min(cfg.w_scorer * (p - 0.5), cfg.scorer_cap),
                    step=step, detail=f"p={p:.3f}"))

        if self.variant.peer_norm:
            own = self._peer_volume(state)
            peer_ev = peer_normalize(own, peer_volumes, step, cfg)
            if peer_ev is not None:
                evidence.append(peer_ev)

        risk = sum(e.weight for e in evidence)
        _, theta_confirm = thresholds(state.trust.trust, self.variant.theta_base,
                                      self.variant.theta_slope,
                                      self.variant.early_fraction)
        if (self.forests.get(state.spec.role) is not None and window
                and risk >= cfg.ml_config.band * theta_confirm):
            score = self.forests[state.spec.role].score(
                behavior_vector(window))
            risk = ml_advice(score, risk, theta_confirm, cfg.ml_config)

        gates = ()
        if self.variant.gating:
            gates = satisfied_gates(window, evidence,
                                    self.rules.approved_email_domains,
                                    cfg.chain_window, cfg.gate_staging_min)
        evidence.sort(key=lambda e: (e.kind.value, e.step, e.detail))
        return risk, tuple(evidence), gates

    # -- main loop --------------------------------------------------------

    def run(self, events: Sequence[Event], total_steps: int,
            warmup_steps: int) -> list[Alert]:
        cfg = self.config
        by_step: dict[int, list[Event]] = {}
        for e in events:
            if e.actor_id not in self.actors:
                raise ValueError(f"event at step {e.step}: actor "
                                 f"{e.actor_id!r} is not in the roster")
            by_step.setdefault(e.step, []).append(e)
        actor_ids = sorted(self.actors)
        alerts: list[Alert] = []

        for step in range(total_steps):
            for e in by_step.get(step, ()):
                self._ingest(self.actors[e.actor_id], e)
            deviations: dict[str, dict[str, float]] = {}
            for actor_id in actor_ids:
                state = self.actors[actor_id]
                self._evict(state, step)
                rates = self._window_rates(state)
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
                        window = list(state.window)
                        self._warmup_samples.append(
                            scorer_features(window, False, False))
                        if window:
                            self._warmup_vectors.setdefault(
                                state.spec.role, []).append(
                                    behavior_vector(window))
                continue
            if step == warmup_steps:
                self.scorer.warmup_fit(self._warmup_samples,
                                       [0] * len(self._warmup_samples))
                for role, vectors in sorted(self._warmup_vectors.items()):
                    if len(vectors) >= 2:
                        self.forests[role] = IsoForest.fit(
                            vectors, seed=substream(
                                self.seed, "forest", role.value).next_u64()
                            & 0x7FFFFFFF,
                            psi=cfg.iforest_psi, t=cfg.iforest_trees)

            volumes_by_role: dict[Role, dict[str, float]] = {}
            for actor_id in actor_ids:
                state = self.actors[actor_id]
                volumes_by_role.setdefault(state.spec.role, {})[actor_id] = \
                    self._peer_volume(state)

            for actor_id in actor_ids:
                state = self.actors[actor_id]
                state.trust = update_trust(state.trust, "decay_tick", cfg)
                peers = [v for other, v in
                         sorted(volumes_by_role[state.spec.role].items())
                         if other != actor_id]
                risk, evidence, gates = self.correlate(
                    actor_id, step, deviations[actor_id], peers)
                if not evidence:
                    continue
                theta_early, theta_confirm = thresholds(
                    state.trust.trust, self.variant.theta_base,
                    self.variant.theta_slope, self.variant.early_fraction)
                tom_assisted = any(e.kind is EvidenceKind.TOM_INTENT
                                   for e in evidence)
                confirmed = gate_confirm(risk, evidence, theta_confirm, gates,
                                         self.variant.gating,
                                         state.spec.compliance
                                         and self.variant.compliance_override)
                if confirmed:
                    alerts.append(Alert(tier="confirmed", actor_id=actor_id,
                                        step=step, score=risk,
                                        evidence=evidence,
                                        tom_assisted=tom_assisted,
                                        gates=gates))
                    label = 1 if actor_id in self.malicious else 0
                    outcome = "true_positive" if label else "false_positive"
                    state.trust = update_trust(state.trust, outcome, cfg)
                    forensics_flag = any(e.kind is EvidenceKind.FORENSICS_FLAG
                                         for e in evidence)
                    self.scorer.update(
                        scorer_features(list(state.window), forensics_flag,
                                        tom_assisted), label)
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
