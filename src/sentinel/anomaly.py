"""Isolation-forest anomaly scoring over per-actor behavior vectors.

Forests are built from scratch (seeded, deterministic) so scores are
reproducible across runs and platforms. The engine fits one forest per role
on warmup windows and uses its score only as weak, capped advice on
near-threshold risk.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from .rng import substream


def behavior_vector(summary) -> tuple[float, ...]:
    """One actor's window summary (``siem.WindowSummary``) as a fixed-order
    count/sum vector: (logins, after-hours logins, db queries, sensitive
    accesses, exports, export volume, external emails)."""
    s = summary
    return (float(s.logins), float(len(s.suspicious_logins)), float(s.queries),
            float(len(s.sensitive_steps)), float(len(s.export_steps)),
            float(sum(s.export_volumes)), float(s.external_emails))


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


ML_WEIGHT = 0.5        # risk added per unit of forest score over the floor
ML_SCORE_FLOOR = 0.5   # forest scores below this are ignored
ML_BAND = 0.8          # advice applies only when risk >= band * threshold


def ml_advice(score: float, risk: float, theta_confirm: float) -> float:
    """Nudge a near-threshold risk upward using the anomaly score.

    Never lowers risk; never fires below the near-threshold band; the nudge
    is capped so ML advice alone cannot bridge more than
    (1 - band) * theta_confirm.
    """
    if risk < ML_BAND * theta_confirm:
        return risk
    bump = ML_WEIGHT * max(0.0, score - ML_SCORE_FLOOR)
    return risk + min(bump, (1.0 - ML_BAND) * theta_confirm)
