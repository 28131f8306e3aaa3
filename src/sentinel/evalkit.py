"""Scoring and experiment orchestration.

Metrics follow the actor/alert/TTD conventions used throughout: an actor is
detected when it has at least one confirmed post-warmup alert; alert-level
precision treats any alert on a malicious actor as a true positive; TTD is
measured from an insider's first scripted action to the first confirmed
alert at or after it, over detected insiders only.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields
from functools import reduce
from operator import add
from typing import Optional, Sequence

from . import forensics, siem, simkit
from .events import Alert, GroundTruth, Scenario

DEFAULT_SEEDS = tuple(range(101, 111))
MAX_SEEDS = 100   # seeds one experiment may simulate
SWEEP_THETAS = (3.0, 4.0, 5.0, 6.0, 7.0)
FORENSICS_TRAIN_SEED = 4242


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0.0 when both are 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall, f1_score(precision, recall)


def actor_metrics(alerts: Sequence[Alert], truths: Sequence[GroundTruth],
                  warmup_steps: int = 0) -> tuple[float, float, float]:
    """Precision/recall/F1 over detected actors (>=1 confirmed alert)."""
    detected = {a.actor_id for a in alerts
                if a.tier == "confirmed" and a.step >= warmup_steps}
    malicious = {t.actor_id for t in truths if t.malicious}
    benign = {t.actor_id for t in truths if not t.malicious}
    tp = len(detected & malicious)
    fp = len(detected & benign)
    fn = len(malicious - detected)
    return _prf(tp, fp, fn)


def alert_metrics(alerts: Sequence[Alert], truths: Sequence[GroundTruth]
                  ) -> tuple[float, float, int]:
    """(early precision, confirmed precision, confirmed FP count)."""
    malicious = {t.actor_id for t in truths if t.malicious}
    out = []
    fp_confirmed = 0
    for tier in ("early", "confirmed"):
        tiered = [a for a in alerts if a.tier == tier]
        tp = sum(1 for a in tiered if a.actor_id in malicious)
        fp = len(tiered) - tp
        out.append(tp / len(tiered) if tiered else 0.0)
        if tier == "confirmed":
            fp_confirmed = fp
    return out[0], out[1], fp_confirmed


def _detection_steps(alerts: Sequence[Alert], truths: Sequence[GroundTruth]
                     ) -> dict[str, tuple[Scenario, int]]:
    """Per detected insider: (scenario, TTD in steps)."""
    onset = {t.actor_id: (t.scenario, t.first_malicious_step)
             for t in truths if t.malicious}
    found: dict[str, tuple[Scenario, int]] = {}
    for a in sorted(alerts, key=lambda a: a.step):
        if a.tier != "confirmed" or a.actor_id not in onset:
            continue
        scenario, first = onset[a.actor_id]
        if a.step >= first and a.actor_id not in found:
            found[a.actor_id] = (scenario, a.step - first)
    return found


def ttd(alerts: Sequence[Alert], truths: Sequence[GroundTruth]
        ) -> tuple[Optional[float], Optional[int]]:
    """(average, max) time to detection over detected insiders."""
    values = [d for _, d in _detection_steps(alerts, truths).values()]
    if not values:
        return None, None
    return sum(values) / len(values), max(values)


def ttd_by_scenario(alerts: Sequence[Alert], truths: Sequence[GroundTruth]
                    ) -> dict[Scenario, float]:
    per: dict[Scenario, list[int]] = {}
    for scenario, d in _detection_steps(alerts, truths).values():
        per.setdefault(scenario, []).append(d)
    return {s: sum(v) / len(v) for s, v in sorted(per.items())}


@dataclass(frozen=True)
class RunReport:
    variant: str
    seed: int
    theta_base: float
    actor_precision: float
    actor_recall: float
    actor_f1: float
    early_precision: float
    confirmed_precision: float
    confirmed_alerts: int
    confirmed_fp: int
    early_alerts: int
    ttd_avg: Optional[float]
    ttd_max: Optional[int]
    tom_assisted: int
    ttd_scenario: dict = field(default_factory=dict)


def score_run(variant: str, seed: int, theta_base: float,
              alerts: Sequence[Alert], truths: Sequence[GroundTruth],
              warmup_steps: int) -> RunReport:
    scored = [a for a in alerts if a.step >= warmup_steps]
    p, r, f1 = actor_metrics(scored, truths, warmup_steps)
    early_p, confirmed_p, fp = alert_metrics(scored, truths)
    avg, worst = ttd(scored, truths)
    confirmed = [a for a in scored if a.tier == "confirmed"]
    return RunReport(
        variant=variant, seed=seed, theta_base=theta_base,
        actor_precision=p, actor_recall=r, actor_f1=f1,
        early_precision=early_p, confirmed_precision=confirmed_p,
        confirmed_alerts=len(confirmed), confirmed_fp=fp,
        early_alerts=sum(1 for a in scored if a.tier == "early"),
        ttd_avg=avg, ttd_max=worst,
        tom_assisted=sum(1 for a in confirmed if a.tom_assisted),
        ttd_scenario={s.value: v
                      for s, v in ttd_by_scenario(scored, truths).items()},
    )


def train_default_model(seed: int = FORENSICS_TRAIN_SEED,
                        n_ham: int = 1700,
                        n_spam: int = 300) -> forensics.PretrainedModel:
    """The forensics model the EG_SIEM_PT variant carries in experiments."""
    corpus = forensics.generate_synthetic_corpus(seed, n_ham, n_spam)
    return forensics.train_classifier(corpus)


def run_cells(cells: Sequence[tuple[str, float]], log: simkit.SimResult,
              model: Optional[forensics.PretrainedModel] = None
              ) -> list[tuple[list[Alert], RunReport]]:
    """(variant, theta) cells over one log in one engine pass: the feature
    pass is shared, then each cell decides and is scored. The log's truth
    plays the analyst, labelling each confirmed alert. One (alerts, report)
    per cell, in order."""
    engine = siem.SiemEngine(
        [siem.VariantConfig(name, theta) for name, theta in cells],
        log.roster, log.seed, model=model)
    malicious = frozenset(t.actor_id for t in log.truths if t.malicious)
    alert_lists = engine.run(log.events, log.total_steps, log.warmup_steps,
                             malicious.__contains__)
    return [(alerts, score_run(name, log.seed, theta, alerts, log.truths,
                               log.warmup_steps))
            for (name, theta), alerts in zip(cells, alert_lists)]


def run_cell(variant_name: str, log: simkit.SimResult,
             theta_base: float = 4.0,
             model: Optional[forensics.PretrainedModel] = None
             ) -> tuple[list[Alert], RunReport]:
    """One (variant, theta) cell over one log: correlate, then score."""
    return run_cells([(variant_name, theta_base)], log, model)[0]


def _mean(values: Sequence[Optional[float]]) -> Optional[float]:
    values = [v for v in values if v is not None]
    return reduce(add, values, 0) / len(values) if values else None


# RunReport's measures, the fields aggregate averages: all but the cell's
# keys and the per-scenario dict, in declaration order.
_MEASURES = tuple(f.name for f in fields(RunReport) if f.name not in (
    "variant", "seed", "theta_base", "ttd_scenario"))


def aggregate(reports: Sequence[RunReport]) -> RunReport:
    """Per-variant mean row over seeds (seed recorded as -1)."""
    if not reports:
        raise ValueError("nothing to aggregate")
    variants = {r.variant for r in reports}
    if len(variants) != 1:
        raise ValueError(f"mixed variants in aggregate: {sorted(variants)}")
    scenarios = sorted({s for r in reports for s in r.ttd_scenario})
    return RunReport(
        variant=reports[0].variant, seed=-1, theta_base=reports[0].theta_base,
        ttd_scenario={
            s: _mean([r.ttd_scenario.get(s) for r in reports])
            for s in scenarios
        },
        **{name: _mean([getattr(r, name) for r in reports])
           for name in _MEASURES},
    )


CSV_COLUMNS = tuple(f.name for f in fields(RunReport)
                    if f.name != "ttd_scenario") + ("ttd_email_leakage",)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def reports_to_csv(reports: Sequence[RunReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        row = dict(vars(r), seed="mean" if r.seed == -1 else r.seed,
                   ttd_email_leakage=r.ttd_scenario.get(
                       Scenario.EMAIL_LEAKAGE.value))
        writer.writerow([_fmt(row[column]) for column in CSV_COLUMNS])
    return buf.getvalue()


def run_experiment(variants: Sequence[str] = siem.VARIANT_NAMES,
                   seeds: Sequence[int] = DEFAULT_SEEDS,
                   sim_config: Optional[simkit.SimConfig] = None,
                   sweep: bool = False) -> tuple[list[RunReport], list[RunReport]]:
    """Full variant x seed matrix; optionally the LSC theta sweep.

    Simulates each seed once and runs every distinct (variant, theta) cell
    of it in one run_cells call, so the engine's feature pass runs once per
    seed and the LSC matrix cell doubles as the sweep's theta=4 cell.
    Returns (matrix reports incl. per-variant means, sweep reports incl.
    per-theta means), variant-major and theta-major.
    """
    cfg = sim_config or simkit.SimConfig()
    model = train_default_model() if "eg-pt" in variants else None
    matrix_cells = [(v, 4.0) for v in variants]
    sweep_cells = [("lsc", t) for t in SWEEP_THETAS] if sweep else []
    runs: dict[tuple[str, float], list[RunReport]] = {
        cell: [] for cell in matrix_cells + sweep_cells}
    for seed in seeds:
        log = simkit.run_simulation(cfg, seed)
        for rows, (_, report) in zip(runs.values(),
                                     run_cells(list(runs), log, model)):
            rows.append(report)
        del log  # one log alive at a time

    def with_means(cells) -> list[RunReport]:
        return [r for cell in cells
                for r in runs[cell] + [aggregate(runs[cell])]]
    return with_means(matrix_cells), with_means(sweep_cells)
