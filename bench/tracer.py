"""Outside-in span tracer for the sentinel benchmark.

The tracer wraps the public functions named in ``TARGETS`` from outside the
program: it replaces each one in every loaded ``sentinel`` module (and on its
class, for methods) with a wrapper that records a span. Nothing in the
program changes, and ``uninstall`` puts every original back.

Spans live in flat in-memory arrays (name, start, end, parent span, op) and
are written out once, when the run ends. A span's self time is its duration
minus the time its direct children cover; spans nest strictly because the
program is single-threaded.

Three wasted-work counters are kept at the same boundaries:

* phishing scores computed inside a ``SiemEngine.run`` whose variant has the
  forensics layer off (``lsc``), over all phishing scores;
* ``run_simulation`` calls whose (config, seed) was already simulated in the
  run, over all calls;
* ``tom.abduce`` calls whose window holds the same event objects as the same
  actor's previous call within one engine run, over all calls.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "sentinel"

# Functions wrapped by the tracer, as "<module>.<attribute path>" under the
# ``sentinel`` package. ``rng`` is deliberately absent: its millions of draws
# would swamp the run, so its cost shows as self time of its callers.
TARGETS = (
    "siem.SiemEngine.run",
    "siem.SiemEngine.correlate",
    "siem.scorer_features",
    "siem.PolicyRules.rule_hits",
    "siem.ewma_update",
    "siem.OnlineScorer.predict",
    "siem.OnlineScorer.warmup_fit",
    "siem.update_trust",
    "siem.satisfied_gates",
    "siem.regularity_suppression",
    "siem.peer_normalize",
    "tom.abduce",
    "tom.check_contradiction",
    "tom.tom_evidence",
    "forensics.keyword_phishing_score",
    "forensics.PretrainedModel.phishing_prob",
    "forensics.load_model",
    "forensics.train_classifier",
    "forensics.compose_body",
    "anomaly.IsoForest.fit",
    "anomaly.IsoForest.score",
    "anomaly.behavior_vector",
    "simkit.run_simulation",
    "simkit.expand_scenario",
    "events.parse_event_log",
    "events.serialize_event_log",
    "events.serialize_alert_log",
    "evalkit.run_cell",
    "evalkit.score_run",
    "cli.main",
)

PHISH_TARGETS = ("forensics.keyword_phishing_score",
                 "forensics.PretrainedModel.phishing_prob")


class Tracer:
    """Records spans and wasted-work counts for the functions in TARGETS."""

    def __init__(self):
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_op = array("i")
        self.op = -1
        self.origin = perf_counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._run_ix = TARGETS.index("siem.SiemEngine.run")
        self._run_forensics: dict[int, bool] = {}
        self._last_window: dict[str, tuple[int, ...]] = {}
        self._simulated: set[tuple[str, int]] = set()
        self.phish_scores = self.phish_wasted = 0
        self.simulations = self.resimulations = 0
        self.abduce_calls = self.abduce_repeats = 0

    # -- wasted-work hooks, called before the wrapped function runs -------

    def _on_run(self, span: int, args, kwargs) -> None:
        self._run_forensics[span] = bool(args[0].variant.forensics)
        self._last_window.clear()

    def _on_phish(self, span: int, args, kwargs) -> None:
        self.phish_scores += 1
        for s in reversed(self._stack):
            if self.span_name[s] == self._run_ix:
                if not self._run_forensics[s]:
                    self.phish_wasted += 1
                return

    def _on_simulate(self, span: int, args, kwargs) -> None:
        config = args[0] if args else kwargs["config"]
        seed = args[1] if len(args) > 1 else kwargs["seed"]
        key = (repr(config), seed)
        self.simulations += 1
        if key in self._simulated:
            self.resimulations += 1
        self._simulated.add(key)

    def _on_abduce(self, span: int, args, kwargs) -> None:
        window = args[0] if args else kwargs["window"]
        self.abduce_calls += 1
        if not window:
            return
        actor = window[0].actor_id
        ids = tuple(map(id, window))
        if self._last_window.get(actor) == ids:
            self.abduce_repeats += 1
        self._last_window[actor] = ids

    def _hook(self, name: str):
        if name == "siem.SiemEngine.run":
            return self._on_run
        if name in PHISH_TARGETS:
            return self._on_phish
        if name == "simkit.run_simulation":
            return self._on_simulate
        if name == "tom.abduce":
            return self._on_abduce
        return None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, ix: int, hook):
        stack = self._stack
        span_name, start, end = self.span_name, self.start, self.end
        parent, span_op = self.parent, self.span_op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            span_name.append(ix)
            parent.append(stack[-1] if stack else -1)
            span_op.append(self.op)
            end.append(0.0)
            if hook is not None:
                hook(span, args, kwargs)
            stack.append(span)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target where its callers look it up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for ix, name in enumerate(TARGETS):
            module_name, *path = name.split(".")
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            hook = self._hook(name)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, ix, hook))
                else:
                    wrapped = self._wrap(raw, ix, hook)
                self._patch(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, ix, hook)
            # Modules that bound the function by name at import (for
            # example ``cli`` binds ``parse_event_log``) are patched too.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def _durations(self) -> tuple[np.ndarray, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return dur, dur - covered

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls / self_s / total_s per target, plus the wasted-work ratios."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        dur, self_time = self._durations()
        n = len(TARGETS)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=dur, minlength=n)
        own = np.bincount(names, weights=self_time, minlength=n)
        out: dict[str, tuple[float, str]] = {}
        for ix, name in enumerate(TARGETS):
            out[f"{name}.calls"] = (int(calls[ix]), "count")
            out[f"{name}.self_s"] = (float(own[ix]), "s")
            out[f"{name}.total_s"] = (float(total[ix]), "s")
        for name, hits, base in (
                ("forensics.phish_wasted_ratio", self.phish_wasted,
                 self.phish_scores),
                ("simkit.resimulated_ratio", self.resimulations,
                 self.simulations),
                ("tom.abduce.repeat_ratio", self.abduce_repeats,
                 self.abduce_calls)):
            out[name] = (hits / base if base else 0.0, "ratio")
            out[f"{name}.base"] = (base, "count")
        return out

    def write(self, path, ops: list[dict]) -> None:
        """Write every span, with the ops they belong to, as gzipped JSON."""
        _, self_time = self._durations()
        columns = {
            "name": lambda: self.span_name.tolist(),
            "start_s": lambda: np.round(np.frombuffer(self.start) - self.origin,
                                        7).tolist(),
            "end_s": lambda: np.round(np.frombuffer(self.end) - self.origin,
                                      7).tolist(),
            "parent": lambda: self.parent.tolist(),
            "op": lambda: self.span_op.tolist(),
            "self_s": lambda: np.round(self_time, 7).tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write('{"names": ' + json.dumps(TARGETS))
            fh.write(', "ops": ' + json.dumps(ops))
            fh.write(', "columns": ' + json.dumps(list(columns)))
            # One column at a time keeps the transient lists small.
            for key, column in columns.items():
                fh.write(f', "{key}": ' + json.dumps(column()))
            fh.write("}\n")
