"""In-memory span tracing of the package's public functions.

Spans are recorded by replacing a function in every mimolab module
namespace that holds it, so callers inside the package pick up the traced
version where they look the name up; no file of the package changes.
`Tracer.installed()` restores every original on exit.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import statistics
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

# (module defining the function, attribute, span name)
SPANNED = (
    ("mimolab.channel", "steering_matrix", "channel.steering_matrix"),
    ("mimolab.channel", "synthesize", "channel.synthesize"),
    ("mimolab.observation", "observe", "observation.observe"),
    ("mimolab.observation", "projection_apply", "observation.projection_apply"),
    ("mimolab.fim", "channel_jacobian", "fim.channel_jacobian"),
    ("mimolab.fim", "fisher_matrix", "fim.fisher_matrix"),
    ("mimolab.fim", "crb_trace", "fim.crb_trace"),
    ("mimolab.fim", "crb_report", "fim.crb_report"),
    ("mimolab.estimation", "build_dictionaries", "estimation.build_dictionaries"),
    ("mimolab.estimation", "matching_pursuit", "estimation.matching_pursuit"),
    ("mimolab.bench", "generate_paths", "bench.generate_paths"),
    ("mimolab.bench", "run_trial", "bench.run_trial"),
)
SELECTORS = {"joint": "estimation.joint_select", "sequential": "estimation.sequential_select"}
LAYERS = ("bench", "cli", "channel", "estimation", "fim", "observation")
# per-layer metric -> span whose median duration per call it reports
MEDIAN_MS = {
    "estimation.joint_select_ms": "estimation.joint_select",
    "estimation.sequential_select_ms": "estimation.sequential_select",
    "estimation.grid_build_ms": "estimation.grid_build",
    "estimation.dictionary_build_ms": "estimation.build_dictionaries",
    "channel.steering_matrix_ms": "channel.steering_matrix",
    "channel.synthesize_ms": "channel.synthesize",
    "bench.run_trial_ms": "bench.run_trial",
    "bench.generate_paths_ms": "bench.generate_paths",
    "observation.observe_ms": "observation.observe",
    "observation.projection_apply_ms": "observation.projection_apply",
    "fim.jacobian_ms": "fim.channel_jacobian",
    "fim.fisher_ms": "fim.fisher_matrix",
    "fim.crb_trace_ms": "fim.crb_trace",
}


class Tracer:
    """Spans (id, name, start, end, parent) and counters for one traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self.selections: dict[bytes, tuple] = {}
        self.trial_keys: set = set()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        # A worker thread's first span hangs off the span that submitted it.
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        top = parent is None
        if top:
            self._root = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if top:
                self._root = None
            self.spans.append((sid, name, start, end, parent))

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, fn, name: str, after=None):
        """fn inside a span; after(args, kwargs, result) runs once it returns."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def _counted(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return counted

    # -- hooks run after a traced call returns --------------------------------

    def _after_select(self, strategy):
        def after(args, kwargs, sel):
            Y, dictionary = args[0], args[1]
            self.count("estimation.select_calls")
            self.count("estimation.score_evals", sel.score_evaluations)
            if strategy == "joint":
                self.count("estimation.joint_flops", 8 * dictionary.m * Y.shape[1] * dictionary.n)
            # The caller subtracts from Y in place next, so keep a copy.
            key = hashlib.sha1(strategy.encode() + Y.tobytes()).digest()
            if key not in self.selections:
                self.selections[key] = (strategy, Y.copy(), dictionary, sel)
        return after

    def _after_crb(self, args, kwargs, result):
        if result.ill_conditioned:
            self.count("fim.ill_conditioned")

    def _after_trial(self, args, kwargs, result):
        with self._lock:
            self.trial_keys.add((result.seed, result.strategy))

    @contextmanager
    def installed(self):
        """Trace the package's public functions for the duration of the block."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "mimolab" or name.startswith("mimolab.")]
        restore = []

        def replace(original, replacement):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, attr, original))
                        setattr(mod, attr, replacement)

        try:
            geometry = sys.modules["mimolab.geometry"]
            replace(geometry.unit_vector,
                    self._counted(geometry.unit_vector, "geometry.unit_vector_calls"))
            for mod_name, attr, span_name in SPANNED:
                original = getattr(sys.modules[mod_name], attr)
                after = {"fim.crb_trace": self._after_crb,
                         "bench.run_trial": self._after_trial}.get(span_name)
                replace(original, self.wrap(original, span_name, after))
            estimation = sys.modules["mimolab.estimation"]
            selectors = estimation._SELECTORS
            for strategy, span_name in SELECTORS.items():
                original = selectors[strategy]
                restore.append((selectors, strategy, original))
                selectors[strategy] = self.wrap(original, span_name,
                                                self._after_select(strategy))
            grid_cls = estimation.DirectionGrid
            product = grid_cls.__dict__["product"]
            restore.append((grid_cls, "product", product))
            grid_cls.product = classmethod(self.wrap(product.__func__,
                                                     "estimation.grid_build"))
            yield self
        finally:
            for target, attr, original in reversed(restore):
                if isinstance(target, dict):
                    target[attr] = original
                else:
                    setattr(target, attr, original)

    # -- reduction ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _, start, end, _ in self.spans:
            covered, cursor = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[sid] = (end - start) - covered
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def counters(self) -> dict[str, int]:
        """The counts that must repeat exactly across traced passes."""
        seeds = {seed for seed, _ in self.trial_keys}
        in_trials = self._calls_under("bench.run_trial")
        return {
            "estimation.score_evals": self.counts["estimation.score_evals"],
            "estimation.select_calls": self.counts["estimation.select_calls"],
            "bench.crb_evals_per_seed":
                _ratio(in_trials["fim.crb_trace"], len(seeds)),
            "bench.pursuit_iterations_per_seed":
                _ratio(in_trials["estimation.joint_select"]
                       + in_trials["estimation.sequential_select"], len(self.trial_keys)),
            "geometry.unit_vector_calls": self.counts["geometry.unit_vector_calls"],
            "fim.ill_conditioned": self.counts["fim.ill_conditioned"],
        }

    def _calls_under(self, ancestor: str) -> Counter:
        """Span names counted over spans that have `ancestor` above them."""
        by_id = {sid: (name, parent) for sid, name, _, _, parent in self.spans}
        out: Counter = Counter()
        for sid, (name, parent) in by_id.items():
            while parent is not None:
                p_name, parent_next = by_id.get(parent, (None, None))
                if p_name == ancestor:
                    out[name] += 1
                    break
                parent = parent_next
        return out

    def dump(self) -> list[dict]:
        return [{"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                for sid, name, start, end, parent in self.spans]


def _ratio(count: int, base: int) -> float:
    return count / base if base else 0.0


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(passes: list[Tracer]) -> dict[str, float]:
    """Per-layer metrics pooled over traced passes of the same inputs.

    Times are medians per call in ms; a function the workload never calls
    reads 0. Counts are those of one pass; the caller checks that the
    passes agree. Self totals are per pass.
    """
    metrics = {metric: _median_ms([d for t in passes for d in t.durations(span)])
               for metric, span in MEDIAN_MS.items()}
    fit, cli_self = [], []
    layer_self = Counter()
    for t in passes:
        self_t = t.self_times()
        select_parent = Counter(parent for _, name, _, _, parent in t.spans
                                if name in SELECTORS.values())
        for sid, name, _, _, _ in t.spans:
            layer_self[name.split(".")[0]] += self_t[sid]
            if name == "estimation.matching_pursuit" and select_parent[sid]:
                fit.append(self_t[sid] / select_parent[sid])
            elif name == "cli.main":
                cli_self.append(self_t[sid])
    metrics["estimation.pursuit_fit_ms"] = _median_ms(fit)
    metrics["cli.self_ms"] = _median_ms(cli_self)

    first = passes[0]
    joint_calls = len(first.durations("estimation.joint_select"))
    joint_s = metrics["estimation.joint_select_ms"] / 1e3
    metrics["estimation.joint_select_gflops"] = (
        first.counts["estimation.joint_flops"] / joint_calls / joint_s / 1e9 if joint_s else 0.0)
    metrics.update(first.counters())
    for layer in LAYERS:
        metrics[f"{layer}.self_total_ms"] = 1e3 * layer_self[layer] / len(passes)
    return metrics
