"""In-memory span tracer that wraps fapsim's public functions from outside.

Nothing in the package is edited: `instrument` replaces every binding of a
target function in the loaded `fapsim` modules (the defining module, the
modules that imported it by name, and the package namespace) with a wrapper
that records a span, then puts the originals back. A span is
[name, start, end, parent_index]; spans stay in memory until `dump`.
"""

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# Functions whose calls, self time and per-call latency the traced run reports.
TRACED = (
    "channel.sample_channel",
    "precoding.optimal_precoder",
    "numerics.svd",
    "numerics.least_squares",
    "numerics.log_det_hermitian",
    "feedback.dictionary",
    "feedback.omp_approximate",
    "feedback.build_report",
    "feedback.reconstruct_precoder",
    "feedback.serialize_report",
    "feedback.deserialize_report",
    "benchmarks.sparse_precoder",
    "benchmarks.multilevel_csi_feedback",
    "evaluation.achievable_rate",
    "evaluation.ber_qpsk_mmse",
    "hybrid.decompose",
    "cli.build_experiment_config",
)
# The sweep entry points: their self time is the runner's own work.
SWEEPS = ("runner.run_rate_sweep", "runner.run_ber_sweep")


def _omp_counts(counters, args, kwargs, result):
    k = kwargs["k"] if "k" in kwargs else args[2]
    indices, _, history = result
    counters["omp_iterations"] += len(history)
    counters["omp_k_requested"] += k
    counters["omp_k_used"] += len(indices)


def _dictionary_bytes(counters, args, kwargs, result):
    # Computed, not measured: M x |C| complex128 entries per build.
    counters["dictionary_bytes"] += result.shape[0] * result.shape[1] * 16


def _report_bytes(counters, args, kwargs, result):
    counters["serialized_reports"] += 1
    counters["report_bytes"] += len(result)


HOOKS = {
    "feedback.omp_approximate": _omp_counts,
    "feedback.dictionary": _dictionary_bytes,
    "feedback.serialize_report": _report_bytes,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def self_times(self):
        """Per span: duration minus the summed durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self):
        """name -> (calls, total self seconds, per-call inclusive durations)."""
        out = {}
        for span, own in zip(self.spans, self.self_times()):
            name, start, end, _ = span
            calls, self_s, durations = out.get(name, (0, 0.0, []))
            durations.append(end - start)
            out[name] = (calls + 1, self_s + own, durations)
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counters": dict(self.counters)}, fh)


def _fapsim_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fapsim" or name.startswith("fapsim."))]


@contextlib.contextmanager
def instrument(tracer):
    """Wrap each function of TRACED and SWEEPS at every binding in the loaded fapsim modules."""
    modules = _fapsim_modules()
    by_name = {m.__name__: m for m in modules}
    patched = []
    try:
        for name in TRACED + SWEEPS:
            module_name, fn_name = name.split(".")
            original = getattr(by_name["fapsim." + module_name], fn_name)
            wrapper = tracer.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def layer_metrics(tracer, trials):
    """Per-layer metrics normalized per trial (one trial = one channel draw)."""
    summary = tracer.summary()
    metrics = {}
    for name in TRACED:
        calls, self_s, durations = summary.get(name, (0, 0.0, []))
        metrics[f"{name}.calls"] = (calls / trials, "calls/trial")
        metrics[f"{name}.self_s"] = (self_s / trials, "s/trial")
        p50 = statistics.median(durations) * 1e3 if durations else 0.0
        metrics[f"{name}.ms_p50"] = (p50, "ms")
    runner_self = sum(summary.get(name, (0, 0.0, []))[1] for name in SWEEPS)
    metrics["runner.self_s"] = (runner_self / trials, "s/trial")
    c = tracer.counters
    metrics["feedback.omp_approximate.iterations"] = (c["omp_iterations"] / trials, "iter/trial")
    ratio = c["omp_k_used"] / c["omp_k_requested"] if c["omp_k_requested"] else 0.0
    metrics["feedback.omp_approximate.k_used_ratio"] = (ratio, "ratio")
    metrics["feedback.dictionary.bytes_computed"] = (c["dictionary_bytes"] / trials, "B/trial")
    size = c["report_bytes"] / c["serialized_reports"] if c["serialized_reports"] else 0.0
    metrics["feedback.report_bytes"] = (size, "B")
    return metrics
