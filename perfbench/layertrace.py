"""Outside-in tracing of oiasim: spans around the public functions each
layer exposes to the harness, and counts computed from their arguments
and results.

The tracer replaces module attributes (``oiasim.harness.<fn>``,
``oiasim.ia.quantization_bound``) with wrappers that record one span per
call: name, start, end, parent span and trial index. Spans stay in memory
until ``summarize`` turns them into per-layer totals. ``restore`` puts
every original function back.

Counts labelled "computed" (``channel.bytes_drawn``,
``channel.users_scored``, ``ia.codewords_drawn``, ``harness.ipc_bytes``)
come from array and pickle sizes, not from hardware counters: they do not
see cache misses.
"""

from __future__ import annotations

import functools
import importlib
import pickle
from time import perf_counter

# (module, attribute, span name). The harness imports these names into its
# own namespace, so patching oiasim.harness catches every call it makes;
# perturb_quantization_model looks up quantization_bound in oiasim.ia.
TARGETS = (
    ("oiasim.harness", "run_experiment", "harness.run_experiment"),
    ("oiasim.harness", "run_trial", "harness.run_trial"),
    ("oiasim.harness", "write_csv", "harness.write_csv"),
    ("oiasim.harness", "generate_channels", "channel.generate_channels"),
    ("oiasim.harness", "cell_metrics", "channel.cell_metrics"),
    ("oiasim.harness", "interference_covariance", "channel.interference_covariance"),
    ("oiasim.harness", "postfilter", "channel.postfilter"),
    ("oiasim.harness", "user_rate", "channel.user_rate"),
    ("oiasim.harness", "select_one_bit", "oia.select_one_bit"),
    ("oiasim.harness", "select_conventional", "oia.select_conventional"),
    ("oiasim.harness", "optimal_threshold_d1", "threshold.design"),
    ("oiasim.harness", "threshold_lambert", "threshold.design"),
    ("oiasim.harness", "threshold_asymptotic", "threshold.design"),
    ("oiasim.harness", "threshold_numeric", "threshold.design"),
    ("oiasim.harness", "quantized_channel_set", "ia.quantized_channel_set"),
    ("oiasim.harness", "closed_form_ia", "ia.closed_form_ia"),
    ("oiasim.harness", "ia_link_rates", "ia.ia_link_rates"),
    ("oiasim.ia", "quantization_bound", "grassmann.quantization_bound"),
)

# Computed work: span name -> (count name, amount from (args, result)).
COUNTS = {
    "channel.generate_channels": ("channel.bytes_drawn", lambda args, ch: ch.h.nbytes),
    "channel.cell_metrics": ("channel.users_scored", lambda args, m: m.size),
    # quantized_channel_set(ch, bits_total, mode, rng): explicit RVQ draws a
    # codebook of 2^(b/2) vectors per cross link, 3 cells x 2 links
    "ia.quantized_channel_set": ("ia.codewords_drawn",
                                 lambda args, _: 3 * 2 * 2 ** (args[1] // 2)
                                 if args[2] == "rvq" else 0),
    "harness.run_trial": ("harness.redraws", lambda args, out: out.redraws),
}

LAYERS = ("channel", "oia", "threshold", "ia", "grassmann", "harness")

# Every per-layer metric the traced pass reports, with its unit. The span
# metrics are totals over one run_experiment call.
LAYER_METRICS = {
    "channel.generate_channels.calls": "count",
    "channel.generate_channels.self_s": "s",
    "channel.bytes_drawn": "B",
    "channel.cell_metrics.calls": "count",
    "channel.cell_metrics.self_s": "s",
    "channel.users_scored": "count",
    "channel.interference_covariance.self_s": "s",
    "channel.postfilter.self_s": "s",
    "channel.user_rate.calls": "count",
    "channel.user_rate.self_s": "s",
    "oia.select_one_bit.calls": "count",
    "oia.select_one_bit.self_s": "s",
    "oia.select_conventional.calls": "count",
    "oia.select_conventional.self_s": "s",
    "threshold.design.calls": "count",
    "threshold.design.self_s": "s",
    "ia.quantized_channel_set.calls": "count",
    "ia.quantized_channel_set.self_s": "s",
    "ia.codewords_drawn": "count",
    "ia.closed_form_ia.calls": "count",
    "ia.closed_form_ia.self_s": "s",
    "ia.closed_form_ia.degenerate": "count",
    "ia.ia_link_rates.self_s": "s",
    "grassmann.quantization_bound.calls": "count",
    "grassmann.quantization_bound.self_s": "s",
    "harness.run_trial.calls": "count",
    "harness.run_trial.self_s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.write_csv.self_s": "s",
    "harness.redraws": "count",
    "harness.drop_yield": "ratio",
    "harness.pool_starts": "count",
    "harness.ipc_bytes": "B",
    "harness.parallel_efficiency": "ratio",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Span recorder that patches the TARGETS while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, trial]
        self.errors = {}         # span name -> calls that raised
        self.counts = {key: 0 for key, _ in COUNTS.values()}
        self._stack = []
        self._trial = -1
        self._saved = []

    def wrap(self, fn, name, trial_arg=None):
        """Return fn wrapped in a span called name.

        trial_arg is the position of an argument that holds the trial index.
        """
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_trial = self._trial
            if trial_arg is not None:
                self._trial = args[trial_arg]
            index = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1, self._trial])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                spans[index][2] = perf_counter()
                stack.pop()
                self._trial = outer_trial
            if count is not None:
                counts[count[0]] += count[1](args, result)
            return result

        return traced

    def install(self):
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(
                original, name,
                trial_arg=2 if name == "harness.run_trial" else None))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class PoolCounter:
    """Parent-side view of the harness's process pools.

    Replaces oiasim.harness.ProcessPoolExecutor with a subclass that counts
    pool starts and re-pickles every result the workers send back, which
    gives the bytes that crossed the process boundary (computed, per run).
    """

    def __init__(self):
        self.pool_starts = 0
        self.ipc_bytes = 0
        self._saved = None

    def install(self):
        harness = importlib.import_module("oiasim.harness")
        base = harness.ProcessPoolExecutor
        counter = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                counter.pool_starts += 1
                super().__init__(*args, **kwargs)

            def map(self, *args, **kwargs):
                for result in super().map(*args, **kwargs):
                    counter.ipc_bytes += len(pickle.dumps(result))
                    yield result

        self._saved = (harness, base)
        harness.ProcessPoolExecutor = CountingPool

    def restore(self):
        if self._saved is not None:
            harness, base = self._saved
            harness.ProcessPoolExecutor = base
            self._saved = None


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(tracer, pool=None):
    """Per-layer metrics of one traced run_experiment call.

    Returns the metrics of LAYER_METRICS except harness.parallel_efficiency
    and trace.overhead_frac, which need other runs to compare against, plus
    trace.wall_s (run_experiment span) and trace.run_trial_s (summed
    run_trial spans) for those two.
    """
    calls, self_s, incl = {}, {}, {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        incl[name] = incl.get(name, 0.0) + (span[2] - span[1])
    wall = incl.get("harness.run_experiment", 0.0)
    metrics = dict(tracer.counts)
    for key in LAYER_METRICS:
        base, _, field = key.rpartition(".")
        if field == "calls":
            metrics[key] = calls.get(base, 0)
        elif field == "self_s":
            metrics[key] = self_s.get(base, 0.0)
    metrics["ia.closed_form_ia.degenerate"] = tracer.errors.get("ia.closed_form_ia", 0)
    trials = calls.get("harness.run_trial", 0)
    drops = trials + metrics["harness.redraws"]
    metrics["harness.drop_yield"] = trials / drops if drops else 0.0
    metrics["harness.pool_starts"] = pool.pool_starts if pool else 0
    metrics["harness.ipc_bytes"] = pool.ipc_bytes if pool else 0
    for layer in LAYERS:
        own = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
        metrics[f"{layer}.share"] = own / wall if wall else 0.0
    metrics["trace.wall_s"] = wall
    metrics["trace.run_trial_s"] = incl.get("harness.run_trial", 0.0)
    return metrics
