"""In-memory span tracer that times calls into chanbound's layers.

The tracer wraps library functions from outside the library: each wrapped
function is replaced in the module that defines it and in every chanbound
module that imported it by value, and methods are replaced on their class.
Every call to a wrapped layer function becomes a span (name, start, end,
parent).  LAPACK calls (``numpy.linalg`` svd / eigh / eigvalsh) are far too
many to keep one span each, so they are counted and their time is charged
to the enclosing span as covered child time; self time stays exact.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute path, metric name).  An attribute path with a dot is a
# method on a class of that module.
LAYER_TARGETS = (
    ("chanbound.qstate", "DensityMatrix.__post_init__", "qstate.DensityMatrix"),
    ("chanbound.qstate", "eigh", "qstate.eigh"),
    ("chanbound.qstate", "partial_trace", "qstate.partial_trace"),
    ("chanbound.qstate", "trace_norm", "qstate.trace_norm"),
    ("chanbound.entropic", "von_neumann_entropy", "entropic.von_neumann_entropy"),
    ("chanbound.entropic", "conditional_mutual_information", "entropic.conditional_mutual_information"),
    ("chanbound.entropic", "holevo_quantity", "entropic.holevo_quantity"),
    ("chanbound.channels", "apply", "channels.apply"),
    ("chanbound.channels", "tensor_power_apply", "channels.tensor_power_apply"),
    ("chanbound.channels", "random_channel", "channels.random_channel"),
    ("chanbound.energy", "truncate_pure_state", "energy.truncate_pure_state"),
    ("chanbound.energy", "gibbs_state", "energy.gibbs_state"),
    ("chanbound.bounds", "t_st", "bounds.t_st"),
    ("chanbound.bounds", "p_r", "bounds.p_r"),
    ("chanbound.metrics", "channel_bures_bracket", "metrics.channel_bures_bracket"),
    ("chanbound.metrics", "_SaddleTracker.descend", "metrics._SaddleTracker.descend"),
    ("chanbound.metrics", "_segment_min_trace_norm", "metrics._segment_min_trace_norm"),
    ("chanbound.metrics", "_constrained_minimum", "metrics._constrained_minimum"),
    ("chanbound.metrics", "_polish_state", "metrics._polish_state"),
    ("chanbound.metrics", "_SaddleTracker.polish_dual", "metrics._SaddleTracker.polish_dual"),
    ("chanbound.metrics", "diamond_bracket", "metrics.diamond_bracket"),
    ("chanbound.metrics", "bures_sup_bruteforce", "metrics.bures_sup_bruteforce"),
    ("chanbound.metrics", "ensemble_dk", "metrics.ensemble_dk"),
    ("chanbound.harness.report", "emit_report", "harness.emit_report"),
) + tuple(
    ("chanbound.harness.generators", f"Generators.{m}", "harness.generate")
    for m in ("density", "pure", "probabilities", "ensemble", "channel", "unitary",
              "energy_feasible_density", "energy_feasible_pure")
)

KERNEL_TARGETS = (("svd", "kernel.svd"), ("eigh", "kernel.eigh"), ("eigvalsh", "kernel.eigh"))

LAYER_NAMES = tuple(dict.fromkeys(name for _, _, name in LAYER_TARGETS))
KERNEL_NAMES = tuple(dict.fromkeys(name for _, name in KERNEL_TARGETS))


def _bruteforce_bytes(phi, psi, samples: int) -> int:
    """Bytes of the main arrays `bures_sup_bruteforce` builds, from their shapes.

    Per sample: the input vector on A(x)R, both dilated outputs, both output
    states, their eigendecompositions and square roots, the product and its
    singular values (complex128 = 16 B, float64 = 8 B).  Computed, not measured.
    """
    d_r = phi.d_a
    dim = phi.d_a * d_r
    n_out = phi.d_b * d_r
    per_sample = 16 * dim
    for d_e in (phi.d_e, psi.d_e):
        per_sample += 16 * phi.d_b * d_e * d_r  # dilated output
        per_sample += 16 * n_out * n_out * 3  # state, eigenvectors, square root
        per_sample += 8 * n_out  # eigenvalues
    per_sample += 16 * n_out * n_out + 8 * n_out  # product and its singular values
    return int(samples) * per_sample


class Tracer:
    """Collects spans and counts for one campaign at a time."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        # span record: [name, start, end, parent index, covered kernel seconds]
        self.spans = []
        self._stack = []
        self.kernel_calls = defaultdict(int)
        self.kernel_s = defaultdict(float)
        self.iterations = 0
        self.samples = 0
        self.bytes_computed = 0
        self.diamond_over_trivial = 0
        self.trial_marks = []  # (trial index, time) at each Generators.for_trial

    # -- wrappers ---------------------------------------------------------

    def _open(self, name):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        self._stack.pop()
        rec[2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself around a block."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _span_wrapper(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _kernel_wrapper(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.kernel_calls[name] += 1
                self.kernel_s[name] += dt
                if self._stack:
                    self.spans[self._stack[-1]][4] += dt

        return counted

    def _on_bracket(self, args, kwargs, br):
        self.iterations += br.iterations

    def _on_diamond(self, args, kwargs, br):
        self.diamond_over_trivial += br.upper > 2.0

    def _on_bruteforce(self, args, kwargs, _):
        samples = kwargs.get("samples", args[2] if len(args) > 2 else 100_000)
        self.samples += samples
        self.bytes_computed += _bruteforce_bytes(args[0], args[1], samples)

    # -- patching ---------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new, modules):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, new)

    def install(self):
        import numpy.linalg

        hooks = {
            "metrics.channel_bures_bracket": self._on_bracket,
            "metrics.diamond_bracket": self._on_diamond,
            "metrics.bures_sup_bruteforce": self._on_bruteforce,
        }
        chan_modules = [m for n, m in sorted(sys.modules.items())
                        if n == "chanbound" or n.startswith("chanbound.")]
        for modname, path, name in LAYER_TARGETS:
            mod = sys.modules[modname]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                self._replace(cls, meth, self._span_wrapper(name, cls.__dict__[meth]))
            else:
                original = getattr(mod, path)
                wrapped = self._span_wrapper(name, original, hooks.get(name))
                self._replace_everywhere(original, wrapped, chan_modules)

        gen_cls = sys.modules["chanbound.harness.generators"].Generators
        for_trial = gen_cls.__dict__["for_trial"].__func__

        def marked_for_trial(cls, campaign_seed, trial):
            self.trial_marks.append((int(trial), time.perf_counter()))
            return for_trial(cls, campaign_seed, trial)

        self._replace(gen_cls, "for_trial", classmethod(marked_for_trial))

        linalg_modules = [numpy.linalg, sys.modules["numpy.linalg._linalg"]]
        for attr, name in KERNEL_TARGETS:
            original = getattr(numpy.linalg, attr)
            self._replace_everywhere(original, self._kernel_wrapper(name, original), linalg_modules)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------

    def layer_totals(self) -> dict:
        """name -> [calls, total seconds, self seconds] over the recorded spans."""
        child_s = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_s[rec[3]] += rec[2] - rec[1]
        totals = {}
        for i, (name, start, end, _, kernel_s) in enumerate(self.spans):
            agg = totals.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child_s[i] - kernel_s
        return totals

    def trial_durations(self, suite_spans) -> list:
        """Seconds per trial: from one Generators.for_trial call to the next.

        `suite_spans` holds (start, end, trials) per suite run; marks with an
        index outside range(trials) (fixed-instance draws) only close the
        preceding trial.
        """
        out = []
        for start, end, trials in suite_spans:
            marks = [m for m in self.trial_marks if start <= m[1] <= end]
            for (trial, t0), nxt in zip(marks, marks[1:] + [(None, end)]):
                if 0 <= trial < trials:
                    out.append(nxt[1] - t0)
        return out

    def write_spans(self, path):
        """Write the recorded spans as CSV (times in ms from the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ms,end_ms,parent,kernel_ms\n")
            for i, (name, start, end, parent, kernel_s) in enumerate(self.spans):
                fh.write(f"{i},{name},{(start - t0) * 1e3:.6f},{(end - t0) * 1e3:.6f},"
                         f"{parent},{kernel_s * 1e3:.6f}\n")


def percentile(values, q: float) -> float:
    """Inclusive-method quantile (q in (0, 1)); 0.0 for an empty list."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])
