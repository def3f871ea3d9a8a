"""Spans and counters recorded from outside `optcoding`.

`Tracer.install` replaces each public function of the library's modules
with a wrapper, at every binding a caller may use: the module attribute
(`corpus` calls `assign.pair_counts` through it), module globals
(`corpus.analyze` calls `abbreviation_analysis` directly) and
from-imports (`maxent` holds its own `code_length_for_rank`).  The
library's source is not touched.

Most functions get a span: name, start, end, parent and whether it
raised.  Hot scalar functions, called hundreds of thousands of times per
operation, only bump a counter (and `hurwitz_zeta` also sums its time),
so tracing overhead stays visible in `trace.overhead_s` without swamping
what it measures.
"""

from __future__ import annotations

import functools
import inspect
import resource
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = ("assign", "codebook", "corpus", "maxent", "randtype", "cli")

HOT = {
    "codebook.nth_string", "codebook.code_length_for_rank",
    "codebook.string_count_through_length", "codebook.rank_of_string",
    "maxent.hurwitz_zeta", "maxent.riemann_zeta",
    "maxent.zeta_pmf", "maxent.zipf_mandelbrot_pmf", "maxent.geometric_pmf",
    "maxent.maxent_pmf",
    "randtype.word_probability", "randtype.rank_probability",
}
TIMED_HOT = {"maxent.hurwitz_zeta"}
PMFS = ("maxent.zeta_pmf", "maxent.zipf_mandelbrot_pmf", "maxent.geometric_pmf",
        "maxent.maxent_pmf")

# Per-layer metrics reported by a traced run, with their units.
PER_LAYER = {
    "setup.import.optcoding_s": "s",
    "setup.import.scipy_optimize_s": "s",
    "corpus.read_text.s": "s",
    "corpus.tokenize.s": "s",
    "corpus.tokens": "count",
    "corpus.table_from_tokens.s": "s",
    "corpus.table_from_tokens.self_s": "s",
    "corpus.types": "count",
    "corpus.read_magnitudes.s": "s",
    "corpus.build_table.s": "s",
    "corpus.analyze.s": "s",
    "corpus.abbreviation_analysis.self_s": "s",
    "corpus.optimal_recoding.self_s": "s",
    "corpus.rank_frequency_fit.self_s": "s",
    "codebook.optimal_nonsingular_code.s": "s",
    "codebook.nth_string.calls": "count",
    "codebook.code_length_for_rank.calls": "count",
    "codebook.string_count_through_length.calls": "count",
    "codebook.mean_code_length.s": "s",
    "assign.pair_counts.s": "s",
    "assign.pair_counts.calls": "count",
    "assign.pair_counts.calls_per_analyze": "count",
    "assign.pair_counts.cells": "count",
    "assign.kendall_tau.calls": "count",
    "assign.is_optimal.s": "s",
    "assign.is_optimal.pool_size": "count",
    "randtype.verify_optimality.s": "s",
    "randtype.verify_optimality.self_s": "s",
    "randtype.verify_optimality.rss_growth_mb": "MB",
    "randtype.generate.s": "s",
    "randtype.rank_probabilities.s": "s",
    "randtype.figure2_data.s": "s",
    "maxent.fit_mle.zeta.s": "s",
    "maxent.fit_mle.zipf-mandelbrot.s": "s",
    "maxent.fit_mle.geometric.s": "s",
    "maxent.fit_mle.calls": "count",
    "maxent.hurwitz_zeta.calls": "count",
    "maxent.hurwitz_zeta.s": "s",
    "maxent.riemann_zeta.calls": "count",
    "maxent.sample.s": "s",
    "maxent.entropy.s": "s",
    "maxent.pmf.calls": "count",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.main.calls": "count",
    "cli.output_bytes": "bytes",
    "trace.spans": "count",
    "trace.raised": "count",
    "trace.overhead_s": "s",
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _fit_name(args, kwargs):
    return f"maxent.fit_mle.{_arg(args, kwargs, 1, 'family')}"


def _count_tokens(tracer, args, kwargs, result, before):
    tracer.counts["corpus.tokens"] += len(result)


def _count_types(tracer, args, kwargs, result, before):
    tracer.counts["corpus.types"] += result.size


def _defer_cells(tracer, args, kwargs, result, before):
    dist, asg = _arg(args, kwargs, 0, "dist"), _arg(args, kwargs, 1, "asg")
    tracer.deferred.append((dist.probs, asg.magnitudes))


def _count_pool(tracer, args, kwargs, result, before):
    tracer.counts["assign.is_optimal.pool_size"] += _arg(args, kwargs, 2, "ms").size


def _rss_growth(tracer, args, kwargs, result, before):
    growth = _maxrss_mb() - before
    key = "randtype.verify_optimality.rss_growth_mb"
    tracer.counts[key] = max(tracer.counts[key], growth)


# name -> (span label from the arguments, measure after the call, state before it)
HOOKS = {
    "maxent.fit_mle": (_fit_name, None, None),
    "corpus.tokenize": (None, _count_tokens, None),
    "corpus.table_from_tokens": (None, _count_types, None),
    "assign.pair_counts": (None, _defer_cells, None),
    "assign.is_optimal": (None, _count_pool, None),
    "randtype.verify_optimality": (None, _rss_growth, _maxrss_mb),
}


class Tracer:
    """In-memory spans and counters of one traced operation sequence."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, raised]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.deferred: list = []
        self._restore: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.seconds.clear()
        self.deferred.clear()

    def _span(self, name: str, fn):
        label, measure, pre = HOOKS.get(name, (None, None, None))
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = pre() if pre else None
            sid = len(spans)
            record = [label(args, kwargs) if label else name,
                      stack[-1] if stack else -1, 0.0, 0.0, False]
            spans.append(record)
            stack.append(sid)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = True
                raise
            finally:
                record[3] = perf_counter()
                stack.pop()
            if measure:
                measure(self, args, kwargs, result, before)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        if name in TIMED_HOT:
            seconds = self.seconds

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                counts[name] += 1
                t = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[name] += perf_counter() - t

            return timed

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, package) -> None:
        """Wrap public functions of the package's modules at every binding."""
        modules = [getattr(package, m) for m in MODULES]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            public = getattr(mod, "__all__", ["main"])
            for attr in public:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    wrap = self._counter if name in HOT else self._span
                    wrapped[id(fn)] = (fn, wrap(name, fn))
        for holder in [package, *modules]:
            for attr, value in list(vars(holder).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._restore.append((holder, attr, value))
                    setattr(holder, attr, wrapped[id(value)][1])

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._restore):
            setattr(holder, attr, value)
        self._restore.clear()

    def metrics(self) -> dict:
        """Per-layer figures of the spans and counters recorded since reset."""
        out = span_metrics(self.spans)
        out.update(self.counts)
        for name, secs in self.seconds.items():
            out[f"{name}.s"] = secs
        for name in HOT:
            out[f"{name}.calls"] = self.counts.get(name, 0)
        out["maxent.pmf.calls"] = sum(self.counts.get(p, 0) for p in PMFS)
        cells = 0
        for probs, mags in self.deferred:
            groups = 1 + int(np.count_nonzero(probs[:-1] > probs[1:]))
            cells += groups * int(np.unique(mags).size)
        out["assign.pair_counts.cells"] = cells
        out["maxent.fit_mle.calls"] = sum(
            v for k, v in out.items() if k.startswith("maxent.fit_mle.") and k.endswith(".calls"))
        analyses = out.get("corpus.abbreviation_analysis.calls", 0)
        out["assign.pair_counts.calls_per_analyze"] = (
            out.get("assign.pair_counts.calls", 0) / analyses if analyses else 0)
        return out


def _covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def span_metrics(spans) -> dict:
    """`<name>.s` (outermost spans of each name), `.self_s`, `.calls`, plus totals.

    A span's self time is its duration minus the part of it that its child
    spans cover.  A span nested inside a span of the same name (recursion)
    counts toward `.self_s` and `.calls` but not again toward `.s`.
    """
    children = defaultdict(list)
    for sid, (_, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(float)
    for sid, (name, parent, start, end, raised) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - _covered(children[sid], start, end)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            out[f"{name}.s"] += end - start
        out["trace.raised"] += int(raised)
    out["trace.spans"] = len(spans)
    return dict(out)
