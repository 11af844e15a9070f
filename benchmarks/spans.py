"""Spans around the public functions of permpat's layers, recorded from
outside the program.

Each function is replaced, for the duration of a traced pass, in every
permpat module that holds it under its own name: `classes.enumerate_class`
is patched in `classes` too, so the call from `wilf_classify` nests under
it, and `perm.occurrences` is patched in `patterns`, so the listing done
inside mesh matching is its own span.  Private helpers (the containment
kernel `_contains_values`, for one) are not wrapped; their time is self
time of the public function that calls them.

A span is (name, start, end, parent index, op index).  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# The public functions that `cli` and `classes` call, by layer (= module).
TRACED = {
    "perm": ["parse", "reduce_word", "find_occurrence", "occurrences", "contains",
             "direct_sum", "skew_sum", "inflate", "sum_decompose", "skew_decompose",
             "substitution_decompose", "intervals", "is_simple", "is_layered", "extremal"],
    "patterns": ["parse_pattern", "mesh_occurrences", "vincular_count", "barred_contains"],
    "classes": ["parse_basis", "validate_basis", "enumerate_class", "growth_estimates",
                "wilf_equivalent", "wilf_classify"],
    "gfun": ["series_from_enumeration", "fit_rational", "fit_algebraic"],
    "stats": ["statistic", "distribution", "equidistributed"],
}
LAYERS = ["cli", *TRACED]


class Tracer:
    """The spans and counters of one traced pass."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """fn, recording a span per call; count(result) runs after the span
        closes and returns {counter: increment}."""
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                for key, inc in count(result).items():
                    counters[key] += inc
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function into each module that reads it."""
        modules = [getattr(self.package, layer) for layer in LAYERS]
        patches = []
        for layer, names in TRACED.items():
            home = getattr(self.package, layer)
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{layer}.{name}", original, COUNTERS.get(f"{layer}.{name}"))
                for module in modules:
                    if getattr(module, name, None) is original:
                        patches.append((module, name, original))
                        setattr(module, name, wrapper)
        try:
            yield
        finally:
            for module, name, original in reversed(patches):
                setattr(module, name, original)


def _enumeration_counts(enum) -> dict[str, int]:
    """Work implied by the returned counts: length-n candidates are the
    n gaps of each length-(n-1) member."""
    c = enum.counts
    return {
        "classes.naive_candidates": sum(n * c[n - 1] for n in range(1, len(c))),
        "classes.members": sum(c[1:]),
    }


COUNTERS = {
    "perm.occurrences": lambda occs: {"perm.occurrences.listed": len(occs)},
    "classes.enumerate_class": _enumeration_counts,
}


def self_times(spans) -> tuple[list[float], float]:
    """Per-span self time (duration minus direct children), and the total
    duration of the root spans."""
    child = [0.0] * len(spans)
    roots = 0.0
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
        else:
            roots += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)], roots


def summarize(spans) -> dict[str, dict[str, float]]:
    """{span name: {"calls", "self_s"}} plus one entry per layer."""
    selfs, _ = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span, own in zip(spans, selfs):
        for key in (span[0], span[0].split(".")[0]):
            table[key]["calls"] += 1
            table[key]["self_s"] += own
    return table
