"""Classical permutation classes Av(B): enumeration, growth proxies, Wilf
equivalence and classification.

Enumeration is incremental: the length-(n+1) members are generated by
inserting the new maximum value n+1 into every gap of every length-n
member, keeping the results that avoid the basis.  This is exhaustive
because classes are down-sets: deleting the maximum from any member of
Av_{n+1}(B) lands in Av_n(B).  Since each parent already avoids B, a
candidate can only fail through an occurrence using the new point, and the
new point can only play a basis pattern's maximum.  So each (parent, gap)
is checked by perm's anchored kernel, which searches the pattern minus its
maximum in the parent split at the gap, and a candidate is built only when
it survives (the brute-force filter oracle in the test suite verifies this
restriction).

Each length is one single-threaded pass over the frontier, bounded by
the budget: the pass stops as soon as the members kept would exceed what
is left of it, and the result is marked truncated at that length.  Counts
do not depend on the order of the frontier, so levels are left in the
order they are generated; they are sorted only when witness lists are
asked for, once per length, as the witnesses are built.

The frontier holds each member as `bytes`, one byte per value, which
slices, concatenates and sorts like a tuple of ints in about a third of
the memory.  Past length 255 the values no longer fit, and the frontier
becomes tuples.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations, permutations as _all_perms
from typing import Iterable, Union

from .errors import InvalidBasisError, IterationCapError, PermPatError
from .perm import Permutation, _kernel, contains, symmetry_orbit

# A frontier member is a one-line word: bytes while every value fits in a
# byte, a tuple of ints after that.  Both slice, concatenate and sort alike.
Word = Union[bytes, tuple[int, ...]]
_BYTE_LIMIT = 255

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "PERMPAT_BUDGET"

# wilf_classify enumerates all k! classes Av(pi), pi in S_k; past k = 4
# that is too many enumerations to run by accident.
WILF_MAX_K = 4


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if not raw:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise PermPatError(f"${BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    return budget


@dataclass(frozen=True)
class Basis:
    """A finite antichain of forbidden patterns.  Construct via
    validate_basis, which enforces pairwise incomparability."""

    patterns: tuple[Permutation, ...]

    def __str__(self) -> str:
        if not self.patterns:
            return "(empty basis)"
        return ",".join(str(p).replace(" ", "") if max(p.values, default=0) <= 9 else str(p)
                        for p in self.patterns)


def validate_basis(patterns: Iterable[Permutation]) -> Basis:
    """Check the antichain condition and return a canonical Basis.

    Duplicates are dropped; patterns are sorted by (length, values).
    """
    unique = sorted(set(patterns), key=lambda p: (len(p), p.values))
    for a, b in combinations(unique, 2):
        if contains(b, a):  # a is shorter or equal; b cannot contain longer a
            raise InvalidBasisError(
                f"not an antichain: {a or 'the empty permutation'} is contained in {b}"
            )
    return Basis(tuple(unique))


def parse_basis(text: str) -> Basis:
    """Comma-separated one-line patterns, e.g. "123,132"."""
    from .perm import parse

    stripped = text.strip()
    if not stripped or stripped == "∅" or stripped.lower() == "empty":
        return Basis(())
    return validate_basis(parse(part) for part in stripped.split(","))


@dataclass
class ClassEnumeration:
    """Per-length counts (and optional witness lists) for Av(B)."""

    basis: Basis
    counts: list[int]
    witnesses: list[list[Permutation]] | None = None
    truncated_at: int | None = None  # first length the budget could not cover

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1


def _expand_level(
    frontier: list[Word],
    pats: tuple[tuple[int, ...], ...],
    point: Word,
    limit: int,
) -> list[Word] | None:
    """Insert the new maximum `point` into every gap of every frontier
    member, keeping avoiders.  Returns None as soon as more than `limit`
    avoiders have been kept."""
    out: list[Word] = []
    add = out.append
    hits = [_kernel(p, "anchored") for p in pats]
    for sigma in frontier:
        for g in range(len(sigma) + 1):
            for hit in hits:
                if hit(sigma, g):
                    break
            else:
                add(sigma[:g] + point + sigma[g:])
        if len(out) > limit:
            return None
    return out


def enumerate_class(
    basis: Basis,
    n_max: int,
    with_witnesses: bool = False,
    budget: int | None = None,
) -> ClassEnumeration:
    """Count (and optionally list) Av_n(B) for n = 0..n_max.

    `budget` caps the total number of stored permutations; when it would be
    exceeded the result is truncated at that length, never silently wrong.
    Witness lists are sorted lexicographically within each length.
    """
    if n_max < 0:
        raise PermPatError("n_max must be non-negative")
    if budget is None:
        budget = _default_budget()
    pats = tuple(p.values for p in basis.patterns)
    frontier: list[Word] = [] if any(len(p) == 0 for p in pats) else [b""]
    counts = [len(frontier)]
    levels: list[list[Word]] | None = [frontier] if with_witnesses else None
    stored = len(frontier)
    truncated_at: int | None = None
    for n in range(1, n_max + 1):
        if n == _BYTE_LIMIT + 1:  # values no longer fit in a byte
            frontier = [tuple(sigma) for sigma in frontier]
        point: Word = bytes((n,)) if n <= _BYTE_LIMIT else (n,)
        next_level = _expand_level(frontier, pats, point, limit=budget - stored)
        if next_level is None:
            truncated_at = n
            break
        stored += len(next_level)
        counts.append(len(next_level))
        if levels is not None:
            levels.append(next_level)
        frontier = next_level
        if not frontier:
            counts.extend([0] * (n_max - n))
            if levels is not None:
                levels.extend([] for _ in range(n_max - n))
            break
    witnesses = None
    if levels is not None:
        witnesses = [[Permutation(w) for w in sorted(level)] for level in levels]
    return ClassEnumeration(basis, counts, witnesses, truncated_at)


def enumerate_avoiders(predicate, n_max: int) -> ClassEnumeration:
    """Enumerate by filtering all of S_n with an arbitrary avoidance
    predicate.  Works for non-classical (e.g. mesh/barred) avoidance sets,
    which need not be down-sets, so no incremental shortcut applies."""
    counts: list[int] = []
    witnesses: list[list[Permutation]] = []
    for n in range(n_max + 1):
        level = [
            sigma
            for word in _all_perms(range(1, n + 1))
            if predicate(sigma := Permutation(word))
        ]
        counts.append(len(level))
        witnesses.append(level)
    return ClassEnumeration(Basis(()), counts, witnesses, None)


# ---------------------------------------------------------------------------
# Growth-rate proxies


@dataclass
class GrowthEstimate:
    """Finite-prefix proxies for the upper/lower growth rates.

    values[n] = counts[n] ** (1/n) for n >= 1 (None at n = 0 and where the
    count is 0).  upper/lower are the max/min over the trailing window.
    These are estimates of limsup/liminf computed from a prefix, never
    claimed as limits; `diverging` marks the class of all permutations,
    the one class whose growth is super-exponential.
    """

    values: list[float | None]
    lower: float
    upper: float
    diverging: bool
    finite_class: bool
    window: int


def growth_estimates(enum: ClassEnumeration, window: int = 1) -> GrowthEstimate:
    if window < 1:
        raise PermPatError("window must be >= 1")
    counts = enum.counts
    if len(counts) < 2:
        raise PermPatError("growth estimates need counts for n >= 1")
    values: list[float | None] = [None]
    for n in range(1, len(counts)):
        c = counts[n]
        values.append(math.exp(math.log(c) / n) if c > 0 else None)
    diverging = len(enum.basis.patterns) == 0
    if counts[-1] == 0:
        return GrowthEstimate(values, 0.0, 0.0, diverging, True, window)
    tail = [v for v in values[-window:] if v is not None]
    return GrowthEstimate(values, min(tail), max(tail), diverging, False, window)


# ---------------------------------------------------------------------------
# Wilf equivalence


@dataclass
class WilfVerdict:
    """Prefix comparison of two classes.  Equality up to n_max is evidence
    of Wilf equivalence, not a proof; the n_max provenance always travels
    with the verdict."""

    basis_a: Basis
    basis_b: Basis
    n_max: int
    counts_a: list[int]
    counts_b: list[int]
    first_difference: int | None

    @property
    def equinumerous(self) -> bool:
        return self.first_difference is None

    def describe(self) -> str:
        if self.first_difference is None:
            return f"equinumerous up to n = {self.n_max} (not a proof of equivalence)"
        n = self.first_difference
        return (
            f"distinguished at n = {n}: "
            f"{self.counts_a[n]} vs {self.counts_b[n]}"
        )


def wilf_equivalent(
    a: Basis, b: Basis, n_max: int, budget: int | None = None
) -> WilfVerdict:
    ea = enumerate_class(a, n_max, budget=budget)
    eb = enumerate_class(b, n_max, budget=budget)
    if ea.truncated_at is not None or eb.truncated_at is not None:
        raise PermPatError("resource budget exceeded before reaching n_max")
    first_diff = next(
        (n for n in range(n_max + 1) if ea.counts[n] != eb.counts[n]), None
    )
    return WilfVerdict(a, b, n_max, ea.counts, eb.counts, first_diff)


@dataclass
class WilfClassification:
    """Wilf classes of the single-pattern classes Av(pi), pi in S_k,
    bucketed by count vector up to n_max, together with the symmetry
    orbits (which provably refine the Wilf classes)."""

    k: int
    n_max: int
    classes: list[tuple[tuple[int, ...], list[Permutation]]]
    orbits: list[list[Permutation]]
    symmetry_refines: bool


def wilf_classify(k: int, n_max: int, budget: int | None = None) -> WilfClassification:
    if k < 1:
        raise PermPatError("pattern length must be >= 1")
    if k > WILF_MAX_K:
        raise IterationCapError(
            f"wilf_classify is guarded at pattern length {WILF_MAX_K}; got {k}"
        )
    pats = [Permutation(word) for word in _all_perms(range(1, k + 1))]
    vectors: dict[Permutation, tuple[int, ...]] = {}
    for p in pats:
        enum = enumerate_class(Basis((p,)), n_max, budget=budget)
        if enum.truncated_at is not None:
            raise PermPatError("resource budget exceeded before reaching n_max")
        vectors[p] = tuple(enum.counts)
    buckets: dict[tuple[int, ...], list[Permutation]] = {}
    for p in pats:
        buckets.setdefault(vectors[p], []).append(p)
    classes = [
        (vec, sorted(members, key=lambda p: p.values))
        for vec, members in buckets.items()
    ]
    classes.sort(key=lambda item: item[1][0].values)
    orbit_map: dict[frozenset[Permutation], list[Permutation]] = {}
    for p in pats:
        key = frozenset(symmetry_orbit(p))
        orbit_map.setdefault(key, []).append(p)
    orbits = sorted(
        (sorted(members, key=lambda p: p.values) for members in orbit_map.values()),
        key=lambda ms: ms[0].values,
    )
    refines = all(
        len({vectors[p] for p in orbit}) == 1 for orbit in orbits
    )
    return WilfClassification(k, n_max, classes, orbits, refines)
