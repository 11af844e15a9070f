"""Classical permutation classes Av(B): enumeration, growth proxies, Wilf
equivalence and classification.

Enumeration walks the generating tree of Av(B): the children of a
length-n member are the members made by inserting the new maximum n+1
into one of its gaps.  This is exhaustive because classes are down-sets:
deleting the maximum from any member of Av_{n+1}(B) lands in Av_n(B).
A node is (word, x, sites): the member, the position x of its maximum,
and its active sites, the gaps where a new maximum keeps it in the class;
its children are made at its active sites and nowhere else.

Sites are inherited (West, Generating trees and the Catalan and Schröder
numbers, 1995): a site that is inactive stays inactive in every
descendant.  So the candidate sites of the child made at site h are the
images of its parent's active sites: a for a < h, both h and h+1, and a+1
for a > h.  An occurrence that kills a candidate g must use the new point,
and if it missed the child's maximum it would already have killed g's
preimage in the parent.  So it uses both, as a basis pattern's largest and
second-largest values, and each candidate is checked by perm's
"two-anchor" kernel, which searches the pattern minus those two values,
split by x and g, and returns at once when g lies on the wrong side of x
(the brute-force class counts in the test suite verify this restriction).

|L_{n+1}| is the number of active sites over L_n, so the walk never
builds its last level: a count-only run keeps one level of nodes and
streams level n_max - 1, adding up its sites, and never computes the sites
of a node that will have no children.  A witness run keeps each level's
words and builds level n_max from its parents' sites; the words are
sorted once per length as the witnesses are built.

Each length is charged to the budget as if it were stored: the walk stops
as soon as the lengths so far and the sites counted for the next one
exceed the budget, and the result is marked truncated at that next
length, the first n with |L_0| + ... + |L_n| > budget.

Each word is `bytes`, one byte per value, which slices, concatenates and
sorts like a tuple of ints in about a third of the memory.  Past length
255 the values no longer fit, and the words become tuples.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations, permutations as _all_perms
from typing import Iterable, Union

from .errors import InvalidBasisError, IterationCapError, PermPatError
from .perm import Permutation, _kernel, contains, symmetry_orbit

# A member is a one-line word: bytes while every value fits in a
# byte, a tuple of ints after that.  Both slice, concatenate and sort alike.
Word = Union[bytes, tuple[int, ...]]
# A node of the generating tree: a member, the position of its maximum and
# its active sites, the gaps where a new maximum keeps it in the class.
Node = tuple[Word, int, list[int]]
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


def _grow(
    level: list[Node], point: Word, hits: list, limit: int, keep: bool
) -> tuple[list[Node], int]:
    """The children of the nodes of `level`, one per active site, each with
    its own active sites, and how many sites they have in all: the size of
    the level after theirs.  The children are returned only if `keep`; the
    pass stops once the sites exceed `limit`."""
    children: list[Node] = []
    size = 0
    for word, _, sites in level:
        for i, x in enumerate(sites):
            child = word[:x] + point + word[x:]
            active = [*sites[:i], x, x + 1, *[a + 1 for a in sites[i + 1 :]]]
            for hit in hits:
                active = [g for g in active if not hit(child, g, x)]
            size += len(active)
            if keep:
                children.append((child, x, active))
        if size > limit:
            break
    return children, size


def enumerate_class(
    basis: Basis,
    n_max: int,
    with_witnesses: bool = False,
    budget: int | None = None,
) -> ClassEnumeration:
    """Count (and optionally list) Av_n(B) for n = 0..n_max.

    `budget` caps the total number of permutations of the lengths reported,
    each length charged as if stored; when it would be exceeded the result
    is truncated at that length, never silently wrong.  Witness lists are
    sorted lexicographically within each length.
    """
    if n_max < 0:
        raise PermPatError("n_max must be non-negative")
    if budget is None:
        budget = _default_budget()
    pats = tuple(p.values for p in basis.patterns)
    hits = [_kernel(p, "two-anchor") for p in pats if len(p) > 1]
    # The root is the empty word; its one gap is active unless 1 is in B,
    # and the empty pattern in B leaves no root at all.
    level: list[Node] = [] if () in pats else [(b"", 0, [] if (1,) in pats else [0])]
    counts = [len(level)]
    words: list[list[Word]] | None = [[b""] * len(level)] if with_witnesses else None
    stored = len(level)
    size = sum(len(sites) for _, _, sites in level)
    truncated_at: int | None = None
    for n in range(1, n_max + 1):
        if stored + size > budget:
            truncated_at = n
            break
        stored += size
        counts.append(size)
        if n == _BYTE_LIMIT + 1:  # values no longer fit in a byte
            level = [(tuple(word), x, sites) for word, x, sites in level]
        point: Word = bytes((n,)) if n <= _BYTE_LIMIT else (n,)
        if words is not None:
            words.append([w[:x] + point + w[x:] for w, _, sites in level for x in sites])
        if not size:
            counts.extend([0] * (n_max - n))
            if words is not None:
                words.extend([] for _ in range(n_max - n))
            break
        if n < n_max:
            level, size = _grow(level, point, hits, budget - stored,
                                keep=words is not None or n < n_max - 1)
    witnesses = None
    if words is not None:
        witnesses = [[Permutation(w) for w in sorted(level)] for level in words]
    return ClassEnumeration(basis, counts, witnesses, truncated_at)


# ---------------------------------------------------------------------------
# Growth-rate proxies


@dataclass
class GrowthEstimate:
    """Finite-prefix proxies for the upper/lower growth rates.

    values[n] = counts[n] ** (1/n) for n >= 1 (None at n = 0 and where the
    count is 0).  upper/lower are the max/min over the trailing window,
    whose length `window` is the one asked for, or the whole prefix's
    when that is shorter.
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
    window = min(window, len(counts) - 1)  # a truncated prefix has fewer terms
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
