"""Non-classical patterns: mesh, vincular, bivincular, consecutive, barred.

Mesh patterns are the unifying engine.  A mesh pattern is a pattern
permutation of length k together with a set of shaded cells (i, j) with
0 <= i, j <= k, each naming the lower-left corner of a unit square of the
pattern's plot.  An occurrence is a classical occurrence such that no host
point falls in any shaded region, where cell (i, j) maps to the open host
rectangle between matched positions i, i+1 and matched values of ranks
j, j+1 (with sentinels 0 and n+1 on both axes).  Matching lists every
classical occurrence and keeps it by a predicate compiled once per (pattern,
shading): one O(1) test per maximal run of shaded rows in a column, against
the host's prefix bitsets (O(n^2/64) words, built once per call).

Vincular and bivincular patterns compile to mesh patterns (full columns,
resp. full rows).  A barred pattern is matched from two kernels of `perm`:
the stream of its effective pattern's occurrences, and the search of the
barred slots with the unbarred ones fixed at such an occurrence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Union

from .errors import PatternSyntaxError, PermPatError
from .perm import Permutation, _kernel, occurrences, reduce_word


@dataclass(frozen=True)
class MeshPattern:
    pattern: Permutation
    shaded: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        k = len(self.pattern)
        object.__setattr__(self, "shaded", frozenset(tuple(c) for c in self.shaded))
        for i, j in self.shaded:
            if not (0 <= i <= k and 0 <= j <= k):
                raise PermPatError(
                    f"shaded cell ({i}, {j}) outside [0, {k}] x [0, {k}]"
                )


@dataclass(frozen=True)
class VincularPattern:
    """Pattern with adjacency requirements: i in adjacent_positions means
    pattern positions i and i+1 must be matched to adjacent host positions."""

    pattern: Permutation
    adjacent_positions: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        k = len(self.pattern)
        object.__setattr__(
            self, "adjacent_positions", frozenset(self.adjacent_positions)
        )
        for i in self.adjacent_positions:
            if not 1 <= i <= k - 1:
                raise PermPatError(f"adjacency index {i} outside 1..{k - 1}")


@dataclass(frozen=True)
class BivincularPattern:
    """Vincular constraints plus value adjacencies: v in adjacent_values
    means the host values matched to pattern values v and v+1 must be
    consecutive integers."""

    pattern: Permutation
    adjacent_positions: frozenset[int] = field(default_factory=frozenset)
    adjacent_values: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        k = len(self.pattern)
        object.__setattr__(
            self, "adjacent_positions", frozenset(self.adjacent_positions)
        )
        object.__setattr__(self, "adjacent_values", frozenset(self.adjacent_values))
        for i in self.adjacent_positions:
            if not 1 <= i <= k - 1:
                raise PermPatError(f"adjacency index {i} outside 1..{k - 1}")
        for v in self.adjacent_values:
            if not 1 <= v <= k - 1:
                raise PermPatError(f"value adjacency {v} outside 1..{k - 1}")


@dataclass(frozen=True)
class BarredPattern:
    """A permutation with some positions barred.

    The effective pattern is the reduction of the unbarred entries; an
    occurrence of the barred pattern is an occurrence of the effective
    pattern that does not extend to an occurrence of the whole pattern.
    """

    pattern: Permutation
    barred: frozenset[int]

    def __post_init__(self) -> None:
        k = len(self.pattern)
        object.__setattr__(self, "barred", frozenset(self.barred))
        if not self.barred or len(self.barred) >= k:
            raise PermPatError(
                "a barred pattern needs at least one barred and one unbarred entry"
            )
        for i in self.barred:
            if not 1 <= i <= k:
                raise PermPatError(f"barred position {i} outside 1..{k}")

    @property
    def unbarred_positions(self) -> tuple[int, ...]:
        return tuple(
            i for i in range(1, len(self.pattern) + 1) if i not in self.barred
        )

    @property
    def effective(self) -> Permutation:
        """The reduction of the unbarred entries."""
        return reduce_word([self.pattern[i - 1] for i in self.unbarred_positions])


Pattern = Union[Permutation, MeshPattern, VincularPattern, BivincularPattern, BarredPattern]


# ---------------------------------------------------------------------------
# Matching


@lru_cache(maxsize=1024)
def _mesh_filter(pat: tuple[int, ...], shaded: frozenset) -> Callable:
    """`keeper(h, B, N)` for a host h of length N - 1 with prefix bitsets B:
    a predicate on 1-based occurrences of pat testing each column's maximal
    runs of shaded rows, with sentinels p0 = q0 = 0, p(k+1) = q(k+1) = N."""
    p = ["0", *(f"p{s}" for s in range(1, len(pat) + 1)), "N"]
    q = ["0", *(f"h[p{pat.index(v) + 1} - 1]" for v in range(1, len(pat) + 1)), "N"]
    starts = sorted(c for c in shaded if (c[0], c[1] - 1) not in shaded)
    ends = sorted(c for c in shaded if (c[0], c[1] + 1) not in shaded)
    tests = [f"not (B[{p[i + 1]} - 1] ^ B[{p[i]}]) & ((1 << {q[b + 1]}) - (2 << {q[a]}))"
             for (i, a), (_, b) in zip(starts, ends)]
    source = (f"def keeper(h, B, N):\n    def keep(o):\n        [{', '.join(p[1:-1])}] = o\n"
              f"        return {' and '.join(tests) or 'True'}\n    return keep\n")
    namespace: dict = {}
    exec(compile(source, f"<mesh filter {pat}>", "exec"), namespace)
    return namespace["keeper"]


def mesh_occurrences(host: Permutation, mp: MeshPattern) -> list[tuple[int, ...]]:
    """Classical occurrences of the pattern whose shaded regions contain no
    host point, sorted by index tuple (1-based).

    Every classical occurrence is listed, then kept by a predicate compiled
    once per (pattern, shading): one O(1) prefix-bitset test per run of
    shaded rows in a column, with O(n^2/64) words of bitsets per call.

    Shading the cell (1, 0) under and between the two entries of 12 asks
    that no smaller value lie between them:

    >>> mesh_occurrences(Permutation([2, 4, 1, 3]), MeshPattern(Permutation([1, 2]), {(1, 0)}))
    [(1, 2), (3, 4)]
    """
    h = host.values
    B = [0]
    for v in h:
        B.append(B[-1] | 1 << v)
    keep = _mesh_filter(mp.pattern.values, mp.shaded)(h, B, len(h) + 1)
    return list(filter(keep, occurrences(host, mp.pattern)))


def compile_vincular(vp: VincularPattern) -> MeshPattern:
    """Adjacency at position i becomes the fully shaded column i."""
    k = len(vp.pattern)
    cells = {(i, j) for i in vp.adjacent_positions for j in range(k + 1)}
    return MeshPattern(vp.pattern, frozenset(cells))


def compile_bivincular(bp: BivincularPattern) -> MeshPattern:
    """Position adjacencies shade full columns; value adjacencies shade
    full rows."""
    k = len(bp.pattern)
    cells = {(i, j) for i in bp.adjacent_positions for j in range(k + 1)}
    cells |= {(i, v) for v in bp.adjacent_values for i in range(k + 1)}
    return MeshPattern(bp.pattern, frozenset(cells))


def consecutive_pattern(pattern: Permutation) -> VincularPattern:
    """The vincular pattern requiring all terms to occur contiguously."""
    return VincularPattern(pattern, frozenset(range(1, len(pattern))))


def vincular_occurrences(
    host: Permutation, vp: VincularPattern | BivincularPattern
) -> list[tuple[int, ...]]:
    if isinstance(vp, BivincularPattern):
        return mesh_occurrences(host, compile_bivincular(vp))
    return mesh_occurrences(host, compile_vincular(vp))


def vincular_count(host: Permutation, vp: VincularPattern | BivincularPattern) -> int:
    return len(vincular_occurrences(host, vp))


def barred_contains(host: Permutation, bp: BarredPattern) -> bool:
    """True iff some occurrence of the effective pattern is not part of an
    occurrence of the whole pattern, i.e. no full occurrence restricts to
    it at the unbarred positions.  Avoidance therefore means every
    effective-pattern occurrence extends to a full one.

    The effective occurrences are streamed in lexicographic order, and for
    each one only the barred slots are searched, in the host segments
    between its points; the first that does not extend answers True.
    Besides one copy of the host, the memory used is O(k) for a pattern of
    length k.

    In 53`21`4 the effective pattern is 312.  In 53214 its occurrence
    (1, 2, 5) leaves no room for the barred 3 between its first two points,
    so it does not extend; 123456 has no 312 at all:

    >>> bp = parse_pattern("53`21`4")
    >>> barred_contains(Permutation([5, 3, 2, 1, 4]), bp)
    True
    >>> barred_contains(Permutation.identity(6), bp)
    False
    """
    h = host.values
    extends = _kernel(bp.pattern.values, "extend", tuple(sorted(bp.barred)))
    return any(not extends(h, *occ) for occ in _kernel(bp.effective.values, "each")(h))


# ---------------------------------------------------------------------------
# Parsing


def _parse_digit(ch: str, position: int) -> int:
    if not "1" <= ch <= "9":
        raise PatternSyntaxError(f"expected a digit 1-9, got {ch!r}", position)
    return int(ch)


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_cell(x: object) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(map(_is_int, x))


def _json_list(doc: dict, key: str, cells: bool = False) -> list:
    """doc[key] (absent: empty), checked to be a list of integers, or of
    [column, row] integer pairs when `cells`."""
    value = doc.get(key, [])
    if not isinstance(value, list) or not all(map(_is_cell if cells else _is_int, value)):
        what = "[column, row] integer pairs" if cells else "integers"
        raise PatternSyntaxError(f"pattern JSON field {key!r} must be a list of {what}", 0)
    return value


# The fields that make a JSON pattern each kind; one document holds at most
# one kind's fields.
_JSON_KINDS = ({"shaded"}, {"adjacent_positions", "adjacent_values"}, {"barred"})


def _pattern_from_json(doc: dict) -> Pattern:
    if "perm" not in doc:
        raise PatternSyntaxError("pattern JSON needs a 'perm' field", 0)
    unknown = sorted(doc.keys() - {"perm"}.union(*_JSON_KINDS))
    if unknown:
        raise PatternSyntaxError(f"pattern JSON has an unknown field {unknown[0]!r}", 0)
    if sum(1 for kind in _JSON_KINDS if kind & doc.keys()) > 1:
        raise PatternSyntaxError(
            "pattern JSON mixes the fields of two kinds: 'shaded', the 'adjacent_*' "
            "pair and 'barred' each make one", 0)
    perm = Permutation(_json_list(doc, "perm"))
    if "shaded" in doc:
        return MeshPattern(perm, _json_list(doc, "shaded", cells=True))
    if "adjacent_values" in doc:
        return BivincularPattern(
            perm, _json_list(doc, "adjacent_positions"), _json_list(doc, "adjacent_values")
        )
    if "adjacent_positions" in doc:
        return VincularPattern(perm, _json_list(doc, "adjacent_positions"))
    if "barred" in doc:
        return BarredPattern(perm, _json_list(doc, "barred"))
    return perm


def parse_pattern(text: str) -> Pattern:
    """Parse pattern notation.

    Grammar:
      - classical: one-line notation ("231", "2 3 1").
      - vincular: digit groups joined by '-' ("2-31-4"); terms inside a
        group must be adjacent in the host.
      - barred: digits, each optionally followed by a backtick marking a
        bar ("53`21`4" bars the entries 3 and 1).
      - mesh / bivincular: a JSON object, e.g.
        {"perm": [3,2,4,1], "shaded": [[0,2],[1,3],[1,4],[4,2],[4,3]]}
        or {"perm": [...], "adjacent_positions": [...], "adjacent_values": [...]}.
    """
    stripped = text.strip()
    if not stripped:
        raise PatternSyntaxError("empty pattern", 0)
    if stripped.startswith("{"):
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise PatternSyntaxError(f"bad pattern JSON: {exc.msg}", exc.pos) from None
        except RecursionError:
            raise PatternSyntaxError("pattern JSON is nested too deeply", 0) from None
        return _pattern_from_json(doc)
    if "-" in stripped:
        values: list[int] = []
        adjacencies: set[int] = set()
        expect_digit = True
        for pos, ch in enumerate(stripped):
            if ch == "-":
                if expect_digit:
                    raise PatternSyntaxError("misplaced '-'", pos)
                expect_digit = True
            else:
                if not expect_digit and values:
                    adjacencies.add(len(values))  # no dash: adjacent to previous
                values.append(_parse_digit(ch, pos))
                expect_digit = False
        if expect_digit:
            raise PatternSyntaxError("pattern ends with '-'", len(stripped) - 1)
        return VincularPattern(Permutation(values), frozenset(adjacencies))
    if "`" in stripped:
        values = []
        barred: set[int] = set()
        for pos, ch in enumerate(stripped):
            if ch == "`":
                if not values or (len(values) in barred):
                    raise PatternSyntaxError("misplaced bar", pos)
                barred.add(len(values))
            else:
                values.append(_parse_digit(ch, pos))
        return BarredPattern(Permutation(values), frozenset(barred))
    from .perm import parse as _parse_perm

    return _parse_perm(stripped)
