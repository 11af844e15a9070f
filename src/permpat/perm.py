"""Core permutation type and structural operations.

Permutations are kept in one-line notation: a ``Permutation`` of length n
wraps a tuple containing each of 1..n exactly once.  All positions reported
by operations here (occurrences, intervals, extreme points) are 1-based, so
they line up with the notation sigma(1)...sigma(n).  Values are accessed
0-based via indexing, like any Python sequence.

Containment has one search plan and one source generator that reads it.
`_plan` says which pattern slots a mode searches for, which host segment
each lies in, between anchors such as "g" (a gap) and "x" (a position),
and which slots it takes as fixed at given host points.  There are four
modes:
- "first" (`contains`, `find_occurrence`) searches the whole pattern right
  of g = 0 and returns its least occurrence;
- "each" searches the same and yields every occurrence in turn, so
  `occurrences` lists it and barred matching streams it;
- "two-anchor", for the class enumerator, fixes a pattern's two largest
  values, the second largest at the host's maximum x and the largest at a
  new point inserted at gap g, and searches the rest in the three segments
  x and g split off, so no candidate is built to be searched;
- "extend", for barred matching, fixes the unbarred slots at the host
  points a0 < a1 < ... of one occurrence of the effective pattern, and
  searches only the barred slots, in the segments between those points
  and inside the value windows their host values leave.

`_source` writes Python source with one nested `for` loop per searched
slot, each testing inline the open window of host values that the fixed
or earlier slots holding the next smaller and next larger pattern values
leave it; `_kernel` compiles it once per (pattern, mode, barred slots)
and keeps it in a `functools.lru_cache` of 1024 entries.  CPython
compiles at most 20 nested loops, so a longer plan is written as blocks
of 20 slots, each a generator expression with the same tests as
clauses, and driven by an explicit stack of block generators: any
length compiles, and the recursion limit is never reached.

"first" has two guards, necessary tests that cut searches holding no
occurrence.  A host must have an increasing and a decreasing subsequence
as long as the pattern's longest ones; patience sorting on at most that
many piles checks it in one O(n log k) scan that stops as soon as the
piles fill.  And a slot with a smaller (larger) pattern value after it
must take a host point with a smaller (larger) value after it, tested
against suffix minima and maxima.  Both cost O(n), more than most
positive searches, so a nested search starts with arrays every point
passes and a budget of _FIRST_BUDGET loop steps per host entry.  Only a
search that spends it builds the arrays (ones no point passes if the
runs are missing) and switches them in.  If the slots it has placed
pass them, it carries on where it stands; else it starts again from its
first point, as no occurrence starts earlier.  Either way the search
order is unchanged, so the least occurrence is the one found, and the
work repeated is bounded by the budget.  A search in blocks builds its
arrays at once.

The structural half is one scan per decomposition: `_cut` for the sum and
skew components, and `_interval_ends`, the intervals from one start by a
running min/max scan, behind `intervals`, `is_simple` (first proper one)
and `substitution_decompose` (longest proper one per block).  Each takes
O(n^2) time at worst; `is_simple` and `substitution_decompose` O(n) memory.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from functools import lru_cache
from itertools import accumulate, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import MalformedPermutationError, PermPatError


class Permutation:
    """An arrangement of the numbers 1..n, immutable and hashable.

    >>> Permutation([3, 1, 2]).values
    (3, 1, 2)
    >>> len(Permutation([]))
    0
    """

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[int]):
        vals = tuple(values)
        n = len(vals)
        seen = [False] * n
        for v in vals:
            if type(v) is not int or v < 1 or v > n:  # bool is an int subclass
                raise MalformedPermutationError(
                    f"value {v!r} is not in the range 1..{n}"
                )
            if seen[v - 1]:
                raise MalformedPermutationError(f"duplicate value {v}")
            seen[v - 1] = True
        self._values = vals

    @property
    def values(self) -> tuple[int, ...]:
        return self._values

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def decreasing(cls, n: int) -> "Permutation":
        return cls(range(n, 0, -1))

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def __getitem__(self, i: int) -> int:
        return self._values[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self._values)

    def __repr__(self) -> str:
        return f"Permutation({list(self._values)!r})"

    def is_increasing(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self._values))

    def is_decreasing(self) -> bool:
        n = len(self._values)
        return all(v == n - i for i, v in enumerate(self._values))


def _tokenize(text: str) -> list[int]:
    """The integers of one-line notation, in order.

    Accepts whitespace/comma-delimited integers, or a compact digit string.
    The compact form is only unambiguous when every value is a single digit,
    so multi-digit values must be delimited.  Only ASCII digits are read.

    >>> _tokenize("314")
    [3, 1, 4]
    >>> _tokenize("10, 3 7")
    [10, 3, 7]
    """
    stripped = text.strip()
    if not stripped:
        return []
    if any(c.isspace() for c in stripped) or "," in stripped:
        parts = stripped.replace(",", " ").split()
    elif stripped.isdigit():
        parts = list(stripped)
    else:
        parts = [stripped]
    try:
        if not stripped.isascii() or "_" in stripped or "+" in stripped:
            raise ValueError("only ASCII digits, spaces and commas are read")
        return [int(p) for p in parts]
    except ValueError as exc:
        raise MalformedPermutationError(f"cannot parse {text!r}: {exc}") from None


def parse(text: str) -> Permutation:
    """Parse one-line notation (see `_tokenize`) into a permutation.

    >>> parse("314592687").values
    (3, 1, 4, 5, 9, 2, 6, 8, 7)
    >>> parse("7 10 1 4 9 14 2 11 3 13 12 6 8 5")[1]
    10
    """
    return Permutation(_tokenize(text))


def reduce_word(word: Sequence[int]) -> Permutation:
    """The reduction of a list of distinct integers: the i-th smallest
    entry becomes i.

    >>> reduce_word([4, 9, 6, 8]).values
    (1, 4, 2, 3)
    """
    if len(set(word)) != len(word):
        raise MalformedPermutationError("entries must be pairwise distinct")
    rank = {v: i + 1 for i, v in enumerate(sorted(word))}
    return Permutation(rank[v] for v in word)


# ---------------------------------------------------------------------------
# Containment

# CPython refuses to compile more statically nested blocks than this.
_MAX_LOOPS = 20


def _bounds(pat: Sequence[int]) -> tuple[list[int], list[int]]:
    """For each pattern slot t, the earlier slot holding the next smaller
    (resp. larger) value, or -1 if no earlier value lies on that side.
    Those two entries alone bound the host values slot t may take."""
    below_ref: list[int] = []
    above_ref: list[int] = []
    seen: list[int] = []  # values of the earlier slots, sorted
    slot = {v: t for t, v in enumerate(pat)}
    for v in pat:
        i = bisect_left(seen, v)
        below_ref.append(slot[seen[i - 1]] if i > 0 else -1)
        above_ref.append(slot[seen[i]] if i < len(seen) else -1)
        seen.insert(i, v)
    return below_ref, above_ref


def _monotone_run(seq: Iterable[int], sign: int, cap: int) -> int:
    """The length of seq's longest increasing (sign 1) or decreasing (sign
    -1) subsequence, or cap if that is less: patience sorting on at most
    cap piles, stopping as soon as they fill.  O(n log cap) time."""
    piles: list[int] = []  # piles[i]: the least last value (times sign) of a run of i + 1
    for v in seq:
        v *= sign
        i = bisect_left(piles, v)
        if i < len(piles):
            piles[i] = v
        elif i + 1 < cap:
            piles.append(v)
        else:
            return cap
    return len(piles)


def _has_runs(h: Sequence[int], g: int, runs: tuple[int, int]) -> bool:
    """Whether h right of gap g has an increasing subsequence of runs[0]
    entries and a decreasing one of runs[1]."""
    return all(_monotone_run(islice(h, g, None), sign, r) == r for sign, r in zip((1, -1), runs))


# Loop steps per host entry a compiled "first" search spends before it
# switches its guards on.  Building them costs about two steps per entry.
_FIRST_BUDGET = 16


def _guards(h: Sequence[int], g: int, runs: tuple[int, int]) -> tuple:
    """The guard arrays of a "first" search right of gap g in h, and the
    steps it has left, unbounded: the suffix minima and maxima (see
    `_after`), or arrays no point passes when h right of g lacks the
    pattern's monotone runs and so avoids it."""
    m = len(h)
    mins, maxs = _after(h) if _has_runs(h, g, runs) else (range(m + 1, 2 * m + 1), range(-m, 0))
    return mins, maxs, float("inf")


def _after(h: Sequence[int]) -> tuple[list[int], list[int]]:
    """mins[p] and maxs[p]: the least and the greatest value of h after
    position p (0-based); len(h) + 1 and 0 after the last position.  One
    plain loop: `accumulate` with `min` and `max` takes six times longer."""
    lo, hi = len(h) + 1, 0
    mins: list[int] = []
    maxs: list[int] = []
    for v in reversed(h):
        mins.append(lo)
        maxs.append(hi)
        if v < lo:
            lo = v
        if v > hi:
            hi = v
    mins.reverse()
    maxs.reverse()
    return mins, maxs


def _plan(pat: tuple[int, ...], mode: str,
          bars: tuple[int, ...] = ()) -> tuple[tuple[int, ...], tuple, tuple, tuple, tuple]:
    """The slots a mode searches for, in pattern order, the host segments
    they fall in, the slots it takes as fixed, and the guards of "first".
    A segment is (slot count, start, end), each bound an anchor ("0", "g",
    "x", "a0", "a1", ... or the host length "m") plus an offset, the end
    exclusive.  A fixed slot is (pattern value, anchor): the host point at
    that 1-based position holds it, and it bounds the value windows like
    an earlier slot.  "first" and "each" search pat whole, right of the gap g.
    "two-anchor" searches pat minus its two largest values: the second
    largest is the host's point at position x, the largest a new point at
    gap g, and the other slots fall in the three segments they split off.
    A segment after the point at x starts at x + 1; one after g at g.
    "extend" fixes pat's unbarred slots (those not in the 1-based `bars`)
    at the points a0 < a1 < ... and searches the barred slots in the
    segments between them: one after a_i starts at a_i, one before ends
    at a_i - 1.

    Only "first" has guards, two necessary tests.  `runs` is pat's longest
    increasing and decreasing run: a host right of g without runs that
    long avoids pat.  `ahead` says, per slot, whether a later slot holds
    a smaller value and whether one holds a larger: the host must then
    hold a smaller (larger) value after the slot's point.  The slot before
    the last is not guarded unless it is the first: its guard would be
    tested once per entry to the last loop, which finds the same at a
    cost only when it fails."""
    if mode == "extend":
        segments, fixed = [], []
        count, start = 0, ("0", 0)
        for i, v in enumerate(pat, 1):
            if i in bars:
                count += 1
                continue
            anchor = f"a{len(fixed)}"
            if count:
                segments.append((count, start, (anchor, -1)))
            fixed.append((v, anchor))
            count, start = 0, (anchor, 0)
        if count:
            segments.append((count, start, ("m", 0)))
        return tuple(pat[i - 1] for i in bars), tuple(segments), tuple(fixed), (), ()
    k = len(pat)
    if mode == "each":
        return pat, ((k, ("g", 0), ("m", 0)),), (), (), ()
    if mode == "first":
        mins, maxs = _after(pat)
        ahead = [(a < v, v < b) for a, v, b in zip(mins, pat, maxs)]
        if k > 2:
            ahead[k - 2] = (False, False)
        runs = (_monotone_run(pat, 1, k), _monotone_run(pat, -1, k))
        return pat, ((k, ("g", 0), ("m", 0)),), (), runs, tuple(ahead)
    (q, a, da), (r, b, db) = sorted([(pat.index(k - 1), "x", 1), (pat.index(k), "g", 0)])
    segments = ((q, ("0", 0), (a, 0)), (r - q - 1, (a, da), (b, 0)), (k - r - 1, (b, db), ("m", 0)))
    return tuple(v for v in pat if v < k - 1), segments, (), (), ()


def _anchors(segments: tuple, fixed: tuple) -> list[str]:
    """A plan's anchors, in the order the kernel takes them after h: g
    before x, and a0, a1, ..., a10 in numeric order."""
    names = {v for _, (s, _), (e, _) in segments for v in (s, e)} | {a for _, a in fixed}
    return sorted(names - {"0", "m"}, key=lambda a: (len(a), a))


# Per mode: the statement a kernel runs on an occurrence (given as a
# 1-based tuple), and the value it returns when there is none.
_EXISTS = ("return True", "False")
_RESULTS: dict[str, tuple[str, str]] = {
    "first": ("return {}", "None"),
    "each": ("yield {}", "None"),
    "two-anchor": _EXISTS,
    "extend": _EXISTS,
}


def _offset(name: str, c: int) -> str:
    return name if c == 0 else f"{name} + {c}" if c > 0 else f"{name} - {-c}"


def _source(pat: tuple[int, ...], mode: str, bars: tuple[int, ...] = ()) -> str:
    """Python source of `kernel(h, <anchors>=0)`, the search of
    `_plan(pat, mode, bars)`.  Slot t is placed at position p_t, which
    ranges up to the slot's exclusive end e_t, and its host value v_t is
    read once if a later test needs it; the value-window tests are
    inlined, and the first slot of each segment starts at the segment's
    start.  A segment too short for its slots, or one between the two
    anchors that they invert, returns at once.  Variables are numbered
    fixed slots first, so the fixed slots' values are read once, before
    the search.  "each" pads the host with a leading 0, so its positions
    are the 1-based ones it yields.

    At most _MAX_LOOPS searched slots are nested `for` loops over the
    locals p3, v3, e3, ...  "first" is then `kernel(h, g=0, guards=())`.
    A slot of `ahead` also tests its value against mins or maxs at its
    point, and each loop but the outermost that runs out is charged its
    length against `steps`.  A call without `guards` starts with no
    arrays, so no guard is tested, and _FIRST_BUDGET steps per host
    entry.  Once they are spent, the search takes `_guards(h, p0, runs)`
    and carries on where it stands if the slots it has placed pass them,
    else starts again from its first point p0 with them.

    Longer plans, which CPython cannot nest, keep the slots in the lists
    P, V and E and cut them into blocks of _MAX_LOOPS, each a generator
    expression whose clauses assign P[t] and V[t] and test the slot.  A
    stack of block generators stands for the search: a placement pushes
    the next block, a block that runs out is popped, and a placement of
    the last block is an occurrence.  So nothing recurses at run time.
    "first" takes `_guards(h, g, runs)` at once, with no step budget."""
    slots, segments, fixed, runs, ahead = _plan(pat, mode, bars)
    found, missing = _RESULTS[mode]
    f = len(fixed)
    k = f + len(slots)
    blocks = len(slots) > _MAX_LOOPS
    # slot t's position, value and end: p3, v3, e3 nested, P[3], V[3], E[3] in blocks
    pos, val, stop = ([f"{c}[{t}]" if blocks else f"{c.lower()}{t}" for t in range(k)] for c in "PVE")
    below, above = _bounds(tuple(v for v, _ in fixed) + slots)
    guard_of = {t: f"{f'mins[{pos[t]}] < ' if lt else ''}{val[t]}{f' < maxs[{pos[t]}]' if gt else ''}"
                for t, (lt, gt) in enumerate(ahead, f) if lt or gt}
    read_later = set(below[f:]) | set(above[f:]) | set(guard_of)
    params = [a + "=0" for a in _anchors(segments, fixed)] + (["guards=()"] if guard_of else [])
    lines = [f"def kernel(h, {', '.join(params)}):", "    m = len(h)"]
    base = 0
    if mode == "each":
        base = 1
        lines += ["    h = (0, *h)"]
    comma = "," if k - f == 1 else ""
    occ = f"({', '.join(_offset(pos[t], 1 - base) for t in range(f, k))}{comma})"
    short = [f"{e if s == '0' else f'{e} - {s}'} < {c + ds - de}"
             for c, (s, ds), (e, de) in segments if c or s != "0" and e != "m"]
    if short:
        lines += [f"    if {' or '.join(short)}:", f"        return {missing}"]
    if blocks:
        lines += [f"    P, V, E = [0] * {k}, [0] * {k}, [0] * {k}"]
    if guard_of:
        spare = f"_guards(h, g, {runs})" if blocks else f"((), (), {_FIRST_BUDGET} * m)"
        lines += [f"    mins, maxs, steps = guards or {spare}"]
    lines += [f"    {val[t]} = h[{_offset(a, base - 1)}]" for t, (_, a) in enumerate(fixed) if t in read_later]
    starts: dict[int, str] = {}
    ends: list[str] = []  # exclusive end of each slot: room is left for the slots after it
    for c, (s, ds), (e, de) in segments:
        if c:
            starts[f + len(ends)] = _offset(s, ds + base)
        ends += [_offset(e, de + base + i - c + 1) for i in range(c)]
    lines += [f"    {stop[f + t]} = {end}" for t, end in enumerate(ends)]
    indent = "    "
    clauses: list[str] = []  # per searched slot, its generator clauses in blocks
    charges: list[str] = []  # after each loop but the outermost, innermost first
    for t in range(f, k):
        if guard_of and t > f and not blocks:
            placed = " and ".join(guard_of[u] for u in range(f, t) if u in guard_of)
            charges[:0] = [f"{indent}steps -= e{t} - p{t - 1} - 1", f"{indent}if steps < 0:",
                           f"{indent}    mins, maxs, steps = guards = _guards(h, p{f}, {runs})",
                           f"{indent}    if not ({placed}):", f"{indent}        return kernel(h, p{f}, guards)"]
        loop = f"for {pos[t]} in range({starts.get(t, f'{pos[t - 1]} + 1')}, {stop[t]})"
        read = f"h[{pos[t]}]"
        value = val[t] if t in read_later else read
        test = value
        if below[t] >= 0:
            test = f"{val[below[t]]} < {test}"
        if above[t] >= 0:
            test = f"{test} < {val[above[t]]}"
        tests = [test] if test != value else []
        if t in guard_of:  # nested, not tested before the budget is spent
            guard = guard_of[t]
            tests.append(guard if blocks else f"(not mins or {guard})" if tests else f"not mins or {guard}")
        if blocks:
            clause = [loop]
            if value != read:
                clause.append(f"for {value} in ({read},)")
            if tests:
                clause.append(f"if {' and '.join(tests)}")
            clauses.append(" ".join(clause))
            continue
        lines.append(f"{indent}{loop}:")
        indent += "    "
        if value != read:
            lines.append(f"{indent}{value} = {read}")
        if tests:
            lines.append(f"{indent}if {' and '.join(tests)}:")
            indent += "    "
    if blocks:
        cut = range(0, len(clauses), _MAX_LOOPS)
        lines += ["    blocks = ("] + [f"        lambda: (None {' '.join(clauses[i:i + _MAX_LOOPS])}),"
                                       for i in cut]
        lines += ["    )", "    stack = [blocks[0]()]", "    while stack:",
                  "        if next(stack[-1], True):", "            stack.pop()",
                  f"        elif len(stack) < {len(cut)}:", "            stack.append(blocks[len(stack)]())",
                  "        else:"]
        indent = "            "
    lines.append(indent + found.format(occ))
    lines += charges
    lines.append(f"    return {missing}")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=1024)
def _kernel(pat: tuple[int, ...], mode: str, bars: tuple[int, ...] = ()) -> Callable:
    """The compiled search of `_plan(pat, mode, bars)` (see `_source`),
    built once per (pattern, mode, bars).  "first" and "each" are
    `kernel(h, g=0)`: the least occurrence (1-based) or None, and a
    generator of every occurrence in lexicographic order.  "two-anchor"
    is `kernel(h, g=0, x=0)`: whether an occurrence of pat uses both h's
    point at x, as pat's second largest value, and a new point larger
    than all of h inserted at gap g (0-based), as its largest.  "extend"
    is `kernel(h, a0, a1, ...)`: whether host points can fill the barred
    slots `bars` (1-based, sorted) of pat so that pat occurs with its
    other slots at the 1-based positions a0 < a1 < ...."""
    namespace: dict = {"_guards": _guards}
    exec(compile(_source(pat, mode, bars), f"<kernel {mode} {pat}>", "exec"), namespace)
    return namespace["kernel"]


def contains(host: Permutation, pattern: Permutation) -> bool:
    """True iff host has a subsequence order isomorphic to pattern.

    >>> contains(parse("314592687"), parse("1423"))
    True
    >>> contains(parse("314592687"), parse("3241"))
    False
    """
    return _kernel(pattern.values, "first")(host.values) is not None


def find_occurrence(host: Permutation, pattern: Permutation) -> tuple[int, ...] | None:
    """The lexicographically least occurrence (1-based index tuple), or
    None when the pattern is avoided.  A host without a decreasing run of
    three avoids 4321 after one scan, however long it is.

    >>> find_occurrence(parse("314592687"), parse("1423"))
    (1, 5, 7, 8)
    >>> print(find_occurrence(parse("2 1 4 3 6 5 8 7"), parse("4321")))
    None
    """
    return _kernel(pattern.values, "first")(host.values)


def occurrences(host: Permutation, pattern: Permutation) -> list[tuple[int, ...]]:
    """All occurrences as 1-based index tuples, sorted lexicographically."""
    return list(_kernel(pattern.values, "each")(host.values))


# ---------------------------------------------------------------------------
# Sums and decompositions


def direct_sum(sigma: Permutation, *more: Permutation) -> Permutation:
    """sigma followed by a shifted copy of each further summand.

    >>> str(direct_sum(parse("2413"), parse("4231")))
    '2 4 1 3 8 6 7 5'
    """
    vals = list(sigma.values)
    for tau in more:
        shift = len(vals)
        vals.extend(v + shift for v in tau.values)
    return Permutation(vals)


def skew_sum(sigma: Permutation, *more: Permutation) -> Permutation:
    """Each summand placed above and to the left of the next.

    >>> str(skew_sum(parse("2413"), parse("4231")))
    '6 8 5 7 4 2 3 1'
    """
    perms = (sigma,) + more
    vals: list[int] = []
    remaining = sum(len(p) for p in perms)
    for p in perms:
        remaining -= len(p)
        vals.extend(v + remaining for v in p.values)
    return Permutation(vals)


def _cut(sigma: Permutation, word: Sequence[int]) -> list[Permutation]:
    """sigma cut after each position i (0-based) where the running maximum
    of `word` reaches i + 1, each block shifted down by its minimum."""
    vals = sigma.values
    if not vals:
        raise PermPatError("cannot decompose the empty permutation")
    comps: list[Permutation] = []
    start = top = 0
    for i, v in enumerate(word):
        if v > top:
            top = v
        if top == i + 1:
            block = vals[start : i + 1]
            shift = min(block) - 1
            comps.append(Permutation(w - shift for w in block))
            start = i + 1
    return comps


def sum_decompose(sigma: Permutation) -> list[Permutation]:
    """The unique decomposition into sum-indecomposable components."""
    return _cut(sigma, sigma.values)


def skew_decompose(sigma: Permutation) -> list[Permutation]:
    """The unique decomposition into skew-indecomposable components."""
    n = len(sigma)
    return _cut(sigma, [n + 1 - v for v in sigma.values])


def is_layered(sigma: Permutation) -> bool:
    """True iff sigma is a direct sum of decreasing permutations.  The
    empty permutation is layered (an empty sum)."""
    return len(sigma) == 0 or all(c.is_decreasing() for c in sum_decompose(sigma))


# ---------------------------------------------------------------------------
# Intervals, simplicity, inflation


class Interval(NamedTuple):
    """An inclusive 1-based index range whose value set is contiguous."""

    start: int
    end: int


def _interval_ends(vals: Sequence[int], a: int) -> Iterator[int]:
    """The ends b, increasing, of the intervals vals[a..b] (0-based,
    inclusive): a scan right from a with a running minimum and maximum."""
    mn = mx = vals[a]
    for b in range(a, len(vals)):
        v = vals[b]
        if v < mn:
            mn = v
        elif v > mx:
            mx = v
        if mx - mn == b - a:
            yield b


def intervals(sigma: Permutation) -> list[Interval]:
    """All intervals of length >= 1, sorted by (start, end).

    The length-0 interval exists by convention but has no positional
    representation and is not listed.
    """
    vals = sigma.values
    return [Interval(a + 1, b + 1) for a in range(len(vals)) for b in _interval_ends(vals, a)]


def is_simple(sigma: Permutation) -> bool:
    """True iff sigma has no intervals besides singletons and the full
    range.  Under this raw criterion the permutations of lengths 1 and 2
    count as simple; substitution skeletons still have length >= 2."""
    vals = sigma.values
    n = len(vals)
    return not any(a < b < a + n - 1 for a in range(n) for b in _interval_ends(vals, a))


def inflate(skeleton: Permutation, components: Sequence[Permutation]) -> Permutation:
    """Replace each entry of the skeleton with an interval copy of the
    corresponding component.

    >>> str(inflate(parse("3142"), [parse("123"), parse("1"), parse("21"), parse("312")]))
    '5 6 7 1 9 8 4 2 3'
    """
    if len(components) != len(skeleton):
        raise PermPatError(f"expected {len(skeleton)} components, got {len(components)}")
    if any(len(c) == 0 for c in components):
        raise PermPatError("inflation components must be nonempty")
    size_of = [0] * (len(skeleton) + 1)
    for s, comp in zip(skeleton.values, components):
        size_of[s] = len(comp)
    below = list(accumulate(size_of))  # below[s - 1]: total size of the blocks under entry s
    return Permutation(
        v + below[s - 1] for s, comp in zip(skeleton.values, components) for v in comp.values
    )


def substitution_decompose(sigma: Permutation) -> tuple[Permutation, list[Permutation]]:
    """Express sigma as the inflation of a simple skeleton of length >= 2.

    When the skeleton would be 12 (resp. 21) the components are the full
    sum (resp. skew) decomposition, so the skeleton is the increasing
    (resp. decreasing) permutation of that length; this canonical form
    resolves the associativity ambiguity of nested 12/21 inflations.
    """
    if len(sigma) <= 1:
        raise PermPatError(
            "a permutation of length <= 1 is not an inflation of a shorter permutation"
        )
    comps = sum_decompose(sigma)
    if len(comps) > 1:
        return Permutation.identity(len(comps)), comps
    comps = skew_decompose(sigma)
    if len(comps) > 1:
        return Permutation.decreasing(len(comps)), comps
    # Neither sum nor skew decomposable: the maximal proper intervals
    # partition the positions, so each block is the longest proper interval
    # from its start, and the next block starts after it.  The blocks are
    # maximal, so the skeleton they leave is simple.
    vals = sigma.values
    n = len(vals)
    blocks = []
    a = 0
    while a < n:
        end = max(b for b in _interval_ends(vals, a) if b - a < n - 1)
        blocks.append(vals[a : end + 1])
        a = end + 1
    skeleton = reduce_word([min(block) for block in blocks])
    return skeleton, [reduce_word(block) for block in blocks]


# ---------------------------------------------------------------------------
# Extreme points


EXTREMAL_KINDS = ("lr-max", "lr-min", "rl-max", "rl-min")


def extremal(sigma: Permutation, kind: str) -> list[int]:
    """1-based positions of the requested extreme points, increasing.

    A left-to-right maximum is larger than all values to its left; the
    other three kinds are the analogous records.
    """
    if kind not in EXTREMAL_KINDS:
        raise PermPatError(f"unknown extremal kind {kind!r}; expected one of {EXTREMAL_KINDS}")
    vals = sigma.values
    step = 1 if kind.startswith("lr") else -1
    sign = 1 if kind.endswith("max") else -1
    best = -len(vals) - 1
    out: list[int] = []
    for i in range(len(vals))[::step]:
        if sign * vals[i] > best:
            best = sign * vals[i]
            out.append(i + 1)
    return sorted(out)


# ---------------------------------------------------------------------------
# Symmetries of the square


class Symmetry(Enum):
    """The 8-element group generated by reverse, complement and inverse.

    Each member's value is its generator word, applied left to right.
    """

    IDENTITY = ""
    REVERSE = "r"
    COMPLEMENT = "c"
    ROTATE = "rc"  # reverse then complement: 180-degree rotation
    INVERSE = "i"
    REVERSE_INVERSE = "ri"
    COMPLEMENT_INVERSE = "ci"
    ROTATE_INVERSE = "rci"

    @classmethod
    def from_name(cls, name: str) -> "Symmetry":
        key = name.strip().lower().replace("-", "_")
        try:
            return cls[key.upper()]
        except KeyError:
            raise PermPatError(
                f"unknown symmetry {name!r}; expected one of "
                + ", ".join(s.name.lower().replace("_", "-") for s in cls)
            ) from None

    def apply(self, sigma: Permutation) -> Permutation:
        vals = sigma.values
        for gen in self.value:
            n = len(vals)
            if gen == "r":
                vals = vals[::-1]
            elif gen == "c":
                vals = tuple(n + 1 - v for v in vals)
            else:  # "i"
                inv = [0] * n
                for i, v in enumerate(vals):
                    inv[v - 1] = i + 1
                vals = tuple(inv)
        return Permutation(vals)


def symmetry_orbit(sigma: Permutation) -> set[Permutation]:
    """The images of sigma under all 8 square symmetries."""
    return {s.apply(sigma) for s in Symmetry}
