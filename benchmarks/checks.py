"""Independent oracles for every answer the benchmark asks the CLI for.

Nothing here imports permpat.  Each check re-derives the expected answer
from a definition (index subsets, known counting sequences, direct
evaluation of a statistic) and compares it with the text the CLI printed,
so a wrong fast path in the library cannot also make its own check pass.
A check is a function from the captured stdout to a bool.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import combinations

# Known counting sequences, index n = length (OEIS A000108, A022558,
# A006318 shifted by one, A005802, A061552).
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]
AV_1342 = [1, 1, 2, 6, 23, 103, 512, 2740, 15485, 91245, 555662]
AV_2413_3142 = [1, 1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098]
AV_1234 = [1, 1, 2, 6, 23, 103, 513, 2761, 15767, 94359]
AV_1324 = [1, 1, 2, 6, 23, 103, 513, 2762, 15793]

Perm = tuple[int, ...]


def compact(p: Perm) -> str:
    return "".join(map(str, p))


def spaced(p: Perm) -> str:
    return " ".join(map(str, p))


def reduce(word) -> Perm:
    ranks = {v: r for r, v in enumerate(sorted(word), 1)}
    return tuple(ranks[v] for v in word)


# ---------------------------------------------------------------------------
# Occurrences by index-subset enumeration


@lru_cache(maxsize=None)
def occurrences(host: Perm, pattern: Perm) -> tuple[Perm, ...]:
    """All 1-based index subsets of host whose values reduce to pattern, in
    lexicographic order.  Subsets are grown left to right and a prefix is
    kept only while it reduces to the pattern's prefix."""
    n, k = len(host), len(pattern)
    below = [[j for j in range(t) if pattern[j] < pattern[t]] for t in range(k)]
    above = [[j for j in range(t) if pattern[j] > pattern[t]] for t in range(k)]
    out: list[Perm] = []
    chosen: list[int] = []

    def grow(start: int) -> None:
        t = len(chosen)
        if t == k:
            out.append(tuple(i + 1 for i in chosen))
            return
        lo = max((host[chosen[j]] for j in below[t]), default=0)
        hi = min((host[chosen[j]] for j in above[t]), default=n + 1)
        for i in range(start, n - (k - t) + 1):
            if lo < host[i] < hi:
                chosen.append(i)
                grow(i + 1)
                chosen.pop()

    grow(0)
    return tuple(out)


@lru_cache(maxsize=None)
def length3_counts(host: Perm) -> dict[Perm, int]:
    """Occurrence counts of all six length-3 patterns, by one pass over all
    3-subsets.  Every subset reduces to exactly one of them, so the counts
    sum to C(n, 3)."""
    tally: dict[Perm, int] = {}
    for a, b, c in combinations(host, 3):
        key = reduce((a, b, c))
        tally[key] = tally.get(key, 0) + 1
    if sum(tally.values()) != math.comb(len(host), 3):
        raise AssertionError("length-3 tally does not sum to C(n, 3)")
    return tally


def mesh_occurrences(host: Perm, pattern: Perm, shaded) -> list[Perm]:
    """Classical occurrences whose shaded cells hold no host point: cell
    (i, j) is the open box between the i-th and (i+1)-th matched positions
    and the j-th and (j+1)-th smallest matched values (0 and n+1 border)."""
    n = len(host)
    kept = []
    for occ in occurrences(host, pattern):
        xs = (0, *occ, n + 1)
        ys = (0, *sorted(host[i - 1] for i in occ), n + 1)
        if not any(
            ys[j] < host[x - 1] < ys[j + 1]
            for i, j in shaded
            for x in range(xs[i] + 1, xs[i + 1])
        ):
            kept.append(occ)
    return kept


def vincular_occurrences(host: Perm, dashed: str) -> list[Perm]:
    """Occurrences of a dashed pattern such as 2-31-4: entries written next
    to each other must sit at adjacent host positions."""
    pattern = tuple(int(c) for c in dashed if c != "-")
    adjacent = []  # pattern indices t whose entry must follow entry t-1 directly
    t = 0
    for group in dashed.split("-"):
        adjacent.extend(range(t + 1, t + len(group)))
        t += len(group)
    return [
        occ for occ in occurrences(host, pattern)
        if all(occ[t] == occ[t - 1] + 1 for t in adjacent)
    ]


def bivincular_occurrences(host: Perm, doc: dict) -> list[Perm]:
    """Occurrences with adjacent positions (1-based pattern positions i, i+1)
    and adjacent values (host values matched to pattern values v, v+1
    differ by one)."""
    pattern = tuple(doc["perm"])
    where = {v: t for t, v in enumerate(pattern)}
    out = []
    for occ in occurrences(host, pattern):
        if not all(occ[i] == occ[i - 1] + 1 for i in doc["adjacent_positions"]):
            continue
        if all(host[occ[where[v + 1]] - 1] == host[occ[where[v]] - 1] + 1
               for v in doc["adjacent_values"]):
            out.append(occ)
    return out


def barred_contains(host: Perm, barred_text: str) -> bool:
    """53`21`4-style barred pattern: true iff some occurrence of the
    unbarred entries cannot be completed to an occurrence of the whole
    pattern by host points in the right gaps."""
    pattern: list[int] = []
    barred: set[int] = set()
    for ch in barred_text:
        if ch == "`":
            barred.add(len(pattern) - 1)
        else:
            pattern.append(int(ch))
    k = len(pattern)
    free = [t for t in range(k) if t not in barred]
    for occ in occurrences(host, reduce([pattern[t] for t in free])):
        fixed = {t: i - 1 for t, i in zip(free, occ)}
        if not _completes(host, pattern, fixed):
            return True
    return False


def _completes(host: Perm, pattern: list[int], fixed: dict[int, int]) -> bool:
    """Whether host indices can be chosen for the pattern positions missing
    from `fixed` so that the whole pattern occurs."""
    k = len(pattern)
    chosen: list[int] = []

    def fits(t: int, i: int) -> bool:
        """Host index i may take pattern position t: it is ordered like the
        pattern against every entry chosen before it and every fixed
        entry after it."""
        return all(
            (host[i] > host[chosen[s]]) == (pattern[t] > pattern[s]) for s in range(t)
        ) and all(
            (host[i] > host[fixed[s]]) == (pattern[t] > pattern[s])
            for s in fixed if s > t
        )

    def place(t: int, start: int) -> bool:
        if t == k:
            return True
        if t in fixed:  # already consistent with everything chosen so far
            candidates = [fixed[t]]
        else:
            stop = min((fixed[s] for s in fixed if s > t), default=len(host))
            candidates = (i for i in range(start, stop) if fits(t, i))
        for i in candidates:
            chosen.append(i)
            done = place(t + 1, i + 1)
            chosen.pop()
            if done:
                return True
        return False

    return place(0, 0)


# ---------------------------------------------------------------------------
# Statistics, intervals, substitution decomposition


def statistic(name: str, p: Perm) -> int:
    n = len(p)
    descents = [i + 1 for i in range(n - 1) if p[i] > p[i + 1]]
    if name == "des":
        return len(descents)
    if name == "maj":
        return sum(descents)
    if name == "exc":
        return sum(1 for i in range(n) if p[i] > i + 1)
    if name == "inv":
        return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
    raise ValueError(name)


def mahonian(n: int) -> list[int]:
    """Coefficients of prod_{i<=n} (1 + q + ... + q^(i-1)): the number of
    permutations of length n by major index."""
    poly = [1]
    for i in range(1, n + 1):
        nxt = [0] * (len(poly) + i - 1)
        for d, c in enumerate(poly):
            for e in range(i):
                nxt[d + e] += c
        poly = nxt
    return poly


def intervals(p: Perm) -> list[tuple[int, int]]:
    """1-based (start, end) windows whose values form a run of consecutive
    integers."""
    return [
        (a + 1, b)
        for a in range(len(p))
        for b in range(a + 1, len(p) + 1)
        if set(p[a:b]) == set(range(min(p[a:b]), min(p[a:b]) + b - a))
    ]


def symmetry_orbit(p: Perm) -> set[Perm]:
    """Closure of p under reverse, complement and inverse."""
    orbit = {p}
    todo = [p]
    while todo:
        q = todo.pop()
        n = len(q)
        inverse = [0] * n
        for i, v in enumerate(q):
            inverse[v - 1] = i + 1
        for r in (q[::-1], tuple(n + 1 - v for v in q), tuple(inverse)):
            if r not in orbit:
                orbit.add(r)
                todo.append(r)
    return orbit


# ---------------------------------------------------------------------------
# Checks: stdout text -> bool


def lines(expected: list[str]):
    return lambda out: out.splitlines() == expected


def counts(expected: list[int]):
    """`enumerate` text output: one "n count" row per length."""
    return lines([f"{n} {c}" for n, c in enumerate(expected)])


def growth(class_counts: list[int], window: int):
    """`growth` text output: count^(1/n) per length, then the min and max
    over the last `window` lengths."""
    values = [c ** (1 / n) for n, c in enumerate(class_counts) if n >= 1]
    tail = values[-window:]
    expected = [(str(n), v) for n, v in enumerate(values, 1)]
    expected += [("lower", min(tail)), ("upper", max(tail))]

    def check(out: str) -> bool:
        rows = [line.split() for line in out.splitlines()]
        return len(rows) == len(expected) and all(
            len(row) == 2 and row[0] == key and abs(float(row[1]) - v) <= 2e-6
            for row, (key, v) in zip(rows, expected)
        )

    return check


def witnesses_json(basis: list[Perm], class_counts: list[int]):
    """`enumerate --witnesses --json`: every listed member is a distinct
    permutation of the right length avoiding each basis pattern (checked
    over all index subsets), and each level has the known count."""

    def avoids(w: Perm) -> bool:
        return not any(
            reduce(sub) == b for b in basis for sub in combinations(w, len(b))
        )

    def check(out: str) -> bool:
        doc = json.loads(out)
        levels = [[tuple(w) for w in level] for level in doc["witnesses"]]
        return (
            doc["schema"] == "permpat/1"
            and doc["counts"] == class_counts
            and [len(level) for level in levels] == class_counts
            and all(
                len(set(level)) == len(level)
                and all(sorted(w) == list(range(1, n + 1)) and avoids(w) for w in level)
                for n, level in enumerate(levels)
            )
        )

    return check


def contains_witness(host: Perm, pattern: Perm):
    """Positive `contains`: the printed witness is an increasing index tuple
    whose host values reduce to the pattern."""

    def check(out: str) -> bool:
        head, _, rest = out.strip().partition(" ")
        if head != "true" or not (rest.startswith("(") and rest.endswith(")")):
            return False
        idx = [int(x) for x in rest[1:-1].split(",")]
        return (
            len(idx) == len(pattern)
            and all(1 <= a < b <= len(host) for a, b in zip(idx, idx[1:]))
            and 1 <= idx[0]
            and reduce([host[i - 1] for i in idx]) == pattern
        )

    return check


def match_counts(hosts: list[Perm], count_of):
    """`match` text output: one "host: count N" row per host."""
    return lambda out: out.splitlines() == [
        f"{spaced(h)}: count {count_of(h)}" for h in hosts
    ]
