"""Classical permutation statistics and their distributions over S_n.

A statistic is any map from permutations to the non-negative integers.
The four classical ones live in a registry keyed by name so callers (and
the CLI) can address them uniformly; unknown names are an error rather
than a silent default.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import permutations as _all_perms
from math import factorial
from typing import Callable

from .errors import IterationCapError, UnknownStatisticError
from .perm import Permutation

DEFAULT_ITERATION_CAP = 10


def descent_set(sigma: Permutation) -> set[int]:
    """Positions i (1-based) with sigma(i) > sigma(i+1).

    >>> sorted(descent_set(Permutation([3, 1, 4, 5, 9, 2, 6, 8, 7])))
    [1, 5, 8]
    """
    vals = sigma.values
    return {i + 1 for i in range(len(vals) - 1) if vals[i] > vals[i + 1]}


def des(sigma: Permutation) -> int:
    """Number of descents."""
    return len(descent_set(sigma))


def inv(sigma: Permutation) -> int:
    """Number of inversions: pairs i < j with sigma(i) > sigma(j), counted
    right to left, each value against the sorted values after it."""
    later: list[int] = []
    count = 0
    for v in reversed(sigma.values):
        count += bisect_left(later, v)
        insort(later, v)
    return count


def exc(sigma: Permutation) -> int:
    """Number of excedances: positions i with sigma(i) > i."""
    return sum(1 for i, v in enumerate(sigma.values) if v > i + 1)


def maj(sigma: Permutation) -> int:
    """Major index: the sum of the descent positions."""
    return sum(descent_set(sigma))


STATISTICS: dict[str, Callable[[Permutation], int]] = {
    "des": des,
    "inv": inv,
    "exc": exc,
    "maj": maj,
}


def _lookup(name: str) -> Callable[[Permutation], int]:
    fn = STATISTICS.get(name)
    if fn is None:
        raise UnknownStatisticError(
            f"unknown statistic {name!r}; known: {sorted(STATISTICS)}"
        )
    return fn


def statistic(name: str, sigma: Permutation) -> int:
    return _lookup(name)(sigma)


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise IterationCapError(
            f"distribution over S_{n} exceeds the iteration cap of {cap}"
        )


def distribution(name: str, n: int, cap: int = DEFAULT_ITERATION_CAP) -> list[int]:
    """counts[k] = number of sigma in S_n with statistic value k.

    Computed by full iteration of S_n, so n is guarded by `cap`
    (default 10).  Entries sum to n! and trailing zero counts are trimmed.
    """
    _check_cap(n, cap)
    if n < 0:
        raise IterationCapError("length must be non-negative")
    fn = _lookup(name)
    counts: list[int] = []
    for word in _all_perms(range(1, n + 1)):
        k = fn(Permutation(word))
        if k >= len(counts):
            counts.extend([0] * (k - len(counts) + 1))
        counts[k] += 1
    assert sum(counts) == factorial(n)
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


def equidistributed(
    a: str, b: str, n_max: int, cap: int = DEFAULT_ITERATION_CAP
) -> list[tuple[int, bool]]:
    """For each n <= n_max, whether statistics a and b have identical
    distributions over S_n.  n_max is checked against `cap` first."""
    _check_cap(n_max, cap)
    return [
        (n, distribution(a, n, cap) == distribution(b, n, cap))
        for n in range(n_max + 1)
    ]
