"""Independent brute-force oracles used by the test suite.

Everything here works by exhaustive enumeration (index subsets, full S_n
filtering, direct definition evaluation) and deliberately shares no code
with the library's search paths.
"""

from __future__ import annotations

from itertools import combinations, permutations as all_words

from permpat import Permutation


def reduce_tuple(word: tuple[int, ...]) -> tuple[int, ...]:
    order = sorted(word)
    rank = {v: i + 1 for i, v in enumerate(order)}
    return tuple(rank[v] for v in word)


def all_perms(n: int) -> list[Permutation]:
    return [Permutation(word) for word in all_words(range(1, n + 1))]


def brute_occurrences(host: Permutation, pattern: Permutation) -> list[tuple[int, ...]]:
    """All occurrences via subset enumeration and reduction (1-based)."""
    k = len(pattern)
    vals = host.values
    target = pattern.values
    return [
        tuple(i + 1 for i in idx)
        for idx in combinations(range(len(vals)), k)
        if reduce_tuple(tuple(vals[i] for i in idx)) == target
    ]


def brute_longest_run(sigma: Permutation, sign: int) -> int:
    """The length of sigma's longest increasing (sign 1) or decreasing
    (sign -1) subsequence, by testing every index subset."""
    vals = sigma.values
    return max(
        (r for r in range(len(vals) + 1) for idx in combinations(range(len(vals)), r)
         if all(sign * vals[i] < sign * vals[j] for i, j in zip(idx, idx[1:]))),
        default=0,
    )


def brute_contains(host: Permutation, pattern: Permutation) -> bool:
    k = len(pattern)
    vals = host.values
    target = pattern.values
    return any(
        reduce_tuple(tuple(vals[i] for i in idx)) == target
        for idx in combinations(range(len(vals)), k)
    )


def brute_barred_contains(host: Permutation, pattern: Permutation, barred) -> bool:
    """Whether host contains pattern with the 1-based positions `barred`
    barred: some index subset matching the unbarred entries is not the
    restriction of any index subset matching the whole pattern."""
    vals = host.values
    target = pattern.values
    unbarred = [i for i in range(len(target)) if i + 1 not in barred]
    effective = reduce_tuple(tuple(target[i] for i in unbarred))
    restrictions = {
        tuple(idx[i] for i in unbarred)
        for idx in combinations(range(len(vals)), len(target))
        if reduce_tuple(tuple(vals[i] for i in idx)) == target
    }
    return any(
        idx not in restrictions
        for idx in combinations(range(len(vals)), len(unbarred))
        if reduce_tuple(tuple(vals[i] for i in idx)) == effective
    )


def contained_patterns(host: Permutation, k: int) -> set[tuple[int, ...]]:
    """The set of length-k patterns contained in host, by subset reduction."""
    vals = host.values
    return {
        reduce_tuple(tuple(vals[i] for i in idx))
        for idx in combinations(range(len(vals)), k)
    }


def brute_avoids_all(sigma: Permutation, basis_patterns) -> bool:
    return all(not brute_contains(sigma, p) for p in basis_patterns)


def brute_class_counts(basis_patterns, n_max: int) -> list[int]:
    """|Av_n(B)| by filtering all of S_n, n = 0..n_max."""
    return [
        sum(1 for sigma in all_perms(n) if brute_avoids_all(sigma, basis_patterns))
        for n in range(n_max + 1)
    ]


def brute_class_members(basis_patterns, n: int) -> list[Permutation]:
    return [sigma for sigma in all_perms(n) if brute_avoids_all(sigma, basis_patterns)]


def catalan_numbers(n_max: int) -> list[int]:
    """C_0..C_n_max via the convolution recurrence."""
    cat = [1]
    for m in range(n_max):
        cat.append(sum(cat[i] * cat[m - i] for i in range(m + 1)))
    return cat


def vincular_occurrences_direct(host, pattern: Permutation, adjacent: set[int]):
    """Classical occurrences whose indices are adjacent at each constrained
    pair; independent of the mesh machinery."""
    return [
        occ
        for occ in brute_occurrences(host, pattern)
        if all(occ[i] == occ[i - 1] + 1 for i in adjacent)
    ]


def bivincular_occurrences_direct(host, pattern: Permutation, adjacent_positions,
                                  adjacent_values):
    """Classical occurrences whose indices are adjacent at each position
    pair i, i+1 in adjacent_positions, and whose host values matched to
    pattern values v, v+1 are consecutive integers for each v in
    adjacent_values; independent of the mesh machinery."""
    slot = {v: s for s, v in enumerate(pattern.values)}
    vals = host.values
    return [
        occ
        for occ in vincular_occurrences_direct(host, pattern, set(adjacent_positions))
        if all(vals[occ[slot[v + 1]] - 1] == vals[occ[slot[v]] - 1] + 1
               for v in adjacent_values)
    ]


def brute_mesh_occurrences(host, pattern: Permutation, shaded):
    """Classical occurrences such that no host point lies in the open
    region of any shaded cell (i, j): strictly between the i-th and
    (i+1)-th matched positions and between the j-th and (j+1)-th smallest
    matched values, with 0 and n+1 closing both axes."""
    vals = host.values
    n = len(vals)
    out = []
    for occ in brute_occurrences(host, pattern):
        p = (0, *occ, n + 1)
        q = (0, *sorted(vals[x - 1] for x in occ), n + 1)
        if not any(p[i] < x < p[i + 1] and q[j] < vals[x - 1] < q[j + 1]
                   for i, j in shaded for x in range(1, n + 1)):
            out.append(occ)
    return out


def brute_is_simple(sigma: Permutation) -> bool:
    """By definition: no index range of length 2..n-1 holds a contiguous
    set of values."""
    vals = sigma.values
    n = len(vals)
    return not any(
        max(vals[a : a + length]) - min(vals[a : a + length]) == length - 1
        for length in range(2, n)
        for a in range(n - length + 1)
    )


def pair_inversions(sigma: Permutation) -> int:
    """Inversions by testing every pair of positions."""
    vals = sigma.values
    return sum(vals[i] > vals[j] for i, j in combinations(range(len(vals)), 2))
