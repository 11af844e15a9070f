"""Shared property-suite implementations.

Each check runs exhaustively at the sizes passed to it and raises
AssertionError on the first violation.  The acceptance module runs them at
their full stated sizes; the per-module tests reuse a few of them at
reduced sizes for quick feedback.
"""

from __future__ import annotations

import random
from itertools import combinations

from permpat import (
    Basis,
    BivincularPattern,
    MeshPattern,
    Permutation,
    Symmetry,
    VincularPattern,
    compile_vincular,
    consecutive_pattern,
    contains,
    direct_sum,
    enumerate_class,
    find_occurrence,
    inflate,
    intervals,
    is_simple,
    mesh_occurrences,
    occurrences,
    skew_decompose,
    skew_sum,
    substitution_decompose,
    sum_decompose,
    validate_basis,
    vincular_occurrences,
)

from oracles import (
    all_perms,
    bivincular_occurrences_direct,
    brute_class_counts,
    brute_class_members,
    brute_contains,
    brute_is_simple,
    contained_patterns,
    reduce_tuple,
    vincular_occurrences_direct,
)


def check_contains_oracle(max_host: int = 7, max_pat: int = 4) -> None:
    """Backtracking containment agrees with subset-reduction enumeration."""
    patterns_by_len = {k: all_perms(k) for k in range(max_pat + 1)}
    for n in range(max_host + 1):
        for host in all_perms(n):
            for k in range(max_pat + 1):
                present = contained_patterns(host, k) if k <= n else set()
                for pat in patterns_by_len[k]:
                    assert contains(host, pat) == (pat.values in present), (
                        host,
                        pat,
                    )


def check_occurrence_contract(max_host: int = 6, max_pat: int = 3) -> None:
    """occurrences() is complete, duplicate-free, sorted; every returned
    occurrence reduces to the pattern; the witness is the lex-least."""
    from oracles import brute_occurrences

    for n in range(max_host + 1):
        for host in all_perms(n):
            for k in range(max_pat + 1):
                for pat in all_perms(k):
                    occs = occurrences(host, pat)
                    assert occs == sorted(set(occs))
                    assert occs == brute_occurrences(host, pat)
                    for occ in occs:
                        vals = tuple(host.values[i - 1] for i in occ)
                        assert reduce_tuple(vals) == pat.values
                    witness = find_occurrence(host, pat)
                    assert witness == (occs[0] if occs else None)


def check_sum_skew_roundtrip(max_n: int = 9) -> None:
    for n in range(1, max_n + 1):
        for sigma in all_perms(n):
            comps = sum_decompose(sigma)
            assert direct_sum(comps[0], *comps[1:]) == sigma
            comps = skew_decompose(sigma)
            assert skew_sum(comps[0], *comps[1:]) == sigma


def check_substitution_roundtrip(max_n: int = 8) -> None:
    """The decomposition inflates back to sigma, every skeleton of length
    >= 4 is simple unless it is the monotone skeleton of a sum or skew
    decomposition, and `is_simple` agrees with the definition."""
    for n in range(2, max_n + 1):
        for sigma in all_perms(n):
            skeleton, comps = substitution_decompose(sigma)
            assert len(skeleton) >= 2
            assert inflate(skeleton, comps) == sigma
            monotone = skeleton.is_increasing() or skeleton.is_decreasing()
            assert len(skeleton) < 4 or monotone or brute_is_simple(skeleton), sigma
            assert is_simple(sigma) == brute_is_simple(sigma), sigma


def check_not_both_decomposable(max_n: int = 8) -> None:
    for n in range(2, max_n + 1):
        for sigma in all_perms(n):
            assert not (
                len(sum_decompose(sigma)) > 1 and len(skew_decompose(sigma)) > 1
            ), sigma


def check_symmetry_equivariance_containment(max_host: int = 7, pat_len: int = 3) -> None:
    patterns = all_perms(pat_len)
    cache: dict[tuple, bool] = {}

    def cached(host: Permutation, pat: Permutation) -> bool:
        key = (host.values, pat.values)
        if key not in cache:
            cache[key] = contains(host, pat)
        return cache[key]

    for n in range(max_host + 1):
        for host in all_perms(n):
            for pat in patterns:
                base = cached(host, pat)
                for sym in Symmetry:
                    assert cached(sym.apply(host), sym.apply(pat)) == base


def check_partial_order(max_n: int = 5, triples: int = 400, seed: int = 20240817) -> None:
    perms = [p for n in range(max_n + 1) for p in all_perms(n)]
    for p in perms:
        assert contains(p, p)
    for a, b in combinations(perms, 2):
        if len(a) == len(b) and a != b:
            assert not (contains(a, b) and contains(b, a))
    rng = random.Random(seed)
    for _ in range(triples):
        a, b, c = (rng.choice(perms) for _ in range(3))
        if contains(b, a) and contains(c, b):
            assert contains(c, a), (a, b, c)


def check_interval_counts(max_n: int = 7) -> None:
    for n in range(1, max_n + 1):
        for sigma in all_perms(n):
            ivs = intervals(sigma)
            singles = [iv for iv in ivs if iv.start == iv.end]
            assert len(singles) == n
            assert (1, n) in [(iv.start, iv.end) for iv in ivs]


# ---------------------------------------------------------------------------
# Mesh / vincular properties


def check_mesh_classical_consistency(max_host: int = 6, max_pat: int = 3) -> None:
    for n in range(max_host + 1):
        for host in all_perms(n):
            for k in range(1, max_pat + 1):
                for pat in all_perms(k):
                    mp = MeshPattern(pat, frozenset())
                    assert mesh_occurrences(host, mp) == occurrences(host, pat)


def check_shading_monotonicity(
    max_host: int = 5, max_pat: int = 3, trials: int = 400, seed: int = 987
) -> None:
    rng = random.Random(seed)
    hosts = [p for n in range(1, max_host + 1) for p in all_perms(n)]
    pats = [p for k in range(1, max_pat + 1) for p in all_perms(k)]
    for _ in range(trials):
        host = rng.choice(hosts)
        pat = rng.choice(pats)
        k = len(pat)
        cells = [(i, j) for i in range(k + 1) for j in range(k + 1)]
        shaded = set(rng.sample(cells, rng.randrange(len(cells))))
        extra = set(rng.sample(cells, rng.randrange(len(cells))))
        small = len(mesh_occurrences(host, MeshPattern(pat, frozenset(shaded))))
        large = len(
            mesh_occurrences(host, MeshPattern(pat, frozenset(shaded | extra)))
        )
        assert large <= small


def check_vincular_compile(max_host: int = 6, max_pat: int = 3) -> None:
    """Mesh occurrences of a compiled vincular pattern match the direct
    adjacency-filter oracle, for every adjacency subset."""
    for k in range(2, max_pat + 1):
        for pat in all_perms(k):
            for r in range(k):
                for adj in combinations(range(1, k), r):
                    vp = VincularPattern(pat, frozenset(adj))
                    mp = compile_vincular(vp)
                    for n in range(max_host + 1):
                        for host in all_perms(n):
                            assert mesh_occurrences(host, mp) == (
                                vincular_occurrences_direct(host, pat, set(adj))
                            )


def check_bivincular_compile(max_host: int = 6, max_pat: int = 3) -> None:
    """`vincular_occurrences` of every bivincular pattern matches the direct
    position- and value-adjacency oracle, for every pair of adjacency
    subsets."""
    hosts = [host for n in range(max_host + 1) for host in all_perms(n)]
    for k in range(max_pat + 1):
        subsets = [set(s) for r in range(k + 1) for s in combinations(range(1, k), r)]
        for pat in all_perms(k):
            for pos in subsets:
                for vals in subsets:
                    bp = BivincularPattern(pat, frozenset(pos), frozenset(vals))
                    for host in hosts:
                        assert vincular_occurrences(host, bp) == (
                            bivincular_occurrences_direct(host, pat, pos, vals)
                        ), (host, bp)


def check_consecutive_contiguous(max_host: int = 6, pat_len: int = 3) -> None:
    for pat in all_perms(pat_len):
        mp = compile_vincular(consecutive_pattern(pat))
        for n in range(max_host + 1):
            for host in all_perms(n):
                for occ in mesh_occurrences(host, mp):
                    assert all(b == a + 1 for a, b in zip(occ, occ[1:]))


# ---------------------------------------------------------------------------
# Class enumeration properties


STANDARD_BASES: list[list[str]] = [
    ["21"],
    ["123"],
    ["132"],
    ["321"],
    ["123", "132"],
    ["132", "4321"],
    ["321", "2143"],
    ["2413", "3142"],
]


def _basis_from(texts: list[str]) -> Basis:
    return validate_basis(Permutation([int(c) for c in t]) for t in texts)


def check_enumerator_oracle(n_max: int = 7, small_n_max: int = 6) -> None:
    """The generating-tree walk over inherited active sites equals brute-force
    filtering of S_n."""
    cases = [(_basis_from(texts), n_max) for texts in STANDARD_BASES]
    cases += [
        (Basis((p,)), small_n_max)
        for p in all_perms(4)
    ]
    for basis, top in cases:
        fast = enumerate_class(basis, top)
        assert fast.counts == brute_class_counts(basis.patterns, top), basis


def check_downset_property(n_max: int = 7) -> None:
    """Every one-point deletion of a witness stays in the class."""
    for texts in STANDARD_BASES[:5]:
        basis = _basis_from(texts)
        enum = enumerate_class(basis, n_max, with_witnesses=True)
        assert enum.witnesses is not None
        for n in range(1, n_max + 1):
            below = {w.values for w in enum.witnesses[n - 1]}
            for w in enum.witnesses[n]:
                vals = w.values
                for i in range(n):
                    deleted = reduce_tuple(vals[:i] + vals[i + 1 :])
                    assert deleted in below, (w, i)


def check_count_symmetry_equivariance(n_max: int = 7) -> None:
    for texts in [["132"], ["123", "132"], ["2413"]]:
        basis = _basis_from(texts)
        base_counts = enumerate_class(basis, n_max).counts
        for sym in Symmetry:
            mapped = validate_basis(sym.apply(p) for p in basis.patterns)
            assert enumerate_class(mapped, n_max).counts == base_counts, (texts, sym)


def check_basis_monotonicity(n_max: int = 7) -> None:
    pairs = [(["123"], ["123", "132"]), (["132"], ["132", "4321"]),
             (["321"], ["321", "2143"])]
    for smaller, larger in pairs:
        a = enumerate_class(_basis_from(smaller), n_max).counts
        b = enumerate_class(_basis_from(larger), n_max).counts
        assert all(cb <= ca for ca, cb in zip(a, b))


def check_witness_order(n_max: int = 8) -> None:
    """Every witness level is strictly increasing in lexicographic order."""
    for texts in [["123"], ["132", "4321"]]:
        basis = _basis_from(texts)
        enum = enumerate_class(basis, n_max, with_witnesses=True)
        assert enum.witnesses is not None
        assert [len(level) for level in enum.witnesses] == enum.counts
        for level in enum.witnesses:
            words = [w.values for w in level]
            assert all(a < b for a, b in zip(words, words[1:])), texts


def check_downset_membership_brute(n: int = 5) -> None:
    """Witness lists agree with brute-force member lists."""
    for texts in STANDARD_BASES:
        basis = _basis_from(texts)
        enum = enumerate_class(basis, n, with_witnesses=True)
        got = sorted(w.values for w in enum.witnesses[n])
        expected = sorted(m.values for m in brute_class_members(basis.patterns, n))
        assert got == expected
