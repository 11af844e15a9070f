from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from permpat import (
    Basis,
    InvalidBasisError,
    IterationCapError,
    Permutation,
    PermPatError,
    enumerate_class,
    growth_estimates,
    parse,
    parse_basis,
    validate_basis,
    vincular_count,
    parse_pattern,
    wilf_classify,
    wilf_equivalent,
)

from oracles import brute_class_counts, brute_contains, catalan_numbers

import prop_checks


def B(*texts: str) -> Basis:
    return validate_basis(parse(t) for t in texts)


class TestValidateBasis:
    def test_valid_same_length(self):
        basis = B("123", "132")
        assert [str(p) for p in basis.patterns] == ["1 2 3", "1 3 2"]

    def test_comparable_pair_named(self):
        with pytest.raises(InvalidBasisError, match="1 2.*contained in.*1 2 3"):
            B("12", "123")

    def test_empty_basis(self):
        assert B().patterns == ()

    def test_duplicates_collapse(self):
        assert B("21", "21").patterns == (parse("21"),)

    def test_parse_basis(self):
        assert parse_basis("123,132") == B("123", "132")
        assert parse_basis("") == B()


class TestEnumerate:
    def test_av21_all_ones(self):
        enum = enumerate_class(B("21"), 8)
        assert enum.counts == [1] * 9

    def test_catalan(self):
        cat = catalan_numbers(10)
        assert enumerate_class(B("123"), 10).counts == cat
        assert enumerate_class(B("132"), 10).counts == cat

    def test_unrestricted_class(self):
        enum = enumerate_class(B(), 6)
        assert enum.counts == [factorial(n) for n in range(7)]

    def test_singleton_basis_pattern_1(self):
        # forbidding the length-1 pattern empties every level beyond n = 0
        assert enumerate_class(B("1"), 5).counts == [1, 0, 0, 0, 0, 0]

    def test_witnesses_mode(self):
        enum = enumerate_class(B("21"), 4, with_witnesses=True)
        assert enum.witnesses is not None
        assert enum.witnesses[4] == [Permutation.identity(4)]

    def test_frontier_past_byte_values(self):
        # frontier members are bytes up to length 255 and tuples after it
        enum = enumerate_class(parse_basis("21"), 300, with_witnesses=True)
        assert enum.counts == [1] * 301
        assert enum.witnesses[-1] == [Permutation.identity(300)]
        for text in ("21", "12"):
            assert enumerate_class(parse_basis(text), 300).counts == [1] * 301

    def test_budget_truncation_marker(self):
        enum = enumerate_class(B(), 10, budget=100)
        assert enum.truncated_at is not None
        assert enum.counts == [factorial(n) for n in range(enum.truncated_at)]

    def test_negative_n(self):
        with pytest.raises(PermPatError):
            enumerate_class(B("21"), -1)


def antichains():
    """Bases of 1-3 pairwise incomparable patterns of length 2-5."""
    pattern = st.integers(2, 5).flatmap(lambda k: st.permutations(range(1, k + 1))).map(Permutation)
    return st.lists(pattern, min_size=1, max_size=3, unique=True).filter(
        lambda ps: not any(a != b and brute_contains(b, a) for a in ps for b in ps)
    ).map(validate_basis)


@settings(max_examples=100, deadline=None)
@given(basis=antichains(), n_max=st.integers(0, 7))
def test_counts_match_brute_force(basis, n_max):
    assert enumerate_class(basis, n_max).counts == brute_class_counts(basis.patterns, n_max)


@settings(max_examples=100, deadline=None)
@given(basis=antichains(), n_max=st.integers(0, 7), budget=st.sampled_from([None, 1, 5, 30, 200]))
def test_count_only_truncates_where_witnesses_do(basis, n_max, budget):
    counted = enumerate_class(basis, n_max, budget=budget)
    listed = enumerate_class(basis, n_max, with_witnesses=True, budget=budget)
    assert counted.truncated_at == listed.truncated_at
    assert counted.counts == listed.counts == [len(level) for level in listed.witnesses]


class TestNonClassicalEnumeration:
    def test_vincular_avoiders_by_filter(self):
        # avoidance sets of non-classical patterns enumerate by filtering;
        # Av of the consecutive pattern 123 at n=4: permutations with no
        # three consecutive rising entries
        pattern = parse_pattern("1-23")
        # independent count: filter by direct definition
        from oracles import all_perms, vincular_occurrences_direct

        for n in range(6):
            count = sum(1 for sigma in all_perms(n) if vincular_count(sigma, pattern) == 0)
            expected = sum(
                1
                for sigma in all_perms(n)
                if not vincular_occurrences_direct(sigma, parse("123"), {2})
            )
            assert count == expected


class TestGrowth:
    def test_av21_flat(self):
        est = growth_estimates(enumerate_class(B("21"), 8), window=3)
        assert est.lower == est.upper == 1.0
        assert not est.diverging and not est.finite_class

    def test_catalan_proxy(self):
        est = growth_estimates(enumerate_class(B("123"), 10), window=1)
        assert est.values[10] == pytest.approx(16796 ** 0.1)
        assert 2.0 < est.lower <= est.upper < 4.0  # slow convergence toward 4

    def test_unrestricted_diverges(self):
        est = growth_estimates(enumerate_class(B(), 7), window=3)
        assert est.diverging
        vals = [v for v in est.values if v is not None]
        assert vals == sorted(vals)  # (n!)^(1/n) increases without bound

    def test_finite_class(self):
        est = growth_estimates(enumerate_class(B("1"), 5), window=2)
        assert est.finite_class
        assert est.lower == est.upper == 0.0

    def test_lower_never_exceeds_upper(self):
        for texts in (["123"], ["132", "4321"], ["21"]):
            est = growth_estimates(enumerate_class(B(*texts), 8), window=4)
            assert est.lower <= est.upper


class TestWilf:
    def test_catalan_pair(self):
        verdict = wilf_equivalent(B("123"), B("132"), 9)
        assert verdict.equinumerous
        assert "up to n = 9" in verdict.describe()

    def test_identical_bases(self):
        assert wilf_equivalent(B("321", "123"), B("321", "123"), 6).equinumerous

    def test_distinguished_at_7(self):
        verdict = wilf_equivalent(B("1234"), B("1324"), 7)
        assert not verdict.equinumerous
        assert verdict.first_difference == 7
        assert "distinguished at n = 7" in verdict.describe()

    def test_counts_carry_provenance(self):
        verdict = wilf_equivalent(B("123"), B("132"), 5)
        assert verdict.n_max == 5
        assert len(verdict.counts_a) == 6


class TestWilfClassify:
    def test_k1(self):
        result = wilf_classify(1, 4)
        assert len(result.classes) == 1
        assert result.classes[0][1] == [parse("1")]

    def test_k3_single_class(self):
        result = wilf_classify(3, 8)
        assert len(result.classes) == 1
        assert len(result.classes[0][1]) == 6
        assert result.symmetry_refines

    def test_guard(self):
        with pytest.raises(IterationCapError):
            wilf_classify(5, 5)


class TestSmallProperties:
    def test_enumerator_oracle_small(self):
        prop_checks.check_enumerator_oracle(n_max=5, small_n_max=5)

    def test_downset_small(self):
        prop_checks.check_downset_property(n_max=5)

    def test_count_symmetry_small(self):
        prop_checks.check_count_symmetry_equivariance(n_max=5)

    def test_monotonicity_small(self):
        prop_checks.check_basis_monotonicity(n_max=6)

    def test_witness_order_small(self):
        prop_checks.check_witness_order(n_max=6)

    def test_members_match_brute(self):
        prop_checks.check_downset_membership_brute(n=4)
