"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Everything here is exact arithmetic; the stated
runtime budgets are generous on desk-scale hardware.
"""

import sys
from math import factorial

from permpat import (
    Symmetry,
    contains,
    direct_sum,
    distribution,
    enumerate_class,
    extremal,
    find_occurrence,
    fit_algebraic,
    fit_rational,
    growth_estimates,
    inflate,
    is_layered,
    parse,
    parse_basis,
    parse_pattern,
    reduce_word,
    series_from_enumeration,
    skew_sum,
    substitution_decompose,
    symmetry_orbit,
    vincular_count,
    wilf_classify,
)

from oracles import catalan_numbers

import prop_checks


def report(number: int, label: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"FAIL criterion {number}: {label}", file=sys.stderr, flush=True)
        raise
    print(f"PASS criterion {number}: {label}", flush=True)


def test_criterion_1_containment_with_witness():
    def check():
        host = parse("314592687")
        witness = find_occurrence(host, parse("1423"))
        assert witness is not None
        assert reduce_word([host[i - 1] for i in witness]) == parse("1423")
        assert contains(host, parse("1423"))
        assert not contains(host, parse("3241"))
        assert find_occurrence(host, parse("3241")) is None

    report(1, "containment on 314592687 with reducing witness", check)


def test_criterion_2_sums_and_layered():
    def check():
        assert direct_sum(parse("2413"), parse("4231")) == parse("24138675")
        assert skew_sum(parse("2413"), parse("4231")) == parse("68574231")
        built = direct_sum(parse("21"), parse("1"), parse("321"), parse("21"))
        assert built == parse("21365487")
        assert is_layered(built)

    report(2, "direct/skew sums and layered test", check)


def test_criterion_3_inflation_round_trip():
    def check():
        comps = [parse("123"), parse("1"), parse("21"), parse("312")]
        assert inflate(parse("3142"), comps) == parse("567198423")
        skeleton, got = substitution_decompose(parse("567198423"))
        assert skeleton == parse("3142")
        assert got == comps

    report(3, "inflation of 3142 round-trips through decomposition", check)


def test_criterion_4_extremal_counts():
    def check():
        sigma = parse("7 10 1 4 9 14 2 11 3 13 12 6 8 5")
        assert len(extremal(sigma, "lr-max")) == 3
        assert len(extremal(sigma, "rl-min")) == 4
        assert len(extremal(sigma, "lr-min")) == 2
        assert len(extremal(sigma, "rl-max")) == 5

    report(4, "extreme-point counts on the length-14 example", check)


def test_criterion_5_equidistribution():
    def check():
        for n in range(9):
            assert distribution("des", n) == distribution("exc", n)
            assert distribution("inv", n) == distribution("maj", n)

    report(5, "des~exc and inv~maj equidistributed for n <= 8", check)


def test_criterion_6_vincular_counts():
    def check():
        host = parse("314265")
        assert vincular_count(host, parse_pattern("2-31-4")) == 2
        assert vincular_count(host, parse_pattern("2-314")) == 1
        assert vincular_count(host, parse_pattern("23-14")) == 0

    report(6, "vincular counts 2/1/0 on host 314265", check)


def test_criterion_7_catalan_and_single_wilf_class():
    def check():
        cat = catalan_numbers(10)
        assert cat[10] == 16796
        vectors = set()
        for text in ("123", "132", "213", "231", "312", "321"):
            counts = enumerate_class(parse_basis(text), 10).counts
            vectors.add(tuple(counts))
        assert vectors == {tuple(cat)}

    report(7, "all six length-3 classes are Catalan up to n = 10", check)


def test_criterion_8_trivial_classes():
    def check():
        assert enumerate_class(parse_basis("21"), 12).counts == [1] * 13
        counts = enumerate_class(parse_basis(""), 7).counts
        assert counts == [factorial(n) for n in range(8)]

    report(8, "Av(21) all ones to n = 12; Av(empty) factorial to n = 7", check)


def test_criterion_9_wilf_classification_k4():
    def check():
        result = wilf_classify(4, 9)
        assert len(result.classes) == 3
        sizes = sorted(len(members) for _, members in result.classes)
        assert sizes == [2, 10, 12]
        assert result.symmetry_refines
        for _, members in result.classes:
            for p in members:
                assert symmetry_orbit(p) <= set(members)
        # growth proxies are sane on a principal class from each criterion run
        est = growth_estimates(enumerate_class(parse_basis("123"), 10), window=3)
        assert est.lower <= est.upper and not est.diverging
        assert growth_estimates(enumerate_class(parse_basis(""), 7)).diverging

    report(9, "k = 4 classification: 3 Wilf classes, symmetry-refined", check)


def test_criterion_10_generating_function_fits():
    def check():
        ones = series_from_enumeration(enumerate_class(parse_basis("21"), 12))
        rat = fit_rational(ones, 4, 4)
        assert rat is not None
        assert str(rat) == "(1)/(1 - z)"

        cat = catalan_numbers(12)
        alg = fit_algebraic(cat, 1, 2)
        assert alg is not None
        assert str(alg) == "z*y^2 - y + 1"

        facts = [factorial(n) for n in range(13)]
        assert fit_algebraic(facts, 4, 4) is None
        assert fit_rational(facts, 4, 4) is None

    report(10, "GF fits: 1/(1-z), z*y^2-y+1, factorial no-fit", check)


def test_criterion_11_property_suites():
    def check():
        prop_checks.check_contains_oracle(max_host=7, max_pat=4)
        prop_checks.check_occurrence_contract()
        prop_checks.check_sum_skew_roundtrip(max_n=9)
        prop_checks.check_substitution_roundtrip(max_n=8)
        prop_checks.check_not_both_decomposable(max_n=8)
        prop_checks.check_symmetry_equivariance_containment(max_host=7)
        prop_checks.check_partial_order()
        prop_checks.check_interval_counts(max_n=7)
        prop_checks.check_mesh_classical_consistency(max_host=6, max_pat=3)
        prop_checks.check_shading_monotonicity()
        prop_checks.check_vincular_compile(max_host=6, max_pat=3)
        prop_checks.check_bivincular_compile(max_host=6, max_pat=3)
        prop_checks.check_consecutive_contiguous(max_host=6)
        prop_checks.check_enumerator_oracle(n_max=7, small_n_max=6)
        prop_checks.check_downset_property(n_max=7)
        prop_checks.check_count_symmetry_equivariance(n_max=7)
        prop_checks.check_basis_monotonicity(n_max=7)
        prop_checks.check_witness_order(n_max=8)
        prop_checks.check_downset_membership_brute(n=5)

    report(11, "exhaustive property suites at full sizes", check)
