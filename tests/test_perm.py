import random

import pytest

from permpat import (
    Interval,
    MalformedPermutationError,
    Permutation,
    PermPatError,
    Symmetry,
    contains,
    direct_sum,
    extremal,
    find_occurrence,
    inflate,
    intervals,
    is_layered,
    is_simple,
    occurrences,
    parse,
    reduce_word,
    skew_decompose,
    skew_sum,
    substitution_decompose,
    sum_decompose,
    symmetry_orbit,
)

from oracles import all_perms, brute_is_simple, brute_occurrences

import prop_checks

EX9 = parse("314592687")


def P(text: str) -> Permutation:
    return parse(text)


class TestParse:
    def test_compact_digits(self):
        assert EX9.values == (3, 1, 4, 5, 9, 2, 6, 8, 7)

    def test_delimited(self):
        assert parse("3 1 4 5 9 2 6 8 7") == EX9
        assert parse("3,1,4,5,9,2,6,8,7") == EX9

    def test_multidigit_values(self):
        big = parse("7 10 1 4 9 14 2 11 3 13 12 6 8 5")
        assert len(big) == 14

    def test_length_one(self):
        assert parse("1").values == (1,)

    def test_empty(self):
        assert len(parse("")) == 0

    def test_duplicate_value_named(self):
        with pytest.raises(MalformedPermutationError, match="duplicate value 2"):
            parse("3 1 2 2")

    def test_bool_values_rejected(self):
        with pytest.raises(MalformedPermutationError, match="True"):
            Permutation([True, 2])

    def test_out_of_range_named(self):
        with pytest.raises(MalformedPermutationError, match="5"):
            parse("1 2 5")

    @pytest.mark.parametrize("text", ["1_0 3 7", "+3 1", "١٢", "1²", "3\u30001 2"])
    def test_only_ascii_digits(self, text):
        with pytest.raises(MalformedPermutationError, match="only ASCII digits"):
            parse(text)

    def test_round_trip(self):
        for text in ["314592687", "1", ""]:
            sigma = parse(text)
            assert parse(str(sigma)) == sigma


class TestReduce:
    def test_reduction(self):
        assert reduce_word([4, 9, 6, 8]) == P("1423")

    def test_empty(self):
        assert reduce_word([]) == P("")

    def test_fixed_point(self):
        assert reduce_word([1, 2, 3]) == P("123")

    def test_duplicates_rejected(self):
        with pytest.raises(MalformedPermutationError):
            reduce_word([1, 3, 3])


class TestContainment:
    def test_ex9_containment(self):
        assert contains(EX9, P("1423"))
        witness = find_occurrence(EX9, P("1423"))
        vals = [EX9[i - 1] for i in witness]
        assert reduce_word(vals) == P("1423")
        # lexicographically least witness, checked against subset enumeration
        assert witness == min(brute_occurrences(EX9, P("1423")))
        assert witness == (1, 5, 7, 8)

    def test_ex9_avoidance(self):
        assert not contains(EX9, P("3241"))
        assert find_occurrence(EX9, P("3241")) is None

    def test_singleton_pattern(self):
        assert contains(P("1"), P("1"))
        assert contains(EX9, P("1"))

    def test_empty_pattern(self):
        assert contains(P(""), P(""))
        assert contains(EX9, P(""))

    def test_occurrences_all_pairs(self):
        assert occurrences(P("123"), P("12")) == [(1, 2), (1, 3), (2, 3)]

    def test_occurrences_ex9(self):
        occs = occurrences(EX9, P("1423"))
        assert (3, 5, 7, 8) in occs  # the marked subsequence 4 9 6 8
        assert occurrences(EX9, P("3241")) == []


class TestSums:
    def test_direct_sum(self):
        assert direct_sum(P("2413"), P("4231")) == P("24138675")

    def test_skew_sum(self):
        assert skew_sum(P("2413"), P("4231")) == P("68574231")

    def test_identities(self):
        assert direct_sum(P(""), P("2413")) == P("2413")
        assert skew_sum(P("2413"), P("")) == P("2413")
        assert skew_sum(P("1"), P("1")) == P("21")

    def test_layered_build(self):
        assert direct_sum(P("21"), P("1"), P("321"), P("21")) == P("21365487")


class TestDecompose:
    def test_layered_example(self):
        assert sum_decompose(P("21365487")) == [P("21"), P("1"), P("321"), P("21")]

    def test_indecomposable(self):
        # no proper prefix of 2413 is a value-complete block
        vals = (2, 4, 1, 3)
        assert all(set(vals[:m]) != set(range(1, m + 1)) for m in range(1, 4))
        assert sum_decompose(P("2413")) == [P("2413")]

    def test_increasing(self):
        assert sum_decompose(P("123")) == [P("1")] * 3
        assert skew_decompose(P("321")) == [P("1")] * 3

    def test_empty_errors(self):
        with pytest.raises(PermPatError):
            sum_decompose(P(""))
        with pytest.raises(PermPatError):
            skew_decompose(P(""))


class TestLayered:
    def test_examples(self):
        assert is_layered(P("21365487"))
        assert not is_layered(P("2413"))
        assert is_layered(P("1"))
        assert is_layered(P(""))


class TestIntervals:
    def test_blocks_example_intervals(self):
        ivs = intervals(P("567198423"))
        assert Interval(1, 3) in ivs  # values 5 6 7
        assert Interval(7, 9) in ivs  # values 4 2 3

    def test_simple_permutation_intervals(self):
        sigma = P("2413")
        expected = sorted(
            [Interval(i, i) for i in range(1, 5)] + [Interval(1, 4)]
        )
        # exhaustive: no proper range of length 2..3 has contiguous values
        for a in range(1, 5):
            for b in range(a + 1, 5):
                vals = sigma.values[a - 1 : b]
                contiguous = max(vals) - min(vals) == b - a
                assert contiguous == ((a, b) == (1, 4))
        assert intervals(sigma) == expected

    def test_singleton(self):
        assert intervals(P("1")) == [Interval(1, 1)]

    def test_sorted_output(self):
        ivs = intervals(P("567198423"))
        assert ivs == sorted(ivs)


class TestSimple:
    def test_examples(self):
        assert is_simple(P("2413"))
        assert is_simple(P("3142"))
        assert not is_simple(P("132"))  # positions 2-3 hold values {3, 2}
        assert is_simple(P("12"))
        assert is_simple(P("1"))
        assert not is_simple(Permutation.identity(2000))


class TestInflate:
    def test_inflation_example(self):
        result = inflate(P("3142"), [P("123"), P("1"), P("21"), P("312")])
        assert result == P("567198423")

    def test_trivial_components(self):
        sigma = P("2413")
        assert inflate(sigma, [P("1")] * 4) == sigma
        assert inflate(P("1"), [P("2413")]) == P("2413")

    def test_errors(self):
        with pytest.raises(PermPatError):
            inflate(P("12"), [P("1")])
        with pytest.raises(PermPatError):
            inflate(P("12"), [P("1"), P("")])


class TestSubstitution:
    def test_inflation_example(self):
        skeleton, comps = substitution_decompose(P("567198423"))
        assert skeleton == P("3142")
        assert comps == [P("123"), P("1"), P("21"), P("312")]

    def test_canonical_sum_skeleton(self):
        assert substitution_decompose(P("123")) == (P("123"), [P("1")] * 3)

    def test_simple_input(self):
        assert substitution_decompose(P("2413")) == (P("2413"), [P("1")] * 4)

    @pytest.mark.parametrize("skeleton", ["2413", "3142", "24153", "35142"])
    @pytest.mark.parametrize("runs", [False, True], ids=["random", "increasing-runs"])
    def test_inflation_of_simple_skeleton_is_unique(self, skeleton, runs):
        rng = random.Random(skeleton)
        skeleton = P(skeleton)
        for n in (400, 2000):
            sizes = [n // len(skeleton)] * len(skeleton)
            sizes[0] += n - sum(sizes)
            comps = [
                Permutation.identity(k) if runs else Permutation(rng.sample(range(1, k + 1), k))
                for k in sizes
            ]
            assert substitution_decompose(inflate(skeleton, comps)) == (skeleton, comps)

    @pytest.mark.parametrize("skeleton", ["2413", "3142", "25314", "41352", "24681357"])
    def test_inflation_with_small_random_components(self, skeleton):
        rng = random.Random(skeleton)
        skeleton = P(skeleton)
        assert brute_is_simple(skeleton)
        for _ in range(50):
            comps = [Permutation(rng.sample(range(1, k + 1), k))
                     for k in (rng.randint(1, 5) for _ in skeleton.values)]
            assert substitution_decompose(inflate(skeleton, comps)) == (skeleton, comps)

    def test_short_input_errors(self):
        with pytest.raises(PermPatError, match="not an inflation"):
            substitution_decompose(P("1"))
        with pytest.raises(PermPatError):
            substitution_decompose(P(""))


class TestExtremal:
    EX14 = parse("7 10 1 4 9 14 2 11 3 13 12 6 8 5")

    def test_ex14_counts(self):
        assert len(extremal(self.EX14, "lr-max")) == 3
        assert len(extremal(self.EX14, "rl-min")) == 4
        assert len(extremal(self.EX14, "lr-min")) == 2
        assert len(extremal(self.EX14, "rl-max")) == 5

    def test_increasing(self):
        assert extremal(P("12345"), "lr-max") == [1, 2, 3, 4, 5]

    def test_positions_increasing(self):
        for kind in ("lr-max", "lr-min", "rl-max", "rl-min"):
            positions = extremal(self.EX14, kind)
            assert positions == sorted(positions)

    def test_matches_definition(self):
        for n in range(7):
            for sigma in all_perms(n):
                v = sigma.values
                records = {
                    "lr-max": lambda i: all(v[i] > u for u in v[:i]),
                    "lr-min": lambda i: all(v[i] < u for u in v[:i]),
                    "rl-max": lambda i: all(v[i] > u for u in v[i + 1 :]),
                    "rl-min": lambda i: all(v[i] < u for u in v[i + 1 :]),
                }
                for kind, is_record in records.items():
                    assert extremal(sigma, kind) == [i + 1 for i in range(n) if is_record(i)]

    def test_unknown_kind(self):
        with pytest.raises(PermPatError):
            extremal(self.EX14, "up-left")


class TestSymmetry:
    def test_generators_on_132(self):
        assert Symmetry.REVERSE.apply(P("132")) == P("231")
        assert Symmetry.COMPLEMENT.apply(P("132")) == P("312")
        assert Symmetry.INVERSE.apply(P("132")) == P("132")

    def test_identity(self):
        assert Symmetry.IDENTITY.apply(EX9) == EX9

    def test_orbit_of_132(self):
        assert symmetry_orbit(P("132")) == {P("132"), P("213"), P("231"), P("312")}

    def test_eight_distinct_maps(self):
        for n in (3, 4):
            images = {
                tuple(sym.apply(p) for p in all_perms(n)) for sym in Symmetry
            }
            assert len(images) == 8

    def test_group_closure(self):
        # composing any two symmetries acts like some symmetry, on all of S_4
        perms = all_perms(4)
        table = {
            sym: tuple(sym.apply(p) for p in perms) for sym in Symmetry
        }
        for a in Symmetry:
            for b in Symmetry:
                composed = tuple(b.apply(a.apply(p)) for p in perms)
                assert composed in set(table.values())


class TestSmallProperties:
    """Reduced-size runs of the shared property suites (full sizes run in
    the acceptance module)."""

    def test_contains_oracle_small(self):
        prop_checks.check_contains_oracle(max_host=5, max_pat=4)

    def test_occurrence_contract_small(self):
        prop_checks.check_occurrence_contract(max_host=5, max_pat=3)

    def test_roundtrips_small(self):
        prop_checks.check_sum_skew_roundtrip(max_n=6)
        prop_checks.check_substitution_roundtrip(max_n=6)
        prop_checks.check_not_both_decomposable(max_n=6)

    def test_symmetry_equivariance_small(self):
        prop_checks.check_symmetry_equivariance_containment(max_host=5)

    def test_partial_order(self):
        prop_checks.check_partial_order(max_n=5)

    def test_interval_counts_small(self):
        prop_checks.check_interval_counts(max_n=6)
