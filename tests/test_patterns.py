import pytest
from hypothesis import given, settings, strategies as st

from permpat import (
    BarredPattern,
    BivincularPattern,
    MeshPattern,
    PatternSyntaxError,
    Permutation,
    PermPatError,
    VincularPattern,
    barred_contains,
    compile_bivincular,
    compile_vincular,
    consecutive_pattern,
    contains,
    mesh_occurrences,
    occurrences,
    parse,
    parse_pattern,
    perm,
    vincular_count,
)

from oracles import (
    all_perms,
    brute_barred_contains,
    brute_mesh_occurrences,
    brute_occurrences,
    vincular_occurrences_direct,
)

import prop_checks

HOST = parse("314265")
MESH_3241 = MeshPattern(
    parse("3241"), frozenset({(0, 2), (1, 3), (1, 4), (4, 2), (4, 3)})
)


class TestMeshPattern:
    def test_cell_bounds_checked_at_construction(self):
        with pytest.raises(PermPatError):
            MeshPattern(parse("21"), frozenset({(3, 0)}))
        with pytest.raises(PermPatError):
            MeshPattern(parse("21"), frozenset({(0, -1)}))

    def test_empty_shading_is_classical(self):
        mp = MeshPattern(parse("1423"), frozenset())
        assert mesh_occurrences(parse("314592687"), mp) == occurrences(
            parse("314592687"), parse("1423")
        )

    def test_shaded_self_match(self):
        # the identity embedding leaves every shaded region empty
        assert mesh_occurrences(parse("3241"), MESH_3241) == [(1, 2, 3, 4)]

    def test_shading_can_reject(self):
        # 3241 occurs classically in 35241 but some embeddings die to shading
        host = parse("35241")
        classical = occurrences(host, parse("3241"))
        meshed = mesh_occurrences(host, MESH_3241)
        assert set(meshed) <= set(classical)
        # brute re-check of the region condition for every classical occurrence
        expected = []
        for occ in classical:
            p = (0,) + occ + (6,)
            vals = sorted(host.values[i - 1] for i in occ)
            q = (0,) + tuple(vals) + (6,)
            bad = False
            for i, j in MESH_3241.shaded:
                for x in range(1, 6):
                    if p[i] < x < p[i + 1] and q[j] < host.values[x - 1] < q[j + 1]:
                        bad = True
            if not bad:
                expected.append(occ)
        assert meshed == expected

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_definition_on_random_shadings(self, data):
        k = data.draw(st.integers(0, 5), label="k")
        pattern = Permutation(data.draw(st.permutations(range(1, k + 1)), label="pattern"))
        cells = [(i, j) for i in range(k + 1) for j in range(k + 1)]
        shaded = data.draw(st.one_of(st.just(set()), st.just(set(cells)),
                                     st.sets(st.sampled_from(cells))), label="shaded")
        n = data.draw(st.integers(0, 8), label="n")
        host = Permutation(data.draw(st.permutations(range(1, n + 1)), label="host"))
        expected = brute_mesh_occurrences(host, pattern, shaded)
        assert mesh_occurrences(host, MeshPattern(pattern, frozenset(shaded))) == expected

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_pattern_longer_than_the_loop_limit(self, data):
        # The pattern plus four inserted entries of distinct values: a host
        # that contains it, with few enough index subsets for the oracle.
        k = data.draw(st.integers(perm._MAX_LOOPS + 1, perm._MAX_LOOPS + 4), label="k")
        pattern = Permutation(data.draw(st.permutations(range(1, k + 1)), label="pattern"))
        word = [v + 0.5 for v in pattern.values]
        extras = data.draw(st.lists(st.integers(0, k), min_size=4, max_size=4), label="extra")
        for t, below in enumerate(extras):
            word.insert(data.draw(st.integers(0, len(word)), label="at"), below + (t + 1) / 10)
        host = Permutation([sorted(word).index(v) + 1 for v in word])
        cells = st.tuples(st.integers(0, k), st.integers(0, k))
        shaded = data.draw(st.sets(cells, min_size=1, max_size=4), label="shaded")
        expected = brute_mesh_occurrences(host, pattern, shaded)
        assert mesh_occurrences(host, MeshPattern(pattern, frozenset(shaded))) == expected


class TestVincular:
    def test_counts_on_314265(self):
        assert vincular_count(HOST, parse_pattern("2-31-4")) == 2
        assert vincular_count(HOST, parse_pattern("2-314")) == 1
        assert vincular_count(HOST, parse_pattern("23-14")) == 0
        assert vincular_count(HOST, parse_pattern("2-31-4")) > 0
        assert vincular_count(HOST, parse_pattern("23-14")) == 0

    def test_compile_shades_full_columns(self):
        vp = VincularPattern(parse("2314"), frozenset({2}))
        mp = compile_vincular(vp)
        assert mp.shaded == frozenset((2, j) for j in range(5))

    def test_no_adjacency_is_classical(self):
        vp = VincularPattern(parse("231"), frozenset())
        assert compile_vincular(vp).shaded == frozenset()
        for host in all_perms(5):
            assert mesh_occurrences(host, compile_vincular(vp)) == occurrences(
                host, parse("231")
            )

    def test_consecutive_pattern(self):
        cp = consecutive_pattern(parse("213"))
        assert cp.adjacent_positions == frozenset({1, 2})
        got = mesh_occurrences(HOST, compile_vincular(cp))
        # brute force: contiguous index triples matching 213
        expected = [
            occ
            for occ in brute_occurrences(HOST, parse("213"))
            if occ[1] == occ[0] + 1 and occ[2] == occ[1] + 1
        ]
        assert got == expected
        assert expected  # 213 does occur consecutively in 314265

    def test_adjacency_bounds(self):
        with pytest.raises(PermPatError):
            VincularPattern(parse("231"), frozenset({3}))


class TestBivincular:
    def test_rows_shaded(self):
        bp = BivincularPattern(parse("231"), frozenset({1}), frozenset({2}))
        mp = compile_bivincular(bp)
        assert frozenset((1, j) for j in range(4)) <= mp.shaded
        assert frozenset((i, 2) for i in range(4)) <= mp.shaded

    def test_value_adjacency_semantics(self):
        # values matched to pattern values v, v+1 must be consecutive integers
        bp = BivincularPattern(parse("12"), frozenset(), frozenset({1}))
        for host in all_perms(4):
            got = mesh_occurrences(host, compile_bivincular(bp))
            expected = [
                occ
                for occ in brute_occurrences(host, parse("12"))
                if host.values[occ[1] - 1] == host.values[occ[0] - 1] + 1
            ]
            assert got == expected

    def test_value_bounds(self):
        with pytest.raises(PermPatError):
            BivincularPattern(parse("21"), frozenset(), frozenset({2}))


class TestBarred:
    # the worked example: bars on the entries 3 and 1 of 53214
    EXAMPLE = BarredPattern(parse("53214"), frozenset({2, 4}))

    def test_effective_pattern(self):
        assert self.EXAMPLE.effective == parse("312")
        assert self.EXAMPLE.unbarred_positions == (1, 3, 5)

    def test_host_avoiding_effective(self):
        # no occurrence of 312 at all, so nothing can witness containment
        assert not contains(parse("123456"), parse("312"))
        assert not barred_contains(parse("123456"), self.EXAMPLE)

    def test_host_equal_to_whole_pattern(self):
        # Brute-force derivation of the semantics on host 53214: 312 occurs
        # at (1,2,5), (1,3,5) and (1,4,5); the whole pattern occurs only as
        # the identity, whose unbarred restriction is (1,3,5).  The other
        # two 312-occurrences cannot extend, so the barred pattern IS
        # contained in its own underlying permutation.
        host = parse("53214")
        eff_occs = brute_occurrences(host, parse("312"))
        assert eff_occs == [(1, 2, 5), (1, 3, 5), (1, 4, 5)]
        full_occs = brute_occurrences(host, parse("53214"))
        assert full_occs == [(1, 2, 3, 4, 5)]
        restrictions = {tuple(occ[i - 1] for i in (1, 3, 5)) for occ in full_occs}
        assert restrictions == {(1, 3, 5)}
        assert barred_contains(host, self.EXAMPLE)

    def test_unique_extension_gives_avoidance(self):
        # host 3142, pattern 3142 with position 2 barred: effective 231
        # occurs only at (1,3,4), which restricts from the identity
        bp = BarredPattern(parse("3142"), frozenset({2}))
        host = parse("3142")
        assert bp.effective == parse("231")
        assert brute_occurrences(host, parse("231")) == [(1, 3, 4)]
        assert not barred_contains(host, bp)

    def test_multiple_bars_supported(self):
        bp = BarredPattern(parse("4321"), frozenset({1, 4}))
        assert bp.effective == parse("21")
        # the host is too short for 4321, so its lone 21 cannot extend
        assert barred_contains(parse("21"), bp)

    def test_exhaustive_consistency_with_definition(self):
        # independent two-phase evaluation on every host of length <= 5
        bp = self.EXAMPLE
        unbarred = bp.unbarred_positions
        for n in range(6):
            for host in all_perms(n):
                extendable = {
                    tuple(occ[i - 1] for i in unbarred)
                    for occ in brute_occurrences(host, bp.pattern)
                }
                expected = any(
                    occ not in extendable
                    for occ in brute_occurrences(host, bp.effective)
                )
                assert barred_contains(host, bp) == expected

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_definition_on_random_patterns(self, data):
        k = data.draw(st.integers(2, 6), label="k")
        pattern = Permutation(data.draw(st.permutations(range(1, k + 1)), label="pattern"))
        bars = data.draw(st.sets(st.integers(1, k), min_size=1, max_size=k - 1), label="bars")
        n = data.draw(st.integers(0, 8), label="n")
        host = Permutation(data.draw(st.permutations(range(1, n + 1)), label="host"))
        expected = brute_barred_contains(host, pattern, bars)
        assert barred_contains(host, BarredPattern(pattern, frozenset(bars))) == expected

    def test_thousand_entry_hosts(self):
        # 3`12: a 12 not extended by a larger entry to its left.  In the
        # host 1000, 1, 2, ..., 999 the leading 1000 extends every one of
        # the ~500,000 occurrences of 12; moving 1000 to the end leaves the
        # occurrence (1, 2) with nothing to its left.
        bp = parse_pattern("3`12")
        assert not barred_contains(Permutation([1000, *range(1, 1000)]), bp)
        assert barred_contains(Permutation([*range(1, 1000), 1000]), bp)

    def test_validation(self):
        with pytest.raises(PermPatError):
            BarredPattern(parse("321"), frozenset())  # no bars
        with pytest.raises(PermPatError):
            BarredPattern(parse("321"), frozenset({1, 2, 3}))  # all barred


class TestParsePattern:
    def test_vincular_text(self):
        vp = parse_pattern("2-31-4")
        assert isinstance(vp, VincularPattern)
        assert vp.pattern == parse("2314")
        assert vp.adjacent_positions == frozenset({2})

    def test_classical_text(self):
        assert parse_pattern("231") == parse("231")

    def test_mesh_json(self):
        mp = parse_pattern(
            '{"perm":[3,2,4,1],"shaded":[[0,2],[1,3],[1,4],[4,2],[4,3]]}'
        )
        assert mp == MESH_3241

    def test_bivincular_json(self):
        bp = parse_pattern(
            '{"perm":[2,3,1],"adjacent_positions":[1],"adjacent_values":[2]}'
        )
        assert bp == BivincularPattern(parse("231"), frozenset({1}), frozenset({2}))

    def test_barred_text(self):
        bp = parse_pattern("53`21`4")
        assert bp == BarredPattern(parse("53214"), frozenset({2, 4}))

    def test_errors_carry_position(self):
        with pytest.raises(PatternSyntaxError) as exc_info:
            parse_pattern("2--31")
        assert exc_info.value.position == 2
        with pytest.raises(PatternSyntaxError):
            parse_pattern("2-31-")
        with pytest.raises(PatternSyntaxError):
            parse_pattern("`12")
        with pytest.raises(PatternSyntaxError):
            parse_pattern("")

    @pytest.mark.parametrize("text", ["2²-1", "2²`1", "2-١", "١`2", "0-1"])
    def test_only_ascii_digits_1_to_9(self, text):
        with pytest.raises(PatternSyntaxError, match="expected a digit 1-9"):
            parse_pattern(text)

    def test_deeply_nested_json(self):
        with pytest.raises(PatternSyntaxError, match="nested too deeply"):
            parse_pattern('{"perm":' + "[" * 5000 + "]" * 5000 + "}")


class TestSmallProperties:
    def test_mesh_classical_consistency_small(self):
        prop_checks.check_mesh_classical_consistency(max_host=5, max_pat=3)

    def test_shading_monotonicity_small(self):
        prop_checks.check_shading_monotonicity(trials=150)

    def test_vincular_compile_small(self):
        prop_checks.check_vincular_compile(max_host=5, max_pat=3)

    def test_bivincular_compile_small(self):
        prop_checks.check_bivincular_compile(max_host=5, max_pat=3)

    def test_consecutive_contiguous_small(self):
        prop_checks.check_consecutive_contiguous(max_host=5)
