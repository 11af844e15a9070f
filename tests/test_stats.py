import random
from itertools import permutations as all_words
from math import factorial

import pytest

from permpat import (
    IterationCapError,
    Permutation,
    Symmetry,
    UnknownStatisticError,
    descent_set,
    distribution,
    equidistributed,
    parse,
    statistic,
)

from oracles import pair_inversions

EX9 = parse("314592687")


class TestDescentSet:
    def test_ex9(self):
        assert descent_set(EX9) == {1, 5, 8}

    def test_increasing(self):
        assert descent_set(Permutation.identity(6)) == set()

    def test_decreasing(self):
        assert descent_set(Permutation.decreasing(6)) == {1, 2, 3, 4, 5}


class TestStatisticValues:
    def test_ex9_values(self):
        assert statistic("des", EX9) == 3
        assert statistic("maj", EX9) == 1 + 5 + 8 == 14
        # excedances at positions 1, 3, 4, 5
        assert [i + 1 for i, v in enumerate(EX9.values) if v > i + 1] == [1, 3, 4, 5]
        assert statistic("exc", EX9) == 4

    def test_inv(self):
        assert statistic("inv", parse("21")) == 1
        assert statistic("inv", Permutation.identity(5)) == 0

    def test_inv_against_pair_count(self):
        rng = random.Random(11)
        for n in [*range(9), *rng.choices(range(9, 301), k=40), 300]:
            sigma = Permutation(rng.sample(range(1, n + 1), n))
            assert statistic("inv", sigma) == pair_inversions(sigma), sigma

    def test_empty_permutation(self):
        for name in ("des", "inv", "exc", "maj"):
            assert statistic(name, parse("")) == 0

    def test_unknown_statistic(self):
        with pytest.raises(UnknownStatisticError):
            statistic("foo", EX9)


class TestDistribution:
    def test_eulerian_n3(self):
        assert distribution("des", 3) == [1, 4, 1]

    def test_inv_n3(self):
        assert distribution("inv", 3) == [1, 2, 2, 1]

    def test_n1(self):
        for name in ("des", "inv", "exc", "maj"):
            assert distribution(name, 1) == [1]

    def test_n0(self):
        assert distribution("des", 0) == [1]

    def test_sums_to_factorial(self):
        for n in range(7):
            assert sum(distribution("maj", n)) == factorial(n)

    def test_cap_error_names_cap(self):
        with pytest.raises(IterationCapError, match="cap of 10"):
            distribution("des", 11)
        with pytest.raises(IterationCapError, match="cap of 4"):
            distribution("des", 5, cap=4)

    def test_unknown_statistic(self):
        with pytest.raises(UnknownStatisticError):
            distribution("nope", 3)


class TestEquidistribution:
    def test_des_exc(self):
        assert all(eq for _, eq in equidistributed("des", "exc", 8))

    def test_inv_maj(self):
        assert all(eq for _, eq in equidistributed("inv", "maj", 8))

    def test_reflexive(self):
        assert all(eq for _, eq in equidistributed("des", "des", 5))

    def test_distinguishable_pair(self):
        # des and inv differ already at n = 3: [1,4,1] vs [1,2,2,1]
        verdicts = dict(equidistributed("des", "inv", 3))
        assert verdicts[3] is False


class TestStatisticProperties:
    def test_maj_dominates_des(self):
        # maj >= des, equality exactly when the descent set is within {1}
        for n in range(8):
            for word in all_words(range(1, n + 1)):
                sigma = Permutation(word)
                d = descent_set(sigma)
                assert statistic("maj", sigma) >= statistic("des", sigma)
                assert (statistic("maj", sigma) == statistic("des", sigma)) == (
                    d <= {1}
                )

    def test_inv_extremes(self):
        for n in range(1, 8):
            top = n * (n - 1) // 2
            argmax = [
                Permutation(w)
                for w in all_words(range(1, n + 1))
                if statistic("inv", Permutation(w)) == top
            ]
            assert argmax == [Permutation.decreasing(n)]
            zeros = [
                Permutation(w)
                for w in all_words(range(1, n + 1))
                if statistic("inv", Permutation(w)) == 0
            ]
            assert zeros == [Permutation.identity(n)]

    def test_des_invariant_under_rotation(self):
        # reverse-complement (180-degree rotation) preserves descents
        for n in range(8):
            for word in all_words(range(1, n + 1)):
                sigma = Permutation(word)
                rotated = Symmetry.ROTATE.apply(sigma)
                assert statistic("des", rotated) == statistic("des", sigma)

    def test_palindromic_distributions(self):
        for n in range(1, 9):
            eulerian = distribution("des", n)
            assert eulerian == eulerian[::-1]
            mahonian = distribution("inv", n)
            assert mahonian == mahonian[::-1]
