"""The compiled containment kernel and its long-pattern path, checked
against the brute-force oracles."""

from hypothesis import given, settings, strategies as st

from permpat import Permutation, cli, contains, find_occurrence, occurrences
from permpat.perm import _MAX_LOOPS, _kernel, _source, _stack_search

from oracles import brute_occurrences


def perms(min_size: int, max_size: int):
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.permutations(range(1, n + 1))
    ).map(Permutation)


def with_new_maximum(sigma: tuple[int, ...], g: int) -> Permutation:
    return Permutation(sigma[:g] + (len(sigma) + 1,) + sigma[g:])


@settings(max_examples=400, deadline=None)
@given(host=perms(0, 8), pattern=perms(0, 6))
def test_first_and_all_match_oracle(host, pattern):
    expected = brute_occurrences(host, pattern)
    assert occurrences(host, pattern) == expected
    assert find_occurrence(host, pattern) == (expected[0] if expected else None)
    assert contains(host, pattern) == bool(expected)
    assert _stack_search(host.values, pattern.values, "all") == expected
    assert _stack_search(host.values, pattern.values, "first") == find_occurrence(host, pattern)


def two_anchor_expected(child: Permutation, pattern: Permutation, g: int) -> bool:
    """Whether inserting a new maximum into child at gap g creates an
    occurrence of pattern that uses both the new point and child's maximum."""
    x = child.values.index(len(child))
    new, top = g + 1, (x + 1 if x < g else x + 2)
    cand = with_new_maximum(child.values, g)
    return any(new in occ and top in occ for occ in brute_occurrences(cand, pattern))


@settings(max_examples=400, deadline=None)
@given(parent=perms(0, 7), pattern=perms(2, 6), data=st.data())
def test_two_anchor_matches_oracle(parent, pattern, data):
    x = data.draw(st.integers(0, len(parent)), label="site")
    child = with_new_maximum(parent.values, x)
    g = data.draw(st.integers(0, len(child)), label="gap")
    expected = two_anchor_expected(child, pattern, g)
    sigma = child.values
    assert _kernel(pattern.values, "two-anchor")(sigma, g, x) == expected
    assert _kernel(pattern.values, "two-anchor")(bytes(sigma), g, x) == expected
    assert _stack_search(sigma, pattern.values, "two-anchor", g, x) == expected


def test_loop_limit_is_where_compilation_ends():
    pat = tuple(range(1, _MAX_LOOPS + 1))
    compile(_source(pat, "first"), "<kernel>", "exec")
    compile(_source(pat, "all"), "<kernel>", "exec")
    compile(_source(pat + (_MAX_LOOPS + 1, _MAX_LOOPS + 2), "two-anchor"), "<kernel>", "exec")


def test_patterns_beyond_the_loop_limit():
    pat = (2, 1) + tuple(range(3, _MAX_LOOPS + 3))  # one slot too many to compile
    host = Permutation((3, 1, 2) + tuple(range(4, _MAX_LOOPS + 6)))
    pattern = Permutation(pat)
    expected = brute_occurrences(host, pattern)
    assert occurrences(host, pattern) == expected
    assert find_occurrence(host, pattern) == expected[0]


def test_two_anchor_beyond_the_loop_limit():
    # _MAX_LOOPS + 1 slots once the two largest values are fixed, with the
    # second largest early and the largest in the middle, so all three
    # segments hold slots
    k = _MAX_LOOPS + 3
    middle = k // 2
    pat = (2, 1, k - 1) + tuple(range(3, middle)) + (k,) + tuple(range(middle, k - 1))
    kernel = _kernel(pat, "two-anchor")
    pattern = Permutation(pat)
    for parent in (tuple(range(1, k)), (2, 1) + tuple(range(3, k)), (3, 1, 2) + tuple(range(4, k))):
        for x in range(len(parent) + 1):
            child = with_new_maximum(parent, x)
            for g in range(len(child) + 1):
                expected = two_anchor_expected(child, pattern, g)
                assert kernel(child.values, g, x) == expected, (parent, x, g)


def test_cli_identity_1249_in_identity_1299(capsys):
    host = " ".join(map(str, range(1, 1300)))
    pattern = " ".join(map(str, range(1, 1250)))
    assert cli.main(["contains", host, pattern]) == 0
    out = capsys.readouterr().out
    assert out == "true (" + ",".join(map(str, range(1, 1250))) + ")\n"
