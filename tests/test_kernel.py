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


@settings(max_examples=400, deadline=None)
@given(parent=perms(0, 7), pattern=perms(1, 6), data=st.data())
def test_anchored_matches_oracle(parent, pattern, data):
    sigma = parent.values
    g = data.draw(st.integers(0, len(sigma)), label="gap")
    cand = with_new_maximum(sigma, g)
    expected = any(g + 1 in occ for occ in brute_occurrences(cand, pattern))
    assert _kernel(pattern.values, "anchored")(sigma, g) == expected
    assert _kernel(pattern.values, "anchored")(bytes(sigma), g) == expected
    assert _stack_search(sigma, pattern.values, "anchored", g) == expected


def test_loop_limit_is_where_compilation_ends():
    pat = tuple(range(1, _MAX_LOOPS + 1))
    compile(_source(pat, "first"), "<kernel>", "exec")
    compile(_source(pat, "all"), "<kernel>", "exec")
    compile(_source(pat + (_MAX_LOOPS + 1,), "anchored"), "<kernel>", "exec")


def test_patterns_beyond_the_loop_limit():
    pat = (2, 1) + tuple(range(3, _MAX_LOOPS + 3))  # one slot too many to compile
    host = Permutation((3, 1, 2) + tuple(range(4, _MAX_LOOPS + 6)))
    pattern = Permutation(pat)
    expected = brute_occurrences(host, pattern)
    assert occurrences(host, pattern) == expected
    assert find_occurrence(host, pattern) == expected[0]
    for g in range(len(host) + 1):
        cand = with_new_maximum(host.values, g)
        anchored = any(g + 1 in occ for occ in occurrences(cand, pattern))
        assert _kernel(pat, "anchored")(host.values, g) == anchored


def test_cli_identity_1249_in_identity_1299(capsys):
    host = " ".join(map(str, range(1, 1300)))
    pattern = " ".join(map(str, range(1, 1250)))
    assert cli.main(["contains", host, pattern]) == 0
    out = capsys.readouterr().out
    assert out == "true (" + ",".join(map(str, range(1, 1250))) + ")\n"
