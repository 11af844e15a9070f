"""The compiled containment kernel in both its shapes, checked against
the brute-force oracles.  Plans of more than `_MAX_LOOPS` searched slots
compile as blocks of generator clauses; `long_plans` lowers that limit so
the block shape runs on short patterns too, chained over many blocks."""

import os
import random
import subprocess
import sys
from contextlib import contextmanager
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from permpat import Permutation, cli, contains, find_occurrence, occurrences, perm
from permpat.perm import _MAX_LOOPS, _kernel, _monotone_run, _source

from oracles import all_perms, brute_longest_run, brute_occurrences, reduce_tuple


def perms(min_size: int, max_size: int):
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.permutations(range(1, n + 1))
    ).map(Permutation)


@contextmanager
def long_plans(limit: int):
    """Compile every plan of more than `limit` searched slots in blocks of
    `limit` slots."""
    with mock.patch.object(perm, "_MAX_LOOPS", limit):
        _kernel.cache_clear()
        try:
            yield
        finally:
            _kernel.cache_clear()


# The nested shape, then blocks of one, two and three slots.
SHAPES = (_MAX_LOOPS, 1, 2, 3)


def with_new_maximum(sigma: tuple[int, ...], g: int) -> Permutation:
    return Permutation(sigma[:g] + (len(sigma) + 1,) + sigma[g:])


@settings(max_examples=400, deadline=None)
@given(host=perms(0, 8), pattern=perms(0, 6))
def test_first_and_all_match_oracle(host, pattern):
    expected = brute_occurrences(host, pattern)
    for limit in SHAPES:
        with long_plans(limit):
            assert occurrences(host, pattern) == expected
            assert find_occurrence(host, pattern) == (expected[0] if expected else None)
            assert contains(host, pattern) == bool(expected)
            assert list(_kernel(pattern.values, "each")(host.values)) == expected


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
    for limit in SHAPES:
        with long_plans(limit):
            assert _kernel(pattern.values, "two-anchor")(sigma, g, x) == expected
            assert _kernel(pattern.values, "two-anchor")(bytes(sigma), g, x) == expected


def extend_expected(host: Permutation, pattern: Permutation, bars: tuple[int, ...],
                    occ: tuple[int, ...]) -> bool:
    """Whether some occurrence of pattern has its unbarred slots at occ."""
    unbarred = [i for i in range(len(pattern)) if i + 1 not in bars]
    return any(tuple(full[i] for i in unbarred) == occ
               for full in brute_occurrences(host, pattern))


def effective_occurrences(host: Permutation, pattern: Permutation, bars: tuple[int, ...]):
    effective = reduce_tuple(tuple(v for i, v in enumerate(pattern.values, 1) if i not in bars))
    return brute_occurrences(host, Permutation(effective))


@settings(max_examples=400, deadline=None)
@given(host=perms(0, 8), pattern=perms(2, 6), data=st.data())
def test_extend_matches_oracle(host, pattern, data):
    positions = range(1, len(pattern) + 1)
    bars = tuple(sorted(data.draw(
        st.sets(st.sampled_from(positions), min_size=1, max_size=len(pattern) - 1), label="bars")))
    cases = [(occ, extend_expected(host, pattern, bars, occ))
             for occ in effective_occurrences(host, pattern, bars)]
    for limit in SHAPES:
        with long_plans(limit):
            kernel = _kernel(pattern.values, "extend", bars)
            for occ, expected in cases:
                assert kernel(host.values, *occ) == expected, (limit, occ)


def test_loop_limit_is_where_compilation_ends():
    pat = tuple(range(1, _MAX_LOOPS + 1))
    compile(_source(pat, "first"), "<kernel>", "exec")
    compile(_source(pat, "each"), "<kernel>", "exec")
    compile(_source(pat + (_MAX_LOOPS + 1, _MAX_LOOPS + 2), "two-anchor"), "<kernel>", "exec")
    compile(_source(pat + (_MAX_LOOPS + 1,), "extend", tuple(range(1, _MAX_LOOPS + 1))),
            "<kernel>", "exec")


def test_patterns_beyond_the_loop_limit():
    pat = (2, 1) + tuple(range(3, _MAX_LOOPS + 3))  # one slot too many to compile
    host = Permutation((3, 1, 2) + tuple(range(4, _MAX_LOOPS + 6)))
    pattern = Permutation(pat)
    expected = brute_occurrences(host, pattern)
    assert occurrences(host, pattern) == expected
    assert find_occurrence(host, pattern) == expected[0]
    stream = _kernel(pat, "each")(host.values)
    assert next(stream) == expected[0] and list(stream) == expected[1:]


def test_extend_beyond_the_loop_limit():
    # _MAX_LOOPS + 1 barred slots around three unbarred ones, the middle
    # one out of order so the fixed values bound the barred windows
    k = _MAX_LOOPS + 4
    pat = tuple(range(1, k // 2)) + (k,) + tuple(range(k // 2, k))
    unbarred = (1, k // 2, k)
    bars = tuple(i for i in range(1, k + 1) if i not in unbarred)
    pattern = Permutation(pat)
    host = Permutation((2, 1) + tuple(v + 2 for v in pat))
    kernel = _kernel(pat, "extend", bars)
    occs = effective_occurrences(host, pattern, bars)
    results = [kernel(host.values, *occ) for occ in occs]
    assert results == [extend_expected(host, pattern, bars, occ) for occ in occs]
    assert True in results and False in results


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


def test_cli_identity_25000_in_identity_25050():
    # A single generator expression over all 25,000 slots crashes the
    # compiler; blocks of _MAX_LOOPS slots compile, and the search does
    # not recurse.  A child process keeps a crash from taking the suite.
    src = os.path.dirname(os.path.dirname(perm.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys; from permpat import cli; "
            "text = lambda n: ' '.join(map(str, range(1, n + 1))); "
            "sys.exit(cli.main(['contains', text(25050), text(25000)]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout == "true (" + ",".join(map(str, range(1, 25001))) + ")\n"


@contextmanager
def first_budget(steps: int):
    """Compile "first" kernels with `steps` loop steps per host entry."""
    with mock.patch.object(perm, "_FIRST_BUDGET", steps):
        _kernel.cache_clear()
        try:
            yield
        finally:
            _kernel.cache_clear()


@settings(max_examples=400, deadline=None)
@given(host=perms(0, 8), pattern=perms(0, 6))
def test_first_after_the_budget_runs_out_matches_oracle(host, pattern):
    # Hosts this short never spend the budget; at 0 every search that
    # runs a loop out builds its guards there.
    expected = brute_occurrences(host, pattern)
    with first_budget(0):
        assert find_occurrence(host, pattern) == (expected[0] if expected else None)


def test_sources_of_hot_plans_are_pinned():
    # One small plan per mode in the nested shape, so that a plan change
    # cannot alter a hot kernel unseen.
    assert _source((1, 3, 2, 4), "first") == FIRST_1324
    assert _source((1, 3, 2), "each") == EACH_132
    assert _source((2, 1, 4, 3), "two-anchor") == TWO_ANCHOR_2143
    assert _source((2, 1, 3, 4), "extend", (2, 4)) == EXTEND_2134_BARS_2_4


FIRST_1324 = """\
def kernel(h, g=0, guards=()):
    m = len(h)
    if m - g < 4:
        return None
    mins, maxs, steps = guards or ((), (), 16 * m)
    e0 = m - 3
    e1 = m - 2
    e2 = m - 1
    e3 = m
    for p0 in range(g, e0):
        v0 = h[p0]
        if not mins or v0 < maxs[p0]:
            for p1 in range(p0 + 1, e1):
                v1 = h[p1]
                if v0 < v1 and (not mins or mins[p1] < v1 < maxs[p1]):
                    for p2 in range(p1 + 1, e2):
                        if v0 < h[p2] < v1:
                            for p3 in range(p2 + 1, e3):
                                if v1 < h[p3]:
                                    return (p0 + 1, p1 + 1, p2 + 1, p3 + 1)
                            steps -= e3 - p2 - 1
                            if steps < 0:
                                mins, maxs, steps = guards = _guards(h, p0, (3, 2))
                                if not (v0 < maxs[p0] and mins[p1] < v1 < maxs[p1]):
                                    return kernel(h, p0, guards)
                    steps -= e2 - p1 - 1
                    if steps < 0:
                        mins, maxs, steps = guards = _guards(h, p0, (3, 2))
                        if not (v0 < maxs[p0] and mins[p1] < v1 < maxs[p1]):
                            return kernel(h, p0, guards)
            steps -= e1 - p0 - 1
            if steps < 0:
                mins, maxs, steps = guards = _guards(h, p0, (3, 2))
                if not (v0 < maxs[p0]):
                    return kernel(h, p0, guards)
    return None
"""

EACH_132 = """\
def kernel(h, g=0):
    m = len(h)
    h = (0, *h)
    if m - g < 3:
        return None
    e0 = m - 1
    e1 = m
    e2 = m + 1
    for p0 in range(g + 1, e0):
        v0 = h[p0]
        for p1 in range(p0 + 1, e1):
            v1 = h[p1]
            if v0 < v1:
                for p2 in range(p1 + 1, e2):
                    if v0 < h[p2] < v1:
                        yield (p0, p1, p2)
    return None
"""

TWO_ANCHOR_2143 = """\
def kernel(h, g=0, x=0):
    m = len(h)
    if g < 2 or x - g < 0:
        return False
    e0 = g - 1
    e1 = g
    for p0 in range(0, e0):
        v0 = h[p0]
        for p1 in range(p0 + 1, e1):
            if h[p1] < v0:
                return True
    return False
"""

EXTEND_2134_BARS_2_4 = """\
def kernel(h, a0=0, a1=0):
    m = len(h)
    if a1 - a0 < 2 or m - a1 < 1:
        return False
    v0 = h[a0 - 1]
    v1 = h[a1 - 1]
    e2 = a1 - 1
    e3 = m
    for p2 in range(a0, e2):
        if h[p2] < v0:
            for p3 in range(a1, e3):
                if v1 < h[p3]:
                    return True
    return False
"""


def test_monotone_run_matches_oracle():
    for sigma in chain.from_iterable(all_perms(n) for n in range(8)):
        for sign in (1, -1):
            longest = brute_longest_run(sigma, sign)
            for cap in range(9):
                assert _monotone_run(sigma.values, sign, cap) == min(longest, cap), (sigma, sign, cap)


def merged_runs(n: int, rng: random.Random) -> Permutation:
    """A random merge of two increasing sequences: a 321-avoider."""
    low = set(rng.sample(range(1, n + 1), n // 2))
    runs = [sorted(low), sorted(set(range(1, n + 1)) - low)]
    word = []
    while runs[0] or runs[1]:
        word.append(runs[rng.randrange(2) if runs[0] and runs[1] else bool(runs[1])].pop(0))
    return Permutation(word)


@pytest.mark.parametrize("pattern", [(3, 2, 1), (4, 3, 2, 1), (1, 4, 3, 2)])
def test_host_without_a_long_enough_run_is_answered_by_the_prefilter(pattern):
    host = merged_runs(2000, random.Random(2000))
    # The runs are missing, so no suffix array is built for the host, also
    # by blocks, which take their guards at once.
    for limit in (_MAX_LOOPS, 1):
        with long_plans(limit):
            _kernel(pattern, "first")
            with mock.patch.object(perm, "_after", side_effect=AssertionError("suffix arrays built")):
                assert find_occurrence(host, Permutation(pattern)) is None


def test_dead_first_entry_is_cut_by_the_guards():
    # Value 1 first cannot start 2341, and an unguarded search from it
    # visits every increasing triple of the rest.
    rng = random.Random(2341)
    rest = list(range(2, 1997))
    rng.shuffle(rest)
    host = Permutation([1] + rest + [1998, 1999, 2000, 1997])
    pattern = Permutation((2, 3, 4, 1))
    witness = find_occurrence(host, pattern)
    assert witness is not None and witness[0] > 1
    assert reduce_tuple(tuple(host[p - 1] for p in witness)) == pattern.values
    with first_budget(0):
        assert find_occurrence(host, pattern) == witness
    with long_plans(2):
        assert find_occurrence(host, pattern) == witness


def test_restart_keeps_the_first_point():
    # Spent at once, the budget switches the guards on while p0 = 1 holds
    # value 1 and p1 = 2 value 2, which has no smaller value after it: the
    # search starts again from p0 = 1, which the least occurrence uses.
    host, pattern = Permutation((1, 2, 5, 4, 3)), Permutation((1, 4, 3, 2))
    with first_budget(0):
        assert find_occurrence(host, pattern) == (1, 3, 4, 5)


class CountedReads(tuple):
    """A host that counts the reads of its points."""
    reads = 0

    def __getitem__(self, i):
        CountedReads.reads += 1
        return tuple.__getitem__(self, i)


def test_dead_first_entry_costs_the_budget_only():
    # Unguarded, the first entry alone costs C(299, 3), 4.4 million reads.
    rng = random.Random(300)
    rest = list(range(2, 301))
    rng.shuffle(rest)
    host = CountedReads([1] + rest)
    CountedReads.reads = 0
    witness = _kernel((2, 3, 4, 1), "first")(host)
    assert witness is not None and witness[0] > 1
    assert CountedReads.reads < 3 * perm._FIRST_BUDGET * len(host)


def test_guards_beyond_the_loop_limit():
    k = _MAX_LOOPS + 2
    pattern = Permutation(tuple(range(2, k + 1)) + (1,))  # one slot too many to compile
    dead_first = Permutation((1,) + tuple(range(3, k + 4)) + (2,))
    for host in (dead_first, Permutation(tuple(range(k + 3, 0, -1)))):
        expected = brute_occurrences(host, pattern)
        assert find_occurrence(host, pattern) == (expected[0] if expected else None)
    assert find_occurrence(dead_first, pattern)[0] == 2


def test_import_compiles_no_kernel():
    # Importing the CLI compiles no containment kernel and no mesh filter,
    # and loads no thread pool: all of it is paid by the first op using it.
    src = os.path.dirname(os.path.dirname(perm.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, permpat.cli, permpat.perm as p, permpat.patterns as m; "
            "print(p._kernel.cache_info().currsize, m._mesh_filter.cache_info().currsize, "
            "'concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "0 0 False\n"
