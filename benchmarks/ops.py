"""Seeded workloads: the CLI argument lists one pass runs, each paired with
an independent check of its output.

A workload is a warm-up op plus an ordered list of ops.  The seed fixes
what the program is given: on `query` the hosts and the order of the ops,
on `enumerate` and `classify` the order in which bases and `wilf`
arguments are written.  The op lists of `enumerate` and `classify` keep a
fixed order, because the order changes heap fragmentation and with it peak
RSS (36 against 39 MB on `classify`).  Sizes come from fixed grids rather
than from the seed, so two seeds give the same mix of work and differ only
in content; that keeps the end-to-end numbers comparable across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from checks import Perm, compact, spaced

README_MESH = {"perm": [3, 2, 4, 1], "shaded": [[0, 2], [1, 3], [1, 4], [4, 2], [4, 3]]}
BIVINCULAR = {"perm": [1, 3, 2], "adjacent_positions": [2], "adjacent_values": [1]}
VINCULAR = "2-31-4"
BARRED = "53`21`4"
LENGTH3 = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]


@dataclass
class Op:
    argv: list[str]
    check: Callable[[str], bool]
    # For mesh-family matches: (host, classical pattern) whose classical
    # occurrences the matches were filtered from (base of patterns.kept_ratio).
    mesh_base: tuple[Perm, Perm] | None = None


@dataclass
class Workload:
    warmup: Op
    ops: list[Op]


def grid(lo: int, hi: int, count: int) -> list[int]:
    """`count` sizes spread evenly over lo..hi."""
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


def random_perm(rng: random.Random, n: int) -> Perm:
    return tuple(rng.sample(range(1, n + 1), n))


def planted_host(rng: random.Random, n: int, patterns: list[Perm]) -> Perm:
    """A random permutation of length n with each pattern planted on its own
    positions and values, so each is contained by construction.

    The first entry holds a value from the middle half.  The search tries
    it first, and an entry near the bottom or top of the range may start no
    occurrence at all; refuting it costs O(n^(k-1)).  That case is measured
    on its own (see query_workload)."""
    total = sum(len(p) for p in patterns)
    positions = rng.sample(range(1, n), total)
    values = rng.sample(range(1, n + 1), total)
    host = [0] * n
    at = 0
    for p in patterns:
        pos = sorted(positions[at:at + len(p)])
        vals = sorted(values[at:at + len(p)])
        for i, v in zip(pos, p):
            host[i] = vals[v - 1]
        at += len(p)
    taken = set(values)
    rest = [v for v in range(1, n + 1) if v not in taken]
    rng.shuffle(rest)
    middle = next(i for i, v in enumerate(rest) if n // 4 < v <= 3 * n // 4)
    rest[0], rest[middle] = rest[middle], rest[0]
    fill = iter(rest)
    return tuple(v or next(fill) for v in host)


def avoider_321(rng: random.Random, n: int) -> Perm:
    """A random merge of two increasing sequences.  Any decreasing
    subsequence takes at most one entry from each, so the result avoids
    321, and with it 4321 and 1432."""
    first = sorted(rng.sample(range(n), n // 2))
    first_vals = sorted(rng.sample(range(1, n + 1), n // 2))
    chosen = set(first)
    rest_vals = sorted(set(range(1, n + 1)) - set(first_vals))
    second = [i for i in range(n) if i not in chosen]
    host = [0] * n
    for i, v in zip(first, first_vals):
        host[i] = v
    for i, v in zip(second, rest_vals):
        host[i] = v
    return tuple(host)


def inflation(rng: random.Random, skeleton: Perm, sizes: list[int]) -> tuple[Perm, list[Perm]]:
    """skeleton[components]: block i is a copy of components[i] placed at
    the value range the skeleton entry i asks for."""
    comps = [random_perm(rng, s) for s in sizes]
    offsets = [sum(len(comps[j]) for j in range(len(skeleton)) if skeleton[j] < v)
               for v in skeleton]
    host = tuple(v + off for comp, off in zip(comps, offsets) for v in comp)
    return host, comps


# ---------------------------------------------------------------------------
# Workloads


def enumerate_workload(rng: random.Random, _files: Path) -> Workload:
    """A few large enumerations, all spent in the insert-the-maximum
    enumerator and its anchored containment search."""

    def basis(*patterns: str) -> str:
        return ",".join(rng.sample(patterns, len(patterns)))

    ops = [
        Op(["enumerate", "123", "--n", "12"], checks.counts(checks.CATALAN)),
        Op(["enumerate", "1342", "--n", "10"], checks.counts(checks.AV_1342)),
        Op(["enumerate", basis("2413", "3142"), "--n", "9"],
           checks.counts(checks.AV_2413_3142[:10])),
        Op(["growth", "1234", "--n", "9"], checks.growth(checks.AV_1234, window=3)),
        Op(["gf", "algfit", "123", "--n", "11", "--deg-z", "1", "--deg-y", "2"],
           checks.lines(["z*y^2 - y + 1"])),
        Op(["gf", "ratfit", basis("132", "213"), "--n", "12"],
           checks.lines(["(1 - z)/(1 - 2*z)"])),
        Op(["enumerate", basis("123", "132"), "--n", "9", "--witnesses", "--json"],
           checks.witnesses_json([(1, 2, 3), (1, 3, 2)], [1] + [2 ** (n - 1) for n in range(1, 10)])),
    ]
    warmup = Op(["enumerate", "123", "--n", "8"], checks.counts(checks.CATALAN[:9]))
    return Workload(warmup, ops)


def _classify_4_lines(n: int) -> list[str]:
    """Text of `classify 4 --n n`: the three Wilf classes of S_4 (unions of
    symmetry classes), ordered by their least member."""
    classes = [
        (checks.AV_1234, [(1, 2, 3, 4), (1, 2, 4, 3), (2, 1, 4, 3), (1, 4, 3, 2)]),
        (checks.AV_1324, [(1, 3, 2, 4)]),
        (checks.AV_1342, [(1, 3, 4, 2), (2, 4, 1, 3)]),
    ]
    out = [f"3 Wilf classes (up to n = {n})"]
    for seq, reps in classes:
        members = sorted(set().union(*(checks.symmetry_orbit(r) for r in reps)))
        out.append(f"  counts {seq[:n + 1]}: " + ", ".join(map(compact, members)))
    return out + ["symmetry orbits refine Wilf classes: true"]


def classify_workload(rng: random.Random, _files: Path) -> Workload:
    """Many short enumerations over fresh bases: Wilf classification and
    pairwise Wilf comparison."""
    pair_a = rng.sample(["123", "132"], 2)
    pair_b = rng.sample(["1342", "2413"], 2)
    ops = [
        Op(["classify", "4", "--n", "8"], checks.lines(_classify_4_lines(8))),
        Op(["wilf", *pair_a, "--n", "11"],
           checks.lines(["equinumerous up to n = 11 (not a proof of equivalence)"])),
        Op(["wilf", *pair_b, "--n", "9"],
           checks.lines(["equinumerous up to n = 9 (not a proof of equivalence)"])),
    ]
    warmup = Op(["wilf", "12", "21", "--n", "6"],
                checks.lines(["equinumerous up to n = 6 (not a proof of equivalence)"]))
    return Workload(warmup, ops)


def _count_op(host: Perm, pattern: Perm) -> Op:
    return Op(["match", compact(pattern), spaced(host)],
              checks.match_counts([host], lambda h: checks.length3_counts(h)[pattern]
                                  if len(pattern) == 3 else len(checks.occurrences(h, pattern))))


def query_workload(rng: random.Random, files: Path) -> Workload:
    """About a thousand short ops in a fixed mix.  Most are cheap and
    dominated by parsing and CLI overhead; a deliberate tail of full
    negative searches, mesh filtering and barred matching sets p99."""
    ops: list[Op] = []

    # contains on random hosts of 10^3..10^4 entries, four planted patterns
    # of lengths 3, 4, 4, 5 per host: found within a few ms.
    for n in grid(1000, 10000, 130):
        pats = [random_perm(rng, k) for k in (3, 4, 4, 5)]
        host = planted_host(rng, n, pats)
        ops += [Op(["contains", spaced(host), compact(p)], checks.contains_witness(host, p))
                for p in pats]

    # The search's slow case: the first entry is the minimum, which starts
    # no occurrence of 2341, and refuting it costs O(n^3).  At 250..300
    # entries it takes 40..100 ms; a 3720-entry host took 111 s.
    for n in grid(250, 300, 8):
        host = (1, *(v + 1 for v in planted_host(rng, n - 1, [(2, 3, 4, 1)])))
        ops.append(Op(["contains", spaced(host), "2341"], checks.contains_witness(host, (2, 3, 4, 1))))

    # Full negative searches on 321-avoiders (negative by construction).
    for i, n in enumerate(grid(500, 800, 24)):
        pattern = "321" if i % 2 else "4321"
        ops.append(Op(["contains", spaced(avoider_321(rng, n)), pattern], checks.lines(["false"])))
    for n in grid(150, 170, 12):
        ops.append(Op(["contains", spaced(avoider_321(rng, n)), "1432"], checks.lines(["false"])))

    # Classical counts: all six length-3 patterns on one host (their counts
    # must sum to C(n,3)), and 1342.
    for n in grid(40, 80, 8):
        host = random_perm(rng, n)
        ops += [_count_op(host, p) for p in LENGTH3]
    for n in grid(40, 60, 16):
        ops.append(_count_op(random_perm(rng, n), (1, 3, 4, 2)))

    # Mesh-family patterns, post-filtered from classical occurrences.
    for n in grid(40, 70, 16):
        host = random_perm(rng, n)
        ops.append(Op(["match", VINCULAR, spaced(host)],
                      checks.match_counts([host], lambda h: len(checks.vincular_occurrences(h, VINCULAR))),
                      (host, (2, 3, 1, 4))))
        host = random_perm(rng, n)
        ops.append(Op(["match", json.dumps(BIVINCULAR), spaced(host)],
                      checks.match_counts([host], lambda h: len(checks.bivincular_occurrences(h, BIVINCULAR))),
                      (host, tuple(BIVINCULAR["perm"]))))
        host = random_perm(rng, n)
        ops.append(Op(["match", json.dumps(README_MESH), spaced(host)],
                      checks.match_counts([host], lambda h: len(checks.mesh_occurrences(
                          h, tuple(README_MESH["perm"]), README_MESH["shaded"]))),
                      (host, tuple(README_MESH["perm"]))))
    # Barred matching lists every occurrence of the whole 5-entry pattern;
    # those lists set the workload's peak RSS, and these ops most of its
    # slowest 1%.  Their number varies by about 30% (sd) between random
    # 80-entry hosts, so these hosts come from a fixed generator: peak RSS
    # and p99 then measure the program, not the seed.
    fixed = random.Random("barred hosts")
    for n in grid(74, 80, 16):
        host = random_perm(fixed, n)
        ops.append(Op(["match", BARRED, spaced(host)],
                      lambda out, h=host: out.splitlines()
                      == [f"{spaced(h)}: {str(checks.barred_contains(h, BARRED)).lower()}"]))

    # Listing, statistics, structure.
    for n in grid(20, 40, 40):
        host, pattern = random_perm(rng, n), rng.choice(LENGTH3)
        ops.append(Op(["occurrences", spaced(host), compact(pattern)],
                      lambda out, h=host, p=pattern: out.splitlines()
                      == ([spaced(o) for o in checks.occurrences(h, p)] or ["(none)"])))
    for i, n in enumerate(grid(10, 300, 200)):
        host, name = random_perm(rng, n), ("des", "inv", "exc", "maj")[i % 4]
        ops.append(Op(["stat", name, spaced(host)],
                      lambda out, h=host, s=name: out.splitlines() == [str(checks.statistic(s, h))]))
    for i in range(40):
        skeleton = rng.choice([(2, 4, 1, 3), (3, 1, 4, 2), (2, 4, 1, 5, 3), (3, 5, 1, 4, 2)])
        host, comps = inflation(rng, skeleton, [rng.randint(1, 10) for _ in skeleton])
        ops.append(Op(["decompose", "substitution", spaced(host)],
                      checks.lines([f"skeleton: {spaced(skeleton)}"]
                                   + [f"component: {spaced(c)}" for c in comps])))
    for n in grid(40, 80, 40):
        host = random_perm(rng, n)
        ops.append(Op(["intervals", spaced(host)],
                      lambda out, h=host: out.splitlines() == [f"{a} {b}" for a, b in checks.intervals(h)]))
    maj_7 = checks.lines([f"{k} {c}" for k, c in enumerate(checks.mahonian(7))])
    ops += [Op(["dist", "maj", "--n", "7"], maj_7) for _ in range(8)]

    # One batch over a host file.
    batch = [random_perm(rng, n) for n in grid(30, 50, 10)]
    path = files / "hosts.txt"
    path.write_text("".join(spaced(h) + "\n" for h in batch), encoding="utf-8")
    ops.append(Op(["match", "231", "--file", str(path)],
                  checks.match_counts(batch, lambda h: checks.length3_counts(h)[(2, 3, 1)])))

    rng.shuffle(ops)
    host = random_perm(rng, 50)
    warmup = Op(["stat", "maj", spaced(host)],
                lambda out, h=host: out.splitlines() == [str(checks.statistic("maj", h))])
    return Workload(warmup, ops)


WORKLOADS = {
    "enumerate": enumerate_workload,
    "classify": classify_workload,
    "query": query_workload,
}


def build(name: str, seed: int, files: Path) -> Workload:
    """The workload's ops for this seed; host files are written to `files`."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), files)
