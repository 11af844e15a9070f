"""Command-line entry point: one binary, subcommand style.

Every operation of the library is reachable; results print as plain text
by default or as versioned JSON with --json.  Exit status: 0 on success,
1 on domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Callable

from . import classes, gfun, patterns, perm, stats
from .errors import PermPatError

SCHEMA = "permpat/1"


def render_plot(sigma: perm.Permutation, highlight: tuple[int, ...] = ()) -> str:
    """ASCII plot: one mark per point (i, sigma(i)), top value row first.
    Highlighted positions render as '@' instead of '*'."""
    n = len(sigma)
    if n > 99:
        raise PermPatError("plot is limited to n <= 99; use --json output instead")
    marked = set(highlight)
    lines = []
    for r in range(n, 0, -1):
        row = [
            ("@" if i + 1 in marked else "*") if v == r else "."
            for i, v in enumerate(sigma.values)
        ]
        lines.append(" ".join(row))
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Handlers: each returns (json payload, text lines)

Result = tuple[dict, list[str]]


def _cmd_reduce(args) -> Result:
    result = perm.reduce_word(perm._tokenize(" ".join(args.word)))
    return {"permutation": list(result.values)}, [str(result)]


def _cmd_contains(args) -> Result:
    witness = perm.find_occurrence(perm.parse(args.host), perm.parse(args.pattern))
    if witness is None:
        return {"contains": False, "witness": None}, ["false"]
    return (
        {"contains": True, "witness": list(witness)},
        ["true (" + ",".join(map(str, witness)) + ")"],
    )


def _cmd_occurrences(args) -> Result:
    occs = perm.occurrences(perm.parse(args.host), perm.parse(args.pattern))
    return (
        {"count": len(occs), "occurrences": occs},
        [" ".join(map(str, o)) for o in occs] or ["(none)"],
    )


def _cmd_sum(args) -> Result:
    result = perm.direct_sum(*(perm.parse(p) for p in args.perms))
    return {"permutation": list(result.values)}, [str(result)]


def _cmd_skew(args) -> Result:
    result = perm.skew_sum(*(perm.parse(p) for p in args.perms))
    return {"permutation": list(result.values)}, [str(result)]


def _cmd_inflate(args) -> Result:
    result = perm.inflate(
        perm.parse(args.skeleton), [perm.parse(c) for c in args.components]
    )
    return {"permutation": list(result.values)}, [str(result)]


def _cmd_decompose(args) -> Result:
    sigma = perm.parse(args.perm)
    if args.kind != "substitution":
        comps = (perm.sum_decompose if args.kind == "sum" else perm.skew_decompose)(sigma)
        return {"components": [list(c.values) for c in comps]}, [str(c) for c in comps]
    skeleton, comps = perm.substitution_decompose(sigma)
    return (
        {
            "skeleton": list(skeleton.values),
            "components": [list(c.values) for c in comps],
        },
        [f"skeleton: {skeleton}"] + [f"component: {c}" for c in comps],
    )


def _cmd_intervals(args) -> Result:
    ivs = perm.intervals(perm.parse(args.perm))
    return (
        {"intervals": [[iv.start, iv.end] for iv in ivs]},
        [f"{iv.start} {iv.end}" for iv in ivs],
    )


def _cmd_simple(args) -> Result:
    result = perm.is_simple(perm.parse(args.perm))
    return {"simple": result}, [str(result).lower()]


def _cmd_layered(args) -> Result:
    result = perm.is_layered(perm.parse(args.perm))
    return {"layered": result}, [str(result).lower()]


def _cmd_extrema(args) -> Result:
    sigma = perm.parse(args.perm)
    kinds = [args.kind] if args.kind else list(perm.EXTREMAL_KINDS)
    payload = {}
    lines = []
    for kind in kinds:
        positions = perm.extremal(sigma, kind)
        payload[kind] = positions
        lines.append(f"{kind}: " + (" ".join(map(str, positions)) or "(none)"))
    return {"extrema": payload}, lines


def _cmd_symmetry(args) -> Result:
    sym = perm.Symmetry.from_name(args.name)
    result = sym.apply(perm.parse(args.perm))
    return {"permutation": list(result.values)}, [str(result)]


def _cmd_stat(args) -> Result:
    value = stats.statistic(args.name, perm.parse(args.perm))
    return {"statistic": args.name, "value": value}, [str(value)]


def _cmd_dist(args) -> Result:
    counts = stats.distribution(args.name, args.n, cap=args.cap)
    return (
        {"statistic": args.name, "n": args.n, "counts": counts},
        [f"{k} {c}" for k, c in enumerate(counts)],
    )


def _cmd_equidist(args) -> Result:
    verdicts = stats.equidistributed(args.a, args.b, args.n, cap=args.cap)
    return (
        {"verdicts": [{"n": n, "equal": eq} for n, eq in verdicts]},
        [f"{n} {'equal' if eq else 'differ'}" for n, eq in verdicts],
    )


def _cmd_match(args) -> Result:
    pattern = patterns.parse_pattern(args.pattern)
    hosts = [perm.parse(args.host)] if args.host is not None else []
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                hosts.extend(perm.parse(line) for line in fh if line.strip())
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise PermPatError(f"cannot read --file {args.file}: {reason}") from None
    if not hosts:
        raise PermPatError("match needs a host permutation or --file")
    results = []
    lines = []
    for host in hosts:
        if isinstance(pattern, (perm.Permutation, patterns.MeshPattern)):
            classical = isinstance(pattern, perm.Permutation)
            occs = (perm.occurrences if classical else patterns.mesh_occurrences)(host, pattern)
            kind = "classical" if classical else "mesh"
            entry = {"kind": kind, "count": len(occs), "occurrences": occs}
            lines.append(f"{host}: count {len(occs)}")
        elif isinstance(pattern, patterns.BarredPattern):
            found = patterns.barred_contains(host, pattern)
            entry = {"kind": "barred", "contains": found}
            lines.append(f"{host}: {str(found).lower()}")
        else:
            count = patterns.vincular_count(host, pattern)
            kind = "bivincular" if isinstance(pattern, patterns.BivincularPattern) else "vincular"
            entry = {"kind": kind, "count": count}
            lines.append(f"{host}: count {count}")
        entry["host"] = list(host.values)
        results.append(entry)
    return {"results": results}, lines


def _enumerate_from_args(args, with_witnesses: bool = False):
    basis = classes.parse_basis(args.basis)
    return basis, classes.enumerate_class(
        basis,
        args.n,
        with_witnesses=with_witnesses,
        budget=args.budget,
    )


def _mark_truncation(enum, payload: dict, lines: list[str]) -> Result:
    """Record where the budget cut the enumeration, if it did: the JSON
    `truncated_at` field (null when complete) and one trailing text line."""
    payload["truncated_at"] = enum.truncated_at
    if enum.truncated_at is not None:
        lines.append(f"truncated: budget exhausted at length {enum.truncated_at}")
    return payload, lines


def _cmd_enumerate(args) -> Result:
    basis, enum = _enumerate_from_args(args, with_witnesses=args.witnesses)
    payload = {
        "basis": [list(p.values) for p in basis.patterns],
        "counts": enum.counts,
    }
    lines = [f"{n} {c}" for n, c in enumerate(enum.counts)]
    if enum.witnesses is not None:
        payload["witnesses"] = [
            [list(w.values) for w in level] for level in enum.witnesses
        ]
        for n, level in enumerate(enum.witnesses):
            for w in level:
                lines.append(f"witness {n}: {w}")
    return _mark_truncation(enum, payload, lines)


def _cmd_growth(args) -> Result:
    if args.window is not None and args.window > args.n:
        raise PermPatError(f"--window {args.window} is longer than the prefix (--n {args.n})")
    _, enum = _enumerate_from_args(args)
    est = classes.growth_estimates(enum, window=3 if args.window is None else args.window)
    payload = {
        "values": est.values,
        "lower": est.lower,
        "upper": est.upper,
        "diverging": est.diverging,
        "finite_class": est.finite_class,
        "window": est.window,
        "note": "finite-prefix proxies for limsup/liminf, not limits",
    }
    lines = [
        f"{n} {v:.6f}" for n, v in enumerate(est.values) if v is not None
    ]
    lines.append(f"lower {est.lower:.6f}")
    lines.append(f"upper {est.upper:.6f}")
    if est.diverging:
        lines.append("diverging (class of all permutations)")
    if est.finite_class:
        lines.append("finite class")
    return _mark_truncation(enum, payload, lines)


def _cmd_wilf(args) -> Result:
    a = classes.parse_basis(args.basis_a)
    b = classes.parse_basis(args.basis_b)
    verdict = classes.wilf_equivalent(a, b, args.n, budget=args.budget)
    payload = {
        "n_max": verdict.n_max,
        "counts_a": verdict.counts_a,
        "counts_b": verdict.counts_b,
        "equinumerous": verdict.equinumerous,
        "first_difference": verdict.first_difference,
    }
    return payload, [verdict.describe()]


def _cmd_classify(args) -> Result:
    result = classes.wilf_classify(args.k, args.n, budget=args.budget)
    payload = {
        "k": result.k,
        "n_max": result.n_max,
        "classes": [
            {"counts": list(vec), "patterns": [list(p.values) for p in members]}
            for vec, members in result.classes
        ],
        "symmetry_orbits": [
            [list(p.values) for p in orbit] for orbit in result.orbits
        ],
        "symmetry_refines": result.symmetry_refines,
    }
    lines = [f"{len(result.classes)} Wilf classes (up to n = {result.n_max})"]
    for vec, members in result.classes:
        pats = ", ".join(str(p).replace(" ", "") for p in members)
        lines.append(f"  counts {list(vec)}: {pats}")
    lines.append(
        "symmetry orbits refine Wilf classes: "
        + str(result.symmetry_refines).lower()
    )
    return payload, lines


def _cmd_gf(args) -> Result:
    _, enum = _enumerate_from_args(args)
    series = gfun.series_from_enumeration(enum)
    if args.mode == "series":
        payload, lines = {"series": series}, [" ".join(map(str, series))]
    else:
        if args.mode == "ratfit":
            fit = gfun.fit_rational(series, args.deg_num, args.deg_den)
        else:
            fit = gfun.fit_algebraic(series, args.deg_z, args.deg_y)
        payload = {"fit": None if fit is None else fit.to_json(), "series": series}
        lines = ["no-fit" if fit is None else str(fit)]
    return _mark_truncation(enum, payload, lines)


def _cmd_plot(args) -> Result:
    sigma = perm.parse(args.perm)
    highlight: tuple[int, ...] = ()
    if args.pattern is not None:
        witness = perm.find_occurrence(sigma, perm.parse(args.pattern))
        if witness is not None:
            highlight = witness
    text = render_plot(sigma, highlight)
    return (
        {"permutation": list(sigma.values), "highlight": list(highlight),
         "plot": text.splitlines()},
        [text] if text else ["(empty)"],
    )


# --------------------------------------------------------------------------
# Parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permpat",
        description="Permutation patterns: containment, structure, statistics, "
        "mesh patterns, class enumeration and generating-function fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler: Callable, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit JSON output")
        return p

    p = add("reduce", _cmd_reduce, "reduce a word of distinct integers")
    p.add_argument("word", nargs="+", help="entries (delimited or compact digits)")

    p = add("contains", _cmd_contains, "test pattern containment, with witness")
    p.add_argument("host")
    p.add_argument("pattern")

    p = add("occurrences", _cmd_occurrences, "list all occurrences of a pattern")
    p.add_argument("host")
    p.add_argument("pattern")

    p = add("sum", _cmd_sum, "direct sum of permutations")
    p.add_argument("perms", nargs="+")

    p = add("skew", _cmd_skew, "skew sum of permutations")
    p.add_argument("perms", nargs="+")

    p = add("inflate", _cmd_inflate, "inflate a skeleton by components")
    p.add_argument("skeleton")
    p.add_argument("components", nargs="+")

    p = add("decompose", _cmd_decompose, "sum / skew / substitution decomposition")
    p.add_argument("kind", choices=["sum", "skew", "substitution"])
    p.add_argument("perm")

    p = add("intervals", _cmd_intervals, "list all intervals")
    p.add_argument("perm")

    p = add("simple", _cmd_simple, "test simplicity")
    p.add_argument("perm")

    p = add("layered", _cmd_layered, "test layeredness")
    p.add_argument("perm")

    p = add("extrema", _cmd_extrema, "extreme points (LR/RL maxima and minima)")
    p.add_argument("perm")
    p.add_argument("--kind", choices=list(perm.EXTREMAL_KINDS), default=None)

    p = add("symmetry", _cmd_symmetry, "apply a square symmetry")
    p.add_argument("name", help="identity, reverse, complement, rotate, inverse, ...")
    p.add_argument("perm")

    p = add("stat", _cmd_stat, "evaluate a statistic (des, inv, exc, maj)")
    p.add_argument("name")
    p.add_argument("perm")

    p = add("dist", _cmd_dist, "distribution of a statistic over S_n")
    p.add_argument("name")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=stats.DEFAULT_ITERATION_CAP)

    p = add("equidist", _cmd_equidist, "compare two statistics' distributions")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=stats.DEFAULT_ITERATION_CAP)

    p = add("match", _cmd_match, "match a (possibly non-classical) pattern")
    p.add_argument("pattern", help="classical, vincular (2-31-4), barred (53`21`4) or JSON mesh")
    p.add_argument("host", nargs="?", default=None)
    p.add_argument("--file", help="file with one host permutation per line")

    def add_enum_flags(p: argparse.ArgumentParser, window: bool = False) -> None:
        p.add_argument("--n", type=int, required=True, help="maximum length")
        p.add_argument("--budget", type=_positive_int, default=None,
                       help=f"stored-permutation budget (default {classes.DEFAULT_BUDGET}, "
                       f"or ${classes.BUDGET_ENV_VAR})")
        if window:
            p.add_argument("--window", type=int, default=None,
                           help="trailing lengths the bounds are taken over (default 3, "
                           "or all of a shorter prefix)")

    p = add("enumerate", _cmd_enumerate, "enumerate Av(B) by length")
    p.add_argument("basis", help='comma-separated patterns, e.g. "123,132"; empty for all permutations')
    p.add_argument("--witnesses", action="store_true")
    add_enum_flags(p)

    p = add("growth", _cmd_growth, "growth-rate proxy sequence")
    p.add_argument("basis")
    add_enum_flags(p, window=True)

    p = add("wilf", _cmd_wilf, "compare two classes' counting sequences")
    p.add_argument("basis_a")
    p.add_argument("basis_b")
    add_enum_flags(p)

    p = add("classify", _cmd_classify, "Wilf classification of S_k patterns")
    p.add_argument("k", type=int)
    add_enum_flags(p)

    p = add("gf", _cmd_gf, "series extraction and rational/algebraic fitting")
    p.add_argument("mode", choices=["series", "ratfit", "algfit"])
    p.add_argument("basis")
    p.add_argument("--deg-num", type=int, default=4)
    p.add_argument("--deg-den", type=int, default=4)
    p.add_argument("--deg-z", type=int, default=2)
    p.add_argument("--deg-y", type=int, default=2)
    add_enum_flags(p)

    p = add("plot", _cmd_plot, "ASCII plot of a permutation")
    p.add_argument("perm")
    p.add_argument("--pattern", default=None,
                   help="highlight the witness occurrence of this pattern")

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use.  Handlers look up library functions
    when they run, so reusing it changes nothing a call observes."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        payload, lines = args.handler(args)
    except PermPatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        payload = {"schema": SCHEMA, "command": args.command, **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
