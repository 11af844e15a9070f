"""End-to-end benchmark of the permpat CLI.

    python3 benchmarks/run.py --workload {enumerate,classify,query} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; permpat is imported from its
`src/` directory.  Each op is one `permpat.cli.main(argv)` call made
in-process with stdout captured, one after another (a closed loop with one
client).  A pass runs the workload's op list once.  A run makes at least
three passes, and more while they fit in `--seconds`.  Every output is then checked against an
independent oracle (checks.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates plain and
traced passes and prints per-layer metrics from the traced ones (spans.py).
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  A record of the run, with the environment, goes to
benchmarks/out/.  See benchmarks/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import ops
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 5
MIN_PASSES = 3


def import_permpat():
    """permpat from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import permpat
        import permpat.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import permpat from {SRC}: {exc}")
    if not Path(permpat.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: permpat was imported from {permpat.__file__}, not {SRC}")
    return permpat


def set_up(workload: str, seed: int):
    """Everything before the first timed op: import, inputs from the seed,
    host files, one warm-up op."""
    permpat = import_permpat()
    files = OUT / f"files-{os.getpid()}"
    files.mkdir(parents=True, exist_ok=True)
    work = ops.build(workload, seed, files)
    run_op(permpat.cli.main, work.warmup.argv)
    return permpat, work, files


def timed_setups(args) -> list[float]:
    """Set-up time of fresh processes, from spawn until the warm-up op has
    run."""
    samples = []
    argv = [sys.executable, __file__, "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit("error: set-up process failed")
        samples.append(elapsed)
    return samples


# ---------------------------------------------------------------------------
# Running ops


def more_passes(done: int, elapsed: float, args) -> bool:
    """At least MIN_PASSES (a plain and a traced one when tracing), then as
    many more as are expected to end within --seconds."""
    if done < (2 if args.trace else MIN_PASSES):
        return True
    return elapsed * (done + 1) / done <= args.seconds


def run_op(main, argv):
    """(seconds, exit code or None on an escaped exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a crash is a failed op, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def run_pass(main, op_list, tracer=None):
    """Run every op once, in order; the per-op results."""
    results = []
    for i, op in enumerate(op_list):
        if tracer is not None:
            tracer.op = i
        results.append(run_op(main, op.argv))
    return results


class Verifier:
    """Checks op results, re-running an op's oracle only when its output
    differs from the last one it judged."""

    def __init__(self, op_list):
        self.op_list = op_list
        self.judged: dict[int, tuple[str, bool]] = {}
        self.failures: list[dict] = []

    def ok(self, i: int, result) -> bool:
        _, code, out, err = result
        if code != 0 or "Traceback" in err:
            good = False
        else:
            seen = self.judged.get(i)
            if seen is None or seen[0] != out:
                try:
                    seen = (out, bool(self.op_list[i].check(out)))
                except (ValueError, KeyError, TypeError, IndexError):  # unparseable output
                    seen = (out, False)
                self.judged[i] = seen
            good = seen[1]
        if not good and len(self.failures) < 20:
            self.failures.append({"op": i, "argv": short(self.op_list[i].argv), "exit": code,
                                  "stdout": out[:300], "stderr": err[-300:]})
        return good


def short(argv: list[str]) -> str:
    """argv with long arguments abbreviated to their length."""
    return " ".join(a if len(a) <= 40 else f"<{len(a.split())} entries>" for a in argv)


# ---------------------------------------------------------------------------
# Metrics


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def best_latencies(results) -> list[float]:
    """Each op's fastest time over the passes.  On a shared machine other
    tenants slow single ops by up to 2x for seconds at a time; an op's best
    of several passes spaced a pass apart drops most of that."""
    return [min(times) for times in zip(*([r[0] for r in res] for res in results))]


def end_to_end(results, setups, peak_rss_mb) -> tuple[dict, dict]:
    best = best_latencies(results)
    lat = sorted(best)
    rank = math.ceil(0.99 * len(lat))
    values = {
        "wall_s": sum(best),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p99_ms": 1000 * percentile(lat, 0.99),
    }
    notes = {"op_samples": len(lat), "op_beyond_p99": len(lat) - rank, "passes": len(results),
             "pass_walls_s": [sum(r[0] for r in res) for res in results],
             "setup_samples_s": setups}
    return values, notes


def per_layer(traced, plain, op_list) -> tuple[dict, list[dict], float]:
    """Per-pass averages over the traced passes, the first traced pass
    broken down by op, and the largest gap between the cli.main spans and
    the self times summed over them."""
    runs = len(traced)
    names = ["cli.main", *spans.LAYERS,
             *(f"{layer}.{fn}" for layer, fns in spans.TRACED.items() for fn in fns)]
    totals: dict[str, float] = {f"{name}.{field}": 0 for name in names for field in ("calls", "self_s")}
    totals.update(dict.fromkeys(["classes.naive_candidates", "classes.members",
                                 "perm.occurrences.listed", "cli.out_bytes", "trace.spans"], 0))
    worst_gap = 0.0
    for tracer, results in traced:
        table = spans.summarize(tracer.spans)
        selfs, roots = spans.self_times(tracer.spans)
        worst_gap = max(worst_gap, abs(sum(selfs) - roots))
        for name, row in table.items():
            for field, v in row.items():
                totals[f"{name}.{field}"] += v
        for key, v in tracer.counters.items():
            totals[key] += v
        totals["cli.out_bytes"] += sum(len(r[2].encode()) for r in results)
        totals["trace.spans"] += len(tracer.spans)
    values = {key: v / runs for key, v in totals.items()}
    get = values.__getitem__

    enum_self = get("classes.enumerate_class.self_s")
    kept = classical = 0
    for op, r in zip(op_list, traced[0][1]):
        if op.mesh_base is not None:
            kept += int(r[2].rsplit("count ", 1)[1])
            classical += len(ops.checks.occurrences(*op.mesh_base))
    values.update({
        "classes.candidates_per_s": get("classes.naive_candidates") / enum_self if enum_self else 0,
        "classes.keep_ratio": (get("classes.members") / get("classes.naive_candidates")
                               if get("classes.naive_candidates") else 0),
        "patterns.kept_ratio": kept / classical if classical else 0,
        "trace.overhead_s": (sum(best_latencies([res for _, res in traced]))
                             - sum(best_latencies(plain))),
    })

    first = traced[0][0]
    by_op: list[dict] = [{} for _ in op_list]
    for span, own in zip(first.spans, spans.self_times(first.spans)[0]):
        row = by_op[span[4]].setdefault(span[0], [0, 0.0])
        row[0] += 1
        row[1] += own
    breakdown = [{"argv": short(op.argv), "spans": row} for op, row in zip(op_list, by_op)]
    return values, breakdown, worst_gap


# ---------------------------------------------------------------------------
# Environment


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(permpat) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "permpat_version": permpat.__version__,
        "commit": commit(),
        "src_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args()

    permpat, work, files = set_up(args.workload, args.seed)
    try:
        if args.setup_only:
            print("ready", flush=True)
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        setups = [] if args.trace else timed_setups(args)
        main_fn = permpat.cli.main
        plain, traced = [], []  # per-op results of each plain / traced pass
        start = time.perf_counter()
        while more_passes(len(plain) + len(traced), time.perf_counter() - start, args):
            if args.trace and len(traced) < len(plain):
                tracer = spans.Tracer(permpat)
                with tracer.installed():
                    traced.append((tracer, run_pass(tracer.wrap("cli.main", main_fn),
                                                    work.ops, tracer)))
            else:
                plain.append(run_pass(main_fn, work.ops))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(files, ignore_errors=True)

    results = plain + [res for _, res in traced]
    verifier = Verifier(work.ops)
    attempted = sum(len(r) for r in results)
    failed = sum(not verifier.ok(i, r) for res in results for i, r in enumerate(res))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(permpat),
              "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
              "failures": verifier.failures}
    correct = failed == 0

    if args.trace:
        values, breakdown, gap = per_layer(traced, plain, work.ops)
        section = "per_layer"
        record.update(span_sum_gap_s=gap, ops=breakdown)
        correct = correct and gap <= 1e-6
        with open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as fh:
            for p, (tracer, _) in enumerate(traced):
                for name, s, e, parent, op in tracer.spans:
                    fh.write(json.dumps({"pass": p, "op": op, "name": name, "start": s - start,
                                         "end": e - start, "parent": parent}) + "\n")
    else:
        values, notes = end_to_end(plain, setups, peak_rss_mb)
        section = "end_to_end"
        record.update(notes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    record["metrics"] = metrics
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"op latency samples {record['op_samples']}, {record['op_beyond_p99']} beyond p99; "
              f"{record['passes']} passes")
    print(f"error_rate {record['error_rate']:.6g} ({failed} of {attempted} ops failed)")
    for failure in verifier.failures[:5]:
        print("failed:", json.dumps(failure)[:400])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
