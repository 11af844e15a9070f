"""Self-tests of the benchmark: its oracles accept the program's answers and
reject wrong ones, a wrong answer is counted as a failed op, spans nest as
the callers nest, and the metrics it computes are the ones BENCHMARK.json
names."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

permpat = run.import_permpat()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def one_op_per_kind(op_list):
    """The first op of each (command, pattern) kind, skipping the slow
    full-search and barred kinds."""
    kinds = {}
    for op in op_list:
        head = op.argv[0], op.argv[1] if op.argv[0] == "match" else op.argv[-1][:4]
        if op.argv[1] == ops.BARRED or op.argv[-1] in ("321", "4321", "1432"):
            continue
        kinds.setdefault(head, op)
    return list(kinds.values())


@pytest.fixture(scope="module")
def query(tmp_path_factory):
    return ops.build("query", 7, tmp_path_factory.mktemp("hosts"))


def corrupt(out: str) -> str:
    """A wrong answer: the last verdict flipped, or else the last number one
    larger."""
    for verdict, flipped in (("true", "false"), ("false", "true (1,2,3)")):
        if verdict in out:
            head, _, tail = out.rpartition(verdict)
            return head + flipped + tail
    last = list(re.finditer(r"\d+", out))[-1]
    return out[:last.start()] + str(int(last.group()) + 1) + out[last.end():]


def test_oracles_accept_answers_and_reject_corrupted_ones(query):
    sample = one_op_per_kind(query.ops) + [
        ops.build(name, 7, Path()).warmup for name in ("enumerate", "classify")]
    assert len(sample) >= 12
    for op in sample:
        _, code, out, err = run.run_op(permpat.cli.main, op.argv)
        assert code == 0 and not err, op.argv[:2]
        assert op.check(out), op.argv[:2]
        assert not op.check(corrupt(out)), op.argv[:2]


def test_count_off_by_one_is_a_failed_op(query, monkeypatch):
    counts = [op for op in query.ops if op.argv[0] == "match" and op.argv[1] in ("132", "1342")]
    verifier = run.Verifier(counts)
    results = run.run_pass(permpat.cli.main, counts)
    assert all(verifier.ok(i, r) for i, r in enumerate(results))

    real = permpat.perm.occurrences
    monkeypatch.setattr(permpat.perm, "occurrences", lambda host, pat: real(host, pat)[1:])
    verifier = run.Verifier(counts)
    results = run.run_pass(permpat.cli.main, counts)
    failed = sum(not verifier.ok(i, r) for i, r in enumerate(results))
    assert failed == len(counts) > 0
    assert verifier.failures[0]["argv"].startswith("match")


def test_crash_and_usage_error_are_failed_ops():
    op_list = [ops.Op(["contains", "12x", "1"], lambda out: True),
               ops.Op(["no-such-command"], lambda out: True)]

    def crashing(argv):
        if argv[0] == "contains":
            raise RuntimeError("boom")
        return permpat.cli.main(argv)

    verifier = run.Verifier(op_list)
    results = run.run_pass(crashing, op_list)
    assert [verifier.ok(i, r) for i, r in enumerate(results)] == [False, False]
    assert [r[1] for r in results] == [None, 2]


def test_spans_nest_and_self_times_add_up(query):
    sample = [op for op in query.ops if op.mesh_base is not None][:2] + [
        ops.Op(["wilf", "12", "21", "--n", "5"], lambda out: True)]
    original = permpat.perm.occurrences
    tracer = spans.Tracer(permpat)
    with tracer.installed():
        results = run.run_pass(tracer.wrap("cli.main", permpat.cli.main), sample, tracer)
    assert permpat.perm.occurrences is original and permpat.patterns.occurrences is original

    names = [s[0] for s in tracer.spans]
    parent_of = {s[0]: names[s[3]] for s in tracer.spans if s[3] >= 0}
    assert parent_of["perm.occurrences"] == "patterns.mesh_occurrences"
    assert parent_of["classes.enumerate_class"] == "classes.wilf_equivalent"
    assert names.count("classes.enumerate_class") == 2
    assert {s[4] for s in tracer.spans} == {0, 1, 2}

    values, breakdown, gap = run.per_layer([(tracer, results)], [results], sample)
    assert gap < 1e-6
    assert {m["name"] for m in SPEC["per_layer"]} <= values.keys()
    assert values["perm.occurrences.listed"] == sum(
        len(ops.checks.occurrences(*op.mesh_base)) for op in sample[:2])
    assert len(breakdown) == len(sample)


def test_end_to_end_metrics_match_benchmark_json():
    fast = [(0.001 * i, 0, "", "") for i in range(1, 1001)]
    slow = [(2 * t, 0, "", "") for t, *_ in fast]
    values, notes = run.end_to_end([slow, fast], [0.1], 10.0)
    assert {m["name"] for m in SPEC["end_to_end"]} == values.keys()
    assert values["op_p99_ms"] == pytest.approx(990.0)
    assert values["wall_s"] == pytest.approx(sum(t for t, *_ in fast))
    assert notes["op_beyond_p99"] == 10


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
