import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from permpat import cli, parse, stats
from permpat.classes import BUDGET_ENV_VAR


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["schema"] == "permpat/1"
    return doc


class TestContains:
    def test_true_with_witness(self, capsys):
        code, out, _ = run(capsys, "contains", "314592687", "1423")
        assert code == 0
        assert out == "true (1,5,7,8)\n"

    def test_false(self, capsys):
        code, out, _ = run(capsys, "contains", "314592687", "3241")
        assert code == 0
        assert out == "false\n"

    def test_json(self, capsys):
        doc = run_json(capsys, "contains", "314592687", "1423")
        assert doc["contains"] is True
        assert doc["witness"] == [1, 5, 7, 8]


class TestPermutationCommands:
    def test_reduce(self, capsys):
        assert run(capsys, "reduce", "4", "9", "6", "8")[1] == "1 4 2 3\n"
        assert run(capsys, "reduce", "10 3 7")[1] == "3 1 2\n"

    def test_reduce_compact(self, capsys):
        assert run(capsys, "reduce", "4968")[1] == "1 4 2 3\n"
        assert run(capsys, "reduce", "10")[1] == "2 1\n"

    def test_sum_skew(self, capsys):
        assert run(capsys, "sum", "2413", "4231")[1] == "2 4 1 3 8 6 7 5\n"
        assert run(capsys, "skew", "2413", "4231")[1] == "6 8 5 7 4 2 3 1\n"

    def test_inflate(self, capsys):
        _, out, _ = run(capsys, "inflate", "3142", "123", "1", "21", "312")
        assert out == "5 6 7 1 9 8 4 2 3\n"

    def test_decompose_substitution(self, capsys):
        _, out, _ = run(capsys, "decompose", "substitution", "567198423")
        assert out.splitlines()[0] == "skeleton: 3 1 4 2"
        assert "component: 1 2 3" in out

    def test_decompose_sum(self, capsys):
        _, out, _ = run(capsys, "decompose", "sum", "21365487")
        assert out.splitlines() == ["2 1", "1", "3 2 1", "2 1"]

    def test_simple_layered(self, capsys):
        assert run(capsys, "simple", "2413")[1] == "true\n"
        assert run(capsys, "layered", "21365487")[1] == "true\n"

    def test_intervals(self, capsys):
        _, out, _ = run(capsys, "intervals", "567198423")
        assert "1 3" in out.splitlines()

    def test_extrema(self, capsys):
        _, out, _ = run(
            capsys, "extrema", "7 10 1 4 9 14 2 11 3 13 12 6 8 5", "--kind", "lr-max"
        )
        assert out == "lr-max: 1 2 6\n"

    def test_symmetry(self, capsys):
        assert run(capsys, "symmetry", "reverse", "132")[1] == "2 3 1\n"

    def test_occurrences(self, capsys):
        _, out, _ = run(capsys, "occurrences", "123", "12")
        assert out.splitlines() == ["1 2", "1 3", "2 3"]


class TestStats:
    def test_stat_maj(self, capsys):
        code, out, _ = run(capsys, "stat", "maj", "314592687")
        assert code == 0
        assert out == "14\n"

    def test_dist(self, capsys):
        _, out, _ = run(capsys, "dist", "des", "--n", "3")
        assert out.splitlines() == ["0 1", "1 4", "2 1"]

    def test_equidist(self, capsys):
        _, out, _ = run(capsys, "equidist", "des", "exc", "--n", "5")
        assert all(line.endswith("equal") for line in out.splitlines())

    def test_equidist_checks_the_cap_first(self, capsys, monkeypatch):
        monkeypatch.setattr(stats, "distribution", lambda *args: pytest.fail("iterated"))
        assert run(capsys, "equidist", "des", "exc", "--n", "12", "--cap", "8") == (
            1, "", "error: distribution over S_12 exceeds the iteration cap of 8\n")


class TestMatch:
    def test_vincular(self, capsys):
        _, out, _ = run(capsys, "match", "2-31-4", "314265")
        assert out == "3 1 4 2 6 5: count 2\n"

    def test_barred(self, capsys):
        _, out, _ = run(capsys, "match", "53`21`4", "53214")
        assert out.endswith("true\n")

    def test_mesh_json_pattern(self, capsys):
        pat = '{"perm":[3,2,4,1],"shaded":[[0,2],[1,3],[1,4],[4,2],[4,3]]}'
        doc = run_json(capsys, "match", pat, "3241")
        assert doc["results"][0]["occurrences"] == [[1, 2, 3, 4]]

    @pytest.mark.parametrize("pat, counts", [
        ('{"perm": [], "shaded": [[0,0]]}', (1, 0, 0)),
        ('{"perm": [], "shaded": []}', (1, 1, 1)),
        ('{"perm": [1], "shaded": [[0,0],[0,1],[1,0],[1,1]]}', (0, 1, 0)),
    ])
    def test_zero_slots_and_full_shading(self, capsys, pat, counts):
        # Hosts: the empty permutation, 1 and 2 1 3.
        outs = [run(capsys, "match", pat, host)[1] for host in ("", "1", "213")]
        assert outs == [f"{text}: count {c}\n" for text, c in zip(("", "1", "2 1 3"), counts)]

    def test_hosts_from_file(self, capsys, tmp_path):
        path = tmp_path / "hosts.txt"
        path.write_text("123\n321\n")
        _, out, _ = run(capsys, "match", "12", "--file", str(path))
        assert out.splitlines() == ["1 2 3: count 3", "3 2 1: count 0"]


class TestEnumerate:
    def test_catalan_row(self, capsys):
        code, out, _ = run(capsys, "enumerate", "123", "--n", "10")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 11
        assert lines[-1] == "10 16796"

    def test_json_round_trip(self, capsys):
        doc = run_json(capsys, "enumerate", "123,132", "--n", "6")
        assert doc["counts"] == [1, 1, 2, 4, 8, 16, 32]
        assert doc["basis"] == [[1, 2, 3], [1, 3, 2]]
        assert all(parse(" ".join(map(str, b))) for b in doc["basis"])

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "50")
        code, out, _ = run(capsys, "enumerate", "", "--n", "8")
        assert code == 0
        assert "truncated: budget exhausted" in out

    def test_budget_flag(self, capsys):
        _, out, _ = run(capsys, "enumerate", "", "--n", "8", "--budget", "50")
        assert "truncated" in out

    def test_bad_budget_env_var_is_1(self, capsys, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "abc")
        code, out, err = run(capsys, "enumerate", "12", "--n", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("flag, value", [("--budget", "-1"), ("--budget", "0")])
    def test_nonpositive_flag_is_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["enumerate", "12", "--n", "3", flag, value])
        assert exc_info.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err


    @pytest.mark.parametrize("argv, expected", [
        (["enumerate", ",", "--n", "3"], "0 0\n1 0\n2 0\n3 0\n"),
        (["enumerate", ",", "--n", "3", "--witnesses"], "0 0\n1 0\n2 0\n3 0\n"),
        (["growth", ",", "--n", "3"], "lower 0.000000\nupper 0.000000\nfinite class\n"),
        (["gf", "series", ",", "--n", "3"], "0 0 0 0\n"),
    ], ids=["enumerate", "witnesses", "growth", "gf"])
    def test_empty_pattern_basis_is_the_empty_class(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")


class TestGrowthWilfClassify:
    def test_growth(self, capsys):
        _, out, _ = run(capsys, "growth", "21", "--n", "6")
        assert "lower 1.000000" in out and "upper 1.000000" in out

    def test_growth_diverging(self, capsys):
        _, out, _ = run(capsys, "growth", "", "--n", "6")
        assert "diverging" in out

    def test_growth_marks_truncation(self, capsys):
        code, out, _ = run(capsys, "growth", "123", "--n", "14", "--budget", "3000")
        assert code == 0
        assert out.splitlines()[-1] == "truncated: budget exhausted at length 9"
        doc = run_json(capsys, "growth", "123", "--n", "14", "--budget", "3000")
        assert doc["truncated_at"] == 9 and len(doc["values"]) == 9
        assert "truncated" not in run(capsys, "growth", "123", "--n", "8")[1]

    def test_window_longer_than_the_prefix_is_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_enumerate_from_args", lambda args: pytest.fail("enumerated"))
        code, out, err = run(capsys, "growth", "123", "--n", "5", "--window", "99")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_window_is_the_one_used(self, capsys):
        doc = run_json(capsys, "growth", "123", "--n", "14", "--budget", "3000", "--window", "12")
        assert doc["truncated_at"] == 9 and doc["window"] == 8
        assert (doc["lower"], doc["upper"]) == (min(doc["values"][1:]), max(doc["values"][1:]))
        assert run_json(capsys, "growth", "123", "--n", "2")["window"] == 2
        assert run_json(capsys, "growth", "123", "--n", "5")["window"] == 3

    def test_wilf(self, capsys):
        _, out, _ = run(capsys, "wilf", "123", "132", "--n", "7")
        assert "equinumerous up to n = 7" in out

    def test_wilf_distinguished(self, capsys):
        _, out, _ = run(capsys, "wilf", "1234", "1324", "--n", "7")
        assert "distinguished at n = 7" in out

    def test_classify_k3(self, capsys):
        _, out, _ = run(capsys, "classify", "3", "--n", "7")
        assert out.splitlines()[0] == "1 Wilf classes (up to n = 7)"


class TestGf:
    def test_series(self, capsys):
        _, out, _ = run(capsys, "gf", "series", "21", "--n", "6")
        assert out == "1 1 1 1 1 1 1\n"

    def test_ratfit(self, capsys):
        _, out, _ = run(capsys, "gf", "ratfit", "21", "--n", "12")
        assert out == "(1)/(1 - z)\n"

    def test_algfit_catalan(self, capsys):
        _, out, _ = run(
            capsys, "gf", "algfit", "123", "--n", "12", "--deg-z", "1", "--deg-y", "2"
        )
        assert out == "z*y^2 - y + 1\n"

    def test_no_fit(self, capsys):
        code, out, _ = run(capsys, "gf", "ratfit", "123", "--n", "10",
                           "--deg-num", "3", "--deg-den", "3")
        assert code == 0
        assert out == "no-fit\n"

    def test_json_fit_document(self, capsys):
        doc = run_json(capsys, "gf", "ratfit", "21", "--n", "12")
        assert doc["fit"]["numerator"] == [1]
        assert doc["fit"]["denominator"] == [1, -1]
        assert doc["truncated_at"] is None

    def test_series_marks_truncation(self, capsys):
        code, out, _ = run(capsys, "gf", "series", "123", "--n", "14", "--budget", "3000")
        assert code == 0
        assert out == ("1 1 2 5 14 42 132 429 1430\n"
                       "truncated: budget exhausted at length 9\n")
        doc = run_json(capsys, "gf", "series", "123", "--n", "14", "--budget", "3000")
        assert doc["truncated_at"] == 9

    @pytest.mark.parametrize("argv", [
        ["ratfit", "21", "--n", "12", "--deg-num", "-1"],
        ["ratfit", "21", "--n", "12", "--deg-den", "-1"],
        ["algfit", "123", "--n", "12", "--deg-z", "-1"],
    ], ids=lambda argv: argv[-2])
    def test_negative_degree_is_1(self, capsys, argv):
        code, out, err = run(capsys, "gf", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


class TestPlot:
    def test_single_cell(self, capsys):
        assert run(capsys, "plot", "1")[1] == "*\n"

    def test_staircase(self, capsys):
        _, out, _ = run(capsys, "plot", "21")
        assert out == "* .\n. *\n"

    def test_highlight(self, capsys):
        _, out, _ = run(capsys, "plot", "314592687", "--pattern", "1423")
        rows = out.splitlines()
        assert len(rows) == 9
        at_columns = sorted(
            row.split().index("@") + 1 for row in rows if "@" in row
        )
        assert at_columns == [1, 5, 7, 8]
        assert sum(row.count("*") for row in rows) == 5

    def test_top_row_first(self, capsys):
        _, out, _ = run(capsys, "plot", "132")
        assert out.splitlines()[0] == ". * ."


class TestExitCodes:
    def test_domain_error_is_1(self, capsys):
        code, out, err = run(capsys, "contains", "3122", "12")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_unknown_statistic_is_1(self, capsys):
        assert run(capsys, "stat", "nope", "123") == (
            1, "", "error: unknown statistic 'nope'; known: ['des', 'exc', 'inv', 'maj']\n"
        )

    def test_missing_match_file_is_1(self, capsys, tmp_path):
        path = tmp_path / "missing.txt"
        assert run(capsys, "match", "--file", str(path), "12") == (
            1, "", f"error: cannot read --file {path}: No such file or directory\n"
        )

    @pytest.mark.parametrize("doc", [
        '{"shaded":[]}',
        '{"perm":5}',
        '{"perm":[1],"shaded":5}',
        '{"perm":[1,2],"adjacent_positions":5}',
        '{"perm":[1,2],"barred":5}',
        '{"perm":[1],"shaded":[[1]]}',
        '{"perm":[1,2],"barred":[1.5]}',
        '{"perm":[1,2],"shade":[[0,0]]}',
        '{"perm":[1,2],"shaded":[[0,0]],"barred":[1]}',
        '{"perm":[1,2],"adjacent_positions":[1],"barred":[1]}',
        '{"perm":[2,1],"barred":[1],"extra":1}',
        pytest.param('{"perm":' + "[" * 5000 + "]" * 5000 + "}", id="nested-5000-deep"),
    ])
    def test_malformed_pattern_json_is_1(self, capsys, doc):
        code, out, err = run(capsys, "match", doc, "12")
        assert code == 1
        assert out == ""
        assert err.startswith("error: pattern JSON ") and len(err.splitlines()) == 1

    def test_bad_basis_is_1(self, capsys):
        assert run(capsys, "enumerate", "12,123", "--n", "4")[0] == 1

    def test_cap_exceeded_is_1(self, capsys):
        assert run(capsys, "dist", "des", "--n", "11")[0] == 1

    def test_bad_reduce_word_is_1(self, capsys):
        code, out, err = run(capsys, "reduce", "1", "x", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_no_arguments_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main([])
        assert exc_info.value.code == 2

    def test_unknown_flag_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["contains", "12", "1", "--frobnicate"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["enumerate", "12", "--n", "3"],
        ["growth", "12", "--n", "3"],
        ["wilf", "12", "21", "--n", "3"],
        ["classify", "2", "--n", "3"],
        ["gf", "series", "12", "--n", "3"],
    ], ids=lambda argv: argv[0])
    def test_threads_flag_is_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc_info:
            cli.main([*argv, "--threads", "2"])
        assert exc_info.value.code == 2

    def test_no_option_leaks_between_calls(self, capsys):
        doc = run_json(capsys, "enumerate", "123", "--n", "4", "--witnesses")
        assert doc["counts"] == [1, 1, 2, 5, 14]
        code, out, _ = run(capsys, "enumerate", "123", "--n", "3")
        assert (code, out) == (0, "0 1\n1 1\n2 2\n3 5\n")
        code, out, _ = run(capsys, "contains", "314592687", "1423")
        assert (code, out) == (0, "true (1,5,7,8)\n")
        assert run_json(capsys, "contains", "314592687", "3241")["contains"] is False
        code, out, _ = run(capsys, "enumerate", "", "--n", "8", "--budget", "50")
        assert "truncated" in out
        code, out, _ = run(capsys, "enumerate", "", "--n", "5")
        assert (code, out.splitlines()[-1]) == (0, "5 120")
        assert "truncated" not in out and "witness" not in out

    def test_help_per_subcommand(self, capsys):
        for name in ("contains", "enumerate", "gf", "plot", "match"):
            with pytest.raises(SystemExit) as exc_info:
                cli.main([name, "--help"])
            assert exc_info.value.code == 0
            assert capsys.readouterr().out


# Each entry puts the fuzzed text in one argument: a basis, a pattern (as
# text and inside JSON), a host or a length.
FUZZED_ARGV = [
    lambda s: ["enumerate", s, "--n", "4"],
    lambda s: ["wilf", s, "12", "--n", "4"],
    lambda s: ["match", s, "2413"],
    lambda s: ["match", '{"perm":[' + s + "]}", "2413"],
    lambda s: ["contains", s, "12"],
    lambda s: ["match", "21", s],
    lambda s: ["decompose", "substitution", s],
    lambda s: ["simple", s],
    lambda s: ["intervals", s],
    lambda s: ["growth", "12", "--n", "3", "--window", s],
    lambda s: ["equidist", "des", "exc", "--n", s, "--cap", "5"],
]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.text(alphabet="0123456789, -.x∅`{[_+²١", max_size=10),
       template=st.sampled_from(FUZZED_ARGV))
@example(text="2²-1", template=FUZZED_ARGV[2])
@example(text="2²`1", template=FUZZED_ARGV[2])
@example(text="1_0 3 7", template=FUZZED_ARGV[7])
@example(text="١٢", template=FUZZED_ARGV[4])
@example(text="99", template=FUZZED_ARGV[9])
@example(text="12", template=FUZZED_ARGV[10])
def test_basis_argument_fuzz(capsys, text, template):
    try:
        code = cli.main(template(text))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 1:
        assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1
