"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chordgenus
from chordgenus import bruteforce, cli, genfunc, recurrences, verify
from chordgenus.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    MAX_BIVARIATE_N,
    MAX_HZ_N,
    MAX_PIPELINE_GENUS,
    MAX_SIGMA,
    MAX_TABLE_ROWS,
    ORDER_CAP,
    main,
)
from chordgenus.series import BiSeries, Series


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


def off_by_one(table, key):
    """A copy of a counting table whose count at ``key`` is one too high."""
    entries = dict(table.entries)
    entries[key] = entries.get(key, 0) + 1
    return dataclasses.replace(table, entries=entries)


class TestTable:
    def test_formula_row_genus_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "cg", "--n-max", "6", "--source", "formula", "--format", "csv"
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        g1 = [int(r["count"]) for r in rows if r["g"] == "1"]
        assert g1 == [0, 0, 1, 10, 70, 420, 2310]

    def test_trivial_table(self, capsys):
        doc = run_json(capsys, "table", "cg", "--n-max", "0")
        assert doc["payload"]["rows"] == [{"g": "0", "n": "0", "count": "1"}]

    def test_sources_agree(self, capsys):
        a = run_json(capsys, "table", "cg", "--n-max", "5", "--source", "formula")
        b = run_json(capsys, "table", "cg", "--n-max", "5", "--source", "oracle")
        assert a["payload"] == b["payload"]

    def test_mm_oracle_example(self, capsys):
        doc = run_json(
            capsys,
            "table", "mm", "--sigma", "2", "--g", "1", "--n-max", "10",
            "--source", "oracle",
        )
        counts = [int(r["count"]) for r in doc["payload"]["rows"]]
        assert counts == [0, 0, 0, 0, 0, 0, 0, 0, 1, 5, 17]

    def test_mm_requires_sigma(self, capsys):
        code, _, err = run_cli(capsys, "table", "mm", "--n-max", "6")
        assert code == EXIT_USAGE
        assert "--sigma" in err

    def test_oracle_cap_violation(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "cg", "--n-max", "10", "--source", "oracle"
        )
        assert code == EXIT_USAGE
        assert "cap" in err.lower()

    @pytest.mark.parametrize("source", ["oracle", "formula"])
    @pytest.mark.parametrize(
        "table_class", [("cg",), ("cg-m",), ("shapes",), ("mm", "--sigma", "2")]
    )
    @pytest.mark.parametrize(
        "bounds", [("--n-max", "-1"), ("--n-max", "4", "--g-max", "-1")]
    )
    def test_negative_bounds_are_usage_errors(self, capsys, source, table_class, bounds):
        code, out, err = run_cli(capsys, "table", *table_class, *bounds, "--source", source)
        assert code == EXIT_USAGE and out == ""
        assert "must be >= 0" in err

    def test_negative_mm_genus_is_a_usage_error(self, capsys):
        for source in ("oracle", "formula"):
            code, out, _ = run_cli(
                capsys, "table", "mm", "--sigma", "1", "--g", "-1", "--n-max", "4",
                "--source", source,
            )
            assert code == EXIT_USAGE and out == ""

    def test_oracle_cap_message_names_the_library_keyword(self, capsys):
        code, _, err = run_cli(capsys, "table", "mm", "--sigma", "1", "--n-max", "15",
                               "--source", "oracle")
        assert code == EXIT_USAGE
        assert "safety cap 14" in err and "cap= keyword" in err

    def test_joint_table_sources_agree(self, capsys):
        a = run_json(capsys, "table", "cg-m", "--n-max", "4", "--source", "formula")
        b = run_json(capsys, "table", "cg-m", "--n-max", "4", "--source", "oracle")
        assert a["payload"] == b["payload"]

    def test_shapes_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "shapes", "--n-max", "3", "--format", "csv"
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "g,n,m,count"


def dict_row_rendering(doc, fieldnames, rows, fmt):
    """The rendering the table emitter replaced, kept as its witness.

    Every row becomes a dict of decimal strings; JSON goes through
    ``json.dump(indent=2, sort_keys=True)``, CSV through ``csv.DictWriter``.
    """
    dict_rows = [{k: cli._fmt(v) for k, v in zip(fieldnames, row)} for row in rows]
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(dict_rows)
    else:
        json.dump({**doc, "payload": {"rows": dict_rows}}, out, indent=2, sort_keys=True)
        out.write("\n")
    return out.getvalue()


class TestTableEmitter:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("source", ["oracle", "formula"])
    @pytest.mark.parametrize(
        "table_class", [("cg",), ("cg-m",), ("shapes",), ("mm", "--sigma", "2")]
    )
    @pytest.mark.parametrize(
        "bounds",
        [
            ("--n-max", "0"),
            ("--n-max", "4"),
            ("--n-max", "5", "--g-max", "1"),
            ("--n-max", "3", "--g-max", "4"),
            ("--n-max", "6", "--g", "1"),
        ],
    )
    def test_output_equals_the_dict_row_rendering(
        self, capsys, fmt, source, table_class, bounds
    ):
        argv = ["table", *table_class, *bounds, "--source", source, "--format", fmt]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK, err
        fieldnames, rows = cli._table_rows(cli.build_parser().parse_args(argv))
        rows = list(rows)
        assert rows
        doc = {"metadata": json.loads(out)["metadata"]} if fmt == "json" else {}
        assert out == dict_row_rendering(doc, fieldnames, rows, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "rows",
        [
            [(0, 1, Fraction(1, 3)), (1, 2, Fraction(-5, 2)), (2, 0, 7), (3, 4, Fraction(6))],
            [],
        ],
    )
    def test_fraction_values_and_empty_tables(self, fmt, rows):
        doc = {"metadata": {"command": "table"}, "payload": {"rows": []}}
        out = io.StringIO()
        cli._emit_table(doc, ("g", "n", "count"), iter(rows), fmt, out)
        assert out.getvalue() == dict_row_rendering(doc, ("g", "n", "count"), rows, fmt)

    def test_rows_span_several_batches(self, monkeypatch):
        monkeypatch.setattr(cli, "ROW_BATCH", 3)
        doc = {"metadata": {}, "payload": {"rows": []}}
        rows = [(g, n, g * n) for g in range(3) for n in range(4)]
        out = io.StringIO()
        cli._emit_table(doc, ("g", "n", "count"), iter(rows), "json", out)
        assert out.getvalue() == dict_row_rendering(doc, ("g", "n", "count"), rows, "json")


class TestTableLimits:
    def test_bivariate_limit_admits_the_benchmarked_sizes(self):
        assert MAX_BIVARIATE_N >= 10

    @pytest.mark.parametrize("table_class", ["cg-m", "shapes"])
    def test_bivariate_formula_tables_past_the_limit_are_refused(self, capsys, table_class):
        code, out, err = run_cli(
            capsys, "table", table_class, "--n-max", str(MAX_BIVARIATE_N + 1), "--g-max", "0"
        )
        assert code == EXIT_USAGE and out == ""
        assert f"limit {MAX_BIVARIATE_N}" in err

    def test_the_bivariate_limit_leaves_other_tables_alone(self, capsys):
        n = str(MAX_BIVARIATE_N + 1)
        doc = run_json(capsys, "table", "cg", "--n-max", n, "--g-max", "0")
        assert len(doc["payload"]["rows"]) == MAX_BIVARIATE_N + 2
        doc = run_json(capsys, "table", "mm", "--sigma", "1", "--g", "0", "--n-max", n)
        assert len(doc["payload"]["rows"]) == MAX_BIVARIATE_N + 2

    @pytest.mark.parametrize("suite", ["polys", "all"])
    def test_verify_g_max_past_the_pipeline_limit_is_refused(self, capsys, suite):
        code, out, err = run_cli(
            capsys, "verify", suite, "--g-max", str(MAX_PIPELINE_GENUS)
        )
        assert code == EXIT_USAGE and out == ""
        assert "--g-max" in err and f"limit is {MAX_PIPELINE_GENUS}" in err

    def test_verify_g_max_limit_counts_the_extra_genus(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_PIPELINE_GENUS", 4)
        code, out, _ = run_cli(capsys, "verify", "polys", "--g-max", "3")
        assert code == EXIT_OK and "(g <= 4)" in out
        code, _, err = run_cli(capsys, "verify", "polys", "--g-max", "4")
        assert code == EXIT_USAGE and "exceeds 3" in err

    @pytest.mark.parametrize("source", ["oracle", "formula"])
    def test_g_max_past_the_row_limit_is_refused(self, capsys, source):
        g_max = MAX_TABLE_ROWS // 3  # (g_max + 1) * 3 rows
        argv = ("table", "cg", "--n-max", "2", "--g-max", str(g_max), "--source", source)
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert f"{(g_max + 1) * 3} rows, over the limit {MAX_TABLE_ROWS}" in err

    @pytest.mark.parametrize("source", ["oracle", "formula"])
    @pytest.mark.parametrize(
        "argv, n_rows",
        [
            (("cg", "--n-max", "3"), 2 * 4),
            (("cg", "--n-max", "2", "--g-max", "5"), 6 * 3),
            (("cg-m", "--n-max", "2"), 2 * 3 * 3),
            (("shapes", "--n-max", "3", "--g-max", "0"), 1 * 4 * 4),
            (("mm", "--sigma", "1", "--n-max", "4"), 3 * 5),
            (("mm", "--sigma", "1", "--n-max", "4", "--g", "7"), 1 * 5),
        ],
    )
    def test_the_row_limit_counts_the_rows_printed(
        self, capsys, monkeypatch, source, argv, n_rows
    ):
        argv = ("table", *argv, "--source", source)
        monkeypatch.setattr(cli, "MAX_TABLE_ROWS", n_rows)
        assert len(run_json(capsys, *argv)["payload"]["rows"]) == n_rows
        monkeypatch.setattr(cli, "MAX_TABLE_ROWS", n_rows - 1)
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert f"{n_rows} rows, over the limit {n_rows - 1}" in err

    def test_the_row_limit_admits_the_benchmarked_tables(self):
        assert 201 * 401 <= MAX_TABLE_ROWS  # table cg --n-max 400
        assert 6 * 11 * 11 <= MAX_TABLE_ROWS  # table cg-m|shapes --n-max 10

    def test_verify_suites_without_the_pipeline_ignore_g_max(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "hz", "--n-max", "3", "--g-max", str(MAX_PIPELINE_GENUS)
        )
        assert code == EXIT_OK and "[FAIL]" not in out


class TestCostLimits:
    @pytest.mark.parametrize(
        "argv, limit",
        [
            (("asymptotics", "singularity", "--sigma", str(MAX_SIGMA + 1)), MAX_SIGMA),
            (
                ("asymptotics", "growth", "--g", "1", "--sigma", str(MAX_SIGMA + 1)),
                MAX_SIGMA,
            ),
            (("poly", "hz", "--n", str(MAX_HZ_N + 1)), MAX_HZ_N),
            (("verify", "hz", "--n-max", str(MAX_HZ_N + 1)), MAX_HZ_N),
            (("verify", "all", "--n-max", str(MAX_HZ_N + 1)), MAX_HZ_N),
            (
                ("series", "dg", "--g", "1", "--sigma", str(MAX_SIGMA + 1), "--order", "10"),
                MAX_SIGMA,
            ),
            (("series", "dg", "--g", "1", "--sigma", "1000000000", "--order", "10"), MAX_SIGMA),
            (
                ("table", "mm", "--n-max", "10", "--g", "1", "--sigma", str(MAX_SIGMA + 1)),
                MAX_SIGMA,
            ),
            (("table", "mm", "--n-max", "10", "--g", "1", "--sigma", "1000000000"), MAX_SIGMA),
            (
                ("table", "mm", "--n-max", "10", "--sigma", str(MAX_SIGMA + 1),
                 "--source", "oracle"),
                MAX_SIGMA,
            ),
            (("verify", "mm", "--sigma", str(MAX_SIGMA + 1)), MAX_SIGMA),
            (("verify", "mm", "--sigma", "1", "--sigma", "1000000000"), MAX_SIGMA),
            (("verify", "all", "--sigma", str(MAX_SIGMA + 1), "--sigma", "2"), MAX_SIGMA),
        ],
    )
    def test_refused_before_any_work(self, capsys, monkeypatch, argv, limit):
        def no_work(*args, **kwargs):
            raise AssertionError("work started past the limit")

        monkeypatch.setattr(cli.asymptotics, "dominant_singularity", no_work)
        monkeypatch.setattr(cli.asymptotics, "macromolecular_growth_ratio", no_work)
        monkeypatch.setattr(cli.recurrences, "boundary_polynomials", no_work)
        monkeypatch.setattr(cli.verify, "run_suite", no_work)
        monkeypatch.setattr(cli.genfunc, "macromolecular_series", no_work)
        monkeypatch.setattr(cli.bruteforce, "count_macromolecular", no_work)
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert f"exceeds the limit {limit}" in err

    def test_the_limits_admit_the_benchmarked_requests(self):
        assert MAX_SIGMA >= 8 and MAX_HZ_N >= 22


class TestFormulaTablesReadDenseRows:
    """The formula tables iterate int rows: no per-cell lookup, no composition."""

    def test_cg_makes_no_per_cell_count_call(self, capsys, monkeypatch):
        argv = ("table", "cg", "--n-max", "12", "--g-max", "8", "--format", "csv")
        expected = run_cli(capsys, *argv)

        def refuse(*args):
            raise AssertionError("GenusTable.count on the formula path")

        monkeypatch.setattr(bruteforce.GenusTable, "count", refuse)
        assert run_cli(capsys, *argv) == expected
        assert expected[1].count("\n") == 9 * 13 + 1

    @pytest.mark.parametrize("table_class", ["cg-m", "shapes"])
    def test_bivariate_tables_compose_nothing(self, capsys, monkeypatch, table_class):
        oracle = run_json(capsys, "table", table_class, "--n-max", "6", "--source", "oracle")

        def refuse(*args):
            raise AssertionError("BiSeries.compose_outer on the formula path")

        monkeypatch.setattr(BiSeries, "compose_outer", refuse)
        formula = run_json(capsys, "table", table_class, "--n-max", "6")
        assert formula["payload"] == oracle["payload"]


def _maybe(values):
    return st.one_of(st.none(), st.sampled_from(values))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    table_class=st.sampled_from(["cg", "cg-m", "shapes", "mm"]),
    source=st.sampled_from(["oracle", "formula"]),
    fmt=st.sampled_from(["json", "csv"]),
    n_max=st.integers(-2, 6),
    g_max=_maybe(range(-1, 5)),
    g=_maybe(range(-1, 5)),
    sigma=_maybe(range(-1, 4)),
)
def test_table_argv_fuzz_exits_cleanly(table_class, source, fmt, n_max, g_max, g, sigma):
    argv = ["table", table_class, "--n-max", str(n_max), "--source", source, "--format", fmt]
    for flag, value in (("--g-max", g_max), ("--g", g), ("--sigma", sigma)):
        if value is not None:
            argv += [flag, str(value)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_USAGE)
    if code == EXIT_OK:
        if fmt == "json":
            assert json.loads(out.getvalue())["payload"]["rows"]
        else:
            assert out.getvalue().splitlines()[0].endswith(",count")
    else:
        assert out.getvalue() == "" and err.getvalue().startswith(("error:", "mathematical"))


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    suite=st.sampled_from(verify.SUITE_NAMES),
    fmt=st.sampled_from(["text", "json"]),
    n_max=_maybe(range(-1, 5)),
    g_max=_maybe(range(-1, 5)),
    sigmas=st.lists(st.integers(0, 3), max_size=3),
)
def test_verify_argv_fuzz_exits_cleanly(suite, fmt, n_max, g_max, sigmas):
    argv = ["verify", suite, "--format", fmt]
    for flag, value in (("--n-max", n_max), ("--g-max", g_max)):
        if value is not None:
            argv += [flag, str(value)]
    for sigma in sigmas:
        argv += ["--sigma", str(sigma)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
    elif fmt == "json":
        assert json.loads(out.getvalue())["payload"]["passed"] is (code == EXIT_OK)
    else:
        assert out.getvalue().splitlines()[-1].endswith("informational)")


# the flags each fuzzed command takes; "size" is its order or n-max flag
_FUZZ_FLAGS = {
    "poly": ("--g", None, "--n"),
    "series": ("--g", "--sigma", "--order"),
    "asymptotics": ("--g", "--sigma", "--n-max"),
}


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(
        ["poly pg", "poly rg", "poly qg", "poly hz", "series cg", "series dg"]
        + ["asymptotics constant", "asymptotics singularity", "asymptotics growth"]
    ),
    g=_maybe(range(-1, 9)),
    sigma=_maybe(range(-1, 5)),
    size=_maybe(range(-1, 41)),
)
def test_poly_series_asymptotics_argv_fuzz_exits_cleanly(command, g, sigma, size):
    argv = command.split()
    for flag, value in zip(_FUZZ_FLAGS[argv[0]], (g, sigma, size)):
        if flag is not None and value is not None:
            argv += [flag, str(value)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a required flag is missing
            code = exc.code
    assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK:
        doc = json.loads(out.getvalue())
        assert doc["metadata"]["command"] == argv[0] and doc["payload"]
    elif code == EXIT_USAGE:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("error:", "usage:"))


class TestPoly:
    def test_pg_examples(self, capsys):
        doc = run_json(capsys, "poly", "pg", "--g", "2")
        assert doc["payload"]["coefficients"] == ["0", "0", "0", "0", "21", "21"]
        doc = run_json(capsys, "poly", "rg", "--g", "1")
        assert doc["payload"]["coefficients"] == ["1"]

    def test_hz_example(self, capsys):
        doc = run_json(capsys, "poly", "hz", "--n", "1")
        assert doc["payload"]["coefficients"] == ["0", "0", "1"]

    def test_hz_rational_coefficients(self, capsys):
        doc = run_json(capsys, "poly", "hz", "--n", "2")
        assert doc["payload"]["coefficients"] == ["0", "1/3", "0", "2/3"]

    def test_missing_parameter(self, capsys):
        code, _, err = run_cli(capsys, "poly", "pg")
        assert code == EXIT_USAGE and "--g" in err

    def test_out_of_range(self, capsys):
        code, _, _ = run_cli(capsys, "poly", "pg", "--g", "0")
        assert code == EXIT_USAGE


class TestPipelineGenusLimit:
    def test_limit_admits_the_benchmarked_genera(self):
        assert MAX_PIPELINE_GENUS >= 22

    @pytest.mark.parametrize(
        "argv",
        [
            ("poly", "pg", "--g", "600"),
            ("poly", "rg", "--g", "{over}"),
            ("poly", "qg", "--g", "{over}"),
            ("asymptotics", "constant", "--g", "{over}"),
            ("asymptotics", "growth", "--g", "{over}", "--sigma", "2", "--n-max", "10"),
            ("series", "dg", "--g", "{over}", "--sigma", "1", "--order", "5"),
            ("table", "mm", "--sigma", "1", "--g", "{over}", "--n-max", "5"),
            ("table", "mm", "--sigma", "1", "--g-max", "{over}", "--n-max", "5"),
            # without --g or --g-max the genus range runs to n-max // 2
            ("table", "mm", "--sigma", "1", "--n-max", "{twice}"),
        ],
    )
    def test_genus_past_the_limit_is_refused(self, capsys, argv):
        over, twice = MAX_PIPELINE_GENUS + 1, 2 * MAX_PIPELINE_GENUS + 2
        argv = [a.format(over=over, twice=twice) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert f"pipeline limit {MAX_PIPELINE_GENUS}" in err

    def test_routes_off_the_pipeline_are_not_limited(self, capsys):
        over = str(MAX_PIPELINE_GENUS + 1)
        doc = run_json(capsys, "series", "cg", "--g", over, "--order", "3")
        assert doc["payload"]["coefficients"] == ["0", "0", "0", "0"]
        doc = run_json(capsys, "table", "mm", "--sigma", "1", "--g", over,
                       "--n-max", "3", "--source", "oracle")
        assert [r["count"] for r in doc["payload"]["rows"]] == ["0"] * 4


class TestSeries:
    def test_cg_example(self, capsys):
        doc = run_json(capsys, "series", "cg", "--g", "1", "--order", "4")
        assert doc["payload"]["coefficients"] == ["0", "0", "1", "10", "70"]

    def test_order_zero(self, capsys):
        doc = run_json(capsys, "series", "cg", "--g", "0", "--order", "0")
        assert doc["payload"]["coefficients"] == ["1"]

    def test_dg_example(self, capsys):
        doc = run_json(capsys, "series", "dg", "--g", "1", "--sigma", "1", "--order", "5")
        assert doc["payload"]["coefficients"] == ["0", "0", "0", "0", "1", "5"]

    def test_order_cap(self, capsys):
        order = str(ORDER_CAP + 1)
        code, _, err = run_cli(capsys, "series", "cg", "--g", "1", "--order", order)
        assert code == EXIT_USAGE and f"order {order} exceeds the cap {ORDER_CAP}" in err

    def test_formula_n_max_over_the_cap(self, capsys):
        for argv in (
            ("table", "mm", "--sigma", "1", "--g", "1", "--n-max", "1001"),
            ("table", "cg", "--n-max", "100000"),
            ("asymptotics", "growth", "--g", "1", "--sigma", "2", "--n-max", "1001"),
            ("asymptotics", "growth", "--g", "4", "--n-max", "100000"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_USAGE and "cap 1000" in err and out == "", argv

    def test_dg_requires_sigma(self, capsys):
        code, _, err = run_cli(capsys, "series", "dg", "--g", "1", "--order", "4")
        assert code == EXIT_USAGE and "--sigma" in err


class TestAsymptotics:
    def test_constant(self, capsys):
        doc = run_json(capsys, "asymptotics", "constant", "--g", "1")
        payload = doc["payload"]
        assert payload["rational_factor"] == "1/12"
        assert payload["exponent"] == "3/2"
        assert payload["growth_rate"] == "4"

    def test_singularity(self, capsys):
        doc = run_json(capsys, "asymptotics", "singularity", "--sigma", "1")
        assert doc["payload"]["growth_interval"]["decimal"].startswith("2.618033988")

    def test_growth(self, capsys):
        doc = run_json(capsys, "asymptotics", "growth", "--g", "0", "--n-max", "200")
        assert doc["payload"]["reference"] == "4"
        assert abs(float(doc["payload"]["decimal"]) - 4) < 0.1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--g", "-1"), "error: g must be >= 0, got -1\n"),
            (("--g", "-1", "--sigma", "2"), "error: g must be >= 0, got -1\n"),
            (
                ("--g", "1", "--n-max", "-3"),
                "error: n-max must be >= 1: the growth ratio needs terms n-1 and n, got -3\n",
            ),
            (
                ("--g", "1", "--n-max", "2"),
                "error: n-max must be >= 3 for g = 1: c_g(n) vanishes below n = 2g, "
                "so the first ratio is at 2g + 1\n",
            ),
            (
                ("--g", "1", "--sigma", "2", "--n-max", "2"),
                "error: no adjacent nonzero pair at or below index 2\n",
            ),
        ],
    )
    def test_growth_usage_errors_name_the_bad_flag(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "asymptotics", "growth", *argv)
        assert (code, out, err) == (EXIT_USAGE, "", message)

    def test_growth_at_the_first_ratio(self, capsys):
        doc = run_json(capsys, "asymptotics", "growth", "--g", "0", "--n-max", "1")
        assert doc["payload"]["ratio"] == "1"
        doc = run_json(capsys, "asymptotics", "growth", "--g", "2", "--n-max", "5")
        assert doc["payload"]["ratio"] == "23"  # c_2(5) / c_2(4) = 483 / 21


class TestVerify:
    def test_oracle_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "oracle", "--n-max", "5")
        assert code == EXIT_OK
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_n_max_and_g_max_below_one_are_usage_errors(self, capsys):
        for argv in (
            ("verify", "oracle", "--n-max", "0"),
            ("verify", "all", "--n-max", "0"),
            ("verify", "polys", "--g-max", "0"),
            ("verify", "all", "--n-max", "-3"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_USAGE and "must be >= 1" in err and out == "", argv

    def test_hz_suite_below_its_evaluation_depth(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "hz", "--n-max", "3")
        assert code == EXIT_OK
        assert "(n <= 3)" in out and "[FAIL]" not in out

    def test_json_format(self, capsys):
        doc = run_json(capsys, "verify", "hz", "--format", "json")
        assert doc["payload"]["passed"] is True
        assert all(c["status"] in {"PASS", "INFO"} for c in doc["payload"]["checks"])

    def test_repeated_sigma_is_checked_once(self, capsys):
        def outputs(*sigmas):
            argv = ["verify", "mm", "--n-max", "4"]
            for sigma in sigmas:
                argv += ["--sigma", sigma]
            code, text, _ = run_cli(capsys, *argv)
            assert code == EXIT_OK
            doc = run_json(capsys, *argv, "--format", "json")
            del doc["metadata"]["runtime_seconds"]
            return text, doc

        assert outputs("1", "1") == outputs("1")
        assert outputs("2", "1", "2") == outputs("2", "1")
        assert "2/2 checks passed" in outputs("1", "1")[0]

    def test_corrupted_table_fails_with_counterexample(self, capsys, monkeypatch):
        real = recurrences.diagram_count_table
        monkeypatch.setattr(
            recurrences,
            "diagram_count_table",
            lambda g_max, n_max: off_by_one(real(g_max, n_max), (1, 4)),  # truth is 70
        )
        code, out, _ = run_cli(capsys, "verify", "oracle", "--n-max", "5")
        assert code == EXIT_MISMATCH
        assert "[FAIL]" in out
        assert "counterexample" in out and "c_1(4)" in out
        assert (
            "[FAIL] oracle: recursion equals enumeration (n <= 5)"
            " -- first counterexample c_1(4): recursion 71, oracle 70\n"
        ) in out

    def test_corrupted_oracle_fails_the_evaluation_identity(self, capsys, monkeypatch):
        real = bruteforce.count_by_genus
        monkeypatch.setattr(
            bruteforce, "count_by_genus", lambda n_max: off_by_one(real(n_max), (1, 3))
        )
        code, out, _ = run_cli(capsys, "verify", "hz", "--n-max", "8")
        assert code == EXIT_MISMATCH
        assert (
            "[FAIL] hz: evaluation identity against oracle counts (n <= 6)"
            " -- first counterexample n=3, x=1: 15 != 16\n"
        ) in out

    def test_corrupted_residual_fails_with_its_lowest_term(self, capsys, monkeypatch):
        real = genfunc.ode_residual

        def corrupted(g, order):
            coeffs = list(real(g, order).coeffs)
            coeffs[11] += g == 3
            return Series(coeffs)

        monkeypatch.setattr(genfunc, "ode_residual", corrupted)
        code, out, _ = run_cli(capsys, "verify", "polys")
        assert code == EXIT_MISMATCH
        assert (
            "[FAIL] polys: differential equation residual vanishes (g <= 5, order 12)"
            " -- first counterexample g=3: z^11 coefficient 1\n"
        ) in out

    def test_corrupted_shape_series_fails_both_of_its_witnesses(self, capsys, monkeypatch):
        real = genfunc.shape_bivariate

        def corrupted(g, order_x, order_y):
            grid = [list(row) for row in real(g, order_x, order_y).coeffs]
            grid[4][0] += g == 1
            return BiSeries(grid)

        monkeypatch.setattr(genfunc, "shape_bivariate", corrupted)
        code, out, _ = run_cli(capsys, "verify", "shapes")
        assert code == EXIT_MISMATCH
        assert (
            "[FAIL] shapes: shape series equals oracle shape counts (n <= 5)"
            " -- first counterexample s_1(4,0): series 4, oracle 3\n"
            "[PASS] shapes: refined diagram series equals oracle counts (n <= 5)"
            " -- all coefficients equal\n"
            "[FAIL] shapes: stack inflation carries shapes onto diagrams"
            " -- first counterexample g=1\n"
        ) in out

    def test_corrupted_integer_rows_fail_the_inflation_witness(self, capsys, monkeypatch):
        # shapes and refined diagrams share these rows, so only the composed
        # witness on the other side of the inflation row can catch them
        real = genfunc._refined_rows

        def corrupted(counts, order_y):
            grid = real(counts, order_y)
            grid[3][1] += 1
            return grid

        monkeypatch.setattr(genfunc, "_refined_rows", corrupted)
        code, out, _ = run_cli(capsys, "verify", "shapes")
        assert code == EXIT_MISMATCH
        assert (
            "[FAIL] shapes: stack inflation carries shapes onto diagrams"
            " -- first counterexample g=0\n"
        ) in out

    def test_corrupted_genus_zero_oracle_is_reported_not_failed(self, capsys, monkeypatch):
        real = bruteforce.count_macromolecular_multi

        def corrupted(n_max, sigmas):
            tables = real(n_max, sigmas)
            return {**tables, 1: off_by_one(tables[1], (0, 5))}

        monkeypatch.setattr(bruteforce, "count_macromolecular_multi", corrupted)
        code, out, _ = run_cli(capsys, "verify", "mm")
        assert code == EXIT_OK
        assert (
            "[INFO] mm: genus-0 extension equals oracle (sigma=1, n <= 10)"
            " -- first counterexample d_0,1(5): series 8, oracle 9\n"
        ) in out
        assert "[FAIL]" not in out

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "nonsense")
        assert exc.value.code == EXIT_USAGE


class TestPlumbing:
    def test_payload_deterministic(self, capsys):
        a = run_json(capsys, "table", "cg", "--n-max", "4")
        b = run_json(capsys, "table", "cg", "--n-max", "4")
        assert a["payload"] == b["payload"]
        assert a["metadata"]["command"] == "table"
        assert a["metadata"]["version"]

    def test_all_payload_numbers_are_strings(self, capsys):
        doc = run_json(capsys, "table", "shapes", "--n-max", "3")

        def only_strings(node):
            if isinstance(node, dict):
                return all(only_strings(v) for v in node.values())
            if isinstance(node, list):
                return all(only_strings(v) for v in node)
            return isinstance(node, str)

        assert only_strings(doc["payload"])

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_closed_stdout_exits_quietly(self):
        src = os.path.dirname(os.path.dirname(chordgenus.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.Popen(
            [sys.executable, "-m", "chordgenus", "table", "cg", "--n-max", "100"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.read(16)  # the 600 kB payload overflows any pipe buffer
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_USAGE
        assert err == b""
