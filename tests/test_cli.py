"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chordgenus
from chordgenus import asymptotics, bruteforce, cli, genfunc, recurrences, verify
from chordgenus.bruteforce import DEFAULT_FULL_CAP, DEFAULT_PARTIAL_CAP
from chordgenus.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    MAX_HZ_POLY_N,
    MAX_HZ_VERIFY_N,
    MAX_PIPELINE_GENUS,
    MAX_SIGMA,
    MAX_TABLE_ROWS,
    ORDER_CAP,
    main,
)
from chordgenus.series import BiSeries, Poly, Series


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

    @pytest.mark.parametrize("source", ["oracle", "formula"])
    @pytest.mark.parametrize("table_class", ["cg", "cg-m", "shapes"])
    def test_genus_outside_mm_is_a_usage_error(self, capsys, source, table_class):
        code, out, err = run_cli(
            capsys, "table", table_class, "--n-max", "3", "--g", "2", "--source", source
        )
        assert code == EXIT_USAGE and out == ""
        assert "--g applies to table mm only" in err

    def test_oracle_cap_message_states_the_cap(self, capsys):
        code, _, err = run_cli(capsys, "table", "mm", "--sigma", "1", "--n-max", "15",
                               "--source", "oracle")
        assert code == EXIT_USAGE
        assert "partial diagram enumeration at n=15 exceeds the safety cap 14" in err
        assert "cap=" not in err

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
        "table_class",
        [
            ("cg",),
            ("cg-m",),
            ("shapes",),
            ("mm", "--sigma", "2"),
            ("mm", "--sigma", "2", "--g", "1"),
        ],
    )
    @pytest.mark.parametrize(
        "bounds",
        [
            ("--n-max", "0"),
            ("--n-max", "4"),
            ("--n-max", "5", "--g-max", "1"),
            ("--n-max", "3", "--g-max", "4"),
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


class TestRecursionTableWitness:
    """``table cg`` prints, on its Decimal route, what the int recursion gives."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("n_max", [0, 1, 7, 60, 140])
    @pytest.mark.parametrize("g_max", [None, 0, "n-max"])
    def test_output_equals_the_int_rows_rendered(self, capsys, fmt, n_max, g_max):
        argv = ["table", "cg", "--n-max", str(n_max), "--source", "formula", "--format", fmt]
        g_max = {None: None, 0: 0, "n-max": n_max}[g_max]
        if g_max is not None:
            argv += ["--g-max", str(g_max)]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK and err == ""
        int_rows = recurrences.diagram_count_rows(
            n_max // 2 if g_max is None else g_max, n_max
        )
        assert all(type(v) is int for row in int_rows for v in row)
        rows = [(g, n, v) for g, row in enumerate(int_rows) for n, v in enumerate(row)]
        doc = {"metadata": json.loads(out)["metadata"]} if fmt == "json" else {}
        expected = dict_row_rendering(doc, ("g", "n", "count"), rows, fmt)
        # the first differing line, not pytest's diff, which takes minutes on megabytes
        pairs = itertools.zip_longest(out.split("\n"), expected.split("\n"))
        assert next((p for p in pairs if p[0] != p[1]), None) is None


def coefficient_rendering(doc, coeffs):
    """The rendering the coefficient emitter replaced, kept as its witness.

    Every coefficient becomes a decimal string; the document goes through
    ``json.dump(indent=2, sort_keys=True)``.
    """
    out = io.StringIO()
    payload = {"coefficients": [cli._fmt(c) for c in coeffs]}
    json.dump({**doc, "payload": payload}, out, indent=2, sort_keys=True)
    out.write("\n")
    return out.getvalue()


def _coefficient_cases():
    for g in range(4):
        for order in (0, 1, 40):
            yield ("series", "cg", "--g", str(g), "--order", str(order))
    for g in range(3):
        for sigma in range(1, 4):
            for order in sorted({0, 1, 4 * sigma * g, 60}):
                yield ("series", "dg", "--g", str(g), "--sigma", str(sigma), "--order", str(order))
    for kind in ("pg", "rg", "qg"):
        for g in range(1, 5):
            yield ("poly", kind, "--g", str(g))
    for n in (*range(6), 80):
        yield ("poly", "hz", "--n", str(n))


def _library_coefficients(argv):
    """The exact coefficients behind a poly or series request, from the library."""
    opts = dict(zip(argv[2::2], map(int, argv[3::2])))
    if argv[0] == "poly":
        if argv[1] == "hz":
            return recurrences.boundary_polynomials(opts["--n"]).poly(opts["--n"]).coeffs
        build = {
            "pg": genfunc.genus_polynomial,
            "rg": genfunc.reduced_genus_polynomial,
            "qg": genfunc.q_polynomial,
        }[argv[1]]
        return build(opts["--g"]).coeffs
    if argv[1] == "cg":
        return genfunc.genus_series(opts["--g"], opts["--order"]).coeffs
    return genfunc.macromolecular_series(opts["--g"], opts["--sigma"], opts["--order"]).coeffs


class TestCoefficientEmitter:
    @pytest.mark.parametrize("argv", list(_coefficient_cases()))
    def test_output_equals_the_json_dump_rendering(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK, err
        doc = {"metadata": json.loads(out)["metadata"]}
        assert out == coefficient_rendering(doc, _library_coefficients(argv))

    @pytest.mark.parametrize(
        "coeffs", [[], [Fraction(1, 3), -2, 0, 7, Fraction(-5, 2), Fraction(6)]]
    )
    def test_fraction_values_and_empty_lists(self, coeffs):
        doc = {"metadata": {"command": "poly"}, "payload": {"coefficients": []}}
        out = io.StringIO()
        cli._emit_coefficients(doc, coeffs, out)
        assert out.getvalue() == coefficient_rendering(doc, coeffs)

    def test_items_span_several_batches(self, monkeypatch):
        monkeypatch.setattr(cli, "ROW_BATCH", 3)
        doc = {"metadata": {}, "payload": {"coefficients": []}}
        coeffs = [n * n - 7 for n in range(10)]
        out = io.StringIO()
        cli._emit_coefficients(doc, coeffs, out)
        assert out.getvalue() == coefficient_rendering(doc, coeffs)


class TestTableLimits:
    @pytest.mark.parametrize("table_class", ["cg-m", "shapes"])
    def test_bivariate_tables_past_the_row_limit_are_refused_before_any_work(
        self, capsys, monkeypatch, no_work, table_class
    ):
        def no_work(*args):
            raise AssertionError("work started past the row limit")

        for name in ("_y0_column", "_refined_rows", "_shape_rows"):
            monkeypatch.setattr(genfunc, name, no_work)
        code, out, err = run_cli(capsys, "table", table_class, "--n-max", "547", "--g-max", "0")
        assert code == EXIT_USAGE and out == ""
        assert f"{548 * 548} rows, over the limit {MAX_TABLE_ROWS}" in err

    @pytest.mark.parametrize("table_class", ["cg-m", "shapes"])
    def test_bivariate_tables_have_no_limit_but_the_rows(self, capsys, table_class):
        doc = run_json(capsys, "table", table_class, "--n-max", "91", "--g-max", "0")
        assert len(doc["payload"]["rows"]) == 92 * 92

    @pytest.mark.parametrize("suite", ["polys", "all"])
    def test_verify_g_max_past_the_pipeline_limit_is_refused(self, capsys, no_work, suite):
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
    def test_g_max_past_the_row_limit_is_refused(self, capsys, no_work, source):
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

    def test_verify_suites_without_the_pipeline_refuse_g_max(self, capsys, no_work):
        code, out, err = run_cli(
            capsys, "verify", "hz", "--n-max", "3", "--g-max", str(MAX_PIPELINE_GENUS)
        )
        assert (code, out, err) == (EXIT_USAGE, "", "error: --g-max applies to verify polys|all only\n")


def _flag_table():
    """``cli._TAKES`` as {(command, kind): {flag: (least, cap, required)}}, later rows winning.

    Every verify suite is a kind, ``asymptotics`` too, though it takes no flag.
    """
    kinds = {("verify", suite): {} for suite in verify.SUITE_NAMES}
    for command, names, flag, *spec in cli._TAKES:
        for kind in names.split("|"):
            kinds.setdefault((command, kind), {})[flag] = tuple(spec)
    return kinds


_KINDS = _flag_table()


def _option(flag):
    """The option of a flag table attribute: ``sigma_list`` is ``--sigma``."""
    return "--" + flag.removesuffix("_list").replace("_", "-")


def _request(command, kind, **values):
    """argv with every required flag at its least value, then ``values``; None drops a flag."""
    flags = {f: least for f, (least, _, required) in _KINDS[command, kind].items() if required}
    argv = [command, kind]
    for flag, value in {**flags, **values}.items():
        if value is not None:
            argv += [_option(flag), str(value)]
    return argv


def _probes(rule):
    """(argv, refusal text) for every kind and flag of the flag table, per ``rule``."""
    words = {"ORDER_CAP": "cap", "MAX_PIPELINE_GENUS": "P_g pipeline limit"}
    for (command, kind), takes in _KINDS.items():
        users = {}  # each flag of the command, with the kinds that take it, in row order
        for c, names, f, *_ in cli._TAKES:
            for k in names.split("|") if c == command else ():
                users.setdefault(f, {})[k] = None
        for flag, kinds in users.items():
            name = _option(flag)[2:]
            if flag not in takes:
                if rule == "stray":
                    text = f"--{name} applies to {command} {'|'.join(kinds)} only"
                    yield _request(command, kind, **{flag: 1}), text
                continue
            least, cap, required = takes[flag]
            if rule == "below" and least is not None:
                v = least - 1
                yield _request(command, kind, **{flag: v}), f"{name} must be >= {least}, got {v}"
            if rule in ("past", "at") and cap is not None:
                limit = getattr(cli, cap)
                v = limit + (rule == "past")
                text = f"{name} {v} exceeds the {words.get(cap, 'limit')} {limit}"
                yield _request(command, kind, **{flag: v}), text
            if rule == "missing" and required:
                text = f"{command} {kind} requires --{name}"
                yield _request(command, kind, **{flag: None}), text


def _params(rule):
    return [pytest.param(argv, text, id=" ".join(argv)) for argv, text in _probes(rule)]


# at-cap requests that Tier-1 does not run, and why
_AT_CAP_NOT_RUN = {
    "table cg --n-max 1000": "the row bound refuses it (501 genera by default)",
    "table cg-m --n-max 1000": "the row bound refuses it",
    "table shapes --n-max 1000": "the row bound refuses it",
    "table mm --n-max 1000 --sigma 1": "g-max defaults to 500, past the pipeline limit",
    "asymptotics singularity --sigma 40": "about 3 s, the Sturm chain",
    "asymptotics growth --g 0 --sigma 40": "about 3 s, the Sturm chain",
    "verify hz --n-max 80": "about 1 s, the exp/log witness",
    "verify oracle --n-max 8": "about 0.7 s, the full-matching tally at n = 8",
    "verify shapes --n-max 8": "about 0.7 s, the full-matching tally at n = 8",
    "verify all --n-max 8": "about 0.7 s, the full-matching tally at n = 8",
    "verify mm --n-max 14": "about 1.7 s, the partial-matching oracle at n = 14",
}


# every library entry point that a command starts its work in
_ENTRY_POINTS = {
    recurrences: ("boundary_polynomial", "boundary_polynomials", "diagram_count_rows"),
    genfunc: (
        "genus_polynomial",
        "reduced_genus_polynomial",
        "q_polynomial",
        "genus_coeffs",
        "macromolecular_coeffs",
        "diagram_bivariate_rows",
        "shape_bivariate_rows",
    ),
    asymptotics: (
        "leading_constant",
        "dominant_singularity",
        "diagram_growth_ratio",
        "macromolecular_growth_ratio",
        "macromolecular_growth_interval",
    ),
    bruteforce: (
        "count_by_genus",
        "count_by_genus_onechords",
        "count_shapes",
        "count_macromolecular",
    ),
    verify: ("run_suite",),
}


@pytest.fixture
def no_work(monkeypatch):
    """Make every entry point of ``_ENTRY_POINTS`` fail the test if it is called."""

    def refuse(*args, **kwargs):
        raise AssertionError("work started past the limit")

    for module, names in _ENTRY_POINTS.items():
        for name in names:
            monkeypatch.setattr(module, name, refuse)


class TestCostLimits:
    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (argv, f"exceeds the limit {limit}")
            for argv, limit in [
                (("asymptotics", "singularity", "--sigma", str(MAX_SIGMA + 1)), MAX_SIGMA),
                (
                    ("asymptotics", "growth", "--g", "1", "--sigma", str(MAX_SIGMA + 1)),
                    MAX_SIGMA,
                ),
                (("poly", "hz", "--n", str(MAX_HZ_POLY_N + 1)), MAX_HZ_POLY_N),
                (("verify", "hz", "--n-max", str(MAX_HZ_VERIFY_N + 1)), MAX_HZ_VERIFY_N),
                (("verify", "all", "--n-max", str(DEFAULT_FULL_CAP + 1)), DEFAULT_FULL_CAP),
                (("verify", "mm", "--n-max", str(DEFAULT_PARTIAL_CAP + 1)), DEFAULT_PARTIAL_CAP),
                (
                    ("series", "dg", "--g", "1", "--sigma", str(MAX_SIGMA + 1), "--order", "10"),
                    MAX_SIGMA,
                ),
                (
                    ("series", "dg", "--g", "1", "--sigma", "1000000000", "--order", "10"),
                    MAX_SIGMA,
                ),
                (
                    ("table", "mm", "--n-max", "10", "--g", "1", "--sigma", str(MAX_SIGMA + 1)),
                    MAX_SIGMA,
                ),
                (
                    ("table", "mm", "--n-max", "10", "--g", "1", "--sigma", "1000000000"),
                    MAX_SIGMA,
                ),
                (
                    ("table", "mm", "--n-max", "10", "--sigma", str(MAX_SIGMA + 1),
                     "--source", "oracle"),
                    MAX_SIGMA,
                ),
                (("verify", "mm", "--sigma", str(MAX_SIGMA + 1)), MAX_SIGMA),
                (("verify", "mm", "--sigma", "1", "--sigma", "1000000000"), MAX_SIGMA),
                (("verify", "all", "--sigma", str(MAX_SIGMA + 1), "--sigma", "2"), MAX_SIGMA),
            ]
        ]
        # every kind and flag of the flag table, one past its cap
        + _params("past"),
    )
    def test_refused_before_any_work(self, capsys, no_work, argv, refusal):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert refusal in err

    def test_the_limits_admit_the_benchmarked_requests(self):
        # poly hz --n 20..22 and verify hz at its default n-max of 10
        assert MAX_SIGMA >= 8 and MAX_HZ_POLY_N >= 22 and MAX_HZ_VERIFY_N >= 10

    def test_the_largest_poly_hz_row_prints_under_the_digit_limit(self):
        # MAX_HZ_POLY_N bounds every p(n, x) that poly hz prints as Fractions
        limit = 10 ** 4299  # the least int with 4300 digits
        row = recurrences.boundary_polynomial(MAX_HZ_POLY_N)
        assert all(abs(c.numerator) < limit and c.denominator < limit for c in row.coeffs)


def _readme_caps():
    """The README caps table as (flag, {(command, kind)}, least, cap, plain) rows.

    A command cell lists ``command kind`` items, a bare ``command`` for all its
    kinds; a row is plain when no item carries a condition, such as a second flag.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as f:
        text = f.read()
    table = text.split("| Flag | Commands | Least | Cap | Cost at the cap |\n")[1].split("\n\n")[0]
    rows = []
    for line in table.splitlines()[1:]:
        flag, commands, least, cap = (c.strip() for c in line.strip("|").split("|")[:4])
        items = [i.split() for i in re.findall(r"`([^`]+)`", commands)]
        pairs = set()
        for command, *kind in items:
            pairs |= {(command, kind[0])} if kind else {k for k in _KINDS if k[0] == command}
        rows.append((flag, pairs, least, cap, all(len(i) <= 2 for i in items)))
    return rows


class TestFlagTable:
    """Probes generated from ``cli._TAKES``: every kind, every flag, every rule."""

    @pytest.mark.parametrize("argv, refusal", _params("below"))
    def test_below_the_least_value(self, capsys, no_work, argv, refusal):
        assert run_cli(capsys, *argv) == (EXIT_USAGE, "", f"error: {refusal}\n")

    @pytest.mark.parametrize("argv, refusal", _params("stray"))
    def test_a_flag_the_kind_does_not_take(self, capsys, no_work, argv, refusal):
        assert run_cli(capsys, *argv) == (EXIT_USAGE, "", f"error: {refusal}\n")

    @pytest.mark.parametrize("argv, refusal", _params("missing"))
    def test_a_required_flag_left_out(self, capsys, no_work, argv, refusal):
        try:
            code, out, err = run_cli(capsys, *argv)
        except SystemExit as exc:  # argparse requires it too
            code, (out, err) = exc.code, capsys.readouterr()
            refusal = "the following arguments are required: " + refusal.split()[-1]
        assert code == EXIT_USAGE and out == "" and refusal in err

    @pytest.mark.parametrize(
        "argv",
        [pytest.param(argv, id=" ".join(argv)) for argv, _ in _probes("at")
         if " ".join(argv) not in _AT_CAP_NOT_RUN],
    )
    def test_at_the_cap(self, capsys, argv):
        assert run_cli(capsys, *argv)[::2] == (EXIT_OK, "")

    def test_the_at_cap_requests_not_run_are_in_the_table(self):
        at_cap = {" ".join(argv) for argv, _ in _probes("at")}
        assert set(_AT_CAP_NOT_RUN) <= at_cap

    @pytest.mark.parametrize(
        "argv",
        [
            "poly hz --n 3 --g 7",
            "poly pg --g 2 --n 500",
            "table cg --n-max 3 --sigma 2",
            "series cg --g 1 --order 5 --sigma -4",
            "asymptotics constant --g 1 --sigma 3",
            "asymptotics constant --g 1 --n-max 7",
            "asymptotics singularity --sigma 1 --g 5",
            "verify polys --n-max 3 --g-max 2",
            "verify asymptotics --n-max 3",
            "verify hz --sigma 3 --n-max 4",
        ],
    )
    def test_stray_flags_once_ignored_are_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == EXIT_USAGE and out == "" and "applies to" in err

    @pytest.mark.parametrize("row", cli._TAKES, ids=lambda row: " ".join(map(str, row[:3])))
    def test_the_readme_caps_table_states_the_row(self, row):
        command, kinds, flag, least, cap, _ = row
        cells = (
            f"`{_option(flag)}`",
            {(command, kind) for kind in kinds.split("|")},
            "—" if least is None else str(least),
            "—" if cap is None else f"{getattr(cli, cap)} (`{cap}`)",
            True,
        )
        assert cells in _readme_caps()

    def test_the_readme_caps_table_states_every_cap(self):
        named = {}
        for *_, cap, _ in _readme_caps():
            for value, name in re.findall(r"(\d+) \(`([\w.]+)`\)", cap):
                module, _, constant = name.rpartition(".")
                assert getattr(bruteforce if module else cli, constant) == int(value), name
                named[constant] = value
        constants = {c for c in dir(cli) if c.startswith("MAX_") or c == "ORDER_CAP"}
        assert set(named) == constants | {"DEFAULT_FULL_CAP", "DEFAULT_PARTIAL_CAP"}

    @pytest.mark.parametrize("command, kind", list(_KINDS))
    def test_every_kind_starts_its_work_in_a_guarded_entry_point(
        self, capsys, no_work, command, kind
    ):
        with pytest.raises(AssertionError, match="work started"):
            main(_request(command, kind))


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


class TestSeriesRequestsStayOnInts:
    """Closed-form series reach the payload as int lists, never as a Fraction Series."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("series", "dg", "--g", "2", "--sigma", "3", "--order", "180"),
            ("table", "mm", "--sigma", "2", "--n-max", "60", "--g-max", "2"),
            ("asymptotics", "growth", "--g", "2", "--sigma", "2", "--n-max", "110"),
        ],
    )
    def test_no_series_is_built(self, capsys, monkeypatch, argv):
        built = []
        init = Series.__init__

        def counting(self, coeffs):
            built.append(1)
            init(self, coeffs)

        monkeypatch.setattr(Series, "__init__", counting)
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_OK, err
        assert len(built) == 0

    def test_every_admitted_count_prints_under_the_digit_limit(self):
        # CPython refuses str() of an int past 4300 digits (sys.int_max_str_digits);
        # ORDER_CAP bounds n in every series, formula table and growth ratio
        limit = 10 ** 4299  # the least int with 4300 digits
        full = 1  # (2n-1)!! full matchings of 2n points bound every c_g(n)
        for k in range(1, 2 * ORDER_CAP, 2):
            full *= k
        partial = [1, 1]  # partial matchings of n points bound every d_{g,sigma}(n)
        for n in range(2, ORDER_CAP + 1):
            partial.append(partial[n - 1] + (n - 1) * partial[n - 2])
        assert full < limit and partial[ORDER_CAP] < limit


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

    @pytest.mark.parametrize("n", ["-1", "-2", "-1000000000"])
    def test_negative_hz_row_is_a_usage_error(self, capsys, n):
        code, out, err = run_cli(capsys, "poly", "hz", "--n", n)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: n must be >= 0, got {n}\n")

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
    def test_genus_past_the_limit_is_refused(self, capsys, no_work, argv):
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

    def test_order_cap(self, capsys, no_work):
        order = str(ORDER_CAP + 1)
        code, _, err = run_cli(capsys, "series", "cg", "--g", "1", "--order", order)
        assert code == EXIT_USAGE and f"order {order} exceeds the cap {ORDER_CAP}" in err

    def test_formula_n_max_over_the_cap(self, capsys, no_work):
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
                "error: n-max must be >= 1, got -3\n",
            ),
            (
                ("--g", "1", "--n-max", "2"),
                "error: n-max must be >= 3 for g = 1: c_g(n) vanishes below n = 2g, "
                "so the first ratio is at 2g + 1\n",
            ),
            (
                ("--g", "1", "--sigma", "2", "--n-max", "8"),
                "error: n-max must be >= 9 for g = 1, sigma = 2: d_g,sigma(n) vanishes "
                "below n = 4 sigma g, so the first ratio is at 4 sigma g + 1\n",
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

    @pytest.mark.parametrize("g, sigma", [(1, 2), (2, 1), (1, 3)])
    def test_sigma_growth_from_the_first_ratio_on(self, capsys, g, sigma):
        # d_g,sigma(n) is first nonzero at n = 4 sigma g
        first = 4 * sigma * g + 1
        argv = ("asymptotics", "growth", "--g", str(g), "--sigma", str(sigma), "--n-max")
        code, out, err = run_cli(capsys, *argv, str(first - 1))
        assert code == EXIT_USAGE and out == "" and f"n-max must be >= {first}" in err
        ratio = Fraction(run_json(capsys, *argv, str(first))["payload"]["ratio"])
        coeffs = genfunc.macromolecular_coeffs(g, sigma, first)
        assert coeffs[first - 2] == 0 and ratio == Fraction(coeffs[first], coeffs[first - 1])


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

    def test_corrupted_y0_column_fails_the_inflation_witness(self, capsys, monkeypatch):
        # shapes and refined diagrams share this column, so the inflation row
        # holds only because its other side is the composed witness
        real = genfunc._y0_column

        def corrupted(counts):
            column = real(counts)
            column[3] += 1
            return column

        monkeypatch.setattr(genfunc, "_y0_column", corrupted)
        code, out, _ = run_cli(capsys, "verify", "shapes")
        assert code == EXIT_MISMATCH
        assert (
            "[FAIL] shapes: stack inflation carries shapes onto diagrams"
            " -- first counterexample g=0\n"
        ) in out

    def test_corrupted_shape_pde_step_fails_the_shape_oracle_row_only(
        self, capsys, monkeypatch
    ):
        real = genfunc._shape_rows

        def corrupted(counts, order_u):
            grid = real(counts, order_u)
            grid[4][1] += 1
            return grid

        monkeypatch.setattr(genfunc, "_shape_rows", corrupted)
        code, out, _ = run_cli(capsys, "verify", "shapes")
        assert code == EXIT_MISMATCH
        assert (
            "[FAIL] shapes: shape series equals oracle shape counts (n <= 5)"
            " -- first counterexample s_0(4,1): series 1, oracle 0\n"
            "[PASS] shapes: refined diagram series equals oracle counts (n <= 5)"
            " -- all coefficients equal\n"
        ) in out

    def test_corrupted_boundary_row_fails_the_exp_log_witness(self, capsys, monkeypatch):
        real = recurrences.boundary_polynomials

        def corrupted(n_max):
            rows = list(real(n_max).rows)
            rows[1] = rows[1] + Poly([0, 1])  # x^2 + x; the truth is x^2
            return recurrences.BoundaryPolyTable(tuple(rows))

        monkeypatch.setattr(recurrences, "boundary_polynomials", corrupted)
        code, out, _ = run_cli(capsys, "verify", "hz")
        assert code == EXIT_MISMATCH
        assert (
            "[FAIL] hz: boundary polynomials: recursion equals exp/log route (n <= 10)"
            " -- first counterexample n=1: (Fraction(0, 1), Fraction(1, 1), Fraction(1, 1))"
            " vs (Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))\n"
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

    def test_the_parser_is_built_once_and_parsing_leaves_it_unchanged(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        assert parser.parse_args(["verify", "mm", "--sigma", "1"]).sigma_list == [1]
        assert parser.parse_args(["verify", "mm"]).sigma_list is None

    def test_consecutive_calls_share_no_state(self, capsys):
        argv = ("verify", "mm", "--n-max", "4")
        code, plain, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK and "sigma=2" in plain
        for sigmas in (("1",), ("1", "1"), ("2", "1")):
            flags = [f for sigma in sigmas for f in ("--sigma", sigma)]
            code, restricted, _ = run_cli(capsys, *argv, *flags)
            assert code == EXIT_OK and restricted != plain
            # the appended --sigma list does not carry over to the next call
            assert run_cli(capsys, *argv) == (EXIT_OK, plain, "")
        code, one, _ = run_cli(capsys, *argv, "--sigma", "1")
        assert "sigma=2" not in one

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
