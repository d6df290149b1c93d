"""End-to-end tests of the command-line interface."""

import csv
import io
import json

import pytest

from chordgenus import bruteforce, recurrences
from chordgenus.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


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

    def test_order_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CHORDGENUS_ORDER_CAP", "3")
        code, _, err = run_cli(capsys, "series", "cg", "--g", "1", "--order", "4")
        assert code == EXIT_USAGE and "cap" in err
        monkeypatch.setenv("CHORDGENUS_ORDER_CAP", "10")
        doc = run_json(capsys, "series", "cg", "--g", "1", "--order", "4")
        assert doc["payload"]["coefficients"][-1] == "70"

    def test_formula_n_max_over_the_cap(self, capsys, monkeypatch):
        for argv in (
            ("table", "mm", "--sigma", "1", "--g", "1", "--n-max", "1001"),
            ("table", "cg", "--n-max", "100000"),
            ("asymptotics", "growth", "--g", "1", "--sigma", "2", "--n-max", "1001"),
            ("asymptotics", "growth", "--g", "4", "--n-max", "100000"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_USAGE and "cap 1000" in err and out == "", argv
        monkeypatch.setenv("CHORDGENUS_ORDER_CAP", "1001")
        doc = run_json(
            capsys, "table", "mm", "--sigma", "1", "--g", "1", "--n-max", "1001"
        )
        assert len(doc["payload"]["rows"]) == 1002
        doc = run_json(
            capsys, "asymptotics", "growth", "--g", "1", "--sigma", "2", "--n-max", "1001"
        )
        assert doc["payload"]["n"] == "1001"

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

    def test_corrupted_table_fails_with_counterexample(self, capsys, monkeypatch):
        real = recurrences.diagram_count_table

        def corrupted(g_max, n_max):
            table = real(g_max, n_max)
            entries = dict(table.entries)
            entries[(1, 4)] = 71  # truth is 70
            return bruteforce.GenusTable(
                class_tag=table.class_tag,
                n_max=table.n_max,
                entries=entries,
                with_onechords=table.with_onechords,
                sigma=table.sigma,
                source=table.source,
            )

        monkeypatch.setattr(recurrences, "diagram_count_table", corrupted)
        code, out, _ = run_cli(capsys, "verify", "oracle", "--n-max", "5")
        assert code == EXIT_MISMATCH
        assert "[FAIL]" in out
        assert "counterexample" in out and "c_1(4)" in out

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
