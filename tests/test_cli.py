"""End-to-end tests of the command-line interface and its exit codes."""

import json
import math
import time

import pytest

import marcumq.cli as cli
from marcumq.analysis import ScanReport
from marcumq.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEval:
    def test_reports_exact_and_bounds(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--a", "0.1", "--b", "0.5")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "a,b,regime,exact,agreement_gap"
        fields = lines[1].split(",")
        assert fields[2] == "b>=a"
        assert float(fields[3]) == pytest.approx(0.88304, abs=1e-4)
        assert sum(1 for ln in lines if ln.startswith(("UB", "LB"))) == 10

    def test_closed_form_a_zero(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--a", "0", "--b", "1")
        assert rc == 0
        exact = float(out.splitlines()[1].split(",")[3])
        assert exact == pytest.approx(0.6065306597126334, abs=1e-11)

    def test_domain_error_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, "eval", "--a", "-1", "--b", "1")
        assert rc == 2
        assert "error:" in err

    def test_huge_arguments(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--a", "1e6", "--b", "1e6")
        assert rc == 0
        exact = float(out.splitlines()[1].split(",")[3])
        assert math.isfinite(exact)
        assert exact == pytest.approx(0.5, abs=1e-5)

    @pytest.mark.parametrize("x", ["1e9", "1e12", "1e308"])
    def test_beyond_oracle_range_exit_2(self, capsys, x):
        # beyond MAX_ORACLE_ARG = 1e6 the quadrature's rounding error exceeds the agreement gate
        rc, out, err = run_cli(capsys, "eval", "--a", x, "--b", x)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "oracle" in err

    def test_json_format(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--a", "2", "--b", "1", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["regime"] == "b<a"
        assert len(payload["bounds"]) == 8
        assert payload["exact"] == pytest.approx(0.91810, abs=1e-4)

    def test_tie_reports_skip(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--a", "1", "--b", "1")
        assert rc == 0
        assert "UB1B,skipped" in out


class TestTable:
    def test_preset_v_shape(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "--preset", "V")
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 11  # header + 10 rows
        assert lines[0].startswith("b,exact,UB1JP_raw")
        assert "exact_5dp" in lines[0]
        first = lines[1].split(",")
        assert first[0] == "0.1"

    def test_preset_viii_shape(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "--preset", "VIII")
        assert rc == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 10
        assert rows[0].split(",")[0] == "19.1"
        assert rows[-1].split(",")[0] == "20.0"

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "table", "--preset", "VII")
        _, out2, _ = run_cli(capsys, "table", "--preset", "VII")
        assert out1 == out2

    def test_custom_monotone_exact(self, capsys):
        rc, out, _ = run_cli(
            capsys, "table", "--a", "1", "--b-start", "1", "--b-end", "5",
            "--b-step", "1", "--ids", "UB1JP,LB1JP",
        )
        assert rc == 0
        exacts = [float(ln.split(",")[1]) for ln in out.strip().splitlines()[1:]]
        assert len(exacts) == 5
        assert all(u > v for u, v in zip(exacts, exacts[1:]))

    def test_custom_missing_flags(self, capsys):
        rc, _, err = run_cli(capsys, "table", "--a", "1")
        assert rc == 2
        assert "custom table needs" in err

    def test_wrong_regime_ids(self, capsys):
        rc, _, err = run_cli(
            capsys, "table", "--a", "1", "--b-start", "2", "--b-end", "3",
            "--b-step", "0.5", "--ids", "UB2JP",
        )
        assert rc == 2
        assert "regime" in err

    def test_unknown_id(self, capsys):
        rc, _, err = run_cli(
            capsys, "table", "--a", "1", "--b-start", "2", "--b-end", "3",
            "--b-step", "0.5", "--ids", "UB9Z",
        )
        assert rc == 2
        assert "unknown bound id" in err

    def test_huge_grid_exit_2(self, capsys):
        rc, out, err = run_cli(
            capsys, "table", "--a", "1", "--b-start", "1", "--b-end", "2",
            "--b-step", "1e-12", "--ids", "UB1JP",
        )
        assert rc == 2
        assert out == ""
        assert "1000000" in err

    def test_fine_step_rows_distinct(self, capsys):
        # a step below the old fixed 10-decimal snap used to print b = 1.0 five times
        rc, out, _ = run_cli(
            capsys, "table", "--a", "1", "--b-start", "1", "--b-end", "1.00000000005",
            "--b-step", "1e-11", "--ids", "UB1JP",
        )
        assert rc == 0
        bs = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert len(bs) == 6
        assert len(set(bs)) == 6
        assert bs[1] == "1.00000000001"

    def test_unresolvable_step_exit_2(self, capsys):
        for step in ("1e-16", "inf"):
            rc, out, err = run_cli(
                capsys, "table", "--a", "1", "--b-start", "1", "--b-end", "1.0000000000000005",
                "--b-step", step, "--ids", "UB1JP",
            )
            assert rc == 2
            assert out == ""
            assert "--b-step" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        rc, out, _ = run_cli(capsys, "table", "--preset", "V", "--out", str(path))
        assert rc == 0
        assert out.strip() == str(path)
        text = path.read_text()
        assert text.startswith("b,exact")
        assert "\r" not in text

    def test_json_format(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "--preset", "VI", "--format", "json")
        assert rc == 0
        rows = json.loads(out)
        assert len(rows) == 10
        assert rows[0]["LB1JP"]["raw"] == pytest.approx(0.99338, abs=1e-4)


class TestScan:
    def test_g_negative_passes(self, capsys):
        rc, out, _ = run_cli(
            capsys, "scan", "--property", "g_negative", "--lo", "1", "--hi", "2", "--n", "500"
        )
        assert rc == 0
        assert "passed: True" in out

    def test_sandwich_small_grid(self, capsys):
        rc, out, _ = run_cli(capsys, "scan", "--property", "sandwich", "--n", "8")
        assert rc == 0

    def test_jp_dominance(self, capsys):
        rc, out, _ = run_cli(capsys, "scan", "--property", "jp_dominance", "--n", "10")
        assert rc == 0
        assert "strict_fraction: 1.0" in out

    def test_envelope_default(self, capsys):
        rc, out, _ = run_cli(capsys, "scan", "--property", "envelope", "--n", "100")
        assert rc == 0

    @pytest.mark.parametrize("prop", ["g_negative", "sandwich"])
    @pytest.mark.parametrize("n", ["0", "1"])
    def test_too_small_n_exit_2(self, capsys, prop, n):
        rc, out, err = run_cli(capsys, "scan", "--property", prop, "--n", n)
        assert rc == 2
        assert out == ""
        assert "grid needs n >= 2" in err

    def test_huge_n_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, "scan", "--property", "g_negative", "--n", "1000000000")
        assert rc == 2
        assert "1000000" in err

    @pytest.mark.parametrize("prop", ["sandwich", "jp_dominance"])
    def test_whole_grid_cap_exit_2(self, capsys, prop):
        # --n is per a value: 1e6 b per a is several million points in all
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "scan", "--property", prop, "--n", "1000000")
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "1000000" in err

    def test_envelope_window(self, capsys):
        rc, out, _ = run_cli(
            capsys, "scan", "--property", "envelope", "--a", "10", "--b", "8",
            "--lo", "7", "--hi", "8", "--n", "50",
        )
        assert rc == 0
        assert "grid: a=10, b=8, 50 points on [7, 8]" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("--property", "g_negative", "--hi", "inf"),
            ("--property", "g_negative", "--lo", "1e-320"),
            ("--property", "f_inc_sinh", "--hi", "1e308", "--lo", "1e-10"),
            ("--property", "chain_eq6", "--hi", "inf"),
        ],
    )
    def test_log_grid_overflow_exit_2(self, capsys, argv):
        rc, out, err = run_cli(capsys, "scan", *argv, "--n", "10")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: log grid [") and "finite hi/lo" in err

    def test_envelope_huge_a_no_traceback(self, capsys):
        # (x - a)^2 overflows at a = 1e160: every curve is 0, so it passes
        rc, out, err = run_cli(capsys, "scan", "--property", "envelope", "--a", "1e160", "--b", "1")
        assert rc == 0
        assert "passed: True" in out and err == ""

    def test_chain_bad_m_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, "scan", "--property", "chain_eq6", "--m", "0.5")
        assert rc == 2
        assert "m > 1" in err

    def test_failing_scan_exit_1(self, capsys, monkeypatch):
        rep = ScanReport(
            property_id="g_negative", grid="stub", worst_violation=1.0,
            witness=(1.0,), passed=False,
        )
        monkeypatch.setattr(cli, "scan_g_negative", lambda lo, hi, n: rep)
        rc, out, _ = run_cli(capsys, "scan", "--property", "g_negative")
        assert rc == 1
        assert "passed: False" in out

    def test_json_report(self, capsys):
        rc, out, _ = run_cli(
            capsys, "scan", "--property", "f_inc_sinh", "--lo", "0.1", "--hi", "10",
            "--n", "200", "--format", "json",
        )
        assert rc == 0
        rep = json.loads(out)
        assert rep["passed"] is True
        assert rep["property"] == "f_inc_sinh"

    def test_unknown_property_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "scan", "--property", "nope")
        assert exc.value.code == 2


class TestFigdata:
    def test_fig3_three_series(self, capsys):
        rc, out, _ = run_cli(capsys, "figdata", "--figure", "3")
        assert rc == 0
        header = out.splitlines()[0]
        assert header == "x,rice_pdf,sinh_envelope,exp_rate_envelope"
        assert len(out.strip().splitlines()) == 201

    def test_fig2_single_series(self, capsys):
        rc, out, _ = run_cli(capsys, "figdata", "--figure", "2")
        assert rc == 0
        assert out.splitlines()[0] == "x,f"

    def test_invalid_figure_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, "figdata", "--figure", "11")
        assert rc == 2
        assert "figure" in err

    def test_out_file_and_json(self, capsys, tmp_path):
        path = tmp_path / "fig1.json"
        rc, out, _ = run_cli(
            capsys, "figdata", "--figure", "1", "--format", "json", "--out", str(path)
        )
        assert rc == 0
        rows = json.loads(path.read_text())
        assert len(rows) == 200
        assert set(rows[0]) == {"x", "g"}
        assert rows[0]["g"] < 0.0

    def test_unwritable_path_exit_2(self, capsys):
        rc, _, err = run_cli(
            capsys, "figdata", "--figure", "1", "--out", "/nonexistent-dir/f.csv"
        )
        assert rc == 2
