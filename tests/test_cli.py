"""End-to-end tests of the command-line interface and its exit codes."""

import json
import math
import os
import subprocess
import sys
import time

import pytest

import marcumq.cli as cli
from marcumq import analysis
from marcumq.analysis import ScanReport
from marcumq.cli import main

from frozen_q1 import Q1_FROZEN_OFF_DIAGONAL, TRAPEZOID_FROZEN


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

    @pytest.mark.parametrize("a", ["0", "3"])
    def test_b_zero_is_exactly_one(self, capsys, a):
        rc, out, _ = run_cli(capsys, "eval", "--a", a, "--b", "0")
        assert rc == 0
        assert out.splitlines()[1].split(",")[3:] == ["1.0", "0.0"]

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
        # the oracle answers up to sqrt(DBL_MAX) = 1.34e154, and past it
        # QArgs's one range message exits 2
        rc, out, err = run_cli(capsys, "eval", "--a", x, "--b", x)
        if float(x) <= 1.3407807929942596e154:
            assert (rc, err) == (0, "")
            assert float(out.splitlines()[1].split(",")[3]) == pytest.approx(0.5, abs=1e-9)
        else:
            assert rc == 2
            assert out == ""
            assert err.startswith("error: Q1 takes a, b <= sqrt(DBL_MAX) = 1.3407807929942596e+154, got (a=1e+308")

    def test_json_format(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--a", "2", "--b", "1", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["regime"] == "b<a"
        assert len(payload["bounds"]) == 8
        assert payload["exact"] == pytest.approx(0.91810, abs=1e-4)

    def test_far_tail_gap_is_relative(self, capsys):
        # Q1(1, 30) = 1.81e-184: the far tail's two methods agree to 1e-12
        # of it (the gap once equalled the value, the series giving 0.0)
        rc, out, _ = run_cli(capsys, "eval", "--a", "1", "--b", "30", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        s, d = TRAPEZOID_FROZEN[1.0, 30.0]
        assert payload["exact"] == pytest.approx(s * math.exp(-d), rel=1e-13)
        assert payload["agreement_gap"] <= 1e-12 * payload["exact"]

    def test_large_a_tail_is_exact(self, capsys):
        # Q1(1e3, 1010) = 7.658e-24: the quadrature printed 7.6648e-24,
        # above UB1JP's raw 7.6586e-24
        rc, out, _ = run_cli(capsys, "eval", "--a", "1000", "--b", "1010", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["exact"] == pytest.approx(Q1_FROZEN_OFF_DIAGONAL[1000.0, 1010.0], rel=1e-13, abs=0.0)
        upper = [row for row in payload["bounds"] if row["side"] == "upper"]
        assert upper and all(row["raw"] >= payload["exact"] for row in upper), upper

    def test_json_writes_non_finite_as_null(self, capsys):
        # Q1(1, 50) = 2.46e-523 underflows, so every eps % is infinite
        rc, out, _ = run_cli(capsys, "eval", "--a", "1", "--b", "50", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["exact"] == 0.0
        assert [row["eps_pct"] for row in payload["bounds"]] == [None] * len(payload["bounds"])

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

    @pytest.mark.parametrize(
        "flag,value", [("--a", "5"), ("--b-start", "0.2"), ("--b-end", "2"), ("--b-step", "0.2"), ("--ids", "LB2A")]
    )
    def test_preset_rejects_custom_flags(self, capsys, flag, value):
        # a preset fixes a, the b grid and the ids, so a custom flag would be ignored
        rc, out, err = run_cli(capsys, "table", "--preset", "V", flag, value)
        assert (rc, out) == (2, "")
        assert err == f"error: --preset V fixes a, the b grid and the ids; drop {flag}\n"

    def test_wrong_regime_ids(self, capsys):
        rc, _, err = run_cli(
            capsys, "table", "--a", "1", "--b-start", "2", "--b-end", "3",
            "--b-step", "0.5", "--ids", "UB2JP",
        )
        assert rc == 2
        assert "regime" in err

    def test_tie_admits_the_b_le_a_family(self, capsys):
        argv = ["table", "--a", "5", "--b-end", "7", "--b-step", "1", "--ids", "UB2JP"]
        rc, out, err = run_cli(capsys, *argv, "--b-start", "6")
        assert (rc, out) == (2, "")
        assert err == "error: UB2JP applies to the b <= a regime; no grid point qualifies for a=5\n"
        rc, out, _ = run_cli(capsys, *argv, "--b-start", "5")
        assert rc == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["5.0", "6.0", "7.0"]
        # b = 5 fills its cells and has no note; b = 6 and 7 are empty
        assert all(rows[0][2:5])
        assert rows[0][5] == ""
        assert all(r[2:5] == ["", "", ""] for r in rows[1:])

    def test_refusal_quotes_a_exactly(self, capsys):
        # 1000003 has seven significant digits; :g would print it as 1e+06
        argv = ["table", "--a", "1000003", "--b-start", "1", "--b-end", "2", "--b-step", "1", "--ids", "UB1JP"]
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == "error: UB1JP applies to the b >= a regime; no grid point qualifies for a=1000003.0\n"

    def test_b_end_below_b_start(self, capsys):
        rc, out, err = run_cli(
            capsys, "table", "--a", "1", "--b-start", "3", "--b-end", "2",
            "--b-step", "0.5", "--ids", "UB1JP",
        )
        assert (rc, out) == (2, "")
        assert err == "error: --b-end 2.0 below --b-start 3.0\n"

    @pytest.mark.parametrize("a", ["nan", "inf"])
    @pytest.mark.parametrize("ids", ["UB1JP", "LB2JP"])
    def test_non_finite_a_gets_the_library_message(self, capsys, a, ids):
        # a is checked before the regime check compares the grid with it
        argv = ["table", "--a", a, "--b-start", "0", "--b-end", "1", "--b-step", "0.1", "--ids", ids]
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == f"error: a must be finite, got {a}\n"

    @pytest.mark.parametrize("start,end", [("nan", "1"), ("0", "inf"), ("-inf", "1")])
    def test_non_finite_b_bound_names_its_flag(self, capsys, start, end):
        argv = ["table", "--a", "1", f"--b-start={start}", f"--b-end={end}", "--b-step", "0.1", "--ids", "UB1JP"]
        rc, out, err = run_cli(capsys, *argv)
        flag, bad = ("--b-end", end) if start == "0" else ("--b-start", start)
        assert (rc, out) == (2, "")
        assert err == f"error: {flag} must be finite, got {float(bad)!r}\n"

    def test_ids_skip_empty_tokens(self, capsys):
        argv = ["table", "--a", "1", "--b-start", "1", "--b-end", "2", "--b-step", "1"]
        rc, out, _ = run_cli(capsys, *argv, "--ids", ",UB1JP,, lb1jp ,")
        assert rc == 0
        header = "b,exact,UB1JP_raw,UB1JP_clamped,UB1JP_eps_pct,LB1JP_raw,LB1JP_clamped,LB1JP_eps_pct,notes"
        assert out.splitlines()[0] == header
        rc, out, err = run_cli(capsys, *argv, "--ids", ",")
        assert (rc, out) == (2, "")
        assert err == "error: --ids must name at least one bound\n"

    def test_ids_across_both_regimes(self, capsys):
        # each row fills the ids of its regime and notes why the others are empty
        argv = ["table", "--a", "2", "--b-start", "1", "--b-end", "3", "--b-step", "1", "--ids", "UB1JP,UB2JP"]
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0
        lines = out.splitlines()
        assert lines[1].startswith("1.0,") and ",,,,0.9188396708440805," in lines[1]
        assert lines[1].endswith(',"UB1JP: UB1JP requires b >= a, got (a=2, b=1)"')
        assert lines[2].startswith("2.0,0.6035009606119924,0.6988530849609416,")
        assert lines[2].endswith(",")
        assert lines[3].endswith(',,,,"UB2JP: UB2JP requires b <= a, got (a=2, b=3)"')
        rc, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert rc == 0
        rows = json.loads(out)
        assert [r["UB1JP"] is None for r in rows] == [True, False, False]
        assert [r["UB2JP"] is None for r in rows] == [False, False, True]
        assert [r.get("skipped") for r in rows] == [
            {"UB1JP": "UB1JP requires b >= a, got (a=2, b=1)"},
            None,
            {"UB2JP": "UB2JP requires b <= a, got (a=2, b=3)"},
        ]

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
        # every curve underflows to 0 at a = 1e154: nothing to compare
        rc, out, err = run_cli(capsys, "scan", "--property", "envelope", "--a", "1e154", "--b", "1")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: envelope ordering cannot be tested on this grid")
        assert "Traceback" not in err

    def test_envelope_where_ab_underflows_exit_2(self, capsys):
        # ab = 1e-601 is 0.0, where the sinh envelope's prefactor divided by zero
        rc, out, err = run_cli(capsys, "scan", "--property", "envelope", "--a", "1e-300", "--b", "1e-301")
        assert rc == 2
        assert out == ""
        assert err == (
            "error: the sinh envelope needs a finite b I0(ab)/(e^ab - e^-ab), got (a=1e-300, b=1e-301)\n"
        )

    @pytest.mark.parametrize("a,b", [("1e200", "1e199"), ("1e160", "1")])
    def test_envelope_past_the_catalog_range_exit_2(self, capsys, a, b):
        # QArgs names the range, not "log_bessel_i0 ... got inf" where ab overflows
        rc, out, err = run_cli(capsys, "scan", "--property", "envelope", "--a", a, "--b", b)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: Q1 takes a, b <= sqrt(DBL_MAX)")

    @pytest.mark.parametrize("prop", ["f_dec_eq2", "f_inc_sinh", "g_negative", "chain_eq6"])
    def test_log_grid_repeats_exit_2(self, capsys, prop):
        rc, out, err = run_cli(
            capsys, "scan", "--property", prop, "--lo", "1", "--hi", "1.0000000000000004", "--n", "10"
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error: log grid [1.0, 1.0000000000000004] with n=10 repeats a point")

    @pytest.mark.parametrize(
        "prop,flag",
        [
            (prop, flag)
            for prop, reads in {
                "g_negative": "lo hi n",
                "f_dec_eq2": "lo hi n",
                "f_inc_sinh": "lo hi n",
                "chain_eq6": "b m lo hi n",
                "envelope": "a b lo hi n",
                "sandwich": "n",
                "jp_dominance": "n",
            }.items()
            for flag in ("lo", "hi", "n", "m", "a", "b")
            if flag not in reads.split()
        ],
    )
    def test_unread_flag_exit_2(self, capsys, prop, flag):
        # a grid flag the property does not read would be ignored
        rc, out, err = run_cli(capsys, "scan", "--property", prop, f"--{flag}", "3")
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: --property {prop} reads only --") and err.endswith(f"; drop --{flag}\n")

    def test_chain_bad_m_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, "scan", "--property", "chain_eq6", "--m", "0.5")
        assert rc == 2
        assert "m > 1" in err

    def test_chain_infinite_m_exit_2(self, capsys):
        # a NaN link never wins, so without the check m = inf would print passed: True
        rc, out, err = run_cli(capsys, "scan", "--property", "chain_eq6", "--m", "inf")
        assert (rc, out) == (2, "")
        assert "finite m > 1" in err

    def test_failing_scan_exit_1(self, capsys, monkeypatch):
        rep = ScanReport(
            property_id="g_negative", grid="stub", worst_violation=1.0,
            witness=(1.0,), passed=False,
        )
        monkeypatch.setattr(analysis, "scan_g_negative", lambda lo, hi, n: rep)
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


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_reused_parser_keeps_no_state(self, capsys, tmp_path):
        assert run_cli(capsys, "eval", "--a", "1", "--b", "2")[0] == 0
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "eval", "--a", "one", "--b", "2")
        assert exc.value.code == 2
        # --out of one call must not carry over to the next
        path = tmp_path / "v.csv"
        assert run_cli(capsys, "table", "--preset", "V", "--out", str(path))[0] == 0
        rc, out, _ = run_cli(capsys, "table", "--preset", "V")
        assert rc == 0 and out.encode() == path.read_bytes()
        # a fresh parser gives the same bytes as the reused one
        rc, out, _ = run_cli(capsys, "figdata", "--figure", "2")
        ns = cli.build_parser().parse_args(["figdata", "--figure", "2"])
        assert rc == 0 and ns.func(ns) == 0
        assert capsys.readouterr().out == out


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


class TestConsoleEntry:
    """``python -m marcumq.cli`` and ``run``, the ``marcumq`` script's entry point."""

    @staticmethod
    def _module(*argv):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        cmd = [sys.executable, "-m", "marcumq.cli", *argv]
        return subprocess.run(cmd, env=env, capture_output=True, timeout=60)

    def test_module_stdout_is_mains(self, capsys):
        done = self._module("eval", "--a", "1", "--b", "2")
        assert done.returncode == 0
        rc, out, _ = run_cli(capsys, "eval", "--a", "1", "--b", "2")
        assert rc == 0
        assert done.stdout == out.encode()

    def test_module_refusal_exit_2(self):
        done = self._module("eval", "--a", "-1", "--b", "2")
        assert done.returncode == 2
        assert done.stderr.decode().splitlines() == ["error: a must be nonnegative, got -1.0"]

    @pytest.mark.parametrize("a,code", [("1", 0), ("-1", 2)])
    def test_run_exits_with_mains_code(self, capsys, monkeypatch, a, code):
        argv = ["eval", "--a", a, "--b", "2"]
        monkeypatch.setattr(sys, "argv", ["marcumq", *argv])
        with pytest.raises(SystemExit) as exited:
            cli.run()
        assert exited.value.code == code == main(argv)
