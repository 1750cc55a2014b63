"""Command-line interface: formats, exit codes, determinism, round-trips."""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypentropy import SweepConfig, cli, embed_real, measures, stability_sweep, \
    verify
from hypentropy.cli import (
    STABILITY_CSV_HEADER,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_NONCONVERGENT,
    EXIT_OK,
    EXIT_VALIDATION,
    build_parser,
    main,
    records_from_csv,
    records_to_csv,
)
from hypentropy.rng import derive_seed

from conftest import CountingArray

HYP_FIXTURE = '{"case": "full", "rho": [[0.5, 0.25], [0.5, 0.75]]}'
REAL_FIXTURE = "[0.5, 0.5]"
BAD_FIXTURE = '{"rho": [[0.5, 0.5], [0.6, 0.5]]}'


@pytest.fixture
def hyp_path(tmp_path):
    path = tmp_path / "hyp.json"
    path.write_text(HYP_FIXTURE)
    return str(path)


@pytest.fixture
def real_path(tmp_path):
    path = tmp_path / "real.json"
    path.write_text(REAL_FIXTURE)
    return str(path)


@pytest.fixture
def bad_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(BAD_FIXTURE)
    return str(path)


class TestEntropyCommand:
    def test_real_measures(self, real_path, capsys):
        code = main(["entropy", "--input", real_path,
                     "--measure", "shannon", "--measure", "collision"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "measure,order_e1,order_e2,value_e1,value_e2"
        shannon_row = lines[1].split(",")
        assert shannon_row[0] == "shannon"
        assert float(shannon_row[3]) == pytest.approx(0.6931471805599453)
        assert float(shannon_row[4]) == pytest.approx(0.6931471805599453)

    def test_hyperbolic_fixture(self, hyp_path, capsys):
        code = main(["entropy", "--input", hyp_path,
                     "--measure", "strong_shannon_hyp"])
        assert code == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(0.6931471805599453)
        assert float(row[4]) == pytest.approx(0.5623351446188083)

    def test_order_attached_only_where_needed(self, hyp_path, capsys):
        code = main(["entropy", "--input", hyp_path,
                     "--measure", "strong_shannon_hyp",
                     "--measure", "renyi_hyp", "--order", "2"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        shannon_row = lines[1].split(",")
        renyi_row = lines[2].split(",")
        assert shannon_row[1] == "" and shannon_row[2] == ""
        assert renyi_row[1] == "2" and renyi_row[2] == "2"
        assert float(renyi_row[4]) == pytest.approx(0.4700036292457356)

    def test_hyperbolic_order_components(self, hyp_path, capsys):
        code = main(["entropy", "--input", hyp_path,
                     "--measure", "renyi_hyp", "--order", "0.5,2"])
        assert code == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[1] == "0.5" and row[2] == "2"

    def test_json_format(self, real_path, capsys):
        code = main(["entropy", "--input", real_path,
                     "--measure", "shannon", "--format", "json"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["measure"] == "shannon"

    def test_unit_k_basis(self, hyp_path, capsys):
        code = main(["entropy", "--input", hyp_path,
                     "--measure", "strong_shannon_hyp", "--basis", "unit-k"])
        assert code == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split(",")
        x1, x2 = 0.6931471805599453, 0.5623351446188083
        assert float(row[3]) == pytest.approx((x1 + x2) / 2)
        assert float(row[4]) == pytest.approx((x1 - x2) / 2)

    def test_invalid_distribution_exits_2(self, bad_path, capsys):
        code = main(["entropy", "--input", bad_path, "--measure", "shannon"])
        assert code == EXIT_VALIDATION
        assert "SumInvalid" in capsys.readouterr().err

    def test_sum_error_names_its_class_once(self, tmp_path, capsys):
        path = tmp_path / "half.json"
        path.write_text('{"rho": [[0.25, 0.25], [0.25, 0.25]]}')
        code = main(["entropy", "--input", str(path),
                     "--measure", "strong_shannon_hyp"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "error: SumInvalid: component sums (0.5, 0.5)\n"
        assert err.count("SumInvalid:") == 1

    def test_nan_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text("[NaN, 1.0]")
        code = main(["entropy", "--input", str(path), "--measure", "shannon"])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NaN" in captured.err

    def test_missing_file_exits_1(self, tmp_path):
        code = main(["entropy", "--input", str(tmp_path / "nope.json"),
                     "--measure", "shannon"])
        assert code == EXIT_IO

    def test_missing_order_exits_2(self, real_path):
        code = main(["entropy", "--input", real_path, "--measure", "renyi"])
        assert code == EXIT_VALIDATION

    def test_real_measure_on_hyperbolic_input_exits_2(self, hyp_path):
        code = main(["entropy", "--input", hyp_path, "--measure", "shannon"])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("order", ["inf,2", "nan,2", "2,nan", "2,inf"])
    def test_nonfinite_order_exits_2_without_warning(self, real_path, order,
                                                     capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["entropy", "--input", real_path,
                         "--measure", "renyi", "--order", order])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: NonFinite: ")

    def test_infinite_value_exits_2_without_warning(self, real_path, capsys):
        # 0.5**2000 underflows to 0, so the e1 coordinate is log 0 / -1999.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["entropy", "--input", real_path,
                         "--measure", "renyi_hyp", "--order", "2000,2"])
        assert code == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: NonFinite: ")


class TestStabilityCommand:
    ARGS = ["stability", "--family", "CertaintySpread",
            "--family", "RandomSmooth", "--N-grid", "10,100",
            "--delta-grid", "0.01", "--measure", "shannon",
            "--measure", "renyi", "--order", "0.5", "--seed", "7"]

    def test_deterministic_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(self.ARGS + ["--output", str(out1)]) == EXIT_OK
        assert main(self.ARGS + ["--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(self.ARGS + ["--output", str(out)]) == EXIT_OK
        parsed = records_from_csv(out.read_text())
        expected = stability_sweep(SweepConfig(
            families=["CertaintySpread", "RandomSmooth"],
            n_grid=[10, 100],
            delta_grid=[0.01],
            measures=[("shannon", None), ("renyi", embed_real(0.5))],
            seed=7,
        ))
        assert parsed == expected

    def test_round_trip_is_exact_not_approximate(self):
        records = stability_sweep(SweepConfig(
            families=["RandomSmooth"], n_grid=[37], delta_grid=[0.013],
            measures=[("renyi", embed_real(0.5))], seed=123,
        ))
        assert records_from_csv(records_to_csv(records)) == records

    def test_json_format(self, capsys):
        code = main(self.ARGS + ["--format", "json"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 8
        assert {row["family"] for row in rows} \
            == {"CertaintySpread", "RandomSmooth"}

    def test_json_honours_the_basis(self, capsys):
        argv = ["stability", "--family", "CertaintySpread", "--family",
                "UniformSpike", "--N-grid", "10,1000", "--delta-grid", "0.1",
                "--measure", "renyi_hyp", "--measure", "shannon",
                "--order", "0.5,2"]

        def columns(fmt, basis):
            assert main(argv + ["--format", fmt, "--basis", basis]) == EXIT_OK
            out = capsys.readouterr().out
            if fmt == "json":
                return [(row["order"], row["norm"], row["ratio"])
                        for row in json.loads(out)]
            return [([float(r["order_e1"]), float(r["order_e2"])]
                     if r["order_e1"] else None,
                     [float(r["norm_e1"]), float(r["norm_e2"])],
                     [float(r["ratio_e1"]), float(r["ratio_e2"])])
                    for r in csv.DictReader(io.StringIO(out))]

        unit_k = columns("json", "unit-k")
        assert unit_k == columns("csv", "unit-k")
        assert unit_k != columns("json", "idempotent")
        assert columns("json", "idempotent") == columns("csv", "idempotent")

    def test_header(self, capsys):
        assert main(self.ARGS) == EXIT_OK
        header = capsys.readouterr().out.splitlines()[0]
        assert header == ("family,measure,order_e1,order_e2,N,delta,"
                          "norm_e1,norm_e2,ratio_e1,ratio_e2,error")

    def test_infinite_value_is_an_error_row(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["stability", "--family", "UniformSpike",
                         "--N-grid", "100000", "--delta-grid", "0.01",
                         "--measure", "renyi_hyp", "--order", "1000,2"])
        assert code == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert rows[1] == ("UniformSpike,renyi_hyp,1000,2,100000,0.01,"
                           "nan,nan,nan,nan,NonFinite")

    @pytest.mark.parametrize("order", ["2,nan", "2,inf"])
    def test_nonfinite_unused_order_is_an_error_row(self, order, capsys):
        code = main(["stability", "--family", "UniformSpike", "--N-grid",
                     "10", "--delta-grid", "0.1", "--measure", "renyi",
                     "--measure", "shannon", "--order", order])
        assert code == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert rows[1] == (f"UniformSpike,renyi,{order},10,"
                           "0.10000000000000001,nan,nan,nan,nan,NonFinite")
        assert rows[2].startswith("UniformSpike,shannon,,,10,")
        assert rows[2].endswith(",")

    def test_unallocatable_n_is_an_error_row(self, capsys):
        # RandomSmooth is left out: it sets up its draw lanes before the
        # allocation that fails.
        code = main(["stability", "--family", "CertaintySpread", "--family",
                     "UniformSpike", "--N-grid", "10,1e17", "--delta-grid",
                     "0.1", "--measure", "shannon"])
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [(r["family"], r["N"], r["error"]) for r in rows] == [
            ("CertaintySpread", "10", ""),
            ("CertaintySpread", str(10**17), "BadDelta"),
            ("UniformSpike", "10", ""),
            ("UniformSpike", str(10**17), "BadDelta"),
        ]

    def test_empty_grid_exits_2(self):
        code = main(["stability", "--family", "CertaintySpread",
                     "--N-grid", "", "--delta-grid", "0.01",
                     "--measure", "shannon"])
        assert code == EXIT_VALIDATION


class TestMalformedInput:
    """Malformed flags and files exit 2 with a typed ParseError."""

    SWEEP = ["stability", "--family", "CertaintySpread", "--measure", "renyi"]

    @pytest.mark.parametrize("flags", [
        ["--N-grid", "10", "--delta-grid", "0.01", "--order", "x"],
        ["--N-grid", "10,x", "--delta-grid", "0.01", "--order", "2"],
        ["--N-grid", "10", "--delta-grid", "0.01,y", "--order", "2"],
        ["--N-grid", "1.5e0", "--delta-grid", "0.01", "--order", "2"],
        ["--N-grid", "10,inf", "--delta-grid", "0.01", "--order", "2"],
        ["--N-grid", "nan", "--delta-grid", "0.01", "--order", "2"],
        ["--N-grid", "1e400", "--delta-grid", "0.01", "--order", "2"],
    ], ids=["order", "n-grid", "delta-grid", "n-grid-fraction", "n-grid-inf",
            "n-grid-nan", "n-grid-overflow"])
    def test_bad_flag_exits_2(self, flags, capsys):
        assert main(self.SWEEP + flags) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ParseError: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-0.0001"])
    def test_bad_tol_exits_2(self, tol, tmp_path, capsys):
        # A NaN tolerance passed every convergence check (exit 0), a negative
        # one failed every check (exit 3).
        path = tmp_path / "two.csv"
        path.write_text("p\n0.25\n0.75\n")
        code = main(["limits", "--input", str(path), "--tol", tol])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ParseError: --tol ")

    @pytest.mark.parametrize("grid", ["1e2,1E3", "100.0,1000", "1e2,1.0e3"])
    def test_integral_float_n_grid(self, grid, capsys):
        flags = ["--delta-grid", "0.01", "--order", "2", "--N-grid"]
        assert main(self.SWEEP + flags + ["100,1000"]) == EXIT_OK
        plain = capsys.readouterr().out
        assert main(self.SWEEP + flags + [grid]) == EXIT_OK
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("name, text", [
        ("truncated.json", '{"rho": [[0.5, 0.5], [0.5'),
        ("no-rho.json", '{"case": "full"}'),
        ("cell.csv", "p\n0.5\nhalf\n"),
        ("deep.json", "[" * 100_000),
        ("null.json", "[null, 1.0]"),
        ("nested.json", "[[0.5], [0.5]]"),
    ], ids=["truncated-json", "json-without-rho", "non-numeric-csv-cell",
            "deeply-nested-json", "null-in-real-json", "nested-real-json"])
    def test_bad_file_exits_2(self, name, text, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(text)
        code = main(["entropy", "--input", str(path), "--measure", "shannon"])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ParseError: ")

    def test_nested_real_json_names_its_shape(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[[0.5], [0.5]]")
        assert main(["entropy", "--input", str(path),
                     "--measure", "shannon"]) == EXIT_VALIDATION
        assert "shape (2, 1)" in capsys.readouterr().err


def test_import_builds_no_jump_matrix():
    # The jump matrices are built on the first block draw, not at start-up.
    code = ("import hypentropy.cli\n"
            "from hypentropy import rng\n"
            "hypentropy.cli.build_parser()\n"
            "print(rng._jump_matrix.cache_info().currsize)\n")
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


class TestMalformedCaseFullInput:
    """What a case-full file's syntax gives: exit 2 with the named error, or
    exit 0 with the output of the clean fixture.

    Three rows differ from the per-cell Python ``float()`` reading these
    loaders once used, each on purpose: ``1_0e-1`` is no CSV number (it
    was read as 1.0, so the sums failed), a NaN component is a
    NegativeComponent (it was a SumInvalid of NaN sums), and an integer too
    large for a float is a ParseError (it was an uncaught OverflowError).
    """

    REJECTED = [
        ("null-cell.json", '{"rho": [[0.5, null], [0.5, 0.75]]}', "ParseError"),
        ("three-element-row.json", '{"rho": [[0.5, 0.25, 0.0], [0.5, 0.75]]}',
         "ParseError"),
        ("three-element-rows.json",
         '{"rho": [[0.5, 0.25, 0.0], [0.5, 0.75, 0.0]]}', "ParseError"),
        ("one-column-row.csv", "p1,p2\n0.5\n0.5,0.75\n", "ParseError"),
        ("comment-line.csv", "p1,p2\n# note\n0.5,0.25\n0.5,0.75\n",
         "ParseError"),
        ("underscore-digits.csv", "p1,p2\n1_0e-1,0.25\n0.5,0.75\n",
         "ParseError"),
        ("nan-cell.json", '{"rho": [[NaN, 0.25], [0.5, 0.75]]}',
         "NegativeComponent"),
        ("huge-integer.json",
         '{"rho": [[1' + "0" * 400 + ', 0.25], [0.5, 0.75]]}', "ParseError"),
    ]

    @pytest.mark.parametrize("name, text, error", REJECTED,
                             ids=[case[0] for case in REJECTED])
    def test_rejected(self, name, text, error, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(text)
        code = main(["entropy", "--input", str(path),
                     "--measure", "strong_shannon_hyp"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_VALIDATION, "")
        assert captured.err.startswith(f"error: {error}: ")

    @pytest.mark.parametrize("name, data", [
        ("quoted-cells.csv", b'p1,p2\n"0.5","0.25"\n"0.5","0.75"\n'),
        ("crlf-blank-line.csv", b"p1,p2\r\n0.5,0.25\r\n\r\n0.5,0.75\r\n"),
        ("string-numbers.json", b'{"rho": [["0.5", "0.25"], ["0.5", "0.75"]]}'),
        ("three-column-row.csv", b"p1,p2\n0.5,0.25,extra\n0.5,0.75\n"),
    ], ids=["quoted-cells", "crlf-blank-line", "string-numbers",
            "three-column-row"])
    def test_accepted(self, name, data, hyp_path, tmp_path, capsys):
        argv = ["entropy", "--measure", "strong_shannon_hyp", "--input"]
        assert main(argv + [hyp_path]) == EXIT_OK
        clean = capsys.readouterr().out
        path = tmp_path / name
        path.write_bytes(data)
        assert main(argv + [str(path)]) == EXIT_OK
        assert capsys.readouterr().out == clean


class TestLimitsCommand:
    def test_fixture_converges(self, hyp_path, capsys):
        code = main(["limits", "--input", hyp_path])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "0.69314718055994529" in out
        assert "0.56233514461880829" in out

    def test_real_input_embeds(self, real_path, capsys):
        code = main(["limits", "--input", real_path])
        assert code == EXIT_OK
        assert "0.69314718055994529" in capsys.readouterr().out

    def test_one_power_pass_per_order_and_coordinate(self, hyp_path,
                                                      monkeypatch):
        # The table's orders 1 +- 1e-k, k = 3..6, are orders of the limit
        # too, so each coordinate is raised to the limit's 2 * 11 orders and
        # to 1 +- 0.1 and 1 +- 0.01: 2 * 26 = 52 passes, where a table taken
        # apart from the limit made 68.  The logs are ln p for the power sums and the one
        # closed-form entropy, per coordinate.
        load = cli._load_distribution

        def counted(path):
            B = load(path)
            for name in ("p1", "p2"):
                object.__setattr__(B, name,
                                   getattr(B, name).view(CountingArray))
            return B

        monkeypatch.setattr(cli, "_load_distribution", counted)
        CountingArray.calls = {}
        assert main(["limits", "--input", hyp_path]) == EXIT_OK
        assert CountingArray.calls["power"] == 52
        assert CountingArray.calls["log"] == 2 + 2

    @pytest.mark.parametrize("text, error", [
        ("[1.0, 0.0]", "ZeroComponent"),
        ('{"rho": [[0.5, 0.0], [0.5, 0.0]]}', "CaseMismatch"),
    ], ids=["zero-component", "case-e1"])
    def test_limit_rejects_input(self, text, error, tmp_path, capsys):
        path = tmp_path / "dist.json"
        path.write_text(text)
        assert main(["limits", "--input", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {error}: ")


class TestVerifyCommand:
    def test_clean_build_passes(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert out.strip().splitlines()[-1].startswith("OK")

    def test_deterministic_report(self, tmp_path):
        out1 = tmp_path / "v1.txt"
        out2 = tmp_path / "v2.txt"
        assert main(["verify", "--seed", "12345", "--output", str(out1)]) == EXIT_OK
        assert main(["verify", "--seed", "12345", "--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_two_state_fixture_off_by_an_ulp_passes(self, capsys):
        # This seed draws a two-state fixture summing to 1 - 1.1e-16 with
        # p = 3.9e-5, where S and J differ by 1.2e-15 in rounding alone.
        code = main(["verify", "--seed", "1378221267"])
        assert "FAIL" not in capsys.readouterr().out
        assert code == EXIT_OK

    @pytest.mark.parametrize("seed", [0, 1378221267])
    def test_extropy_error_still_fails_invariant(self, monkeypatch, seed):
        check = dict(verify.INVARIANTS)["extropy-relations"]
        sub_seed = derive_seed(seed, "extropy-relations")
        assert check(sub_seed).passed
        exact = measures.strong_extropy_hyp
        monkeypatch.setattr(measures, "strong_extropy_hyp",
                            lambda B: exact(B) * embed_real(1.0 + 1e-10))
        assert not check(sub_seed).passed

    def test_good_fixture_validates(self, hyp_path, capsys):
        code = main(["verify", "--input", hyp_path])
        assert code == EXIT_OK
        assert "PASS input-validates" in capsys.readouterr().out

    def test_fault_fixture_exits_4(self, bad_path, capsys):
        code = main(["verify", "--input", bad_path])
        out = capsys.readouterr().out
        assert code == EXIT_INVARIANT
        assert "FAIL input-validates" in out
        assert "SumInvalid" in out


class TestExitCodeContract:
    def test_codes_are_distinct(self):
        codes = {EXIT_OK, EXIT_IO, EXIT_VALIDATION, EXIT_NONCONVERGENT,
                 EXIT_INVARIANT}
        assert codes == {0, 1, 2, 3, 4}


def _run(argv, capsys) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


class TestGoldenEntropyOutput:
    """SHA-256 of `hypentropy entropy` stdout and exit codes on a fixed corpus.

    Each digest covers one measure on every file, order and basis below,
    recorded from the CLI's per-name dispatch before the measure registry
    replaced it.  Two runs are held out of the digests, as their bytes change
    on purpose: `collision` on real files with zero entries (now bit-equal to
    `renyi --order 2`) and `renyi_extropy_hyp --order 0` (now outside the
    order domain, exit 2); both are checked below.
    """

    FILES = {
        "real.csv": "p\n0.15\n0.35\n0.2\n0.3\n",
        "real.json": "[0.5, 0.25, 0.125, 0.0625, 0.0625]",
        "hyp-full.csv": "p1,p2\n0.2,0.6\n0.5,0.1\n0.3,0.3\n",
        "hyp-zeros.json": ('{"case": "full", "rho": [[0.5, 0.0], [0.0, 0.25],'
                           ' [0.25, 0.5], [0.25, 0.25]]}'),
        "hyp-e1.json": '{"case": "e1", "rho": [[0.25, 0.0], [0.75, 0.0]]}',
        "real-zeros.csv": "p\n0.08\n0.08\n0.0\n0.0\n0.1\n0.12\n0.18\n0.12\n"
                          "0.06\n0.08\n0.08\n0.1\n",
        "certainty.json": "[0.0, 1.0, 0.0]",
        "single.csv": "p\n1\n",
    }
    REAL_ZERO_FILES = ("real-zeros.csv", "certainty.json")
    ORDERS = (None, "0.5", "2", "0.5,2", "0")
    BASES = ("idempotent", "unit-k")
    DIGESTS = {
        "collision":
            "5be3860616466034b861bd8406723cdf7543da7e005548a3cc77e8907c5baf12",
        "collision_hyp":
            "b81ca07b27fcdf0d1c14cc7ae209e72c3c9c047de0be26f51d2b6ee50ddf0c29",
        "extropy":
            "29fc3a49926c855eaf1d6194f421612dd2b4c591ae26a59308061e81dd8a4a2a",
        "hartley":
            "3768761bcfc728912d06035da6099a2ddec1a6e32fb65d9eef70bec62d55f25a",
        "hartley_hyp":
            "e4063e4e76910fbc7c71c533cefa666ffd3459a58be267dc40553feb9337d957",
        "renyi":
            "8ec767d44666c1e10849e6dd74412e8dbab609b56e7e321db966ed6118a9d597",
        "renyi_extropy":
            "70fa5c4d867a62825a24cecbdc3a44ad519d8447429d0de87d1202aa0f88c066",
        "renyi_extropy_hyp":
            "70c47dc97412e5e00ec7000e68c6595c6f214e79a8c71d21f41f22102d5cec60",
        "renyi_hyp":
            "105c933c83cc8591cc208a0c70f12e1eb239851ec824e73d3234fd709fdb6b44",
        "shannon":
            "b7d1ffb0813eae9fe14b6f09fc5e1bc573e9f940442fc8d349ffcb1304b8105e",
        "shannon_via_generating":
            "524a020f52b97d9fa66774a975958a8f9af42c511aee4020c81e8ad386ba0a6a",
        "strong_extropy_hyp":
            "fa55d6ecae054bad6ac20ee7bb0ac285207aec30c9fc50f00c2f6ded091856f8",
        "strong_shannon_hyp":
            "f864e6423cfcd0d71b82df1496d77034983e9ba5f906f01bef8c4e19188a2f59",
        "strong_shannon_via_generating":
            "764d3d93adca454d45b108ad65e16e6ce0675bb1a74a0611c9fca72a5f05f934",
    }

    @pytest.fixture
    def paths(self, tmp_path):
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        return {name: str(tmp_path / name) for name in self.FILES}

    def corpus_text(self, measure, paths, capsys) -> str:
        parts = []
        for name in self.FILES:
            if measure == "collision" and name in self.REAL_ZERO_FILES:
                continue
            for order in self.ORDERS:
                if measure == "renyi_extropy_hyp" and order == "0":
                    continue
                for basis in self.BASES:
                    argv = ["entropy", "--input", paths[name],
                            "--measure", measure, "--basis", basis]
                    if order is not None:
                        argv += ["--order", order]
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        code, out = _run(argv, capsys)
                    parts.append(f"{name} {order} {basis} {code}\n{out}")
        return "".join(parts)

    @pytest.mark.parametrize("measure", [
        "collision", "collision_hyp", "extropy", "hartley", "hartley_hyp",
        "renyi", "renyi_extropy", "renyi_extropy_hyp", "renyi_hyp",
        "shannon", "shannon_via_generating", "strong_extropy_hyp",
        "strong_shannon_hyp", "strong_shannon_via_generating",
    ])
    def test_output_digest(self, measure, paths, capsys):
        text = self.corpus_text(measure, paths, capsys)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.DIGESTS[measure]

    @pytest.mark.parametrize("measure, code", [
        ("strong_shannon_hyp", EXIT_OK),
        ("strong_extropy_hyp", EXIT_VALIDATION),
    ])
    def test_case_e1_exit_code(self, measure, code, paths, capsys):
        argv = ["entropy", "--input", paths["hyp-e1.json"], "--measure", measure]
        assert _run(argv, capsys)[0] == code

    @pytest.mark.parametrize("name", REAL_ZERO_FILES)
    @pytest.mark.parametrize("basis", BASES)
    def test_collision_is_renyi_2(self, name, basis, paths, capsys):
        argv = ["entropy", "--input", paths[name], "--basis", basis]
        code, coll = _run(argv + ["--measure", "collision"], capsys)
        assert code == EXIT_OK
        _, ren = _run(argv + ["--measure", "renyi", "--order", "2"], capsys)
        assert coll.splitlines()[1].split(",")[3:] \
            == ren.splitlines()[1].split(",")[3:]

    def test_renyi_extropy_hyp_rejects_order_zero(self, paths, capsys):
        argv = ["entropy", "--input", paths["hyp-full.csv"],
                "--measure", "renyi_extropy_hyp", "--order", "0"]
        assert _run(argv, capsys) == (EXIT_VALIDATION, "")


def _subparsers() -> dict:
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _measure_choices(command: str) -> list:
    return list(next(a for a in _subparsers()[command]._actions
                     if a.dest == "measure").choices)


def test_measure_choices_are_the_registry():
    assert _measure_choices("entropy") == sorted(measures.MEASURES)
    routes = {"shannon_via_generating", "strong_shannon_via_generating"}
    assert set(_measure_choices("stability")) == set(measures.MEASURES) - routes


class TestGoldenLimitsOutput:
    """SHA-256 of `hypentropy limits` exit code and stdout on generated files.

    Recorded before the loaders read files as arrays and before the limit
    routes shared their power sums.  One digest per distribution, real or
    case-full, at N in {3, 1e3, 1e4}; its CSV and its JSON file must print
    the same bytes.  The weights are drawn by Python's own generator and
    normalised with basic float operations only, so the files do not depend
    on a math library.
    """

    SIZES = (3, 1000, 10_000)
    DIGESTS = {
        "real-3":
            "6301c9102ddf4990852471d0a4ff5ee454f05dcaf05d620c40764aa5d316f18c",
        "real-1000":
            "fd6286fea4984a5d76d8086966cf6e5ab53dcee121eb3edc0595d6693c0cc7af",
        "real-10000":
            "92a4e34455b2b71fd42efd2530dac464a6c51d5bef8185c37e805c5dec2441b9",
        "hyp-3":
            "4ed519f14930c0d80f4a9e6cffb9b16eaaabbb6693bdc3a2dd8694fa73623906",
        "hyp-1000":
            "f2fca43dfeea933094f62d6a79937afc002e6706152c4bd1b064aeab223f74f2",
        "hyp-10000":
            "54c721f43739863f6811053de2655c33dcda0c0c908913f4b92319183bd9be61",
    }

    @staticmethod
    def weights(seed: int, n: int) -> list:
        rng = random.Random(seed)
        g = [0.05 + rng.random() for _ in range(n)]
        total = sum(g)
        return [x / total for x in g]

    @classmethod
    def files(cls, kind: str, n: int) -> dict:
        p1 = cls.weights(n, n)
        if kind == "real":
            return {"csv": "p\n" + "".join(f"{a!r}\n" for a in p1),
                    "json": json.dumps(p1)}
        p2 = cls.weights(n + 1, n)
        return {"csv": "p1,p2\n" + "".join(f"{a!r},{b!r}\n"
                                           for a, b in zip(p1, p2)),
                "json": json.dumps({"case": "full",
                                    "rho": [[a, b] for a, b in zip(p1, p2)]})}

    def outputs(self, kind, n, tmp_path, capsys, flags=()) -> dict:
        result = {}
        for fmt, text in self.files(kind, n).items():
            path = tmp_path / f"{kind}-{n}.{fmt}"
            path.write_text(text)
            code, out = _run(["limits", "--input", str(path), *flags], capsys)
            result[fmt] = f"{code}\n{out}"
        return result

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("kind", ["real", "hyp"])
    def test_output_digest(self, kind, n, tmp_path, capsys):
        out = self.outputs(kind, n, tmp_path, capsys)
        assert out["csv"] == out["json"]
        digest = hashlib.sha256(out["csv"].encode()).hexdigest()
        assert digest == self.DIGESTS[f"{kind}-{n}"]

    def test_nonconvergent_exit_keeps_the_table(self, tmp_path, capsys):
        plain = self.outputs("hyp", 3, tmp_path, capsys)["json"]
        strict = self.outputs("hyp", 3, tmp_path, capsys, ("--tol", "0"))
        assert strict["csv"] == strict["json"]
        assert plain.startswith(f"{EXIT_OK}\n")
        assert strict["json"] == f"{EXIT_NONCONVERGENT}\n" + plain.split("\n", 1)[1]


class TestFlagsPerCommand:
    """Each subcommand takes only the flags it reads."""

    OPTIONS = {
        "entropy": ["-h", "--help", "--input", "--measure", "--order",
                    "--output", "--format", "--basis"],
        "stability": ["-h", "--help", "--family", "--N-grid", "--delta-grid",
                      "--measure", "--order", "--output", "--format",
                      "--basis", "--seed"],
        "limits": ["-h", "--help", "--input", "--output", "--tol"],
        "verify": ["-h", "--help", "--input", "--output", "--seed"],
    }

    def test_option_strings(self):
        got = {command: [s for a in p._actions for s in a.option_strings]
               for command, p in _subparsers().items()}
        assert got == self.OPTIONS

    @pytest.mark.parametrize("argv", [
        ["limits", "--format", "json"],
        ["verify", "--tol", "1"],
        ["entropy", "--measure", "shannon", "--seed", "1"],
    ], ids=["limits-format", "verify-tol", "entropy-seed"])
    def test_unread_flag_exits_2(self, argv, real_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--input", real_path])
        assert exc.value.code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err


def _mostly(good: st.SearchStrategy, bad: list) -> st.SearchStrategy:
    """``good`` nine times in ten, else one of the malformed values ``bad``."""
    return st.sampled_from(range(10)).flatmap(
        lambda i: st.sampled_from(bad) if i == 9 else good)


def _grid(fixed: list, numbers: st.SearchStrategy) -> st.SearchStrategy:
    """A comma-separated grid of fixed and drawn tokens."""
    token = st.one_of(st.sampled_from(fixed), numbers)
    return st.lists(token, min_size=1, max_size=4).map(",".join)


_FLOATS = st.floats(allow_nan=True, allow_infinity=True).map(repr)


class TestStabilityFuzz:
    """Random `stability` command lines end in finite output or a typed
    error: an exit code of the contract, no traceback, and with exit code 0
    no NaN or infinity outside an error row's norm and ratio columns (the
    order and delta columns echo the command line)."""

    FAMILIES = _mostly(st.lists(st.sampled_from(
        ["CertaintySpread", "UniformSpike", "RandomSmooth"]),
        min_size=1, max_size=3), [["NoSuchFamily"]])
    # N is capped at 1e4, so that no example builds a large array.
    N_GRID = _mostly(_grid(["0", "1", "-1", "-7", "2", "3", "97", "1e3",
                            "1E2", "100.0", "2.5e3", "1e4", " "],
                           st.integers(-3, 10_000).map(str)),
                     ["", "1.5", "x", "10,inf", "nan"])
    DELTA_GRID = _mostly(_grid(["0", "1", "-0.1", "nan", "inf", "-inf",
                                "0.01", "0.3", "0.999", "1e-3", "1.5",
                                "5e-324", "1e-300"], _FLOATS),
                         ["", "y", "0.1,z"])
    MEASURES = st.lists(st.sampled_from(_measure_choices("stability")),
                        min_size=1, max_size=4)
    ORDER_VALUE = st.one_of(st.sampled_from(
        ["2", "0.5", "0", "1", "-1", "nan", "inf", "1e300", "1e-300", "1000"]),
        _FLOATS)
    # A real measure reads e1 only; its e2 must still be finite.
    ORDER = _mostly(st.one_of(
        st.none(), ORDER_VALUE,
        st.tuples(ORDER_VALUE, ORDER_VALUE).map(",".join),
        st.sampled_from(["2,nan", "0.5,inf"])),
        ["x", "1,1,1", ""])

    @staticmethod
    def rows(text: str, fmt: str) -> list:
        """(order, delta, values, error) of each output row."""
        if fmt == "json":
            return [(r["order"] or [], r["delta"], r["norm"] + r["ratio"],
                     r["error"]) for r in json.loads(text)]
        lines = list(csv.reader(io.StringIO(text)))
        assert lines[0] == STABILITY_CSV_HEADER
        return [([float(x) for x in r[2:4] if x], float(r[5]),
                 [float(x) for x in r[6:10]], r[10] or None)
                for r in lines[1:]]

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(families=FAMILIES, n_grid=N_GRID, delta_grid=DELTA_GRID,
           measures=MEASURES, order=ORDER,
           fmt=st.sampled_from(["csv", "json"]),
           basis=st.sampled_from(["idempotent", "unit-k"]),
           seed=st.integers(-3, 2**64))
    # A real measure reads e1 only; its e2 must still be finite.
    @example(families=["UniformSpike"], n_grid="10", delta_grid="0.1",
             measures=["renyi", "shannon"], order="2,nan", fmt="csv",
             basis="idempotent", seed=0)
    def test_finite_output_or_typed_error(self, families, n_grid, delta_grid,
                                          measures, order, fmt, basis, seed):
        # The "--flag=value" form keeps a value such as "-1" a value.
        argv = ["stability", f"--N-grid={n_grid}",
                f"--delta-grid={delta_grid}", f"--format={fmt}",
                f"--basis={basis}", f"--seed={seed}"]
        argv += [f"--family={f}" for f in families]
        argv += [f"--measure={m}" for m in measures]
        if order is not None:
            argv.append(f"--order={order}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in {0, 1, 2, 3, 4}
        assert "Traceback" not in err.getvalue()
        if code != EXIT_OK:
            return
        given_order = cli._parse_order(order) if order is not None else None
        for row_order, delta, values, error in self.rows(out.getvalue(), fmt):
            if row_order:
                assert list(map(repr, row_order)) == \
                    [repr(given_order.x1), repr(given_order.x2)]
            if error is None:
                assert all(map(math.isfinite, values)), values
                assert all(map(math.isfinite, row_order)), row_order
                assert math.isfinite(delta)
            else:
                assert all(map(math.isnan, values)), values
                assert math.isfinite(delta) or error == "BadDelta"


# Cell faults the loaders must reject: JSON null, an integer too large for a
# float, non-finite and out-of-range numbers, text, and a nested list.
_CELL_FAULTS = [None, 10**400, math.nan, math.inf, -math.inf, -0.25, 1.5,
                "x", [0.5]]
# Whole files of an odd shape.
_ODD_FILES = [("empty.json", ""), ("object.json", "{}"),
              ("no-rows.json", '{"rho": []}'), ("empty.json", "[]"),
              ("header.csv", "p\n"), ("header.csv", "p1,p2\n"),
              ("nested.json", "[[0.5], [0.5]]"), ("deep.json", "[" * 200),
              ("rows.json", '{"rho": [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]}'),
              ("text.txt", "hello\n")]


def _csv_cell(cell) -> str:
    return "" if cell is None else str(cell)


@st.composite
def _distribution_file(draw) -> tuple[str, str]:
    """(file name, text) of a distribution of at most 50 states: real or
    hyperbolic of each case, as JSON or CSV, mostly valid, else with one
    faulty cell or of an odd shape."""
    if draw(st.integers(0, 9)) == 9:
        return draw(st.sampled_from(_ODD_FILES))
    n = draw(st.integers(1, 50))
    # Zero entries in some files only, so that `limits` converges on others.
    low = draw(st.sampled_from([1e-3, 0.0]))

    def vector() -> list:
        w = draw(st.lists(st.floats(low, 1.0), min_size=n, max_size=n))
        total = math.fsum(w)
        return [x / total for x in w] if total > 0.0 else w

    kind = draw(st.sampled_from(["real", "full", "e1", "e2"]))
    if kind == "real":
        rows = vector()
    else:
        p1 = [0.0] * n if kind == "e2" else vector()
        p2 = [0.0] * n if kind == "e1" else vector()
        rows = [[a, b] for a, b in zip(p1, p2)]
    if draw(st.integers(0, 3)) == 3:
        fault = draw(st.sampled_from(_CELL_FAULTS))
        i = draw(st.integers(0, n - 1))
        if kind == "real":
            rows[i] = fault
        else:
            rows[i][draw(st.integers(0, 1))] = fault
    if draw(st.booleans()):
        if kind == "real":
            return "dist.json", json.dumps(rows)
        payload = {"rho": rows}
        case = draw(st.sampled_from([None, kind, "full", "e1", "e2"]))
        if case is not None:
            payload["case"] = case
        return "dist.json", json.dumps(payload)
    header = "p" if kind == "real" else "p1,p2"
    lines = [_csv_cell(r) if kind == "real" else ",".join(map(_csv_cell, r))
             for r in rows]
    return "dist.csv", "\n".join([header, *lines]) + "\n"


def _numbers(text: str) -> list[float]:
    """Every token of the output that reads as a float."""
    values = []
    for token in text.replace(",", " ").replace('"', " ").split():
        try:
            values.append(float(token.strip("[]:")))
        except ValueError:
            pass
    return values


class TestFileCommandFuzz:
    """Random distribution files through `entropy`, `limits` and `verify
    --input` end in finite output or a typed error: an exit code of the
    contract, no traceback, and with exit code 0 no NaN or infinity."""

    MEASURES = st.lists(st.sampled_from(_measure_choices("entropy")),
                        min_size=1, max_size=2)
    ORDER = st.one_of(st.sampled_from(["2", "0.5,2"]),
                      TestStabilityFuzz.ORDER)

    @staticmethod
    def run(argv: list, file: tuple[str, str]) -> tuple[int, str]:
        name, text = file
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = main(argv + [f"--input={path}"])
                except SystemExit as exc:
                    code = exc.code
        assert code in {0, 1, 2, 3, 4}
        assert "Traceback" not in err.getvalue()
        if code == EXIT_OK:
            assert all(map(math.isfinite, _numbers(out.getvalue()))), \
                out.getvalue()
        return code, out.getvalue()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(file=_distribution_file(), measures=MEASURES, order=ORDER,
           fmt=st.sampled_from(["csv", "json"]),
           basis=st.sampled_from(["idempotent", "unit-k"]))
    @example(file=("real.json", REAL_FIXTURE), measures=["renyi"],
             order="2,nan", fmt="csv", basis="idempotent")
    def test_entropy(self, file, measures, order, fmt, basis):
        argv = ["entropy", f"--format={fmt}", f"--basis={basis}"]
        argv += [f"--measure={m}" for m in measures]
        if order is not None:
            argv.append(f"--order={order}")
        self.run(argv, file)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(file=_distribution_file())
    def test_limits(self, file):
        self.run(["limits"], file)

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(file=_distribution_file())
    def test_verify_input(self, file):
        code, out = self.run(["verify"], file)
        assert code in {EXIT_OK, EXIT_INVARIANT}
        assert ("FAIL input-validates" in out) == (code == EXIT_INVARIANT)
