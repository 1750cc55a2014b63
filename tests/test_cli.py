"""Command-line interface: formats, exit codes, determinism, round-trips."""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import warnings

import pytest

from hypentropy import SweepConfig, embed_real, measures, stability_sweep, verify
from hypentropy.cli import (
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

    @pytest.mark.parametrize("order", ["inf,2", "nan,2"])
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
    ], ids=["order", "n-grid", "delta-grid"])
    def test_bad_flag_exits_2(self, flags, capsys):
        assert main(self.SWEEP + flags) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ParseError: ")

    @pytest.mark.parametrize("name, text", [
        ("truncated.json", '{"rho": [[0.5, 0.5], [0.5'),
        ("no-rho.json", '{"case": "full"}'),
        ("cell.csv", "p\n0.5\nhalf\n"),
        ("deep.json", "[" * 100_000),
        ("null.json", "[null, 1.0]"),
    ], ids=["truncated-json", "json-without-rho", "non-numeric-csv-cell",
            "deeply-nested-json", "null-in-real-json"])
    def test_bad_file_exits_2(self, name, text, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(text)
        code = main(["entropy", "--input", str(path), "--measure", "shannon"])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ParseError: ")


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
