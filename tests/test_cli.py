import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from kposi import cli, compound, matcore, minor_table
from kposi.cli import build_parser, matrix_document, parse_matrix_document, run_cli
from kposi.examples import (
    CERT_3X3,
    CERT_D_REF,
    CERT_P_REF,
    CT_NO_DLF,
    CT_SCREEN_WITNESS,
    CYCLIC_WEDGE,
    DT_NO_DLF,
    DT_SCREEN_WITNESS,
    WEDGE_A1,
    WEDGE_A2,
)

import golden_reports

DATA = Path(__file__).parent / "data"


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def eq7_doc():
    return {
        "rows": 3,
        "cols": 3,
        "scale": "1/7",
        "data": np.rint(7.0 * DT_NO_DLF).astype(int).tolist(),
    }


def system5_doc():
    return {
        "A": matrix_document(CYCLIC_WEDGE),
        "maps": [{"kind": "power", "p": 2}] * 3,
        "domain": [-0.5, 0.5],
    }


class TestMatrixDocuments:
    def test_scale_is_applied_exactly(self):
        A = parse_matrix_document(eq7_doc())
        np.testing.assert_array_equal(A, DT_NO_DLF)

    def test_scale_applied_where_the_product_with_p_alone_overflows(self, capsys):
        # 1e308 * 3 leaves the float range, 1e308 * 3 / 4 does not; entries
        # whose product is finite keep its rounding
        doc = {"rows": 1, "cols": 2, "data": [[1e308, 0.1]], "scale": "3/4"}
        np.testing.assert_array_equal(parse_matrix_document(doc), [[1e308 / 4 * 3, 0.1 * 3 / 4]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(["classify", "--in", str(DATA / "scale_fits.json"), "-k", "1"]) == 0
        value = json.loads(capsys.readouterr().out)["verdicts"]["witness_min"]["value"]
        assert value == 1e308 / 4 * 3

    def test_bad_scale_rejected(self):
        doc = eq7_doc()
        doc["scale"] = "1/0"
        with pytest.raises(Exception):
            parse_matrix_document(doc)

    def test_shape_mismatch_rejected(self):
        doc = eq7_doc()
        doc["rows"] = 2
        from kposi import DomainError

        with pytest.raises(DomainError):
            parse_matrix_document(doc)

    def test_emitted_matrices_reingest_bit_identical(self):
        rng = np.random.default_rng(61)
        A = rng.standard_normal((4, 4)) * np.exp(rng.uniform(-20, 20, (4, 4)))
        doc = json.loads(json.dumps(matrix_document(A)))
        np.testing.assert_array_equal(parse_matrix_document(doc), A)


class TestTransformCommands:
    def test_compound_output_roundtrip(self, tmp_path, capsys):
        path = write_json(tmp_path / "a.json", eq7_doc())
        assert run_cli(["compound", "--in", path, "-k", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        from kposi import mult_compound

        np.testing.assert_array_equal(parse_matrix_document(out), mult_compound(DT_NO_DLF, 2))

    def test_wedge_columns(self, tmp_path, capsys):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 2.0, 0.0])
        path = write_json(tmp_path / "v.json", matrix_document(np.column_stack([a, b])))
        assert run_cli(["wedge", "--in", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 3 and out["k"] == 2
        assert out["coords"] == [2.0, 0.0, 0.0]

    @pytest.mark.parametrize("command, shape, k", [("compound", (12, 12), 5), ("wedge", (20, 6), 6)])
    def test_minor_reports_write_every_zero_as_plus_zero(self, monkeypatch, tmp_path, capsys, command, shape, k):
        # sparse mixed-sign input: its blocked table equals the one-block
        # table bit for bit, and holds zero minors of sign -0.0; the report
        # is that table, every zero written as 0.0
        rng = np.random.default_rng(79)
        A = rng.standard_normal(shape) * (rng.random(shape) < 0.25)
        blocked = matcore._minors(A, k)
        with monkeypatch.context() as m:
            m.setattr(matcore, "_LEVEL_BLOCK", 1 << 62)
            whole = matcore._minors(A, k)
        assert blocked.tobytes() == whole.tobytes() and np.signbit(whole[whole == 0.0]).any()
        path = write_json(tmp_path / "a.json", matrix_document(A))
        if command == "compound":
            assert run_cli(["compound", "--in", path, "-k", str(k)]) == 0
            want = matrix_document(whole + 0.0)
        else:
            assert run_cli(["wedge", "--in", path]) == 0
            want = {"n": shape[0], "k": k, "coords": (whole[:, 0] + 0.0).tolist()}
        assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"

    def test_cayley_regression_block(self, tmp_path, capsys):
        path = write_json(tmp_path / "a.json", eq7_doc())
        assert run_cli(["cayley", "--in", path]) == 0
        B = parse_matrix_document(json.loads(capsys.readouterr().out))
        target = np.array([[204.0, 140.0], [497.0, 323.0]]) / 461.0
        np.testing.assert_allclose(B[np.ix_([0, 2], [0, 2])], target, rtol=1e-12)

    def test_dlf_recover(self, tmp_path, capsys):
        path = write_json(tmp_path / "d.json", matrix_document(np.diag(CERT_D_REF)))
        assert run_cli(["dlf-recover", "--in", path]) == 0
        P = parse_matrix_document(json.loads(capsys.readouterr().out))
        np.testing.assert_allclose(np.diag(P), CERT_P_REF, atol=1e-12)

    def test_dlf_recover_accepts_vector_document(self, tmp_path, capsys):
        path = write_json(tmp_path / "d.json", {"data": list(CERT_D_REF)})
        assert run_cli(["dlf-recover", "--in", path]) == 0
        P = parse_matrix_document(json.loads(capsys.readouterr().out))
        np.testing.assert_allclose(np.diag(P), CERT_P_REF, atol=1e-12)


class TestVerdictCommands:
    def test_classify_reports_and_exit_zero(self, tmp_path, capsys):
        path = write_json(tmp_path / "a.json", eq7_doc())
        assert run_cli(["classify", "--in", path, "-k", "2"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["command"] == "classify"
        assert rep["verdicts"]["verdict"] == "SSR"
        assert rep["verdicts"]["signature"] == 1
        assert rep["tolerances"]["zero_tol"] == 1e-9

    def test_classify_conflict_exits_one(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "m.json", matrix_document(np.array([[1.0, -1.0], [1.0, 1.0]]))
        )
        assert run_cli(["classify", "--in", path, "-k", "1"]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdicts"]["verdict"] == "NONE"
        assert rep["verdicts"]["witness_conflict"] is not None

    def test_check_necessary_dt_regression(self, tmp_path, capsys):
        path = write_json(tmp_path / "a.json", eq7_doc())
        assert run_cli(["check-necessary", "--in", path, "--mode", "dt"]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdicts"]["passed"] is False
        kappa, value = DT_SCREEN_WITNESS
        assert rep["verdicts"]["witness"]["kappa"] == list(kappa)
        assert rep["verdicts"]["witness"]["value"] == pytest.approx(value, abs=1e-9)

    def test_check_necessary_ct_regression(self, tmp_path, capsys):
        path = write_json(tmp_path / "a.json", matrix_document(CT_NO_DLF))
        assert run_cli(["check-necessary", "--in", path, "--mode", "ct"]) == 1
        rep = json.loads(capsys.readouterr().out)
        kappa, value = CT_SCREEN_WITNESS
        assert rep["verdicts"]["witness"]["kappa"] == list(kappa)
        assert rep["verdicts"]["witness"]["value"] == pytest.approx(value, abs=1e-9)

    def test_check_necessary_reads_kposi_tol(self, tmp_path, capsys, monkeypatch):
        # -0.9*I maps to I/19 under the Cayley transform: principal minors
        # 19^-1, 19^-2, 19^-3, so a 0.01 threshold first fails at order 2
        path = write_json(tmp_path / "a.json", matrix_document(-0.9 * np.eye(3)))
        monkeypatch.setenv("KPOSI_TOL", "0.01")
        assert run_cli(["check-necessary", "--in", path, "--mode", "dt"]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["tolerances"]["minor_tol"] == 0.01
        assert rep["verdicts"]["witness"]["kappa"] == [1, 2]
        assert run_cli(["check-necessary", "--in", path, "--mode", "dt", "--tol", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["tolerances"]["minor_tol"] == 0.0
        monkeypatch.delenv("KPOSI_TOL")
        assert run_cli(["check-necessary", "--in", path, "--mode", "dt"]) == 0
        assert json.loads(capsys.readouterr().out)["tolerances"]["minor_tol"] == 0.0

    def test_certify_success(self, tmp_path, capsys):
        path = write_json(tmp_path / "a.json", matrix_document(CERT_3X3))
        assert run_cli(["certify", "--in", path, "-k", "2"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdicts"]["certified"] is True
        assert rep["verdicts"]["stein_margin"] > 0.0
        assert len(rep["verdicts"]["d"]) == 3

    def test_certify_report_is_written_in_one_call(self, monkeypatch):
        # chain12's report, d, xi and z of 792 entries each, goes out in one
        # write of the bytes json.dump would write token by token
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

        monkeypatch.setattr(cli.sys, "stdout", Recorder())
        assert run_cli(["certify", "-k", "5", "--in", str(DATA / "chain12.json")]) == 0
        (text,) = writes
        assert text == json.dumps(json.loads(text), indent=2) + "\n" and len(text) > 60_000

    def test_certify_failure_exits_one(self, tmp_path, capsys):
        path = write_json(tmp_path / "i.json", matrix_document(np.eye(3)))
        assert run_cli(["certify", "--in", path, "-k", "1"]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdicts"]["failure"] == "COMPOUND_NOT_SCHUR"

    def test_cyclic_build_and_analyze(self, capsys):
        args = ["cyclic", "--alphas", "0.1", "0.05", "2.01", "--betas", "1.9", "1.95", "0.01", "--ell", "2"]
        assert run_cli(args) == 0
        built = parse_matrix_document(json.loads(capsys.readouterr().out))
        np.testing.assert_allclose(built, CYCLIC_WEDGE, atol=1e-15)
        assert run_cli(args + ["--analyze"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdicts"]["ell_diag_stable"] is True
        assert rep["verdicts"]["sign_class_at_ell"]["signature"] == 1

    def test_tol_and_kposi_tol_both_set_the_stein_margin(self, tmp_path, capsys, monkeypatch):
        # rho = 0.95 passes the Schur margin at 1e-2; the Stein margin of
        # the constructed D, about 0.0039, does not
        A = 1.9 * np.array([[0.5, 0.49], [0.0, 0.5]])
        path = write_json(tmp_path / "a.json", matrix_document(A))
        assert run_cli(["certify", "--in", path, "-k", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["tolerances"]["pd_tol"] == 1e-10
        assert run_cli(["certify", "--in", path, "-k", "1", "--tol", "1e-2"]) == 3
        assert "Stein check" in capsys.readouterr().err
        monkeypatch.setenv("KPOSI_TOL", "1e-2")
        assert run_cli(["certify", "--in", path, "-k", "1"]) == 3
        assert "Stein check" in capsys.readouterr().err

    def test_env_tolerance_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KPOSI_TOL", "1e-6")
        path = write_json(tmp_path / "a.json", eq7_doc())
        assert run_cli(["classify", "--in", path, "-k", "2"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["tolerances"]["zero_tol"] == 1e-6


class TestSimulationCommands:
    def test_simulate_states_csv(self, tmp_path, capsys):
        path = write_json(tmp_path / "sys.json", system5_doc())
        code = run_cli(
            ["simulate", "--system", path, "--x0", *map(str, WEDGE_A2), "--steps", "3"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "j,x1,x2,x3"
        assert len(lines) == 5
        first = [float(v) for v in lines[1].split(",")[1:]]
        np.testing.assert_allclose(first, WEDGE_A2)
        second = [float(v) for v in lines[2].split(",")[1:]]
        np.testing.assert_allclose(second, CYCLIC_WEDGE @ np.array([0.25, 0.25, 0.16]))

    def test_wedge_sim_decreasing_v_column(self, tmp_path, capsys):
        sys_path = write_json(tmp_path / "sys.json", system5_doc())
        inits = np.column_stack([WEDGE_A1, WEDGE_A2])
        init_path = write_json(tmp_path / "init.json", matrix_document(inits))
        code = run_cli(
            [
                "wedge-sim",
                "--system",
                sys_path,
                "--initials",
                init_path,
                "-k",
                "2",
                "--steps",
                "5",
                "--certify",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0] == "j,V"
        v = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert v.shape == (6,)
        assert np.all(np.diff(v[1:6]) < -1e-12)
        report = json.loads(captured.err)
        assert report["verdicts"]["monotone"] is True
        assert report["verdicts"]["certificate"]["stein_margin"] > 0.0

    def test_wedge_sim_without_certificate_uses_unit_weights(self, tmp_path, capsys):
        sys_path = write_json(tmp_path / "sys.json", system5_doc())
        inits = np.column_stack([WEDGE_A1, WEDGE_A2])
        init_path = write_json(tmp_path / "init.json", matrix_document(inits))
        code = run_cli(
            ["wedge-sim", "--system", sys_path, "--initials", init_path, "-k", "2", "--steps", "2"]
        )
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.err)
        assert report["verdicts"]["d_used"] == [1.0, 1.0, 1.0]

    def test_wedge_sim_certify_reports_the_stein_margin_it_checked(self, tmp_path, capsys):
        # --tol sets pd_tol, the margin certify checks D at; with --certify
        # both the success and the failure report name it
        init_path = write_json(
            tmp_path / "init.json", matrix_document(np.column_stack([WEDGE_A1, WEDGE_A2]))
        )
        unstable = dict(system5_doc(), A=matrix_document(np.eye(3)))
        argv = ["--initials", init_path, "-k", "2", "--steps", "2", "--tol", "1e-3"]
        for doc, code in ((system5_doc(), 0), (unstable, 1)):
            sys_path = write_json(tmp_path / "sys.json", doc)
            assert run_cli(["wedge-sim", "--system", sys_path, *argv, "--certify"]) == code
            report = json.loads(capsys.readouterr().err)
            assert report["verdicts"].get("certified", True) is (code == 0)
            assert report["tolerances"] == {"zero_tol": 1e-3, "pd_tol": 1e-3}
        assert run_cli(["wedge-sim", "--system", sys_path, *argv]) == 0
        assert json.loads(capsys.readouterr().err)["tolerances"] == {"zero_tol": 1e-3}

    def test_wedge_sim_builds_the_compound_once(self, tmp_path, capsys, monkeypatch):
        # only A^(2) is built: the unit weights need no compound, and the
        # wedges of all steps come from one batched pass
        sys_path = write_json(tmp_path / "sys.json", system5_doc())
        inits = np.column_stack([WEDGE_A1, WEDGE_A2])
        init_path = write_json(tmp_path / "init.json", matrix_document(inits))
        calls = []

        def counted(*args):
            calls.append(args)
            return minor_table(*args)

        monkeypatch.setattr(compound, "minor_table", counted)
        code = run_cli(
            ["wedge-sim", "--system", sys_path, "--initials", init_path, "-k", "2", "--steps", "5"]
        )
        capsys.readouterr()
        assert code == 0
        assert len(calls) == 1


class TestErrorPaths:
    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2, "cols": 2, "data": [[1, 2], [3, ]]}')
        assert run_cli(["classify", "--in", str(path), "-k", "1"]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("classify", {"rows": "three", "cols": 3, "data": [[1.0] * 3] * 3}),
            ("classify", {"rows": None, "cols": 3, "data": [[1.0] * 3] * 3}),
            ("classify", {"rows": 2, "cols": 2, "data": [[1.0, "x"], [0.0, 1.0]]}),
            ("classify", {"rows": 2, "cols": 2, "data": [[1.0, 0.0], [1.0]]}),
            ("classify", b'{"rows": 1, "cols": 1, "data": [[1]], "note": "\xff"}'),
            ("simulate", {"maps": [{"kind": "linear", "c": "x"}] * 3}),
            ("simulate", {"maps": 5}),
            ("simulate", {"domain": [-1, "a"]}),
            ("simulate", {"maps": [{"kind": "table", "points": [[1]]}] * 3}),
            ("simulate", {"maps": [{"kind": "power", "p": float("nan")}] * 3}),
            ("classify", {"rows": 2.5, "cols": 2, "data": [[1.0, 0.0], [0.0, 1.0]]}),
            ("classify", {"rows": 2, "cols": "2", "data": [[1.0, 0.0], [0.0, 1.0]]}),
            ("classify", {"rows": True, "cols": 1, "data": [[1.0]]}),
            ("simulate", {"validate": "no"}),
            ("simulate", {"validate": 0}),
            ("classify", {"rows": 1, "cols": 1, "data": [[1.0]], "scale": "1e400"}),
            ("classify", {"rows": 1, "cols": 1, "data": [[1.0]], "scale": "1e-400"}),
            ("classify", {"rows": 1, "cols": 1, "data": [[1e10]], "scale": "1e300"}),
        ],
        ids=[
            "rows-string",
            "rows-null",
            "data-entry-string",
            "data-ragged",
            "not-utf8",
            "linear-gain-string",
            "maps-not-a-list",
            "domain-bound-string",
            "table-point-short",
            "power-exponent-nan",
            "rows-fractional",
            "cols-numeric-string",
            "rows-boolean",
            "validate-string",
            "validate-number",
            "scale-overflow",
            "scale-underflow",
            "scale-product-overflow",
        ],
    )
    def test_malformed_document_exits_two(self, tmp_path, capsys, command, doc):
        path = tmp_path / "doc.json"
        if isinstance(doc, bytes):  # not UTF-8
            path.write_bytes(doc)
        elif command == "simulate":
            write_json(path, dict(system5_doc(), **doc))
        else:
            write_json(path, doc)
        if command == "classify":
            argv = ["classify", "--in", str(path), "-k", "1"]
        else:
            argv = ["simulate", "--system", str(path), "--x0", "0", "0", "0", "--steps", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no warning before the refusal
            assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    # a negative tolerance is refused too: its zero band would read the
    # zero minors of I as negative
    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-inf", "-1", "-1e-12"])
    @pytest.mark.parametrize("source", ["env", "flag"])
    def test_non_finite_tolerance_exits_two(self, tmp_path, capsys, monkeypatch, source, value):
        path = write_json(tmp_path / "i.json", matrix_document(np.eye(2)))
        argv = ["classify", "--in", path, "-k", "1"]
        monkeypatch.delenv("KPOSI_TOL", raising=False)
        if source == "env":
            monkeypatch.setenv("KPOSI_TOL", value)
        else:
            argv.append(f"--tol={value}")
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert sum("error: " in line for line in captured.err.splitlines()) == 1

    # 1e160 * CERT_3X3: its 2-minors (and its determinant, the wedge of its
    # columns) leave the float range, so no sign is read and no table printed
    @pytest.mark.parametrize("command", ["classify", "certify", "compound", "wedge"])
    def test_overflowing_minors_exit_two(self, capsys, command):
        argv = [command, "--in", str(DATA / "minor_overflow.json")] + (["-k", "2"] if command != "wedge" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no warning before the refusal
            assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    def test_integral_float_dimensions_accepted(self, tmp_path, capsys):
        doc = dict(matrix_document(np.eye(2)), rows=2.0, cols=2.0)
        assert run_cli(["classify", "--in", write_json(tmp_path / "i.json", doc), "-k", "1"]) == 0

    def test_missing_file_exits_two(self, capsys):
        assert run_cli(["classify", "--in", "/nonexistent.json", "-k", "1"]) == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    # main, the console script's target, exits with run_cli's code
    @pytest.mark.parametrize("args, code", [
        (["--help"], 0),
        (["frobnicate"], 2),
        (["check-necessary", "--mode", "ct", "--in", str(DATA / "screen_n21.json")], 3),
    ], ids=["help", "unknown-subcommand", "screen-n21"])
    def test_main_exits_with_the_run_code(self, capsys, monkeypatch, args, code):
        monkeypatch.setattr("sys.argv", ["kposi", *args])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == code

    def test_capacity_guard_exits_three(self, tmp_path, capsys):
        path = write_json(tmp_path / "big.json", matrix_document(np.eye(40)))
        assert run_cli(["compound", "--in", path, "-k", "20"]) == 3

    @pytest.mark.parametrize("argv", [
        ["check-necessary", "--mode", "ct", "--in", str(DATA / "screen_n21.json")],
        ["wedge-sim", "--system", str(DATA / "table_system.json"),
         "--initials", str(DATA / "table_initials.json"), "-k", "3", "--steps", "1" + "0" * 400],
        ["simulate", "--system", str(DATA / "table_system.json"), "--x0", "0", "0", "0",
         "--steps", "1000000000"],
    ], ids=["screen-n21", "steps-401-digits", "simulate-1e9-steps"])
    def test_capacity_refusals_exit_three_with_one_line(self, capsys, argv):
        # the n = 21 screen passes orders 1-7, so it once swept them first;
        # a price beyond the float range once exited 1 with an OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    def test_wedge_sim_refuses_unit_weights_beyond_the_budget(self, tmp_path, capsys):
        # without --certify the weights are the C(40,20) products of ones
        # of dlf_compound, priced before they are made, not left to
        # numpy's MemoryError
        doc = {"A": matrix_document(0.5 * np.eye(40)), "maps": [{"kind": "power", "p": 2}] * 40,
               "domain": [-0.5, 0.5]}
        sys_path = write_json(tmp_path / "sys.json", doc)
        init_path = write_json(tmp_path / "init.json", matrix_document(np.zeros((40, 20))))
        tracemalloc.start()
        try:
            code = run_cli(["wedge-sim", "--system", sys_path, "--initials", init_path, "-k", "20", "--steps", "1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3 and peak < 1_000_000
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a compound diagonal of 137846528820 entries would hold about 4.521e+07 MB")
        assert len(captured.err.splitlines()) == 1

    def test_singular_cayley_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "i.json", matrix_document(np.eye(3)))
        assert run_cli(["cayley", "--in", path]) == 2


class TestParserReuse:
    def test_one_parser_per_process_answers_as_fresh_ones(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path / "a.json", matrix_document(CERT_3X3))
        calls = [["certify", "--in", path], ["--help"], ["certify", "--in", path, "-k", "2"]]

        def answers(fresh_parsers):
            out = []
            for argv in calls:
                if fresh_parsers:
                    cli._parser.cache_clear()
                out.append((run_cli(argv), *capsys.readouterr()))
            return out

        fresh = answers(True)
        assert [a[0] for a in fresh] == [2, 0, 0]
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        assert answers(False) == fresh
        assert len(built) == 1
        assert build_parser() is not build_parser()


GOLDEN_PAPER_EXAMPLES = DATA / "paper_examples.txt"


class TestReportWriter:
    """cli._emit writes the bytes of json.dumps(doc, indent=2) and a newline,
    with each flat list of numbers encoded by json's C encoder."""

    @staticmethod
    def emitted(monkeypatch, doc):
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

        monkeypatch.setattr(cli.sys, "stdout", Recorder())
        cli._emit(doc)
        (text,) = writes
        return text

    @pytest.mark.parametrize("doc", [
        {"specials": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308, 0.1, 1e16]},
        {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"), "zero": -0.0, "tiny": 5e-324},
        {"list": [], "dict": {}, "nested": [[], {}, [[]], [{}]]},
        {"rows": 3, "cols": 2, "data": [[1.0, -0.0], [0.5, 2.25], [1e-300, -1e300]]},
        {"deep": [1.0, [2.0, [3.0, [float("nan")]]]], "mixed": [1.5, "text", None, [1, 2]]},
        {"index sets": [[1, 2, 5], [3, 4, 6]], "ints": [1, 2, 12345678901234567890], "flags": [True, False, None]},
        {"bool": True, "false": False, "none": None, "tuple": (1.5, (2, 3), ()), "np": np.float64(0.1)},
        {"np list": [np.float64(1e-300), np.float64(-0.0), 2.0], "text": "na\u00efve \u2603 \"q\"\n\t"},
        {"non-str keys": {1: 2.0, 2.5: [1.0]}, "non-ASCII key \u00fc": [{"a": (1,)}, "s"]},
        [], {}, 1.0, -0.0, float("nan"), "text", None, True, 7, [[[]]], (1.0, 2.0),
    ])
    def test_writes_what_json_dumps_writes(self, monkeypatch, doc):
        assert self.emitted(monkeypatch, doc) == json.dumps(doc, indent=2) + "\n"

    def test_a_value_json_cannot_write_is_refused_as_json_refuses_it(self, monkeypatch):
        with pytest.raises(TypeError):
            json.dumps({"a": [np.int64(1)]}, indent=2)
        with pytest.raises(TypeError):
            self.emitted(monkeypatch, {"a": [np.int64(1)]})

    def test_matrix_documents_hold_python_floats(self):
        doc = matrix_document(np.array([[0.1, -0.0], [1e-300, 2.0]]))
        assert all(type(v) is float for row in doc["data"] for v in row)
        assert np.signbit(doc["data"][0][1]) and doc["data"][1][0] == 1e-300


class TestPaperExamples:
    def test_all_bundled_regressions_pass(self, capsys):
        assert run_cli(["paper-examples"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 14
        assert all(l.startswith("PASS") for l in lines)
        assert out.encode() == GOLDEN_PAPER_EXAMPLES.read_bytes()


class TestGoldenReports:
    # the verdict subcommands on the paper's examples and their J A J
    # copies, and the transform, cyclic and wedge-sim subcommands
    # (tests/golden_reports.py)
    @pytest.mark.parametrize("golden", list(golden_reports.REPORTS))
    def test_reports_match_the_golden_file(self, monkeypatch, golden):
        monkeypatch.delenv("KPOSI_TOL", raising=False)
        assert golden_reports.report(golden).encode() == (DATA / golden).read_bytes()


class TestFloatRangeRefusals:
    """Inputs that once printed NaN, leaked a RuntimeWarning or raised a
    misleading error exit 2 with one `error:` line, warnings as errors."""

    @pytest.mark.parametrize("argv", [
        ["check-necessary", "--mode", "ct", "--in", str(DATA / "screen_overflow.json")],
        ["dlf-recover", "--in", str(DATA / "dlf_overflow.json")],
        ["cyclic", "--alphas", "nan", "0.1", "0.1", "--betas", "0.2", "0.2", "0.2", "--ell", "1"],
        ["cyclic", "--alphas", "inf", "0.1", "0.1", "--betas", "0.2", "0.2", "0.2", "--ell", "1",
         "--analyze"],
    ], ids=["screen-overflow", "dlf-recover-overflow", "cyclic-nan", "cyclic-inf"])
    def test_refused_with_one_error_line(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


class TestTableWedgeSimGolden:
    """One table-map run pinned byte for byte: two TABLE groups (two
    breakpoint grids) on a certified n = 4, k = 3 chain, states included.
    The starts have mixed signs, so both branches of every table and
    every segment are visited before the states settle."""

    def test_output_matches_the_golden_file(self, capsys):
        argv = ["wedge-sim", "--system", str(DATA / "table_system.json"),
                "--initials", str(DATA / "table_initials.json"),
                "-k", "3", "--steps", "200", "--certify", "--include-states"]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out.encode() == (DATA / "table_wedge_sim.csv").read_bytes()


class TestPowerWedgeSimGolden:
    """One power-map run pinned byte for byte: non-integer exponents 1.01
    and 1.02 (two POWER groups) on the table run's chain and starts,
    states included, so both signs of every coordinate pass through the
    odd extension."""

    def test_output_matches_the_golden_file(self, capsys):
        argv = ["wedge-sim", "--system", str(DATA / "power_system.json"),
                "--initials", str(DATA / "table_initials.json"),
                "-k", "3", "--steps", "200", "--certify", "--include-states"]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out.encode() == (DATA / "power_wedge_sim.csv").read_bytes()


class TestTableSimulateGolden:
    """One simulate run pinned byte for byte: the table system from the
    first column of the table run's starts, 200 steps of states in blocks
    of the CSV writer."""

    def test_output_matches_the_golden_file(self, capsys):
        starts = json.loads((DATA / "table_initials.json").read_text())["data"]
        argv = ["simulate", "--system", str(DATA / "table_system.json"),
                "--x0", *[repr(row[0]) for row in starts], "--steps", "200"]
        assert run_cli(argv) == 0
        out, err = capsys.readouterr()
        assert out.encode() == (DATA / "table_simulate.csv").read_bytes() and err == ""


class TestCayleyThreshold:
    def test_check_necessary_dt_is_not_refused_under_a_large_kposi_tol(
        self, tmp_path, capsys, monkeypatch
    ):
        # |det(A - I)| (0.125, 0.008) was once read as "singular" against
        # KPOSI_TOL=5 (exit 2); now the screen itself decides.  Cayley(c I)
        # is (1+c)/(1-c) I: minors 3, 9, 27 for c = 0.5 fail a threshold of
        # 5 at order 1, minors 9, 81, 729 for c = 0.8 pass it.
        monkeypatch.setenv("KPOSI_TOL", "5")
        path = write_json(tmp_path / "a.json", matrix_document(0.5 * np.eye(3)))
        assert run_cli(["check-necessary", "--in", path, "--mode", "dt"]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["tolerances"]["minor_tol"] == 5.0
        assert rep["verdicts"]["witness"] == {"kappa": [1], "value": pytest.approx(3.0)}
        path = write_json(tmp_path / "b.json", matrix_document(0.8 * np.eye(3)))
        assert run_cli(["check-necessary", "--in", path, "--mode", "dt"]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"]["passed"] is True

    def test_cayley_of_identity_still_exits_two(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path / "i.json", matrix_document(np.eye(3)))
        monkeypatch.setenv("KPOSI_TOL", "1e-300")
        assert run_cli(["cayley", "--in", path]) == 2
