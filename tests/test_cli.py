import csv
import json
import math
import warnings

import numpy as np
import pytest

from bcn_ruijsenaars import cli
from bcn_ruijsenaars.cli import main
from bcn_ruijsenaars.model import ReducedPoint
from bcn_ruijsenaars.reconstruction import assemble_stack


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_passes_and_reports(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--alpha", "0.6",
                                 "--x", "1.2", "--y", "0.8",
                                 "--samples", "25", "--seed", "42")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["max_residual"] < 1e-10
        assert "max residual" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--samples", "5", "--seed", "1",
                               "--format", "csv")
        assert code == 0
        assert out.startswith("key,value")
        rows = list(csv.reader(out.splitlines()))
        assert all(len(row) == 2 for row in rows)
        # one row per constraint, with the number format of the other rows
        per = {k: v for k, v in rows if k.startswith("per_constraint_max.")}
        assert len(per) == 20
        assert all(f"{float(v):.17g}" == v for v in per.values())
        _, js, _ = run_cli(capsys, "verify", "--samples", "5", "--seed", "1")
        for name, value in json.loads(js)["per_constraint_max"].items():
            assert float(per[f"per_constraint_max.{name}"]) == value

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nan_residual_fails(self, capsys):
        # at y = 1e-160 leaf_right and kR_pseudounitary are NaN at every sample
        code, out, err = run_cli(capsys, "verify", "--samples", "5", "--y", "1e-160")
        payload = json.loads(out)
        assert code == 2 and payload["pass"] is False
        assert math.isnan(payload["per_constraint_max"][payload["worst_constraint"]])
        assert math.isnan(payload["max_residual"]) and "FAIL" in err

    def test_reproducible(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--samples", "10", "--seed", "7")
        _, out2, _ = run_cli(capsys, "verify", "--samples", "10", "--seed", "7")
        assert out1 == out2

    def test_sampler_give_up_names_stage_and_quantity(self, capsys):
        # no seed draws 40 separated positions on [-2, 2] with 4 stretches
        code, out, err = run_cli(capsys, "verify", "--n", "40", "--samples", "1")
        assert code == 2 and out == ""
        assert err.startswith("numerical failure: sampling: 2000 candidates in a row "
                              "at n = 40, alpha = 0.5 miss the separation margin")


class TestSimulate:
    def test_both_methods_agree(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "1", "--q", "0",
                               "--p", "0", "--t-max", "1", "--dt", "1e-3",
                               "--method", "both")
        assert code == 0
        payload = json.loads(out)
        assert payload["q_dev"] < 1e-6 and payload["p_dev"] < 1e-6

    def test_validation_exit_code(self, capsys):
        # separation violated for the default alpha = 0.5
        code, _, err = run_cli(capsys, "simulate", "--q", "0.1,0", "--p", "0,0")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("method", ["exact", "both"])
    def test_given_start_is_assembled_once(self, capsys, monkeypatch, method):
        # the reconstruction that validates --q/--p also gives g(0)
        calls = []
        monkeypatch.setattr(cli, "assemble_stack",
                            lambda *a: calls.append(a) or assemble_stack(*a))
        code, _, _ = run_cli(capsys, "simulate", "--n", "2", "--q", "1.0,-1.0",
                             "--p", "0.2,0.15", "--t-max", "0.01",
                             "--method", method)
        assert code == 0
        assert len(calls) == 1

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        code, _, _ = run_cli(capsys, "simulate", "--n", "2", "--q", "1.0,-1.0",
                             "--p", "0.2,0.15", "--t-max", "0.1", "--dt", "1e-3",
                             "--sample-count", "10", "--output", str(path))
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,q1,q2,p1,p2,energy,residual"
        # every emitted number parses back to a double exactly once more
        for tok in lines[1].split(","):
            assert f"{float(tok):.17g}" == tok

    def test_both_writes_two_files(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "simulate", "--n", "2", "--q", "1.0,-1.0",
                               "--p", "0.2,0.15", "--t-max", "0.1", "--dt", "1e-3",
                               "--sample-count", "5", "--method", "both",
                               "--output", str(path))
        assert code == 0
        assert path.exists() and (tmp_path / "out.exact.csv").exists()
        assert json.loads(out)["pass"] is True

    def test_seeded_draw_without_q(self, capsys):
        code1, out1, _ = run_cli(capsys, "simulate", "--t-max", "0.01",
                                 "--dt", "1e-3", "--seed", "3")
        code2, out2, _ = run_cli(capsys, "simulate", "--t-max", "0.01",
                                 "--dt", "1e-3", "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_overflowed_stage_prints_one_line(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "simulate", "--n", "2", "--q=0.8,-0.8",
                                     "--p=0.1,-0.05", "--alpha", "0.5",
                                     "--t-max", "10", "--dt", "10")
        assert code == 2
        assert out == ""
        assert caught == []
        assert err == "numerical failure: non-finite positions q = [6.51311025        inf]\n"

    @pytest.mark.parametrize("n, q, p, column, action", [
        ("1", "--q=300", "--p=0.1", "residual", "always"),
        ("1", "--q=300", "--p=0.1", "residual", "error"),
        ("2", "--q=300,-1", "--p=0.1,0", "energy", "always"),
    ])
    def test_non_finite_column_is_a_numerical_failure(self, capsys, n, q, p, column,
                                                      action):
        # a finite, ordered start far out: the samples are finite, but a
        # column evaluated from them is not, which fails the run (exit 2);
        # that message is the only report, with warnings shown or raised
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code, out, err = run_cli(capsys, "simulate", "--n", n, q, p,
                                     "--t-max", "0.003", "--dt", "1e-3")
        assert (code, out, caught) == (2, "", [])
        assert err == f"numerical failure: reduced flow: non-finite {column} at t = 0\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_far_start_fails_the_exact_route_before_its_columns(self, capsys):
        # the reduced route's NaN-column start: the first sample's split
        # fails, so no column is evaluated
        code, out, err = run_cli(capsys, "simulate", "--n", "1", "--q=300", "--p=0.1",
                                 "--t-max", "0.003", "--dt", "1e-3", "--method", "exact")
        assert (code, out) == (2, "")
        assert err == "numerical failure: KB split: Schur complement is not positive definite\n"

    @pytest.mark.parametrize("argv, message", [
        (("--n", "1", "--q=8", "--p=0.1", "--method", "exact"),
         "BK split: indefinite_cholesky_upper_dual: input is not Hermitian"),
        (("--n", "1", "--q=8", "--p=0.1", "--method", "both"),
         "BK split: indefinite_cholesky_upper_dual: input is not Hermitian"),
        (("--n", "1", "--q=9", "--p=0.1", "--method", "exact"),
         "KB split: indefinite_cholesky_upper: input is not Hermitian"),
        (("--n", "3", "--q=9,8,7", "--p=0.1,0.1,0.1", "--method", "exact"),
         "KB split: indefinite_cholesky_upper: input is not Hermitian"),
        (("--n", "1", "--q=-10", "--p=0.5", "--method", "exact"),
         "KB split: cartan_KAK: input is not pseudo-unitary"),
    ])
    def test_far_start_off_the_leaf_is_a_numerical_failure(self, capsys, argv, message):
        # a valid start far from q = 0: the splits' own products g^dag J g
        # and g J g^dag miss the Hermitian test, and the KB factor k the
        # pseudo-unitarity test, by rounding that grows with cond(k_L): a
        # numerical failure (exit 2) naming the split, not invalid input
        # (exit 1)
        code, out, err = run_cli(capsys, "simulate", *argv, "--t-max", "0.002",
                                 "--dt", "1e-3")
        assert (code, out, err) == (2, "", f"numerical failure: {message}\n")

    def test_rk45_step_floor_is_a_numerical_failure(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--n", "2", "--q=1.0,-1.0",
                                 "--p=-1,1", "--alpha", "0.5", "--t-max", "20",
                                 "--dt", "2", "--integrator", "rk45")
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: rk45: step ")
        assert "rejected at t = " in err and err.count("\n") == 1

    @pytest.mark.parametrize("t_max", ["10", "20"])
    def test_exact_flow_fails_at_the_first_failing_sample(self, capsys, t_max):
        # the extraction first fails near t = 4.5; samples from t ~ 10 on
        # are off the leaf (NotOnLeaf), and they must not be the ones
        # reported
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "simulate", "--n", "2", "--alpha", "0.6",
                                     "--x", "1.2", "--y", "0.8", "--seed", "2",
                                     "--method", "exact", "--t-max", t_max)
        assert code == 2
        assert out == ""
        assert caught == []
        assert err == "numerical failure: phase matrix has off-diagonal content\n"

    def test_element_off_the_leaf_is_a_numerical_failure(self, capsys):
        # at t = 10 the flowed element has left the leaf: the signature
        # factorization of the extraction fails, which is no input error,
        # and the message names the split
        code, out, err = run_cli(capsys, "simulate", "--n", "2", "--seed", "2",
                                 "--alpha", "0.6", "--x", "1.2", "--y", "0.8",
                                 "--method", "exact", "--t-max", "10", "--dt", "10")
        assert code == 2
        assert out == ""
        assert err == "numerical failure: KB split: upper-left block is not positive definite\n"

    @pytest.mark.parametrize("seed, block", [("1", "upper-left block"),
                                             ("5", "Schur complement")])
    def test_failed_cholesky_of_the_split_names_the_split(self, capsys, seed, block):
        # the KB split of the flowed element fails its signature Cholesky:
        # the message names the split, as its failed input tests do (the
        # suite runs with warnings as errors)
        code, out, err = run_cli(capsys, "simulate", "--n", "2", "--alpha", "0.5",
                                 "--x", "1.2", "--y", "0.8", "--seed", seed,
                                 "--method", "exact", "--t-max", "12", "--dt", "12")
        assert (code, out) == (2, "")
        assert err == f"numerical failure: KB split: {block} is not positive definite\n"

    @pytest.mark.parametrize("argv, residual, t", [
        (("--n", "2", "--y", "1e-160", "--t-max", "0.002", "--dt", "1e-3"), "1", "0"),
        (("--n", "2", "--alpha", "0.9", "--x", "1.2", "--y", "0.8", "--seed", "5",
          "--t-max", "6", "--dt", "6"), "2.42e-06", "6"),
        (("--n", "3", "--alpha", "0.5", "--x", "1.2", "--y", "0.8", "--seed", "11",
          "--t-max", "4", "--dt", "4"), "1.94e-06", "4"),
    ], ids=["y1e-160", "n2-seed5", "n3-seed11"])
    def test_exact_sample_off_the_surface_is_a_numerical_failure(self, capsys, argv,
                                                                 residual, t):
        # a sample whose worst surface residual exceeds SURFACE_TOL fails the
        # run (exit 2) at its time, instead of a CSV that reports it
        code, out, err = run_cli(capsys, "simulate", *argv, "--method", "exact")
        assert (code, out) == (2, "")
        assert err == (f"numerical failure: exact flow: surface residual {residual} "
                       f"above 1e-06 at t = {t}\n")

    def test_flowed_element_off_the_surface_names_its_block(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--n", "2", "--alpha", "0.5",
                                 "--x", "1.2", "--y", "0.8", "--seed", "11",
                                 "--method", "exact", "--t-max", "8", "--dt", "8")
        assert (code, out) == (2, "")
        assert err == "numerical failure: lower-right block is not Lambda-unitary\n"

    def test_chamber_approach_truncates_with_a_warning(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--n", "2", "--seed", "0",
                                 "--t-max", "1", "--dt", "1e-3")
        assert code == 0
        assert err == "warning: chamber-wall approach, trajectory truncated\n"
        times = [row.split(",")[0] for row in out.splitlines()[1:]]
        assert [float(t) for t in times] == pytest.approx([0.01 * k for k in range(7)])

    @pytest.mark.parametrize("grid", [("--dt", "3e-3"),
                                      ("--dt", "1e-3", "--sample-count", "300")],
                             ids=["dt3e-3", "dt1e-3-count300"])
    def test_every_route_samples_one_grid(self, capsys, grid):
        common = ("simulate", "--n", "2", "--q", "1.0,-1.0", "--p", "0.2,0.15",
                  "--t-max", "1", *grid)
        columns = []
        for route in (("--method", "exact"), ("--integrator", "rk4"),
                      ("--integrator", "rk45")):
            code, out, _ = run_cli(capsys, *common, *route)
            assert code == 0
            columns.append([row.split(",")[0] for row in out.splitlines()[1:]])
        assert columns[0] == columns[1] == columns[2]
        assert float(columns[0][-1]) == 1.0

    @pytest.mark.parametrize("grid", [("--dt", "0"), ("--dt", "-1", "--method", "exact"),
                                      ("--t-max", "-1", "--method", "exact")],
                             ids=["dt0", "exact-dt-1", "exact-tmax-1"])
    def test_bad_grid_exits_1(self, capsys, grid):
        code, out, err = run_cli(capsys, "simulate", "--n", "2", "--q", "1.0,-1.0",
                                 "--p", "0.2,0.15", *grid)
        assert code == 1 and out == ""
        assert err.startswith("error: ")


class TestWithoutReducedPoint:
    """The workflows pass (q, p) arrays checked by `require_points`: none
    builds a ReducedPoint, on success or on a refused start."""

    @pytest.fixture(autouse=True)
    def refuse_points(self, monkeypatch):
        def refuse(self):
            raise AssertionError("ReducedPoint built")

        monkeypatch.setattr(ReducedPoint, "__post_init__", refuse)

    @pytest.mark.parametrize("integrator", ["rk4", "rk45"])
    @pytest.mark.parametrize("start", [(), ("--q", "1.0,-1.0", "--p", "0.2,0.15")])
    @pytest.mark.parametrize("method", ["reduced", "exact", "both"])
    def test_simulate(self, capsys, method, start, integrator):
        code, out, err = run_cli(capsys, "simulate", "--n", "2", *start, "--t-max", "0.01",
                                 "--method", method, "--integrator", integrator)
        assert (code, err) == (0, "")
        assert out

    @pytest.mark.parametrize("q, message", [
        ("--q=1,nan", "error: q and p must be finite\n"),
        ("--q=0,1", "error: q must be strictly decreasing, got [0. 1.]\n"),
    ])
    @pytest.mark.parametrize("method", ["reduced", "exact"])
    def test_refused_start(self, capsys, method, q, message):
        code, out, err = run_cli(capsys, "simulate", "--n", "2", q, "--p=0,0",
                                 "--method", method)
        assert (code, out, err) == (1, "", message)

    def test_verify(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--samples", "5", "--seed", "3")
        assert code == 0 and json.loads(out)["pass"] is True

    def test_involution(self, capsys):
        code, out, _ = run_cli(capsys, "involution", "--points", "3", "--seed", "3")
        assert code == 0 and json.loads(out)["pass"] is True


class TestInvolution:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "involution", "--n", "2", "--points", "4",
                               "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["max_abs"] < 1e-5
        assert len(payload["bracket_matrix"]) == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_bracket_fails(self, capsys):
        # at x = 1e150 the finite-difference gradients overflow to NaN
        code, out, _ = run_cli(capsys, "involution", "--n", "2", "--points", "3",
                               "--x", "1e150")
        payload = json.loads(out)
        assert code == 2 and payload["pass"] is False
        assert math.isnan(payload["max_abs"])


class TestNumericalWarnings:
    """A numpy warning raised as an error (here, as under
    `python -W error::RuntimeWarning`, by the test configuration) or a
    FloatingPointError is a numerical failure: exit 2 and one message
    line, not a traceback."""

    CASES = [("verify", "--samples", "5", "--y", "1e-160"),
             ("involution", "--n", "2", "--points", "3", "--x", "1e150")]

    @pytest.mark.parametrize("argv", CASES, ids=lambda argv: argv[0])
    def test_warning_as_error_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("numerical failure: overflow encountered")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", CASES, ids=lambda argv: argv[0])
    def test_floating_point_error_exits_2(self, capsys, argv):
        with np.errstate(over="raise"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("numerical failure: overflow encountered")


class TestLimit:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--n", "2", "--xi", "0.3",
                               "--eta", "-0.2", "--zeta", "0.4", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["passes"] is True
        assert payload["fitted_order"] >= 0.9

    def test_exact_limit_passes(self, capsys):
        # Phi(t) = -1 at every scale and H2 = 0: every error is 0.0, so no
        # decay order can be measured, and the error criterion decides
        code, out, _ = run_cli(capsys, "limit", "--n", "1", "--xi", "0", "--eta", "0",
                               "--zeta", "0.4", "--q", "0.3", "--pi", "0")
        payload = json.loads(out)
        assert code == 0 and payload["passes"] is True
        assert payload["error"] == [0.0] * 8 and payload["fitted_order"] < 0.9

    def test_csv_joins_list_values(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--n", "2", "--seed", "3", "--format", "csv")
        _, js, _ = run_cli(capsys, "limit", "--n", "2", "--seed", "3")
        rows = dict(csv.reader(out.splitlines()))
        assert code == 0
        for key in ("q", "pi", "t", "error"):
            assert rows[key] == ";".join(f"{v:.17g}" for v in json.loads(js)[key])


class TestConfigFile:
    def test_config_defaults_and_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"subcommand": "verify", "n": 3,
                                   "alpha": 0.55, "samples": 8, "seed": 9}))
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["samples"] == 8
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfg),
                               "--samples", "3")
        assert json.loads(out)["samples"] == 3

    def test_wrong_subcommand_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"subcommand": "simulate"}))
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 1 and "error" in err

    def test_equals_form_honoured(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 3, "func": "ignored", "bogus": 1}))
        code, out, _ = run_cli(capsys, "verify", f"--config={cfg}")
        assert code == 0
        assert json.loads(out)["samples"] == 3

    @pytest.mark.parametrize("content", [None, "{\"samples\": 3,"])
    def test_unreadable_file_exits_1(self, capsys, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read config file")

    def test_config_must_hold_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert (code, out, err) == (1, "", "error: config file must hold a JSON object\n")

    @pytest.mark.parametrize("argv,cfg", [
        (("verify",), {"samples": 2.5}),
        (("simulate", "--t-max", "0.01"), {"method": "euler"}),
        (("verify",), {"samples": [3]}),
        (("verify",), {"samples": True}),
        (("verify",), {"tol": "nan"}),
        (("involution",), {"seed": -1}),
    ], ids=["float-for-int", "bad-choice", "list", "bool", "nan-tol", "negative-seed"])
    def test_values_checked_like_flags(self, capsys, tmp_path, argv, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == 1 and out == ""
        assert "error" in err


class TestUsageErrors:
    # usage errors are validation errors: exit 1, never the numerical code 2
    @pytest.mark.parametrize("argv", [
        (),
        ("nosuch",),
        ("simulate", "--n", "two"),
        ("verify", "--bogus"),
        ("simulate", "--method", "euler"),
        ("simulate", "--format", "json", "--t-max", "0.01"),
        ("verify", "--samples", "0"),
        ("verify", "--samples", "-3"),
        ("involution", "--max-order", "0"),
        ("involution", "--max-order", "-1"),
        ("involution", "--points", "0"),
        ("limit", "--n", "0"),
        ("simulate", "--dt", "1e-300"),
    ])
    def test_bad_flags_exit_1(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("argv, message", [
        (("simulate", "--q=1,a", "--p=0,0"), "could not parse vector '1,a'"),
        (("limit", "--pi=0.1,x"), "could not parse vector '0.1,x'"),
        (("simulate", "--q=1,-1"), "--q and --p must be given together"),
        (("simulate", "--p=0,0"), "--q and --p must be given together"),
        (("simulate", "--n", "2", "--q=1", "--p=0,0"), "--q/--p must have n=2 entries"),
        (("simulate", "--n", "2", "--q=1,-1", "--p=0"), "--q/--p must have n=2 entries"),
        (("limit", "--n", "2", "--q=1"), "--q/--pi must have n=2 entries"),
        (("limit", "--n", "2", "--pi=0.1,0.2,0.3"), "--q/--pi must have n=2 entries"),
    ])
    def test_bad_vectors_exit_1(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    @pytest.mark.parametrize("argv", [
        ("verify", "--samples", "3"),
        ("involution", "--points", "1"),
        ("simulate", "--n", "1", "--q", "0", "--p", "0", "--t-max", "0.01", "--method", "both"),
    ], ids=lambda argv: argv[0])
    def test_tol_must_be_positive_and_finite(self, capsys, argv, tol):
        # nan and a non-positive tol could never pass, inf always would
        code, out, err = run_cli(capsys, *argv, "--tol", tol)
        assert code == 1 and out == ""
        assert err.endswith(f"\nerror: argument --tol: must be positive and finite, got {tol}\n")

    @pytest.mark.parametrize("count", ["0", "-4"])
    def test_sample_count_below_one_exits_1(self, capsys, count):
        code, out, err = run_cli(capsys, "simulate", "--n", "1", "--q", "0", "--p", "0",
                                 "--t-max", "0.01", "--sample-count", count)
        assert code == 1 and out == ""
        assert err.endswith("\nerror: argument --sample-count: must be positive and finite, "
                            f"got {count}\n")

    @pytest.mark.parametrize("flag,message", [
        ("--q=1,nan", "error: q must be finite, got ["),
        ("--pi=1,inf", "error: pi must be finite, got ["),
        ("--t-grid=1e-3,2e-3,3e-3,4e-3,nan", "error: t_grid needs >= 4 distinct points"),
    ], ids=["q", "pi", "t_grid"])
    def test_limit_non_finite_input_exits_1(self, capsys, flag, message):
        # not a report of NaNs (no valid JSON), a warning or an internal t
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "limit", flag)
        assert code == 1 and out == ""
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("sub", ["verify", "simulate", "involution", "limit"])
    def test_negative_seed_is_a_usage_error(self, capsys, sub):
        # numpy's generators take no negative seed: a usage line, not a traceback
        code, out, err = run_cli(capsys, sub, "--seed", "-1")
        assert code == 1 and out == ""
        assert err.startswith(f"usage: bcn {sub}")
        assert err.endswith("\nerror: argument --seed: must be non-negative, got -1\n")

    def test_limit_grid_of_one_repeated_point_exits_1(self, capsys):
        # four copies of one scale leave no decay order to fit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "limit", "--t-grid", "1e-3,1e-3,1e-3,1e-3")
        assert code == 1 and out == ""
        assert "t_grid needs >= 4 distinct points" in err

    @pytest.mark.parametrize("argv", [
        ("simulate", "--x", "inf", "--t-max", "0.01", "--dt", "1e-3"),
        ("verify", "--x", "inf", "--samples", "2"),
        ("simulate", "--alpha", "inf", "--t-max", "0.01"),
        ("simulate", "--alpha", "1e-200", "--t-max", "0.01"),
        ("simulate", "--x", "1e200", "--t-max", "0.01"),
        ("involution", "--y", "inf", "--points", "1"),
        ("limit", "--xi", "1e8"),
    ])
    def test_non_finite_or_overflowing_parameters_exit_1(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == "" and caught == []
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--xi=1e8", "--xi=-1e8", "--eta=1e8", "--zeta=1e8"])
    def test_out_of_range_limit_rate_names_the_rate(self, capsys, flag):
        code, out, err = run_cli(capsys, "limit", flag)
        assert code == 1 and out == ""
        name, value = flag[2:].split("=")
        assert err.startswith(f"error: {name} = {float(value):g} at t = ")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "-h"])
        assert exc.value.code == 0
        assert "--integrator" in capsys.readouterr().out

    @pytest.mark.parametrize("q,p", [("-0.4,-1.5", "0.2,0.15"), ("1.0,-1.0", "-0.2,0.15")])
    def test_simulate_vectors_may_start_with_minus(self, capsys, q, p):
        common = ("simulate", "--n", "2", "--t-max", "0.01", "--dt", "1e-3")
        spaced = run_cli(capsys, *common, "--q", q, "--p", p)
        joined = run_cli(capsys, *common, f"--q={q}", f"--p={p}")
        assert spaced[0] == 0
        assert spaced == joined

    def test_limit_vectors_may_start_with_minus(self, capsys):
        common = ("limit", "--n", "2", "--seed", "3")
        spaced = run_cli(capsys, *common, "--q", "-0.2,-1.0", "--pi", "-0.3,0.1")
        joined = run_cli(capsys, *common, "--q=-0.2,-1.0", "--pi=-0.3,0.1")
        assert spaced[0] == 0
        assert spaced == joined
        assert json.loads(spaced[1])["pi"] == [-0.3, 0.1]
        # the value reaches the grid check instead of being read as a flag
        code, _, err = run_cli(capsys, *common, "--t-grid", "-1e-3,1e-3,2e-3,4e-3")
        assert code == 1 and "t_grid needs" in err
