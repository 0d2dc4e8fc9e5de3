"""The `bcn` command line.

Every check of one command is a row of ROWS: an argv, its exit code, its
whole stderr and a check of its stdout.  A row runs through `cli.main`
in this process, with every warning raised as an error, or, where its
point is the process itself (warnings printed or raised, no traceback, a
bounded run time), as `python <flags> -m bcn_ruijsenaars.cli`.  A row's
name is the test id it runs as.  The tests after the table check what
one command cannot: several runs against each other, config files and
patched internals.
"""

import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from bcn_ruijsenaars import cli
from bcn_ruijsenaars.cli import main
from bcn_ruijsenaars.model import ReducedPoint
from bcn_ruijsenaars.reconstruction import assemble_stack

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
W_ERROR = ("-W", "error::RuntimeWarning")


class Row(NamedTuple):
    name: str                   # "Class::test" or "Class::test[id]"
    argv: str | tuple           # a command line, or forms that must give one run
    code: int
    err: str | re.Pattern       # the whole stderr, or a pattern matching all of it
    out: str | Callable = ""    # the whole stdout, or a predicate on it (cwd: a tmp dir)
    python: tuple | None = None  # interpreter flags of a subprocess run; None: in process


def usage(sub, message):
    """The usage block of `bcn <sub>`, then one error line."""
    return re.compile(rf"usage: bcn {re.escape(sub)} .*\n( +.*\n)*error: {re.escape(message)}\n")


def report(check):
    return lambda out: check(json.loads(out))


def trajectory_file(name):
    lines = Path(name).read_text().strip().split("\n")
    # every emitted number parses back to a double exactly once more
    return (lines[0] == "t,q1,q2,p1,p2,energy,residual"
            and all(f"{float(tok):.17g}" == tok for tok in lines[1].split(",")))


# the warnings Python prints for a numpy overflow, and perhaps others after it
WARNED = r".+: RuntimeWarning: overflow encountered in \w+\n  .+\n(.+: RuntimeWarning: .+\n  .+\n)*"
OVERFLOW = re.compile(r"numerical failure: overflow encountered in \w+\n")
NOT_FINITE = "error: q and p must be finite\n"
FEW_SCALES = "error: t_grid needs >= 4 distinct points inside (0, 0.05]\n"
BK_HERMITIAN = "BK split: indefinite_cholesky_upper_dual: input is not Hermitian"
KB_HERMITIAN = "KB split: indefinite_cholesky_upper: input is not Hermitian"
START = "--n 2 --q 1.0,-1.0 --p 0.2,0.15"
FAR = "--n 1 --q=300 --p=0.1 --t-max 0.003 --dt 1e-3"

ROWS = [
    # the README's commands, as typed there
    Row("TestCommands::test_row[readme-verify]",
        "verify --n 2 --alpha 0.6 --x 1.2 --y 0.8 --samples 100 --seed 42", 0,
        re.compile(r"max residual \S+ over 100 samples \(PASS at tol 1e-10\)\n"),
        report(lambda r: r["pass"] is True)),
    Row("TestCommands::test_row[readme-simulate]",
        f"simulate {START} --t-max 1 --dt 1e-4 --sample-count 100 --output traj.csv", 0, "",
        lambda out: out == "" and trajectory_file("traj.csv")),
    Row("TestSimulate::test_both_methods_agree",
        "simulate --n 1 --q 0 --p 0 --t-max 1 --dt 1e-3 --method both", 0, "",
        report(lambda r: r["q_dev"] < 1e-6 and r["p_dev"] < 1e-6)),
    Row("TestCommands::test_row[readme-involution]", "involution --n 2 --points 20 --seed 1",
        0, "", report(lambda r: r["pass"] is True)),
    Row("TestLimit::test_report", "limit --n 2 --xi 0.3 --eta -0.2 --zeta 0.4 --seed 3", 0, "",
        report(lambda r: r["passes"] is True and r["fitted_order"] >= 0.9)),
    *[Row(f"TestCommands::test_row[{demo.stem}]", f"demos/{demo.name}", 0, "",
          lambda out: out != "", python=W_ERROR) for demo in DEMOS],

    # verify
    Row("TestVerify::test_passes_and_reports",
        "verify --n 2 --alpha 0.6 --x 1.2 --y 0.8 --samples 25 --seed 42", 0,
        re.compile(r"max residual \S+ over 25 samples \(PASS at tol 1e-10\)\n"),
        report(lambda r: r["pass"] is True and r["max_residual"] < 1e-10)),
    Row("TestCommands::test_row[csv-report]", "verify --samples 3 --format csv", 0,
        re.compile(r"max residual \S+ over 3 samples \(PASS at tol 1e-10\)\n"),
        lambda out: all(len(row) == 2 for row in csv.reader(out.splitlines()))),
    # at y = 1e-160 leaf_right and kR_pseudounitary are NaN at every sample
    Row("TestVerify::test_nan_residual_fails", "verify --samples 5 --y 1e-160", 2,
        re.compile(WARNED + r"max residual nan over 5 samples \(FAIL at tol 1e-10\)\n"),
        report(lambda r: r["pass"] is False and math.isnan(r["max_residual"])
               and math.isnan(r["per_constraint_max"][r["worst_constraint"]])), python=()),
    Row("TestCommands::test_row[verify-overflow-W]", "verify --samples 5 --y 1e-160", 2,
        OVERFLOW, python=W_ERROR),
    Row("TestNumericalWarnings::test_warning_as_error_exits_2[verify]",
        "verify --samples 5 --y 1e-160", 2, OVERFLOW),
    # no seed draws 40 separated positions on [-2, 2] with 4 stretches
    Row("TestVerify::test_sampler_give_up_names_stage_and_quantity", "verify --n 40 --samples 1",
        2, "numerical failure: sampling: 2000 candidates in a row at n = 40, alpha = 0.5 miss "
           "the separation margin 4 sinh^2(q_i - q_i+1) > 2.3625\n"),

    # simulate
    Row("TestSimulate::test_csv_output",
        f"simulate {START} --t-max 0.1 --dt 1e-3 --sample-count 10 --output traj.csv", 0, "",
        lambda out: out == "" and trajectory_file("traj.csv")),
    Row("TestSimulate::test_both_writes_two_files",
        f"simulate {START} --t-max 0.1 --dt 1e-3 --sample-count 5 --method both --output out.csv",
        0, "", report(lambda r: r["pass"] is True and Path("out.csv").exists()
                      and Path("out.exact.csv").exists())),
    # separation violated for the default alpha = 0.5: the gap form of the
    # condition names the pair, before the reconstruction
    Row("TestSimulate::test_validation_exit_code", "simulate --q 0.1,0 --p 0,0", 1,
        "error: separation condition: q_1 - q_2 = 0.1 must exceed ln(1/alpha) = 0.693\n"),
    Row("TestCommands::test_row[separation-gap-q2-q3]",
        "simulate --n 3 --q 1.5,0.8,0.15 --p 0,0,0", 1,
        "error: separation condition: q_2 - q_3 = 0.65 must exceed ln(1/alpha) = 0.693\n"),
    # starts 1 ulp above the bound, where 4 sinh^2 of the gap rounds to c^2
    # or below: the assembly or the kernel refuses them, and the gate names
    # the pair, on every route
    *[Row(f"TestCommands::test_row[separation-rounding-{alpha[2:5]}-{method}]",
          f"simulate --n 2 --alpha={alpha} --q={q},0 --p=0,0 --t-max 0.001 --method {method}", 1,
          f"error: separation condition: q_1 - q_2 = {gap} must exceed ln(1/alpha) = {gap}\n")
      for alpha, q, gap in [("0.8067027483206574", "0.21480002017671204", "0.215"),
                            ("0.4103667479383871", "0.8907040119501036", "0.891")]
      for method in ("reduced", "exact", "both")],
    # far from the bound the assembly's error stands: here e^{2 q_2} underflows
    Row("TestCommands::test_row[separation-underflow]", "simulate --q=0,-400 --p=0,0", 1,
        "error: non-positive radicand in v^2 = [0.75 0.  ]\n"),
    Row("TestCommands::test_row[separation-gap-past-ln2]",
        "simulate --q 0.7,0 --p 0,0 --t-max 0.01", 0, "",
        lambda out: out.startswith("t,q1,q2,p1,p2,energy,residual\n0,0.69999999999999996,0,")),
    # an unwritable --output is one error line, not a traceback; the .exact
    # name of a 250-byte --output is one byte too long for the file system
    *[Row(f"TestCommands::test_row[unwritable-output-{name}]", argv, 1,
          f"error: cannot write output file '{path}': [Errno {reason}: '{path}'\n")
      for name, argv, path, reason in [
          ("verify", "verify --samples 2 --output /nonexistent/v.json", "/nonexistent/v.json",
           "2] No such file or directory"),
          ("simulate", "simulate --n 2 --q 1,-1 --p 0,0 --t-max 0.01 --method both --output /tmp",
           "/tmp", "21] Is a directory"),
          ("exact-file", f"simulate {START} --t-max 0.01 --method both --output {'o' * 246}.csv",
           f"{'o' * 246}.exact.csv", "36] File name too long")]],
    Row("TestSimulate::test_overflowed_stage_prints_one_line",
        "simulate --n 2 --q=0.8,-0.8 --p=0.1,-0.05 --alpha 0.5 --t-max 10 --dt 10", 2,
        "numerical failure: non-finite positions q = [6.51311025        inf]\n"),
    # a finite, ordered start far out: the samples are finite, but a column
    # evaluated from them is not; that message is the only report, with
    # warnings shown or raised
    Row("TestSimulate::test_non_finite_column_is_a_numerical_failure"
        "[1---q=300---p=0.1-residual-always]", f"simulate {FAR}", 2,
        "numerical failure: reduced flow: non-finite residual at t = 0\n", python=()),
    Row("TestSimulate::test_non_finite_column_is_a_numerical_failure"
        "[1---q=300---p=0.1-residual-error]", f"simulate {FAR}", 2,
        "numerical failure: reduced flow: non-finite residual at t = 0\n"),
    Row("TestSimulate::test_non_finite_column_is_a_numerical_failure"
        "[2---q=300,-1---p=0.1,0-energy-always]",
        "simulate --n 2 --q=300,-1 --p=0.1,0 --t-max 0.003 --dt 1e-3", 2,
        "numerical failure: reduced flow: non-finite energy at t = 0\n"),
    # the exact route fails in its first sample's split, before a column
    Row("TestSimulate::test_far_start_fails_the_exact_route_before_its_columns",
        f"simulate {FAR} --method exact", 2, re.compile(
            WARNED + r"numerical failure: KB split: Schur complement is not positive definite\n"),
        python=()),
    Row("TestCommands::test_row[exact-far-start-W]", f"simulate {FAR} --method exact", 2,
        OVERFLOW),
    # a valid start far from q = 0: the splits' own products g^dag J g and
    # g J g^dag miss the Hermitian test, and the KB factor k the
    # pseudo-unitarity test, by rounding that grows with cond(k_L)
    *[Row(f"TestSimulate::test_far_start_off_the_leaf_is_a_numerical_failure[argv{i}-{split}]",
          f"simulate {start} --t-max 0.002 --dt 1e-3", 2, f"numerical failure: {split}\n")
      for i, (start, split) in enumerate([
          ("--n 1 --q=8 --p=0.1 --method exact", BK_HERMITIAN),
          ("--n 1 --q=8 --p=0.1 --method both", BK_HERMITIAN),
          ("--n 1 --q=9 --p=0.1 --method exact", KB_HERMITIAN),
          ("--n 3 --q=9,8,7 --p=0.1,0.1,0.1 --method exact", KB_HERMITIAN),
          ("--n 1 --q=-10 --p=0.5 --method exact",
           "KB split: cartan_KAK: input is not pseudo-unitary")])],
    # a head-on pair drives rk45's step below its floor, in bounded time
    Row("TestSimulate::test_rk45_step_floor_is_a_numerical_failure",
        "simulate --n 2 --q=1.0,-1.0 --p=-1,1 --alpha 0.5 --t-max 20 --dt 2 --integrator rk45",
        2, re.compile(r"numerical failure: rk45: step .+ rejected at t = .+\n"), python=W_ERROR),
    # the extraction first fails near t = 4.5; samples from t ~ 10 on are
    # off the leaf, and they must not be the ones reported
    *[Row(f"TestSimulate::test_exact_flow_fails_at_the_first_failing_sample[{t}]",
          f"simulate --n 2 --alpha 0.6 --x 1.2 --y 0.8 --seed 2 --method exact --t-max {t}", 2,
          "numerical failure: phase matrix has off-diagonal content\n") for t in (10, 20)],
    Row("TestSimulate::test_element_off_the_leaf_is_a_numerical_failure",
        "simulate --n 2 --seed 2 --alpha 0.6 --x 1.2 --y 0.8 --method exact --t-max 10 --dt 10",
        2, "numerical failure: KB split: upper-left block is not positive definite\n"),
    *[Row(f"TestSimulate::test_failed_cholesky_of_the_split_names_the_split[{seed}-{block}]",
          f"simulate --n 2 --alpha 0.5 --x 1.2 --y 0.8 --seed {seed} --method exact "
          "--t-max 12 --dt 12", 2,
          f"numerical failure: KB split: {block} is not positive definite\n")
      for seed, block in [(1, "upper-left block"), (5, "Schur complement")]],
    *[Row(f"TestSimulate::test_exact_sample_off_the_surface_is_a_numerical_failure[{name}]",
          f"simulate {argv}", 2,
          f"numerical failure: exact flow: surface residual {residual} above 1e-06 at t = {t}\n")
      for name, argv, residual, t in [
          ("y1e-160", "--n 2 --y 1e-160 --method exact --t-max 0.002 --dt 1e-3", "1", "0"),
          ("n2-seed5", "--n 2 --alpha 0.9 --x 1.2 --y 0.8 --seed 5 --method exact --t-max 6 --dt 6",
           "2.42e-06", "6"),
          ("n3-seed11", "--n 3 --alpha 0.5 --x 1.2 --y 0.8 --seed 11 --method exact --t-max 4 "
           "--dt 4", "1.94e-06", "4")]],
    Row("TestSimulate::test_flowed_element_off_the_surface_names_its_block",
        "simulate --n 2 --alpha 0.5 --x 1.2 --y 0.8 --seed 11 --method exact --t-max 8 --dt 8", 2,
        "numerical failure: lower-right block is not Lambda-unitary\n"),
    # the step to t = 0.062 throws q_2 from -4.83 past q_1: a blown-up rk4
    # step, not an approach to the wall (the exact route bounces q_2 back)
    Row("TestSimulate::test_chamber_approach_truncates_with_a_warning",
        "simulate --n 2 --seed 0 --t-max 1 --dt 1e-3", 2,
        "numerical failure: reduced flow: the step to t = 0.062 reorders q_1 = 0.5825092855 "
        "and q_2 = 20027.54924\n"),
    *[Row(f"TestSimulate::test_bad_grid_exits_1[{name}]", f"simulate {START} {grid}", 1,
          f"error: {message}\n") for name, grid, message in [
              ("dt0", "--dt 0", "dt must be positive"),
              ("exact-dt-1", "--dt -1 --method exact", "dt must be positive"),
              # t_max / inf = 0 steps would round up to one step of t_max
              ("dt-inf", "--t-max 0.01 --dt inf", "dt must be finite"),
              ("exact-dt-inf", "--t-max 0.01 --dt inf --method exact", "dt must be finite"),
              ("exact-tmax-1", "--t-max -1 --method exact", "t_max must be non-negative")]],

    # involution
    Row("TestInvolution::test_report", "involution --n 2 --points 4 --seed 5", 0, "",
        report(lambda r: r["pass"] is True and r["max_abs"] < 1e-5
               and len(r["bracket_matrix"]) == 3)),
    Row("TestCommands::test_row[involution-n3]", "involution --n 3 --points 40", 0, "",
        report(lambda r: r["pass"] is True)),
    # the bracket step and the default --tol are calibrated for orders up
    # to 3 (ROADMAP 2.7): order 4 misses them at the pair (3, 4)
    *[Row(f"TestCommands::test_row[max-order-4-n{n}]", argv, 2, "",
          report(lambda r, worst=worst: r["pass"] is False and r["worst_pair"] == [3, 4]
                 and f"{r['max_abs']:.1e}" == worst)) for n, argv, worst in [
              (2, "involution --points 40 --max-order 4", "1.6e-04"),
              (3, "involution --n 3 --points 40 --max-order 4", "1.5e-04")]],
    # at x = 1e150 the finite-difference gradients overflow to NaN
    Row("TestInvolution::test_nan_bracket_fails", "involution --n 2 --points 3 --x 1e150", 2,
        re.compile(WARNED), report(lambda r: r["pass"] is False and math.isnan(r["max_abs"])),
        python=()),
    Row("TestCommands::test_row[involution-overflow-W]", "involution --n 2 --points 3 --x 1e150",
        2, OVERFLOW, python=W_ERROR),
    Row("TestNumericalWarnings::test_warning_as_error_exits_2[involution]",
        "involution --n 2 --points 3 --x 1e150", 2, OVERFLOW),

    # limit
    Row("TestCommands::test_row[limit-n8]", "limit --n 8 --seed 3", 0, "",
        report(lambda r: r["passes"] is True)),
    # a grid whose top scale sits below 4e-3: the Richardson base falls back to it
    Row("TestCommands::test_row[limit-low-grid]",
        "limit --n 2 --t-grid 1e-4,5e-4,1e-3,2e-3 --seed 3", 0, "",
        report(lambda r: r["passes"] is True)),
    # Phi(t) = -1 at every scale and H2 = 0: every error is 0.0, so no
    # decay order can be measured, and the error criterion decides
    Row("TestLimit::test_exact_limit_passes",
        "limit --n 1 --xi 0 --eta 0 --zeta 0.4 --q 0.3 --pi 0", 0, "",
        report(lambda r: r["passes"] is True and r["error"] == [0.0] * 8
               and r["fitted_order"] < 0.9)),
    # four copies of one scale leave no decay order to fit
    Row("TestUsageErrors::test_limit_grid_of_one_repeated_point_exits_1",
        "limit --t-grid 1e-3,1e-3,1e-3,1e-3", 1, FEW_SCALES),
    *[Row(f"TestUsageErrors::test_limit_non_finite_input_exits_1[{name}]", f"limit {flag}", 1,
          message) for name, flag, message in [
              ("q", "--q=1,nan", "error: q must be finite, got [ 1. nan]\n"),
              ("pi", "--pi=1,inf", "error: pi must be finite, got [ 1. inf]\n"),
              ("t_grid", "--t-grid=1e-3,2e-3,3e-3,4e-3,nan", FEW_SCALES)]],
    *[Row(f"TestUsageErrors::test_out_of_range_limit_rate_names_the_rate[--{name}={value}]",
          f"limit --{name}={value}", 1,
          f"error: {name} = {float(value):g} at t = 5e-05 gives exp(t {name}) = {limit}; "
          "it must be positive and finite\n")
      for name, value, limit in [("xi", "1e8", "inf"), ("xi", "-1e8", "0"), ("eta", "1e8", "inf"),
                                 ("zeta", "1e8", "inf")]],

    # usage: exit 1, never the numerical code 2
    *[Row(f"TestUsageErrors::test_bad_flags_exit_1[argv{i}]", argv, 1, err)
      for i, (argv, err) in enumerate([
          ("", usage("[-h]", "the following arguments are required: subcommand")),
          ("nosuch", usage("[-h]", "argument subcommand: invalid choice: 'nosuch' (choose from "
                                   "'verify', 'simulate', 'involution', 'limit')")),
          ("simulate --n two", usage("simulate", "argument --n: invalid int value: 'two'")),
          ("verify --bogus", usage("verify", "unrecognized arguments: --bogus")),
          ("simulate --method euler", usage("simulate", "argument --method: invalid choice: "
                                            "'euler' (choose from 'reduced', 'exact', 'both')")),
          ("simulate --format json --t-max 0.01",
           usage("simulate", "unrecognized arguments: --format json")),
          ("verify --samples 0",
           usage("verify", "argument --samples: must be positive and finite, got 0")),
          ("verify --samples -3",
           usage("verify", "argument --samples: must be positive and finite, got -3")),
          ("involution --max-order 0", "error: max_order must be at least 1, got 0\n"),
          ("involution --max-order -1", "error: max_order must be at least 1, got -1\n"),
          ("involution --points 0", usage("involution", "argument --points: must be positive and "
                                                        "finite, got 0")),
          ("limit --n 0", usage("limit", "argument --n: must be positive and finite, got 0")),
          ("simulate --dt 1e-300", "error: cannot run t_max / dt = 1e+300 steps\n")])],
    *[Row(f"TestUsageErrors::test_bad_vectors_exit_1[argv{i}-{message}]", argv, 1,
          f"error: {message}\n") for i, (argv, message) in enumerate([
              ("simulate --q=1,a --p=0,0", "could not parse vector '1,a'"),
              ("limit --pi=0.1,x", "could not parse vector '0.1,x'"),
              ("simulate --q=1,-1", "--q and --p must be given together"),
              ("simulate --p=0,0", "--q and --p must be given together"),
              ("simulate --n 2 --q=1 --p=0,0", "--q/--p must have n=2 entries"),
              ("simulate --n 2 --q=1,-1 --p=0", "--q/--p must have n=2 entries"),
              ("limit --n 2 --q=1", "--q/--pi must have n=2 entries"),
              ("limit --n 2 --pi=0.1,0.2,0.3", "--q/--pi must have n=2 entries"),
              # an empty field is no number, at either end or between two
              (("simulate --q 1,,-1 --p 0,0", "simulate --q=1,,-1 --p=0,0"),
               "could not parse vector '1,,-1'"),
              ("simulate --q=1,-1, --p=0,0", "could not parse vector '1,-1,'"),
              ("simulate --q=1,-1 --p=,0", "could not parse vector ',0'"),
              ("limit --pi=0.1,,0.2", "could not parse vector '0.1,,0.2'"),
              ("limit --t-grid 0.001,,0.002,0.003,0.004",
               "could not parse vector '0.001,,0.002,0.003,0.004'")])],
    # nan and a non-positive tol could never pass, inf always would
    *[Row(f"TestUsageErrors::test_tol_must_be_positive_and_finite[{argv.split()[0]}-{tol}]",
          f"{argv} --tol {tol}", 1,
          usage(argv.split()[0], f"argument --tol: must be positive and finite, got {tol}"))
      for argv in ("verify --samples 3", "involution --points 1",
                   "simulate --n 1 --q 0 --p 0 --t-max 0.01 --method both")
      for tol in ("nan", "-1", "0", "inf")],
    *[Row(f"TestUsageErrors::test_sample_count_below_one_exits_1[{count}]",
          f"simulate --n 1 --q 0 --p 0 --t-max 0.01 --sample-count {count}", 1,
          usage("simulate", f"argument --sample-count: must be positive and finite, got {count}"))
      for count in ("-4", "0")],
    # numpy's generators take no negative seed: a usage line, not a traceback
    *[Row(f"TestUsageErrors::test_negative_seed_is_a_usage_error[{sub}]", f"{sub} --seed -1", 1,
          usage(sub, "argument --seed: must be non-negative, got -1"))
      for sub in ("verify", "simulate", "involution", "limit")],
    *[Row(f"TestUsageErrors::test_non_finite_or_overflowing_parameters_exit_1[argv{i}]", argv, 1,
          f"error: {message}\n") for i, (argv, message) in enumerate([
              ("simulate --x inf --t-max 0.01 --dt 1e-3", "x must be finite, got inf"),
              ("verify --x inf --samples 2", "x must be finite, got inf"),
              ("simulate --alpha inf --t-max 0.01", "alpha must be finite, got inf"),
              ("simulate --alpha 1e-200 --t-max 0.01",
               "alpha = 1e-200, x = 1, y = 1 give c^2 = inf; it must be positive and finite"),
              ("simulate --x 1e200 --t-max 0.01",
               "alpha = 0.5, x = 1e+200, y = 1 give b^2 = 0; it must be positive and finite"),
              ("involution --y inf --points 1", "y must be finite, got inf"),
              ("limit --xi 1e8", "xi = 1e+08 at t = 5e-05 gives exp(t xi) = inf; it must be "
                                 "positive and finite")])],
    Row("TestUsageErrors::test_help_exits_0", "simulate -h", 0, "",
        lambda out: "--integrator" in out),

    # a vector value may start with "-", spaced or joined; "-h" is no value
    *[Row(f"TestUsageErrors::test_simulate_vectors_may_start_with_minus[{q}-{p}]",
          (f"simulate --n 2 --t-max 0.01 --dt 1e-3 --q {q} --p {p}",
           f"simulate --n 2 --t-max 0.01 --dt 1e-3 --q={q} --p={p}"), 0, "",
          lambda out: out.startswith("t,q1,q2,p1,p2,energy,residual\n"))
      for q, p in [("-0.4,-1.5", "0.2,0.15"), ("1.0,-1.0", "-0.2,0.15")]],
    Row("TestUsageErrors::test_limit_vectors_may_start_with_minus",
        ("limit --n 2 --seed 3 --q -0.2,-1.0 --pi -0.3,0.1",
         "limit --n 2 --seed 3 --q=-0.2,-1.0 --pi=-0.3,0.1"), 0, "",
        report(lambda r: r["pi"] == [-0.3, 0.1])),
    Row("TestCommands::test_row[minus-t-grid]",
        ("limit --n 2 --seed 3 --t-grid -1e-3,1e-3,2e-3,4e-3",
         "limit --n 2 --seed 3 --t-grid=-1e-3,1e-3,2e-3,4e-3"), 1, FEW_SCALES),
    Row("TestCommands::test_row[minus-q]",
        ("simulate --n 2 --q -inf,0 --p 0,0", "simulate --n 2 --q=-inf,0 --p=0,0"), 1, NOT_FINITE),
    Row("TestCommands::test_row[minus-p]",
        ("simulate --n 2 --q 1,0 --p -nan,0", "simulate --n 2 --q 1,0 --p=-nan,0"), 1, NOT_FINITE),
    Row("TestCommands::test_row[minus-pi]", ("limit --pi -inf,0", "limit --pi=-inf,0"), 1,
        "error: pi must be finite, got [-inf   0.]\n"),
    Row("TestCommands::test_row[minus-h]", "simulate --q -h", 1,
        usage("simulate", "argument --q: expected one argument")),
]


def run_row(row, argv, capsys):
    if row.python is None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:       # -h
                code = exc.code
        return code, *capsys.readouterr()
    script = [str(ROOT / argv[0]), *argv[1:]] if argv[0].endswith(".py") \
        else ["-m", "bcn_ruijsenaars.cli", *argv]
    done = subprocess.run([sys.executable, *row.python, *script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return done.returncode, done.stdout, done.stderr


def forms(row):
    return [shlex.split(argv) for argv in ((row.argv,) if isinstance(row.argv, str) else row.argv)]


def check_row(row, capsys):
    runs = {run_row(row, argv, capsys) for argv in forms(row)}
    assert len(runs) == 1, runs             # every form gives the same run
    ((code, out, err),) = runs
    assert code == row.code, err
    assert err == row.err if isinstance(row.err, str) else row.err.fullmatch(err), err
    assert out == row.out if isinstance(row.out, str) else row.out(out), out


def row_test(params):
    """The test of the rows in `params`: one parameter set each, or a test
    of its own for one row without an id."""
    if params[0].id is None:
        ((row,),) = (param.values for param in params)

        def test(self, capsys):
            check_row(row, capsys)
        return test

    @pytest.mark.parametrize("row", params)
    def test(self, row, capsys):
        check_row(row, capsys)
    return test


def install(rows):
    """Make each row the test its name gives: the rows named
    `Class::test[id]` are the parameter sets of `Class.test`."""
    tests = {}
    for row in rows:
        test, _, param = row.name.partition("[")
        tests.setdefault(test, []).append(pytest.param(row, id=param[:-1] or None))
    for test, params in tests.items():
        owner, func = test.split("::")
        setattr(globals().setdefault(owner, type(owner, (), {})), func, row_test(params))


@pytest.fixture(autouse=True)
def in_tmp_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def bcn_commands(text):
    """The argvs of the `bcn` lines of shell text: continuations joined,
    comments dropped."""
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.strip().startswith("bcn ")]


README = (ROOT / "README.md").read_text()


def test_readme_commands_are_rows():
    typed = bcn_commands("".join(re.findall(r"```sh\n(.*?)```", README, re.S)))
    assert typed
    # CI runs the README's commands as a user types them
    assert bcn_commands((ROOT / ".github/workflows/tests.yml").read_text()) == typed
    rows = [argv for row in ROWS for argv in forms(row)]
    assert [argv for argv in typed if argv not in rows] == []


def test_readme_lists_every_demo():
    listed = re.findall(r"^python (demos/\S+)", README, re.M)
    assert listed == [f"demos/{demo.name}" for demo in DEMOS]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
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

    def test_reproducible(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--samples", "10", "--seed", "7")
        _, out2, _ = run_cli(capsys, "verify", "--samples", "10", "--seed", "7")
        assert out1 == out2


class TestSimulate:
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

    def test_seeded_draw_without_q(self, capsys):
        code1, out1, _ = run_cli(capsys, "simulate", "--t-max", "0.01",
                                 "--dt", "1e-3", "--seed", "3")
        code2, out2, _ = run_cli(capsys, "simulate", "--t-max", "0.01",
                                 "--dt", "1e-3", "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2

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


class TestNumericalWarnings:
    """A FloatingPointError is a numerical failure, as a numpy warning
    raised as an error is (the table's `warning_as_error` rows): exit 2
    and one message line, not a traceback."""

    @pytest.mark.parametrize("argv", [("verify", "--samples", "5", "--y", "1e-160"),
                                      ("involution", "--n", "2", "--points", "3", "--x", "1e150")],
                             ids=lambda argv: argv[0])
    def test_floating_point_error_exits_2(self, capsys, argv):
        with np.errstate(over="raise"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("numerical failure: overflow encountered")


class TestLimit:
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

    def test_unknown_flag_gets_the_subcommand_usage(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 3}))
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg), "--bogus")
        assert (code, out) == (1, "")
        assert usage("verify", "unrecognized arguments: --bogus").fullmatch(err)

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


# last, so that the classes above take the rows named after their tests
install(ROWS)
