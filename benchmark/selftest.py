#!/usr/bin/env python3
"""Show that the benchmark's checks reject wrong outputs.

    python3 benchmark/selftest.py

Runs a few small `bcn` operations, asserts that each checker accepts the
genuine output, then feeds it corrupted copies and asserts that each is
rejected: a time-reversed trajectory, p shifted by 1e-3, an energy
column offset by 1e-8 of its scale, a limit report with c3 doubled, a
bracket matrix with one entry at 1e-3, and a known fault that fails
another way.  Exits 0 when every assertion holds.
"""

import io
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks       # noqa: E402
import reference    # noqa: E402
import run          # noqa: E402
import workloads    # noqa: E402
from bcn_ruijsenaars import cli  # noqa: E402


def csv_with(text: str, edit) -> str:
    header, body = text.split("\n", 1)
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    edit(rows)
    lines = [",".join(f"{v:.17g}" for v in row) for row in rows]
    return "\n".join([header, *lines]) + "\n"


def bcn(argv) -> str:
    res = run.execute(cli, argv)
    assert res.code == 0, (argv, res.stderr)
    return res.stdout


def main() -> int:
    checker = checks.Checker()
    q, p = workloads.initial_condition(np.random.default_rng(7), 2)
    argv = workloads.simulate_argv(2, q, p, "--dt", "1e-3")
    traj = bcn(argv)
    n = 2

    def reverse(rows):
        rows[:, 1:] = rows[::-1, 1:].copy()

    def shift_p(rows):
        rows[:, n + 1:2 * n + 1] += 1e-3

    def offset_energy(rows):
        rows[:, -2] += 1e-8 * max(1.0, abs(rows[0, -2]))

    limit_argv = ("limit", "--n", "3", "--seed", "5")
    limit = json.loads(bcn(limit_argv))
    doubled = dict(limit, H2_closed=reference.sutherland_h2(
        limit["q"], limit["pi"], limit["xi"], limit["eta"],
        limit["zeta"] * np.sqrt(2.0)))
    inv_argv = ("involution", "--n", "2", "--alpha", "0.6", "--points", "2")
    inv = json.loads(bcn(inv_argv))
    bracket = dict(inv, bracket_matrix=[row[:] for row in inv["bracket_matrix"]])
    bracket["bracket_matrix"][0][1] = 1e-3
    verify_argv = ("verify", "--n", "2", "--samples", "5", "--seed", "3")
    verify = bcn(verify_argv)
    fault = workloads.RK4_FAULT.fault
    other_way = run.Result(2, "", "numerical failure: something else", 0.0)

    cases = [
        ("genuine trajectory", checker.simulate(argv, traj, {}), False),
        ("time-reversed trajectory", checker.simulate(argv, csv_with(traj, reverse), {}), True),
        ("p shifted by 1e-3", checker.simulate(argv, csv_with(traj, shift_p), {}), True),
        ("energy offset", checker.simulate(argv, csv_with(traj, offset_energy), {}), True),
        ("genuine verify report", checker.verify(verify_argv, verify), False),
        ("genuine limit report", checks.limit_report(limit), False),
        ("limit report with c3 doubled", checks.limit_report(doubled), True),
        ("genuine bracket matrix", checks.involution_report(inv), False),
        ("bracket entry at 1e-3", checks.involution_report(bracket), True),
        ("known fault as it fails today",
         checks.fault(run.execute(cli, workloads.RK4_FAULT.argv), fault), False),
        ("known fault failing another way", checks.fault(other_way, fault), True),
    ]
    bad = 0
    for name, problems, should_reject in cases:
        ok = bool(problems) == should_reject
        bad += not ok
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok ' if ok else 'BAD'} {name}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
