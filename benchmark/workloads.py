"""The benchmark's workloads: the `bcn` operations of one round.

Every run repeats whole rounds of the same operations.  Their inputs are
drawn from ``numpy.random.default_rng(seed)``, so the same seed gives
the same inputs; the two known faults use fixed inputs that do not
depend on the seed, and fail in every round.

Trajectory initial conditions: the lowest position is uniform on
[-0.3, 0.3], the gaps above it are uniform on [0.7, 0.9] (at alpha 0.6
the separation condition needs a gap above 0.496), and the momenta are
uniform on [-0.5, 0.5].  The package's own sampler is not used for
them: its points start near the separation wall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: model parameters of the seeded operations (alpha, x, y)
MODEL = ("--alpha", "0.6", "--x", "1.2", "--y", "0.8")
OUT_DIR = ".bench_build/bcn"


@dataclass(frozen=True)
class Fault:
    """How a known-faulty operation fails today."""

    code: int
    stderr: str       # substring of the expected message
    why: str


@dataclass(frozen=True)
class Op:
    """One `bcn` call.  `work` is in the unit of its kind (see KIND_UNITS)."""

    kind: str
    argv: tuple
    work: float
    fault: Fault | None = None
    files: tuple = ()      # output files the call writes


#: kind -> (record metric, unit of work)
KIND_UNITS = {
    "rk4": ("rk4_steps_per_s", "steps"),
    "rk45": ("rk45_model_time_per_s", "model-time"),
    "exact": ("exact_samples_per_s", "samples"),
    "verify": ("verify_points_per_s", "points"),
    "involution": ("bracket_points_per_s", "points"),
    "limit": ("limit_reports_per_s", "reports"),
}

RK4_FAULT = Op("rk4", ("simulate", "--n", "3", *MODEL, "--seed", "0"), 1000, Fault(
    code=1, stderr="error: non-positive interaction radicand",
    why="an RK4 stage crosses the separation wall and the resulting "
        "SeparationViolation is reported as invalid input"))
VERIFY_FAULT = Op("verify", ("verify", "--n", "8", *MODEL, "--samples", "200",
                             "--seed", "1"), 200, Fault(
    code=2, stderr="FAIL at tol 1e-10",
    why="kR_pseudounitary exceeds 1e-10 on some of the 200 points: "
        "k_R = solve(b_L, g) loses digits"))


def vec(values) -> str:
    return ",".join(f"{float(v):.17g}" for v in values)


def initial_condition(rng, n: int):
    """(q, p) in the bounded window described in the module docstring."""
    gaps = rng.uniform(0.7, 0.9, size=n - 1)
    q = rng.uniform(-0.3, 0.3) + np.concatenate([np.cumsum(gaps[::-1])[::-1], [0.0]])
    return q, rng.uniform(-0.5, 0.5, size=n)


def simulate_argv(n: int, q, p, *extra) -> tuple:
    return ("simulate", "--n", str(n), *MODEL, f"--q={vec(q)}", f"--p={vec(p)}",
            "--t-max", "1", *extra)


def reduced_ode(rng) -> list:
    ops = [Op("rk4", ("simulate", "--n", "2", "--q", "1.0,-1.0", "--p", "0.2,0.15",
                      "--t-max", "1", "--dt", "1e-3"), 1000)]
    for n in (2, 4, 8):
        q, p = initial_condition(rng, n)
        ops.append(Op("rk4", simulate_argv(n, q, p, "--dt", "1e-3"), 1000))
    for n in (2, 4):
        q, p = initial_condition(rng, n)
        ops.append(Op("rk45", simulate_argv(n, q, p, "--dt", "1e-3",
                                        "--integrator", "rk45"), 1.0))
    ops.append(RK4_FAULT)
    return ops


def exact_flow(rng) -> list:
    ops = []
    for n in (2, 4, 8):
        q, p = initial_condition(rng, n)
        ops.append(Op("exact", simulate_argv(n, q, p, "--dt", "2e-3", "--method", "exact",
                                             "--sample-count", "500"), 501))
    ops.append(Op("exact", ("simulate", "--n", "1", "--q", "0", "--p", "0",
                            "--t-max", "1", "--dt", "1e-3", "--method", "both",
                            "--output", f"{OUT_DIR}/both.csv"), 101,
                  files=(f"{OUT_DIR}/both.csv", f"{OUT_DIR}/both.exact.csv")))
    return ops


def point_sweep(rng) -> list:
    def seed() -> str:
        return str(int(rng.integers(2 ** 31)))

    ops = [Op("verify", ("verify", "--n", str(n), "--alpha", "0.9", "--x", "1.2",
                         "--y", "0.8", "--samples", "100", "--seed", seed()), 100)
           for n in (1, 2, 4)]
    ops.append(VERIFY_FAULT)
    for n in (2, 3):
        ops.append(Op("involution", ("involution", "--n", str(n), *MODEL,
                                     "--points", "12", "--seed", seed()), 12))
    for n in range(2, 9):
        for _ in range(2):
            ops.append(Op("limit", ("limit", "--n", str(n), "--seed", seed()), 1))
    return ops


WORKLOADS = {"reduced_ode": reduced_ode, "exact_flow": exact_flow,
             "point_sweep": point_sweep}


def round_ops(workload: str, seed: int) -> list:
    return WORKLOADS[workload](np.random.default_rng(seed))
