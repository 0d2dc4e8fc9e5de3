"""Two independent time evolutions and their comparison.

The unreduced flow is exact: the generator of the first Hamiltonian is
constant along its own flow, so

    g(t) = g(0) exp(-2 i t J g(0)^dag J g(0)),        J = diag(I, -I),

and both g J g^dag and every Phi_nu are conserved.  On the reduced space
the same dynamics is the canonical ODE

    dq_i/dt = s k dPhi_1/dp_i,      dp_i/dt = -s k dPhi_1/dq_i,

with orientation s = FLOW_SIGN and net time normalization
k = FLOW_TIME_SCALE.  Both are fixed empirically, by differentiating the
projected exact flow against the analytic gradient: the measured ratio
is exactly (s, k) = (+1, 2) in every tested configuration, i.e. one unit
of unreduced time advances the naively-scaled reduced clock by a factor
4 more than the 1/2 suggested by the bare coefficient of the reduced
symplectic form.  The calibration is re-asserted by the test suite.

A `Trajectory` holds (T, n) arrays of q and p.  Every route samples the
grid of `sample_times`, so `project_flow` on its times and both
integrators give one `t` column.  `integrate_reduced` checks its start
by `require_point` and makes one pass over its steps, rk4's fixed ones
or rk45's adaptive Cash-Karp ones, which end on each sample time.  It
steps z = q + p as a list of 2n Python floats by `_rk_step`, each stage
one call of the q-chart kernel `hamiltonians._q_kernel(n)`, which raises
NumericalFailure for non-finite q, ChamberViolation for unordered q and
SeparationViolation past the wall.  Under rk4 that error ends the run;
under rk45 it rejects the trial step, as a non-finite result does, and
the step is retried at a fifth of its length, down to RK45_MIN_STEP
(then NumericalFailure names the step and the time reached).  One loop
judges each step once, after `_finite`, by its closest gap d = min(q_i -
q_{i+1}): d < 0 raises NumericalFailure (particles never pass, so the
step blew up), d below the wall gap asinh(sqrt(c^2 + WALL_MARGIN) / 2)
ends the run with `chamber_approach` set, and any other step goes on, a
sampled one kept.  Float arithmetic overflows to inf silently, and the
kernel maps the math functions' OverflowError and ValueError to the IEEE
value, so the steps need no `np.errstate`.  After the stepping the
samples become (T, n) arrays and their columns are evaluated through
`matops.map_chunks`: the energy by the Sigma-chart form
(`hamiltonians._sigma_rows`, chunk_rows(n) rows), the residuals by
`constraint_residuals`, without numpy warnings; a non-finite entry in
either column (far out, e^q or a product overflows) raises
NumericalFailure naming the column and its first sample time.

`project_flow` composes the exact flow with coordinate extraction and
runs as one stacked pipeline through `matops.map_chunks`: each chunk of
`chunk_rows(2n)` samples makes one `exact_flow` call (an `expm` of the
stacked generators, grouped by squaring count) and one `reduce_stack`
pass: one KB split, the extraction and the residuals, with the energy
read from the same m = g J g^dag that gives b_L.  A sample whose worst
surface residual is not at most SURFACE_TOL (a NaN too) raises
NotOnConstraintSurface, and a non-finite energy NumericalFailure, each
naming its time.  The generator, the KB
split, the moment value and the residuals apply J as a scaling of rows
or columns by its signs (see `matops`), with the bits of the dense
products, so the samples are those of a dense J.  `compare_trajectories`
measures the deviation between the two routes.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .decomposition import SURFACE_TOL, reduce_stack
from .errors import (ChamberViolation, InvalidInput, NotOnConstraintSurface,
                     NumericalFailure, SeparationViolation)
from .hamiltonians import (_generated, _q_kernel, _sigma_rows, grad_hamiltonian,
                           phi_from_moment)
from .matops import chunk_rows, dagger, expm, map_chunks, require_element, signs
from .model import ModelParams, abc_from_params, require_point, wrap_angle
from .reconstruction import constraint_residuals

__all__ = [
    "FLOW_SIGN",
    "Trajectory",
    "DeviationReport",
    "exact_flow",
    "reduced_rhs",
    "step_count",
    "sample_times",
    "integrate_reduced",
    "project_flow",
    "compare_trajectories",
    "trajectory_csv_text",
]

#: orientation of the reduced flow relative to the exact unreduced flow,
#: fixed by the calibration procedure (see tests/test_dynamics.py): with
#: s = +1 the projected exact flow and the reduced ODE coincide, with
#: s = -1 they are time reversals of each other.
FLOW_SIGN = +1

#: net time normalization between the unreduced and reduced clocks,
#: measured (not derived): the projected exact flow satisfies
#: dq/dt = 2 dPhi_1/dp exactly.
FLOW_TIME_SCALE = 2.0

#: abort threshold on the separation margin (chamber-wall approach)
WALL_MARGIN = 1e-6

#: error control of the "rk45" integrator: a step is accepted when its
#: embedded error estimate is at most RK45_ATOL + RK45_RTOL * max|z|
RK45_RTOL = 1e-10
RK45_ATOL = 1e-12

#: a rejected rk45 trial step shorter than this ends the run with
#: NumericalFailure (an accepted step may be shorter: one clipped to a
#: sample time can be tiny)
RK45_MIN_STEP = 1e-10


@dataclass(frozen=True)
class Trajectory:
    """Sampled trajectory: positions q and angles p, each (T, n), energy
    and constraint residual, each (T,), at the T sample times."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    energy: np.ndarray
    residual: np.ndarray
    chamber_approach: bool = False


def exact_flow(g0, t) -> np.ndarray:
    """Propagate g0 for time t along the first Hamiltonian's flow.

    A 1-d array of times gives the (T, 2n, 2n) stack of g(t).  The
    generator J g0^dag J g0 scales the rows and columns of g0^dag by the
    signs of J.  g0 is checked by `matops.require_element`.
    """
    g0 = require_element(g0, "g0")
    s = signs(g0.shape[0] // 2)
    gen = (-2.0j * np.asarray(t, dtype=float))[..., None, None] \
        * ((s[:, None] * dagger(g0) * s) @ g0)
    return g0 @ expm(gen)


def reduced_rhs(q, p, params: ModelParams):
    """Right-hand side (dq/dt, dp/dt) of the reduced canonical ODE at 1-d
    arrays; `integrate_reduced` takes the same from the kernel on float
    lists."""
    dq_h, dp_h = grad_hamiltonian(q, p, params)
    k = FLOW_SIGN * FLOW_TIME_SCALE
    return k * dp_h, -k * dq_h


# Cash-Karp embedded 4(5) pair
_CK_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [3 / 10, -9 / 10, 6 / 5],
    [-11 / 54, 5 / 2, -70 / 27, 35 / 27],
    [1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096],
]
_CK_B5 = [37 / 378, 0, 250 / 621, 125 / 594, 0, 512 / 1771]
_CK_B4 = [2825 / 27648, 0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4]


def _step_source(method: str, n: int) -> str:
    """Source of `steps(chart)`, which returns the step of `method` ("rk4"
    or "rk45") for n particles on the kernel `chart`; see `_rk_step`.
    It is built from the int n, the fixed templates below and the
    Cash-Karp table's floats only, so no caller's text reaches `exec`."""
    dim = 2 * operator.index(n)
    zs = [f"z{j}" for j in range(dim)]

    def stage(s, args):
        return f"        _, {', '.join(f'k{s}_{j}' for j in range(dim))} = chart({', '.join(args)})"

    def combine(weights):
        # z + h (0.0 + w_0 k_0 + w_1 k_1 + ...), a zero weight still
        # multiplying its stage: 0 * inf is NaN, so an overflowed stage
        # fails the trial step
        return [f"z{j} + h * (0.0" + "".join(f" + {float(w)!r} * k{s}_{j}"
                                             for s, w in enumerate(weights)) + ")"
                for j in range(dim)]

    lines = ["def steps(chart):", "", "    def step(z, h):", f"        {', '.join(zs)}, = z"]
    if method == "rk4":
        lines += [stage(1, zs), "        h2 = 0.5 * h",
                  stage(2, [f"z{j} + h2 * k1_{j}" for j in range(dim)]),
                  stage(3, [f"z{j} + h2 * k2_{j}" for j in range(dim)]),
                  stage(4, [f"z{j} + h * k3_{j}" for j in range(dim)]),
                  "        h6 = h / 6.0",
                  "        return [" + ", ".join(
                      f"z{j} + h6 * (k1_{j} + 2.0 * k2_{j} + 2.0 * k3_{j} + k4_{j})"
                      for j in range(dim)) + "]"]
    else:
        lines += [stage(0, zs)]
        lines += [stage(s, combine(row)) for s, row in enumerate(_CK_A) if s]
        lines += [f"        return [{', '.join(combine(_CK_B5))}], "
                  f"[{', '.join(combine(_CK_B4))}]"]
    lines += ["", "    return step", ""]
    return "\n".join(lines)


@functools.cache
def _rk_step(method: str, n: int):
    """The step of `method` ("rk4" or "rk45") for n particles, generated
    and compiled at its first use, once per (method, n) (as `<rk4-step
    n=...>` or `<rk45-step n=...>`, see `hamiltonians._generated`).

    `_rk_step(method, n)(chart)` steps the float list z = q + p by h on
    the q-chart kernel `chart` (`hamiltonians._q_kernel`), each stage one
    kernel call on the stage's expressions z_j + c h k_j.  rk4 returns
    the classical RK4 step; rk45 returns the Cash-Karp trial step's
    fifth-order result and its fourth-order one, each weighted sum added
    stage by stage in order from 0.0.
    """
    return _generated(_step_source(method, n), f"<{method}-step n={n}>", {})["steps"]


def _finite(z):
    if not all(map(math.isfinite, z)):
        raise NumericalFailure("reduced flow: non-finite state after a step")
    return z


def step_count(t_max: float, dt: float) -> int:
    """Steps of a run to `t_max` on steps of about `dt`: round(t_max / dt),
    at least one, none when t_max is 0.  Raises InvalidInput for a count
    that numpy cannot index."""
    if dt <= 0.0:
        raise InvalidInput("dt must be positive")
    if t_max < 0.0:
        raise InvalidInput("t_max must be non-negative")
    ratio = t_max / dt
    if not ratio < np.iinfo(np.intp).max:
        raise InvalidInput(f"cannot run t_max / dt = {ratio:g} steps")
    return max(1, int(round(ratio))) if t_max > 0.0 else 0


def sample_times(t_max: float, dt: float, sample_every: int = 1):
    """The time grid of a run of `step_count(t_max, dt)` steps.

    The n steps have length step = t_max / n (`dt` when t_max is 0).
    Returns `(step, counts)`: the step counts of the samples, which are
    step 0, every `sample_every`-th step and the last step.  Sample k is
    at time counts[k] * step.
    """
    n_steps = step_count(t_max, dt)
    counts = np.arange(0, n_steps + 1, sample_every)
    if counts[-1] != n_steps:
        counts = np.append(counts, n_steps)
    return (t_max / n_steps if n_steps else dt), counts


def integrate_reduced(q0, p0, params: ModelParams, t_max: float, dt: float,
                      method: str = "rk4", sample_every: int = 1) -> Trajectory:
    """Integrate the reduced ODE from the point (q0, p0) and sample it.

    The samples are those of `sample_times(t_max, dt, sample_every)`.
    `method` is "rk4" (classical, fixed steps of that grid's step,
    default) or "rk45" (embedded Cash-Karp pair with adaptive sub-steps
    between samples; `dt` then sets the sampling cadence and the first
    trial step).  A step whose closest gap falls below the wall gap ends
    the run, which returns the samples before it with `chamber_approach`
    set; a step that reorders q raises NumericalFailure (see the module
    docstring for the errors a stage or a step raises).
    """
    if method not in ("rk4", "rk45"):
        raise InvalidInput(f"unknown method {method!r}")
    q0, p0 = require_point(q0, p0, params.n)
    n = q0.size
    step, counts = sample_times(t_max, dt, sample_every)
    a2, b2, c2 = abc_from_params(params)
    chart = _q_kernel(n)(a2, b2, c2, FLOW_SIGN * FLOW_TIME_SCALE)
    rk_step = _rk_step(method, n)(chart)
    # a gap d >= 0 is below `wall` exactly when 4 sinh^2(d) - c2 < WALL_MARGIN
    wall = math.asinh(math.sqrt(c2 + WALL_MARGIN) / 2.0)
    last = int(counts[-1])

    def rk4_steps(z):
        for j in range(1, last + 1):
            z = rk_step(z, step)
            yield j * step, z, j % sample_every == 0 or j == last

    def rk45_steps(z):
        t, h = 0.0, dt
        for t_target in (counts[1:] * step).tolist():
            while t < t_target:
                h = min(h, t_target - t)
                try:
                    z5, z4 = rk_step(z, h)
                    err = max(abs(a - b) for a, b in zip(_finite(z5), _finite(z4)))
                except (ChamberViolation, SeparationViolation, NumericalFailure):
                    err = math.inf      # a stage left the chamber or overflowed
                scale = RK45_ATOL + RK45_RTOL * max(map(abs, z))
                if err <= scale:
                    t, z = t + h, z5
                    yield t, z, not t < t_target
                elif h < RK45_MIN_STEP:
                    raise NumericalFailure(f"rk45: step {h:.3g} rejected at t = {t:.10g}")
                h *= min(5.0, max(0.2, 0.9 * (scale / max(err, 1e-300)) ** 0.2))

    z = q0.tolist() + p0.tolist()
    kept = [(0.0, z)]       # (t, z) of each sample, evaluated after the stepping
    gap = math.inf          # the closest gap of the last step judged
    for t, z, sampled in (rk4_steps if method == "rk4" else rk45_steps)(z):
        q = _finite(z)[:n]
        gap = min(map(operator.sub, q, q[1:]), default=math.inf)
        if gap < 0.0:       # particles never pass: the step has blown up
            i = next(i for i in range(n - 1) if q[i] < q[i + 1])
            raise NumericalFailure(f"reduced flow: the step to t = {t:.10g} reorders "
                                   f"q_{i + 1} = {q[i]:.10g} and q_{i + 2} = {q[i + 1]:.10g}")
        if gap < wall:
            break
        if sampled:
            kept.append((t, z))

    times, zs = zip(*kept)
    q, p = np.split(np.array(zs), [n], axis=1)
    # the rows are finite and ordered (each step is checked); an overflow
    # shows only in the column check below
    with np.errstate(all="ignore"):
        energy = map_chunks(lambda q, p: _sigma_rows(np.exp(q), p, [params]),
                            chunk_rows(n), q, p)
        residual = np.max(list(constraint_residuals(q, p, params).values()), axis=0)
    for name, column in (("energy", energy), ("residual", residual)):
        failed = ~np.isfinite(column)
        if failed.any():
            raise NumericalFailure(f"reduced flow: non-finite {name} at t = "
                                   f"{times[np.argmax(failed)]:.10g}")
    return Trajectory(times=np.array(times), q=q, p=p, energy=energy,
                      residual=residual, chamber_approach=gap < wall)


def project_flow(g0, params: ModelParams, times) -> Trajectory:
    """Exact flow sampled at `times`, projected to reduced coordinates.

    Runs as `matops.map_chunks` of `chunk_rows(2n)` samples, so the first
    failing sample in time raises the error it raises alone.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size > 1 and not np.all(np.diff(times) > 0.0):
        raise InvalidInput("times must be strictly increasing")
    g0 = require_element(g0, "g0", params.n)
    q, p, energy, residual = map_chunks(lambda t: _project_stack(g0, params, t),
                                        chunk_rows(g0.shape[-1]), times)
    return Trajectory(times=times.copy(), q=q, p=p, energy=energy,
                      residual=residual)


def _project_stack(g0, params: ModelParams, times):
    """(q, p, energy, residual) at `times`, as one stack, gated as the
    module docstring says."""
    g = exact_flow(g0, times)
    g[times == 0.0] = g0      # the t = 0 sample is g0 itself, unrounded
    q, p, residual, m = reduce_stack(g, params)
    energy = phi_from_moment(m, 1)
    failed = ~(residual <= SURFACE_TOL)     # a NaN fails too
    if failed.any():
        i = np.argmax(failed)
        raise NotOnConstraintSurface(f"exact flow: surface residual {residual[i]:.3g} "
                                     f"above {SURFACE_TOL:g} at t = {times[i]:.10g}")
    failed = ~np.isfinite(energy)
    if failed.any():
        raise NumericalFailure(f"exact flow: non-finite energy at t = "
                               f"{times[np.argmax(failed)]:.10g}")
    return q, p, energy, residual


@dataclass(frozen=True)
class DeviationReport:
    """Infinity-norm deviations between two trajectories on one grid."""

    q_dev: float
    p_dev: float          # modulo 2 pi
    energy_dev: float
    count: int = 0


def compare_trajectories(a: Trajectory, b: Trajectory) -> DeviationReport:
    """Max deviation in q and in p (mod 2 pi) over a shared time grid."""
    if a.times.shape != b.times.shape or (
            a.times.size and float(np.max(np.abs(a.times - b.times)))
            > 1e-9 * max(1.0, float(a.times[-1]))):
        raise InvalidInput("trajectories are not on the same time grid")
    q_dev = float(np.max(np.abs(a.q - b.q), initial=0.0))
    p_dev = float(np.max(np.abs(wrap_angle(a.p - b.p)), initial=0.0))
    e_dev = float(np.max(np.abs(a.energy - b.energy))) if a.energy.size else 0.0
    return DeviationReport(q_dev=q_dev, p_dev=p_dev, energy_dev=e_dev,
                           count=int(a.times.size))


def trajectory_csv_text(traj: Trajectory) -> str:
    """CSV rows `t,q1..qn,p1..pn,energy,residual`, 17 significant digits:
    one %-format per row over the table as Python floats."""
    n = traj.q.shape[1]
    header = ["t"] + [f"q{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)] \
        + ["energy", "residual"]
    row = ",".join(["%.17g"] * len(header))
    table = np.column_stack([traj.times, traj.q, traj.p, traj.energy, traj.residual])
    return "\n".join([",".join(header)] + [row % tuple(r) for r in table.tolist()]) + "\n"
