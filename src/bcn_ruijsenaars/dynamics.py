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
integrators give one `t` column.  `integrate_reduced` makes one loop
over the samples; rk4 reaches the next one by fixed steps, rk45 by
adaptive Cash-Karp steps.  It runs on raw (q, p) arrays; its start point
is a ReducedPoint and its samples are checked as such by
`require_points`.  Each RK stage is checked once, by the pair factors in
`grad_hamiltonian`: NumericalFailure for non-finite q, ChamberViolation
for unordered q, SeparationViolation past the wall.  Under rk4 that
error ends the run; under rk45 it rejects the trial step, which is
retried at a fifth of its length.  Each step is checked once: a
non-finite state raises NumericalFailure, and a separation margin below
WALL_MARGIN ends the run with `chamber_approach` set.  The steps run
with numpy's overflow and invalid-value warnings off, since such a step
ends in one of those errors; the samples are evaluated after the
stepping, with the caller's warning settings: the energy column by one
`hamiltonian_sigma` call on the (T, n) arrays, the residuals by one
`constraint_residuals`.

`project_flow` composes the exact flow with coordinate extraction and
runs as one stacked pipeline: the time grid is cut into chunks of
`matops.chunk_rows(2n)` samples, and each chunk makes one `exact_flow`
call (a grouped-Pade `expm` of the stacked generators) and one
`reduce_stack` pass: one KB split, the extraction and the residuals,
with the energy read from the same m = g J g^dag that gives b_L.  If any
check fails, `LinAlgError` is raised or a floating-point warning would
be printed anywhere in a chunk, the chunk is replayed sample by sample
in time order, under the caller's warning settings, so the first failing
sample in time raises exactly the error of a lone sample.
`compare_trajectories` measures the deviation between the two routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import reduce_stack
from .errors import (BCNError, ChamberViolation, InvalidInput,
                     NumericalFailure, SeparationViolation)
from .hamiltonians import grad_hamiltonian, hamiltonian_sigma, phi_from_moment
from .matops import chunk_rows, expm, inn
from .model import (ModelParams, ReducedPoint, require_points,
                    separation_margin, wrap_angle)
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

    A 1-d array of times gives the (T, 2n, 2n) stack of g(t).
    """
    g0 = np.asarray(g0, dtype=complex)
    j = inn(g0.shape[0] // 2)
    gen = (-2.0j * np.asarray(t, dtype=float))[..., None, None] \
        * (j @ g0.conj().T @ j @ g0)
    return g0 @ expm(gen)


def reduced_rhs(q, p, params: ModelParams):
    """Right-hand side (dq/dt, dp/dt) of the reduced canonical ODE."""
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
_CK_B5 = np.array([37 / 378, 0, 250 / 621, 125 / 594, 0, 512 / 1771])
_CK_B4 = np.array([2825 / 27648, 0, 18575 / 48384, 13525 / 55296,
                   277 / 14336, 1 / 4])


def _rk4_step(f, z, h):
    k1 = f(z)
    k2 = f(z + 0.5 * h * k1)
    k3 = f(z + 0.5 * h * k2)
    k4 = f(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _ck_step(f, z, h):
    ks = [f(z)]
    for row in _CK_A[1:]:
        ks.append(f(z + h * sum(a * k for a, k in zip(row, ks))))
    ks = np.array(ks)
    z5 = z + h * (_CK_B5 @ ks)
    z4 = z + h * (_CK_B4 @ ks)
    return z5, float(np.max(np.abs(z5 - z4)))


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


def integrate_reduced(point0: ReducedPoint, params: ModelParams, t_max: float,
                      dt: float, method: str = "rk4",
                      sample_every: int = 1) -> Trajectory:
    """Integrate the reduced ODE and sample the trajectory.

    The samples are those of `sample_times(t_max, dt, sample_every)`.
    `method` is "rk4" (classical, fixed steps of that grid's step,
    default) or "rk45" (embedded Cash-Karp pair with adaptive sub-steps
    between samples; `dt` then sets the sampling cadence and the first
    trial step).  If the separation margin drops below WALL_MARGIN the
    integration stops and the partial trajectory is returned with
    `chamber_approach` set (see the module docstring for the errors a
    stage or a step raises).
    """
    if method not in ("rk4", "rk45"):
        raise InvalidInput(f"unknown method {method!r}")
    step, counts = sample_times(t_max, dt, sample_every)
    n = point0.n
    f = lambda z: np.concatenate(reduced_rhs(z[:n], z[n:], params))

    def finite(z):
        if not np.all(np.isfinite(z)):
            raise NumericalFailure("reduced flow: non-finite state after a step")
        return z

    def rk4_steps(t, z, k0, k):
        for j in range(k0 + 1, k + 1):
            z = finite(_rk4_step(f, z, step))
            yield j * step, z

    h = dt

    def rk45_steps(t, z, k0, k):
        nonlocal h
        t_target = k * step
        while t < t_target:
            h = min(h, t_target - t)
            try:
                z_new, err = _ck_step(f, z, h)
                finite(z_new)
            except (ChamberViolation, SeparationViolation):
                err = np.inf        # a stage left the chamber: reject the step
            scale = RK45_ATOL + RK45_RTOL * float(np.max(np.abs(z)))
            if err <= scale:
                t += h
                z = z_new
                yield t, z
            h *= min(5.0, max(0.2, 0.9 * (scale / max(err, 1e-300)) ** 0.2))

    steps = rk4_steps if method == "rk4" else rk45_steps
    t, z = 0.0, np.concatenate([point0.q, point0.p])
    kept = [(t, z)]         # (t, z) of each sample, evaluated after the stepping
    approached = False
    # An overflowing stage or step raises NumericalFailure (`grad_hamiltonian`,
    # `finite`), so numpy's warnings would only add noise.  One context for
    # all steps: entering one per step slows the stepping measurably.
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, k in zip(counts.tolist(), counts[1:].tolist()):
            for t, z in steps(t, z, k0, k):
                approached = separation_margin(z[:n], params.coupling_sq) < WALL_MARGIN
                if approached:
                    break
            if approached:
                break
            kept.append((t, z))

    times, zs = zip(*kept)
    rows = np.array(zs)
    q, p = rows[:, :n], rows[:, n:]
    require_points(q, p)
    energy = hamiltonian_sigma(np.exp(q), p, params)
    # the worst residual of each sample; fmax, as Python's max, skips a NaN
    residual = np.fmax.reduce(list(constraint_residuals(q, p, params).values()))
    return Trajectory(times=np.array(times), q=q, p=p, energy=energy,
                      residual=residual, chamber_approach=approached)


def project_flow(g0, params: ModelParams, times) -> Trajectory:
    """Exact flow sampled at `times`, projected to reduced coordinates.

    Runs in chunks of stacked samples; a chunk in which anything fails is
    replayed one sample at a time (see the module docstring).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size > 1 and not np.all(np.diff(times) > 0.0):
        raise InvalidInput("times must be strictly increasing")
    g0 = np.asarray(g0, dtype=complex)
    size = chunk_rows(g0.shape[-1])
    # a warning that the replay would print is an error in the stacked pass
    raise_on = {kind: "ignore" if how == "ignore" else "raise"
                for kind, how in np.geterr().items()}
    parts = [(np.empty((0, params.n)), np.empty((0, params.n)), np.empty(0),
              np.empty(0))]
    for start in range(0, times.size, size):
        chunk = times[start:start + size]
        try:
            with np.errstate(**raise_on):
                parts.append(_project_stack(g0, params, chunk))
        except (BCNError, np.linalg.LinAlgError, FloatingPointError):
            parts += [_project_stack(g0, params, chunk[i:i + 1])
                      for i in range(chunk.size)]
    q, p, energy, residual = (np.concatenate(a) for a in zip(*parts))
    return Trajectory(times=times.copy(), q=q, p=p, energy=energy,
                      residual=residual)


def _project_stack(g0, params: ModelParams, times):
    """(q, p, energy, residual) at `times`, as one stack."""
    g = exact_flow(g0, times)
    g[times == 0.0] = g0      # the t = 0 sample is g0 itself, unrounded
    q, p, residual, m = reduce_stack(g, params)
    return q, p, phi_from_moment(m, 1), residual


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
    """CSV rows `t,q1..qn,p1..pn,energy,residual`, 17 significant digits."""
    n = traj.q.shape[1]
    lines = [",".join(["t"] + [f"q{i+1}" for i in range(n)]
                      + [f"p{i+1}" for i in range(n)] + ["energy", "residual"])]
    for t, q, p, en, res in zip(traj.times, traj.q, traj.p, traj.energy,
                                traj.residual):
        lines.append(",".join(f"{v:.17g}" for v in [t, *q, *p, en, res]))
    return "\n".join(lines) + "\n"
