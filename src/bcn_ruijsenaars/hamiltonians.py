"""The commuting Hamiltonian family and its reduced closed form.

On the group, the family is

    Phi_nu(g) = -(1/(2 nu)) tr (g J g^dag J)^nu,    nu = 1, 2, ...

with J = diag(I, -I); these are real and pairwise Poisson-commuting.
On the reduced space the first member has the closed form (Sigma_i =
exp(q_i)):

    Phi_1 = (x^-2 + y^2)/2 sum_i Sigma_i^-2
            - x^-1 sum_i cos(p_i) sqrt(1 + Sigma_i^-2)
              sqrt(x^2 + y^2 Sigma_i^-2)
              prod_{k != i} sqrt((Sigma_k^2/alpha - alpha Sigma_i^2)
                                 (alpha Sigma_k^2 - Sigma_i^2/alpha))
                            / (Sigma_k^2 - Sigma_i^2),

which in the three-constant form reads

    H = a^2 sum_i e^{-2 q_i}
        - sum_i cos(p_i) [1 + (1 + b^2) e^{-2 q_i} + b^2 e^{-4 q_i}]^(1/2)
          prod_{k != i} [1 - c^2 / (4 sinh^2(q_i - q_k))]^(1/2).

The reduced Poisson bracket carries a factor 1/2 (the reduced symplectic
form is 2 sum dp_i ^ dq_i), so {q_i, p_j} = delta_ij / 2 here.

`hamiltonian_q` and `grad_hamiltonian` are one kernel, which builds the
pair factors 1 - c^2 / (4 sinh^2(q_i - q_k)) and their log-derivatives
once and checks the chart: finite, strictly decreasing and separated q.
`hamiltonian_sigma`, the independent Sigma-chart form, also takes
(T, n) stacks.  `fd_gradient` passes all 8n stencil rows of a point to
its function as one stack, and `involution_report` evaluates them
through `assemble_chunks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from .errors import (BCNError, ChamberViolation, InvalidInput, NumericalFailure,
                     SeparationViolation)
from .model import ModelParams, ReducedPoint, abc_from_params, require_points
from .matops import dagger, inn
from .reconstruction import assemble, assemble_chunks

__all__ = [
    "phi_trace",
    "phi_from_moment",
    "hamiltonian_sigma",
    "hamiltonian_q",
    "phi_reduced",
    "grad_hamiltonian",
    "poisson_bracket_fd",
    "fd_gradient",
    "InvolutionReport",
    "involution_report",
    "WeylReport",
    "weyl_check",
    "spectral_invariants",
]


def phi_trace(g, nu: int) -> float:
    """Phi_nu(g) = -(1/(2 nu)) tr (g J g^dag J)^nu.

    The trace is provably real; an imaginary residue above 1e-8 raises
    NumericalFailure, smaller residues are discarded.
    """
    g = np.asarray(g, dtype=complex)
    if not np.all(np.isfinite(g)):
        raise InvalidInput("phi_trace: non-finite input")
    return float(phi_from_moment(g @ inn(g.shape[0] // 2) @ dagger(g), nu))


def phi_from_moment(m, nu: int):
    """Phi_nu from the moment value m = g J g^dag; a stack (T, 2n, 2n) of
    moment values gives T values, and the reality check names the first
    failing one."""
    if nu < 1:
        raise InvalidInput("nu must be a positive integer")
    m = np.asarray(m, dtype=complex)
    mj = m @ inn(m.shape[-1] // 2)
    val = -np.trace(np.linalg.matrix_power(mj, nu), axis1=-2, axis2=-1) / (2.0 * nu)
    failed = np.abs(val.imag) > 1e-8 * np.maximum(1.0, np.abs(val.real))
    if failed.any():
        raise NumericalFailure(
            f"trace has imaginary part {np.ravel(val.imag)[np.argmax(failed)]}")
    return val.real


def _pair_factors_sq(s, alpha: float):
    """For each row of s = Sigma^2, the matrix of (s_k/alpha - alpha s_i)
    (alpha s_k - s_i/alpha) / (s_k - s_i)^2 over k != i, 1 on the diagonal."""
    n = s.shape[-1]
    sk, si = s[..., None, :], s[..., :, None]
    diff = sk - si
    mask = ~np.eye(n, dtype=bool)
    if np.any(diff[..., mask] == 0.0):
        raise SeparationViolation("coinciding Sigma_i^2: particle collision")
    fac = np.ones(s.shape + (n,))
    fac[..., mask] = ((sk / alpha - alpha * si) * (alpha * sk - si / alpha))[..., mask] \
        / diff[..., mask] ** 2
    return fac


def hamiltonian_sigma(Sigma, p, params: ModelParams):
    """Closed form of the reduced Phi_1 in the (Sigma, p) chart.

    The formula depends on Sigma only through Sigma^2, so it is even in
    each Sigma_i and symmetric under simultaneous permutations of the
    (Sigma_i, p_i) pairs; Sigma need not be ordered here.  (T, n) arrays
    give T values with the bits of each row alone; one point, a float.
    Raises SeparationViolation when a pair radicand is non-positive.
    """
    sigma = np.atleast_1d(np.asarray(Sigma, dtype=float))
    if np.any(sigma == 0.0):
        raise InvalidInput("Sigma entries must be non-zero")
    x, y, alpha = params.x, params.y, params.alpha
    s = sigma ** 2
    fac = _pair_factors_sq(s, alpha)
    if np.any(fac <= 0.0):
        raise SeparationViolation("non-positive interaction radicand")
    w = (np.sqrt((1.0 + 1.0 / s) * (x ** 2 + y ** 2 / s)) / x
         * np.prod(np.sqrt(fac), axis=-1))
    val = (0.5 * (x ** -2 + y ** 2) * np.sum(1.0 / s, axis=-1)
           - np.sum(np.cos(p) * w, axis=-1))
    return float(val) if val.ndim == 0 else val


def _q_chart(q, p, a2: float, b2: float, c2: float):
    """(H, dH/dq, dH/dp) of the three-constant form at 1-d q, p.

    Raises NumericalFailure (non-finite q, as from an overflowed RK
    stage), ChamberViolation (unordered q) or SeparationViolation (a pair
    factor 1 - c2 / (4 sinh^2(q_i - q_k)) <= 0).
    """
    if q.size > 1 and not (q[1:] < q[:-1]).all():
        if not np.isfinite(q).all():
            raise NumericalFailure(f"non-finite positions q = {q}")
        raise ChamberViolation(f"q must be strictly decreasing, got {q}")
    u = np.exp(-2.0 * q)
    radicand = 1.0 + (1.0 + b2) * u + b2 * u ** 2
    bracket = np.sqrt(radicand)
    d = q[:, None] - q[None, :]
    sh = np.sinh(d)
    sh.flat[::q.size + 1] = np.inf      # the diagonal factor is 1
    ratio = c2 / (4.0 * sh ** 2)
    fac = 1.0 - ratio
    if fac.min() <= 0.0:
        raise SeparationViolation("non-positive interaction radicand")
    prod = np.sqrt(fac).prod(axis=1)
    # dlog[i, k] = d log sqrt(fac[i, k]) / d q_i = -d log sqrt(fac[i, k]) / d q_k
    dlog = ratio * (np.cosh(d) / sh) / fac
    cw = np.cos(p) * bracket * prod
    dlog_bracket = u * (-1.0 - b2 - 2.0 * b2 * u) / radicand
    dh_dq = -2.0 * a2 * u - cw * (dlog_bracket + dlog.sum(axis=1)) + cw @ dlog
    return a2 * u.sum() - cw.sum(), dh_dq, np.sin(p) * bracket * prod


def hamiltonian_q(q, p, a2: float, b2: float, c2: float) -> float:
    """Three-constant form of the Hamiltonian in the (q, p) chart; raises
    as `grad_hamiltonian` does."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    return float(_q_chart(q, p, a2, b2, c2)[0])


def phi_reduced(point: ReducedPoint, params: ModelParams, nu: int) -> float:
    """Phi_nu evaluated through the reconstructed group element."""
    fact, _ = assemble(point, params)
    return phi_trace(fact.g, nu)


def grad_hamiltonian(q, p, params: ModelParams):
    """Analytic partials (dPhi1/dq, dPhi1/dp) of the closed form at 1-d
    arrays.  Raises NumericalFailure for non-finite q, ChamberViolation
    for unordered q and SeparationViolation past the wall."""
    _, dh_dq, dh_dp = _q_chart(q, p, *abc_from_params(params))
    return dh_dq, dh_dp


def fd_gradient(func, point: ReducedPoint, params: ModelParams, h0: float = None):
    """Central-difference gradient with one Richardson step (h0, h0/2).

    `func(q, p, params)` takes the 8n stencil rows as two (8n, n) arrays
    (q_1 ... q_n, then p_1 ... p_n, each at +h0, -h0, +h0/2, -h0/2) and
    returns (8n,) or (8n, m) values.  Returns (df_dq, df_dp), each (n,)
    or (n, m).  If the stack raises a BCNError, the rows are replayed one
    at a time (a ReducedPoint check, then `func`), so the first failing
    row raises its own error, as in a loop over the rows.
    """
    q, p = point.q, point.p
    n = q.size
    if h0 is None:
        h0 = 1e-4 * max(1.0, float(np.max(np.abs(q))), float(np.max(np.abs(p))))
    steps = np.array([h0, -h0, h0 / 2.0, -h0 / 2.0])
    # row 4 i + k shifts coordinate i by steps[k]
    shifts = (np.eye(n)[:, None, :] * steps[:, None]).reshape(4 * n, n)
    qs = np.concatenate([q + shifts, np.broadcast_to(q, shifts.shape)])
    ps = np.concatenate([np.broadcast_to(p, shifts.shape), p + shifts])
    try:
        require_points(qs, ps)
        vals = func(qs, ps, params)
    except BCNError:
        vals = []
        for i in range(8 * n):
            require_points(qs[i:i + 1], ps[i:i + 1])
            vals.append(func(qs[i:i + 1], ps[i:i + 1], params))
        vals = np.concatenate(vals)
    f = vals.reshape(2 * n, 4, *vals.shape[1:])
    d1 = (f[:, 0] - f[:, 1]) / (2.0 * h0)
    d2 = (f[:, 2] - f[:, 3]) / (2.0 * (h0 / 2.0))
    grad = (4.0 * d2 - d1) / 3.0
    return grad[:n], grad[n:]


def poisson_bracket_fd(f, h, point: ReducedPoint, params: ModelParams,
                       h0: float = None) -> float:
    """{f, h} = (1/2) sum_i (df/dq_i dh/dp_i - df/dp_i dh/dq_i).

    Partials by `fd_gradient` (so `f` and `h` take stacks); the factor
    1/2 reflects the factor 2 in the reduced symplectic form.
    """
    fq, fp = fd_gradient(f, point, params, h0)
    hq, hp = fd_gradient(h, point, params, h0)
    return float(0.5 * (fq @ hp - fp @ hq))


#: finite-difference step of `involution_report` (with one Richardson
#: step at h/2)
BRACKET_STEP = 2.5e-4


@dataclass(frozen=True)
class InvolutionReport:
    """Worst-case |{Phi_mu, Phi_nu}| estimates over a sample of points."""

    orders: tuple
    bracket_matrix: np.ndarray
    fd_steps: tuple
    extrapolation_order: int
    worst_pair: tuple
    max_abs: float


def involution_report(params: ModelParams, point_samples,
                      max_order: int = 3) -> InvolutionReport:
    """Estimate |{Phi_mu, Phi_nu}| for mu, nu <= max_order on given points.

    The matrix entry [mu-1, nu-1] is the worst absolute bracket over the
    samples.  The step BRACKET_STEP balances the rapid growth of the higher
    traces near the separation walls (truncation) against rounding in
    the trace evaluation; the steps used are recorded in the report.
    Raises InvalidInput for max_order outside 1..4 or no points.
    """
    if max_order > 4:
        raise InvalidInput("max_order > 4 is outside the conditioned regime")
    if max_order < 1:
        raise InvalidInput(f"max_order must be at least 1, got {max_order}")
    if not point_samples:
        raise InvalidInput("involution_report needs at least one point")
    orders = tuple(range(1, max_order + 1))

    def phis(q, p, pr):
        j = inn(pr.n)
        return np.concatenate([
            np.stack([phi_from_moment(fact.g @ j @ dagger(fact.g), nu)
                      for nu in orders], axis=-1)
            for fact, _ in assemble_chunks(q, p, pr)])

    mat = np.zeros((max_order, max_order))
    for pt in point_samples:
        # row nu - 1: the gradient of Phi_nu; contiguous rows keep each
        # dot product that of a lone gradient
        dq, dp = (np.ascontiguousarray(d.T)
                  for d in fd_gradient(phis, pt, params, BRACKET_STEP))
        for i, j in combinations(range(max_order), 2):
            val = abs(0.5 * (dq[i] @ dp[j] - dp[i] @ dq[j]))
            mat[i, j] = mat[j, i] = max(mat[i, j], val)
    idx = np.unravel_index(np.argmax(mat), mat.shape)
    return InvolutionReport(orders=orders, bracket_matrix=mat,
                            fd_steps=(BRACKET_STEP, BRACKET_STEP / 2.0),
                            extrapolation_order=4,
                            worst_pair=(int(idx[0]) + 1, int(idx[1]) + 1),
                            max_abs=float(mat[idx]))


@dataclass(frozen=True)
class WeylReport:
    """Invariance of the closed form under the signed-permutation orbit."""

    ok: bool
    max_deviation: float
    orbit_size: int


def weyl_check(Sigma, p, params: ModelParams, tol: float = 1e-12) -> WeylReport:
    """Check invariance under all sign flips of Sigma_i and simultaneous
    permutations of the (Sigma_i, p_i) pairs."""
    sigma = np.atleast_1d(np.asarray(Sigma, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    n = sigma.size
    base = hamiltonian_sigma(sigma, p, params)
    scale = max(1.0, abs(base))
    worst = 0.0
    count = 0
    for perm in permutations(range(n)):
        sp, pp = sigma[list(perm)], p[list(perm)]
        for signs in product((1.0, -1.0), repeat=n):
            val = hamiltonian_sigma(np.array(signs) * sp, pp, params)
            worst = max(worst, abs(val - base) / scale)
            count += 1
    return WeylReport(ok=worst <= tol, max_deviation=worst, orbit_size=count)


def spectral_invariants(g) -> np.ndarray:
    """Eigenvalues of g J g^dag J, sorted by real part then imaginary part.

    These are conserved along the exact flow, and
    -(1/(2 nu)) sum_k lambda_k^nu = Phi_nu(g).  Real parts are quantized
    at 1e-9 relative before sorting so that conjugate pairs (whose real
    parts tie exactly) order stably across evaluations.
    """
    g = np.asarray(g, dtype=complex)
    j = inn(g.shape[0] // 2)
    vals = np.linalg.eigvals(g @ j @ g.conj().T @ j)
    scale = max(1.0, float(np.max(np.abs(vals))))
    key = np.round(vals.real / (1e-9 * scale))
    return vals[np.lexsort((vals.imag, key))]
