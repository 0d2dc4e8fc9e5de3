"""Reconstruction of the constrained group element from reduced coordinates.

Given a reduced point (q, p) and model parameters, this module rebuilds
the full 2n x 2n group element together with every intermediate of the
constraint analysis:

* the non-negative vector v from the residue formula of the determinant
  identity det(Sigma^2 - l) / det(alpha^2 Sigma^2 - l) = 1 + v^T (alpha^2
  Sigma^2 - l)^{-1} v,
* the real orthogonal frame Ttilde whose rows are the normalized vectors
  (Sigma_i^2 - alpha^2 Sigma^2)^{-1} v,
* the reference momentum data sigma (diagonal, det 1) and the rotation
  rho aligning vtilde = Sigma^{-1} v with vhat = |vtilde| e_1,
* the unitary T = P Ttilde with P = exp(i p), the blocks Omega, omega,
  nu, and the two triangular/pseudo-unitary factorizations
  g = k_L b_R = b_L k_R.

Everything here also runs on stacks: `assemble_stack` takes (T, n)
arrays q and p, and every field of its records then has the leading T
axis.  `constraint_residuals` (every invariant, never raising on a bad
residual) runs it with the residuals through `matops.map_chunks`.
`assemble` and `verify_constraints`, the one-point calls of the same code,
give a point the bits of its row (tests/test_one_point_layer.py).  A
failing check names the first failing row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ChamberViolation,
    InternalInconsistency,
    NumericalFailure,
    SeparationViolation,
)
from .matops import (chunk_rows, dagger, frob, inn, j_gram, j_moment, map_chunks,
                     rel_err)
from .model import (CartanData, ModelParams, ReducedPoint, _one_shape, cartan_from_q,
                    require_decreasing, require_points)

__all__ = [
    "ConstraintData",
    "LeafFactorization",
    "ConstraintReport",
    "solve_v",
    "build_Ttilde",
    "build_sigma_rho",
    "assemble_stack",
    "assemble",
    "constraint_residuals",
    "constraint_report",
    "verify_constraints",
]


@dataclass(frozen=True)
class ConstraintData:
    """Intermediates of the constraint solution at one reduced point (or
    at each point of a stack: every field then has the leading axis)."""

    cartan: CartanData
    v: np.ndarray          # non-negative, from the residue formula
    vtilde: np.ndarray     # Sigma^{-1} v
    vhat: np.ndarray       # |vtilde| e_1 (reference gauge)
    Ttilde: np.ndarray     # real orthogonal, rows are the normalized frame vectors
    phases: np.ndarray     # diagonal of P = exp(i p)
    T: np.ndarray          # P Ttilde
    Omega: np.ndarray      # Lambda T
    omega: np.ndarray      # Sigma^{-1} (Omega - x^{-1} Gamma)
    nu: np.ndarray         # rho Sigma^{-1} (y^2 Gamma - x^{-1} Omega^dag)
    rho: np.ndarray        # real special orthogonal, rho vtilde = vhat
    sigma: np.ndarray      # diag(alpha^{1-n}, alpha, ..., alpha)


@dataclass(frozen=True)
class LeafFactorization:
    """The quadruple (k_L, b_R, b_L, k_R) and the element g they factor
    (or a stack of them)."""

    g: np.ndarray
    k_L: np.ndarray
    b_R: np.ndarray
    b_L: np.ndarray
    k_R: np.ndarray

    @property
    def n(self) -> int:
        return self.g.shape[-1] // 2


def solve_v(Sigma, alpha: float) -> np.ndarray:
    """Solve for v from the residue of the determinant identity.

    v_k^2 = prod_i (Sigma_i^2 - alpha^2 Sigma_k^2) /
            prod_{j != k} alpha^2 (Sigma_j^2 - Sigma_k^2)

    Sigma may also be a (T, n) stack of rows, giving one v per row; an
    error names the first failing row.  Sigma must pass `require_decreasing`
    and be positive (ChamberViolation).  Raises NumericalFailure on a
    non-finite v_k^2, SeparationViolation when any v_k^2 is not strictly
    positive, which happens exactly when the pairwise separation condition
    fails.
    """
    sigma, = require_decreasing(Sigma=Sigma)
    if not np.all(sigma > 0.0):
        raise ChamberViolation("Sigma must be positive")
    s = sigma ** 2
    a2 = alpha ** 2
    # one ratio per factor: raw products of Sigma^2 terms overflow at n ~ 24
    # where v^2 is moderate; the i = k numerator factor stands alone
    den = a2 * (s[..., :, None] - s[..., None, :])
    n = s.shape[-1]
    den.reshape(-1, n * n)[:, ::n + 1] = 1.0      # den[..., k, k] = 1
    v2 = np.prod((s[..., :, None] - a2 * s[..., None, :]) / den, axis=-2)
    if not np.all(np.isfinite(v2)):
        raise NumericalFailure(f"non-finite v^2 = {_first_row(v2, ~np.isfinite(v2))}")
    if not np.all(v2 > 0.0):
        raise SeparationViolation(
            f"non-positive radicand in v^2 = {_first_row(v2, ~(v2 > 0.0))}")
    return np.sqrt(v2)


def _first_row(a, bad):
    """The first row of a (T, n) stack with a bad entry (a vector: itself)."""
    return np.atleast_2d(a)[np.argmax(np.atleast_2d(bad).any(axis=-1))]


def build_Ttilde(Sigma, alpha: float, v) -> np.ndarray:
    """Real orthogonal Ttilde with rows prop. to (Sigma_i^2 - alpha^2 Sigma^2)^{-1} v.

    The rows are normalized with a positive factor, so the diagonal of
    Ttilde is positive and the matrix is uniquely determined.  It
    satisfies Ttilde^T Sigma^2 Ttilde = alpha^2 Sigma^2 + v v^T.  A (T, n)
    stack of Sigma and v rows gives a (T, n, n) stack.  Sigma and v are
    checked by `require_decreasing`.
    """
    sigma, v = require_decreasing(Sigma=Sigma, v=v)
    s = sigma ** 2
    denom = s[..., :, None] - alpha ** 2 * s[..., None, :]
    if np.any(denom == 0.0):
        raise SeparationViolation("Sigma_i^2 = alpha^2 Sigma_j^2: separation boundary")
    that = v[..., None, :] / denom
    return that / np.linalg.norm(that, axis=-1)[..., None]


def _dot(a, b):
    """Row-wise dot product of two stacks of vectors, as (1 x n)(n x 1)
    products: for one row, the bits of `a @ b`."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def build_sigma_rho(cdata: CartanData, v, params: ModelParams):
    """Reference momentum data: (sigma, rho, vhat).

    vhat is pinned to |vtilde| e_1, for which the upper-triangular factor
    of alpha^2 I + vhat vhat^dag is the diagonal sigma =
    diag(alpha^{1-n}, alpha, ..., alpha) with det sigma = 1.  rho is the
    real special orthogonal map sending vtilde to vhat (a Householder
    reflection composed with a sign flip to land in SO(n)).  A (T, n)
    stack of v rows (with the chart of the same rows) gives stacks of all
    three.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    n = v.shape[-1]
    vtilde = v / cdata.Sigma
    norm_sq = _dot(vtilde, vtilde)
    bad = np.abs(norm_sq - params.vhat_norm_sq) > 1e-8 * max(1.0, params.vhat_norm_sq)
    if np.any(bad):
        raise InternalInconsistency(f"|vtilde|^2 = {np.extract(bad, norm_sq)[0]} "
                                    f"vs expected {params.vhat_norm_sq}")
    vhat = np.zeros_like(vtilde)
    vhat[..., 0] = np.sqrt(norm_sq)
    idx = np.arange(n)
    sigma = np.zeros(v.shape + (n,))
    sigma[..., idx, idx] = np.concatenate([[params.alpha ** (1 - n)],
                                           np.full(n - 1, params.alpha)])
    # w = vtilde + |vtilde| e_1 never suffers cancellation (vtilde_1 > 0);
    # the reflection along w sends vtilde to -vhat, the sign flip of the
    # first row fixes both the image and the determinant.
    w = vtilde + vhat
    rho = np.eye(n) - 2.0 * (w[..., :, None] * w[..., None, :]) \
        / _dot(w, w)[..., None, None]
    rho[..., 0, :] = -rho[..., 0, :]
    return sigma, rho, vhat


def assemble_stack(q, p, params: ModelParams):
    """Build the constrained elements at each row of (T, n) arrays q and p
    (or at one point, from vectors q and p).

    Returns (LeafFactorization, ConstraintData).  Raises as
    `require_points` does, and SeparationViolation past the wall.
    """
    q, p = require_points(q, p, params.n)
    x, y, n = params.x, params.y, params.n
    cdata = cartan_from_q(q, params)
    Sigma, Gamma, Lambda = cdata.Sigma, cdata.Gamma, cdata.Lambda

    v = solve_v(Sigma, params.alpha)
    Ttilde = build_Ttilde(Sigma, params.alpha, v)
    sigma, rho, vhat = build_sigma_rho(cdata, v, params)
    vtilde = v / Sigma

    # diag(Gamma) as Gamma times the identity: the entries of np.diag for
    # the finite Gamma that `solve_v` lets through
    eye = np.eye(n)
    diag_gamma = Gamma[..., None] * eye
    phases = np.exp(1j * p)
    T = phases[..., :, None] * Ttilde
    Omega = Lambda[..., :, None] * T
    omega = (Omega - x ** -1 * diag_gamma) / Sigma[..., :, None]
    nu = rho @ ((y ** 2 * diag_gamma.astype(complex) - x ** -1 * dagger(Omega))
                / Sigma[..., :, None])

    idx = np.arange(n)
    k_L = np.zeros(Sigma.shape[:-1] + (2 * n, 2 * n), dtype=complex)
    k_L[..., :n, :n] = rho * Gamma[..., None, :]
    k_L[..., :n, n:] = rho * Sigma[..., None, :]
    k_L[..., n + idx, idx] = Sigma
    k_L[..., n + idx, n + idx] = Gamma
    b_R = np.zeros_like(k_L)
    b_R[..., idx, idx] = x
    b_R[..., n + idx, n + idx] = 1.0 / x
    b_R[..., :n, n:] = omega
    b_L = np.zeros_like(k_L)
    b_L[..., :n, :n] = sigma / y
    b_L[..., n + idx, n + idx] = y
    b_L[..., :n, n:] = nu / y
    g = k_L @ b_R
    k_R = np.linalg.solve(b_L, g)

    fact = LeafFactorization(g=g, k_L=k_L, b_R=b_R, b_L=b_L, k_R=k_R)
    data = ConstraintData(cartan=cdata, v=v, vtilde=vtilde, vhat=vhat,
                          Ttilde=Ttilde, phases=phases, T=T, Omega=Omega,
                          omega=omega, nu=nu, rho=rho, sigma=sigma)
    return fact, data


def assemble(point: ReducedPoint, params: ModelParams):
    """The constrained element at a reduced point: the one-point call of
    `assemble_stack`, with its records and errors."""
    return assemble_stack(point.q, point.p, params)


@dataclass(frozen=True)
class ConstraintReport:
    """Named residuals for every invariant of the construction."""

    residuals: dict
    max_residual: float
    tol: float
    ok: bool
    violated: tuple

    def worst(self):
        name = list(self.residuals)[int(np.argmax(list(self.residuals.values())))]
        return name, self.residuals[name]


def constraint_report(residuals: dict, tol: float) -> ConstraintReport:
    """The report at `tol` of a mapping from name to worst residual.  The
    largest is taken by `np.max`, so a NaN is the largest: it fails, and
    `worst` names the first NaN, else the first largest residual."""
    res = {name: float(r) for name, r in residuals.items()}
    max_res = float(np.max(list(res.values())))
    return ConstraintReport(residuals=res, max_residual=max_res, tol=tol, ok=max_res < tol,
                            violated=tuple(k for k, r in res.items() if not r < tol))


def _residuals(fact: LeafFactorization, cdata: ConstraintData,
               params: ModelParams) -> dict:
    """Named residual of every invariant, one value per point of a stack.

    |det - 1| is taken by hypot, the complex abs of one number: numpy's
    vectorized complex abs rounds differently.  The products with J and
    with the diagonal matrices Sigma^2 and sigma sigma^dag scale rows or
    columns instead.
    """
    n = params.n
    x, y, alpha = params.x, params.y, params.alpha
    J = inn(n)
    eye = np.eye(n)
    Sigma, Lambda = cdata.cartan.Sigma, cdata.cartan.Lambda
    sq = Sigma ** 2
    s2 = sq[..., None] * eye
    T, Ttilde, v, vhat = cdata.T, cdata.Ttilde, cdata.v, cdata.vhat
    rho, sig = cdata.rho, cdata.sigma
    ssdag = sig @ dagger(sig)
    ss = np.diagonal(ssdag, axis1=-2, axis2=-1)     # sigma is diagonal, so is ssdag
    TsT = (dagger(T) * sq[..., None, :]) @ T

    res = {}
    res["v_nonnegative"] = np.maximum(0.0, -np.min(v, axis=-1))
    res["vtilde_norm"] = np.abs(_dot(cdata.vtilde, cdata.vtilde)
                                - params.vhat_norm_sq) / max(1.0, params.vhat_norm_sq)
    res["Ttilde_real"] = frob(np.imag(Ttilde)) if np.iscomplexobj(Ttilde) \
        else np.zeros(v.shape[:-1])
    res["Ttilde_orthogonal"] = rel_err(np.real(Ttilde).swapaxes(-1, -2)
                                       @ np.real(Ttilde), eye)
    res["T_constraint"] = rel_err(TsT, alpha ** 2 * s2
                                  + v[..., :, None] * v[..., None, :])
    res["Omega_polar"] = rel_err(cdata.Omega @ dagger(cdata.Omega),
                                 (Lambda ** 2)[..., None] * eye)
    res["kks_element"] = rel_err(ssdag, alpha ** 2 * eye
                                 + vhat[..., :, None] * vhat[..., None, :])
    det = np.linalg.det(sig) - 1.0
    res["sigma_det"] = np.hypot(det.real, det.imag)
    res["rho_orthogonal"] = rel_err(rho.swapaxes(-1, -2) @ rho, eye)
    res["rho_maps_vtilde"] = frob(rho @ cdata.vtilde[..., None] - vhat[..., None]) \
        / np.maximum(1.0, frob(vhat[..., None]))
    res["momentum_constraint"] = rel_err(
        TsT, Sigma[..., :, None] * ((rho.swapaxes(-1, -2) * ss[..., None, :]) @ rho)
        * Sigma[..., None, :])

    g, k_L, k_R, b_L, b_R = fact.g, fact.k_L, fact.k_R, fact.b_L, fact.b_R
    res["leaf_left"] = rel_err(k_L @ b_R, g)
    res["leaf_right"] = rel_err(b_L @ k_R, g)
    res["kL_pseudounitary"] = rel_err(j_gram(k_L), J)
    res["kR_pseudounitary"] = rel_err(j_gram(k_R), J)

    bR_target = b_R.copy()
    bR_target[..., :n, :n] = x * eye
    bR_target[..., n:, n:] = eye / x
    bR_target[..., n:, :n] = 0.0
    res["bR_structure"] = rel_err(b_R, bR_target)
    bL_target = b_L.copy()
    bL_target[..., :n, :n] = sig / y
    bL_target[..., n:, n:] = y * eye
    bL_target[..., n:, :n] = 0.0
    res["bL_structure"] = rel_err(b_L, bL_target)

    det = np.linalg.det(g) - 1.0
    res["g_det"] = np.hypot(det.real, det.imag)
    gJg = j_moment(g)
    res["momentum_block_22"] = rel_err(gJg[..., n:, n:], -y ** 2 * eye)
    res["momentum_block_12"] = rel_err(gJg[..., :n, n:], -cdata.nu)
    return res


def constraint_residuals(q, p, params: ModelParams) -> dict:
    """The residuals of `verify_constraints` at each row of (T, n) arrays
    q and p (a point is one row), as (T,) arrays, by `matops.map_chunks` at
    `chunk_rows(2n)`: the first failing row raises its `assemble_stack` error."""
    q, p = np.atleast_2d(*_one_shape(q=q, p=p))
    return map_chunks(lambda q, p: _residuals(*assemble_stack(q, p, params), params),
                      chunk_rows(2 * params.n), q, p)


def verify_constraints(fact: LeafFactorization, cdata: ConstraintData,
                       params: ModelParams, tol: float = 1e-10) -> ConstraintReport:
    """Residual report for every invariant at one point, by the residual
    routine of `constraint_residuals`; a pure report, never raises."""
    return constraint_report(_residuals(fact, cdata, params), tol)
