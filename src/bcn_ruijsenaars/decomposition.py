"""Factorization of on-surface group elements and coordinate extraction.

The inverse direction of `reconstruction`: split an arbitrary element
into its triangular/pseudo-unitary factors (both orders), split a
pseudo-unitary element into block-diagonal x hyperbolic-rotation x
block-diagonal normal form, and recover the reduced coordinates (q, p)
of an element lying on the constraint surface modulo gauge.

The master contract is the round trip

    extract_reduced(assemble(q, p), params) == (q, p mod 2pi)

together with invariance under admissible gauge transformations: right
multiplication by block-diagonal unitaries, and left multiplication by
diag(u1, u2) with u1 stabilizing the reference vector vhat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateElement, InvalidInput, NotOnConstraintSurface
from .matops import (
    frob,
    indefinite_cholesky_upper,
    indefinite_cholesky_upper_dual,
    inn,
    is_pseudo_unitary,
    rel_err,
)
from .model import ModelParams, ReducedPoint
from .reconstruction import build_Ttilde, solve_v

__all__ = [
    "KAKData",
    "decompose_KB",
    "decompose_BK",
    "cartan_KAK",
    "extract_reduced",
    "surface_residuals",
    "extract_with_residual",
]

#: residual threshold above which an element is rejected as off-surface
SURFACE_TOL = 1e-6


@dataclass(frozen=True)
class KAKData:
    """Normal form k = diag(rho_hat, tau_hat) C(Delta) diag(khat, lhat).

    C(Delta) is the hyperbolic rotation [[cosh D, sinh D], [sinh D,
    cosh D]] and Delta is strictly decreasing (open Weyl chamber).
    """

    rho_hat: np.ndarray
    tau_hat: np.ndarray
    khat: np.ndarray
    lhat: np.ndarray
    Delta: np.ndarray

    @property
    def Sigma(self) -> np.ndarray:
        return np.sinh(self.Delta)

    @property
    def Gamma(self) -> np.ndarray:
        return np.cosh(self.Delta)

    def reassemble(self) -> np.ndarray:
        g, s = np.diag(self.Gamma), np.diag(self.Sigma)
        c = np.block([[g, s], [s, g]]).astype(complex)
        left = np.block([
            [self.rho_hat, np.zeros_like(self.rho_hat)],
            [np.zeros_like(self.tau_hat), self.tau_hat]])
        right = np.block([
            [self.khat, np.zeros_like(self.khat)],
            [np.zeros_like(self.lhat), self.lhat]])
        return left @ c @ right


def decompose_KB(g):
    """Split g = k b with k pseudo-unitary and b triangular-positive.

    Computes h = g^dag J g, factors h = b^dag J b, and sets k = g b^{-1}.
    Raises NotOnLeaf (from the factorization) when g is not on the leaf.
    """
    g = np.asarray(g, dtype=complex)
    h = g.conj().T @ inn(g.shape[0] // 2) @ g
    b = indefinite_cholesky_upper(h)
    k = np.linalg.solve(b.T, g.T).T   # g b^{-1}
    return k, b


def decompose_BK(g):
    """Split g = b k, the mirror of :func:`decompose_KB`.

    Uses m = g J g^dag = b J b^dag and the dual signature factorization.
    """
    g = np.asarray(g, dtype=complex)
    m = g @ inn(g.shape[0] // 2) @ g.conj().T
    b = indefinite_cholesky_upper_dual(m)
    k = np.linalg.solve(b, g)
    return b, k


def cartan_KAK(k, tol: float = 1e-8) -> KAKData:
    """Normal form of a regular pseudo-unitary element.

    The (1,1) block A = rho_hat Gamma khat is an SVD with descending
    singular values Gamma_i; regularity requires them distinct and > 1.
    The remaining frames follow from the other blocks.  Raises
    DegenerateElement at collisions, InvalidInput if k is not
    pseudo-unitary.
    """
    k = np.asarray(k, dtype=complex)
    n = k.shape[0] // 2
    if not is_pseudo_unitary(k, tol=tol):
        raise InvalidInput("cartan_KAK: input is not pseudo-unitary")
    a, c, d = k[:n, :n], k[n:, :n], k[n:, n:]
    rho_hat, gamma, khat_dag = np.linalg.svd(a)
    khat = khat_dag  # numpy returns V^dag, which is exactly khat
    scale = max(1.0, gamma[0])
    if gamma[-1] <= 1.0 + 1e-12 * scale:
        raise DegenerateElement(f"unit radial singular value: Gamma = {gamma}")
    if np.any(np.diff(gamma) > -1e-12 * scale):
        raise DegenerateElement(f"coinciding radial singular values: Gamma = {gamma}")
    # c khat^dag = tau_hat Sigma: its column norms give Sigma without the
    # cancellation of sqrt(Gamma^2 - 1) at Gamma ~ 1 (q far below 0)
    c_k = c @ khat.conj().T
    sigma = np.linalg.norm(c_k, axis=0)
    tau_hat = c_k / sigma[None, :]
    lhat = (tau_hat.conj().T @ d) / gamma[:, None]
    delta = np.arcsinh(sigma)
    return KAKData(rho_hat=rho_hat, tau_hat=tau_hat, khat=khat, lhat=lhat,
                   Delta=delta)


def extract_reduced(g, params: ModelParams, tol: float = SURFACE_TOL) -> ReducedPoint:
    """Recover (q, p) from an element on the constraint surface modulo gauge.

    Pipeline: KB-split, radial normal form of the pseudo-unitary factor,
    gauge normalization by explicit block-diagonal multiplications,
    residual torus fixing against the non-negative gauge of vtilde, and
    phase read-off from T Ttilde^T.  Raises NotOnConstraintSurface when a
    step residual exceeds `tol`, DegenerateElement at collisions.
    """
    return _extract(g, params, tol)[0]


def _extract(g, params: ModelParams, tol: float):
    """extract_reduced, and the KB split (g, k_L, b_R) it was read from."""
    g = np.asarray(g, dtype=complex)
    n = params.n
    if g.shape != (2 * n, 2 * n):
        raise InvalidInput(f"expected shape {(2*n, 2*n)}, got {g.shape}")
    x = params.x

    k_L, b_R = decompose_KB(g)
    bad = max(rel_err(b_R[:n, :n], x * np.eye(n)),
              rel_err(b_R[n:, n:], np.eye(n) / x))
    if bad > tol:
        raise NotOnConstraintSurface(
            f"right factor diagonal blocks off by {bad:.2e}")

    kak = cartan_KAK(k_L)
    Sigma = kak.Sigma
    q = np.log(Sigma)

    # gauge-normalize: after this, the pseudo-unitary factor of g_norm is
    # (rho_hat Gamma, rho_hat Sigma; Sigma, Gamma) and its lower-right
    # block is Omega conjugated by the residual torus
    left = np.block([
        [np.eye(n), np.zeros((n, n))],
        [np.zeros((n, n)), kak.tau_hat.conj().T]]).astype(complex)
    right = np.block([
        [kak.khat.conj().T, np.zeros((n, n))],
        [np.zeros((n, n)), kak.lhat.conj().T]]).astype(complex)
    g_norm = left @ g @ right

    Lambda = np.sqrt(params.y ** 2 + params.x ** 2 * Sigma ** 2)
    T = g_norm[n:, n:] / Lambda[:, None]
    if rel_err(T.conj().T @ T, np.eye(n)) > tol:
        raise NotOnConstraintSurface("lower-right block is not Lambda-unitary")

    # residual torus: align the first row of rho_hat with the
    # non-negative gauge of vtilde
    v = solve_v(Sigma, params.alpha)
    vtilde = v / Sigma
    w = np.sqrt(float(vtilde @ vtilde)) * kak.rho_hat[0, :].conj()
    if np.max(np.abs(np.abs(w) - vtilde)) > tol * max(1.0, float(np.max(vtilde))):
        raise NotOnConstraintSurface("vtilde misaligned with the reference gauge")
    delta = w / np.abs(w)
    T = delta.conj()[:, None] * T * delta[None, :]

    Ttilde = build_Ttilde(Sigma, params.alpha, v)
    D = T @ Ttilde.T
    off = D - np.diag(np.diagonal(D))
    if frob(off) > 1e-8 * max(1.0, frob(D)):
        raise NotOnConstraintSurface("phase matrix has off-diagonal content")
    p = np.angle(np.diagonal(D))
    return ReducedPoint(q=q, p=p), (g, k_L, b_R)


def surface_residuals(g, params: ModelParams) -> dict:
    """Gauge-invariant constraint-surface residuals of an arbitrary element.

    Checks the diagonal blocks of both triangular factors, pseudo-
    unitarity of the left factor, the spectrum of the reference momentum
    value, and the determinant.  Factorization errors propagate.
    """
    g = np.asarray(g, dtype=complex)
    return _residuals(g, *decompose_KB(g), params)


def _residuals(g, k_L, b_R, params: ModelParams) -> dict:
    n = params.n
    x, y, alpha = params.x, params.y, params.alpha
    J = inn(n)
    res = {}

    res["bR_block_11"] = rel_err(b_R[:n, :n], x * np.eye(n))
    res["bR_block_22"] = rel_err(b_R[n:, n:], np.eye(n) / x)
    res["kL_pseudounitary"] = rel_err(k_L.conj().T @ J @ k_L, J)

    b_L = indefinite_cholesky_upper_dual(g @ J @ g.conj().T)
    res["bL_block_22"] = rel_err(b_L[n:, n:], y * np.eye(n))
    sig = y * b_L[:n, :n]
    spec = np.sort(np.linalg.eigvalsh(sig @ sig.conj().T))
    target = np.sort(np.concatenate([
        [alpha ** 2 + params.vhat_norm_sq], np.full(n - 1, alpha ** 2)]))
    res["kks_spectrum"] = float(np.max(np.abs(spec - target))) / max(1.0, target[-1])
    # the exact flow multiplies det g by a unimodular central phase
    # (exp(4 i Phi_1 t)); the surface content is insensitive to it, so
    # only the modulus is checked here
    res["g_det_modulus"] = abs(abs(np.linalg.det(g)) - 1.0)
    return res


def extract_with_residual(g, params: ModelParams):
    """(extract_reduced(g, params), max of surface_residuals(g, params)),
    from one KB split; the extraction runs first, so its errors come first."""
    point, split = _extract(g, params, SURFACE_TOL)
    return point, max(_residuals(*split, params).values())
