"""Factorization of on-surface group elements and coordinate extraction.

The inverse direction of `reconstruction`: split an arbitrary element
into its triangular/pseudo-unitary factors (both orders), split a
pseudo-unitary element into block-diagonal x hyperbolic-rotation x
block-diagonal normal form, and recover the reduced coordinates (q, p)
of an element lying on the constraint surface modulo gauge.

The master contract is the round trip, row by row of (T, n) arrays q, p,

    reduce_stack(assemble_stack(q, p, params)[0].g, params)[:2] == (q, p mod 2pi)

together with invariance under admissible gauge transformations: right
multiplication by block-diagonal unitaries, and left multiplication by
diag(u1, u2) with u1 stabilizing the reference vector vhat.

Everything here runs on stacks (T, 2n, 2n) of elements: `reduce_stack`
makes one KB split of the stack, reads (q, p) off it and then computes
the surface residuals, each stage as stacked numpy/LAPACK calls.  A
check fails when it fails for any element; its error names the first
such element, so on a stack of one it is exactly the error of that
element.  The splits' own products (g^dag J g, g J g^dag, the factor k)
fail an input test only by rounding, which grows with cond(g), so that
is NotOnLeaf, as is a failed signature Cholesky of them; both name the
split.  The signature J acts as `matops.signs`, a scaling of rows
or columns (see `matops`); the outputs are those of the dense products.
`extract_reduced` and `surface_residuals`, the stack-of-one calls, check
g by `matops.require_element` (tests/test_one_point_layer.py); `project_flow`
runs `reduce_stack` through `matops.map_chunks`.  Each element gets the
arithmetic it gets alone, so q, p, the residuals and the moment value
do not depend on the stack it is in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateElement, InvalidInput, NotOnConstraintSurface, NotOnLeaf
from .matops import (
    as_signature_input,
    dagger,
    frob,
    indefinite_cholesky_upper,
    indefinite_cholesky_upper_dual,
    inn,
    is_pseudo_unitary,
    j_gram,
    j_moment,
    rel_err,
    require_element,
)
from .model import ModelParams, ReducedPoint, require_points
from .reconstruction import build_Ttilde, solve_v

__all__ = [
    "KAKData",
    "decompose_KB",
    "decompose_BK",
    "cartan_KAK",
    "reduce_stack",
    "extract_reduced",
    "surface_residuals",
]

#: residual threshold above which an element is rejected as off-surface
SURFACE_TOL = 1e-6


@dataclass(frozen=True)
class KAKData:
    """Normal form k = diag(rho_hat, tau_hat) C(Delta) diag(khat, lhat).

    C(Delta) is the hyperbolic rotation [[cosh D, sinh D], [sinh D,
    cosh D]] and Delta is strictly decreasing (open Weyl chamber).  For a
    stack of elements every field has the stack's leading axes.
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
        eye = np.eye(self.Delta.shape[-1])
        g, s = self.Gamma[..., None, :] * eye, self.Sigma[..., None, :] * eye
        c = np.block([[g, s], [s, g]]).astype(complex)
        zero = np.zeros_like(self.rho_hat)
        left = np.block([[self.rho_hat, zero], [zero, self.tau_hat]])
        right = np.block([[self.khat, zero], [zero, self.lhat]])
        return left @ c @ right


def _own(split: str, decompose, product):
    """`decompose` of the split's own product, whose failed input test is
    rounding: that InvalidInput and a failed signature Cholesky are both
    NotOnLeaf, prefixed with the split's name ("KB split: ...")."""
    try:
        return decompose(product)
    except (InvalidInput, NotOnLeaf) as exc:
        raise NotOnLeaf(f"{split}: {exc}") from None


def decompose_KB(g):
    """Split g = k b with k pseudo-unitary and b triangular-positive.

    Computes h = g^dag J g, factors h = b^dag J b, and sets k = g b^{-1}.
    Raises NotOnLeaf when g is not on the leaf (see `_own`), and
    InvalidInput unless g is a 2n x 2n matrix or a stack of them, or when
    it has a non-finite entry.
    """
    g = as_signature_input(g, "g")
    b = _own("KB split", indefinite_cholesky_upper, j_gram(g))
    k = np.linalg.solve(b.swapaxes(-1, -2), g.swapaxes(-1, -2)).swapaxes(-1, -2)  # g b^{-1}
    return k, b


def decompose_BK(g):
    """Split g = b k, the mirror of :func:`decompose_KB`.

    Uses m = g J g^dag = b J b^dag and the dual signature factorization;
    raises as `decompose_KB` does.
    """
    g = as_signature_input(g, "g")
    b = _own("BK split", indefinite_cholesky_upper_dual, j_moment(g))
    k = np.linalg.solve(b, g)
    return b, k


def cartan_KAK(k) -> KAKData:
    """Normal form of a regular pseudo-unitary element (or of each element
    of a stack).

    The (1,1) block A = rho_hat Gamma khat is an SVD with descending
    singular values Gamma_i; regularity requires them distinct and > 1.
    The remaining frames follow from the other blocks.  Raises
    DegenerateElement at collisions, InvalidInput if k is not a finite
    2n x 2n matrix or a stack of them, or not pseudo-unitary.
    """
    k = as_signature_input(k, "k")
    n = k.shape[-1] // 2
    if not is_pseudo_unitary(k, tol=1e-8):
        raise InvalidInput("cartan_KAK: input is not pseudo-unitary")
    a, c, d = k[..., :n, :n], k[..., n:, :n], k[..., n:, n:]
    rho_hat, gamma, khat = np.linalg.svd(a)   # numpy's V^dag is exactly khat
    rows = gamma.reshape(-1, n)
    scale = np.maximum(1.0, rows[:, 0])
    failed = rows[:, -1] <= 1.0 + 1e-12 * scale
    if np.any(failed):
        raise DegenerateElement(
            f"unit radial singular value: Gamma = {rows[np.argmax(failed)]}")
    failed = np.any(np.diff(rows, axis=1) > -1e-12 * scale[:, None], axis=1)
    if np.any(failed):
        raise DegenerateElement(
            f"coinciding radial singular values: Gamma = {rows[np.argmax(failed)]}")
    # c khat^dag = tau_hat Sigma: its column norms give Sigma without the
    # cancellation of sqrt(Gamma^2 - 1) at Gamma ~ 1 (q far below 0)
    c_k = c @ dagger(khat)
    sigma = np.linalg.norm(c_k, axis=-2)
    tau_hat = c_k / sigma[..., None, :]
    lhat = (dagger(tau_hat) @ d) / gamma[..., :, None]
    delta = np.arcsinh(sigma)
    return KAKData(rho_hat=rho_hat, tau_hat=tau_hat, khat=khat, lhat=lhat,
                   Delta=delta)


def _split(g, params: ModelParams):
    """The pseudo-unitary factor k_L of the KB split of a stack of
    elements, and the relative errors of the diagonal blocks of its
    triangular factor b_R against diag(x, 1/x), one value per element."""
    n, x = params.n, params.x
    eye = np.eye(n)
    k_L, b_R = decompose_KB(g)
    return k_L, {"bR_block_11": rel_err(b_R[:, :n, :n], x * eye),
                 "bR_block_22": rel_err(b_R[:, n:, n:], eye / x)}


def _read_stack(g, k_L, blocks, params: ModelParams):
    """(q, p), each (T, n), of a stack of elements, from its `_split`.

    Radial normal form of the pseudo-unitary factor, the gauge-normalized
    block T = tau_hat^dag g_22 lhat^dag / Lambda (the only block of the
    normalized element that is read), residual torus fixing against the
    non-negative gauge of vtilde, and phase read-off from T Ttilde^T.
    The rows are checked by `require_points`; the first failing row
    raises its error.
    """
    n = params.n
    eye = np.eye(n)
    bad = np.maximum(blocks["bR_block_11"], blocks["bR_block_22"])
    failed = bad > SURFACE_TOL
    if np.any(failed):
        raise NotOnConstraintSurface(
            f"right factor diagonal blocks off by {bad[np.argmax(failed)]:.2e}")

    kak = _own("KB split", cartan_KAK, k_L)
    Sigma = kak.Sigma
    q = np.log(Sigma)

    # gauge-normalize: the lower-right block of diag(I, tau_hat^dag) g
    # diag(khat^dag, lhat^dag) is Lambda Omega, Omega conjugated by the
    # residual torus
    Lambda = np.sqrt(params.y ** 2 + params.x ** 2 * Sigma ** 2)
    T = dagger(kak.tau_hat) @ g[:, n:, n:] @ dagger(kak.lhat) / Lambda[:, :, None]
    if np.any(rel_err(dagger(T) @ T, eye) > SURFACE_TOL):
        raise NotOnConstraintSurface("lower-right block is not Lambda-unitary")

    # residual torus: align the first row of rho_hat with the
    # non-negative gauge of vtilde
    v = solve_v(Sigma, params.alpha)
    vtilde = v / Sigma
    # |vtilde| by a (1 x n)(n x 1) product: the dot product `vtilde @ vtilde`
    # of one row, bit for bit
    w = (np.sqrt(vtilde[:, None, :] @ vtilde[:, :, None])[:, 0]
         * kak.rho_hat[:, 0, :].conj())
    if np.any(np.max(np.abs(np.abs(w) - vtilde), axis=-1)
              > SURFACE_TOL * np.maximum(1.0, np.max(vtilde, axis=-1))):
        raise NotOnConstraintSurface("vtilde misaligned with the reference gauge")
    delta = w / np.abs(w)
    T = delta.conj()[:, :, None] * T * delta[:, None, :]

    D = T @ build_Ttilde(Sigma, params.alpha, v).swapaxes(-1, -2)
    if np.any(frob(D * ~np.eye(n, dtype=bool))
              > 1e-8 * np.maximum(1.0, frob(D))):
        raise NotOnConstraintSurface("phase matrix has off-diagonal content")
    p = np.angle(np.diagonal(D, axis1=-2, axis2=-1))
    require_points(q, p)
    return q, p


def _residual_stack(g, k_L, blocks, params: ModelParams):
    """Named residuals, one value per element, from its `_split`, and the
    moment value m = g J g^dag = b_L J b_L^dag they were read from."""
    n = params.n
    y, alpha = params.y, params.alpha
    eye = np.eye(n)
    res = dict(blocks)
    res["kL_pseudounitary"] = rel_err(j_gram(k_L), inn(n))

    m = j_moment(g)
    b_L = _own("BK split", indefinite_cholesky_upper_dual, m)
    res["bL_block_22"] = rel_err(b_L[:, n:, n:], y * eye)
    sig = y * b_L[:, :n, :n]
    spec = np.sort(np.linalg.eigvalsh(sig @ dagger(sig)), axis=-1)
    target = np.sort(np.concatenate([
        [alpha ** 2 + params.vhat_norm_sq], np.full(n - 1, alpha ** 2)]))
    res["kks_spectrum"] = np.max(np.abs(spec - target), axis=-1) / max(1.0, target[-1])
    # the exact flow multiplies det g by a unimodular central phase
    # (exp(4 i Phi_1 t)); the surface content is insensitive to it, so
    # only the modulus is checked here (hypot: the complex abs of one
    # number; numpy's vectorized complex abs rounds differently)
    det = np.linalg.det(g)
    res["g_det_modulus"] = np.abs(np.hypot(det.real, det.imag) - 1.0)
    return res, m


def reduce_stack(g, params: ModelParams):
    """Reduced points, worst surface residuals and moment values of a
    stack (T, 2n, 2n) of elements, from one KB split.

    Returns (q, p, residual, m): the (T, n) positions and angles, the (T,)
    maxima of `surface_residuals`, and the (T, 2n, 2n) stack of
    m = g J g^dag.  The extraction runs first, so its errors come first.
    """
    g = np.asarray(g, dtype=complex)
    k_L, blocks = _split(g, params)
    q, p = _read_stack(g, k_L, blocks, params)
    res, m = _residual_stack(g, k_L, blocks, params)
    return q, p, np.max(list(res.values()), axis=0), m


def extract_reduced(g, params: ModelParams) -> ReducedPoint:
    """Recover (q, p) from an element on the constraint surface modulo gauge.

    Pipeline: KB-split, radial normal form of the pseudo-unitary factor,
    gauge normalization, residual torus fixing against the non-negative
    gauge of vtilde, and phase read-off from T Ttilde^T.  Raises
    NotOnConstraintSurface when a step residual exceeds SURFACE_TOL,
    DegenerateElement at collisions.
    """
    g = require_element(g, n=params.n)[None]
    q, p = _read_stack(g, *_split(g, params), params)
    return ReducedPoint(q=q[0], p=p[0])


def surface_residuals(g, params: ModelParams) -> dict:
    """Gauge-invariant constraint-surface residuals of an arbitrary element.

    Checks the diagonal blocks of both triangular factors, pseudo-
    unitarity of the left factor, the spectrum of the reference momentum
    value, and the determinant.  Factorization errors propagate.
    """
    g = require_element(g, n=params.n)[None]
    res, _ = _residual_stack(g, *_split(g, params), params)
    return {name: float(r[0]) for name, r in res.items()}
