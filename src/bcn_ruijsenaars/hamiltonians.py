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

`hamiltonian_q`, `grad_hamiltonian` and the reduced ODE's stages share
one kernel, `_q_chart`, which checks the chart and runs in Python
floats: one loop over the pairs builds each factor 1 - c^2 / (4
sinh^2(q_i - q_k)) once.  It takes the state z = q + p as one list and
returns H with the vector field (scale dH/dp, -scale dH/dq) in z's
order, each entry scaled where it is computed: at the flow's scale an
RK stage is one kernel call, and at scale 1 the gradient is read off
exactly.  Up to n = 8 that is faster than numpy's calls on arrays of 1
to 64 entries; being O(n^2) in the interpreter, it is slower from about
n = 10.  The rest runs on stacks: `hamiltonian_sigma`,
the independent Sigma-chart form, on (T, n) points (`weyl_check`'s
orbit is one stack, and the limit's scales are one stack with each row's
own parameters), and `fd_gradient` and `involution_report` on (P, n)
points: the 8n stencil rows of each point of a chunk form one stack.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .errors import (ChamberViolation, InvalidInput, NumericalFailure,
                     SeparationViolation)
from .model import (ModelParams, ReducedPoint, abc_from_params, require_finite,
                    require_points)
from .matops import as_signature_input, chunk_rows, j_moment, map_chunks, signs
from .reconstruction import _dot, assemble, assemble_stack

__all__ = [
    "phi_trace",
    "phi_from_moment",
    "hamiltonian_sigma",
    "hamiltonian_q",
    "phi_reduced",
    "grad_hamiltonian",
    "fd_gradient",
    "InvolutionReport",
    "involution_report",
    "WeylReport",
    "weyl_check",
    "spectral_invariants",
]


def _one_element(g, name: str = "g") -> np.ndarray:
    """g as one finite complex 2n x 2n matrix, else InvalidInput naming
    `name`."""
    g = as_signature_input(g, name)
    if g.ndim > 2:
        raise InvalidInput(f"{name} must be one matrix, got shape {g.shape}")
    return g


def phi_trace(g, nu: int) -> float:
    """Phi_nu(g) = -(1/(2 nu)) tr (g J g^dag J)^nu.

    The trace is provably real; an imaginary residue above 1e-8 raises
    NumericalFailure, smaller residues are discarded.  Raises InvalidInput
    unless g is one finite 2n x 2n matrix.
    """
    g = _one_element(g)
    return float(phi_from_moment(j_moment(g), nu))


def phi_from_moment(m, nu: int):
    """Phi_nu from the moment value m = g J g^dag; a stack (T, 2n, 2n) of
    moment values gives T values, and the reality check names the first
    failing one.  m J scales the columns of m by the signs of J.  Raises
    InvalidInput unless m is a finite 2n x 2n matrix or a stack of them."""
    if nu < 1:
        raise InvalidInput("nu must be a positive integer")
    m = as_signature_input(m, "m")
    mj = m * signs(m.shape[-1] // 2)
    val = -np.trace(np.linalg.matrix_power(mj, nu), axis1=-2, axis2=-1) / (2.0 * nu)
    failed = np.abs(val.imag) > 1e-8 * np.maximum(1.0, np.abs(val.real))
    if failed.any():
        raise NumericalFailure(
            f"trace has imaginary part {np.ravel(val.imag)[np.argmax(failed)]}")
    return val.real


def hamiltonian_sigma(Sigma, p, params: ModelParams):
    """Closed form of the reduced Phi_1 in the (Sigma, p) chart.

    The formula depends on Sigma only through Sigma^2, so it is even in
    each Sigma_i and symmetric under simultaneous permutations of the
    (Sigma_i, p_i) pairs; Sigma need not be ordered here.  Sigma and p
    broadcast together: (T, n) stacks (or one point against a stack of
    the other) give T values with the bits of each row alone; one point,
    a float.
    This is the one-parameter case of `_sigma_rows`, which gives each row
    its own parameters.  Raises InvalidInput naming Sigma or p when it has
    a non-finite entry, and SeparationViolation when a pair radicand is
    non-positive.
    """
    sigma, p = np.broadcast_arrays(*require_finite(Sigma=Sigma, p=p))
    n = sigma.shape[-1]
    val = _sigma_rows(sigma.reshape(-1, n), p.reshape(-1, n), [params])
    return float(val[0]) if sigma.ndim == 1 else val.reshape(sigma.shape[:-1])


def _sigma_rows(sigma, p, params):
    """The Sigma-chart closed form at the rows of (T, n) arrays Sigma and
    p, row r at the ModelParams `params[r]`, or every row at `params[0]`
    when only one is given.

    The constants x^2, y^2 and (x^-2 + y^2)/2 of each row are computed in
    Python floats, as for one parameter set (numpy's `power` may round
    x^-2 differently), so a row has the bits it has alone.  Raises as
    `hamiltonian_sigma` does.
    """
    if np.any(sigma == 0.0):
        raise InvalidInput("Sigma entries must be non-zero")
    consts = [(m.x, m.x ** 2, m.y ** 2, 0.5 * (m.x ** -2 + m.y ** 2), m.alpha)
              for m in params]
    x, x2, y2, a2, alpha = np.array(consts).reshape(-1, 5).T[:, :, None]
    s = sigma ** 2
    # the pair factors (s_k/alpha - alpha s_i)(alpha s_k - s_i/alpha) / (s_k - s_i)^2
    # of s = Sigma^2 over k != i, 1 on the diagonal
    sk, si = s[:, None, :], s[:, :, None]
    diff = sk - si
    mask = ~np.eye(s.shape[-1], dtype=bool)
    if np.any(diff[:, mask] == 0.0):
        raise SeparationViolation("coinciding Sigma_i^2: particle collision")
    al = alpha[:, :, None]
    fac = np.ones(diff.shape)
    fac[:, mask] = ((sk / al - al * si) * (al * sk - si / al))[:, mask] / diff[:, mask] ** 2
    if np.any(fac <= 0.0):
        raise SeparationViolation("non-positive interaction radicand")
    w = np.sqrt((1.0 + 1.0 / s) * (x2 + y2 / s)) / x * np.prod(np.sqrt(fac), axis=-1)
    return a2[:, 0] * np.sum(1.0 / s, axis=-1) - np.sum(np.cos(p) * w, axis=-1)


def _q_chart(z, n: int, a2: float, b2: float, c2: float, scale: float = 1.0):
    """(H, field) of the three-constant form at one point.  z is the list
    q + p of 2n floats, and field the list

        [scale dH/dp_1 ... scale dH/dp_n, -scale dH/dq_1 ... -scale dH/dq_n]

    in z's order: at scale FLOW_SIGN * FLOW_TIME_SCALE, the reduced ODE's
    vector field, and at scale 1.0, the gradient with dH/dq negated (both
    exactly, as scale 2.0 and negation round nothing).

    Each pair i < k gives its factor f = 1 - c2 / (4 sinh^2(q_i - q_k))
    and dl = d log sqrt(f) / d q_i once; the (k, i) entry is -dl.  A pair
    whose sinh overflows has its float64 limit: factor 1, dl = 0.  Other
    overflows give the IEEE value (an overflowing e^{-2 q_i} is inf, cos
    and sin of an infinite p are NaN), so an overflowed RK stage fails at
    the next stage's q.  Raises NumericalFailure (non-finite q),
    ChamberViolation (unordered q) or SeparationViolation (f <= 0).
    """
    q = z[:n]
    # ordered q is finite when its ends are: a NaN fails the order test
    if not (all(map(operator.gt, q, q[1:])) and math.isfinite(q[0])
            and math.isfinite(q[-1])):
        q = np.array(q, dtype=float)
        if not np.isfinite(q).all():
            raise NumericalFailure(f"non-finite positions q = {q}")
        raise ChamberViolation(f"q must be strictly decreasing, got {q}")
    prod = [1.0] * n
    rowsum = [0.0] * n
    pairs = []
    for i in range(n - 1):
        qi = q[i]
        for k in range(i + 1, n):
            d = qi - q[k]
            try:
                sh, ch = math.sinh(d), math.cosh(d)
            except OverflowError:
                continue
            try:
                ratio = c2 / (4.0 * (sh * sh))
            except ZeroDivisionError:   # sinh^2 underflows: ratio inf
                ratio = math.inf
            fac = 1.0 - ratio
            if not fac > 0.0:
                raise SeparationViolation("non-positive interaction radicand")
            root = math.sqrt(fac)
            prod[i] *= root
            prod[k] *= root
            dl = ratio * (ch / sh) / fac
            rowsum[i] += dl
            rowsum[k] -= dl
            pairs.append((i, k, dl))
    h_u = h_cw = 0.0
    field, dh_dq, cw, cross = [], [], [], [0.0] * n
    for qi, pi, pr, rs in zip(q, z[n:], prod, rowsum):
        try:
            u = math.exp(-2.0 * qi)
        except OverflowError:
            u = math.inf
        radicand = 1.0 + (1.0 + b2) * u + b2 * (u * u)
        bracket = math.sqrt(radicand)
        try:
            cos_p, sin_p = math.cos(pi), math.sin(pi)
        except ValueError:          # p = +-inf
            cos_p = sin_p = math.nan
        cwi = cos_p * bracket * pr
        dlog_bracket = u * (-1.0 - b2 - 2.0 * b2 * u) / radicand
        dh_dq.append(-2.0 * a2 * u - cwi * (dlog_bracket + rs))
        field.append(scale * (sin_p * bracket * pr))
        cw.append(cwi)
        h_u += u
        h_cw += cwi
    # the cross term sum_i cw_i dlog[i, k], in the order of i
    for i, k, dl in pairs:
        cross[k] += cw[i] * dl
        cross[i] -= cw[k] * dl
    field.extend([-scale * (g + c) for g, c in zip(dh_dq, cross)])
    return a2 * h_u - h_cw, field


def _closed_form(q, p, a2: float, b2: float, c2: float):
    """`_q_chart` at 1-d array-likes at scale 1.0, refusing a non-finite
    result: (H, field), field = dH/dp then -dH/dq."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if q.shape != p.shape or q.ndim != 1:
        raise InvalidInput(f"q and p must be 1-d of equal length, got {q.shape}, {p.shape}")
    h, field = _q_chart(q.tolist() + p.tolist(), q.size, a2, b2, c2)
    if not all(map(math.isfinite, [h, *field])):
        raise NumericalFailure(f"non-finite closed form at q = {q}, p = {p}")
    return h, field


def hamiltonian_q(q, p, a2: float, b2: float, c2: float) -> float:
    """Three-constant form of the Hamiltonian in the (q, p) chart; raises
    as `grad_hamiltonian` does."""
    return _closed_form(q, p, a2, b2, c2)[0]


def phi_reduced(point: ReducedPoint, params: ModelParams, nu: int) -> float:
    """Phi_nu evaluated through the reconstructed group element."""
    fact, _ = assemble(point, params)
    return phi_trace(fact.g, nu)


def grad_hamiltonian(q, p, params: ModelParams):
    """Analytic partials (dPhi1/dq, dPhi1/dp) of the closed form at 1-d
    arrays.  Raises NumericalFailure for non-finite q or a non-finite
    result (e^{-2q} overflows), ChamberViolation for unordered q and
    SeparationViolation past the wall."""
    _, field = _closed_form(q, p, *abc_from_params(params))
    n = len(field) // 2
    return -np.array(field[n:]), np.array(field[:n])


def fd_gradient(func, q, p, params: ModelParams, h0=None):
    """Central-difference gradient with one Richardson step (h0, h0/2) at
    each row of (P, n) arrays q and p (or at a point): (df_dq, df_dp), each
    (P, n) or (P, n, m).  h0 is by default 1e-4 max(1, |q|, |p|) per point.

    `func(q, p, params)` takes the stencil rows as two (R, n) arrays and
    returns (R,) or (R, m) values; a point has 8n rows, q_1 ... q_n, then
    p_1 ... p_n, each at +h0, -h0, +h0/2, -h0/2.  The points and the rows
    of each chunk are checked by `require_points`; `matops.map_chunks`
    passes the rows to `func` at `chunk_rows(2n)`, so the first failing row
    raises its own error, as in a loop.
    """
    q, p = np.atleast_2d(*require_points(q, p))
    count, n = q.shape
    if h0 is None:
        h0 = 1e-4 * np.maximum(1.0, np.abs(np.hstack([q, p])).max(axis=1))
    h0 = np.broadcast_to(h0, (count,))[:, None]
    steps = np.hstack([h0, -h0, h0 / 2.0, -h0 / 2.0])
    # row 4 i + k of a point shifts its coordinate i by steps[k]
    shifts = (np.eye(n)[:, None, :] * steps[:, None, :, None]).reshape(count, 4 * n, n)
    q, p = q[:, None], p[:, None]
    qs = np.concatenate([q + shifts, np.broadcast_to(q, shifts.shape)], axis=1)
    ps = np.concatenate([np.broadcast_to(p, shifts.shape), p + shifts], axis=1)

    vals = map_chunks(lambda q, p: func(*require_points(q, p), params),
                      chunk_rows(2 * n), qs.reshape(-1, n), ps.reshape(-1, n))
    f = vals.reshape(count, 2 * n, 4, *vals.shape[1:])
    h0 = h0.reshape(count, *[1] * (f.ndim - 2))
    d1 = (f[:, :, 0] - f[:, :, 1]) / (2.0 * h0)
    d2 = (f[:, :, 2] - f[:, :, 3]) / (2.0 * (h0 / 2.0))
    grad = (4.0 * d2 - d1) / 3.0
    return grad[:, :n], grad[:, n:]


#: finite-difference step of `involution_report`, with one Richardson step at
#: h/2: it balances the rapid growth of the higher traces near the separation
#: walls (truncation) against rounding in the trace evaluation
BRACKET_STEP = 2.5e-4

#: sampler arguments of the points of `bcn involution`: bounded positions keep
#: the higher traces small enough for an absolute bracket tolerance to be
#: meaningful in double precision
BRACKET_DRAW = {"q_range": (-0.95, 0.95), "margin_factor": 1.2, "max_stretch": 0}


@dataclass(frozen=True)
class InvolutionReport:
    """Worst-case |{Phi_mu, Phi_nu}| estimates over a sample of points."""

    orders: tuple
    bracket_matrix: np.ndarray
    fd_steps: tuple
    extrapolation_order: int
    worst_pair: tuple
    max_abs: float


def involution_report(params: ModelParams, q, p, max_order: int = 3) -> InvolutionReport:
    """Estimate |{Phi_mu, Phi_nu}| for mu, nu <= max_order at the rows of
    (P, n) arrays q and p (or at a point), chunk_rows(2n) // 8n (at least 1)
    at a time.

    The matrix entry [mu-1, nu-1] is the worst absolute bracket over the
    points, at the steps BRACKET_STEP and BRACKET_STEP / 2 (in the report);
    a NaN bracket is the worst.  Raises InvalidInput for max_order outside
    1..4 or no points.  BRACKET_STEP is calibrated for orders <= 3: at order
    4 the pair (3, 4) reaches 1.6e-4 (n = 2, 40 points), over the CLI's 1e-5.
    """
    if max_order > 4:
        raise InvalidInput("max_order > 4 is outside the conditioned regime")
    if max_order < 1:
        raise InvalidInput(f"max_order must be at least 1, got {max_order}")
    q, p = np.atleast_2d(*require_points(q, p))
    if not len(q):
        raise InvalidInput("involution_report needs at least one point")
    orders = tuple(range(1, max_order + 1))

    def phis(q, p, pr):
        g = assemble_stack(q, p, pr)[0].g
        m = j_moment(g)
        return np.stack([phi_from_moment(m, nu) for nu in orders], axis=-1)

    size = max(1, chunk_rows(2 * params.n) // (8 * params.n))
    mat = np.zeros((max_order, max_order))
    for start in range(0, len(q), size):
        # [c, nu - 1]: the gradient of Phi_nu at point c, contiguous: a BLAS
        # dot of strided vectors sums in another order than a lone one
        dq, dp = (np.ascontiguousarray(d.swapaxes(1, 2)) for d in fd_gradient(
            phis, q[start:start + size], p[start:start + size], params, BRACKET_STEP))
        dot = _dot(dq[:, :, None], dp[:, None])     # [c, i, j] = dq_i . dp_j
        mat = np.max([mat, *np.abs(0.5 * (dot - dot.swapaxes(1, 2)))], axis=0)
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
    permutations of the (Sigma_i, p_i) pairs; a non-finite Sigma or p is
    InvalidInput."""
    sigma, p = require_finite(Sigma=Sigma, p=p)
    n = sigma.size
    base = hamiltonian_sigma(sigma, p, params)
    scale = max(1.0, abs(base))
    # each permutation with every sign pattern, in the order of a double loop
    perms = np.array(list(permutations(range(n))))
    signs = np.array(list(product((1.0, -1.0), repeat=n)))
    orbit = (signs * sigma[perms][:, None]).reshape(-1, n)
    vals = hamiltonian_sigma(orbit, np.repeat(p[perms], len(signs), axis=0), params)
    worst = float(np.max(np.abs(vals - base) / scale))
    return WeylReport(ok=worst <= tol, max_deviation=worst, orbit_size=len(orbit))


def spectral_invariants(g) -> np.ndarray:
    """Eigenvalues of g J g^dag J, sorted by real part then imaginary part.

    These are conserved along the exact flow, and
    -(1/(2 nu)) sum_k lambda_k^nu = Phi_nu(g).  Real parts are quantized
    at 1e-9 relative before sorting so that conjugate pairs (whose real
    parts tie exactly) order stably across evaluations.  g J g^dag J is
    the moment value with its columns scaled by the signs of J.  Raises
    InvalidInput unless g is one finite 2n x 2n matrix.
    """
    g = _one_element(g)
    vals = np.linalg.eigvals(j_moment(g) * signs(g.shape[0] // 2))
    scale = max(1.0, float(np.max(np.abs(vals))))
    key = np.round(vals.real / (1e-9 * scale))
    return vals[np.lexsort((vals.imag, key))]
