"""Cotangent-bundle limit to the hyperbolic three-parameter model.

Under the substitutions

    x = exp(t xi),  y = exp(t eta),  alpha = exp(t zeta),  p = t pi,

the reduced Hamiltonian expands as Phi(t) = H0 + t H1 + t^2 H2 + ...,
with H0 = -n, H1 = 0, and H2 the hyperbolic Sutherland Hamiltonian

    H2 = 1/2 sum_i phat_i^2
         + c1 sum_i 1/sinh^2(qhat_i) + c2 sum_i 1/sinh^2(2 qhat_i)
         + c3 sum_{i != j} [1/sinh^2(qhat_i + qhat_j)
                            + 1/sinh^2(qhat_i - qhat_j)]

in the coordinates qhat_i = asinh(exp(q_i)), phat_i = Gamma_i pi_i /
Sigma_i.  The pair sum runs over ordered pairs (each unordered pair
counted twice) and the coefficients are

    c1 = 2 xi eta,   c2 = 2 (eta - xi)^2,   c3 = zeta^2 / 2.

These are fixed by expanding exp(-2 t xi) + exp(2 t eta) =
2 + 2 t (eta - xi) + 2 t^2 (xi^2 + eta^2) + O(t^3) (note the plus sign
on xi^2) and by the identities

    Sigma_i^2 - Sigma_j^2 = sinh(qhat_i + qhat_j) sinh(qhat_i - qhat_j),
    Sigma_i^2 Gamma_j^2 + Sigma_j^2 Gamma_i^2
        = (sinh^2(qhat_i + qhat_j) + sinh^2(qhat_i - qhat_j)) / 2,

and they are confirmed independently by `fit_potential_coefficients`,
which least-squares fits the numerical t -> 0 limit of
(Phi(t) - H0)/t^2 against the three potential basis functions at random
configurations (agreement to ~1e-7 relative).

Each set of scales is evaluated as one stack: `phi_linearized` takes an
array of t, so the convergence report, `richardson_H2` and
`fit_expansion` make one call each.  Every scale gets its own
`params_at` and keeps the bits it has alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .hamiltonians import _sigma_rows
from .matops import chunk_rows, map_chunks
from .model import ModelParams, make_params, require_finite

__all__ = [
    "LimitParams",
    "hat_coords",
    "phi_linearized",
    "sutherland_H2",
    "LimitReport",
    "limit_convergence",
    "fit_expansion",
    "richardson_H2",
    "fit_potential_coefficients",
]

#: default sampling grid for the convergence report
DEFAULT_T_GRID = tuple(np.geomspace(5e-5, 5e-3, 8).tolist())


@dataclass(frozen=True)
class LimitParams:
    """Rates (xi, eta, zeta) of the substitution x, y, alpha = exp(t *)."""

    xi: float
    eta: float
    zeta: float

    def params_at(self, t: float, n: int) -> ModelParams:
        """Model parameters at scale t; requires t > 0 and zeta != 0.
        Raises InvalidInput naming the rate and t when exp(t * rate)
        over- or underflows, and naming all three rates and t when
        `make_params` rejects the parameters they give."""
        if not (0.0 < t <= 0.1):
            raise InvalidInput("t must lie in (0, 0.1]")
        rates = {"zeta": self.zeta, "xi": self.xi, "eta": self.eta}
        with np.errstate(over="ignore"):
            alpha, x, y = (np.exp(t * r) for r in rates.values())
        for (name, rate), value in zip(rates.items(), (alpha, x, y)):
            if not 0.0 < value < math.inf:
                raise InvalidInput(f"{name} = {rate:g} at t = {t:g} gives "
                                   f"exp(t {name}) = {float(value):g}; it must be "
                                   "positive and finite")
        try:
            return make_params(alpha, x, y, n)
        except InvalidInput as exc:
            raise InvalidInput(f"xi = {self.xi:g}, eta = {self.eta:g}, zeta = "
                               f"{self.zeta:g} at t = {t:g}: {exc}") from None

    def coefficients(self):
        """(c1, c2, c3) of the limiting Hamiltonian (ordered-pair basis)."""
        d = self.eta - self.xi
        return 2.0 * self.xi * self.eta, 2.0 * d * d, self.zeta ** 2 / 2.0


def hat_coords(q, pi_vec):
    """Limit coordinates (qhat, phat) from (q, pi); raises InvalidInput
    naming q or pi when it has a non-finite entry."""
    q, pi_vec = require_finite(q=q, pi=pi_vec)
    sigma = np.exp(q)
    gamma = np.sqrt(1.0 + sigma ** 2)
    return np.arcsinh(sigma), gamma * pi_vec / sigma


def phi_linearized(q, pi_vec, lp: LimitParams, t):
    """Reduced Hamiltonian at scale t: parameters exp(t *), momenta t pi.

    An array of scales gives one value per scale, in the shape of t,
    evaluated as one stack with the bits of each scale alone; a scalar t
    gives a float.  Each scale gets its own `params_at`, and the stack
    runs through `matops.map_chunks`, so the first failing scale (in the
    order of t.ravel()) raises the error it raises alone: InvalidInput
    from `params_at`, or SeparationViolation.  A non-finite q or pi is
    InvalidInput naming it.
    """
    q, pi_vec = require_finite(q=q, pi=pi_vec)
    t = np.asarray(t, dtype=float)
    sigma = np.exp(q)

    def rows(ts):
        params = [lp.params_at(s, q.size) for s in ts]
        return _sigma_rows(np.broadcast_to(sigma, (ts.size, q.size)),
                           ts[:, None] * pi_vec, params)

    vals = map_chunks(rows, chunk_rows(q.size), t.reshape(-1)).reshape(t.shape)
    return float(vals) if t.ndim == 0 else vals


def _potential_basis(hq: np.ndarray):
    """(sum 1/sinh^2 qhat_i, sum 1/sinh^2 2qhat_i, ordered-pair sum): the
    three potential terms of H2 without their coefficients."""
    # the off-diagonal entries; one particle has none, and a pair sum of 0
    mask = ~np.eye(hq.size, dtype=bool)
    plus = (hq[:, None] + hq[None, :])[mask]
    minus = (hq[:, None] - hq[None, :])[mask]
    if np.any(np.sinh(plus) == 0.0) or np.any(np.sinh(minus) == 0.0):
        raise InvalidInput("coinciding or opposite hat_q entries")
    pairs = float(np.sum(1.0 / np.sinh(plus) ** 2 + 1.0 / np.sinh(minus) ** 2))
    return (float(np.sum(1.0 / np.sinh(hq) ** 2)),
            float(np.sum(1.0 / np.sinh(2.0 * hq) ** 2)), pairs)


def sutherland_H2(hat_q, hat_p, xi: float, eta: float, zeta: float) -> float:
    """The limiting three-parameter hyperbolic Hamiltonian; raises
    InvalidInput naming hat_q or hat_p when it has a non-finite entry,
    and for zero, coinciding or opposite hat_q entries."""
    hq, hp = require_finite(hat_q=hat_q, hat_p=hat_p)
    if np.any(hq == 0.0):
        raise InvalidInput("hat_q entries must be non-zero")
    single, double, pairs = _potential_basis(hq)
    c1, c2, c3 = LimitParams(xi, eta, zeta).coefficients()
    return 0.5 * float(hp @ hp) + c1 * single + c2 * double + c3 * pairs


def _fit_at_zero(ts, values, degree: int) -> np.ndarray:
    """Coefficients c_0, c_1, ... in t of the degree-`degree` polynomial
    fit of `values` at `ts`, made in s = t / max(ts) for conditioning."""
    scale = float(np.max(ts))
    return np.polyfit(ts / scale, values, degree)[::-1] / scale ** np.arange(degree + 1)


def richardson_H2(q, pi_vec, lp: LimitParams, t0: float = 4e-3) -> float:
    """Numerical H2 = lim_{t->0} (Phi(t) - H0)/t^2 by extrapolation from
    the four scales t0, t0/2, t0/4, t0/8."""
    n = np.atleast_1d(np.asarray(q)).size
    ts = t0 / 2.0 ** np.arange(4)
    gs = (phi_linearized(q, pi_vec, lp, ts) + n) / ts ** 2
    # full-degree polynomial through the levels, evaluated at t = 0
    return float(_fit_at_zero(ts, gs, ts.size - 1)[0])


def fit_expansion(q, pi_vec, lp: LimitParams):
    """Estimate (H0, H1) from a degree-4 polynomial fit of Phi(t) at six
    geometrically spaced t in [1e-3, 8e-3]."""
    ts = np.geomspace(1e-3, 8e-3, 6)
    h0, h1 = _fit_at_zero(ts, phi_linearized(q, pi_vec, lp, ts), 4)[:2]
    return float(h0), float(h1)


@dataclass(frozen=True)
class LimitReport:
    """Convergence of (Phi(t) - H0)/t^2 to the closed-form H2."""

    t: np.ndarray
    error: np.ndarray
    fitted_order: float
    H2_closed: float
    H2_limit: float
    H0_error: float
    H1_error: float
    passes: bool


def limit_convergence(q, pi_vec, lp: LimitParams, t_grid=None) -> LimitReport:
    """Convergence report of the limit at one configuration.

    Passes when the fitted order of e(t) = |(Phi(t) - H0)/t^2 - H2| is at
    least 0.9 and the error at the smallest grid point is below
    1e-4 * max(1, |H2|).  The order is fitted where e(t) sits above the
    rounding floor; with fewer than two such points it cannot be measured
    (an exact limit has e = 0), so the fit of the two largest scales is
    reported and the error criterion alone decides.  Raises InvalidInput
    naming a bad q, pi or t_grid.
    """
    hq, hp = hat_coords(q, pi_vec)
    ts = np.sort(np.asarray(t_grid if t_grid is not None else DEFAULT_T_GRID,
                            dtype=float))
    # 4 distinct points of the sorted grid make 3 rises; a NaN sorts last
    if np.count_nonzero(np.diff(ts) > 0.0) < 3 or ts[0] <= 0.0 or not ts[-1] <= 0.05:
        raise InvalidInput("t_grid needs >= 4 distinct points inside (0, 0.05]")
    n = hq.size
    h2 = sutherland_H2(hq, hp, lp.xi, lp.eta, lp.zeta)
    errs = np.abs((phi_linearized(q, pi_vec, lp, ts) + n) / ts ** 2 - h2)
    # fit the decay order only where e(t) sits above the rounding floor
    # of the cancellation (Phi(t) + n)/t^2 ~ eps * scale / t^2
    floor = 10.0 * 32.0 * np.finfo(float).eps * max(1.0, float(n)) / ts ** 2
    clean = errs > floor
    measured = np.count_nonzero(clean) >= 2
    if not measured:        # reported, but the error criterion alone decides
        clean = np.zeros_like(clean)
        clean[-2:] = True
    order = float(np.polyfit(np.log(ts[clean]),
                             np.log(np.maximum(errs[clean], 1e-300)), 1)[0])
    # the extrapolated limit uses its own base scale: pushing it down to
    # the grid floor would only amplify the 1/t^2 rounding noise
    h2_lim = richardson_H2(q, pi_vec, lp, t0=min(4e-3, float(ts[-1])))
    h0_est, h1_est = fit_expansion(q, pi_vec, lp)
    ok = bool((order >= 0.9 or not measured) and errs[0] <= 1e-4 * max(1.0, abs(h2)))
    return LimitReport(t=ts, error=errs, fitted_order=order, H2_closed=h2,
                       H2_limit=h2_lim, H0_error=abs(h0_est + n),
                       H1_error=abs(h1_est), passes=ok)


def fit_potential_coefficients(lp: LimitParams, rng: np.random.Generator):
    """Independent oracle for (c1, c2, c3): least-squares fit of the limit.

    Draws four momentum-free configurations at each of n = 2 and 3,
    extrapolates (Phi(t) - H0)/t^2 numerically, and fits against the three
    potential basis functions.
    Returns (c_fit, rms_residual).
    """
    rows, vals = [], []
    for n in (2, 3):
        for _ in range(4):
            gaps = rng.uniform(0.4, 0.9, size=n - 1)
            q = rng.uniform(-0.8, 1.2) - np.concatenate([[0.0], np.cumsum(gaps)])
            hq, _ = hat_coords(q, np.zeros(n))
            rows.append(_potential_basis(hq))
            vals.append(richardson_H2(q, np.zeros(n), lp))
    a, b = np.array(rows), np.array(vals)
    c_fit, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    rms = float(np.sqrt(np.mean((a @ c_fit - b) ** 2)))
    return c_fit, rms
