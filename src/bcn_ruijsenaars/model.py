"""Model parameters, reduced coordinates, and the radial chart.

The model is specified by a deformation parameter ``alpha`` in (0, 1),
two scale parameters ``x, y > 0`` and a particle count ``n``.  Reduced
phase-space points carry strictly decreasing positions ``q`` and angles
``p`` (compared modulo 2*pi).  The radial chart consists of the diagonal
vectors

    Sigma_i = exp(q_i),   Delta_i = asinh(Sigma_i),
    Gamma_i = cosh(Delta_i) = sqrt(1 + Sigma_i^2),
    Lambda_i = sqrt(y^2 + x^2 Sigma_i^2).

The standard three-constant form of the Hamiltonian corresponds to

    a^2 = (x^-2 + y^2)/2,   b^2 = y^2/x^2,   c^2 = (alpha - 1/alpha)^2.
The (q, p) chart needs 4 sinh^2(q_i - q_k) > c^2 for every pair.  c^2
and the separation margin are defined here; the pair factors
1 - c^2 / (4 sinh^2(q_i - q_k)) belong to the closed form of the
Hamiltonian and are built in `hamiltonians` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChamberViolation, InvalidInput

__all__ = [
    "ModelParams",
    "ReducedPoint",
    "CartanData",
    "require_points",
    "make_params",
    "cartan_from_q",
    "separation_margin",
    "abc_from_params",
    "wrap_angle",
]


def wrap_angle(p):
    """Reduce angles to the half-open interval (-pi, pi]."""
    r = np.mod(np.asarray(p, dtype=float), 2.0 * np.pi)
    return np.where(r > np.pi, r - 2.0 * np.pi, r)


@dataclass(frozen=True)
class ModelParams:
    """Coupling data.  Use :func:`make_params` to construct.

    ``alpha`` is normalized into (0, 1) (the model is invariant under
    alpha -> 1/alpha), and ``vhat_norm_sq = alpha^(2-2n) - alpha^2 > 0``
    is the squared length of the rank-one deformation vector of the
    reference momentum value.
    """

    alpha: float
    x: float
    y: float
    n: int
    vhat_norm_sq: float = 0.0

    @property
    def coupling_sq(self) -> float:
        """c^2 = (alpha - 1/alpha)^2, the separation threshold."""
        return (self.alpha - 1.0 / self.alpha) ** 2


def make_params(alpha: float, x: float, y: float, n: int) -> ModelParams:
    """Validate and normalize (alpha, x, y, n) into a ModelParams record."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidInput(f"n must be a positive integer, got {n!r}")
    alpha, x, y = float(alpha), float(x), float(y)
    if not (alpha > 0.0) or alpha == 1.0:
        raise InvalidInput("alpha must be positive and different from 1")
    if not (x > 0.0 and y > 0.0):
        raise InvalidInput("x and y must be positive")
    if alpha > 1.0:
        alpha = 1.0 / alpha
    vhat_norm_sq = alpha ** (2 - 2 * n) - alpha ** 2
    return ModelParams(alpha=alpha, x=x, y=y, n=int(n), vhat_norm_sq=vhat_norm_sq)


def _require_chamber(q: np.ndarray) -> None:
    if q.size > 1 and not np.all(np.diff(q) < 0.0):
        raise ChamberViolation(f"q must be strictly decreasing, got {q}")


@dataclass(frozen=True)
class ReducedPoint:
    """Canonical coordinates (q, p) with q strictly decreasing.

    p is stored as given (unwrapped); comparisons are made modulo 2*pi.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.shape != p.shape or q.ndim != 1:
            raise InvalidInput(f"q and p must be 1-d of equal length, got {q.shape}, {p.shape}")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise InvalidInput("q and p must be finite")
        _require_chamber(q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.q.size


def require_points(q: np.ndarray, p: np.ndarray) -> None:
    """Check each row of two (T, n) arrays as a ReducedPoint (q[i], p[i]):
    one stacked test, and only when it fails, a ReducedPoint per row, so the
    first failing row raises exactly ReducedPoint's error."""
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))
            and np.all(np.diff(q, axis=-1) < 0.0)):
        for q_t, p_t in zip(q, p):
            ReducedPoint(q_t, p_t)


@dataclass(frozen=True)
class CartanData:
    """Radial chart derived from q (plus x, y for Lambda); for a (T, n)
    stack of positions every field is (T, n)."""

    Delta: np.ndarray
    Sigma: np.ndarray
    Gamma: np.ndarray
    Lambda: np.ndarray


def cartan_from_q(q, params: ModelParams) -> CartanData:
    """Radial chart at positions q, or at each row of a (T, n) stack;
    raises ChamberViolation for the first unordered row."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if not np.all(np.diff(q, axis=-1) < 0.0):
        for row in np.atleast_2d(q):
            _require_chamber(row)
    sigma = np.exp(q)
    return CartanData(
        Delta=np.arcsinh(sigma),
        Sigma=sigma,
        Gamma=np.sqrt(1.0 + sigma ** 2),
        Lambda=np.sqrt(params.y ** 2 + params.x ** 2 * sigma ** 2),
    )


def separation_margin(q: np.ndarray, c2: float):
    """min_i 4 sinh^2(q_i - q_{i+1}) - c2: the smallest pairwise margin
    4 sinh^2(q_i - q_k) - c2 for ordered q (the closest pair is adjacent),
    negative for unordered q, inf for one particle.  A (k, n) stack of
    positions gives the k margins."""
    s = np.sinh(q[..., :-1] - q[..., 1:])
    margin = (4.0 * s * np.abs(s)).min(axis=-1, initial=math.inf) - c2
    return float(margin) if margin.ndim == 0 else margin


def abc_from_params(params: ModelParams):
    """Map (alpha, x, y) to the three positive constants (a^2, b^2, c^2)."""
    a2 = (params.x ** -2 + params.y ** 2) / 2.0
    b2 = params.y ** 2 / params.x ** 2
    return a2, b2, params.coupling_sq
