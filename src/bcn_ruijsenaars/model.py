"""Model parameters, reduced coordinates, and the radial chart.

The model is specified by a deformation parameter ``alpha`` in (0, 1),
two scale parameters ``x, y > 0`` and a particle count ``n``.  Reduced
phase-space points carry strictly decreasing positions ``q`` and angles
``p`` (compared modulo 2*pi), checked by `require_points` (`require_point`
for one) on `require_decreasing`, the rule for each finite decreasing row
(q, Sigma); `matops.require_element` checks a group element.  The radial
chart consists of the diagonal vectors

    Sigma_i = exp(q_i),   Delta_i = asinh(Sigma_i),
    Gamma_i = cosh(Delta_i) = sqrt(1 + Sigma_i^2),
    Lambda_i = sqrt(y^2 + x^2 Sigma_i^2).

The standard three-constant form of the Hamiltonian corresponds to

    a^2 = (x^-2 + y^2)/2,   b^2 = y^2/x^2,   c^2 = (alpha - 1/alpha)^2.
The (q, p) chart needs 4 sinh^2(q_i - q_k) > c^2 for every pair; for
ordered q the closest pair is adjacent, so this is one bound on adjacent
pairs, q_i > q_{i+1} + separation_gap(c^2), the gap asinh(sqrt(c^2) / 2).
It is ln(1/alpha) in exact arithmetic; in floats c^2 inherits the
cancellation in alpha - 1/alpha, and the two differ by at most 5 ulp for
alpha < 0.9 and by up to 256 ulp near alpha = 0.999.  The sampler, the
CLI's start gate and the reduced ODE's step judge take their gap from
`separation_gap`; `separation_margin` is the sinh form of the same test.
The pair factors 1 - c^2 / (4 sinh^2(q_i - q_k)) of the Hamiltonian are
built in `hamiltonians` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChamberViolation, InternalInconsistency, InvalidInput

__all__ = [
    "ModelParams",
    "ReducedPoint",
    "CartanData",
    "require_decreasing",
    "require_points",
    "require_point",
    "require_finite",
    "make_params",
    "cartan_from_q",
    "separation_gap",
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
    alpha -> 1/alpha).
    """

    alpha: float
    x: float
    y: float
    n: int

    @property
    def coupling_sq(self) -> float:
        """c^2 = (alpha - 1/alpha)^2, the separation threshold."""
        return (self.alpha - 1.0 / self.alpha) ** 2

    @property
    def vhat_norm_sq(self) -> float:
        """|vhat|^2 = alpha^(2-2n) - alpha^2 > 0, the squared length of the
        rank-one deformation vector of the reference momentum value."""
        return self.alpha ** (2 - 2 * self.n) - self.alpha ** 2


def make_params(alpha: float, x: float, y: float, n: int) -> ModelParams:
    """Validate and normalize (alpha, x, y, n) into a ModelParams record.

    alpha, x and y must be finite, and the model constants a^2, b^2, c^2
    and |vhat|^2 positive and finite; a value that overflows (or
    underflows to 0) in one of them is invalid input.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidInput(f"n must be a positive integer, got {n!r}")
    alpha, x, y = float(alpha), float(x), float(y)
    for name, value in (("alpha", alpha), ("x", x), ("y", y)):
        if not math.isfinite(value):
            raise InvalidInput(f"{name} must be finite, got {value!r}")
    if not (alpha > 0.0) or alpha == 1.0:
        raise InvalidInput("alpha must be positive and different from 1")
    if not (x > 0.0 and y > 0.0):
        raise InvalidInput("x and y must be positive")
    params = ModelParams(alpha=min(alpha, 1.0 / alpha), x=x, y=y, n=int(n))
    # the constants in float64 scalars, which overflow to inf where the
    # Python floats of the properties would raise OverflowError
    with np.errstate(all="ignore"):
        probe = ModelParams(*map(np.float64, (params.alpha, x, y)), params.n)
        constants = (*abc_from_params(probe), probe.vhat_norm_sq)
    for name, value in zip(("a^2", "b^2", "c^2", "|vhat|^2"), constants):
        if not (0.0 < value < math.inf):
            raise InvalidInput(f"alpha = {alpha:g}, x = {x:g}, y = {y:g} give "
                               f"{name} = {float(value):g}; it must be positive and finite")
    return params


def _one_shape(**named):
    """The named array-likes as float arrays of one shape, (n,) or (T, n)
    with n >= 1; else InvalidInput naming them."""
    arrays = [np.atleast_1d(np.asarray(a, dtype=float)) for a in named.values()]
    first = arrays[0]
    if any(a.shape != first.shape for a in arrays) or first.ndim > 2 or not first.shape[-1]:
        raise InvalidInput(f"{' and '.join(named)} must have one shape, (n,) or (T, n) with "
                           f"n >= 1, got {', '.join(str(a.shape) for a in arrays)}")
    return arrays


def require_decreasing(**named):
    """The package's one rule for a decreasing row: `_one_shape` arrays, all
    finite, the first strictly decreasing in each row by a comparison (no
    gap is subtracted).  The first failing row raises InvalidInput "<names>
    must be finite", else ChamberViolation "<first name> must be strictly
    decreasing, got <row>"."""
    arrays = _one_shape(**named)
    first = arrays[0]
    finite = np.isfinite(arrays).all(axis=0)
    if not (finite.all() and (first[..., :-1] > first[..., 1:]).all()):
        for ok, row in zip(np.atleast_2d(finite), np.atleast_2d(first)):
            if not ok.all():
                raise InvalidInput(f"{' and '.join(named)} must be finite")
            if not (row[:-1] > row[1:]).all():
                raise ChamberViolation(f"{[*named][0]} must be strictly decreasing, got {row}")
    return arrays


def require_points(q, p, n: int | None = None):
    """The package's one rule for (q, p): `require_decreasing(q=q, p=p)`,
    of n particles where n is given (else InternalInconsistency)."""
    q, p = require_decreasing(q=q, p=p)
    if n is not None and q.shape[-1] != n:
        raise InternalInconsistency(f"point has n={q.shape[-1]}, params n={n}")
    return q, p


def require_point(q, p, n: int | None = None):
    """`require_points` for one point (n,); a stack is InvalidInput."""
    q, p = require_points(q, p, n)
    if q.ndim != 1:
        raise InvalidInput(f"q and p must be one point (n,), got shape {q.shape}")
    return q, p


@dataclass(frozen=True)
class ReducedPoint:
    """Canonical coordinates (q, p) of one point, checked by `require_point`.

    p is stored as given (unwrapped); comparisons are made modulo 2*pi.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q, p = require_point(self.q, self.p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)


def require_finite(**named):
    """Each named array-like as a float array of at least one dimension;
    raises InvalidInput naming the first that has a non-finite entry."""
    arrays = []
    for name, values in named.items():
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if not np.isfinite(values).all():
            raise InvalidInput(f"{name} must be finite, got {values}")
        arrays.append(values)
    return arrays


@dataclass(frozen=True)
class CartanData:
    """Radial chart derived from q (plus x, y for Lambda); for a (T, n)
    stack of positions every field is (T, n)."""

    Delta: np.ndarray
    Sigma: np.ndarray
    Gamma: np.ndarray
    Lambda: np.ndarray


def cartan_from_q(q, params: ModelParams) -> CartanData:
    """Radial chart at positions q, or at each row of a (T, n) stack,
    checked by `require_decreasing`."""
    q, = require_decreasing(q=q)
    sigma = np.exp(q)
    return CartanData(
        Delta=np.arcsinh(sigma),
        Sigma=sigma,
        Gamma=np.sqrt(1.0 + sigma ** 2),
        Lambda=np.sqrt(params.y ** 2 + params.x ** 2 * sigma ** 2),
    )


def separation_gap(c2: float) -> float:
    """asinh(sqrt(c2) / 2), the gap d >= 0 at which 4 sinh^2(d) = c2: ordered
    q clears the threshold c2 when q_i > q_{i+1} + separation_gap(c2) for
    every adjacent pair.  The package's one gap bound."""
    return math.asinh(math.sqrt(c2) / 2.0)


def separation_margin(q, c2: float):
    """min_i 4 sinh^2(q_i - q_{i+1}) - c2: the smallest pairwise margin
    4 sinh^2(q_i - q_k) - c2 for ordered q (the closest pair is adjacent),
    negative for unordered q, inf for one particle.  q is an array of
    positions, (n,) or a (k, n) stack, which gives the k margins."""
    s = np.sinh(q[..., :-1] - q[..., 1:])
    margin = (4.0 * s * np.abs(s)).min(axis=-1, initial=math.inf) - c2
    return float(margin) if margin.ndim == 0 else margin


def abc_from_params(params: ModelParams):
    """Map (alpha, x, y) to the three positive constants (a^2, b^2, c^2)."""
    a2 = (params.x ** -2 + params.y ** 2) / 2.0
    b2 = params.y ** 2 / params.x ** 2
    return a2, b2, params.coupling_sq
