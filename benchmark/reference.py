"""Independent reference computations for the benchmark's checks.

Nothing here imports the package under test.  The formulas are written
from the model's definition (README / PAPER.md):

* the three-constant Hamiltonian

      H(q, p) = a^2 sum_i e^{-2 q_i}
                - sum_i cos(p_i) [1 + (1 + b^2) e^{-2 q_i} + b^2 e^{-4 q_i}]^(1/2)
                  prod_{k != i} [1 - c^2 / (4 sinh^2(q_i - q_k))]^(1/2)

  with a^2 = (x^-2 + y^2)/2, b^2 = y^2/x^2, c^2 = (alpha - 1/alpha)^2;
* its flow dq/dt = 2 dH/dp, dp/dt = -2 dH/dq, with the gradient taken by
  complex step and integrated by scipy's DOP853 at rtol = atol = 1e-12;
* the limiting Sutherland Hamiltonian H2(qhat, phat);
* Phi_1(g) = -tr(g J g^dag J) / 2.

scipy is imported lazily, so that timing and memory measured before the
checks run do not include it.
"""

from __future__ import annotations

import numpy as np

_CSTEP = 1e-30


def abc(alpha: float, x: float, y: float):
    """(a^2, b^2, c^2) of the three-constant form."""
    return (x ** -2 + y ** 2) / 2.0, y ** 2 / x ** 2, (alpha - 1.0 / alpha) ** 2


def hamiltonian(q, p, a2: float, b2: float, c2: float):
    """H(q, p) over the last axis; q and p may be complex (complex step)."""
    q = np.asarray(q)
    p = np.asarray(p)
    n = q.shape[-1]
    u = np.exp(-2.0 * q)
    bracket = np.sqrt(1.0 + (1.0 + b2) * u + b2 * u * u)
    d = q[..., :, None] - q[..., None, :]
    off = ~np.eye(n, dtype=bool)
    sh2 = np.where(off, np.sinh(d) ** 2, 1.0)
    pair = np.where(off, 1.0 - c2 / (4.0 * sh2), 1.0)
    prod = np.prod(np.sqrt(pair), axis=-1)
    return a2 * np.sum(u, axis=-1) - np.sum(np.cos(p) * bracket * prod, axis=-1)


def flow_rhs(z, a2: float, b2: float, c2: float):
    """(dq/dt, dp/dt) = (2 dH/dp, -2 dH/dq) at z = [q, p]."""
    m = z.size
    n = m // 2
    zc = z[None, :] + 1j * _CSTEP * np.eye(m)
    grad = hamiltonian(zc[:, :n], zc[:, n:], a2, b2, c2).imag / _CSTEP
    return np.concatenate([2.0 * grad[n:], -2.0 * grad[:n]])


def trajectory(q0, p0, times, alpha: float, x: float, y: float):
    """DOP853 solution sampled at `times` (starting at 0); rows [q, p]."""
    from scipy.integrate import solve_ivp

    a2, b2, c2 = abc(alpha, x, y)
    z0 = np.concatenate([np.asarray(q0, float), np.asarray(p0, float)])
    times = np.asarray(times, float)
    sol = solve_ivp(lambda t, z: flow_rhs(z, a2, b2, c2), (0.0, times[-1]), z0,
                    method="DOP853", rtol=1e-12, atol=1e-12, t_eval=times)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def sutherland_h2(q, pi_vec, xi: float, eta: float, zeta: float) -> float:
    """H2 at qhat = asinh(e^q), phat = sqrt(1 + e^{2q}) pi / e^q."""
    q = np.asarray(q, float)
    s = np.exp(q)
    qh = np.arcsinh(s)
    ph = np.sqrt(1.0 + s * s) * np.asarray(pi_vec, float) / s
    n = q.size
    off = ~np.eye(n, dtype=bool)
    plus = (qh[:, None] + qh[None, :])[off]
    minus = (qh[:, None] - qh[None, :])[off]
    return float(0.5 * ph @ ph
                 + 2.0 * xi * eta * np.sum(np.sinh(qh) ** -2.0)
                 + 2.0 * (eta - xi) ** 2 * np.sum(np.sinh(2.0 * qh) ** -2.0)
                 + 0.5 * zeta ** 2 * np.sum(np.sinh(plus) ** -2.0
                                            + np.sinh(minus) ** -2.0))


def phi1(g) -> float:
    """-tr(g J g^dag J) / 2 with J = diag(I, -I)."""
    g = np.asarray(g, complex)
    j = np.diag(np.repeat([1.0, -1.0], g.shape[0] // 2))
    return float(-np.trace(g @ j @ g.conj().T @ j).real / 2.0)


def wrap(a):
    """Angles reduced to (-pi, pi]."""
    r = np.mod(np.asarray(a, float), 2.0 * np.pi)
    return np.where(r > np.pi, r - 2.0 * np.pi, r)
