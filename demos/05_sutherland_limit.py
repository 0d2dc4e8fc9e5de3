"""The cotangent-bundle limit.

Replacing the multiplicative parameters by exponentials of rates,
x = e^(t xi), y = e^(t eta), alpha = e^(t zeta), with momenta p = t pi,
the Hamiltonian expands as -n + t^2 H2 + O(t^3), and H2 is the
three-parameter hyperbolic Sutherland Hamiltonian.  The potential
coefficients are confirmed here two ways: against the closed form and by
a least-squares fit of the numerical limit.
"""

import numpy as np

from bcn_ruijsenaars import (
    LimitParams,
    fit_potential_coefficients,
    hat_coords,
    limit_convergence,
    phi_linearized,
    sutherland_H2,
)

lp = LimitParams(xi=0.45, eta=-0.35, zeta=0.6)
q = np.array([1.0, 0.1, -0.8])
piv = np.array([0.5, -1.0, 0.3])
n = q.size

print("Phi(t) -> -n as t -> 0:")
for t in (1e-2, 1e-3, 1e-4):
    print(f"  t={t:7.0e}: Phi = {phi_linearized(q, piv, lp, t):+.10f}")

hq, hp = hat_coords(q, piv)
h2 = sutherland_H2(hq, hp, lp.xi, lp.eta, lp.zeta)
print(f"\nclosed-form H2 at this configuration: {h2:+.10f}")

print("\nconvergence of (Phi(t) + n)/t^2 to H2:")
rep = limit_convergence(q, piv, lp)
for t, e in zip(rep.t, rep.error):
    print(f"  t={t:9.3e}  error {e:.3e}")
print(f"fitted order {rep.fitted_order:.3f}, extrapolated limit "
      f"{rep.H2_limit:+.10f}, passes: {rep.passes}")

print("\nindependent least-squares fit of the potential coefficients:")
c_fit, rms = fit_potential_coefficients(lp, np.random.default_rng(5))
c1, c2, c3 = lp.coefficients()
print(f"  fitted  ({c_fit[0]:+.8f}, {c_fit[1]:+.8f}, {c_fit[2]:+.8f})")
print(f"  closed  ({c1:+.8f}, {c2:+.8f}, {c3:+.8f})   [2 xi eta, "
      f"2 (eta-xi)^2, zeta^2/2]")
print(f"  fit rms residual {rms:.2e}")
