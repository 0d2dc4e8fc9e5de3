"""Tour of the reconstruction machinery.

Starting from canonical coordinates (q, p) we rebuild the full 2n x 2n
constrained group element, look at every intermediate of the
construction, and check all of its defining identities at once.
"""

import numpy as np

from bcn_ruijsenaars import make_params
from bcn_ruijsenaars.model import separation_margin
from bcn_ruijsenaars.reconstruction import (assemble_stack, constraint_report,
                                            constraint_residuals)

np.set_printoptions(precision=4, suppress=True, linewidth=100)

# three particles, coupling alpha = 0.5, scales x = 1.2, y = 0.8
params = make_params(alpha=0.5, x=1.2, y=0.8, n=3)
print("parameters:", params)

# positions must be strictly decreasing and pairwise separated:
# 4 sinh^2(q_i - q_k) must exceed (alpha - 1/alpha)^2 = 2.25
q, p = np.array([1.4, 0.2, -1.1]), np.array([0.7, -0.3, 2.0])
margin = separation_margin(q, params.coupling_sq)
print(f"\nseparation ok: {margin > 0.0}, min margin {margin:.3f} "
      f"(coupling^2 = {params.coupling_sq:.3f})")

fact, cdata = assemble_stack(q, p, params)

print("\nradial chart:")
print("  Sigma  =", cdata.cartan.Sigma)
print("  Gamma  =", cdata.cartan.Gamma)
print("  Lambda =", cdata.cartan.Lambda)

print("\nconstraint solution:")
print("  v       =", cdata.v, " (non-negative, from the residue formula)")
print("  |vtilde|^2 =", float(cdata.vtilde @ cdata.vtilde),
      " vs expected", params.vhat_norm_sq)
print("  sigma   = diag", np.diagonal(cdata.sigma),
      " det =", np.linalg.det(cdata.sigma))
print("  Ttilde (real orthogonal):")
print(cdata.Ttilde)

print("\nfactorization g = k_L b_R = b_L k_R, all 6x6:")
print("  |g|_F =", np.linalg.norm(fact.g))
print("  b_R diagonal blocks: x I and I/x with x =", params.x)
print(np.round(fact.b_R.real, 4))

# the residuals of every invariant, for the stack of this one point
report = constraint_report({name: r[0] for name, r in
                            constraint_residuals(q, p, params).items()}, tol=1e-10)
print("\nconstraint residuals (all should be far below 1e-10):")
for name, value in sorted(report.residuals.items(), key=lambda kv: -kv[1]):
    print(f"  {name:24s} {value:.3e}")
print("\nmax residual:", report.max_residual, "-> ok:", report.ok)
