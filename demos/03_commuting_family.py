"""The commuting Hamiltonian family.

Three independent views of the same structure:

* the closed form of the first reduced Hamiltonian agrees with the trace
  formula evaluated through the reconstructed group element;
* the family is in involution: all pairwise Poisson brackets vanish;
* the closed form is invariant under the full signed-permutation
  symmetry of the coordinates.
"""

import numpy as np

from bcn_ruijsenaars import (
    abc_from_params,
    hamiltonian_q,
    hamiltonian_sigma,
    involution_report,
    make_params,
    random_admissible_points,
    weyl_check,
)
from bcn_ruijsenaars.hamiltonians import BRACKET_DRAW, phi_from_moment
from bcn_ruijsenaars.matops import j_moment
from bcn_ruijsenaars.reconstruction import assemble_stack

rng = np.random.default_rng(11)
params = make_params(alpha=0.5, x=1.1, y=0.9, n=3)

print("cross-validation of the closed form against the trace formula:")
q, p = random_admissible_points(rng, params, 4)
via_trace = phi_from_moment(j_moment(assemble_stack(q, p, params)[0].g), 1)
closed = hamiltonian_sigma(np.exp(q), p, params)
a2, b2, c2 = abc_from_params(params)
for k in range(4):
    three_const = hamiltonian_q(q[k], p[k], a2, b2, c2)
    print(f"  point {k}: trace {via_trace[k]:+.12f}   closed {closed[k]:+.12f}   "
          f"|diff| {abs(via_trace[k] - closed[k]):.2e}   three-constant form "
          f"|diff| {abs(three_const - closed[k]):.2e}")

print("\ninvolution |{Phi_mu, Phi_nu}| (finite-difference brackets):")
q, p = random_admissible_points(rng, params, 8, **BRACKET_DRAW)
rep = involution_report(params, q, p, max_order=3)
print(np.array2string(rep.bracket_matrix, formatter={"float": "{:9.2e}".format}))
print("worst pair:", rep.worst_pair, " max:", rep.max_abs)

print("\nsigned-permutation invariance of the closed form:")
(q,), (p,) = random_admissible_points(rng, params, 1)
w = weyl_check(np.exp(q), p, params)
print(f"  orbit of {w.orbit_size} actions, max deviation {w.max_deviation:.2e}")
