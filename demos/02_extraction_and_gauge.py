"""Coordinate extraction and gauge invariance.

The inverse direction: given a group element on the constraint surface
(possibly moved inside its gauge orbit), recover the canonical
coordinates.  The extraction is exact up to rounding, and blind to
every admissible gauge transformation.
"""

import numpy as np

from bcn_ruijsenaars import cartan_KAK, decompose_BK, decompose_KB, make_params, wrap_angle
from bcn_ruijsenaars.decomposition import reduce_stack
from bcn_ruijsenaars.reconstruction import assemble_stack

rng = np.random.default_rng(7)


def rand_unitary(n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]


params = make_params(alpha=0.5, x=1.0, y=1.0, n=2)
q, p = np.array([0.9, -0.6]), np.array([0.4, -1.1])
g = assemble_stack(q, p, params)[0].g

# the two triangular/pseudo-unitary splittings
k, b = decompose_KB(g)
print("g = k b: right factor diagonal blocks\n", np.round(b.real, 6))
b2, k2 = decompose_BK(g)
print("g = b k: left factor (2,2) block = y I:\n", np.round(b2[2:, 2:].real, 6))

# radial normal form of the pseudo-unitary factor
kak = cartan_KAK(k)
print("\nradial coordinates Delta =", kak.Delta, "-> q =", np.log(kak.Sigma))

# move g inside its gauge orbit: left multiplication by diag(u1, u2)
# with u1 in the stabilizer of the reference direction e_1, right
# multiplication by any block-diagonal unitary
z = np.zeros((2, 2))
u1 = np.eye(2, dtype=complex)
u1[0, 0] = np.exp(1j * 1.23)
u1[1:, 1:] = rand_unitary(1)
u = np.block([[u1, z], [z, rand_unitary(2)]])
h = np.block([[rand_unitary(2), z], [z, rand_unitary(2)]])
g_moved = u @ g @ h

# extraction of g and of the moved element, as one stack
out_q, out_p, _, _ = reduce_stack(np.stack([g, g_moved]), params)
print("\nround trip: q error", np.abs(out_q[0] - q).max(),
      ", p error", np.abs(wrap_angle(out_p[0] - p)).max())
print("after gauge transformation: q error", np.abs(out_q[1] - q).max(),
      ", p error", np.abs(wrap_angle(out_p[1] - p)).max())
