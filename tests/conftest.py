"""Shared random-object builders for the test suite."""

import numpy as np


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def rand_hermitian(rng, n):
    a = rand_complex(rng, (n, n))
    return (a + a.conj().T) / 2.0


def rand_triangular_positive(rng, n):
    """Random member of the positive upper-triangular group."""
    b = np.triu(rand_complex(rng, (n, n)), k=1)
    b[np.diag_indices(n)] = rng.uniform(0.5, 2.0, n)
    return b


def rand_pseudo_unitary(rng, n):
    """Random element of U(n,n) via the block normal form."""
    delta = np.sort(rng.uniform(0.2, 2.0, n))[::-1]
    gamma, sigma = np.cosh(delta), np.sinh(delta)
    c = np.block([[np.diag(gamma), np.diag(sigma)],
                  [np.diag(sigma), np.diag(gamma)]]).astype(complex)
    z = np.zeros((n, n))
    left = np.block([[rand_unitary(rng, n), z], [z, rand_unitary(rng, n)]])
    right = np.block([[rand_unitary(rng, n), z], [z, rand_unitary(rng, n)]])
    return left @ c @ right


def block_unitary(rng, n):
    z = np.zeros((n, n))
    return np.block([[rand_unitary(rng, n), z], [z, rand_unitary(rng, n)]])


def vhat_stabilizer(rng, n):
    """Random block U(1) x U(n-1) unitary (stabilizer of the e_1 line)."""
    u = np.zeros((n, n), dtype=complex)
    u[0, 0] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    if n > 1:
        u[1:, 1:] = rand_unitary(rng, n - 1)
    return u

