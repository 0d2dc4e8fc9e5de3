"""Dense complex matrix kernel.

Everything downstream works with plain ``numpy`` arrays of ``complex128``
(matrices) and ``float64`` (diagonal data).  This module supplies the
factorizations and transcendental operations the rest of the package
needs at sizes up to a few dozen:

* the rule for a group element, `require_element` (`as_signature_input`
  for a stack),
* structural predicates (Hermitian, pseudo-unitary with respect to an
  indefinite signature),
* the signature J = diag(I, -I) applied as its diagonal `signs`: a
  product X J Y is formed as (X * signs(n)) @ Y, one scaling of the
  columns of X instead of a dense 2n x 2n product (`j_gram`,
  `j_moment`),
* the matrix exponential by scaling-and-squaring with the (13, 13)
  diagonal Pade approximant (Higham 2005),
* the signature ("indefinite") Cholesky factorizations H = b^dag J b and
  M = b J b^dag with J = diag(I, -I) and b upper triangular with positive
  diagonal, each from two LAPACK Cholesky factorizations of n x n blocks.

For finite input a scaling gives exactly the bits of the dense product
with J (or with any diagonal matrix): each entry of X J is one entry of
X times +-1 plus exact zeros, so the outputs are those of the dense
products.  Every function but `inn`, `signs` and `require_element` also
takes a stack (..., N, N) of matrices.  Each matrix of a stack gets the
arithmetic it gets alone (numpy's stacked `matmul`, `solve` and
`cholesky` run the same BLAS/LAPACK call on every matrix), so a stack
only saves the Python overhead of a loop; a predicate holds, and a
factorization succeeds, only when it does for every matrix.  The package's chunked
passes (reconstruction, extraction, finite-difference stencils) run
through `map_chunks`, whose docstring states the chunk-and-replay rule.

All functions are pure; inputs are never modified.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BCNError, InvalidInput, NotOnLeaf, NumericalFailure

__all__ = [
    "inn",
    "signs",
    "j_gram",
    "j_moment",
    "frob",
    "rel_err",
    "dagger",
    "CHUNK_ENTRIES",
    "chunk_rows",
    "map_chunks",
    "as_signature_input",
    "require_element",
    "is_hermitian",
    "is_pseudo_unitary",
    "expm",
    "indefinite_cholesky_upper",
    "indefinite_cholesky_upper_dual",
]

#: default absolute tolerance for structural predicates, scaled by norm
STRUCT_TOL = 1e-10


def signs(n: int) -> np.ndarray:
    """The diagonal (+1 x n, -1 x n) of the signature J = inn(n)."""
    return np.concatenate([np.ones(n), -np.ones(n)])


def inn(n: int) -> np.ndarray:
    """Signature matrix diag(+1 x n, -1 x n) of size 2n x 2n, for
    comparisons; products with J scale by `signs(n)` instead."""
    return np.diag(signs(n)).astype(complex)


def j_gram(a) -> np.ndarray:
    """a^dag J a of a 2n x 2n matrix, or of each matrix of a stack, with J
    applied as the signs of the columns of a^dag: for finite a, the bits
    of the dense product with inn(n).  The input is not validated."""
    return (dagger(a) * signs(a.shape[-1] // 2)) @ a


def j_moment(g) -> np.ndarray:
    """The moment value g J g^dag of a 2n x 2n matrix, or of each matrix of
    a stack, with J applied as the signs of the columns of g: for finite
    g, the bits of the dense product with inn(n).  The input is not
    validated."""
    return (g * signs(g.shape[-1] // 2)) @ dagger(g)


def frob(a: np.ndarray):
    """Frobenius norm of a matrix (or vector), or of each matrix of a
    stack (..., N, N).

    Summed as a dot product of the C-ordered raveled real and imaginary
    parts, so a matrix has the same norm alone and in a stack.
    """
    a = np.asarray(a)
    rows = a.reshape(*a.shape[:-2], 1, math.prod(a.shape[-2:]))
    parts = (rows.real, rows.imag) if np.iscomplexobj(rows) else (rows,)
    return np.sqrt(sum((x @ x.swapaxes(-1, -2))[..., 0, 0] for x in parts))


def rel_err(actual: np.ndarray, target: np.ndarray):
    """Frobenius deviation of `actual` from `target`, relative to
    max(1, |target|); for a stack, one value per matrix (`target` may be
    one matrix or a stack)."""
    target = np.asarray(target)
    return frob(np.asarray(actual) - target) / np.maximum(1.0, frob(target))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


#: complex entries per stacked (T, N, N) array of one chunk
CHUNK_ENTRIES = 4096


def chunk_rows(size: int) -> int:
    """Matrices of one chunk of a stack of size x size matrices:
    CHUNK_ENTRIES // size^2, at least one (256 at 2n = 4, 16 at 2n = 16),
    which bounds the memory of a stacked pass."""
    return max(1, CHUNK_ENTRIES // (size * size))


def map_chunks(fn, size: int, *stacks):
    """`fn` on the rows of equally long stacks, `size` rows at a time:
    the chunk-and-replay rule of the package's chunked passes.

    `fn(*chunks)` returns an array, a tuple of arrays or a dict of
    arrays, each with one leading entry per row; the results of the
    chunks are concatenated in row order.  Each call runs with every
    floating-point warning the caller would see raised as an error.  A
    call that raises BCNError, LinAlgError or FloatingPointError is
    replayed one row at a time under the caller's warning settings: a
    stacked check meets its failing rows in the order of the checks, the
    replay in the order of the rows, so the first failing row raises
    exactly the error it raises alone and a row's warnings show as they
    would alone.  Stacks of no rows make one call on the empty stacks.
    """
    raise_on = {kind: "ignore" if how == "ignore" else "raise"
                for kind, how in np.geterr().items()}
    parts = []
    for start in range(0, max(1, len(stacks[0])), size):
        chunk = [s[start:start + size] for s in stacks]
        try:
            with np.errstate(**raise_on):
                parts.append(fn(*chunk))
        except (BCNError, np.linalg.LinAlgError, FloatingPointError):
            parts += [fn(*(s[i:i + 1] for s in chunk))
                      for i in range(max(1, len(chunk[0])))]
    first = parts[0]
    if isinstance(first, dict):
        return {key: np.concatenate([part[key] for part in parts]) for key in first}
    if isinstance(first, tuple):
        return tuple(np.concatenate(column) for column in zip(*parts))
    return np.concatenate(parts)


def _as_square(m, name: str = "matrix") -> np.ndarray:
    """A finite complex square matrix (N >= 1), or stack (..., N, N) of them."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1] or not a.shape[-1]:
        raise InvalidInput(f"{name} must be square with N >= 1, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


def as_signature_input(m, name: str = "matrix") -> np.ndarray:
    """A finite complex 2n x 2n matrix (n >= 1), or stack (..., 2n, 2n) of
    them, the shape J = diag(I, -I) acts on; else InvalidInput naming `name`."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1] or a.shape[-1] % 2 or not a.shape[-1]:
        raise InvalidInput(f"{name} must be square of even dimension, got shape {a.shape}")
    return _as_square(a, name)


def require_element(g, name: str = "g", n: int | None = None) -> np.ndarray:
    """The rule for a group element: one `as_signature_input` matrix, 2n x 2n if n is given."""
    g = as_signature_input(g, name)
    if g.ndim > 2:
        raise InvalidInput(f"{name} must be one matrix, got shape {g.shape}")
    if n is not None and g.shape != (2 * n, 2 * n):
        raise InvalidInput(f"expected shape {(2 * n, 2 * n)}, got {g.shape}")
    return g


def _hermitian(a: np.ndarray) -> bool:
    return bool(np.all(frob(a - dagger(a))
                       <= STRUCT_TOL * np.maximum(1.0, frob(a))))


def is_hermitian(m) -> bool:
    """m = m^dag within STRUCT_TOL (for a stack: every matrix)."""
    return _hermitian(_as_square(m))


def is_pseudo_unitary(m, tol: float = STRUCT_TOL) -> bool:
    """Check m^dag J m = J for J = diag(I, -I); for a stack, every matrix.
    m is checked by `as_signature_input`."""
    a = as_signature_input(m)
    return bool(np.all(frob(j_gram(a) - inn(a.shape[-1] // 2))
                       <= tol * np.maximum(1.0, frob(a) ** 2)))


# --- matrix exponential -----------------------------------------------------

# 1-norm up to which the (13, 13) diagonal Pade approximant of exp is
# accurate to double precision (Higham 2005), and its numerator
# coefficients b_j = (26 - j)! 13! / (26! j! (13 - j)!); the denominator
# is the same polynomial at -x
_THETA13 = 5.371920351148152e0
_B13 = np.array([math.comb(13, j) / math.perm(26, j) for j in range(14)])


def _pade13(a: np.ndarray) -> np.ndarray:
    b = _B13
    eye = np.eye(a.shape[-1], dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    )
    return np.linalg.solve(v - u, v + u)


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the (13, 13)
    diagonal Pade approximant (Higham 2005).

    The squaring count is s = ceil(log2(max(|m|_1, theta13) / theta13));
    the approximant is taken at m / 2^s and squared s times.  Relative
    accuracy is ~1e-12 for norms up to a few tens.  A stack (..., N, N)
    is grouped by squaring count and each group runs as one stack, so
    every matrix gets the arithmetic it gets alone.  Raises
    NumericalFailure if a result overflows.
    """
    a = _as_square(m)
    flat = a.reshape(-1, *a.shape[-2:])
    norms = np.linalg.norm(flat, 1, axis=(-2, -1)) if a.size else np.zeros(len(flat))
    counts = np.ceil(np.log2(np.maximum(norms, _THETA13) / _THETA13)).astype(int)
    out = np.empty_like(flat)
    for s in dict.fromkeys(counts.tolist()):
        idx = counts == s
        x = _pade13(flat[idx] / 2.0 ** s)
        for _ in range(s):
            x = x @ x
        if not np.all(np.isfinite(x)):
            raise NumericalFailure("expm: overflow during squaring phase")
        out[idx] = x
    return out.reshape(a.shape)


# --- signature Cholesky -----------------------------------------------------

def _cholesky(a: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of a block (or a stack of blocks) that must be
    positive definite."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotOnLeaf(f"{what} is not positive definite") from None


def _signature_input(h, name: str):
    """A zero matrix for the factor and the n x n blocks of a validated
    2n x 2n Hermitian input (or stack of inputs)."""
    a = as_signature_input(h)
    if not _hermitian(a):
        raise InvalidInput(f"{name}: input is not Hermitian")
    n = a.shape[-1] // 2
    return np.zeros_like(a), a[..., :n, :n], a[..., :n, n:], a[..., n:, n:]


def indefinite_cholesky_upper(h):
    """Factor a Hermitian matrix as h = b^dag J b with J = diag(I, -I).

    b is upper triangular with real positive diagonal.  In n x n blocks,
    h11 = b11^dag b11, h12 = b11^dag b12 and b22^dag b22 = b12^dag b12 - h22,
    so b comes from two Cholesky factorizations and one solve.  The
    factorization exists and is unique exactly when h lies in the image
    of b -> b^dag J b; otherwise NotOnLeaf is raised.
    """
    b, h11, h12, h22 = _signature_input(h, "indefinite_cholesky_upper")
    n = h11.shape[-1]
    l11 = _cholesky(h11, "upper-left block")
    b[..., :n, :n] = dagger(l11)
    b[..., :n, n:] = b12 = np.linalg.solve(l11, h12)
    b[..., n:, n:] = dagger(_cholesky(dagger(b12) @ b12 - h22, "Schur complement"))
    return b


def indefinite_cholesky_upper_dual(m):
    """Factor a Hermitian matrix as m = b J b^dag (same b conventions).

    The mirror of :func:`indefinite_cholesky_upper`: b22 b22^dag = -m22,
    b12 = -m12 b22^{-dag} and b11 b11^dag = m11 + b12 b12^dag.  An upper
    factor u with a = u u^dag is the lower Cholesky factor of a with rows
    and columns reversed, reversed back.
    """
    b, m11, m12, m22 = _signature_input(m, "indefinite_cholesky_upper_dual")
    n = m11.shape[-1]
    b[..., n:, n:] = b22 = _cholesky(-m22[..., ::-1, ::-1],
                                     "lower-right block")[..., ::-1, ::-1]
    b[..., :n, n:] = b12 = -dagger(np.linalg.solve(b22, dagger(m12)))
    b[..., :n, :n] = _cholesky((m11 + b12 @ dagger(b12))[..., ::-1, ::-1],
                               "Schur complement")[..., ::-1, ::-1]
    return b
