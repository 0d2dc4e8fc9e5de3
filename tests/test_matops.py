import math

import numpy as np
import pytest

from conftest import rand_complex, rand_hermitian, rand_triangular_positive

from bcn_ruijsenaars import matops
from bcn_ruijsenaars.dynamics import exact_flow
from bcn_ruijsenaars.errors import InvalidInput, NotOnLeaf, NumericalFailure
from bcn_ruijsenaars.matops import (
    expm,
    frob,
    indefinite_cholesky_upper,
    indefinite_cholesky_upper_dual,
    inn,
    is_hermitian,
    is_pseudo_unitary,
    j_gram,
    j_moment,
    map_chunks,
    signs,
)
from bcn_ruijsenaars.model import make_params
from bcn_ruijsenaars.reconstruction import assemble_stack
from bcn_ruijsenaars.sampling import random_admissible_points


def taylor_expm(a, terms=30):
    """Independent oracle: heavily scaled Taylor series, then squaring."""
    a = np.asarray(a, dtype=complex)
    norm = max(float(np.linalg.norm(a, 1)), 1e-30)
    s = max(0, int(np.ceil(np.log2(norm / 0.25))))
    x = a / 2.0 ** s
    out = np.eye(a.shape[0], dtype=complex)
    for k in range(terms, 0, -1):
        out = np.eye(a.shape[0]) + x @ out / k
    for _ in range(s):
        out = out @ out
    return out


class TestExpm:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_nilpotent_closed_form(self):
        assert np.allclose(expm(np.array([[0.0, 1.0], [0.0, 0.0]])),
                           np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)

    def test_diagonal_phases(self):
        theta = np.array([0.3, -1.2, 2.5])
        out = expm(1j * np.diag(theta))
        assert np.allclose(np.diagonal(out), np.exp(1j * theta), atol=1e-14)

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
    def test_inverse_identity(self, scale):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a = rand_complex(rng, (6, 6))
            a *= scale / np.linalg.norm(a, 1)
            r = expm(a) @ expm(-a) - np.eye(6)
            assert frob(r) < 1e-11

    # 5.3 and 5.4 lie either side of theta13 = 5.37, where squaring starts
    @pytest.mark.parametrize("norm", [1e-6, 0.01, 0.5, 2.0, 5.3, 5.4, 8.0, 30.0, 50.0])
    def test_against_taylor_oracle(self, norm):
        rng = np.random.default_rng(15)
        a = rand_complex(rng, (5, 5))
        a *= norm / np.linalg.norm(a, 1)
        e1, e2 = expm(a), taylor_expm(a)
        assert frob(e1 - e2) <= 1e-12 * frob(e2)


def test_norms_of_a_stack_are_per_matrix():
    rng = np.random.default_rng(18)
    a, b = rand_complex(rng, (2, 5, 6, 6))
    norms, errs = frob(a), matops.rel_err(a, b)
    assert norms.shape == errs.shape == (5,)
    for i in range(5):
        assert norms[i] == frob(a[i]) == pytest.approx(np.linalg.norm(a[i]), rel=1e-15)
        assert errs[i] == matops.rel_err(a[i], b[i])
    assert np.array_equal(matops.rel_err(a, b[0]), frob(a - b[0]) / frob(b[0]))


def test_stacked_expm_equals_each_matrix_alone():
    """A stack is grouped by squaring count; each matrix gets the
    arithmetic it gets alone, bit for bit, in every group."""
    rng = np.random.default_rng(19)
    norms = np.geomspace(1e-3, 1e2, 48)
    a = rand_complex(rng, (48, 6, 6))
    a *= (norms / np.linalg.norm(a, 1, axis=(-2, -1)))[:, None, None]
    theta = matops._THETA13
    counts = {math.ceil(math.log2(max(float(np.linalg.norm(x, 1)), theta) / theta))
              for x in a}
    assert counts == {0, 1, 2, 3, 4, 5}
    stacked = expm(a)
    for x, e in zip(a, stacked):
        assert np.array_equal(e, expm(x))
    assert np.array_equal(expm(a.reshape(4, 12, 6, 6)).reshape(a.shape), stacked)


class TestMapChunks:
    def test_results_in_row_order(self):
        a, b = np.arange(10.0), np.arange(10.0, 30.0).reshape(10, 2)
        sizes = []

        def fn(x, y):
            sizes.append(len(x))
            return x[:, None] * y

        assert map_chunks(fn, 4, a, b).tolist() == (a[:, None] * b).tolist()
        assert sizes == [4, 4, 2]
        first, second = map_chunks(lambda x: (x, 2 * x), 3, a)
        assert first.tolist() == a.tolist() and second.tolist() == (2 * a).tolist()
        named = map_chunks(lambda x: {"neg": -x, "sq": x * x}, 6, a)
        assert list(named) == ["neg", "sq"]
        assert named["sq"].tolist() == (a * a).tolist()

    def test_no_rows_make_one_call(self):
        sizes = []
        out = map_chunks(lambda x: sizes.append(len(x)) or x + 1.0, 4, np.empty(0))
        assert sizes == [0] and out.shape == (0,)

    def test_a_failing_chunk_raises_the_error_of_its_first_failing_row(self):
        def fn(x):
            # a stage-by-stage check of a stack meets the last bad row first
            if np.any(x < 0):
                raise NumericalFailure(f"bad row {x[x < 0][-1]}")
            return x
        rows = np.array([1.0, -2.0, 3.0, -4.0, 5.0])
        with pytest.raises(NumericalFailure, match="bad row -2.0"):
            map_chunks(fn, 8, rows)

    def test_warnings_follow_the_caller_settings(self):
        rows = np.array([1.0, 0.0, 2.0])
        sizes = []

        def fn(x):
            sizes.append(len(x))
            return np.log(x)

        with np.errstate(divide="ignore"):
            out = map_chunks(fn, 8, rows)
        assert sizes == [3] and out.tolist() == [0.0, -np.inf, math.log(2.0)]
        sizes.clear()
        # a warning the caller would see replays the chunk row by row, so
        # it is issued once, by the row that causes it
        with np.errstate(divide="warn"), pytest.warns(RuntimeWarning) as seen:
            assert map_chunks(fn, 8, rows).tolist() == out.tolist()
        assert sizes == [3, 1, 1, 1] and len(seen) == 1
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            map_chunks(fn, 8, rows)


class TestIndefiniteCholesky:
    def test_signature_matrix_itself(self):
        b = indefinite_cholesky_upper(inn(2))
        assert np.allclose(b, np.eye(4))

    def test_roundtrip_recovers_factor(self):
        rng = np.random.default_rng(16)
        j = inn(3)
        b0 = rand_triangular_positive(rng, 6)
        h = b0.conj().T @ j @ b0
        b = indefinite_cholesky_upper(h)
        assert frob(b - b0) <= 1e-11 * max(1.0, frob(b0))

    def test_wrong_signature_raises(self):
        with pytest.raises(NotOnLeaf):
            indefinite_cholesky_upper(-inn(2))

    def test_dual_roundtrip(self):
        rng = np.random.default_rng(17)
        j = inn(3)
        b0 = rand_triangular_positive(rng, 6)
        m = b0 @ j @ b0.conj().T
        b = indefinite_cholesky_upper_dual(m)
        assert frob(b - b0) <= 1e-11 * max(1.0, frob(b0))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInput):
            indefinite_cholesky_upper(np.array([[1.0, 1.0], [0.0, -1.0]]))

    @pytest.mark.parametrize("factor", [indefinite_cholesky_upper,
                                        indefinite_cholesky_upper_dual])
    def test_rejects_odd_size(self, factor):
        with pytest.raises(InvalidInput, match="even dimension"):
            factor(np.eye(3, dtype=complex))

    @pytest.mark.parametrize("h, block", [
        (-inn(2), "upper-left block"),                # h11 = -I
        (np.eye(4, dtype=complex), "Schur complement"),  # b12 = 0, -h22 = -I
    ])
    def test_not_on_leaf_from_each_block(self, h, block):
        with pytest.raises(NotOnLeaf, match=block):
            indefinite_cholesky_upper(h)

    @pytest.mark.parametrize("m, block", [
        (-inn(2), "lower-right block"),                # -m22 = -I
        (-np.eye(4, dtype=complex), "Schur complement"),  # b12 = 0, m11 = -I
    ])
    def test_dual_not_on_leaf_from_each_block(self, m, block):
        with pytest.raises(NotOnLeaf, match=block):
            indefinite_cholesky_upper_dual(m)


def _loop_cholesky_upper(h):
    """Reference h = b^dag J b, eliminating row by row (J = diag(I, -I))."""
    size = h.shape[0]
    j = np.concatenate([np.ones(size // 2), -np.ones(size // 2)])
    b = np.zeros((size, size), dtype=complex)
    for i in range(size):
        d = h[i, i].real - np.sum(j[:i] * np.abs(b[:i, i]) ** 2)
        b[i, i] = math.sqrt(j[i] * d)
        s = (j[:i] * b[:i, i].conj()) @ b[:i, i + 1:]
        b[i, i + 1:] = j[i] * (h[i, i + 1:] - s) / b[i, i].real
    return b


def _loop_cholesky_upper_dual(m):
    """Reference m = b J b^dag, eliminating from the lower-right corner up."""
    size = m.shape[0]
    j = np.concatenate([np.ones(size // 2), -np.ones(size // 2)])
    b = np.zeros((size, size), dtype=complex)
    for k in range(size - 1, -1, -1):
        d = m[k, k].real - np.sum(j[k + 1:] * np.abs(b[k, k + 1:]) ** 2)
        b[k, k] = math.sqrt(j[k] * d)
        s = b[:k, k + 1:] @ (j[k + 1:] * b[k, k + 1:].conj())
        b[:k, k] = j[k] * (m[:k, k] - s) / b[k, k].real
    return b


@pytest.mark.parametrize("n", range(1, 9))
def test_blocked_factorizations_match_row_loop(n):
    """2n = 2..16, on the elements the factorizations serve: assembled
    constrained elements and their images under the exact flow."""
    params = make_params(0.6, 1.2, 0.8, n)
    j = inn(n)
    q, p = random_admissible_points(np.random.default_rng(200 + n), params, 5)
    for g0 in assemble_stack(q, p, params)[0].g:
        for g in (g0, exact_flow(g0, 0.5)):
            h = g.conj().T @ j @ g
            m = g @ j @ g.conj().T
            ref = _loop_cholesky_upper(h)
            assert frob(indefinite_cholesky_upper(h) - ref) <= 1e-11 * max(1.0, frob(ref))
            ref = _loop_cholesky_upper_dual(m)
            assert frob(indefinite_cholesky_upper_dual(m) - ref) <= 1e-11 * max(1.0, frob(ref))


class TestPredicates:
    def test_structska(self):
        rng = np.random.default_rng(18)
        h = rand_hermitian(rng, 4)
        assert is_hermitian(h) and not is_hermitian(h + 1j * np.eye(4))
        z = np.zeros((2, 2))
        k = np.block([[np.cosh(1.0) * np.eye(2), np.sinh(1.0) * np.eye(2)],
                      [np.sinh(1.0) * np.eye(2), np.cosh(1.0) * np.eye(2)]])
        assert is_pseudo_unitary(k.astype(complex))
        assert not is_pseudo_unitary(2.0 * k.astype(complex))

    def test_finiteness_guard(self):
        bad = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidInput):
            expm(bad)


class TestStructuredProducts:
    """The premise of the structured products: a product with J or with a
    real diagonal matrix, formed as a scaling of rows or columns, has
    exactly the bits of the dense product, for finite complex and real
    matrices and stacks (entries spread over 16 decades)."""

    @staticmethod
    def draw(rng, shape, complex_=True):
        spread = 10.0 ** rng.uniform(-8.0, 8.0, shape)
        x = rng.standard_normal(shape) * spread
        return x + 1j * rng.standard_normal(shape) * spread if complex_ else x

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("lead", [(), (1,), (5,), (3, 2)], ids=str)
    def test_signature_scalings_equal_dense_products(self, n, lead):
        rng = np.random.default_rng(1000 * n + len(lead))
        j, s = inn(n), signs(n)
        for _ in range(5):
            x, y = (self.draw(rng, lead + (2 * n, 2 * n)) for _ in range(2))
            xd = x.conj().swapaxes(-1, -2)
            assert np.array_equal(j_gram(x), xd @ j @ x)
            assert np.array_equal(j_moment(x), x @ j @ xd)
            assert np.array_equal((x * s) @ y, x @ j @ y)
            assert np.array_equal(x * s, x @ j)
            assert np.array_equal((s[:, None] * xd * s) @ y, j @ xd @ j @ y)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("lead", [(), (1,), (5,), (3, 2)], ids=str)
    @pytest.mark.parametrize("complex_", [True, False], ids=["complex", "real"])
    def test_diagonal_scalings_equal_dense_products(self, n, lead, complex_):
        rng = np.random.default_rng(2000 * n + len(lead) + complex_)
        for _ in range(5):
            x, y = (self.draw(rng, lead + (n, n), complex_) for _ in range(2))
            d = self.draw(rng, lead + (n,), complex_=False)
            dense = d[..., None] * np.eye(n)
            xt = x.conj().swapaxes(-1, -2)          # a transposed view, as dagger gives
            assert np.array_equal((xt * d[..., None, :]) @ y, xt @ dense @ y)
            assert np.array_equal((x * d[..., None, :]) @ y, x @ dense @ y)


@pytest.mark.parametrize("n", range(1, 9))
def test_factorization_residual_sweep(n):
    """All kernel residual bounds on random inputs per size."""
    rng = np.random.default_rng(100 + n)
    j = inn(n)
    for _ in range(25):
        h = rand_hermitian(rng, n)
        w, u = np.linalg.eigh(h)
        assert frob(u @ np.diag(w) @ u.conj().T - h) <= 1e-12 * max(1.0, frob(h))

        m = rand_complex(rng, (n, n))
        u, s, vh = np.linalg.svd(m)
        assert frob(u @ np.diag(s) @ vh - m) <= 1e-12 * max(1.0, frob(m))

        b0 = rand_triangular_positive(rng, 2 * n)
        h2 = b0.conj().T @ j @ b0
        b = indefinite_cholesky_upper(h2)
        assert frob(b.conj().T @ j @ b - h2) <= 1e-11 * max(1.0, frob(h2))

        a = rand_complex(rng, (n, n))
        a *= rng.uniform(0.1, 10.0) / max(np.linalg.norm(a, 1), 1e-30)
        assert frob(expm(a) @ expm(-a) - np.eye(n)) < 1e-11
