import re

import numpy as np
import pytest

from conftest import (
    block_unitary,
    draw_point,
    rand_pseudo_unitary,
    rand_triangular_positive,
    rand_unitary,
    vhat_stabilizer,
)

from bcn_ruijsenaars.decomposition import (
    cartan_KAK,
    decompose_BK,
    decompose_KB,
    extract_reduced,
    surface_residuals,
)
from bcn_ruijsenaars.errors import (
    DegenerateElement,
    InvalidInput,
    NotOnConstraintSurface,
    NotOnLeaf,
)
from bcn_ruijsenaars.matops import frob, inn, rel_err
from bcn_ruijsenaars.model import ReducedPoint, make_params, wrap_angle
from bcn_ruijsenaars.reconstruction import assemble


class TestKB:
    def test_pseudo_unitary_input(self):
        rng = np.random.default_rng(31)
        g = rand_pseudo_unitary(rng, 3)
        k, b = decompose_KB(g)
        assert rel_err(k, g) < 1e-10
        assert rel_err(b, np.eye(6)) < 1e-10

    def test_triangular_input(self):
        rng = np.random.default_rng(32)
        g = rand_triangular_positive(rng, 6)
        k, b = decompose_KB(g)
        assert rel_err(b, g) < 1e-10
        assert rel_err(k, np.eye(6)) < 1e-10

    def test_assembled_element_structure(self):
        rng = np.random.default_rng(33)
        params = make_params(0.5, 1.3, 0.8, 2)
        fact, _ = assemble(draw_point(rng, params), params)
        k, b = decompose_KB(fact.g)
        assert rel_err(b[:2, :2], params.x * np.eye(2)) < 1e-10
        assert rel_err(b[2:, 2:], np.eye(2) / params.x) < 1e-10

    def test_left_inverse_of_multiply(self):
        rng = np.random.default_rng(34)
        for n in (1, 2, 3):
            k0 = rand_pseudo_unitary(rng, n)
            b0 = rand_triangular_positive(rng, 2 * n)
            k, b = decompose_KB(k0 @ b0)
            assert rel_err(k, k0) < 1e-10
            assert rel_err(b, b0) < 1e-10


class TestBK:
    def test_assembled_element_structure(self):
        rng = np.random.default_rng(35)
        params = make_params(0.5, 1.0, 1.2, 2)
        fact, _ = assemble(draw_point(rng, params), params)
        b, k = decompose_BK(fact.g)
        assert rel_err(b[2:, 2:], params.y * np.eye(2)) < 1e-10
        assert rel_err(b @ k, fact.g) < 1e-10
        assert frob(k.conj().T @ inn(2) @ k - inn(2)) < 1e-9

    def test_triangular_input(self):
        rng = np.random.default_rng(36)
        g = rand_triangular_positive(rng, 4)
        b, k = decompose_BK(g)
        assert rel_err(b, g) < 1e-10
        assert rel_err(k, np.eye(4)) < 1e-10

    def test_wrong_signature(self):
        rng = np.random.default_rng(37)
        u = rand_unitary(rng, 4)   # u J u^dag has scrambled signature order
        with pytest.raises(NotOnLeaf):
            decompose_BK(u @ np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex))


class TestCartanKAK:
    def test_normal_form_input(self):
        delta = np.array([1.0, 0.5])
        g, s = np.diag(np.cosh(delta)), np.diag(np.sinh(delta))
        k = np.block([[g, s], [s, g]]).astype(complex)
        kak = cartan_KAK(k)
        assert np.allclose(kak.Delta, delta, atol=1e-12)
        assert rel_err(kak.reassemble(), k) < 1e-10

    def test_synthesis_roundtrip(self):
        rng = np.random.default_rng(38)
        for n in (1, 2, 3, 4):
            delta = np.sort(rng.uniform(0.2, 2.2, n))[::-1]
            g, s = np.diag(np.cosh(delta)), np.diag(np.sinh(delta))
            c = np.block([[g, s], [s, g]]).astype(complex)
            k = block_unitary(rng, n) @ c @ block_unitary(rng, n)
            kak = cartan_KAK(k)
            assert np.allclose(kak.Delta, delta, atol=1e-10)
            assert rel_err(kak.reassemble(), k) < 1e-10

    def test_degenerate_delta(self):
        delta = np.array([0.7, 0.7])
        g, s = np.diag(np.cosh(delta)), np.diag(np.sinh(delta))
        k = np.block([[g, s], [s, g]]).astype(complex)
        with pytest.raises(DegenerateElement):
            cartan_KAK(k)

    def test_delta_matches_lower_left_block_spectrum(self):
        rng = np.random.default_rng(39)
        k = rand_pseudo_unitary(rng, 3)
        kak = cartan_KAK(k)
        sv = np.sort(np.linalg.svd(k[3:, :3], compute_uv=False))[::-1]
        assert np.allclose(kak.Delta, np.arcsinh(sv), atol=1e-10)


class TestExtractReduced:
    def test_scalar_phase(self):
        params = make_params(0.5, 1, 1, 1)
        fact, _ = assemble(ReducedPoint(np.array([0.2]), np.array([0.3])), params)
        out = extract_reduced(fact.g, params)
        assert out.p[0] == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(40 + n)
        params = make_params(0.5, 1.0, 1.0, n)
        for _ in range(10):
            point = draw_point(rng, params)
            fact, _ = assemble(point, params)
            out = extract_reduced(fact.g, params)
            assert np.max(np.abs(out.q - point.q)) < 1e-9
            assert np.max(np.abs(wrap_angle(out.p - point.p))) < 1e-9

    def test_gauge_invariance(self):
        rng = np.random.default_rng(44)
        params = make_params(0.6, 1.2, 0.9, 3)
        point = draw_point(rng, params)
        fact, _ = assemble(point, params)
        z = np.zeros((3, 3))
        for _ in range(20):
            u = np.block([[vhat_stabilizer(rng, 3), z],
                          [z, rand_unitary(rng, 3)]])
            h = block_unitary(rng, 3)
            out = extract_reduced(u @ fact.g @ h, params)
            assert np.max(np.abs(out.q - point.q)) < 1e-9
            assert np.max(np.abs(wrap_angle(out.p - point.p))) < 1e-9

    def test_far_negative_position_roundtrip(self):
        # Gamma = sqrt(1 + e^-16) ~ 1: Sigma must not come from sqrt(Gamma^2 - 1)
        params = make_params(0.5, 1.0, 1.0, 2)
        point = ReducedPoint(np.array([0.0, -8.0]), np.array([0.3, -0.2]))
        fact, _ = assemble(point, params)
        out = extract_reduced(fact.g, params)
        assert np.max(np.abs(out.q - point.q)) < 1e-13

    def test_off_surface_rejected(self):
        params = make_params(0.5, 1, 1, 2)
        with pytest.raises(NotOnConstraintSurface):
            extract_reduced(2.0 * np.eye(4, dtype=complex), params)


def test_surface_residuals_on_assembled_point():
    rng = np.random.default_rng(45)
    params = make_params(0.5, 1.0, 1.0, 2)
    fact, _ = assemble(draw_point(rng, params), params)
    res = surface_residuals(fact.g, params)
    assert max(res.values()) < 1e-10


@pytest.mark.parametrize("func", [extract_reduced, surface_residuals])
def test_element_of_the_wrong_size_rejected(func):
    # a 6 x 6 identity is on the leaf, so only the size check can stop it
    with pytest.raises(InvalidInput, match="expected shape"):
        func(np.eye(6), make_params(0.5, 1.0, 1.0, 2))


@pytest.mark.parametrize("split", [decompose_KB, decompose_BK])
@pytest.mark.parametrize("shape", [(4, 2), (3, 3), (2, 4, 2), (3,)])
def test_split_of_a_non_square_or_odd_element_names_g(split, shape):
    with pytest.raises(InvalidInput, match=r"^g must"):
        split(np.ones(shape, dtype=complex))


@pytest.mark.parametrize("k", [np.eye(3), np.ones((4, 2)), np.ones(3)])
def test_kak_of_a_non_square_or_odd_element_names_k(k):
    # the shape check stops k before the pseudo-unitarity test, whose
    # broadcast would fail with a raw ValueError
    message = "^k must be square of even dimension, got shape " + re.escape(str(k.shape))
    with pytest.raises(InvalidInput, match=message):
        cartan_KAK(k)


@pytest.mark.parametrize("call, name", [(decompose_KB, "g"), (decompose_BK, "g"),
                                        (cartan_KAK, "k")])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_element_is_named(call, name, bad):
    # was "matrix contains ...", from the factorization's or the
    # pseudo-unitarity test's own check (an inf: a warning first)
    a = np.eye(4, dtype=complex)
    a[1, 2] = bad
    with pytest.raises(InvalidInput, match=f"^{name} contains non-finite entries$"):
        call(a)


@pytest.mark.parametrize("split", [decompose_KB, decompose_BK])
def test_split_keeps_the_error_class_of_square_even_elements(split):
    # swapping e_1 and e_3 scrambles the signature: off the leaf
    with pytest.raises(NotOnLeaf):
        split(np.eye(4, dtype=complex)[[2, 1, 0, 3]])
    g = np.eye(4, dtype=complex)
    g[0, 1] = np.nan
    with pytest.raises(InvalidInput):
        split(g)
