import math

import numpy as np
import pytest

from conftest import draw_point, vhat_stabilizer

from bcn_ruijsenaars.errors import NumericalFailure, SeparationViolation
from bcn_ruijsenaars.matops import frob, inn, rel_err
from bcn_ruijsenaars.model import ReducedPoint, cartan_from_q, make_params
from bcn_ruijsenaars.reconstruction import (
    assemble,
    build_sigma_rho,
    build_Ttilde,
    solve_v,
    verify_constraints,
)


class TestSolveV:
    def test_scalar_residue(self):
        # n=1: v^2 = (1 - alpha^2) Sigma^2
        v = solve_v([2.0], 0.5)
        assert v[0] == pytest.approx(math.sqrt(3.0))

    def test_rational_identity(self):
        # 1 + v^T (a^2 S^2 - l)^{-1} v = det(S^2 - l)/det(a^2 S^2 - l)
        rng = np.random.default_rng(21)
        sigma = np.exp(np.array([1.4, 0.3, -0.9]))
        alpha = 0.5
        v = solve_v(sigma, alpha)
        s2 = sigma ** 2
        for _ in range(10):
            lam = rng.uniform(-5, 5) + 1j * rng.uniform(0.5, 3.0)
            lhs = 1.0 + np.sum(v ** 2 / (alpha ** 2 * s2 - lam))
            rhs = np.prod(s2 - lam) / np.prod(alpha ** 2 * s2 - lam)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_norm_constant(self):
        sigma = np.exp(np.array([2.0, 0.5, -0.4, -1.6]))
        alpha = 0.45
        v = solve_v(sigma, alpha)
        expected = alpha ** (2 - 2 * 4) - alpha ** 2
        assert np.sum((v / sigma) ** 2) == pytest.approx(expected, abs=1e-10)

    def test_separation_violation(self):
        with pytest.raises(SeparationViolation):
            solve_v(np.exp(np.array([0.1, 0.0])), 0.5)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_matches_raw_products(self, n):
        # the residue formula as written, where its raw products stay finite
        rng = np.random.default_rng(30 + n)
        alpha = 0.6
        q = -np.cumsum(rng.uniform(0.6, 1.0, n)) + 0.4 * n
        s = np.exp(2.0 * q)
        raw = [np.prod(s - alpha ** 2 * s[k])
               / np.prod(alpha ** 2 * np.delete(s - s[k], k)) for k in range(n)]
        assert np.allclose(solve_v(np.exp(q), alpha), np.sqrt(raw), rtol=1e-13, atol=0.0)

    def test_wide_spread_stays_finite(self):
        # raw Sigma^2 products overflow here; the ratios do not
        q = 0.6 * np.arange(23, -1, -1) - 7.2 + 10.0
        v = solve_v(np.exp(q), 0.6)
        assert np.all(np.isfinite(v)) and np.all(v > 0.0)
        expected = 0.6 ** (2 - 2 * 24) - 0.6 ** 2
        assert np.sum((v / np.exp(q)) ** 2) == pytest.approx(expected, rel=1e-12)

    def test_non_finite_is_numerical_failure(self):
        with pytest.raises(NumericalFailure), np.errstate(over="ignore", invalid="ignore"):
            solve_v(np.array([1e200, 1.0]), 0.5)


class TestBuildTtilde:
    def test_scalar(self):
        t = build_Ttilde([2.0], 0.5, solve_v([2.0], 0.5))
        assert np.allclose(t, [[1.0]])

    def test_orthogonality(self):
        sigma = np.exp(np.array([1.0, 0.0]))
        v = solve_v(sigma, 0.5)
        t = build_Ttilde(sigma, 0.5, v)
        assert frob(t.T @ t - np.eye(2)) < 1e-12

    def test_rows_collinear_with_resolvent(self):
        sigma = np.exp(np.array([1.2, 0.1, -1.0]))
        alpha, n = 0.55, 3
        v = solve_v(sigma, alpha)
        t = build_Ttilde(sigma, alpha, v)
        s2 = sigma ** 2
        for i in range(n):
            ref = v / (s2[i] - alpha ** 2 * s2)
            ref = ref / np.linalg.norm(ref)
            assert np.allclose(t[i], ref, atol=1e-13)

    def test_momentum_constraint(self):
        sigma = np.exp(np.array([1.0, -0.2]))
        alpha = 0.5
        v = solve_v(sigma, alpha)
        t = build_Ttilde(sigma, alpha, v)
        lhs = t.T @ np.diag(sigma ** 2) @ t
        rhs = alpha ** 2 * np.diag(sigma ** 2) + np.outer(v, v)
        assert rel_err(lhs, rhs) < 1e-10


class TestSigmaRho:
    def test_scalar(self):
        params = make_params(0.5, 1, 1, 1)
        cdata = cartan_from_q([0.4], params)
        v = solve_v(cdata.Sigma, 0.5)
        sig, rho, vhat = build_sigma_rho(cdata, v, params)
        assert np.allclose(sig, [[1.0]])
        assert np.allclose(rho, [[1.0]])

    def test_n2_diagonal_and_unit_det(self):
        params = make_params(0.5, 1, 1, 2)
        cdata = cartan_from_q([1.0, 0.0], params)
        v = solve_v(cdata.Sigma, 0.5)
        sig, rho, vhat = build_sigma_rho(cdata, v, params)
        assert np.allclose(np.diagonal(sig), [2.0, 0.5])
        assert np.linalg.det(sig) == pytest.approx(1.0, abs=1e-12)

    def test_rho_properties(self):
        params = make_params(0.45, 1.3, 0.7, 4)
        cdata = cartan_from_q([1.9, 0.7, -0.5, -1.8], params)
        v = solve_v(cdata.Sigma, params.alpha)
        sig, rho, vhat = build_sigma_rho(cdata, v, params)
        vtilde = v / cdata.Sigma
        assert frob(rho @ vtilde - vhat) < 1e-13
        assert frob(rho.T @ rho - np.eye(4)) < 1e-13
        assert np.linalg.det(rho) == pytest.approx(1.0, abs=1e-12)


class TestAssemble:
    def test_reference_point_all_residuals(self):
        params = make_params(0.5, 1, 1, 1)
        fact, cdata = assemble(ReducedPoint(np.array([0.0]), np.array([0.0])), params)
        rep = verify_constraints(fact, cdata, params)
        assert rep.ok, rep.worst()
        assert rep.max_residual < 1e-10

    def test_momentum_block_identity(self):
        # g J g^dag has (2,2) block -y^2 I and (1,2) block -nu
        params = make_params(0.6, 1.1, 0.9, 3)
        rng = np.random.default_rng(22)
        fact, cdata = assemble(draw_point(rng, params), params)
        m = fact.g @ inn(3) @ fact.g.conj().T
        assert rel_err(m[3:, 3:], -params.y ** 2 * np.eye(3)) < 1e-10
        assert rel_err(m[:3, 3:], -cdata.nu) < 1e-10

    def test_phase_periodicity(self):
        params = make_params(0.5, 1, 1, 2)
        q = np.array([0.9, -0.5])
        p = np.array([0.7, -2.0])
        g1, _ = assemble(ReducedPoint(q, p), params)
        g2, _ = assemble(ReducedPoint(q, p + 2 * np.pi), params)
        assert rel_err(g2.g, g1.g) < 1e-12

    def test_right_factor_closed_form(self):
        # k_R = y^-1 diag(sigma^-1 rho Sigma^-1 T^dag, I)
        #       [[Lambda, x Sigma^2], [x I, Lambda]] diag(Sigma, T)
        params = make_params(0.55, 1.2, 0.8, 2)
        rng = np.random.default_rng(23)
        fact, cd = assemble(draw_point(rng, params), params)
        Sigma, Lambda = cd.cartan.Sigma, cd.cartan.Lambda
        n, x, y = 2, params.x, params.y
        z = np.zeros((n, n))
        pre = np.block([
            [np.linalg.inv(cd.sigma) @ cd.rho @ np.diag(1 / Sigma) @ cd.T.conj().T, z],
            [z, np.eye(n)]])
        mid = np.block([[np.diag(Lambda), x * np.diag(Sigma ** 2)],
                        [x * np.eye(n), np.diag(Lambda)]])
        post = np.block([[np.diag(Sigma).astype(complex), z], [z, cd.T]])
        assert rel_err(pre @ mid @ post / y, fact.k_R) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_invariant_suite_random_points(self, n):
        rng = np.random.default_rng(24 + n)
        params = make_params(0.5, 1.0, 1.0, n)
        for _ in range(10):
            fact, cdata = assemble(draw_point(rng, params), params)
            rep = verify_constraints(fact, cdata, params)
            assert rep.ok, rep.worst()
            assert rel_err(fact.k_L @ fact.b_R, fact.b_L @ fact.k_R) < 1e-10

    def test_gauge_invariant_extraction(self):
        # replacing rho by R rho (R in the vhat stabilizer) moves g inside
        # its gauge orbit; extraction returns the same reduced point
        from bcn_ruijsenaars.decomposition import extract_reduced
        from bcn_ruijsenaars.model import wrap_angle

        rng = np.random.default_rng(25)
        params = make_params(0.5, 1.0, 1.0, 3)
        point = draw_point(rng, params)
        fact, cd = assemble(point, params)
        for _ in range(5):
            r = vhat_stabilizer(rng, 3)
            z = np.zeros((3, 3))
            left = np.block([[r, z], [z, np.eye(3)]])
            g2 = left @ fact.g          # k_L -> diag(R, I) k_L, i.e. rho -> R rho
            out = extract_reduced(g2, params)
            assert np.max(np.abs(out.q - point.q)) < 1e-9
            assert np.max(np.abs(wrap_angle(out.p - point.p))) < 1e-9


class TestVerifyReport:
    def test_perturbed_element_is_flagged(self):
        rng = np.random.default_rng(26)
        params = make_params(0.5, 1, 1, 2)
        fact, cdata = assemble(draw_point(rng, params), params)
        bad = fact.__class__(g=fact.g + 1e-3, k_L=fact.k_L, b_R=fact.b_R,
                             b_L=fact.b_L, k_R=fact.k_R)
        rep = verify_constraints(bad, cdata, params)
        assert not rep.ok
        assert "leaf_left" in rep.violated

    def test_identity_is_off_surface(self):
        rng = np.random.default_rng(27)
        params = make_params(0.5, 1, 1, 2)
        fact, cdata = assemble(draw_point(rng, params), params)
        bad = fact.__class__(g=np.eye(4, dtype=complex), k_L=fact.k_L,
                             b_R=fact.b_R, b_L=fact.b_L, k_R=fact.k_R)
        rep = verify_constraints(bad, cdata, params)
        assert not rep.ok and len(rep.violated) > 0
