import math

import numpy as np
import pytest

from conftest import draw_point, vhat_stabilizer

from bcn_ruijsenaars import cli, reconstruction
from bcn_ruijsenaars.cli import main
from bcn_ruijsenaars.dynamics import integrate_reduced
from bcn_ruijsenaars.errors import (BCNError, ChamberViolation, NumericalFailure,
                                    SeparationViolation)
from bcn_ruijsenaars.matops import frob, inn, rel_err
from bcn_ruijsenaars.model import ReducedPoint, cartan_from_q, make_params
from bcn_ruijsenaars.reconstruction import (
    assemble,
    assemble_stack,
    build_sigma_rho,
    build_Ttilde,
    constraint_residuals,
    solve_v,
    verify_constraints,
)
from bcn_ruijsenaars.sampling import random_admissible_point


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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nan_residual_fails_and_is_the_worst(self):
        # at y = 1e-160 the norms of the b_L k_R checks overflow to NaN
        params = make_params(0.5, 1, 1e-160, 2)
        point = ReducedPoint(np.array([1.0, -1.0]), np.array([0.2, 0.15]))
        rep = verify_constraints(*assemble(point, params), params)
        assert not rep.ok and math.isnan(rep.max_residual)
        assert {"leaf_right", "kR_pseudounitary"} <= set(rep.violated)
        assert rep.worst()[0] == "leaf_right"

    def test_report_takes_the_first_worst_name(self):
        rep = reconstruction.constraint_report(
            {"a": 1.0, "b": 3.0, "c": math.nan, "d": 3.0, "e": math.nan}, tol=2.0)
        assert rep.worst()[0] == "c" and math.isnan(rep.max_residual)
        assert not rep.ok and rep.violated == ("b", "c", "d", "e")
        rep = reconstruction.constraint_report({"a": 1.0, "b": 3.0, "d": 3.0}, tol=4.0)
        assert rep.ok and rep.violated == () and rep.worst() == ("b", 3.0)


def _loop_verify(points, params):
    """Reference: the per-point `assemble` and `verify_constraints` of one
    matrix at a time, with 2-D norms; one residual dict per point."""
    def frob2(a):
        return float(np.linalg.norm(a))

    def rel_err2(actual, target):
        target = np.asarray(target)
        return frob2(np.asarray(actual) - target) / max(1.0, frob2(target))

    n, x, y, alpha = params.n, params.x, params.y, params.alpha
    eye, J = np.eye(n), inn(n)
    out = []
    for point in points:
        cdata = cartan_from_q(point.q, params)
        Sigma, Gamma, Lambda = cdata.Sigma, cdata.Gamma, cdata.Lambda
        v = solve_v(Sigma, alpha)
        Ttilde = build_Ttilde(Sigma, alpha, v)
        sig, rho, vhat = build_sigma_rho(cdata, v, params)
        vtilde = v / Sigma
        T = np.exp(1j * point.p)[:, None] * Ttilde
        Omega = Lambda[:, None] * T
        omega = (Omega - x ** -1 * np.diag(Gamma)) / Sigma[:, None]
        nu = rho @ ((y ** 2 * np.diag(Gamma).astype(complex)
                     - x ** -1 * Omega.conj().T) / Sigma[:, None])
        z = np.zeros((n, n))
        k_L = np.block([[rho * Gamma[None, :], rho * Sigma[None, :]],
                        [np.diag(Sigma), np.diag(Gamma)]]).astype(complex)
        b_R = np.block([[x * eye, z], [z, eye / x]]).astype(complex)
        b_R[:n, n:] = omega
        b_L = np.block([[sig / y, z], [z, y * eye]]).astype(complex)
        b_L[:n, n:] = nu / y
        g = k_L @ b_R
        k_R = np.linalg.solve(b_L, g)

        s2 = np.diag(Sigma ** 2)
        ssdag = sig @ sig.T
        res = {}
        res["v_nonnegative"] = max(0.0, -float(np.min(v)))
        res["vtilde_norm"] = abs(float(vtilde @ vtilde) - params.vhat_norm_sq) \
            / max(1.0, params.vhat_norm_sq)
        res["Ttilde_real"] = 0.0
        res["Ttilde_orthogonal"] = rel_err2(Ttilde.T @ Ttilde, eye)
        res["T_constraint"] = rel_err2(T.conj().T @ s2 @ T,
                                       alpha ** 2 * s2 + np.outer(v, v))
        res["Omega_polar"] = rel_err2(Omega @ Omega.conj().T, np.diag(Lambda ** 2))
        res["kks_element"] = rel_err2(ssdag, alpha ** 2 * eye + np.outer(vhat, vhat))
        res["sigma_det"] = abs(np.linalg.det(sig) - 1.0)
        res["rho_orthogonal"] = rel_err2(rho.T @ rho, eye)
        res["rho_maps_vtilde"] = frob2(rho @ vtilde - vhat) / max(1.0, frob2(vhat))
        res["momentum_constraint"] = rel_err2(
            T.conj().T @ s2 @ T, Sigma[:, None] * (rho.T @ ssdag @ rho) * Sigma[None, :])
        res["leaf_left"] = rel_err2(k_L @ b_R, g)
        res["leaf_right"] = rel_err2(b_L @ k_R, g)
        res["kL_pseudounitary"] = rel_err2(k_L.conj().T @ J @ k_L, J)
        res["kR_pseudounitary"] = rel_err2(k_R.conj().T @ J @ k_R, J)
        target = b_R.copy()
        target[:n, :n], target[n:, n:], target[n:, :n] = x * eye, eye / x, 0.0
        res["bR_structure"] = rel_err2(b_R, target)
        target = b_L.copy()
        target[:n, :n], target[n:, n:], target[n:, :n] = sig / y, y * eye, 0.0
        res["bL_structure"] = rel_err2(b_L, target)
        res["g_det"] = abs(np.linalg.det(g) - 1.0)
        gJg = g @ J @ g.conj().T
        res["momentum_block_22"] = rel_err2(gJg[n:, n:], -y ** 2 * eye)
        res["momentum_block_12"] = rel_err2(gJg[:n, n:], -nu)
        out.append((g, res))
    return out


def _points(n, count, seed, alpha=0.6):
    params = make_params(alpha, 1.2, 0.8, n)
    rng = np.random.default_rng(seed)
    points = [random_admissible_point(rng, params) for _ in range(count)]
    return params, points


class TestStackedCore:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_residuals_equal_the_loop_bit_for_bit(self, n):
        # 40 points are three chunks at n = 8 (16 rows each)
        params, points = _points(n, 40, 300 + n)
        q = np.array([pt.q for pt in points])
        p = np.array([pt.p for pt in points])
        stacked = constraint_residuals(q, p, params)
        fact, _ = assemble_stack(q, p, params)
        for i, (point, (g, res)) in enumerate(zip(points, _loop_verify(points, params))):
            assert np.array_equal(fact.g[i], g)
            assert {name: r[i] for name, r in stacked.items()} == res
            one = verify_constraints(*assemble(point, params), params)
            assert one.residuals == res
            assert one.max_residual == max(res.values())

    def test_fields_carry_the_leading_axis(self):
        params, points = _points(3, 5, 310)
        fact, cdata = assemble_stack(np.array([pt.q for pt in points]),
                                     np.array([pt.p for pt in points]), params)
        assert fact.g.shape == (5, 6, 6) and fact.n == 3
        assert cdata.sigma.shape == cdata.rho.shape == (5, 3, 3)
        assert cdata.cartan.Sigma.shape == cdata.vhat.shape == (5, 3)
        one, _ = assemble(points[2], params)
        assert np.array_equal(one.k_R, fact.k_R[2]) and one.g.shape == (6, 6)

    def test_a_stack_raises_the_error_of_its_first_failing_row(self):
        params = make_params(0.5, 1, 1, 2)
        q = np.array([[1.0, -1.0], [0.5, 0.8], [0.2, 0.9]])
        with pytest.raises(ChamberViolation, match=r"\[0.5 0.8\]"):
            assemble_stack(q, np.zeros_like(q), params)

    def test_residuals_raise_the_error_of_the_first_failing_row(self):
        # row 0 fails a later check (v^2) than row 1 (the order of q), so a
        # check-by-check pass over the whole stack would meet row 1 first
        params = make_params(0.5, 1, 1, 2)
        q = np.array([[0.30, 0.29], [0.1, 0.2]])
        with pytest.raises(BCNError) as alone:
            constraint_residuals(q[:1], np.zeros((1, 2)), params)
        with pytest.raises(BCNError) as stacked:
            constraint_residuals(q, np.zeros_like(q), params)
        assert type(alone.value) is SeparationViolation
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)

    def test_residual_column_equals_the_loop(self):
        params, (point,) = _points(3, 1, 311)
        traj = integrate_reduced(point, params, 0.2, 1e-3, sample_every=20)
        points = [ReducedPoint(q, p) for q, p in zip(traj.q, traj.p)]
        loop = [max(res.values()) for _, res in _loop_verify(points, params)]
        assert np.array_equal(traj.residual, loop)

    def test_verify_assembles_at_most_one_chunk_per_call(self, monkeypatch, capsys):
        # the `verify --n 8` run of 200 points: one draw of the whole sample,
        # assembled in chunks of 4096 // 16^2 rows
        rows, drawn = [], []
        core, draw = reconstruction.assemble_stack, cli.random_admissible_points

        def spy(q, p, params):
            rows.append(len(q))
            return core(q, p, params)

        def spy_draw(rng, params, count):
            drawn.append(count)
            return draw(rng, params, count)

        monkeypatch.setattr(reconstruction, "assemble_stack", spy)
        monkeypatch.setattr(cli, "random_admissible_points", spy_draw)
        main(["verify", "--n", "8", "--alpha", "0.6", "--x", "1.2", "--y", "0.8",
              "--samples", "200", "--seed", "1"])
        capsys.readouterr()
        assert drawn == [200]
        assert rows == [16] * 12 + [8]
