import numpy as np
import pytest

from bcn_ruijsenaars.errors import InvalidInput, SeparationViolation
from bcn_ruijsenaars.limits import (
    DEFAULT_T_GRID,
    LimitParams,
    fit_expansion,
    fit_potential_coefficients,
    hat_coords,
    limit_convergence,
    phi_linearized,
    richardson_H2,
    sutherland_H2,
)

LP = LimitParams(xi=0.3, eta=-0.2, zeta=0.4)


class TestSubstitution:
    def test_params_at_reproduces_model(self):
        p = LP.params_at(0.01, 3)
        assert p.x == pytest.approx(np.exp(0.01 * 0.3))
        assert p.y == pytest.approx(np.exp(-0.01 * 0.2))
        # zeta > 0 gives alpha > 1, normalized to the reciprocal branch
        assert p.alpha == pytest.approx(np.exp(-0.01 * 0.4))
        lp = LimitParams(0.3, -0.2, -0.4)
        assert lp.params_at(0.01, 3).alpha == pytest.approx(np.exp(-0.004))

    def test_t_range_guard(self):
        with pytest.raises(InvalidInput):
            LP.params_at(0.0, 2)
        with pytest.raises(InvalidInput):
            LP.params_at(0.2, 2)

    @pytest.mark.parametrize("lp,t,message", [
        (LimitParams(1e8, -0.2, 0.4), 5e-5, r"xi = 1e\+08 at t = 5e-05 gives exp\(t xi\) = inf"),
        (LimitParams(-1e8, -0.2, 0.4), 5e-5, r"xi = -1e\+08 at t = 5e-05 gives exp\(t xi\) = 0"),
        (LimitParams(0.3, 1e8, 0.4), 5e-5, r"eta = 1e\+08 at t = 5e-05"),
        (LimitParams(0.3, -0.2, -1e8), 5e-5, r"zeta = -1e\+08 at t = 5e-05"),
        # exp(t xi) is finite, but b^2 = y^2 / x^2 underflows
        (LimitParams(1e5, -0.2, 0.4), 5e-3,
         r"xi = 100000, eta = -0.2, zeta = 0.4 at t = 0.005: .* b\^2 = 0"),
    ], ids=["xi-overflows", "xi-underflows", "eta", "zeta", "b2-underflows"])
    def test_out_of_range_rate_is_named(self, lp, t, message):
        with pytest.raises(InvalidInput, match=message):
            lp.params_at(t, 2)


class TestStackedScales:
    @pytest.mark.parametrize("grid", [DEFAULT_T_GRID, (1e-4, 5e-4, 1e-3, 2e-3)],
                             ids=["default-grid", "custom-grid"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_stack_has_the_bits_of_each_scale(self, n, grid):
        rng = np.random.default_rng(n)
        q = rng.uniform(-0.4, 1.2) - np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.55, 1.0, size=n - 1))])
        piv = rng.uniform(-0.7, 0.7, size=n)
        ts = np.array(grid)
        stacked = phi_linearized(q, piv, LP, ts)
        assert np.array_equal(stacked, [phi_linearized(q, piv, LP, t) for t in ts])
        assert isinstance(phi_linearized(q, piv, LP, ts[0]), float)

    def test_array_of_scales_keeps_its_shape(self):
        q, piv = np.array([0.8, -0.3]), np.array([0.4, -0.1])
        ts = np.array([[1e-3, 2e-3], [4e-3, 8e-3]])
        vals = phi_linearized(q, piv, LP, ts)
        assert vals.shape == (2, 2)
        assert np.array_equal(vals.ravel(), phi_linearized(q, piv, LP, ts.ravel()))

    @staticmethod
    def _loop_error(q, piv, lp, ts):
        with pytest.raises(Exception) as exc:
            for t in ts:
                phi_linearized(q, piv, lp, t)
        return exc

    def test_first_failing_scale_raises_its_own_error(self):
        # x = exp(t xi) squares to inf from t = 1e-3 on, so b^2 = y^2 / x^2 = 0
        lp = LimitParams(xi=5e5, eta=-0.2, zeta=0.4)
        q, piv, ts = np.array([0.5, -0.5]), np.array([0.1, 0.2]), np.array(
            [1e-4, 5e-4, 1e-3, 2e-3])
        loop = self._loop_error(q, piv, lp, ts)
        with pytest.raises(InvalidInput, match=r"at t = 0\.001: .* b\^2 = 0") as stacked:
            phi_linearized(q, piv, lp, ts)
        assert loop.type is InvalidInput and str(stacked.value) == str(loop.value)

    def test_failures_are_met_in_the_order_of_the_scales(self):
        # the gap 0.5 leaves the chamber's separation at t = 1e-3 (alpha =
        # exp(-1)); only at t = 2e-3 does x^2 = exp(2 t xi) overflow
        lp = LimitParams(xi=3e5, eta=-0.2, zeta=1e3)
        q, piv, ts = np.array([0.5, 0.0]), np.array([0.1, 0.2]), np.array(
            [1e-4, 2e-4, 1e-3, 2e-3])
        loop = self._loop_error(q, piv, lp, ts)
        with pytest.raises(SeparationViolation) as stacked:
            phi_linearized(q, piv, lp, ts)
        assert loop.type is SeparationViolation and str(stacked.value) == str(loop.value)
        with pytest.raises(InvalidInput, match=r"at t = 0\.002"):
            phi_linearized(q, piv, lp, ts[3:])


class TestExpansionHead:
    def test_h0_is_minus_n(self):
        q = np.array([0.9, -0.1])
        piv = np.array([0.4, -0.6])
        h0, h1 = fit_expansion(q, piv, LP)
        assert h0 == pytest.approx(-2.0, abs=1e-10)
        assert h1 == pytest.approx(0.0, abs=1e-8)

    def test_phi_approaches_minus_n(self):
        q = np.array([0.5])
        val = phi_linearized(q, np.array([1.0]), LP, 1e-4)
        assert val == pytest.approx(-1.0, abs=1e-6)


class TestSutherlandForm:
    def test_scalar_has_no_pair_terms(self):
        hq, hp = hat_coords(np.array([0.3]), np.array([0.8]))
        base = sutherland_H2(hq, hp, 0.0, 0.0, 5.0)
        assert base == pytest.approx(0.5 * hp[0] ** 2)

    def test_equal_rates_leave_pair_and_kinetic_only(self):
        hq, hp = hat_coords(np.array([0.8, -0.4]), np.array([0.2, 0.1]))
        val = sutherland_H2(hq, hp, 0.7, 0.7, 0.5)
        kinetic = 0.5 * float(hp @ hp)
        # c1 = 2 xi eta != 0 here, so subtract it explicitly: with
        # xi = eta the c2 term vanishes
        c1 = 2 * 0.7 * 0.7
        plus, minus = hq[0] + hq[1], hq[0] - hq[1]
        pair = 0.5 * 0.5 ** 2 * 2 * (1 / np.sinh(plus) ** 2 + 1 / np.sinh(minus) ** 2)
        single = c1 * np.sum(1 / np.sinh(hq) ** 2)
        assert val == pytest.approx(kinetic + pair + single, rel=1e-12)

    def test_closed_form_hand_case(self):
        # q = 0, pi = 0, xi = 1, eta = 0: Phi(t) = -1 + t^2/4 exactly,
        # and the closed form gives 2 (eta - xi)^2 / sinh^2(2 asinh 1) = 1/4
        lp = LimitParams(1.0, 0.0, 0.5)
        hq, hp = hat_coords(np.array([0.0]), np.array([0.0]))
        assert sutherland_H2(hq, hp, 1.0, 0.0, 0.5) == pytest.approx(0.25)
        assert richardson_H2(np.array([0.0]), np.array([0.0]), lp) == \
            pytest.approx(0.25, abs=1e-8)

    def test_zeta_sign_irrelevant(self):
        hq, hp = hat_coords(np.array([0.9, -0.3]), np.array([0.1, 0.2]))
        a = sutherland_H2(hq, hp, 0.3, -0.2, 0.7)
        b = sutherland_H2(hq, hp, 0.3, -0.2, -0.7)
        assert a == b

    def test_singular_configuration(self):
        with pytest.raises(InvalidInput):
            sutherland_H2(np.array([0.0]), np.array([0.0]), 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("hq, hp, name", [
        ([1.0, np.nan], [0.0, 0.0], "hat_q"),
        ([1.0, -np.inf], [0.0, 0.0], "hat_q"),
        ([1.0, 0.5], [np.inf, 0.0], "hat_p"),
    ])
    def test_non_finite_input_is_named(self, hq, hp, name):
        # past the check, a NaN hat_q would come back as the value
        with pytest.raises(InvalidInput, match=f"^{name} must be finite, got \\["):
            sutherland_H2(hq, hp, 0.3, -0.2, 0.4)


class TestHatCoords:
    @pytest.mark.parametrize("q, pi, name", [
        ([np.nan], [0.0], "q"),
        ([0.5, np.inf], [0.0, 0.1], "q"),
        ([0.5], [-np.inf], "pi"),
    ])
    def test_non_finite_input_is_named(self, q, pi, name):
        # past the check, a NaN q would give NaN coordinates
        with pytest.raises(InvalidInput, match=f"^{name} must be finite, got \\["):
            hat_coords(q, pi)


class TestHyperbolicIdentities:
    def test_identity_chain(self):
        rng = np.random.default_rng(71)
        hq = rng.uniform(0.1, 2.0, 2)
        sigma, gamma = np.sinh(hq), np.cosh(hq)
        lhs1 = sigma[0] ** 2 - sigma[1] ** 2
        rhs1 = np.sinh(hq[0] + hq[1]) * np.sinh(hq[0] - hq[1])
        assert lhs1 == pytest.approx(rhs1, rel=1e-12)
        lhs2 = sigma[0] ** 2 * gamma[1] ** 2 + sigma[1] ** 2 * gamma[0] ** 2
        rhs2 = 0.5 * (np.sinh(hq[0] + hq[1]) ** 2 + np.sinh(hq[0] - hq[1]) ** 2)
        assert lhs2 == pytest.approx(rhs2, rel=1e-12)

    def test_kinetic_rescaling_consistency(self):
        # 1/2 sum (Gamma pi / Sigma)^2 equals 1/2 |phat|^2 identically
        rng = np.random.default_rng(72)
        q = np.array([1.1, -0.4])
        piv = rng.uniform(-1, 1, 2)
        sigma, gamma = np.exp(q), np.sqrt(1 + np.exp(2 * q))
        _, hp = hat_coords(q, piv)
        assert 0.5 * np.sum((gamma * piv / sigma) ** 2) == \
            pytest.approx(0.5 * float(hp @ hp), rel=1e-15)


class TestConvergence:
    def test_default_grid_monotone(self):
        rep = limit_convergence(np.array([1.0, 0.1]), np.array([0.3, -0.4]), LP)
        assert np.array_equal(rep.t, np.geomspace(5e-5, 5e-3, 8))
        assert np.all(np.diff(rep.error) > 0.0)   # decreasing toward small t
        assert rep.fitted_order > 0.9

    def test_free_limit(self):
        # pi = 0 and large positive q: every 1/sinh^2 term dies off
        lp = LimitParams(0.3, 0.3, 0.01)
        hq, hp = hat_coords(np.array([3.5, 2.5]), np.zeros(2))
        h2 = sutherland_H2(hq, hp, lp.xi, lp.eta, lp.zeta)
        assert abs(h2) < 0.01

    def test_report_fields(self):
        rep = limit_convergence(np.array([0.8]), np.array([0.5]), LP,
                                t_grid=np.geomspace(5e-5, 5e-3, 8))
        assert rep.passes
        assert abs(rep.H2_limit - rep.H2_closed) < 1e-6 * max(1.0, abs(rep.H2_closed))
        assert set(vars(rep)) >= {"t", "error", "fitted_order", "H2_closed", "H2_limit"}

    def test_grid_validation(self):
        with pytest.raises(InvalidInput):
            limit_convergence(np.array([0.5]), np.array([0.0]), LP,
                              t_grid=[1e-3, 2e-3])

    @pytest.mark.parametrize("kwargs,message", [
        ({"q": [0.5, np.nan]}, r"^q must be finite, got \["),
        ({"pi_vec": [0.1, np.inf]}, r"^pi must be finite, got \["),
        ({"t_grid": [1e-3, 2e-3, 3e-3, 4e-3, np.nan]}, "^t_grid needs >= 4 distinct points"),
    ], ids=["q", "pi", "t_grid"])
    def test_non_finite_input_is_named(self, kwargs, message):
        args = {"q": [0.5, -0.4], "pi_vec": [0.1, 0.2], **kwargs}
        with pytest.raises(InvalidInput, match=message):
            limit_convergence(args.pop("q"), args.pop("pi_vec"), LP, **args)


def test_fit_oracle_confirms_coefficients():
    rng = np.random.default_rng(73)
    lp = LimitParams(0.45, -0.35, 0.6)
    c_fit, rms = fit_potential_coefficients(lp, rng)
    c_true = np.array(lp.coefficients())
    assert np.max(np.abs(c_fit - c_true) / np.abs(c_true)) < 1e-6
    assert rms < 1e-6
