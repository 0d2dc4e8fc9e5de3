import math
import warnings

import numpy as np
import pytest

from loop_reference import (loop_ck_step, loop_integrate, loop_q_chart,
                            loop_rk4_step)

from bcn_ruijsenaars.dynamics import (
    FLOW_SIGN,
    FLOW_TIME_SCALE,
    Trajectory,
    compare_trajectories,
    exact_flow,
    integrate_reduced,
    project_flow,
    reduced_rhs,
    trajectory_csv_text,
)
from bcn_ruijsenaars import dynamics
from bcn_ruijsenaars.decomposition import SURFACE_TOL, cartan_KAK, decompose_KB, reduce_stack
from bcn_ruijsenaars.errors import (
    ChamberViolation,
    InternalInconsistency,
    InvalidInput,
    NotOnConstraintSurface,
    NumericalFailure,
    SeparationViolation,
)
from bcn_ruijsenaars.hamiltonians import (_q_kernel, grad_hamiltonian, phi_trace,
                                          spectral_invariants)
from bcn_ruijsenaars.matops import frob, indefinite_cholesky_upper_dual, inn, rel_err
from bcn_ruijsenaars.model import (abc_from_params, make_params, separation_gap,
                                   separation_margin, wrap_angle)
from bcn_ruijsenaars.reconstruction import assemble_stack, build_Ttilde, solve_v
from bcn_ruijsenaars.sampling import random_admissible_points

# wall-safe reference configuration used across the dynamics tests
PARAMS2 = make_params(0.5, 1.0, 1.0, 2)
Q2, P2 = np.array([1.0, -1.0]), np.array([0.2, 0.15])
G2 = assemble_stack(Q2, P2, PARAMS2)[0].g

# bounded oscillation in the scalar potential well
PARAMS1 = make_params(0.5, 0.8, 1.4, 1)
Q1, P1 = np.array([0.5]), np.array([0.2])
G1 = assemble_stack(Q1, P1, PARAMS1)[0].g


class TestExactFlow:
    def test_zero_time(self):
        assert rel_err(exact_flow(G2, 0.0), G2) < 1e-15

    def test_composition(self):
        assert rel_err(exact_flow(exact_flow(G1, 0.7), 0.6), exact_flow(G1, 1.3)) < 1e-9

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_conservation_bounded_orbit(self, t):
        g_t = exact_flow(G1, t)
        for nu in (1, 2, 3):
            d = abs(phi_trace(g_t, nu) - phi_trace(G1, nu))
            assert d <= 1e-10 * max(1.0, abs(phi_trace(G1, nu)))
        j = inn(1)
        assert rel_err(g_t @ j @ g_t.conj().T, G1 @ j @ G1.conj().T) < 1e-10

    @pytest.mark.parametrize("g0", [np.eye(3), np.ones((4, 2)), np.ones((2, 4, 4))],
                             ids=["odd", "non-square", "stack"])
    def test_bad_shape_is_invalid_input(self, g0):
        with pytest.raises(InvalidInput, match="^g0 "):
            exact_flow(g0, 0.5)

    def test_spectral_invariants_conserved(self):
        s0 = spectral_invariants(G2)
        s1 = spectral_invariants(exact_flow(G2, 1.0))
        assert np.max(np.abs(s1 - s0)) < 1e-10 * max(1.0, np.max(np.abs(s0)))

    def test_determinant_phase_law(self):
        # det g(t) rotates by exp(4 i Phi_1 t): the generator has trace
        # -2 Phi_1, a central direction invisible to the reduction data
        phi1 = phi_trace(G2, 1)
        for t in (0.3, 1.1):
            det = np.linalg.det(exact_flow(G2, t))
            assert abs(det - np.exp(4j * phi1 * t) * np.linalg.det(G2)) < 1e-12


class TestReducedRhs:
    def test_stationary_in_q_at_zero_momentum(self):
        qdot, _ = reduced_rhs(np.array([1.1, -0.7]), np.zeros(2), PARAMS2)
        assert np.allclose(qdot, 0.0, atol=1e-15)

    def test_matches_projected_velocity(self):
        # central-difference velocity of the projected exact flow equals
        # the calibrated rhs; this pins FLOW_SIGN and FLOW_TIME_SCALE
        h = 1e-6
        q, p, _, _ = reduce_stack(np.stack([exact_flow(G2, h), exact_flow(G2, -h)]), PARAMS2)
        qdot, pdot = reduced_rhs(Q2, P2, PARAMS2)
        assert np.max(np.abs(qdot - (q[0] - q[1]) / (2 * h))) < 1e-7
        assert np.max(np.abs(pdot - (p[0] - p[1]) / (2 * h))) < 1e-7
        gq, gp = grad_hamiltonian(Q2, P2, PARAMS2)
        assert np.allclose(qdot, FLOW_SIGN * FLOW_TIME_SCALE * gp)

    def test_energy_is_first_integral_of_rhs(self):
        # dPhi/dt = grad . zdot vanishes identically for the canonical rhs
        for q, p in zip(*random_admissible_points(np.random.default_rng(61), PARAMS2, 5)):
            gq, gp = grad_hamiltonian(q, p, PARAMS2)
            qdot, pdot = reduced_rhs(q, p, PARAMS2)
            assert abs(gq @ qdot + gp @ pdot) < 1e-10 * max(1.0, np.max(np.abs(gq)))


# the Cash-Karp 4(5) tableau: stage rows, fifth- and fourth-order weights
CK_A = [[1 / 5], [3 / 40, 9 / 40], [3 / 10, -9 / 10, 6 / 5],
        [-11 / 54, 5 / 2, -70 / 27, 35 / 27],
        [1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096]]
CK_B5 = [37 / 378, 0, 250 / 621, 125 / 594, 0, 512 / 1771]
CK_B4 = [2825 / 27648, 0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4]


def _textbook_run(q, p, params, t_max, dt, method):
    """The samples of a reduced run by a plain RK4 or Cash-Karp loop over
    the public `grad_hamiltonian`: the field (sk dH/dp, -sk dH/dq), the
    stages of each weighted sum added one by one from 0.0, and rk45's
    step control as documented in `integrate_reduced`."""
    n = q.size
    sk = FLOW_SIGN * FLOW_TIME_SCALE

    def field(z):
        dq, dp = grad_hamiltonian(np.array(z[:n]), np.array(z[n:]), params)
        return [sk * v for v in dp.tolist()] + [-sk * v for v in dq.tolist()]

    def combine(z, h, weights, ks):
        out = []
        for i, a in enumerate(z):
            total = 0.0
            for w, k in zip(weights, ks):
                total += w * k[i]
            out.append(a + h * total)
        return out

    step, counts = dynamics.sample_times(t_max, dt)
    t, h, z = 0.0, dt, q.tolist() + p.tolist()
    samples = [(t, z)]
    for k in counts.tolist()[1:]:
        if method == "rk4":
            k1 = field(z)
            k2 = field([a + 0.5 * step * b for a, b in zip(z, k1)])
            k3 = field([a + 0.5 * step * b for a, b in zip(z, k2)])
            k4 = field([a + step * b for a, b in zip(z, k3)])
            z = [a + step / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)]
            t = k * step
        else:
            while t < k * step:
                h = min(h, k * step - t)
                try:
                    ks = [field(z)]
                    for row in CK_A:
                        ks.append(field(combine(z, h, row, ks)))
                    z5, z4 = combine(z, h, CK_B5, ks), combine(z, h, CK_B4, ks)
                    err = max(abs(a - b) for a, b in zip(z5, z4))
                except (ChamberViolation, SeparationViolation, NumericalFailure):
                    err = math.inf
                tol = dynamics.RK45_ATOL + dynamics.RK45_RTOL * max(map(abs, z))
                if err <= tol:
                    t, z = t + h, z5
                elif h < dynamics.RK45_MIN_STEP:
                    raise NumericalFailure(f"rk45: step {h:.3g} rejected at t = {t:.10g}")
                h *= min(5.0, max(0.2, 0.9 * (tol / max(err, 1e-300)) ** 0.2))
        samples.append((t, z))
    return samples


def _stubbed_steps(monkeypatch):
    """`run(alpha, q)`: the approach flag of a one-step `integrate_reduced`
    run at alpha (x = y = 1) whose step lands on the positions q, with the
    RK step and the sample columns stubbed, so that only the loop's
    judgement of the step is left."""
    landing = []
    monkeypatch.setattr(dynamics, "_rk_step",
                        lambda method, n: lambda chart: lambda z, h: landing[-1])
    monkeypatch.setattr(dynamics, "map_chunks", lambda f, rows, q, p: np.zeros(len(q)))
    monkeypatch.setattr(dynamics, "constraint_residuals",
                        lambda q, p, params: {"residual": np.zeros(len(q))})

    def run(alpha, q):
        n = len(q)
        landing.append(list(q) + [0.0] * n)
        start = np.arange(n, 0.0, -1.0)
        traj = integrate_reduced(start, np.zeros(n), make_params(alpha, 1, 1, n), 1.0, 1.0)
        return traj.chamber_approach

    return run


class TestIntegrateReduced:
    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_equals_a_textbook_loop_bit_for_bit(self, n, method):
        # gaps in [0.7, 0.9] above a lowest position in [-0.3, 0.3]
        rng = np.random.default_rng(120 + n)
        gaps = rng.uniform(0.7, 0.9, size=n - 1)
        q = rng.uniform(-0.3, 0.3) + np.concatenate([np.cumsum(gaps[::-1])[::-1], [0.0]])
        p = rng.uniform(-0.5, 0.5, size=n)
        params = make_params(0.6, 1.2, 0.8, n)
        traj = integrate_reduced(q, p, params, 0.5, 0.05, method=method)
        samples = _textbook_run(q, p, params, 0.5, 0.05, method)
        assert not traj.chamber_approach
        assert traj.times.tolist() == [t for t, _ in samples]
        assert traj.q.tolist() == [z[:n] for _, z in samples]
        assert traj.p.tolist() == [z[n:] for _, z in samples]

    def test_step_count_needs_no_grid(self):
        assert dynamics.step_count(1.0, 1e-7) == 10 ** 7
        assert dynamics.step_count(0.0, 1e-3) == 0
        assert dynamics.step_count(1.0, 1e-3) == dynamics.sample_times(1.0, 1e-3)[1][-1]
        with pytest.raises(InvalidInput):
            dynamics.step_count(1.0, 1e-300)

    def test_infinite_dt_is_refused(self):
        # t_max / inf = 0 steps would round up to one step of t_max; a NaN dt
        # fails on the ratio
        for t_max in (0.0, 0.01):
            with pytest.raises(InvalidInput, match="^dt must be finite$"):
                dynamics.step_count(t_max, math.inf)
        with pytest.raises(InvalidInput, match="^dt must be finite$"):
            integrate_reduced(Q2, P2, PARAMS2, 0.01, math.inf)
        with pytest.raises(InvalidInput, match=r"^cannot run t_max / dt = nan steps$"):
            dynamics.step_count(0.01, math.nan)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nan_residual_fails_naming_the_column(self):
        # at y = 1e-160 two constraint residuals are NaN at every sample
        with pytest.raises(NumericalFailure, match="^reduced flow: non-finite residual at t = 0$"):
            integrate_reduced(Q2, P2, make_params(0.5, 1.0, 1e-160, 2), 0.01, 1e-3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("q0, p0, t_max, dt, message", [
        # the residuals fail from q ~ 200 on, the energy's pair factor at q ~ 300
        ([300.0], [0.1], 0.003, 1e-3, "non-finite residual at t = 0"),
        ([195.0], [1.5], 4.0, 0.25, "non-finite residual at t = 0.5"),
        ([300.0, -1.0], [0.1, 0.0], 0.003, 1e-3, "non-finite energy at t = 0"),
    ])
    def test_non_finite_column_names_its_first_time(self, q0, p0, t_max, dt, message):
        with pytest.raises(NumericalFailure, match=f"^reduced flow: {message}$"):
            integrate_reduced(q0, p0, make_params(0.5, 1, 1, len(q0)), t_max, dt)

    def test_energy_column_runs_in_chunks(self, monkeypatch):
        # chunk_rows(2) = 1024 samples per Sigma-chart call, with the bits
        # of one call on all the samples
        sizes, sigma_rows = [], dynamics._sigma_rows

        def spy(sigma, p, params):
            sizes.append(len(sigma))
            return sigma_rows(sigma, p, params)

        monkeypatch.setattr(dynamics, "_sigma_rows", spy)
        traj = integrate_reduced(Q2, P2, PARAMS2, 2.5, 1e-3)
        assert sizes == [1024, 1024, 453]
        assert traj.energy.tolist() == sigma_rows(np.exp(traj.q), traj.p, [PARAMS2]).tolist()

    def test_zero_horizon(self):
        traj = integrate_reduced(Q2, P2, PARAMS2, t_max=0.0, dt=1e-3)
        assert traj.times.shape == (1,)
        assert np.allclose(traj.q[0], Q2)

    def test_orientation_calibration(self, monkeypatch):
        good = integrate_reduced(Q2, P2, PARAMS2, 0.5, 1e-3, sample_every=50)
        monkeypatch.setattr(dynamics, "FLOW_SIGN", -1)
        bad = integrate_reduced(Q2, P2, PARAMS2, 0.5, 1e-3, sample_every=50)
        proj = project_flow(G2, PARAMS2, good.times)
        assert compare_trajectories(good, proj).q_dev < 1e-9
        assert compare_trajectories(bad, proj).q_dev > 1e-2

    def test_energy_drift_fourth_order(self):
        d = {}
        for dt in (2e-3, 1e-3):
            tr = integrate_reduced(Q2, P2, PARAMS2, 2.0, dt,
                                   sample_every=int(0.1 / dt))
            d[dt] = np.max(np.abs(tr.energy - tr.energy[0]))
        ratio = d[2e-3] / d[1e-3]
        assert 10.0 < ratio < 24.0

    def test_chamber_wall_abort(self):
        # the pair separates, then the step to t = 0.608 throws q_2 from
        # -7.64 to +195.4, past q_1: particles never pass, so the step has
        # blown up, and that is a numerical failure
        with pytest.raises(NumericalFailure, match=r"^reduced flow: the step to t = 0\.608 "
                           r"reorders q_1 = 1\.361907271 and q_2 = 195\.379601$"):
            integrate_reduced([0.8, -0.8], [0.1, -0.05], PARAMS2, 2.0, 1e-3, sample_every=10)

    def test_chamber_approach_ends_the_run(self):
        # the step to t = 0.316 throws q_2 from -7.07 to 0.755 (the exact
        # route has -4.72 there): the closest gap falls from 7.97 to 0.146,
        # ordered but below the wall gap (past ln 2), so the run ends with
        # the flag set after the samples 0 ... 0.3 (gap 4.04 at 0.3)
        traj = integrate_reduced([0.4, -0.4], [-1.0, 1.0], PARAMS2, 1.0, 1e-3,
                                 sample_every=100)
        assert traj.chamber_approach
        assert traj.times.tolist() == pytest.approx([0.0, 0.1, 0.2, 0.3])
        assert traj.q[-1, 0] - traj.q[-1, 1] == pytest.approx(4.04, abs=5e-3)

    def test_far_gap_sets_no_flag_and_a_reordered_step_fails(self, monkeypatch):
        # a gap past sinh's range is far from the wall, a gap of 0 is at it;
        # a reordered step names its time, the first reordered pair and
        # both positions
        run = _stubbed_steps(monkeypatch)
        assert run(0.5, [800.0, 0.0]) is False
        assert run(0.5, [0.3]) is False
        assert run(0.5, [1.0, 0.0, 0.0]) is True
        with pytest.raises(NumericalFailure, match=r"^reduced flow: the step to t = 1 "
                           r"reorders q_1 = 0 and q_2 = 800$"):
            run(0.5, [0.0, 800.0, 799.0])

    def test_wall_gap_agrees_with_the_margin(self, monkeypatch):
        # the loop's gap test against the margin 4 sinh^2(d) - c2 <
        # WALL_MARGIN, at the bound separation_gap(c2 + WALL_MARGIN) +- 40
        # ulp and at random gaps: they may differ only within 1 ulp of it
        run = _stubbed_steps(monkeypatch)
        rng = np.random.default_rng(0)
        for alpha in rng.uniform(0.05, 0.99, size=100):
            c2 = make_params(alpha, 1, 1, 2).coupling_sq
            wall = separation_gap(c2 + dynamics.WALL_MARGIN)
            below, above = [wall], [wall]
            for _ in range(40):
                below.append(math.nextafter(below[-1], -math.inf))
                above.append(math.nextafter(above[-1], math.inf))
            gaps = below[:1:-1] + above[2:] + rng.uniform(0.0, 3.0 * wall, size=10).tolist()
            margin = separation_margin(np.column_stack([gaps, np.zeros(len(gaps))]), c2)
            assert [run(alpha, [d, 0.0]) for d in gaps] == \
                (margin < dynamics.WALL_MARGIN).tolist()

    def test_bounded_oscillation_long_run(self):
        traj = integrate_reduced(Q1, P1, PARAMS1, 100.0, 1e-2, sample_every=100)
        assert not traj.chamber_approach
        qs = traj.q[:, 0]
        assert np.max(np.abs(qs)) < 2.0
        assert np.max(np.abs(traj.energy - traj.energy[0])) < 1e-6

    def test_time_reversal(self, monkeypatch):
        fwd = integrate_reduced(Q2, P2, PARAMS2, 1.0, 1e-3, sample_every=1000)
        monkeypatch.setattr(dynamics, "FLOW_SIGN", -FLOW_SIGN)
        back = integrate_reduced(fwd.q[-1], fwd.p[-1], PARAMS2, 1.0, 1e-3, sample_every=1000)
        assert np.max(np.abs(back.q[-1] - Q2)) < 1e-10
        assert np.max(np.abs(back.p[-1] - P2)) < 1e-10

    def test_adaptive_pair_matches_exact(self):
        tr = integrate_reduced(Q2, P2, PARAMS2, 1.0, 1e-2, sample_every=10, method="rk45")
        proj = project_flow(G2, PARAMS2, tr.times)
        dev = compare_trajectories(tr, proj)
        assert dev.q_dev < 1e-8 and dev.p_dev < 1e-8

    @pytest.mark.parametrize("method", ["rk4"])
    def test_stage_leaving_chart_raises(self, method):
        # a head-on pair and one step of length 10: an RK stage lands
        # far past the wall, and the whole call fails
        with pytest.raises((ChamberViolation, SeparationViolation)):
            integrate_reduced([1.0, -1.0], [-1.0, 1.0], PARAMS2, 10.0, 10.0, method=method)

    def test_rk45_rejects_a_stage_leaving_the_chamber(self):
        # the first trial step (h = dt = 1) has a stage past the wall: it
        # is rejected like any other, and the run matches a finer cadence
        params = make_params(0.6, 1.2, 0.8, 2)
        (q,), (p,) = random_admissible_points(np.random.default_rng(2), params, 1)
        coarse = integrate_reduced(q, p, params, 4.0, 1.0, method="rk45")
        fine = integrate_reduced(q, p, params, 4.0, 0.5, method="rk45")
        assert not coarse.chamber_approach
        assert np.array_equal(coarse.times, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert np.max(np.abs(coarse.q[-1] - fine.q[-1])) < 1e-8
        assert np.max(np.abs(wrap_angle(coarse.p[-1] - fine.p[-1]))) < 1e-7

    @pytest.mark.parametrize("dt", [0.05, 10.0])
    def test_rk45_step_floor_ends_a_crawling_run(self, dt, monkeypatch):
        # on the head-on pair the step falls below RK45_MIN_STEP near
        # t = 0.48, where a run without a floor makes no visible progress;
        # the counter fails such a run instead of letting it go on
        rk_step, calls = dynamics._rk_step, []

        def counted(method, n):
            def steps(chart):
                trial = rk_step(method, n)(chart)

                def counted_trial(z, h):
                    calls.append(None)
                    if len(calls) > 5000:
                        pytest.fail("rk45 made more than 5000 trial steps")
                    return trial(z, h)
                return counted_trial
            return steps

        monkeypatch.setattr(dynamics, "_rk_step", counted)
        with pytest.raises(NumericalFailure, match="rk45: step"):
            integrate_reduced([1.0, -1.0], [-1.0, 1.0], PARAMS2, 10.0, dt, method="rk45")

    def test_rk45_rejects_a_stage_that_fails_numerically(self, monkeypatch):
        # the second stage of the first trial step raises NumericalFailure,
        # as an overflowing stage does: the step is rejected and retried
        # shorter, and the run ends where an undisturbed run ends
        expected = integrate_reduced(Q2, P2, PARAMS2, 1.0, 0.5, method="rk45")
        calls = []

        def failing_once(n):
            def at(*constants):
                chart = _q_kernel(n)(*constants)

                def failing(*z):
                    calls.append(None)
                    if len(calls) == 2:
                        raise NumericalFailure("non-finite positions")
                    return chart(*z)
                return failing
            return at

        monkeypatch.setattr(dynamics, "_q_kernel", failing_once)
        run = integrate_reduced(Q2, P2, PARAMS2, 1.0, 0.5, method="rk45")
        assert len(calls) > 2
        assert np.array_equal(run.times, expected.times)
        assert np.max(np.abs(run.q - expected.q)) < 1e-8
        assert np.max(np.abs(wrap_angle(run.p - expected.p))) < 1e-8

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_non_finite_state_raises(self, method, monkeypatch):
        monkeypatch.setattr(dynamics, "_q_kernel",
                            lambda n: lambda *constants: lambda *z: (np.nan,) * (2 * n + 1))
        with pytest.raises(NumericalFailure):
            integrate_reduced(Q2, P2, PARAMS2, 0.1, 1e-2, method=method)

    def test_overflowed_stage_raises(self):
        # a stage's gradient overflows and a position comes back infinite
        with pytest.raises(NumericalFailure), np.errstate(over="ignore", invalid="ignore"):
            integrate_reduced([0.8, -0.8], [0.1, -0.05], PARAMS2, 10.0, 10.0)

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_overflowed_stage_raises_without_warnings(self, method):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure):
                integrate_reduced([0.8, -0.8], [0.1, -0.05], PARAMS2, 10.0, 10.0, method=method)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInput):
            integrate_reduced(Q2, P2, PARAMS2, 1.0, -1e-3)
        with pytest.raises(InvalidInput):
            integrate_reduced(Q2, P2, PARAMS2, 1.0, 1e-3, method="euler")

    @pytest.mark.parametrize("q0, p0, error, message", [
        ([-1.0, 1.0], [0.2, 0.15], ChamberViolation, r"^q must be strictly decreasing"),
        ([1.0, np.nan], [0.2, 0.15], InvalidInput, "^q and p must be finite$"),
        ([1.0, -1.0], [0.2], InvalidInput, "^q and p must have one shape"),
        ([[1.0, -1.0]], [[0.2, 0.15]], InvalidInput, r"^q and p must be one point \(n,\)"),
    ])
    def test_start_is_checked_before_stepping(self, q0, p0, error, message, monkeypatch):
        def no_kernel(n):
            raise AssertionError("_q_kernel called")

        monkeypatch.setattr(dynamics, "_q_kernel", no_kernel)
        with pytest.raises(error, match=message):
            integrate_reduced(q0, p0, PARAMS2, 1.0, 1e-3)

    def test_start_may_be_array_likes(self):
        a = integrate_reduced([1, -1], [0.2, 0.15], PARAMS2, 0.01, 1e-3)
        b = integrate_reduced(Q2, P2, PARAMS2, 0.01, 1e-3)
        assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)

    def test_size_mismatch_raises_before_stepping(self, monkeypatch):
        def no_kernel(n):
            raise AssertionError("_q_kernel called")

        monkeypatch.setattr(dynamics, "_q_kernel", no_kernel)
        with pytest.raises(InternalInconsistency, match="point has n=2, params n=3"):
            integrate_reduced(Q2, P2, make_params(0.5, 1, 1, 3), 1.0, 1e-3)
        # the size is part of the point rule, so a stack of the wrong size
        # meets it before the one-point test (was the one-point InvalidInput)
        with pytest.raises(InternalInconsistency, match="point has n=2, params n=3"):
            integrate_reduced(Q2[None], P2[None], make_params(0.5, 1, 1, 3), 1.0, 1e-3)


def _outcome(call):
    """call() or the exception it raises, for comparison by repr."""
    try:
        return call()
    except Exception as exc:        # compared by class and message
        return exc


class TestGeneratedSteps:
    """The straight-line RK steps against the loop steps they replace."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_steps_equal_the_loop_steps(self, n):
        rng = np.random.default_rng(700 + n)
        params = make_params(0.6, 1.2, 0.8, n)
        abc = abc_from_params(params)
        chart = _q_kernel(n)(*abc, 2.0)
        rk4 = dynamics._rk_step("rk4", n)(chart)
        ck = dynamics._rk_step("rk45", n)(chart)

        def f(z):
            return loop_q_chart(z, n, *abc, 2.0)[1]

        for z in np.hstack(random_admissible_points(rng, params, 4,
                                                    q_range=(-1.0 - n, 1.0 + n))).tolist():
            # the largest steps leave the chamber or overflow at some stage
            for h in (1e-3, 0.05, 0.7, 10.0):
                assert repr(_outcome(lambda: rk4(z, h))) == \
                    repr(_outcome(lambda: loop_rk4_step(f, z, h)))
                assert repr(_outcome(lambda: ck(z, h))) == \
                    repr(_outcome(lambda: loop_ck_step(f, z, h)))

    def test_an_overflowed_stage_gives_the_loop_steps_values(self):
        # the stage after an overflow: the same NaN and inf entries
        abc = abc_from_params(PARAMS2)
        chart = _q_kernel(2)(*abc, 2.0)
        z = [0.8, -0.8, 0.1, -0.05]
        f = lambda z: loop_q_chart(z, 2, *abc, 2.0)[1]
        rk4 = _outcome(lambda: dynamics._rk_step("rk4", 2)(chart)(z, 10.0))
        ck = _outcome(lambda: dynamics._rk_step("rk45", 2)(chart)(z, 10.0))
        assert isinstance(rk4, NumericalFailure)
        assert repr(rk4) == repr(_outcome(lambda: loop_rk4_step(f, z, 10.0)))
        assert repr(ck) == repr(_outcome(lambda: loop_ck_step(f, z, 10.0)))

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_integrate_equals_the_loop_integrator(self, n, method):
        rng = np.random.default_rng(720 + n)
        gaps = rng.uniform(0.7, 0.9, size=n - 1)
        q = rng.uniform(-0.3, 0.3) + np.concatenate([np.cumsum(gaps[::-1])[::-1], [0.0]])
        p = rng.uniform(-0.5, 0.5, size=n)
        params = make_params(0.6, 1.2, 0.8, n)
        traj = integrate_reduced(q, p, params, 1.0, 0.02, method=method)
        times, rows, approached = loop_integrate(q.tolist(), p.tolist(), params, 1.0, 0.02,
                                                 method)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.q, rows[:, :n]) and np.array_equal(traj.p, rows[:, n:])
        assert traj.chamber_approach == approached

    @pytest.mark.parametrize("q, p, t_max, dt, method", [
        ([0.8, -0.8], [0.1, -0.05], 2.0, 1e-3, "rk4"),      # a step reorders q
        ([1.0, -1.0], [-1.0, 1.0], 0.3, 0.1, "rk45"),       # rejected trial steps
        # an overflowing stage where the generated kernel's cross sums hold
        # a NaN that the loop kernel's do not: the same error all the same
        ([400.0, -400.0], [0.1, 0.2], 0.01, 1e-3, "rk4"),
        ([400.0, -400.0], [0.1, 0.2], 0.01, 1e-3, "rk45"),
    ])
    def test_hard_runs_equal_the_loop_integrator(self, q, p, t_max, dt, method):
        ref = _outcome(lambda: loop_integrate(q, p, PARAMS2, t_max, dt, method))
        if isinstance(ref, Exception):
            with pytest.raises(type(ref)) as info:
                integrate_reduced(q, p, PARAMS2, t_max, dt, method=method)
            assert repr(info.value) == repr(ref)
            return
        traj = integrate_reduced(q, p, PARAMS2, t_max, dt, method=method)
        times, rows, approached = ref
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.q, rows[:, :2]) and np.array_equal(traj.p, rows[:, 2:])
        assert traj.chamber_approach == approached


class TestProjectFlow:
    def test_element_of_the_wrong_size_is_invalid_input(self):
        with pytest.raises(InvalidInput, match=r"expected shape \(2, 2\), got \(4, 4\)"):
            project_flow(G2, make_params(0.5, 1, 1, 1), [0.0, 0.1])

    def test_no_times_give_an_empty_trajectory(self):
        # the surface gate and the energy check pass an empty stack
        traj = project_flow(G2, PARAMS2, [])
        assert traj.q.shape == traj.p.shape == (0, 2)
        assert traj.energy.shape == traj.residual.shape == (0,)

    def test_time_zero_sample(self):
        traj = project_flow(G2, PARAMS2, [0.0, 0.5])
        assert np.allclose(traj.q[0], reduce_stack(G2[None], PARAMS2)[0][0])

    def test_sample_equals_extraction_and_residuals(self):
        # each sample is the reduction of its element alone
        traj = project_flow(G2, PARAMS2, [0.0, 0.5])
        for g_t, q, p, res in zip((G2, exact_flow(G2, 0.5)), traj.q, traj.p, traj.residual):
            (ref_q,), (ref_p,), (ref_res,), _ = reduce_stack(g_t[None], PARAMS2)
            assert np.array_equal(q, ref_q) and np.array_equal(p, ref_p) and res == ref_res

    def test_surface_residuals_and_energy(self):
        traj = project_flow(G2, PARAMS2, np.linspace(0.0, 1.0, 11))
        assert np.max(traj.residual) < 1e-8
        assert np.max(np.abs(traj.energy - traj.energy[0])) < 1e-10


def _loop_extract(g, params):
    """Reference: extraction of one element with 2-d operations only,
    as the extraction computed it before it ran on stacks: q, p, k_L and b_R."""
    n = params.n
    x = params.x
    k_L, b_R = decompose_KB(g)
    bad = max(rel_err(b_R[:n, :n], x * np.eye(n)),
              rel_err(b_R[n:, n:], np.eye(n) / x))
    if bad > SURFACE_TOL:
        raise NotOnConstraintSurface(f"right factor diagonal blocks off by {bad:.2e}")
    kak = cartan_KAK(k_L)
    Sigma = kak.Sigma
    q = np.log(Sigma)
    left = np.block([
        [np.eye(n), np.zeros((n, n))],
        [np.zeros((n, n)), kak.tau_hat.conj().T]]).astype(complex)
    right = np.block([
        [kak.khat.conj().T, np.zeros((n, n))],
        [np.zeros((n, n)), kak.lhat.conj().T]]).astype(complex)
    g_norm = left @ g @ right
    Lambda = np.sqrt(params.y ** 2 + params.x ** 2 * Sigma ** 2)
    T = g_norm[n:, n:] / Lambda[:, None]
    if rel_err(T.conj().T @ T, np.eye(n)) > SURFACE_TOL:
        raise NotOnConstraintSurface("lower-right block is not Lambda-unitary")
    v = solve_v(Sigma, params.alpha)
    vtilde = v / Sigma
    w = np.sqrt(float(vtilde @ vtilde)) * kak.rho_hat[0, :].conj()
    if np.max(np.abs(np.abs(w) - vtilde)) > SURFACE_TOL * max(1.0, float(np.max(vtilde))):
        raise NotOnConstraintSurface("vtilde misaligned with the reference gauge")
    delta = w / np.abs(w)
    T = delta.conj()[:, None] * T * delta[None, :]
    D = T @ build_Ttilde(Sigma, params.alpha, v).T
    off = D - np.diag(np.diagonal(D))
    if frob(off) > 1e-8 * max(1.0, frob(D)):
        raise NotOnConstraintSurface("phase matrix has off-diagonal content")
    return q, np.angle(np.diagonal(D)), k_L, b_R


def _loop_residual(g, k_L, b_R, params):
    """Reference: the worst surface residual, with 2-d operations only."""
    n = params.n
    x, y, alpha = params.x, params.y, params.alpha
    J = inn(n)
    b_L = indefinite_cholesky_upper_dual(g @ J @ g.conj().T)
    sig = y * b_L[:n, :n]
    spec = np.sort(np.linalg.eigvalsh(sig @ sig.conj().T))
    target = np.sort(np.concatenate([
        [alpha ** 2 + params.vhat_norm_sq], np.full(n - 1, alpha ** 2)]))
    return max(rel_err(b_R[:n, :n], x * np.eye(n)),
               rel_err(b_R[n:, n:], np.eye(n) / x),
               rel_err(k_L.conj().T @ J @ k_L, J),
               rel_err(b_L[n:, n:], y * np.eye(n)),
               float(np.max(np.abs(spec - target))) / max(1.0, target[-1]),
               abs(abs(np.linalg.det(g)) - 1.0))


def _loop_project(g0, params, times):
    """Reference: `project_flow` one sample at a time (expm, extraction,
    residual, phi_trace)."""
    qs, ps, energy, residual = [], [], [], []
    for t in times:
        g_t = g0 if t == 0.0 else exact_flow(g0, t)
        q, p, k_L, b_R = _loop_extract(g_t, params)
        qs.append(q)
        ps.append(p)
        residual.append(_loop_residual(g_t, k_L, b_R, params))
        energy.append(phi_trace(g_t, 1))
    return np.array(qs), np.array(ps), np.array(energy), np.array(residual)


def _bounded_start(rng, params):
    """Gaps in [0.7, 0.9] above a lowest position in [-0.3, 0.3]: starts
    whose exact flow stays well inside the chart up to t = 1."""
    gaps = rng.uniform(0.7, 0.9, size=params.n - 1)
    q = rng.uniform(-0.3, 0.3) + np.concatenate([np.cumsum(gaps[::-1])[::-1], [0.0]])
    return assemble_stack(q, rng.uniform(-0.5, 0.5, size=params.n), params)[0].g


class TestStackedProjection:
    """`project_flow` runs chunks of stacked samples; it must give what the
    per-sample loop gives: q and energy bit for bit, p within 2e-15
    (mod 2 pi) and the residual within 1e-3 r + 1e-15."""

    @staticmethod
    def _assert_matches_loop(g0, params, times):
        traj = project_flow(g0, params, times)
        q, p, energy, residual = _loop_project(g0, params, times)
        assert np.array_equal(traj.times, np.asarray(times, dtype=float))
        assert np.array_equal(traj.q, q)
        assert np.array_equal(traj.energy, energy)
        dp = wrap_angle(traj.p - p)
        assert np.max(np.abs(dp)) <= 2e-15
        assert np.all(np.abs(traj.residual - residual) <= 1e-3 * residual + 1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uniform_grid(self, n, seed):
        params = make_params(0.6, 1.2, 0.8, n)
        g0 = _bounded_start(np.random.default_rng(300 + 10 * n + seed), params)
        self._assert_matches_loop(g0, params, np.linspace(0.0, 1.0, 101))

    def test_many_chunks_at_n8(self):
        # 16 samples per chunk at n = 8: 1001 samples cross 62 boundaries
        params = make_params(0.6, 1.2, 0.8, 8)
        g0 = _bounded_start(np.random.default_rng(390), params)
        self._assert_matches_loop(g0, params, np.linspace(0.0, 1.0, 1001))

    @pytest.mark.parametrize("n", [2, 4])
    def test_non_uniform_grid(self, n):
        params = make_params(0.6, 1.2, 0.8, n)
        rng = np.random.default_rng(395 + n)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.5, 300))])
        self._assert_matches_loop(_bounded_start(rng, params), params, times)

    def test_sample_off_the_surface_fails_at_its_first_time(self):
        # n = 2, alpha 0.9, seed 5: the worst surface residual reaches
        # 2.4e-6 > SURFACE_TOL at t = 6 (the extraction fails from t ~ 6.25
        # on); the 500 samples before it, two chunks, pass
        params = make_params(0.9, 1.2, 0.8, 2)
        g0 = assemble_stack(*random_admissible_points(np.random.default_rng(5), params, 1),
                            params)[0].g[0]
        times = np.append(np.linspace(0.0, 5.0, 500), 6.0)
        with pytest.raises(NotOnConstraintSurface,
                           match="^exact flow: surface residual 2.42e-06 above 1e-06 at t = 6$"):
            project_flow(g0, params, times)
        assert np.max(project_flow(g0, params, times[:-1]).residual) <= SURFACE_TOL

    @pytest.mark.parametrize("column", ["residual", "energy"])
    def test_nan_column_fails(self, monkeypatch, column):
        # a NaN residual fails the surface gate, a NaN energy its finite check
        params = make_params(0.6, 1.2, 0.8, 2)
        g0 = _bounded_start(np.random.default_rng(9), params)
        if column == "residual":
            reduce_stack = dynamics.reduce_stack

            def nan_residual(g, params):
                q, p, residual, m = reduce_stack(g, params)
                return q, p, np.full_like(residual, np.nan), m

            monkeypatch.setattr(dynamics, "reduce_stack", nan_residual)
            error, message = (NotOnConstraintSurface,
                              "exact flow: surface residual nan above 1e-06 at t = 0.5")
        else:
            monkeypatch.setattr(dynamics, "phi_from_moment",
                                lambda m, nu: np.full(len(m), np.nan))
            error, message = NumericalFailure, "exact flow: non-finite energy at t = 0.5"
        with pytest.raises(error, match=f"^{message}$"):
            project_flow(g0, params, [0.5, 1.0])

    def test_first_failing_sample_in_time_raises(self):
        # near t = 4.5 the phase check fails; from t = 10 on the samples
        # are off the leaf (NotOnLeaf), and a stage-by-stage pass over the
        # whole stack would meet those first
        params = make_params(0.6, 1.2, 0.8, 2)
        g0 = assemble_stack(*random_admissible_points(np.random.default_rng(2), params, 1),
                            params)[0].g[0]
        with pytest.raises(NotOnConstraintSurface,
                           match="phase matrix has off-diagonal content"):
            project_flow(g0, params, [0, 4, 6, 8, 10, 12])


class TestCompare:
    def test_self_comparison_is_zero(self):
        traj = integrate_reduced(Q2, P2, PARAMS2, 0.1, 1e-3, sample_every=10)
        dev = compare_trajectories(traj, traj)
        assert dev.q_dev == 0.0 and dev.p_dev == 0.0

    def test_grid_mismatch(self):
        a = integrate_reduced(Q2, P2, PARAMS2, 0.1, 1e-3, sample_every=10)
        b = integrate_reduced(Q2, P2, PARAMS2, 0.2, 1e-3, sample_every=10)
        with pytest.raises(InvalidInput):
            compare_trajectories(a, b)

    @pytest.mark.parametrize("point,params", [((Q1, P1, G1), PARAMS1), ((Q2, P2, G2), PARAMS2)])
    def test_routes_give_T_by_n_arrays(self, point, params):
        q, p, g = point
        traj = integrate_reduced(q, p, params, 0.1, 1e-2)
        proj = project_flow(g, params, traj.times)
        for tr in (traj, proj):
            assert tr.q.shape == tr.p.shape == (traj.times.size, params.n)

    def test_matches_per_row_reference(self):
        # angles on both sides of +-pi, so the wrap decides the p deviation
        rng = np.random.default_rng(17)
        times = np.linspace(0.0, 1.0, 9)
        q = np.sort(rng.uniform(-2.0, 2.0, (9, 3)), axis=1)[:, ::-1]
        p = np.pi + rng.uniform(-0.1, 0.1, (9, 3))
        a = Trajectory(times, q, p, rng.uniform(size=9), np.zeros(9))
        b = Trajectory(times, q + rng.uniform(-1e-3, 1e-3, q.shape),
                       -p + rng.uniform(-0.1, 0.1, p.shape), rng.uniform(size=9),
                       np.zeros(9))
        q_ref = p_ref = 0.0
        for i in range(times.size):
            q_ref = max(q_ref, float(np.max(np.abs(a.q[i] - b.q[i]))))
            p_ref = max(p_ref, float(np.max(np.abs(wrap_angle(a.p[i] - b.p[i])))))
        dev = compare_trajectories(a, b)
        assert (dev.q_dev, dev.p_dev) == (q_ref, p_ref)
        assert p_ref < 0.4      # the raw difference is near 2 pi


class TestCsv:
    def test_header_and_roundtrip(self):
        traj = integrate_reduced(Q2, P2, PARAMS2, 0.01, 1e-3, sample_every=5)
        text = trajectory_csv_text(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,q1,q2,p1,p2,energy,residual"
        row = lines[1].split(",")
        # 17 significant digits parse back to the stored doubles exactly
        assert float(row[0]) == traj.times[0]
        assert float(row[1]) == traj.q[0, 0]
        assert float(row[-2]) == traj.energy[0]

    def test_rows_match_per_row_reference(self):
        traj = integrate_reduced(Q2, P2, PARAMS2, 0.01, 1e-3, sample_every=5)
        # rows of special values: NaN, +-inf, -0.0 and the extremes of the range
        rows = np.array([[np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1.7976931348623157e308],
                         [-0.0, -np.nan, 1e-310, np.inf, 0.1, 1e16, -1.0 / 3.0]])
        special = Trajectory(times=rows[:, 0], q=rows[:, 1:3], p=rows[:, 3:5],
                             energy=rows[:, 5], residual=rows[:, 6])
        for tr in (traj, special):
            lines = ["t,q1,q2,p1,p2,energy,residual"]
            for i, t in enumerate(tr.times):
                row = [t, *tr.q[i], *tr.p[i], tr.energy[i], tr.residual[i]]
                lines.append(",".join(format(float(v), ".17g") for v in row))
            assert trajectory_csv_text(tr) == "\n".join(lines) + "\n"
        assert trajectory_csv_text(special).split("\n")[1] == \
            "nan,inf,-inf,-0,0,4.9406564584124654e-324,-1.7976931348623157e+308"
