"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines; every tolerance is fixed here, not computed.
"""

import numpy as np

from conftest import (
    block_unitary,
    rand_complex,
    rand_hermitian,
    rand_triangular_positive,
    rand_unitary,
    vhat_stabilizer,
)

from bcn_ruijsenaars.decomposition import reduce_stack
from bcn_ruijsenaars.dynamics import (
    compare_trajectories,
    exact_flow,
    integrate_reduced,
    project_flow,
)
from bcn_ruijsenaars.hamiltonians import (
    BRACKET_DRAW,
    hamiltonian_q,
    hamiltonian_sigma,
    involution_report,
    phi_from_moment,
    phi_trace,
    weyl_check,
)
from bcn_ruijsenaars.limits import (
    LimitParams,
    fit_potential_coefficients,
    limit_convergence,
)
from bcn_ruijsenaars.matops import (
    expm,
    frob,
    indefinite_cholesky_upper,
    inn,
    j_moment,
    rel_err,
)
from bcn_ruijsenaars.model import abc_from_params, make_params, wrap_angle
from bcn_ruijsenaars.reconstruction import (assemble_stack, constraint_report,
                                            constraint_residuals, solve_v)
from bcn_ruijsenaars.sampling import random_admissible_points

SAMPLES = 100
LIMIT_GRID = np.geomspace(5e-5, 5e-3, 8)


def _params_for(n, rng):
    return make_params(rng.uniform(0.35, 0.75), rng.uniform(0.7, 1.4),
                       rng.uniform(0.7, 1.4), n)


def test_criterion_01_constraint_surface():
    worst = 0.0
    for n in (1, 2, 3, 4):
        params = make_params(0.5, 1.0, 1.0, n)
        q, p = random_admissible_points(np.random.default_rng(1000 + n), params, SAMPLES)
        rep = constraint_report({name: np.max(r) for name, r in
                                 constraint_residuals(q, p, params).items()}, tol=1e-10)
        assert rep.ok, (n, rep.worst())
        worst = max(worst, rep.max_residual)
    print(f"ACCEPTANCE 1 (constraint surface): PASS - max residual "
          f"{worst:.3e} < 1e-10 over {4 * SAMPLES} points")


def test_criterion_02_master_cross_validation():
    worst = 0.0
    for n in (1, 2, 3, 4):
        params = make_params(0.5, 1.0, 1.0, n)
        q, p = random_admissible_points(np.random.default_rng(2000 + n), params, SAMPLES)
        trace_val = phi_from_moment(j_moment(assemble_stack(q, p, params)[0].g), 1)
        closed = hamiltonian_sigma(np.exp(q), p, params)
        dev = np.abs(trace_val - closed) / np.maximum(1.0, np.abs(closed))
        assert np.all(dev < 1e-9)
        worst = max(worst, float(np.max(dev)))
    print(f"ACCEPTANCE 2 (master cross-validation): PASS - worst relative "
          f"deviation {worst:.3e} < 1e-9")


def test_criterion_03_determinant_identity():
    rng = np.random.default_rng(3000)
    worst_det, worst_norm = 0.0, 0.0
    for n in (1, 2, 3, 4):
        for _ in range(25):
            params = _params_for(n, rng)
            vhat = np.zeros(n)
            vhat[0] = np.sqrt(params.vhat_norm_sq)
            det = np.linalg.det(params.alpha ** 2 * np.eye(n)
                                + np.outer(vhat, vhat))
            worst_det = max(worst_det, abs(det - 1.0))
            (q,), _ = random_admissible_points(rng, params, 1)
            sigma = np.exp(q)
            v = solve_v(sigma, params.alpha)
            worst_norm = max(worst_norm, abs(
                float(np.sum((v / sigma) ** 2)) - params.vhat_norm_sq))
    assert worst_det < 1e-12 and worst_norm < 1e-10
    print(f"ACCEPTANCE 3 (determinant identity): PASS - det defect "
          f"{worst_det:.3e} < 1e-12, norm defect {worst_norm:.3e} < 1e-10")


def test_criterion_04_round_trip_with_gauge():
    worst_q = worst_p = 0.0
    for n in (1, 2, 3):
        rng = np.random.default_rng(4000 + n)
        params = make_params(0.5, 1.0, 1.0, n)
        z = np.zeros((n, n))
        q, p = random_admissible_points(rng, params, SAMPLES)
        # each element, then 20 gauge moves of it
        gauged = []
        for g in assemble_stack(q, p, params)[0].g:
            gauged.append(g)
            for _ in range(20):
                u = np.block([[vhat_stabilizer(rng, n), z], [z, rand_unitary(rng, n)]])
                gauged.append(u @ g @ block_unitary(rng, n))
        out_q, out_p, _, _ = reduce_stack(np.stack(gauged), params)
        worst_q = max(worst_q, float(np.max(np.abs(out_q - np.repeat(q, 21, axis=0)))))
        worst_p = max(worst_p, float(np.max(np.abs(wrap_angle(out_p - np.repeat(p, 21, axis=0))))))
    assert worst_q < 1e-9 and worst_p < 1e-9
    print(f"ACCEPTANCE 4 (round trip + gauge): PASS - worst q deviation "
          f"{worst_q:.3e}, worst p deviation {worst_p:.3e} < 1e-9")


def test_criterion_05_involution():
    worst = 0.0
    for n in (1, 2, 3):
        rng = np.random.default_rng(5000 + n)
        params = make_params(0.5, 1.0, 1.0, n)
        q, p = random_admissible_points(rng, params, 20, **BRACKET_DRAW)
        rep = involution_report(params, q, p, max_order=3)
        worst = max(worst, rep.max_abs)
    assert worst < 1e-5
    print(f"ACCEPTANCE 5 (involution): PASS - max |bracket| {worst:.3e} < 1e-5 "
          f"for orders <= 3, n <= 3, 20 points each")


def test_criterion_06_dynamics_equivalence():
    params = make_params(0.5, 1.0, 1.0, 2)
    q0, p0 = np.array([1.0, -1.0]), np.array([0.2, 0.15])
    fact, _ = assemble_stack(q0, p0, params)
    traj = integrate_reduced(q0, p0, params, t_max=1.0, dt=1e-4, sample_every=100)
    proj = project_flow(fact.g, params, traj.times)
    dev = compare_trajectories(traj, proj)
    assert dev.q_dev < 1e-6 and dev.p_dev < 1e-6

    j = inn(2)
    m0 = fact.g @ j @ fact.g.conj().T
    worst_cons = 0.0
    for t in (0.1, 0.5, 1.0):
        g_t = exact_flow(fact.g, t)
        worst_cons = max(worst_cons, rel_err(g_t @ j @ g_t.conj().T, m0))
        for nu in (1, 2, 3, 4):
            d = abs(phi_trace(g_t, nu) - phi_trace(fact.g, nu)) \
                / max(1.0, abs(phi_trace(fact.g, nu)))
            worst_cons = max(worst_cons, d)
    assert worst_cons < 1e-10
    print(f"ACCEPTANCE 6 (dynamics equivalence): PASS - route deviation "
          f"q {dev.q_dev:.3e}, p {dev.p_dev:.3e} < 1e-6; conservation defect "
          f"{worst_cons:.3e} < 1e-10")


def test_criterion_07_weyl_invariance():
    worst = 0.0
    total = 0
    for n in (1, 2, 3):
        params = make_params(0.5, 1.0, 1.0, n)
        for q, p in zip(*random_admissible_points(np.random.default_rng(7000 + n), params, 5)):
            rep = weyl_check(np.exp(q), p, params, tol=1e-12)
            assert rep.ok
            worst = max(worst, rep.max_deviation)
            total += rep.orbit_size
    print(f"ACCEPTANCE 7 (Weyl invariance): PASS - worst deviation "
          f"{worst:.3e} < 1e-12 over {total} signed-permutation actions")


def test_criterion_08_parameter_correspondence():
    rng = np.random.default_rng(8000)
    worst = 0.0
    for k in range(SAMPLES):
        n = int(rng.integers(1, 4))
        params = _params_for(n, rng)
        a2, b2, c2 = abc_from_params(params)
        (q,), (p,) = random_admissible_points(rng, params, 1)
        h_abc = hamiltonian_q(q, p, a2, b2, c2)
        h_sig = hamiltonian_sigma(np.exp(q), p, params)
        dev = abs(h_abc - h_sig) / max(1.0, abs(h_abc), abs(h_sig))
        assert dev < 1e-12
        worst = max(worst, dev)
    print(f"ACCEPTANCE 8 (parameter correspondence): PASS - worst relative "
          f"deviation {worst:.3e} < 1e-12 on {SAMPLES} points")


def test_criterion_09_sutherland_limit():
    rng = np.random.default_rng(9000)
    worst_order, worst_h0, worst_h1 = np.inf, 0.0, 0.0
    for k in range(10):
        n = int(rng.integers(1, 4))
        rates = rng.uniform(-0.6, 0.6, 3)
        if abs(rates[2]) < 0.2:
            rates[2] = 0.35
        lp = LimitParams(*rates)
        gaps = rng.uniform(0.55, 1.0, n - 1) if n > 1 else np.empty(0)
        q = rng.uniform(-0.4, 1.2) - np.concatenate([[0.0], np.cumsum(gaps)])
        piv = rng.uniform(-0.7, 0.7, n)
        rep = limit_convergence(q, piv, lp, t_grid=LIMIT_GRID)
        assert rep.passes, (k, rep.fitted_order, rep.error)
        assert rep.H0_error < 1e-8 and rep.H1_error < 1e-8
        worst_order = min(worst_order, rep.fitted_order)
        worst_h0 = max(worst_h0, rep.H0_error)
        worst_h1 = max(worst_h1, rep.H1_error)

    # independent oracle for the potential coefficients: fit the numerical
    # limit against the three basis functions and compare with the
    # closed-form coefficients (2 xi eta, 2 (eta-xi)^2, zeta^2/2)
    lp = LimitParams(0.45, -0.35, 0.6)
    c_fit, _ = fit_potential_coefficients(lp, np.random.default_rng(9100))
    c_true = np.array(lp.coefficients())
    c_dev = float(np.max(np.abs(c_fit - c_true) / np.abs(c_true)))
    assert c_dev < 1e-6
    print(f"ACCEPTANCE 9 (Sutherland limit): PASS - min fitted order "
          f"{worst_order:.2f} >= 0.9; H0 defect {worst_h0:.2e}, H1 defect "
          f"{worst_h1:.2e} < 1e-8; coefficient fit deviation {c_dev:.2e} < 1e-6")


def test_criterion_10_kernel_quality():
    rng = np.random.default_rng(10000)
    worst = 0.0
    for size in range(1, 17):
        for _ in range(100):
            h = rand_hermitian(rng, size)
            w, u = np.linalg.eigh(h)
            worst = max(worst, frob(u @ np.diag(w) @ u.conj().T - h)
                        / max(1e-300, 1e-12 * max(1.0, frob(h))) * 1e-12)
            assert frob(u @ np.diag(w) @ u.conj().T - h) <= 1e-12 * max(1.0, frob(h))

            m = rand_complex(rng, (size, size))
            u, s, vh = np.linalg.svd(m)
            assert frob(u @ np.diag(s) @ vh - m) <= 1e-12 * max(1.0, frob(m))

            a = rand_complex(rng, (size, size))
            a *= rng.uniform(0.05, 10.0) / max(np.linalg.norm(a, 1), 1e-30)
            assert frob(expm(a) @ expm(-a) - np.eye(size)) < 1e-11
        if size % 2 == 0:
            half = size // 2
            j = inn(half)
            for _ in range(100):
                b0 = rand_triangular_positive(rng, size)
                h2 = b0.conj().T @ j @ b0
                b = indefinite_cholesky_upper(h2)
                assert frob(b.conj().T @ j @ b - h2) <= 1e-11 * max(1.0, frob(h2))
    print("ACCEPTANCE 10 (kernel quality): PASS - eig/svd residuals < 1e-12, "
          "signature factorization < 1e-11, exponential inverse < 1e-11, "
          "100 draws per size up to 16x16")
