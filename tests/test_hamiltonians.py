import itertools
import math
import os
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest

from loop_reference import loop_q_chart

import bcn_ruijsenaars.hamiltonians as hamiltonians
from bcn_ruijsenaars.errors import (BCNError, ChamberViolation, InvalidInput,
                                    NumericalFailure, SeparationViolation)
from bcn_ruijsenaars.hamiltonians import (
    BRACKET_DRAW,
    fd_gradient,
    grad_hamiltonian,
    hamiltonian_q,
    hamiltonian_sigma,
    involution_report,
    phi_from_moment,
    phi_trace,
    spectral_invariants,
    weyl_check,
)
from bcn_ruijsenaars.matops import chunk_rows, j_moment
from bcn_ruijsenaars.model import abc_from_params, make_params, separation_gap
from bcn_ruijsenaars.reconstruction import assemble_stack
from bcn_ruijsenaars.sampling import random_admissible_points


def _phi(q, p, params, nu):
    """Phi_nu at one point, through its reconstructed group element."""
    return phi_trace(assemble_stack(q, p, params)[0].g, nu)


def _loop_fd_gradient(func, q, p, params, h0=None):
    """The per-point `fd_gradient` the stacked one replaces: one
    `func(q, p, params)` call per stencil row."""
    if h0 is None:
        h0 = 1e-4 * max(1.0, float(np.max(np.abs(q))), float(np.max(np.abs(p))))

    def diff(build):
        def central(h):
            return (func(*build(h), params) - func(*build(-h), params)) / (2.0 * h)
        d1, d2 = central(h0), central(h0 / 2.0)
        return (4.0 * d2 - d1) / 3.0

    dq = np.array([diff(lambda h, i=i: (q + h * np.eye(q.size)[i], p)) for i in range(q.size)])
    dp = np.array([diff(lambda h, i=i: (q, p + h * np.eye(p.size)[i])) for i in range(p.size)])
    return dq, dp


class TestPhiTrace:
    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_identity_element(self, nu):
        assert phi_trace(np.eye(6), nu) == pytest.approx(-3.0 / nu)

    def test_reference_value(self):
        params = make_params(0.5, 1, 1, 1)
        assert _phi([0.0], [0.0], params, 1) == pytest.approx(-1.0, abs=1e-12)

    def test_real_on_random_surface_points(self):
        params = make_params(0.5, 1.1, 0.9, 3)
        q, p = random_admissible_points(np.random.default_rng(51), params, 10)
        for g in assemble_stack(q, p, params)[0].g:
            for nu in (1, 2, 3):
                phi_trace(g, nu)        # raises NumericalFailure if not real

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            phi_trace(np.full((2, 2), np.nan), 1)

    @pytest.mark.parametrize("m", [np.eye(3), np.ones((4, 2)), np.ones(4),
                                   np.full((2, 2), np.nan)],
                             ids=["odd", "non-square", "vector", "non-finite"])
    def test_bad_moment_is_invalid_input(self, m):
        with pytest.raises(InvalidInput, match="^m "):
            phi_from_moment(m, 1)

    @pytest.mark.parametrize("g", [np.ones((4, 2)), np.ones((2, 4)), np.ones(4),
                                   np.ones((2, 4, 4))],
                             ids=["tall", "wide", "vector", "stack"])
    def test_element_of_bad_shape_is_invalid_input(self, g):
        # J applied as signs would broadcast over a 4 x 2 g and return a number
        with pytest.raises(InvalidInput, match="^g "):
            phi_trace(g, 1)


class TestClosedForms:
    def test_scalar_rest_value(self):
        params = make_params(0.5, 1, 1, 1)
        for q in (-1.0, 0.0, 2.0):
            assert hamiltonian_sigma([np.exp(q)], [0.0], params) == \
                pytest.approx(-1.0, abs=1e-12)

    def test_large_separation_decouples(self):
        # the pair factors deviate from 1 by ~exp(-2 gap); with the
        # exp(-2 q) prefactors this leaves ~1e-5 at a gap of 12
        params = make_params(0.5, 1.0, 1.0, 2)
        q, p = np.array([6.0, -6.0]), np.array([0.7, -0.4])
        val = _phi(q, p, params, 1)
        scalar_params = make_params(0.5, 1.0, 1.0, 1)
        parts = sum(_phi(q[i:i+1], p[i:i+1], scalar_params, 1) for i in range(2))
        assert val == pytest.approx(parts, abs=1e-4)

    def test_master_cross_validation(self):
        rng = np.random.default_rng(52)
        for n in (1, 2, 3):
            params = make_params(0.5, 1.2, 0.8, n)
            q, p = random_admissible_points(rng, params, 10)
            t = phi_from_moment(j_moment(assemble_stack(q, p, params)[0].g), 1)
            s = hamiltonian_sigma(np.exp(q), p, params)
            assert np.all(np.abs(t - s) <= 1e-9 * np.maximum(1.0, np.abs(s)))

    def test_parameter_correspondence(self):
        rng = np.random.default_rng(53)
        for n in (1, 2, 4, 8):
            params = make_params(0.45, 1.4, 0.7, n)
            a2, b2, c2 = abc_from_params(params)
            q, p = random_admissible_points(rng, params, 20, q_range=(-1.0 - n, 1.0 + n))
            for qi, pi, h2 in zip(q, p, hamiltonian_sigma(np.exp(q), p, params)):
                h1 = hamiltonian_q(qi, pi, a2, b2, c2)
                assert abs(h1 - h2) <= 1e-12 * max(1.0, abs(h1), abs(h2))

    def test_pair_factor_values(self):
        # a2 = b2 = 0 and p = 0 leave -sum_i sqrt(1 + e^{-2 q_i}) prod_k f_ik
        # with f_ik = sqrt(1 - c2 / (4 sinh^2(q_i - q_k))); one particle has none
        q = [1.2, 0.1, -1.4]
        f = lambda d: math.sqrt(1.0 - 2.25 / (4.0 * math.sinh(d) ** 2))
        ref = -sum(math.sqrt(1.0 + math.exp(-2.0 * qi))
                   * math.prod(f(qi - qk) for k, qk in enumerate(q) if k != i)
                   for i, qi in enumerate(q))
        assert hamiltonian_q(q, np.zeros(3), 0.0, 0.0, 2.25) == pytest.approx(ref, rel=1e-15)
        assert hamiltonian_q([0.3], [0.0], 0.0, 0.0, 2.25) == -math.sqrt(1.0 + math.exp(-0.6))

    def test_zero_coupling_decouples(self):
        q = np.array([0.8, -0.3])
        p = np.array([0.4, 1.0])
        val = hamiltonian_q(q, p, 1.0, 1.0, 0.0)
        parts = sum(hamiltonian_q(q[i:i+1], p[i:i+1], 1.0, 1.0, 0.0)
                    for i in range(2))
        assert val == pytest.approx(parts, abs=1e-14)

    def test_separation_violation(self):
        params = make_params(0.5, 1, 1, 2)
        with pytest.raises(SeparationViolation):
            hamiltonian_sigma(np.exp([0.1, 0.0]), np.zeros(2), params)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_stack_equals_rows(self, n):
        rng = np.random.default_rng(70 + n)
        for alpha in (0.3, 0.6, 0.9):
            params = make_params(alpha, 1.2, 0.8, n)
            q, p = random_admissible_points(rng, params, 16, q_range=(-1.0 - n, 1.0 + n))
            stacked = hamiltonian_sigma(np.exp(q), p, params)
            assert stacked.shape == (16,)
            assert stacked.tolist() == [hamiltonian_sigma(np.exp(qi), pi, params)
                                        for qi, pi in zip(q, p)]

    def test_one_point_against_a_stack_of_the_other(self):
        # Sigma and p broadcast together, either way round
        rng = np.random.default_rng(3)
        params = make_params(0.6, 1.2, 0.8, 3)
        sigma = np.exp(np.array([1.1, 0.2, -0.9]))
        sigmas = sigma * rng.uniform(0.9, 1.1, size=(5, 3))
        ps = rng.uniform(-0.5, 0.5, size=(5, 3))
        assert hamiltonian_sigma(sigma, ps, params).tolist() == \
            [hamiltonian_sigma(sigma, p, params) for p in ps]
        assert hamiltonian_sigma(sigmas, ps[0], params).tolist() == \
            [hamiltonian_sigma(s, ps[0], params) for s in sigmas]

    @pytest.mark.parametrize("sigma, p, name", [
        ([np.nan, 1.0], [0.0, 0.0], "Sigma"),
        ([1.6, np.inf], [0.0, 0.0], "Sigma"),
        ([1.6, 0.6], [np.nan, 0.0], "p"),
        ([[1.6, 0.6], [1.5, np.nan]], [0.0, 0.0], "Sigma"),
    ])
    def test_non_finite_input_is_named(self, sigma, p, name):
        # past the check, a NaN Sigma would give a NaN value and no error
        with pytest.raises(InvalidInput, match=f"^{name} must be finite, got \\["):
            hamiltonian_sigma(sigma, p, make_params(0.5, 1, 1, 2))

    def test_q_chart_needs_ordered_separated_q(self):
        # the Sigma chart is permutation invariant; the q chart is not.  A
        # caller's non-finite q is invalid input; in the kernel (an
        # overflowed RK stage) it is a numerical failure.
        params = make_params(0.5, 1, 1, 2)
        for q, error, message in (
                ([-1.0, 1.0], ChamberViolation, r"q must be strictly decreasing, got \["),
                ([0.1, 0.0], SeparationViolation, "non-positive interaction radicand"),
                # sinh^2(1e-160) underflows to 0: the factor is -inf
                ([1e-160, 0.0], SeparationViolation, "non-positive interaction radicand"),
                ([0.3, np.inf], InvalidInput, "^q and p must be finite$")):
            with pytest.raises(error, match=message):
                hamiltonian_q(q, [0.0, 0.0], *abc_from_params(params))
            with pytest.raises(error, match=message):
                grad_hamiltonian(np.array(q), np.zeros(2), params)
        with pytest.raises(NumericalFailure, match=r"non-finite positions q = \["):
            kernel(2, abc_from_params(params))(0.3, np.inf, 0.0, 0.0)

    @pytest.mark.parametrize("q", [
        [np.nan], [np.inf], [-np.inf],
        # ordered: the chamber test passes with +-inf at the ends
        [np.inf, 0.0], [0.0, -np.inf], [np.inf, -np.inf],
    ])
    def test_q_chart_rejects_non_finite_q(self, q):
        # invalid input at the public calls, a numerical failure (an
        # overflowed RK stage) in the kernel
        params = make_params(0.5, 1, 1, len(q))
        with pytest.raises(InvalidInput, match="^q and p must be finite$"):
            hamiltonian_q(q, [0.1] * len(q), 1.0, 1.0, 2.25)
        with pytest.raises(InvalidInput, match="^q and p must be finite$"):
            grad_hamiltonian(np.array(q), np.full(len(q), 0.1), params)
        with pytest.raises(NumericalFailure, match=r"non-finite positions q = \["):
            kernel(len(q), (1.0, 1.0, 2.25))(*q, *[0.1] * len(q))

    def test_phase_periodicity(self):
        params = make_params(0.5, 1, 1, 2)
        (q,), (p,) = random_admissible_points(np.random.default_rng(54), params, 1)
        v1 = _phi(q, p, params, 2)
        v2 = _phi(q, p + 2 * np.pi, params, 2)
        assert v1 == pytest.approx(v2, abs=1e-10)


class TestGradient:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_analytic_matches_fd(self, n):
        rng = np.random.default_rng(55 + n)
        params = make_params(0.55, 1.2, 0.85, n)
        f = lambda q, p, pr: hamiltonian_sigma(np.exp(q), p, pr)
        half = 1.2 if n <= 3 else 1.0 + n
        q, p = random_admissible_points(rng, params, 5, q_range=(-half, half))
        for qi, pi, fq, fp in zip(q, p, *fd_gradient(f, q, p, params)):
            aq, ap = grad_hamiltonian(qi, pi, params)
            scale = max(1.0, float(np.max(np.abs(aq))), float(np.max(np.abs(ap))))
            assert np.max(np.abs(aq - fq)) <= 1e-6 * scale
            assert np.max(np.abs(ap - fp)) <= 1e-6 * scale

    def test_array_valued_equals_scalar_calls(self):
        rng = np.random.default_rng(58)
        params = make_params(0.6, 1.2, 0.8, 3)
        q, p = random_admissible_points(rng, params, 1, q_range=(-1.0, 1.0))
        # one `_phi` call per stencil row
        funcs = [lambda q, p, pr, nu=nu: np.array([_phi(a, b, pr, nu) for a, b in zip(q, p)])
                 for nu in (1, 2, 3)]
        dq, dp = fd_gradient(lambda q, p, pr: np.stack([f(q, p, pr) for f in funcs],
                                                      axis=-1),
                             q, p, params, 2.5e-4)
        assert dq.shape == dp.shape == (1, 3, 3)
        for j, f in enumerate(funcs):
            fq, fp = fd_gradient(f, q, p, params, 2.5e-4)
            assert dq[..., j].tolist() == fq.tolist()
            assert dp[..., j].tolist() == fp.tolist()

    def test_one_call_on_the_stencil_stack(self):
        rng = np.random.default_rng(59)
        params = make_params(0.6, 1.2, 0.8, 3)
        q, p = random_admissible_points(rng, params, 1, q_range=(-1.0, 1.0))
        calls = []

        def f(q, p, pr):
            calls.append((q.copy(), p.copy()))
            return hamiltonian_sigma(np.exp(q), p, pr)

        dq, dp = fd_gradient(f, q, p, params, 2.5e-4)
        assert len(calls) == 1 and calls[0][0].shape == (24, 3)
        # q_1 .. q_n, then p_1 .. p_n, each at +h, -h, +h/2, -h/2
        h = np.array([2.5e-4, -2.5e-4, 1.25e-4, -1.25e-4])
        assert calls[0][0][4:8, 1].tolist() == (q[0, 1] + h).tolist()
        assert calls[0][1][12:16, 0].tolist() == (p[0, 0] + h).tolist()
        lq, lp = _loop_fd_gradient(lambda q, p, pr: hamiltonian_sigma(np.exp(q), p, pr),
                                   q[0], p[0], params, 2.5e-4)
        assert dq.tolist() == [lq.tolist()] and dp.tolist() == [lp.tolist()]

    def test_points_equal_lone_points(self):
        # the stencils of P points are one stack, point after point; each
        # point keeps its own default step and the bits it gets alone
        rng = np.random.default_rng(60)
        params = make_params(0.6, 1.2, 0.8, 3)
        q, p = random_admissible_points(rng, params, 5)
        f = lambda q, p, pr: hamiltonian_sigma(np.exp(q), p, pr)
        dq, dp = fd_gradient(f, q, p, params)
        assert dq.shape == dp.shape == (5, 3)
        for i in range(5):
            lq, lp = _loop_fd_gradient(lambda q, p, pr: hamiltonian_sigma(np.exp(q), p, pr),
                                       q[i], p[i], params)
            assert dq[i].tolist() == lq.tolist() and dp[i].tolist() == lp.tolist()

    def test_canonical_pairs(self):
        # the coordinate functions q_i and p_i have unit gradients
        params = make_params(0.5, 1, 1, 2)
        q, p = np.array([[0.9, -0.4]]), np.array([[0.3, 1.0]])
        eye, zero = np.eye(2), np.zeros(2)
        for i in range(2):
            dq, dp = fd_gradient(lambda q, p, _pr: q[:, i], q, p, params)
            assert dq[0] == pytest.approx(eye[i], abs=1e-8)
            assert dp[0] == pytest.approx(zero, abs=1e-8)
            dq, dp = fd_gradient(lambda q, p, _pr: p[:, i], q, p, params)
            assert dq[0] == pytest.approx(zero, abs=1e-8)
            assert dp[0] == pytest.approx(eye[i], abs=1e-8)


def _numpy_q_chart(q, p, a2, b2, c2):
    """(H, dH/dq, dH/dp) of the three-constant form by broadcasting numpy
    over all (i, k) pairs, the diagonal's sinh set to inf: an independent
    oracle for the one-point kernel, which goes pair by pair in floats."""
    u = np.exp(-2.0 * q)
    radicand = 1.0 + (1.0 + b2) * u + b2 * u ** 2
    bracket = np.sqrt(radicand)
    d = q[:, None] - q[None, :]
    sh = np.sinh(d)
    sh.flat[::q.size + 1] = np.inf
    ratio = c2 / (4.0 * sh ** 2)
    fac = 1.0 - ratio
    prod = np.sqrt(fac).prod(axis=1)
    dlog = ratio * (np.cosh(d) / sh) / fac
    cw = np.cos(p) * bracket * prod
    dlog_bracket = u * (-1.0 - b2 - 2.0 * b2 * u) / radicand
    dh_dq = -2.0 * a2 * u - cw * (dlog_bracket + dlog.sum(axis=1)) + cw @ dlog
    return a2 * u.sum() - cw.sum(), dh_dq, np.sin(p) * bracket * prod


def kernel(n, abc, scale=1.0):
    """The generated q-chart kernel of n particles at the constants abc."""
    return hamiltonians._q_kernel(n)(*abc, scale)


def loop_and_generated(z, n, abc, scale):
    """(H, *field) of the loop kernel and of the generated one at the
    float list z, each an exception instead where it raises one."""
    out = []
    for call in (lambda: (lambda h, f: (h, *f))(*loop_q_chart(z, n, *abc, scale)),
                 lambda: kernel(n, abc, scale)(*z)):
        try:
            out.append(call())
        except Exception as exc:    # compared by class and message
            out.append(exc)
    return out


def assert_matches_the_loop(z, n, abc, scale):
    """The loop kernel and the generated one at z give the same error, class
    and message, or a finite result bit for bit.  Where the loop's result
    is not finite, the generated kernel's is not either, and an entry may
    differ only by being NaN: a pair past sinh's range adds cw_k * 0.0 to
    the cross sums, which the loop skips."""
    loop, generated = loop_and_generated(z, n, abc, scale)
    if isinstance(loop, Exception) or all(map(math.isfinite, loop)):
        assert repr(generated) == repr(loop)
        return
    assert not all(map(math.isfinite, generated))
    for a, b in zip(generated, loop):
        assert repr(a) == repr(b) or math.isnan(a)


class TestQChartKernel:
    @pytest.mark.parametrize("n", [*range(1, 9), 16])
    def test_matches_the_broadcasting_formula(self, n):
        # relative to the largest term, a2 sum e^{-2q}: H cancels it
        # against the cos(p) sum at low q
        rng = np.random.default_rng(90 + n)
        for alpha in (0.3, 0.6, 0.9):
            params = make_params(alpha, 1.2, 0.8, n)
            abc = abc_from_params(params)
            for q, p in zip(*random_admissible_points(rng, params, 10,
                                                      q_range=(-1.0 - n, 1.0 + n))):
                h, *field = kernel(n, abc)(*q, *p)
                dq, dp = [-v for v in field[n:]], field[:n]
                ref_h, ref_dq, ref_dp = _numpy_q_chart(q, p, *abc)
                scale = max(1.0, abc[0] * float(np.exp(-2.0 * q).sum()),
                            float(np.max(np.abs(ref_dq))), float(np.max(np.abs(ref_dp))))
                assert abs(h - ref_h) <= 1e-13 * scale
                assert np.max(np.abs(np.array(dq) - ref_dq)) <= 1e-13 * scale
                assert np.max(np.abs(np.array(dp) - ref_dp)) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_scale_multiplies_the_field_exactly(self, n):
        # the field is (scale dH/dp, -scale dH/dq); a power-of-two scale
        # rounds nothing, and H does not depend on it
        rng = np.random.default_rng(80 + n)
        params = make_params(0.6, 1.2, 0.8, n)
        (q,), (p,) = random_admissible_points(rng, params, 1, q_range=(-1.0 - n, 1.0 + n))
        z = q.tolist() + p.tolist()
        h, *field = kernel(n, abc_from_params(params))(*z)
        dq, dp = grad_hamiltonian(q, p, params)
        assert field == dp.tolist() + (-dq).tolist()
        for scale in (2.0, -0.5):
            h_s, *field_s = kernel(n, abc_from_params(params), scale)(*z)
            assert h_s == h
            assert field_s == [scale * v for v in field]

    def test_pair_past_the_sinh_range_has_its_limit(self):
        # sinh(800) overflows: the pair's factor is 1 and its log-derivative
        # 0, so each particle moves as it would alone (not NaN)
        params = make_params(0.5, 1, 1, 2)
        q, p = np.array([800.0, 0.0]), np.array([0.3, 0.2])
        dq, dp = grad_hamiltonian(q, p, params)
        alone = [grad_hamiltonian(q[i:i + 1], p[i:i + 1], params) for i in range(2)]
        assert dq.tolist() == [a[0][0] for a in alone]
        assert dp.tolist() == [a[1][0] for a in alone]
        abc = abc_from_params(params)
        assert hamiltonian_q(q, p, *abc) == pytest.approx(
            sum(hamiltonian_q(q[i:i + 1], p[i:i + 1], *abc) for i in range(2)), rel=1e-15)

    def test_overflowing_exponential_is_a_numerical_failure(self):
        # e^{-2q} overflows at q = -400: an error naming q, not NaN
        params = make_params(0.5, 1, 1, 2)
        q, p = np.array([0.0, -400.0]), np.array([0.3, 0.2])
        message = r"non-finite closed form at q = \[   0. -400.\]"
        with pytest.raises(NumericalFailure, match=message):
            grad_hamiltonian(q, p, params)
        with pytest.raises(NumericalFailure, match=message):
            hamiltonian_q(q, p, *abc_from_params(params))

    def test_infinite_p_is_invalid_input(self):
        # a caller's infinite p is refused at entry; in the kernel cos(inf)
        # is NaN, as in numpy, which fails the RK step's finite check
        params = make_params(0.5, 1, 1, 2)
        with pytest.raises(InvalidInput, match="^q and p must be finite$"):
            grad_hamiltonian(np.array([1.0, -1.0]), np.array([np.inf, 0.2]), params)
        out = kernel(2, abc_from_params(params))(1.0, -1.0, np.inf, 0.2)
        assert math.isnan(out[0]) and math.isnan(out[1])

    def test_q_and_p_of_different_lengths_are_invalid(self):
        params = make_params(0.5, 1, 1, 2)
        with pytest.raises(InvalidInput, match="^q and p must have one shape"):
            hamiltonian_q([1.0, -1.0], [0.1], *abc_from_params(params))
        with pytest.raises(InvalidInput, match="^q and p must have one shape"):
            grad_hamiltonian(np.array([1.0, -1.0]), np.zeros(3), params)


def _loop_report(params, q, p, max_order, h0=2.5e-4):
    """Bracket matrix, worst pair and max of `involution_report`, with one
    gradient (and so one assembly per stencil point) per order."""
    orders = range(1, max_order + 1)
    mat = np.zeros((max_order, max_order))
    for qi, pi in zip(q, p):
        grads = {nu: _loop_fd_gradient(lambda q, p, pr, nu=nu: _phi(q, p, pr, nu),
                                       qi, pi, params, h0) for nu in orders}
        for a in orders:
            for b in orders:
                if a >= b:
                    continue
                fq, fp = grads[a]
                hq, hp = grads[b]
                mat[a - 1, b - 1] = max(mat[a - 1, b - 1], abs(0.5 * (fq @ hp - fp @ hq)))
                mat[b - 1, a - 1] = mat[a - 1, b - 1]
    idx = np.unravel_index(np.argmax(mat), mat.shape)
    return mat, (int(idx[0]) + 1, int(idx[1]) + 1), float(mat[idx])


class TestInvolution:
    def test_report_structure_and_magnitude(self):
        rng = np.random.default_rng(57)
        params = make_params(0.5, 1.0, 1.0, 2)
        q, p = random_admissible_points(rng, params, 5, q_range=(-1.0, 1.0))
        rep = involution_report(params, q, p, max_order=3)
        assert rep.orders == (1, 2, 3)
        assert np.allclose(np.diagonal(rep.bracket_matrix), 0.0)
        assert np.allclose(rep.bracket_matrix, rep.bracket_matrix.T)
        assert rep.max_abs < 1e-5
        assert rep.extrapolation_order == 4

    @pytest.mark.parametrize("max_order", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 5, 6])
    def test_matches_per_order_loop(self, n, max_order):
        # n = 6: 48 stencil rows, two chunks of at most chunk_rows(12) = 28;
        # alpha 0.9 leaves room for six separated positions in the range
        rng = np.random.default_rng(59 + n)
        params = make_params(0.6 if n < 5 else 0.9, 1.2, 0.8, n)
        q, p = random_admissible_points(rng, params, 3, **BRACKET_DRAW)
        rep = involution_report(params, q, p, max_order=max_order)
        mat, worst, max_abs = _loop_report(params, q, p, max_order)
        assert rep.bracket_matrix.tolist() == mat.tolist()
        assert rep.worst_pair == worst
        assert rep.max_abs == max_abs

    @pytest.mark.parametrize("max_order", [3, 4])
    def test_point_chunks_match_the_loop(self, monkeypatch, max_order):
        # n = 3: chunk_rows(6) // 24 = 4 points per fd_gradient call
        sizes = []
        fd = hamiltonians.fd_gradient

        def spy(func, q, p, params, h0=None):
            sizes.append(len(q))
            return fd(func, q, p, params, h0)

        monkeypatch.setattr(hamiltonians, "fd_gradient", spy)
        rng = np.random.default_rng(62)
        params = make_params(0.6, 1.2, 0.8, 3)
        q, p = random_admissible_points(rng, params, 9, **BRACKET_DRAW)
        rep = involution_report(params, q, p, max_order=max_order)
        assert sizes == [4, 4, 1]
        mat, worst, max_abs = _loop_report(params, q, p, max_order)
        assert rep.bracket_matrix.tolist() == mat.tolist()
        assert rep.worst_pair == worst
        assert rep.max_abs == max_abs

    def test_stencil_runs_through_assemble_stack(self, monkeypatch):
        sizes = []
        stack = hamiltonians.assemble_stack

        def spy(q, p, params):
            sizes.append(len(q))
            return stack(q, p, params)

        def per_point(*args):
            raise AssertionError("a per-point evaluation")

        monkeypatch.setattr(hamiltonians, "assemble_stack", spy)
        monkeypatch.setattr(hamiltonians, "phi_trace", per_point)
        rng = np.random.default_rng(61)
        params = make_params(0.9, 1.2, 0.8, 6)
        q, p = random_admissible_points(rng, params, 2, **BRACKET_DRAW)
        involution_report(params, q, p, max_order=3)
        assert sizes == [28, 20, 28, 20]
        assert max(sizes) <= chunk_rows(12)

    @pytest.mark.parametrize("q", [
        [0.30005, 0.3, -0.5],       # the loop: SeparationViolation at row 0
        [0.5109, 0.0],
        [0.9, 0.5109, 0.0],
    ])
    def test_wall_points_raise_the_loop_error(self, q):
        # closer to the separation wall than the step: a stack of the
        # stencil fails at another row than the loop unless it is replayed
        params = make_params(0.6, 1.2, 0.8, len(q))
        q, p = np.array([q]), np.full((1, len(q)), 0.2)
        with pytest.raises(BCNError) as loop:
            _loop_report(params, q, p, 3)
        with pytest.raises(BCNError) as stacked:
            involution_report(params, q, p, 3)
        assert type(stacked.value) is type(loop.value)
        assert str(stacked.value) == str(loop.value)

    @pytest.mark.parametrize("wall", [[0.30005, 0.3, -0.5], [0.9, 0.5109, 0.0]])
    def test_wall_point_among_points_raises_the_loop_error(self, wall):
        # the 2nd of 3 points, in one chunk of points: the 1st point's
        # rows pass, and the wall point's first failing row raises
        params = make_params(0.6, 1.2, 0.8, 3)
        q, p = random_admissible_points(np.random.default_rng(63), params, 3,
                                        **BRACKET_DRAW)
        q[1] = wall
        with pytest.raises(BCNError) as loop:
            _loop_report(params, q, p, 3)
        with pytest.raises(BCNError) as stacked:
            involution_report(params, q, p, 3)
        assert type(stacked.value) is type(loop.value)
        assert str(stacked.value) == str(loop.value)

    @pytest.mark.parametrize("p_shape", [(1, 2), (2, 3), (2,)])
    def test_shapes_must_agree(self, p_shape):
        # a raw broadcasting ValueError before the one point rule
        params = make_params(0.5, 1, 1, 2)
        q, _ = random_admissible_points(np.random.default_rng(64), params, 2,
                                        **BRACKET_DRAW)
        with pytest.raises(InvalidInput, match="q and p must have one shape"):
            involution_report(params, q, np.zeros(p_shape), 3)
        with pytest.raises(InvalidInput, match="q and p must have one shape"):
            fd_gradient(lambda q, p, pr: q[:, 0], q, np.zeros(p_shape), params)

    def test_non_finite_point_is_invalid_input(self):
        params = make_params(0.5, 1, 1, 2)
        q, p = random_admissible_points(np.random.default_rng(65), params, 2,
                                        **BRACKET_DRAW)
        p[1, 0] = np.inf
        with pytest.raises(InvalidInput, match="^q and p must be finite$"):
            involution_report(params, q, p, 3)

    def test_a_point_is_one_row(self):
        params = make_params(0.5, 1, 1, 2)
        q, p = random_admissible_points(np.random.default_rng(66), params, 1,
                                        **BRACKET_DRAW)
        one = involution_report(params, q[0], p[0], 2)
        stack = involution_report(params, q, p, 2)
        assert np.array_equal(one.bracket_matrix, stack.bracket_matrix)

    def test_max_order_guard(self):
        params = make_params(0.5, 1, 1, 2)
        with pytest.raises(InvalidInput):
            involution_report(params, np.empty((0, 2)), np.empty((0, 2)), max_order=5)

    @pytest.mark.parametrize("max_order,count", [(0, 1), (-1, 1), (3, 0)])
    def test_needs_an_order_and_a_point(self, max_order, count):
        params = make_params(0.5, 1, 1, 2)
        q, p = random_admissible_points(np.random.default_rng(5), params, count)
        with pytest.raises(InvalidInput):
            involution_report(params, q, p, max_order=max_order)


class TestWeyl:
    def test_sign_flip(self):
        params = make_params(0.5, 1, 1, 2)
        s = np.exp(np.array([1.0, -0.2]))
        p = np.array([0.3, 1.1])
        v1 = hamiltonian_sigma(s, p, params)
        v2 = hamiltonian_sigma(s * np.array([-1.0, 1.0]), p, params)
        assert v1 == v2

    def test_pair_swap(self):
        params = make_params(0.5, 1, 1, 2)
        s = np.exp(np.array([1.0, -0.2]))
        p = np.array([0.3, 1.1])
        v1 = hamiltonian_sigma(s, p, params)
        v2 = hamiltonian_sigma(s[::-1], p[::-1], params)
        assert abs(v1 - v2) < 1e-13 * max(1.0, abs(v1))

    def test_full_orbit(self):
        rng = np.random.default_rng(58)
        params = make_params(0.5, 1.1, 0.9, 3)
        (q,), (p,) = random_admissible_points(rng, params, 1)
        rep = weyl_check(np.exp(q), p, params)
        assert rep.ok
        assert rep.orbit_size == 2 ** 3 * 6

    @pytest.mark.parametrize("sigma, p, name", [
        (np.exp([0.5, -0.5]), [np.inf, 0.2], "p"),
        (np.exp([0.5, -0.5]), [0.1, np.nan], "p"),
        ([np.nan, 0.6], [0.1, 0.2], "Sigma"),
        ([1.6, -np.inf], [0.1, 0.2], "Sigma"),
    ])
    def test_non_finite_input_is_named(self, sigma, p, name):
        with pytest.raises(InvalidInput, match=f"^{name} must be finite"):
            weyl_check(sigma, p, make_params(0.5, 1, 1, 2))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_orbit_stack_equals_the_double_loop(self, n):
        rng = np.random.default_rng(64 + n)
        for alpha in (0.3, 0.6, 0.9):
            params = make_params(alpha, 1.2, 0.8, n)
            for q, p in zip(*random_admissible_points(rng, params, 5)):
                sigma = np.exp(q)
                rep = weyl_check(sigma, p, params)
                # one hamiltonian_sigma call per signed permutation
                base = hamiltonian_sigma(sigma, p, params)
                scale = max(1.0, abs(base))
                worst, count = 0.0, 0
                for perm in itertools.permutations(range(n)):
                    sp, pp = sigma[list(perm)], p[list(perm)]
                    for signs in itertools.product((1.0, -1.0), repeat=n):
                        val = hamiltonian_sigma(np.array(signs) * sp, pp, params)
                        worst = max(worst, abs(val - base) / scale)
                        count += 1
                assert rep.max_deviation == worst
                assert rep.orbit_size == count
                assert rep.ok == (worst <= 1e-12)


class TestSpectralInvariants:
    def test_identity(self):
        vals = spectral_invariants(np.eye(4))
        assert np.allclose(vals, 1.0)

    @pytest.mark.parametrize("g", [np.eye(3), np.ones((4, 2)), np.ones((2, 4, 4)),
                                   np.full((4, 4), np.nan)],
                             ids=["odd", "non-square", "stack", "non-finite"])
    def test_bad_input_is_invalid_input(self, g):
        with pytest.raises(InvalidInput, match="^g "):
            spectral_invariants(g)

    def test_trace_power_identity(self):
        params = make_params(0.5, 1.0, 1.0, 2)
        (g,) = assemble_stack(*random_admissible_points(np.random.default_rng(59), params, 1),
                              params)[0].g
        vals = spectral_invariants(g)
        for nu in (1, 2, 3):
            lhs = -np.sum(vals ** nu).real / (2.0 * nu)
            assert lhs == pytest.approx(phi_trace(g, nu), abs=1e-10)


class TestGeneratedKernel:
    """The straight-line kernel against the loop kernel it replaces."""

    @pytest.mark.parametrize("n", [*range(1, 9), 12, 16])
    def test_equals_the_loop_kernel(self, n):
        rng = np.random.default_rng(400 + n)
        for alpha in (0.3, 0.6, 0.9):
            params = make_params(alpha, 1.2, 0.8, n)
            abc = abc_from_params(params)
            for z in np.hstack(random_admissible_points(rng, params, 8,
                                                        q_range=(-1.0 - n, 1.0 + n))).tolist():
                for scale in (1.0, 2.0, -0.5):
                    loop, generated = loop_and_generated(z, n, abc, scale)
                    assert all(map(math.isfinite, loop))
                    assert repr(generated) == repr(loop)

    @pytest.mark.parametrize("q, p", [
        ([-1.0, 1.0], [0.2, 0.1]),                  # unordered
        ([0.5, 0.5, -1.0], [0.0, 0.0, 0.0]),        # coinciding
        ([np.nan], [0.1]), ([1.0, np.nan], [0.1, 0.2]), ([np.nan, 1.0], [0.1, 0.2]),
        ([np.inf], [0.1]), ([-np.inf], [0.1]),
        ([np.inf, 0.0], [0.1, 0.2]), ([0.0, -np.inf], [0.1, 0.2]),
        ([800.0, 0.0], [0.3, 0.2]),                 # a gap past sinh's range
        ([1000.0, 0.5, 0.0], [0.3, 0.2, 0.1]),      # past the range, then the wall
        ([720.0, 3.0, 0.0], [0.3, 0.2, 0.1]),
        ([1e-160, 0.0], [0.0, 0.0]),                # sinh^2 is subnormal: ratio inf
        ([1e-170, 0.0], [0.0, 0.0]),                # sinh^2 underflows to 0
        ([0.1, 0.0], [0.0, 0.0]),                   # past the wall
        ([0.0, -360.0], [0.1, 0.2]), ([-356.0], [0.1]),     # e^{-2q} overflows
        ([400.0, -400.0], [0.1, 0.2]),              # both
        ([720.0, 3.0, -360.0], [0.3, 0.2, 0.1]),
        ([1.0, -1.0], [np.inf, 0.2]), ([1.0, -1.0], [0.2, -np.inf]), ([0.4], [np.inf]),
        ([1.0, -1.0], [np.nan, 0.2]),
        # two or three fallbacks in one call
        ([800.0, 0.0], [np.inf, 0.2]),              # sinh's range and p
        ([0.0, -360.0], [0.1, -np.inf]),            # e^{-2q} and p
        ([400.0, -400.0], [np.inf, 0.2]),           # all three
        ([720.0, 3.0, -360.0], [0.3, -np.inf, 0.1]),
        ([1e-170, 0.0, -360.0], [0.1, 0.2, 0.3]),   # underflow and e^{-2q}
        ([800.0, 1e-170, 0.0, -360.0], [np.inf, 0.0, 0.0, 0.0]),
    ])
    def test_edges_match_the_loop_kernel(self, q, p):
        n = len(q)
        abc = abc_from_params(make_params(0.5, 1.0, 1.0, n))
        for scale in (1.0, 2.0):
            assert_matches_the_loop([*q, *p], n, abc, scale)

    @pytest.mark.parametrize("n", [*range(1, 9), 12, 16])
    def test_fallbacks_match_the_loop_kernel(self, n):
        # a drawn point moved past sinh's range (q_1 + 800), past exp's range
        # (q_n - 400), to p_1 = inf and to a gap of 1e-170 at the wall, one
        # at a time and together (all four from n = 4, where each moves its
        # own particle)
        params = make_params(0.6, 1.2, 0.8, n)
        abc = abc_from_params(params)
        (q,), (p,) = random_admissible_points(np.random.default_rng(500 + n), params, 1,
                                              q_range=(-1.0 - n, 1.0 + n))
        k = min(2, n - 1)               # q_k moves to 0 and q_{k-1} to 1e-170
        q = q - q[k]
        far, low, wall, inf = q.copy(), q.copy(), q.copy(), p.copy()
        far[0] += 800.0
        low[-1] -= 400.0
        if k:
            wall[k - 1] = 1e-170
        inf[0] = np.inf
        every = wall.copy()
        every[0] += 800.0
        every[-1] -= 400.0
        for qs, ps in [(far, p), (low, p), (q, inf), (wall, p), (every, inf)]:
            for scale in (1.0, -0.5):
                assert_matches_the_loop(qs.tolist() + ps.tolist(), n, abc, scale)

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_gaps_at_the_wall_match_the_loop_kernel(self, n):
        # the generated kernel tests the adjacent radicands only, the loop
        # kernel every pair: starts whose adjacent gaps sit 1-4 ulp (of the
        # positions, which are on one grid, so each gap is exact) above or
        # below the bound separation_gap(c2), all above, one below or mixed
        rng = np.random.default_rng(600 + n)
        outcomes = set()
        for alpha in (0.3, 0.6, 0.9):
            abc = abc_from_params(make_params(alpha, 1.2, 0.8, n))
            wall = separation_gap(abc[2])
            ulp = math.ulp((n - 1) * wall)      # the grid: no |q_i| is larger
            for signs in ([1] * (n - 1), [1] * (n - 2) + [-1], rng.choice([-1, 1], n - 1)):
                steps = round(wall / ulp) + np.array(signs) * rng.integers(1, 5, n - 1)
                q = ulp * (np.concatenate([np.cumsum(steps[::-1])[::-1], [0]]) - steps.sum() // 2)
                assert (q[:-1] - q[1:] == ulp * steps).all()
                z = q.tolist() + rng.uniform(-np.pi, np.pi, n).tolist()
                for scale in (1.0, 2.0):
                    assert_matches_the_loop(z, n, abc, scale)
                outcomes.add(isinstance(loop_and_generated(z, n, abc, 1.0)[0], Exception))
        assert outcomes == {True, False}

    @pytest.mark.parametrize("q, p", [
        ([400.0, -400.0], [0.1, 0.2]), ([720.0, 3.0, -360.0], [0.3, 0.2, 0.1]),
    ])
    def test_where_the_results_differ_the_public_errors_agree(self, q, p):
        abc = abc_from_params(make_params(0.5, 1.0, 1.0, len(q)))
        loop, generated = loop_and_generated([*q, *p], len(q), abc, 1.0)
        assert repr(loop) != repr(generated)
        with pytest.raises(NumericalFailure, match="^non-finite closed form at q = "):
            hamiltonian_q(q, p, *abc)

    def test_a_traceback_shows_the_generated_line(self):
        abc = abc_from_params(make_params(0.5, 1.0, 1.0, 2))
        with pytest.raises(SeparationViolation) as info:
            hamiltonian_q([0.1, 0.0], [0.0, 0.0], *abc)
        text = "".join(traceback.format_exception(info.value))
        assert 'File "<q-chart n=2>"' in text
        assert 'raise SeparationViolation("non-positive interaction radicand")' in text

    def test_compiled_once_per_n_at_first_use(self):
        assert hamiltonians._q_kernel(3) is hamiltonians._q_kernel(3)
        # importing the package compiles no kernel
        code = ("import bcn_ruijsenaars.dynamics as d, bcn_ruijsenaars.hamiltonians as h; "
                "print(h._q_kernel.cache_info().currsize, d._rk_step.cache_info().currsize)")
        src = str(Path(hamiltonians.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split() == ["0", "0"]

    def test_source_is_built_from_an_int(self):
        with pytest.raises(TypeError):
            hamiltonians._chart_source("2")
        # no kernel of zero particles: the public calls refuse empty input
        with pytest.raises(InvalidInput, match=r"^q and p must have one shape, .* n >= 1"):
            hamiltonian_q([], [], 1.0, 1.0, 2.25)
