import dataclasses
import math

import numpy as np
import pytest

from bcn_ruijsenaars import hamiltonians, model
from bcn_ruijsenaars.errors import (
    BCNError,
    ChamberViolation,
    InvalidInput,
    NumericalFailure,
    SeparationViolation,
)
from bcn_ruijsenaars.hamiltonians import hamiltonian_q
from bcn_ruijsenaars.model import (
    ReducedPoint,
    abc_from_params,
    cartan_from_q,
    make_params,
    require_point,
    require_points,
    separation_gap,
    separation_margin,
    wrap_angle,
)
from bcn_ruijsenaars.reconstruction import assemble_stack


class TestMakeParams:
    def test_vhat_norm_n1(self):
        assert make_params(0.5, 1, 1, 1).vhat_norm_sq == pytest.approx(0.75)

    def test_alpha_normalized_below_one(self):
        p = make_params(2.0, 1, 1, 1)
        assert p.alpha == pytest.approx(0.5)

    def test_vhat_norm_n2(self):
        assert make_params(0.5, 1, 1, 2).vhat_norm_sq == pytest.approx(3.75)

    def test_vhat_norm_follows_a_replaced_n(self):
        params = dataclasses.replace(make_params(0.6, 1.2, 0.8, 2), n=3)
        assert params.vhat_norm_sq == make_params(0.6, 1.2, 0.8, 3).vhat_norm_sq
        assemble_stack([1.0, -0.5, -2.0], [0.1, 0.2, 0.3], params)

    @pytest.mark.parametrize("bad", [
        dict(alpha=0.0), dict(alpha=1.0), dict(alpha=-0.5),
        dict(x=0.0), dict(x=-1.0), dict(y=0.0), dict(n=0),
    ])
    def test_invalid_input(self, bad):
        kw = dict(alpha=0.5, x=1.0, y=1.0, n=2)
        kw.update(bad)
        with pytest.raises(InvalidInput):
            make_params(**kw)

    @pytest.mark.parametrize("bad,message", [
        (dict(alpha=math.inf), "alpha must be finite, got inf"),
        (dict(alpha=math.nan), "alpha must be finite, got nan"),
        (dict(x=math.inf), "x must be finite, got inf"),
        (dict(y=-math.inf), "y must be finite, got -inf"),
        (dict(alpha=1e-200), "alpha = 1e-200, x = 1, y = 1 give c^2 = inf"),
        (dict(alpha=1e200), "alpha = 1e+200, x = 1, y = 1 give c^2 = inf"),
        (dict(x=1e200), "x = 1e+200, y = 1 give b^2 = 0"),
        (dict(x=1e-200), "x = 1e-200, y = 1 give a^2 = inf"),
        (dict(y=1e200), "y = 1e+200 give a^2 = inf"),
        (dict(y=1e-200), "y = 1e-200 give b^2 = 0"),
        (dict(alpha=0.01, n=200), "give |vhat|^2 = inf"),
    ])
    def test_non_finite_or_overflowing_parameters(self, bad, message):
        # the constants a^2, b^2, c^2 and |vhat|^2 must come out positive
        # and finite; the message names the value as given, before alpha
        # is normalized
        kw = dict(alpha=0.5, x=1.0, y=1.0, n=2)
        kw.update(bad)
        with pytest.raises(InvalidInput) as exc:
            make_params(**kw)
        assert message in str(exc.value)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_determinant_identity(self, alpha, n):
        # det(alpha^2 I + vhat vhat^dag) = 1 whenever |vhat|^2 takes the
        # derived value; rank-one update makes this a closed-form check
        p = make_params(alpha, 1.0, 1.0, n)
        vhat = np.zeros(n)
        vhat[0] = math.sqrt(p.vhat_norm_sq)
        det = np.linalg.det(alpha ** 2 * np.eye(n) + np.outer(vhat, vhat))
        assert abs(det - 1.0) < 1e-12


class TestCartan:
    def test_scalar_values(self):
        c = cartan_from_q([0.0], make_params(0.5, 1, 1, 1))
        assert c.Sigma[0] == pytest.approx(1.0)
        assert c.Gamma[0] == pytest.approx(math.sqrt(2.0))
        assert c.Delta[0] == pytest.approx(math.asinh(1.0))

    def test_lambda_values(self):
        c = cartan_from_q([1.0, 0.0], make_params(0.5, 1, 1, 2))
        assert c.Lambda == pytest.approx([math.sqrt(1 + math.e ** 2), math.sqrt(2.0)])

    def test_unordered_raises(self):
        with pytest.raises(ChamberViolation):
            cartan_from_q([0.0, 1.0], make_params(0.5, 1, 1, 2))

    def test_q_roundtrip_exact(self):
        q = np.array([1.3, 0.4, -0.9])
        c = cartan_from_q(q, make_params(0.5, 1, 1, 3))
        assert np.max(np.abs(np.log(c.Sigma) - q)) < 1e-15
        assert np.allclose(c.Gamma ** 2 - c.Sigma ** 2, 1.0)


def pairwise_margins(q, c2):
    """4 sinh^2(q_i - q_k) - c2 for every pair i < k: the reference that
    `separation_margin`, which looks at adjacent pairs only, must match."""
    iu = np.triu_indices(q.size, k=1)
    return 4.0 * np.sinh((q[:, None] - q[None, :])[iu]) ** 2 - c2


class TestSeparation:
    def test_single_particle_always_ok(self):
        c2 = make_params(0.5, 1, 1, 1).coupling_sq
        assert separation_margin(np.array([0.3]), c2) == math.inf

    def test_wide_pair_ok(self):
        c2 = make_params(0.5, 1, 1, 2).coupling_sq
        margin = separation_margin(np.array([1.0, 0.0]), c2)
        assert margin > 0.0
        assert margin == pytest.approx(4 * math.sinh(1.0) ** 2 - 2.25)

    def test_close_pair_fails(self):
        c2 = make_params(0.5, 1, 1, 2).coupling_sq
        assert separation_margin(np.array([0.1, 0.0]), c2) < 0.0


class TestSeparationKernels:
    def test_coupling_sq(self):
        params = make_params(0.5, 1, 1, 2)
        assert params.coupling_sq == 2.25
        assert abc_from_params(params)[2] == params.coupling_sq

    def test_margin_agrees_with_check_separation(self):
        # ordered points on both sides of the wall, n = 2..6
        rng = np.random.default_rng(71)
        params = make_params(0.6, 1.2, 0.8, 2)
        seen = set()
        for _ in range(200):
            n = int(rng.integers(2, 7))
            q = rng.uniform(-1.0, 1.0) - np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.2, 1.2, size=n - 1))])
            ref = pairwise_margins(q, params.coupling_sq)
            margin = separation_margin(q, params.coupling_sq)
            assert margin == pytest.approx(ref.min(), rel=1e-14, abs=1e-14)
            ok = bool(np.all(ref > 0.0))
            assert (margin > 0.0) == ok
            seen.add(ok)
        assert seen == {True, False}

    def test_margin_single_particle_and_unordered(self):
        assert separation_margin(np.array([0.3]), 2.25) == math.inf
        assert separation_margin(np.array([1.0, 2.0]), 2.25) < 0.0
        assert separation_margin(np.array([3.0, 1.0, 2.0]), 0.01) < 0.0
        assert separation_margin(np.array([1.0, 1.0]), 0.01) < 0.0

    def test_margin_of_a_stack_is_per_row(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 9):
            q = np.sort(rng.uniform(-2.0, 2.0, size=(6, n)), axis=1)[:, ::-1]
            rows = separation_margin(q, 2.25)
            assert rows.shape == (6,)
            assert rows.tolist() == [separation_margin(row, 2.25) for row in q]

    def test_gap_agrees_with_the_margin(self):
        # d > separation_gap(c2) against the sinh form 4 sinh^2(d) - c2 > 0,
        # at the bound +- 40 ulp and at random gaps: they may differ only
        # within 1 ulp of the bound
        rng = np.random.default_rng(3)
        for alpha in rng.uniform(0.01, 0.999, size=100):
            c2 = make_params(alpha, 1, 1, 2).coupling_sq
            bound = separation_gap(c2)
            below, above = [bound], [bound]
            for _ in range(40):
                below.append(math.nextafter(below[-1], -math.inf))
                above.append(math.nextafter(above[-1], math.inf))
            gaps = np.array(below[:1:-1] + above[2:]
                            + rng.uniform(0.0, 3.0 * bound, size=10).tolist())
            margin = separation_margin(np.column_stack([gaps, np.zeros(gaps.size)]), c2)
            assert ((gaps > bound) == (margin > 0.0)).all()
            assert abs(separation_margin(np.array([bound, 0.0]), c2)) < 1e-13 * c2

    def test_gap_is_ln_one_over_alpha(self):
        # equal in exact arithmetic; in floats c2 inherits the cancellation
        # in alpha - 1/alpha, so the difference grows as alpha -> 1
        rng = np.random.default_rng(4)
        for alpha in rng.uniform(0.01, 0.999, size=2000):
            params = make_params(alpha, 1, 1, 2)
            gap, ln = separation_gap(params.coupling_sq), -math.log(params.alpha)
            assert abs(gap - ln) <= 2.0 * 2.0 ** -52 * ln / (1.0 - params.alpha)
            if params.alpha < 0.9:
                assert abs(gap - ln) <= 8 * math.ulp(ln)
        assert separation_gap(2.25) == math.log(2.0)    # alpha = 0.5
        assert separation_gap(0.0) == 0.0

    # the pair factors 1 - c2 / (4 sinh^2(q_i - q_k)) are built by the
    # q-chart kernel of hamiltonians; its chart errors are checked here
    def test_pair_factors_errors(self):
        with pytest.raises(ChamberViolation, match="strictly decreasing"):
            hamiltonian_q(np.array([0.0, 1.0]), np.zeros(2), 1.0, 1.0, 2.25)
        with pytest.raises(SeparationViolation, match="non-positive interaction radicand"):
            hamiltonian_q(np.array([0.1, 0.0]), np.zeros(2), 1.0, 1.0, 2.25)

    def test_pair_factors_non_finite(self):
        # unordered only because a stage overflowed: in the kernel, a
        # numerical failure; a caller's non-finite q is invalid input
        with pytest.raises(NumericalFailure, match="non-finite"):
            hamiltonians._q_kernel(2)(1.0, 1.0, 2.25, 1.0)(0.3, np.inf, 0.0, 0.0)
        with pytest.raises(InvalidInput, match="^q and p must be finite$"):
            hamiltonian_q(np.array([0.3, np.inf]), np.zeros(2), 1.0, 1.0, 2.25)


class TestAbc:
    def test_reference_values(self):
        a2, b2, c2 = abc_from_params(make_params(0.5, 1.0, 1.0, 1))
        assert (a2, b2, c2) == pytest.approx((1.0, 1.0, 2.25))

    def test_x_equals_y_gives_unit_b2(self):
        _, b2, _ = abc_from_params(make_params(0.7, 1.4, 1.4, 2))
        assert b2 == pytest.approx(1.0)

    def test_both_branches_share_abc(self):
        # (x, y) and (1/y, 1/x) map to the same constants
        p1 = make_params(0.5, 1.0, 2.0, 2)
        p2 = make_params(0.5, 0.5, 1.0, 2)
        assert abc_from_params(p1) == pytest.approx(abc_from_params(p2))


class TestReducedPoint:
    def test_ordering_enforced(self):
        with pytest.raises(ChamberViolation):
            ReducedPoint(np.array([0.0, 1.0]), np.zeros(2))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            ReducedPoint(np.array([1.0, 0.0]), np.zeros(3))

    def test_rows_checked_as_points(self):
        # the first failing row raises what ReducedPoint raises for it
        q = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        p = np.array([[0.0, 0.0], [0.0, 0.0], [np.nan, 0.0]])
        require_points(q[:1], p[:1])
        with pytest.raises(ChamberViolation, match="strictly decreasing"):
            require_points(q, p)
        with pytest.raises(InvalidInput, match="must be finite"):
            require_points(q[::2], p[::2])

    def test_one_point_only(self):
        with pytest.raises(InvalidInput, match=r"^q and p must be one point \(n,\), got shape"):
            ReducedPoint(np.array([[1.0, 0.0]]), np.zeros((1, 2)))

    def test_checks_through_require_points(self, monkeypatch):
        seen = []

        def spy(q, p, n=None):
            seen.append((q, p))
            return require_points(q, p, n)

        monkeypatch.setattr(model, "require_points", spy)
        point = ReducedPoint([1, 0], [0.5, 0.25])
        assert len(seen) == 1
        assert point.q.dtype == point.p.dtype == float
        assert point.q.tolist() == [1.0, 0.0] and point.p.tolist() == [0.5, 0.25]

    def test_wrap_angle_range(self):
        x = np.array([0.0, np.pi, -np.pi, 3 * np.pi, -2.5 * np.pi, 7.0])
        w = wrap_angle(x)
        assert np.all(w > -np.pi) and np.all(w <= np.pi)
        assert np.allclose(np.exp(1j * w), np.exp(1j * x), atol=1e-12)


def _ordered(shape):
    """Strictly decreasing positions of the given shape."""
    return np.zeros(shape) - np.arange(shape[-1])


class TestRequirePoints:
    @pytest.mark.parametrize("q_shape,p_shape", [
        ((1, 2), (1, 3)),       # rows of different lengths
        ((2, 2), (1, 2)),       # 2 rows against 1
        ((2,), (1, 2)),         # a point against a stack of one
        ((1, 1, 2), (1, 1, 2)),
    ])
    def test_shapes_must_agree(self, q_shape, p_shape):
        with pytest.raises(InvalidInput, match="q and p must have one shape"):
            require_points(_ordered(q_shape), np.zeros(p_shape))

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (0, 3)])
    def test_returns_float_arrays(self, shape):
        q, p = require_points(_ordered(shape).astype(int), np.zeros(shape, dtype=int))
        assert q.dtype == p.dtype == float
        assert q.shape == p.shape == shape
        assert np.array_equal(q, _ordered(shape))

    def test_a_scalar_is_one_particle(self):
        q, p = require_points(0.5, 0.25)
        assert q.tolist() == [0.5] and p.tolist() == [0.25]

    @pytest.mark.parametrize("q_row,p_row", [
        ([0.0, 1.0], [0.0, 0.0]),
        ([1.0, 1.0], [0.0, 0.0]),
        ([1.0, np.nan], [0.0, 0.0]),
        ([1.0, 0.0], [np.inf, 0.0]),
        ([np.inf, np.inf], [0.0, 0.0]),
        ([np.nan, 1.0], [0.0, 0.0]),
    ])
    def test_a_failing_row_raises_what_the_point_raises(self, q_row, p_row):
        # between two good rows, with warnings as errors (the test
        # configuration): an infinite row must not reach a subtraction
        q = np.array([[1.0, 0.0], q_row, [2.0, 1.0]])
        p = np.array([[0.0, 0.0], p_row, [0.0, 0.0]])
        with pytest.raises(BCNError) as point:
            require_point(q[1], p[1])
        with pytest.raises(BCNError) as stack:
            require_points(q, p)
        assert type(stack.value) is type(point.value)
        assert str(stack.value) == str(point.value)

    def test_builds_no_reduced_point(self, monkeypatch):
        def refuse(self):
            raise AssertionError("ReducedPoint built")

        monkeypatch.setattr(ReducedPoint, "__post_init__", refuse)
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ChamberViolation, match=r"got \[0. 1.\]"):
            require_points(q, np.zeros_like(q))
        with pytest.raises(InvalidInput, match="must be finite"):
            require_points(q[:1], np.full((1, 2), np.nan))
