from functools import partial

import numpy as np
import pytest

import bcn_ruijsenaars.sampling as sampling
from bcn_ruijsenaars.errors import InvalidInput, NumericalFailure
from bcn_ruijsenaars.hamiltonians import BRACKET_DRAW
from bcn_ruijsenaars.model import make_params, separation_margin
from bcn_ruijsenaars.sampling import random_admissible_points

# draws at alpha 0.6, x 1.2, y 0.8 with the default arguments, and one with
# those of `bcn involution` (its 18th candidate passes, without a stretch);
# a change here changes every seeded `bcn` run that samples its points
FIXED_DRAWS = [
    (2, 3, {}, [-1.0527579736156012, -1.6574033314255026],
     [-1.8929632932132208, -0.5162392978075951]),
    (2, 11, {}, [-0.0028885502395401552, -1.4857191889232015],
     [-0.6377329893219388, 2.961334297709639]),
    (8, 5, {}, [2.995600531913001, 2.400166097505043, 1.526732858756164,
                0.5290081290541191, -0.18707886590996609, -1.1006668867108784,
                -1.6244776391713356, -2.8483695133435805],
     [-0.9008341852897788, 1.6741915691703337, -2.07235953252931,
      -0.2962087915229592, -2.6950870010081847, -2.0120384909730706,
      2.5098053417757757, 1.6504488748615596]),
    (3, 2, BRACKET_DRAW, [0.7783027191603977, 0.21532258533175797, -0.4076780494753387],
     [-2.9020145351778037, 2.768152380348735, 1.8280316978721376]),
]


@pytest.mark.parametrize("n,seed,draw,q,p", FIXED_DRAWS, ids=[
    f"{n}-{seed}-q{i}-p{i}" for i, (n, seed, *_) in enumerate(FIXED_DRAWS)])
def test_fixed_seed_draws(n, seed, draw, q, p):
    params = make_params(0.6, 1.2, 0.8, n)
    (got_q,), (got_p,) = random_admissible_points(np.random.default_rng(seed), params, 1, **draw)
    assert got_q.tolist() == q
    assert got_p.tolist() == p
    assert separation_margin(got_q, params.coupling_sq) > 0.0


def test_margin_factor_below_one_rejected():
    with pytest.raises(InvalidInput):
        random_admissible_points(np.random.default_rng(0), make_params(0.6, 1.2, 0.8, 2), 1,
                                 margin_factor=0.9)


def test_negative_max_stretch_rejected():
    # every candidate gets its unstretched test, so a negative count has no meaning
    with pytest.raises(InvalidInput):
        random_admissible_points(np.random.default_rng(0), make_params(0.6, 1.2, 0.8, 2), 1,
                                 max_stretch=-1)


def _loop_sampler(rng, params, q_range=(-2.0, 2.0), margin_factor=1.05,
                  max_stretch=4, max_redraw=2000):
    """The one-candidate-at-a-time sampler the blocked one must reproduce."""
    n = params.n
    c2 = margin_factor * params.coupling_sq
    for _ in range(max_redraw):
        q = np.sort(rng.uniform(q_range[0], q_range[1], size=n))[::-1]
        p = np.pi - rng.uniform(0.0, 2.0 * np.pi, size=n)
        for _ in range(max_stretch + 1):
            s = np.sinh(q[:-1] - q[1:])
            if n < 2 or float(np.min(4.0 * s * np.abs(s))) - c2 > 0.0:
                return q.copy(), p
            q = np.mean(q) + 1.25 * (q - np.mean(q))
    raise NumericalFailure("could not draw an admissible point; widen q_range")


GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]
SAMPLER_ARGS = {
    "default": {},
    "involution": BRACKET_DRAW,
    "non_dyadic": {"q_range": (-1.7, 2.3)},
}


def _same_state(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], dict):
            _same_state(a[key], b[key])
        else:
            assert np.array_equal(a[key], b[key]), key


def _outcome(sampler, rng, params, kwargs):
    """(q, p) bytes of a draw, or None when the sampler gives up."""
    try:
        q, p = sampler(rng, params, **kwargs)
    except NumericalFailure:
        return None
    return q.tobytes(), p.tobytes()


@pytest.mark.parametrize("args", sorted(SAMPLER_ARGS))
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("bitgen", GENERATORS, ids=lambda g: g.__name__)
def test_blocked_draws_equal_loop(bitgen, n, args):
    """Points and generator state after each of a run of draws; with the
    involution arguments at n = 5, 8 every draw gives up, after the same
    number of candidates."""
    params = make_params(0.6, 1.2, 0.8, n)
    kwargs = SAMPLER_ARGS[args]
    ours, ref = np.random.Generator(bitgen(17)), np.random.Generator(bitgen(17))
    for _ in range(6):
        got = _outcome(partial(random_admissible_points, count=1), ours, params, kwargs)
        assert got == _outcome(_loop_sampler, ref, params, kwargs)
        _same_state(ours.bit_generator.state, ref.bit_generator.state)
        if got is None:
            break


@pytest.mark.parametrize("bitgen", GENERATORS, ids=lambda g: g.__name__)
def test_exhaustion_consumes_the_loops_draws(monkeypatch, bitgen):
    params = make_params(0.6, 1.2, 0.8, 8)
    monkeypatch.setattr(sampling, "MAX_REDRAW", 7)
    ours, ref = np.random.Generator(bitgen(3)), np.random.Generator(bitgen(3))
    with pytest.raises(NumericalFailure):
        random_admissible_points(ours, params, 1, max_stretch=2)
    with pytest.raises(NumericalFailure):
        _loop_sampler(ref, params, max_stretch=2, max_redraw=7)
    _same_state(ours.bit_generator.state, ref.bit_generator.state)


def _loop_sample(rng, params, count, max_redraw, kwargs):
    """(q, p) bytes of `count` loop draws stacked, and the number of
    points drawn before a give-up (None when every draw succeeds)."""
    points = []
    for _ in range(count):
        try:
            points.append(_loop_sampler(rng, params, max_redraw=max_redraw, **kwargs))
        except NumericalFailure:
            return None, len(points)
    q, p = (np.array([pt[i] for pt in points]).reshape(count, params.n) for i in (0, 1))
    return (q.tobytes(), p.tobytes()), None


@pytest.mark.parametrize("max_redraw", [2000, 7, 1])
@pytest.mark.parametrize("count", [1, 3, 17])
@pytest.mark.parametrize("args", sorted(SAMPLER_ARGS))
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("bitgen", GENERATORS, ids=lambda g: g.__name__)
def test_batch_equals_loop_draws(monkeypatch, bitgen, n, args, count, max_redraw):
    """One call for `count` points gives the points, or the give-up, and
    the generator state of `count` draws of the loop."""
    monkeypatch.setattr(sampling, "MAX_REDRAW", max_redraw)
    params = make_params(0.6, 1.2, 0.8, n)
    kwargs = SAMPLER_ARGS[args]
    ours, ref = np.random.Generator(bitgen(29)), np.random.Generator(bitgen(29))
    expected, _ = _loop_sample(ref, params, count, max_redraw, kwargs)
    try:
        got = tuple(a.tobytes() for a in random_admissible_points(ours, params, count, **kwargs))
    except NumericalFailure:
        got = None
    assert got == expected
    _same_state(ours.bit_generator.state, ref.bit_generator.state)


@pytest.mark.parametrize("bitgen", GENERATORS, ids=lambda g: g.__name__)
def test_give_up_on_a_later_point_of_the_batch(monkeypatch, bitgen):
    # one candidate per point at n = 3: the loop draws some points, then gives up
    monkeypatch.setattr(sampling, "MAX_REDRAW", 1)
    params = make_params(0.6, 1.2, 0.8, 3)
    ours, ref = np.random.Generator(bitgen(3)), np.random.Generator(bitgen(3))
    expected, drawn = _loop_sample(ref, params, 17, 1, {})
    assert expected is None and drawn > 0
    with pytest.raises(NumericalFailure, match="1 candidates in a row at n = 3"):
        random_admissible_points(ours, params, 17)
    _same_state(ours.bit_generator.state, ref.bit_generator.state)


def test_empty_and_negative_samples():
    params = make_params(0.6, 1.2, 0.8, 3)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    q, p = random_admissible_points(rng, params, 0)
    assert q.shape == p.shape == (0, 3)
    assert rng.bit_generator.state == state
    with pytest.raises(InvalidInput):
        random_admissible_points(rng, params, -3)
