"""Reproducible random draws of admissible phase-space points.

Positions are sorted uniforms on [-2, 2], stretched about their midpoint
until the separation condition holds with a small safety factor: every
adjacent pair clears `model.separation_gap` of the scaled threshold,
q_i > q_{i+1} + asinh(sqrt(margin_factor c^2) / 2), compared without a
sinh; momenta are uniform on (-pi, pi].  A caller-supplied generator
drives every draw, so a fixed seed fixes the sample.  One call draws a
whole sample from one stream of candidates, tested in blocks of growing
size; it equals as many draws of one candidate at a time, in the points
and in the generator state it leaves.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .matops import CHUNK_ENTRIES
from .model import ModelParams, ReducedPoint, separation_gap

__all__ = ["MAX_REDRAW", "random_admissible_point", "random_admissible_points"]

#: consecutive rejected candidates after which a draw gives up
MAX_REDRAW = 2000


def random_admissible_points(rng: np.random.Generator, params: ModelParams, count: int,
                             q_range=(-2.0, 2.0), margin_factor: float = 1.05,
                             max_stretch: int = 4):
    """(q, p), each (count, n): the first `count` admissible candidates,
    each at its first passing stretch; adjacent pairs must clear
    `margin_factor` >= 1 times the threshold.  Stretching is capped
    (re-drawing instead) so that positions stay within a few units of the
    requested range; this keeps downstream linear algebra well conditioned.
    """
    if count < 0:
        raise InvalidInput(f"the sample size must be non-negative, got {count}")
    if margin_factor < 1.0:
        raise InvalidInput("margin_factor must be at least 1")
    if max_stretch < 0:
        raise InvalidInput("max_stretch must be non-negative")
    n = params.n
    c2 = margin_factor * params.coupling_sq
    gap = separation_gap(c2)
    lo, hi = q_range
    qs, ps = [np.empty((0, n))], [np.empty((0, n))]
    # blocks of 1, 4, 16, ... rows of at most CHUNK_ENTRIES draws; no block runs
    # past MAX_REDRAW misses (rejections in a row), so only a block of misses gives up
    need, misses, k = count, 0, 1
    while need:
        k = min(k, max(1, CHUNK_ENTRIES // (2 * n)), MAX_REDRAW - misses)
        state = rng.bit_generator.state if k > 1 else None
        u = rng.random((k, 2 * n))
        levels = [np.sort(lo + (hi - lo) * u[:, :n], axis=1)[:, ::-1]]
        for _ in range(max_stretch):
            mean = levels[-1].sum(axis=1, keepdims=True) / n
            levels.append(mean + 1.25 * (levels[-1] - mean))
        stretched = np.stack(levels)
        # (stretches + 1, k): every adjacent pair clears the gap
        passed = (stretched[..., :-1] > stretched[..., 1:] + gap).all(axis=-1)
        rows = np.flatnonzero(passed.any(axis=0))[:need]
        qs.append(stretched[passed[:, rows].argmax(axis=0), rows])
        ps.append(np.pi - 2.0 * np.pi * u[rows, n:])
        need -= rows.size
        misses = k - 1 - rows[-1] if rows.size else misses + k
        if misses == MAX_REDRAW:
            raise NumericalFailure(f"sampling: {MAX_REDRAW} candidates in a row at n = {n}, "
                                   f"alpha = {params.alpha:g} miss the separation margin "
                                   f"4 sinh^2(q_i - q_i+1) > {c2:g}")
        if not need and misses:     # leave the generator just past the last point
            rng.bit_generator.state = state
            rng.random((rows[-1] + 1) * 2 * n)
        k *= 4
    return np.concatenate(qs), np.concatenate(ps)


def random_admissible_point(rng: np.random.Generator, params: ModelParams,
                            q_range=(-2.0, 2.0), margin_factor: float = 1.05,
                            max_stretch: int = 4) -> ReducedPoint:
    """One point: the B = 1 case of `random_admissible_points`."""
    q, p = random_admissible_points(rng, params, 1, q_range, margin_factor, max_stretch)
    return ReducedPoint(q[0], p[0])
