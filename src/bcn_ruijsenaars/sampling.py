"""Reproducible random draws of admissible phase-space points.

Positions are sorted uniforms on [-2, 2], stretched about their midpoint
until the pairwise separation inequality holds with a small safety
factor; momenta are uniform on (-pi, pi].  All draws are driven by a
caller-supplied generator, so a fixed seed fixes the sample.

Candidates are drawn and tested in blocks of growing size, all rows and
stretches at once.  The first admissible row wins, and the generator is
then rewound to just past it, so the point returned and the generator
state left behind equal those of drawing and testing one candidate at a
time.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .model import ModelParams, ReducedPoint, separation_margin

__all__ = ["random_admissible_point"]

#: each block holds this many times the candidates of the one before; the
#: first holds one, so a point that passes at once costs one draw
_BLOCK_GROWTH = 4


def random_admissible_point(rng: np.random.Generator, params: ModelParams,
                            q_range=(-2.0, 2.0), margin_factor: float = 1.05,
                            max_stretch: int = 4, max_redraw: int = 2000) -> ReducedPoint:
    """Draw a ReducedPoint satisfying the chamber and separation conditions.

    Adjacent pairs must clear `margin_factor` >= 1 times the threshold.
    Stretching is capped (re-drawing instead) so that positions stay
    within a few units of the requested range; this keeps downstream
    linear algebra well conditioned.
    """
    if margin_factor < 1.0:
        raise InvalidInput("margin_factor must be at least 1")
    if max_stretch < 0:
        raise InvalidInput("max_stretch must be non-negative")
    n = params.n
    c2 = margin_factor * params.coupling_sq
    lo, hi = q_range
    drawn, k = 0, 1
    while drawn < max_redraw:
        k = min(k, max_redraw - drawn)
        state = rng.bit_generator.state if k > 1 else None
        u = rng.random((k, 2 * n))
        q = np.sort(lo + (hi - lo) * u[:, :n], axis=1)[:, ::-1]
        stretched, passed = [q], [separation_margin(q, c2) > 0.0]
        # row 0 wins at its first pass, whatever the later rows do
        while not passed[-1][0] and len(passed) <= max_stretch:
            mean = q.sum(axis=1, keepdims=True) / n
            q = mean + 1.25 * (q - mean)
            stretched.append(q)
            passed.append(separation_margin(q, c2) > 0.0)
        won = _first_admissible(passed)
        if won is not None:
            r, stretches = won
            if r < k - 1:       # leave the generator just past row r
                rng.bit_generator.state = state
                rng.random((r + 1) * 2 * n)
            return ReducedPoint(q=stretched[stretches][r].copy(),
                                p=np.pi - 2.0 * np.pi * u[r, n:])
        drawn += k
        k *= _BLOCK_GROWTH
    raise NumericalFailure("could not draw an admissible point; widen q_range")


def _first_admissible(passed):
    """(row, stretches) of the first admissible candidate, rows first, from
    passed[s][r] (row r admissible after s stretches); None if there is none."""
    if passed[-1][0]:
        return 0, len(passed) - 1
    ok = np.array(passed)
    rows = np.flatnonzero(ok.any(axis=0))
    if rows.size == 0:
        return None
    return int(rows[0]), int(ok[:, rows[0]].argmax())
