"""Reproducible random draws of admissible phase-space points.

Positions are sorted uniforms on [-2, 2], stretched about their midpoint
until the pairwise separation inequality holds with a small safety
factor; momenta are uniform on (-pi, pi].  All draws are driven by a
caller-supplied generator, so a fixed seed fixes the sample.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .model import ModelParams, ReducedPoint, separation_margin

__all__ = ["random_admissible_point"]


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
    n = params.n
    c2 = margin_factor * params.coupling_sq
    for _ in range(max_redraw):
        q = np.sort(rng.uniform(q_range[0], q_range[1], size=n))[::-1]
        p = np.pi - rng.uniform(0.0, 2.0 * np.pi, size=n)
        for _ in range(max_stretch + 1):
            if separation_margin(q, c2) > 0.0:
                return ReducedPoint(q=q.copy(), p=p)
            q = np.mean(q) + 1.25 * (q - np.mean(q))
    raise NumericalFailure("could not draw an admissible point; widen q_range")
