"""The one-point layer against its stacked twins: `ReducedPoint` and the
B = 1 wrappers are the stack-of-one calls of the route `bcn` runs.  Each
row gives an entry's values at seeded points, one call per point, and its
twin's, equal bit for bit, and the failing inputs of the entry's rows in
`test_input_rules.py` and `test_error_branches.py`, on which both raise
one class and one message.  The table goes with the layer."""

import dataclasses
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

import test_error_branches as branches
import test_input_rules as rules

from bcn_ruijsenaars.decomposition import extract_reduced, reduce_stack, surface_residuals
from bcn_ruijsenaars.errors import BCNError
from bcn_ruijsenaars.hamiltonians import phi_from_moment, phi_reduced
from bcn_ruijsenaars.matops import j_moment
from bcn_ruijsenaars.model import ReducedPoint, make_params, require_points
from bcn_ruijsenaars.reconstruction import (assemble, assemble_stack, constraint_report,
                                            constraint_residuals, verify_constraints)
from bcn_ruijsenaars.sampling import random_admissible_point, random_admissible_points

COUNT = 20      # points per n: at n = 8 two chunks of `constraint_residuals`


def _bits(value):
    """`value` with each float as its dtype, shape and bytes; records by field."""
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, (np.ndarray, float)):
        return np.asarray(value).dtype.str, np.shape(value), np.asarray(value).tobytes()
    return value


def _row(record, i):
    """Row i of a stacked record, as a dict of its fields."""
    return {f.name: _row(v, i) if dataclasses.is_dataclass(v := getattr(record, f.name))
            else v[i] for f in dataclasses.fields(record)}


def _draws(s, draw):
    """COUNT draws from a generator of the sample's seed, each with the state it leaves."""
    rng = np.random.default_rng(s.seed)
    return [(*draw(rng), rng.bit_generator.state) for _ in range(COUNT)]


def _on_elements(entry, elements):
    """The entry on each (g, params), and its twin on the stack of one g."""
    return [(partial(entry, g, params), partial(reduce_stack, np.asarray(g)[None], params))
            for g, params in elements]


# "3-d" is the one-point refusal of a stack, which the twin takes
ELEMENTS = [(g, rules.PARAMS) for name, (g, _) in rules.ELEMENT_FAULTS.items() if name != "3-d"]

#: entry -> (its values, its twin's, failing inputs) at the sample s: params,
#: points (q, p), their elements g and reduction, and the seed
TWINS = {
    "ReducedPoint": (
        lambda s: [vars(ReducedPoint(a, b)) for a, b in zip(s.q, s.p)],
        lambda s: [{"q": a, "p": b} for a, b in zip(*require_points(s.q, s.p, s.params.n))],
        [(partial(ReducedPoint, q, p), partial(require_points, q, p))
         for q, p, *_ in rules.POINT_FAULTS.values()]),
    "assemble": (
        lambda s: [assemble(ReducedPoint(a, b), s.params) for a, b in zip(s.q, s.p)],
        lambda s: [[_row(r, i) for r in assemble_stack(s.q, s.p, s.params)] for i in range(COUNT)],
        []),
    "verify_constraints": (
        lambda s: [verify_constraints(*assemble(ReducedPoint(a, b), s.params), s.params)
                   for a, b in zip(s.q, s.p)],
        lambda s: [constraint_report({name: r[i] for name, r in
                                      constraint_residuals(s.q, s.p, s.params).items()}, 1e-10)
                   for i in range(COUNT)], []),
    "extract_reduced": (
        lambda s: [vars(extract_reduced(g, s.params)) for g in s.g],
        lambda s: [{"q": a, "p": b} for a, b in zip(*s.reduced[:2])],
        _on_elements(extract_reduced,
                     [*ELEMENTS, (branches.off_gauge_element(), branches.PARAMS)])),
    "surface_residuals": (
        lambda s: [max(surface_residuals(g, s.params).values()) for g in s.g],
        lambda s: s.reduced[2].tolist(),
        _on_elements(surface_residuals, ELEMENTS)),
    "phi_reduced": (
        lambda s: [[phi_reduced(ReducedPoint(a, b), s.params, nu) for nu in (1, 2, 3)]
                   for a, b in zip(s.q, s.p)],
        lambda s: np.transpose([phi_from_moment(j_moment(s.g), nu) for nu in (1, 2, 3)]).tolist(),
        []),
    "random_admissible_point": (
        lambda s: _draws(s, lambda rng: vars(random_admissible_point(rng, s.params)).values()),
        lambda s: _draws(s, lambda r: np.concatenate(random_admissible_points(r, s.params, 1))),
        []),
}


@pytest.mark.parametrize("entry", TWINS)
def test_entry_equals_its_stacked_twin(entry):
    one, twin, faults = TWINS[entry]
    for n in (1, 2, 3, 4, 8):
        params = make_params(0.6, 1.2, 0.8, n)
        q, p = random_admissible_points(np.random.default_rng(n), params, COUNT)
        g = assemble_stack(q, p, params)[0].g
        s = SimpleNamespace(params=params, q=q, p=p, g=g, reduced=reduce_stack(g, params), seed=n)
        assert _bits(one(s)) == _bits(twin(s))
    for entry_call, twin_call in faults:
        with pytest.raises(BCNError) as alone:
            entry_call()
        with pytest.raises(BCNError) as stacked:
            twin_call()
        assert type(stacked.value) is type(alone.value)
        # a stack of one names its shape with the leading 1
        assert str(stacked.value).replace("shape (1, ", "shape (") == str(alone.value)
