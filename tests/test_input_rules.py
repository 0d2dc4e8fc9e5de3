"""The error contract of the three input rules, entry by entry.

Every public entry of a kind checks its input through one rule: a point
(q, p) through `model.require_points` (one point: `require_point`), a
decreasing row through `model.require_decreasing`, a group element
through `matops.require_element`.  Each fault gets one class and one
message from every entry of its kind.
"""

import re
import warnings

import numpy as np
import pytest

from bcn_ruijsenaars.decomposition import extract_reduced, reduce_stack, surface_residuals
from bcn_ruijsenaars.dynamics import exact_flow, integrate_reduced, project_flow, reduced_rhs
from bcn_ruijsenaars.errors import ChamberViolation, InvalidInput
from bcn_ruijsenaars.hamiltonians import (fd_gradient, grad_hamiltonian, hamiltonian_q,
                                          hamiltonian_sigma, involution_report, phi_trace,
                                          spectral_invariants)
from bcn_ruijsenaars.model import (ReducedPoint, abc_from_params, cartan_from_q, make_params,
                                   require_decreasing, require_points)
from bcn_ruijsenaars.reconstruction import (assemble_stack, build_Ttilde, constraint_residuals,
                                            solve_v)

PARAMS = make_params(0.5, 1.0, 1.0, 2)


def _phi1(q, p, params):
    return hamiltonian_sigma(np.exp(q), p, params)


#: entries that take one point only, and those that also take a (T, n) stack
ONE_POINT = {
    "ReducedPoint": ReducedPoint,
    "integrate_reduced": lambda q, p: integrate_reduced(q, p, PARAMS, 0.01, 1e-3),
    "hamiltonian_q": lambda q, p: hamiltonian_q(q, p, *abc_from_params(PARAMS)),
    "grad_hamiltonian": lambda q, p: grad_hamiltonian(q, p, PARAMS),
    "reduced_rhs": lambda q, p: reduced_rhs(q, p, PARAMS),
}
STACKS = {
    "assemble_stack": lambda q, p: assemble_stack(q, p, PARAMS),
    "constraint_residuals": lambda q, p: constraint_residuals(q, p, PARAMS),
    "fd_gradient": lambda q, p: fd_gradient(_phi1, q, p, PARAMS),
    "involution_report": lambda q, p: involution_report(PARAMS, q, p),
}
POINTS = {**ONE_POINT, **STACKS}


def _shape_message(names, *shapes):
    return "^" + re.escape(f"{names} must have one shape, (n,) or (T, n) with n >= 1, got "
                           + ", ".join(map(str, shapes))) + "$"


FINITE = (InvalidInput, "^q and p must be finite$")
POINT_FAULTS = {
    "nan-q": ([1.0, np.nan], [0.2, 0.15], *FINITE),
    "nan-p": ([1.0, -1.0], [np.nan, 0.15], *FINITE),
    "inf-q": ([np.inf, -1.0], [0.2, 0.15], *FINITE),
    "minus-inf-q": ([1.0, -np.inf], [0.2, 0.15], *FINITE),
    "inf-p": ([1.0, -1.0], [0.2, -np.inf], *FINITE),
    "unordered": ([-1.0, 1.0], [0.2, 0.15], ChamberViolation,
                  "^" + re.escape("q must be strictly decreasing, got [-1.  1.]") + "$"),
    "mismatched": ([1.0, -1.0], [0.2], InvalidInput, _shape_message("q and p", (2,), (1,))),
    "empty": ([], [], InvalidInput, _shape_message("q and p", (0,), (0,))),
    "3-d": ([[[1.0, -1.0]]], [[[0.2, 0.15]]], InvalidInput,
            _shape_message("q and p", (1, 1, 2), (1, 1, 2))),
}


@pytest.mark.parametrize("fault", POINT_FAULTS)
@pytest.mark.parametrize("entry", POINTS)
def test_point_rule(entry, fault):
    q, p, error, message = POINT_FAULTS[fault]
    with pytest.raises(error, match=message):
        POINTS[entry](q, p)


@pytest.mark.parametrize("entry", ONE_POINT)
def test_one_point_entries_refuse_a_stack(entry):
    message = "^" + re.escape("q and p must be one point (n,), got shape (1, 2)") + "$"
    with pytest.raises(InvalidInput, match=message):
        ONE_POINT[entry]([[1.0, -1.0]], [[0.2, 0.15]])


@pytest.mark.parametrize("entry", STACKS)
def test_stack_entries_take_a_stack(entry):
    STACKS[entry]([[1.0, -1.0], [0.9, -0.9]], [[0.2, 0.15], [0.1, 0.0]])


#: entry -> (call on a row, the names of its arrays; the first is the row)
ROWS = {
    "cartan_from_q": (lambda row: cartan_from_q(row, PARAMS), ["q"]),
    "solve_v": (lambda row: solve_v(row, 0.5), ["Sigma"]),
    "build_Ttilde": (lambda row: build_Ttilde(row, 0.5, np.ones_like(row)), ["Sigma", "v"]),
}
ROW_FAULTS = {
    "nan": [2.0, np.nan],
    "inf": [np.inf, 1.0],
    "minus-inf": [2.0, -np.inf],
    "unordered": [1.0, 2.0],
    "empty": [],
    "3-d": [[[2.0, 1.0]]],
}


@pytest.mark.parametrize("fault", ROW_FAULTS)
@pytest.mark.parametrize("entry", ROWS)
def test_row_rule(entry, fault):
    call, names = ROWS[entry]
    row = np.array(ROW_FAULTS[fault])
    if fault == "unordered":
        error, message = ChamberViolation, "^" + re.escape(
            f"{names[0]} must be strictly decreasing, got {row}") + "$"
    elif fault in ("empty", "3-d"):
        error, message = InvalidInput, _shape_message(" and ".join(names),
                                                      *[row.shape] * len(names))
    else:
        error, message = InvalidInput, f"^{' and '.join(names)} must be finite$"
    with pytest.raises(error, match=message):
        call(row)


@pytest.mark.parametrize("v, message", [
    ([1.0, 1.0, 1.0], _shape_message("Sigma and v", (2,), (3,))),
    ([1.0, np.nan], "^Sigma and v must be finite$"),
], ids=["mismatched", "nan-v"])
def test_row_rule_checks_the_second_row(v, message):
    with pytest.raises(InvalidInput, match=message):
        build_Ttilde([3.0, 1.0], 0.5, v)


def test_row_rule_compares_neighbours():
    # np.diff of this row overflows (a RuntimeWarning); a comparison does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        require_points([1e308, -1e308], [0.0, 0.0])
        require_decreasing(Sigma=[1e308, -1e308])


def test_row_rule_raises_the_first_failing_row():
    rows = [[2.0, 1.0], [1.0, 2.0], [np.nan, 1.0]]
    with pytest.raises(ChamberViolation, match=re.escape("got [1. 2.]")):
        require_decreasing(Sigma=rows)
    with pytest.raises(InvalidInput, match="^Sigma must be finite$"):
        require_decreasing(Sigma=rows[::-2])


#: entry -> (call, name in its messages); the model's size is checked by
#: test_element_of_the_wrong_size_rejected (extract_reduced,
#: surface_residuals), test_element_of_the_wrong_size_is_invalid_input
#: (project_flow) and test_stack_rule (reduce_stack)
ELEMENTS = {
    "phi_trace": (lambda g: phi_trace(g, 1), "g"),
    "spectral_invariants": (spectral_invariants, "g"),
    "exact_flow": (lambda g: exact_flow(g, 0.1), "g0"),
    "project_flow": (lambda g: project_flow(g, PARAMS, [0.0]), "g0"),
    "extract_reduced": (lambda g: extract_reduced(g, PARAMS), "g"),
    "surface_residuals": (lambda g: surface_residuals(g, PARAMS), "g"),
}


def _with(value):
    g = np.eye(4, dtype=complex)
    g[1, 2] = value
    return g


ELEMENT_FAULTS = {
    "nan": (_with(np.nan), "{} contains non-finite entries"),
    "inf": (_with(np.inf), "{} contains non-finite entries"),
    "minus-inf": (_with(-np.inf), "{} contains non-finite entries"),
    "non-square": (np.eye(4, 2), "{} must be square of even dimension, got shape (4, 2)"),
    "odd": (np.eye(3), "{} must be square of even dimension, got shape (3, 3)"),
    "empty": (np.zeros((0, 0)), "{} must be square of even dimension, got shape (0, 0)"),
    "3-d": (np.eye(4)[None], "{} must be one matrix, got shape (1, 4, 4)"),
}


@pytest.mark.parametrize("fault", ELEMENT_FAULTS)
@pytest.mark.parametrize("entry", ELEMENTS)
def test_element_rule(entry, fault):
    call, name = ELEMENTS[entry]
    g, message = ELEMENT_FAULTS[fault]
    with pytest.raises(InvalidInput, match="^" + re.escape(message.format(name)) + "$"):
        call(g)


@pytest.mark.parametrize("g, message", [
    (_with(np.nan)[None], "g contains non-finite entries"),
    (np.eye(3)[None], "g must be square of even dimension, got shape (1, 3, 3)"),
    (np.eye(4), "g must be a stack (T, 2n, 2n), got shape (4, 4)"),
    (np.eye(4)[None, None], "g must be a stack (T, 2n, 2n), got shape (1, 1, 4, 4)"),
    # a 6 x 6 identity is on the leaf, so only the size check can stop it
    (np.eye(6)[None], "expected shape (4, 4), got (6, 6)"),
], ids=["nan", "odd", "one-matrix", "4-d", "wrong-size"])
def test_stack_rule(g, message):
    # `reduce_stack` takes a (T, 2n, 2n) stack of the model's elements,
    # checked by the element rule
    with pytest.raises(InvalidInput, match="^" + re.escape(message) + "$"):
        reduce_stack(g, PARAMS)
