"""Error branches of the library that no workflow test reaches, each met
by an input that reaches it, with its class and message."""

import re

import numpy as np
import pytest

from bcn_ruijsenaars import decomposition, dynamics, hamiltonians, limits, matops
from bcn_ruijsenaars import reconstruction
from bcn_ruijsenaars.errors import (ChamberViolation, DegenerateElement, InternalInconsistency,
                                    InvalidInput, NotOnConstraintSurface, NumericalFailure,
                                    SeparationViolation)
from bcn_ruijsenaars.model import cartan_from_q, make_params

PARAMS = make_params(0.5, 1.2, 0.8, 2)
Q, P = np.array([1.0, -1.0]), np.array([0.2, 0.1])


def element():
    return reconstruction.assemble_stack(Q, P, PARAMS)[0].g


def wrong_v():
    cdata = cartan_from_q(Q, PARAMS)
    return cdata, 2.0 * reconstruction.solve_v(cdata.Sigma, PARAMS.alpha)


def off_gauge_element():
    # diag(S, I) g with S the swap of the first two rows: the left gauge
    # moves rho_hat's first row off vtilde, and nothing else
    swap = np.eye(4, dtype=complex)
    swap[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    return swap @ element()


def overflowing_expm():
    with np.errstate(all="ignore"):     # reach the check, not numpy's warning
        return matops.expm(800.0 * np.eye(2))


BRANCHES = {
    "matops.is_pseudo_unitary odd": (
        lambda: matops.is_pseudo_unitary(np.eye(3)), InvalidInput,
        "matrix must be square of even dimension, got shape (3, 3)"),
    "matops.expm empty": (
        lambda: matops.expm(np.zeros((0, 0))), InvalidInput,
        "matrix must be square with N >= 1, got shape (0, 0)"),
    "matops.expm not square": (
        lambda: matops.expm(np.zeros((2, 3))), InvalidInput,
        "matrix must be square with N >= 1, got shape (2, 3)"),
    "matops.is_hermitian not square": (
        lambda: matops.is_hermitian(np.zeros((2, 3))), InvalidInput,
        "matrix must be square with N >= 1, got shape (2, 3)"),
    "matops.expm overflow": (
        overflowing_expm, NumericalFailure, "expm: overflow during squaring phase"),
    "reconstruction.solve_v negative Sigma": (
        lambda: reconstruction.solve_v(np.array([1.0, -0.5]), 0.5), ChamberViolation,
        "Sigma must be positive"),
    "reconstruction.build_Ttilde boundary": (
        lambda: reconstruction.build_Ttilde(np.array([1.0, 0.5]), 0.5, np.ones(2)),
        SeparationViolation, "Sigma_i^2 = alpha^2 Sigma_j^2: separation boundary"),
    "reconstruction.build_sigma_rho |vtilde|": (
        lambda: reconstruction.build_sigma_rho(*wrong_v(), PARAMS), InternalInconsistency,
        "|vtilde|^2 = 15.0 vs expected 3.75"),
    "decomposition.cartan_KAK unit": (
        lambda: decomposition.cartan_KAK(np.eye(4)), DegenerateElement,
        "unit radial singular value: Gamma = [1. 1.]"),
    "decomposition extraction off gauge": (
        lambda: decomposition.extract_reduced(off_gauge_element(), PARAMS),
        NotOnConstraintSurface, "vtilde misaligned with the reference gauge"),
    "hamiltonians.phi_from_moment nu": (
        lambda: hamiltonians.phi_from_moment(np.eye(2), 0), InvalidInput,
        "nu must be a positive integer"),
    "hamiltonians.phi_from_moment complex trace": (
        lambda: hamiltonians.phi_from_moment(np.diag([1.0 + 1.0j, 0.0]), 1),
        NumericalFailure, "trace has imaginary part -0.5"),
    "hamiltonians.hamiltonian_sigma zero": (
        lambda: hamiltonians.hamiltonian_sigma([1.0, 0.0], [0.0, 0.0], PARAMS),
        InvalidInput, "Sigma entries must be non-zero"),
    "hamiltonians.hamiltonian_sigma coinciding": (
        lambda: hamiltonians.hamiltonian_sigma([1.0, -1.0], [0.0, 0.0], PARAMS),
        SeparationViolation, "coinciding Sigma_i^2: particle collision"),
    "dynamics.project_flow times": (
        lambda: dynamics.project_flow(element(), PARAMS, [0.1, 0.0]), InvalidInput,
        "times must be strictly increasing"),
    "limits.sutherland_H2 coinciding": (
        lambda: limits.sutherland_H2([0.5, 0.5], [0.0, 0.0], 0.3, -0.2, 0.4),
        InvalidInput, "coinciding or opposite hat_q entries"),
    "limits.sutherland_H2 opposite": (
        lambda: limits.sutherland_H2([0.5, -0.5], [0.0, 0.0], 0.3, -0.2, 0.4),
        InvalidInput, "coinciding or opposite hat_q entries"),
}


@pytest.mark.parametrize("name", BRANCHES)
def test_branch_raises_its_error(name):
    call, kind, message = BRANCHES[name]
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()
