"""Hyperbolic Ruijsenaars-type model with BC_n symmetry.

A numerical laboratory for the deformed hyperbolic many-body model
obtained by reduction from a matrix group: reconstruction of constrained
group elements from canonical coordinates, factorization and coordinate
extraction, the commuting Hamiltonian family and its closed reduced
form, exact versus reduced dynamics, and the cotangent-bundle limit to
the three-parameter hyperbolic Sutherland model.
"""

from .errors import (
    BCNError,
    ChamberViolation,
    DegenerateElement,
    InternalInconsistency,
    InvalidInput,
    NotOnConstraintSurface,
    NotOnLeaf,
    NumericalFailure,
    SeparationViolation,
)
from .model import (
    CartanData,
    ModelParams,
    ReducedPoint,
    abc_from_params,
    cartan_from_q,
    make_params,
    wrap_angle,
)
from .reconstruction import (
    ConstraintData,
    LeafFactorization,
    assemble,
    build_sigma_rho,
    build_Ttilde,
    solve_v,
    verify_constraints,
)
from .decomposition import (
    KAKData,
    cartan_KAK,
    decompose_BK,
    decompose_KB,
    extract_reduced,
    surface_residuals,
)
from .hamiltonians import (
    grad_hamiltonian,
    hamiltonian_q,
    hamiltonian_sigma,
    involution_report,
    phi_reduced,
    phi_trace,
    poisson_bracket_fd,
    spectral_invariants,
    weyl_check,
)
from .dynamics import (
    FLOW_SIGN,
    FLOW_TIME_SCALE,
    Trajectory,
    compare_trajectories,
    exact_flow,
    integrate_reduced,
    project_flow,
    reduced_rhs,
)
from .limits import (
    LimitParams,
    fit_potential_coefficients,
    hat_coords,
    limit_convergence,
    phi_linearized,
    richardson_H2,
    sutherland_H2,
)
from .sampling import random_admissible_point

__version__ = "0.1.0"
