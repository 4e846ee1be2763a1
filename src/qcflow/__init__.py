"""Numerical laboratory for the sub-Laplacian heat flow on the compact
quaternionic Heisenberg nilmanifold: exact on-grid group calculus, the
energy functional with its five-term production formula, and batch
verification suites for every identity the monotonicity statement rests on.
"""

from .algebra import (
    TorsionData,
    alpha_interval,
    casimir_decompose,
    four_part_decompose,
    h_polynomial,
    lichnerowicz_form,
    random_torsion,
    represtor_combination,
    ricci_from_torsion,
    torsion_contraction,
)
from .energy import (
    EnergyReport,
    MonotonicityVerdict,
    derf_rhs,
    lemma_residual,
    monotonicity_verdict,
)
from .flow import FlowConfig, FlowState, cfl_timestep, evolve, stream
from .identities import (
    IDENTITY_NAMES,
    IdentityReport,
    bochner_residual,
    derf_coefficients,
    identity_residual,
)
from .lattice import (
    GroupPoint,
    HorizontalField,
    LatticeGrid,
    ScalarField,
    group_inverse,
    group_multiply,
    integrate,
    load_field,
    make_grid,
    periodized_bump,
    save_field,
    vertically_uniform_bump,
)
from .operators import (
    DifferenceJet,
    divergence,
    p_functional,
    reeb_derivative,
    sub_laplacian,
)
from .suites import SUITE_NAMES, run_suite

__version__ = "0.1.0"
