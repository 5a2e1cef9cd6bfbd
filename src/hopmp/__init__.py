"""Numerical toolkit for maximum-principle verification under higher-order
variational constraints: jet calculus, controlled Euler-Lagrange systems,
auxiliary boundary-value functions, homotopy identities, needle variations
and classical cross-checks."""

__version__ = "0.1.0"

from .jetspace import (  # noqa: F401
    DerivedField,
    JetField,
    JetPoint,
    ScalarJetField,
    finite_diff_partial,
    total_derivative,
)
from .problem import (  # noqa: F401
    Check,
    ControlSet,
    ControlledLagrangian,
    CostFunction,
    DefiningTriple,
    InitialData,
    el_residual,
    pontryagin_p,
    validate_triple,
)
from .dynamics import (  # noqa: F401
    NormalFormDynamics,
    Trajectory,
    integrate,
    lipschitz_probe,
    reduce_to_first_order,
)
from .auxiliary import (  # noqa: F401
    HCoefficients,
    boundary_matrix,
    pc_form_pairing,
    solve_h,
)
from .homotopy import (  # noqa: F401
    ControlHomotopy,
    VariationSurface,
    build_surface,
    homotopy_lhs,
    homotopy_rhs,
    infinitesimal_conditions,
    minimal_labour_W,
    mu_prime_correction,
    select_beta_range,
)
from .needle import (  # noqa: F401
    NeedleSpec,
    PMPVerdict,
    corrective_term,
    goodn_check,
    gpmp_verdict,
    needle_modification,
    needle_variation,
    pmp_scan,
    smooth_needle,
    transversality_synthesize,
)
from .classical import (  # noqa: F401
    ClassicalProblem,
    adjoint_integrate,
    classical_pmp_check,
    embed_classical,
    hamiltonian,
    mth_order_bang_bang,
    phi_surjectivity_probe,
)
from .problems import build, optimal_reference  # noqa: F401
