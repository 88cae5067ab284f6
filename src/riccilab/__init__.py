"""Numerical laboratory for the curvature flow coupled to a conjugate heat
density: entropy functionals, first-variation identities, and monotonicity
verification on three model geometries."""

from .errors import (
    AdmissibilityError,
    BlowUp,
    ConfigError,
    InputError,
    MassDrift,
    NoConvergence,
    NonPositive,
    NonPositiveOmega,
    NumericalError,
    PositivityLoss,
    RicciLabError,
    StepTooLarge,
    TooFewSamples,
)
from .geometry import (
    BergerSphere,
    ConformalTorus2D,
    MetricState,
    RoundSphere,
    ScalarField,
    SymTensorField,
    const_field,
    dim,
    gradient_inner,
    gradient_sq,
    grad_outer,
    grid_coords,
    hessian,
    integrate,
    laplace_beltrami,
    metric_tensor,
    ricci,
    ricci_flow_rhs,
    scalar_curvature,
    scalar_field,
    tensor_norm_sq,
    tensor_trace,
    volume,
)
from .flow import Trajectory, integrate_forward, stability_dt
from .heat import (
    DensityHistory,
    change_variables,
    solve_backward,
    terminal_datum,
)
from .functionals import (
    f_functional,
    f_functional_f_form,
    lambda0,
    lambda0_eig,
    log_entropy,
    log_entropy_value,
    omega,
    shannon_entropy,
)
from .variation import (
    VariationReport,
    equivalence_check,
    fd_time_derivative,
    matrix_quantity,
    matrix_quantity_f_form,
    monotonicity_check,
    proof_chain_check,
    rate_forms,
    rhs_combined,
    rhs_split,
)

__version__ = "0.1.0"
