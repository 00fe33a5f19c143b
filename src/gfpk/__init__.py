"""Spectral solvers for stationary Fokker-Planck-Kolmogorov equations
relative to the standard Gaussian measure, with drifts of the form
b(p, x) = -x + v(p, x)."""

from .basis import (
    ChaosBasis,
    QuadratureGrid,
    enumerate_basis,
    enumerate_multi_indices,
    gauss_hermite,
    hermite_table,
    product_grid,
    tensor_grid,
    uniform_gaussian_grid,
)
from .config import load_config, parse_config
from .density import (
    BumpTest,
    ChaosDensity,
    HermiteTest,
    MarginalMeasure,
    PointMeasure,
    as_measure,
    integrate,
    marginal,
    marginal_measure,
)
from .diagnostics import (
    b1_bound,
    ball_check,
    fisher_energy,
    log_moment,
    log_moment_bracket,
    superlevel_mass_1d,
    tail_check,
)
from .errors import (
    BasisSizeError,
    BoundViolationError,
    ConfigError,
    DegenerateDensityError,
    DomainError,
    GfpkError,
    InstabilityError,
    NonConvergenceError,
    NumericError,
    SolverError,
)
from .drift import (
    ClippedLinearKernel,
    ComponentwiseKernel,
    ConstantKernel,
    DriftField,
    GaussianLobeKernel,
    SeparableField,
    TanhKernel,
    clipped_potential_drift,
    constant_drift,
    custom_drift,
    rotational_drift,
    vlasov_drift,
    vlasov_eval,
)
from .ladder import (
    LadderConfig,
    LadderReport,
    default_battery,
    lyapunov_moment,
    marginal_distance,
    run_ladder,
)
from .linear import assemble, residual, residual_suite, solve_linear, solve_system
from .nonlinear import (
    FixedPointOptions,
    FixedPointTrace,
    fixed_point_solve,
    l2_distance,
    solve_stationary,
)
from .oracles import (
    GridDensity1D,
    GridDensity2D,
    SdeMoments,
    l2_gamma_distance,
    oracle_1d,
    oracle_1d_selfconsistent,
    oracle_fd_2d,
    oracle_sde,
)

__version__ = "0.1.0"
