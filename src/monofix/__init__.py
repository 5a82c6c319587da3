"""Monoid-valued distance spaces with certified fixed-point iteration."""

from .monoid import (
    MonoidSpec,
    MTrace,
    TestLadder,
    cauchy_series_check,
    dyadic_ladder,
    is_bounded,
    is_null_trace,
    validate_ladder,
    validate_monoid,
)
from .reporting import CheckResult, Counterexample, Decision, ValidationReport
from .spaces import (
    DistanceSpaceSpec,
    PointTrace,
    SpaceKind,
    ZetaSpec,
    check_triangle,
    check_zeta_triangle,
    converges_to,
    entourage_distance,
    falsify_frechet_wilson,
    gauge_space,
    is_cauchy_sequence,
    is_cw_sequence,
    make_uniform_from_pseudometric,
    product_space,
    relation_monoid,
    validate_space,
    validate_zeta,
)
from .engine import (
    CaristiData,
    HypothesisViolation,
    IterationTrace,
    LambdaSequence,
    MapSpec,
    MeirKeelerData,
    ParamResult,
    SolveReport,
    SolveStatus,
    lambda_product_trace,
    next_rung_choice,
    picard_iterate,
    solve_caristi,
    solve_meir_keeler,
    solve_monotone,
    solve_parametrized,
    solve_sequential,
    solve_with_driver,
    verify_fixed_point,
)
from .multifix import (
    ProfilePoint,
    SigmaSpec,
    coupled_fixed_point,
    coupled_sigma,
    p_order_leq,
    sigma_lift,
    solve_multiple_fixed_point,
)
from .fredholm import (
    CertificateNotConvergent,
    CertificateVerdict,
    ConvergenceCertificate,
    DiscreteKernel,
    Grid,
    InvalidKernel,
    KernelSpec,
    certify_convergence,
    grid_ladder,
    grid_space,
    residual,
    solve_fredholm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
