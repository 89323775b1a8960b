"""Hermite-spectral solvers and verifiers for the Gaussian-convolution
tachyon equation of the p-adic open string, K phi = phi^p."""

from .basis import (
    GridFunction,
    HermiteSeries,
    QuadratureRule,
    convert_a_to_b,
    convert_b_to_a,
    eval_H,
    eval_V,
    gauss_hermite_rule,
    inner_product,
    parseval_residual,
    project,
)
from .bvp import ErfAnsatz, local_zero_analysis, solve_bvp_3approx
from .gaussop import (
    EigenfunctionSpec,
    TaylorSeries,
    apply_K_point,
    apply_K_series,
    eigenfunction,
    norm_bound,
    periodic_solution,
)
from .heatflow import (
    branching_roots,
    heat_polynomial,
    kernel_estimate_bound,
    poisson_eval,
    track_zeros,
)
from .solver import (
    ApproxSolution3,
    SolverConfig,
    conservation_laws_check,
    exact_gaussian_solution,
    fixed_point_iterate,
    limit_diagnostics,
    residual,
    solve_3approx,
)

__version__ = "0.1.0"
