"""Numerical laboratory for a degenerate-operator Gevrey threshold.

The package studies, at desk scale, the smoothness threshold of the
model operator

    L = d^2/dx^2 + x^(2(p-1)) d^2/dt1^2 + x^(2(q-1)) d^2/dt2^2

for integers 1 <= p <= q.  Two independent routes triangulate the
optimal Gevrey order q/p: decay of a windowed (FBI-type) transform with
a tunable window exponent, and a growth ladder built on an explicit
kernel family of L obtained from a nonlinear eigenvalue problem.
Supporting machinery covers weighted energy norms, a priori inequality
sweeps, and deterministic CSV/JSON reporting.
"""

from .eigen import (
    DegenerateOriginError,
    Eigenpair,
    GridSpec,
    GrowthRow,
    ResampleError,
    build_counterexample,
    default_grid,
    estimate_optimal_exponent,
    growth_table,
    reference_eigenvalues,
    residual_norm,
    select_k,
    solve_nonlinear_eigen,
    verify_kernel,
)
from .fbi import (
    Decomposition,
    FbiField,
    GridTooCoarseError,
    bracket,
    decompose,
    fbi,
    fbi_field,
    inversion_profile,
    jacobian_alpha,
    lowpass_profile,
)
from .gevrey import (
    FitRejectedError,
    FitResult,
    GevreyOrder,
    OrderTooHighError,
    estimate_order_derivatives,
    estimate_order_fbi,
    fd_weights,
    fit_stretched_exponential,
    make_gevrey_bump,
    prune_decay_floor,
)
from .operators import (
    ConsistencyError,
    DualFrequency,
    InconclusiveError,
    OperatorParams,
    apply_A_tau,
    apply_L,
    apriori_norms,
    check_apriori,
    check_scaling_inequality,
    check_weight_inequality,
    htau_norm,
    probe_family,
    scaling_constant,
    weight_w,
)
from .reports import emit_report
from .sampling import SampledFunction, sample

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "Decomposition",
    "DegenerateOriginError",
    "DualFrequency",
    "Eigenpair",
    "FbiField",
    "FitRejectedError",
    "FitResult",
    "GevreyOrder",
    "GridSpec",
    "GridTooCoarseError",
    "GrowthRow",
    "InconclusiveError",
    "OperatorParams",
    "OrderTooHighError",
    "ResampleError",
    "SampledFunction",
    "apply_A_tau",
    "apply_L",
    "apriori_norms",
    "bracket",
    "build_counterexample",
    "check_apriori",
    "check_scaling_inequality",
    "check_weight_inequality",
    "decompose",
    "default_grid",
    "emit_report",
    "estimate_optimal_exponent",
    "estimate_order_derivatives",
    "estimate_order_fbi",
    "fbi",
    "fbi_field",
    "fd_weights",
    "fit_stretched_exponential",
    "growth_table",
    "htau_norm",
    "inversion_profile",
    "jacobian_alpha",
    "lowpass_profile",
    "make_gevrey_bump",
    "probe_family",
    "prune_decay_floor",
    "reference_eigenvalues",
    "residual_norm",
    "sample",
    "scaling_constant",
    "select_k",
    "solve_nonlinear_eigen",
    "verify_kernel",
    "weight_w",
]
