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

from types import ModuleType as _ModuleType

from .eigen import (
    Eigenpair,
    GridSpec,
    GrowthRow,
    HermiteSeries,
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
    check_scaling_inequality,
    check_weight_inequality,
    probe_family,
    scaling_constant,
    weight_w,
)
from .reports import emit_report
from .sampling import SampledFunction, sample

__version__ = "0.1.0"

# The imports above declare the public API; the submodules they bind as
# a side effect are not part of it.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
