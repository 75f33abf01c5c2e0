"""Out-of-range arguments of the public calls raise ValueError.

A NaN slips past a check written as ``x <= 0``, and a negative order
indexes from the end of a table, so each row here once returned a wrong
value, or failed inside numpy or the math module."""

import warnings

import numpy as np
import pytest

from conftest import LADDER, with_sample
from gevreylab import (
    Eigenpair,
    HermiteSeries,
    OperatorParams,
    SampledFunction,
    build_counterexample,
    default_grid,
    estimate_optimal_exponent,
    estimate_order_derivatives,
    fd_weights,
    fit_stretched_exponential,
    growth_table,
    make_gevrey_bump,
    reference_eigenvalues,
    sample,
    scaling_constant,
    solve_nonlinear_eigen,
    verify_kernel,
)

NAN, INF = float("nan"), float("inf")
P12, P13 = OperatorParams(1, 2), OperatorParams(1, 3)
#: The closed-form (1, 2) ground state e^(-x^2/2) = pi^(1/4) psi_0, z = 1.
PAIR = Eigenpair(z=1.0, f=HermiteSeries(1.0, np.array([np.pi**0.25])), residual=0.0,
                 basis_change=0.0, params=P12, grid=default_grid(P12))
BOX = ((-1.0, 1.0, 41),) * 3
LINE = np.zeros(4)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: build_counterexample(PAIR, NAN, BOX), ">= 1"),
        (lambda: build_counterexample(PAIR, INF, BOX), ">= 1"),
        (lambda: verify_kernel(PAIR, NAN), ">= 1"),
        (lambda: verify_kernel(PAIR, INF), ">= 1"),
        (lambda: solve_nonlinear_eigen(P13, count=0), "at least one"),
        (lambda: solve_nonlinear_eigen(P13, count=-1), "at least one"),
        (lambda: reference_eigenvalues(P13, count=0), "at least one"),
        (lambda: solve_nonlinear_eigen(P13, count=2.5), "integer count"),
        (lambda: reference_eigenvalues(P13, count=2.5), "integer count"),
        (lambda: default_grid(P12, count=2.5), "integer count"),
        (lambda: solve_nonlinear_eigen(P13, count=NAN), "integer count"),
        (lambda: fd_weights(-1, 5), "order >= 0"),
        (lambda: fd_weights(-2, 5), "order >= 0"),
        (lambda: PAIR.f(np.zeros(3), -1), "non-negative"),
        (lambda: growth_table(PAIR, [100.7, 1000, 10000]), "integers"),
        (lambda: scaling_constant(1.5), "positive integer"),
        (lambda: make_gevrey_bump(2.0, n=1), "two samples"),
        (lambda: SampledFunction((0.0,), (NAN,), LINE), "spacing"),
        (lambda: SampledFunction((INF,), (1.0,), LINE), "origin"),
        (lambda: SampledFunction((0.0,), (1.0,), LINE).rescaled(NAN), "rescale factor"),
        (lambda: estimate_optimal_exponent(growth_table(PAIR, LADDER), expected=NAN),
         "finite"),
        (lambda: estimate_order_derivatives(with_sample(make_gevrey_bump(2.0), NAN), 1.0),
         "non-finite samples"),
        (lambda: estimate_order_derivatives(SampledFunction((0.0, 0.0), (0.1, 0.1),
                                                            np.zeros((8, 8))), 0.0),
         "1d samples"),
        (lambda: fit_stretched_exponential([1.0, 2.0, 3.0], [1.0, 0.5]), "matching 1d"),
        # Decays only at the last point, so the tail half holds one point.
        (lambda: fit_stretched_exponential(np.arange(1.0, 7.0), [1.0] * 5 + [1e-3]),
         "no usable decay tail"),
        (lambda: sample(lambda x: x, [(1.0, 1.0, 5)]), "hi > lo"),
        (lambda: HermiteSeries(0.0, [1.0])(0.5), "scale"),
        (lambda: HermiteSeries(-1.0, [1.0])(0.5), "scale"),
        (lambda: HermiteSeries(NAN, [1.0])(0.5), "scale"),
        (lambda: sample(lambda x: x, [(0.0, 1.0, 2.5)]), "integer"),
        (lambda: make_gevrey_bump(2.0, n=2.5), "integer"),
    ],
    ids=["cube-lam-nan", "cube-lam-inf", "kernel-lam-nan", "kernel-lam-inf",
         "solve-count-0", "solve-count-negative", "oracle-count-0", "solve-count-fraction",
         "oracle-count-fraction", "grid-count-fraction", "solve-count-nan", "stencil-order-1",
         "stencil-order-2", "profile-deriv-negative", "ladder-fraction",
         "scaling-fraction", "bump-one-sample", "spacing-nan", "origin-inf",
         "rescale-nan", "expected-nan", "derivatives-sample-nan", "derivatives-2d",
         "fit-shapes", "fit-no-tail", "sample-empty-axis", "series-scale-0",
         "series-scale-negative", "series-scale-nan", "sample-fraction", "bump-fraction"],
)
def test_out_of_range_arguments(call, fragment):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=fragment):
            call()


def test_numpy_integer_counts_are_counts():
    assert sample(lambda x: x, [(0.0, 1.0, np.int64(3))]).values.tolist() == [0.0, 0.5, 1.0]
    assert make_gevrey_bump(2.0, n=np.int32(8)).values.shape == (8,)
    assert len(solve_nonlinear_eigen(P12, count=np.int64(3))) == 3
