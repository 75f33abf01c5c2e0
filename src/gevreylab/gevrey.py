"""Gevrey test functions and two independent order estimators.

A function has Gevrey order s >= 1 near a point when its derivatives obey
|f^(k)| <= C^(k+1) k^(sk).  Two measurable signatures of the order:

* transform decay: at window exponent g in [1/s, 1] the transform of an
  order-s function decays like exp(-c xi^(1/s)) along the frequency
  ladder, so a stretched-exponential fit to |F u(x0, xi)| recovers
  r = 1/s;
* derivative growth: finite-difference sup norms of f^(k) grow like
  exp(s k log k + O(k)), so the coefficient of k log k in a log-linear
  regression recovers s.

Both estimators are implemented here against the same fit and reliability
rules, and the acceptance suite checks they agree on generated bumps.

The generated test functions: for s > 1 a compactly supported bump which
is flat to infinite order at the support edge (the edge is the worst
point, where order-s behavior is sharp); for s = 1 a truncated Gaussian
probed at the center, since nontrivial compactly supported analytic
functions do not exist.

Both estimators and the stretched-exponential fit use numpy alone, so
neither importing this module nor calling it loads scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fbi import FbiField, fbi_field
from .sampling import SampledFunction, _exact_step_axis

#: Relative uptick tolerated before a ladder counts as non-monotone.
_MONOTONE_SLACK = 1.05
#: Ladder values below peak * floor are quadrature noise, not signal.
_DECAY_FLOOR = 1e-12
#: The fit's v = log(log C - max log y) lives in [-_V_BOUND, _V_BOUND].
_V_BOUND = 50.0
#: Step of the downhill walk in v that brackets the profile minimum.
_WALK_STEP = 0.05


class FitRejectedError(ValueError):
    """Input ladder does not look like stretched-exponential decay."""


class OrderTooHighError(ValueError):
    """Too few derivative orders were numerically reliable."""


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of y = C * exp(-delta * x**r)."""

    C: float
    delta: float
    r: float
    residual_rms: float
    n_points: int


@dataclass(frozen=True)
class GevreyOrder:
    """Estimated Gevrey order with the evidence that produced it.

    estimate_order_fbi fills ``fit``, the stretched-exponential fit, and
    ``field``, the transform values it was fitted to, and counts the
    ladder points the fit kept; estimate_order_derivatives counts the
    reliable derivative orders and says whether the top ones vanish
    identically (``degenerate``).
    """

    order: float
    fit: FitResult | None = None
    n_points: int = 0
    degenerate: bool = False
    field: FbiField | None = field(default=None, compare=False)  # evidence: not in eq or hash


def make_gevrey_bump(s: float, n: int = 4096) -> SampledFunction:
    """Generate an order-s test function supported in [-1, 1].

    For s > 1 this is exp(-(1+x)^(-1/(s-1))) * exp(-(1-x)^(-1/(s-1))) on
    (-1, 1) and zero outside: flat to infinite order at both endpoints,
    Gevrey of order exactly s there, and in no better class.  For s = 1
    it is a Gaussian of width 1/4 truncated outside [-1, 1]; its
    analytic behavior lives in the interior, since nontrivial analytic
    functions cannot be compactly supported.

    The n samples lie at coords(0) = -3/2 + h * arange(n), h the first
    step of linspace(-3/2, 3/2, n), so quadratures see the function decay
    inside the grid.  At n = 4096, h = 0.00073260073260073, every step of
    coords(0) is exactly h and the last node is 1.4999999999999893.
    """
    if not 1.0 <= s < math.inf:
        raise ValueError(f"Gevrey order must be finite and at least 1, got {s}")
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"need an integer count of at least two samples, got n = {n!r}")
    h, x = _exact_step_axis(-1.5, 1.5, n)
    vals = np.zeros(n)
    if s == 1.0:
        inside = np.abs(x) <= 1.0
        vals[inside] = np.exp(-(x[inside] ** 2) / (2.0 * 0.25**2))
    else:
        theta = 1.0 / (s - 1.0)
        inside = np.abs(x) < 1.0
        xi_ = x[inside]
        # For s just above 1 the powers overflow next to +-1; exp(-inf) = 0
        # is then the bump's exact flat limit.
        with np.errstate(over="ignore"):
            vals[inside] = np.exp(-((xi_ + 1.0) ** -theta) - (1.0 - xi_) ** -theta)
    return SampledFunction((-1.5,), (h,), vals, support_radius=1.0)


def _profile(v: float, lx: np.ndarray, ly: np.ndarray, lymax: float):
    """Best (logd, r) at fixed v and the residuals of the log-space model.

    For fixed v the model log(lymax + e^v - log y) = logd + r log x is a
    straight line in log x, so the least-squares pair comes in closed
    form; r is clamped to [1e-9, 1] and logd to [-200, 200].
    """
    z = np.log(lymax + np.exp(v) - ly)
    lxc = lx - lx.mean()
    r = float(np.clip(np.dot(lxc, z) / np.dot(lxc, lxc), 1e-9, 1.0))
    logd = float(np.clip(np.mean(z - r * lx), -200.0, 200.0))
    return logd, r, z - logd - r * lx


def fit_stretched_exponential(xs, ys) -> FitResult:
    """Fit y = C * exp(-delta * x**r) with r constrained to (0, 1].

    Parameters
    ----------
    xs, ys : array_like
        Increasing positive abscissae and positive ladder values.  At
        least six points are required and the values must span two
        decades and decrease monotonically up to 5 percent slack;
        otherwise the data cannot pin a stretched exponential and
        :class:`FitRejectedError` is raised.  It is raised, too, for a
        degenerate fit, r <= 1e-8 or a C that overflows, which is what
        algebraic or logarithmic decay gives.  A NaN or infinite entry
        in either array raises ValueError before any fitting.

    Notes
    -----
    The model is fitted in log space in the parameterization
    log C = max(log y) + exp(v), which keeps C above the data, with
    v in [-50, 50].  Initialization fits log(-log y) against log x on the
    tail half of the ladder, where the prefactor C is negligible, and
    seeds v from it.  For fixed v the best (log delta, r) is a straight
    line fit (variable projection), which leaves a search in v alone.
    That search is local: the profile also falls toward the degenerate
    C -> infinity ray as v grows, so it walks downhill from the seed in
    steps of 0.05 and then bisects on the sign of the profile's slope,
    which the envelope theorem gives in closed form.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be matching 1d arrays")
    for name, arr in (("abscissae xs", xs), ("ladder values ys", ys)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")
    if len(xs) < 6:
        raise FitRejectedError(f"need at least 6 points, got {len(xs)}")
    if np.any(ys <= 0) or np.any(xs <= 0):
        raise FitRejectedError("ladder values must be positive")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("abscissae must be strictly increasing")
    if np.any(ys[1:] > ys[:-1] * _MONOTONE_SLACK):
        raise FitRejectedError("ladder is not monotone decaying within tolerance")
    if ys.max() < 100.0 * ys.min():
        raise FitRejectedError("ladder spans fewer than two decades")

    lx, ly = np.log(xs), np.log(ys)
    n = len(xs)
    # Init on the tail half, where log(ymax/y) ~ delta * x^r regardless of
    # the overall scale of the ladder.
    drop = np.log(ys.max()) - ly
    tail = np.arange(n // 2, n)
    tail = tail[drop[tail] > 0.05 * drop.max()]
    if len(tail) < 2:
        raise FitRejectedError("no usable decay tail in the ladder")
    design = np.vstack([np.ones(len(tail)), lx[tail]]).T
    (logd0, r0), *_ = np.linalg.lstsq(design, np.log(drop[tail]), rcond=None)
    r0 = float(np.clip(r0, 1e-3, 1.0))
    d0 = float(np.exp(np.clip(logd0, -200.0, 200.0)))

    lymax = float(ly.max())
    v0 = float(np.log(max(float(np.mean(ly + d0 * xs**r0)) - lymax, 1e-3)))

    def cost(v: float) -> float:
        return float(np.sum(_profile(v, lx, ly, lymax)[2] ** 2))

    def slope(v: float) -> float:
        # d cost / dv over 2 e^v: the line is optimal at every v, so only
        # the explicit dependence of log(lymax + e^v - ly) on v counts.
        return float(np.sum(_profile(v, lx, ly, lymax)[2] / (lymax + np.exp(v) - ly)))

    v, here = v0, cost(v0)
    step = _WALK_STEP if cost(v0 + _WALK_STEP) < here else -_WALK_STEP
    while abs(v + step) <= _V_BOUND and (ahead := cost(v + step)) < here:
        v, here = v + step, ahead
    lo, hi = max(v - _WALK_STEP, -_V_BOUND), min(v + _WALK_STEP, _V_BOUND)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    v = 0.5 * (lo + hi)
    logd, r, resid = _profile(v, lx, ly, lymax)

    with np.errstate(over="ignore"):
        C = float(np.exp(lymax + np.exp(v)))
    if not np.isfinite(C) or r <= 1e-8:
        raise FitRejectedError(
            f"degenerate fit (r = {r:.3g}, C = {C:.3g}): the ladder does not "
            "decay like a stretched exponential")
    rms = float(np.sqrt(np.mean(resid**2)))
    return FitResult(C=C, delta=float(np.exp(logd)), r=r, residual_rms=rms, n_points=n)


def prune_decay_floor(freqs, mags):
    """Longest ladder prefix above the relative quadrature floor.

    Finite-precision quadrature bottoms out near peak * 1e-12; points
    below that level measure roundoff, not decay, and would drag the
    fitted stretch exponent toward zero.
    """
    freqs = np.asarray(freqs, dtype=float)
    mags = np.asarray(mags, dtype=float)
    cut = mags.max(initial=-np.inf) * _DECAY_FLOOR
    keep = next((i for i, m in enumerate(mags) if m <= cut), len(mags))
    return freqs[:keep], mags[:keep]


def estimate_order_fbi(
    u: SampledFunction,
    base_point: float,
    gamma: float,
    freqs,
) -> GevreyOrder:
    """Gevrey order from transform decay along a frequency ladder.

    Fits |F u(base_point, xi)| to C exp(-delta xi^r) after discarding the
    roundoff tail and reports order 1/r, with the fit and the field it
    was fitted to.  The window exponent must
    satisfy gamma >= 1/s for order-s decay to be visible; at smaller
    gamma the window itself caps the decay.
    """
    freqs = np.asarray(freqs, dtype=float)
    transform = fbi_field(u, base_point, freqs, gamma)
    kept_x, kept_y = prune_decay_floor(freqs, transform.magnitudes())
    fit = fit_stretched_exponential(kept_x, kept_y)
    return GevreyOrder(order=1.0 / fit.r, fit=fit, n_points=fit.n_points, field=transform)


def fd_weights(order: int, npts: int) -> np.ndarray:
    """Exact central finite-difference weights on integer nodes.

    The weights are derivatives of the Lagrange basis polynomials,
    computed in integer arithmetic, so the only floating error in a
    stencil application is the final rounding of the weights.  ``npts``
    must be odd and exceed ``order`` >= 0.  One table per width gives every
    order on that width and is cached; each call returns a fresh array.
    """
    if npts % 2 != 1 or not 0 <= order < npts:
        raise ValueError("need an order >= 0 and an odd stencil wider than it")
    return np.array(_fd_table(npts)[order])


@functools.lru_cache(maxsize=None)
def _fd_table(npts: int) -> tuple[tuple[float, ...], ...]:
    """Row k: weights of the k-th derivative at 0 on the nodes -m..m,
    m = (npts - 1) // 2, for k = 0..npts-1.

    The weight of node j is l_j^(k)(0) = k! q_k / d_j, where l_j is the
    Lagrange basis polynomial of node j, the integers q_k are the
    coefficients of P(x) / (x - j) for the node polynomial
    P(x) = prod_i (x - i), and d_j = prod_{i != j} (j - i).  Python's
    int / int division rounds correctly, so each weight is its exact
    rational value rounded once.
    """
    m = (npts - 1) // 2
    nodes = range(-m, m + 1)
    poly = [1]  # coefficients of P, constant term first
    for i in nodes:
        poly = [a - i * b for a, b in zip([0] + poly, poly + [0])]
    table = [[0.0] * npts for _ in range(npts)]
    for col, j in enumerate(nodes):
        denom = math.prod(j - i for i in nodes if i != j)
        sign = 1 if denom > 0 else -1  # keeps a zero weight +0.0
        coeff = poly[npts]
        # Synthetic division, highest degree first: q_(k-1) = p_k + j q_k.
        for k in range(npts - 1, -1, -1):
            table[k][col] = sign * math.factorial(k) * coeff / abs(denom)
            coeff = poly[k] + j * coeff
    return tuple(tuple(row) for row in table)


_STRIDES = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)


def _reliable_sup(values: np.ndarray, h: float, order: int, center_mask: np.ndarray):
    """Sup of |f^(order)| at the smallest stride m that agrees with 2m
    within 10 percent, both above four times their roundoff floor; 0.0
    when every stride sits below that floor, None when no pair agrees.

    At stride m the sup runs over the masked centers of the m-dilated
    stencil, and the floor is 64 eps max|u| * sum|w| / (h m)^order; a
    stride counts only when its stencil fits and keeps a center."""
    npts = order + 9 if (order + 9) % 2 == 1 else order + 10
    w = fd_weights(order, npts)
    floor = 64.0 * np.finfo(float).eps * float(np.max(np.abs(values)))
    weight = float(np.sum(np.abs(w)))
    per_stride = {}
    for m in _STRIDES:
        length = len(values) - (npts - 1) * m
        if length <= 0:
            break
        acc = np.zeros(length)
        for j in range(npts):
            acc += w[j] * values[j * m : j * m + length]
        # acc[i] is the stencil starting at sample i; its center sits at
        # sample i + m * (npts - 1) / 2.
        keep = center_mask[np.arange(length) + m * (npts - 1) // 2]
        if np.any(keep):
            scale = (h * m) ** order
            per_stride[m] = (float(np.max(np.abs(acc[keep]))) / scale, floor * (weight / scale))
    if not per_stride:
        return None
    if all(s <= 4.0 * f for s, f in per_stride.values()):
        return 0.0
    for m in sorted(per_stride):
        if 2 * m not in per_stride:
            continue
        s1, f1 = per_stride[m]
        s2, f2 = per_stride[2 * m]
        if s1 <= 4.0 * f1 or s2 <= 4.0 * f2:
            continue
        if abs(s1 - s2) / max(s1, s2) < 0.1:
            return s1
    return None


def estimate_order_derivatives(
    u: SampledFunction,
    x0: float,
    max_order: int = 12,
) -> GevreyOrder:
    """Gevrey order from the growth of derivative sup norms near x0.

    For each order k up to max_order the k-th derivative is estimated by
    exact central stencils at a ladder of grid strides, taking the sup
    over stencil centers within 1/2 of ``x0``.  A value counts as
    reliable when two strides an octave apart agree within 10 percent,
    and as zero when it sits below four times the stencil roundoff
    floor.  The order is the k log k coefficient of a log-linear
    regression through the reliable sup norms, clamped to >= 1.

    Raises
    ------
    OrderTooHighError
        When fewer than five orders are reliable and the top orders are
        not identically zero.
    """
    if u.ndim != 1:
        raise ValueError("derivative growth estimation expects 1d samples")
    if not 1 <= max_order <= 14:
        raise ValueError("max_order must lie in [1, 14]; higher orders drown in noise")
    orders = list(range(1, max_order + 1))
    values = np.asarray(u.values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite samples: the derivative estimator needs finite values")
    h = u.spacing[0]
    center_mask = np.abs(u.coords(0) - float(x0)) <= 0.5
    if not np.any(center_mask):
        raise ValueError("probe point lies outside the sampled grid")
    sups: dict[int, float] = {}
    zero_orders: set[int] = set()
    for k in orders:
        sup = _reliable_sup(values, h, k, center_mask)
        if sup == 0.0:
            zero_orders.add(k)
        elif sup is not None:
            sups[k] = sup

    if len(sups) < 5:
        # Polynomial signature: the top orders vanish identically and no
        # reliable nonzero order sits above the first vanishing one.
        top_zero = (
            bool(zero_orders)
            and max(zero_orders) == orders[-1]
            and not any(k > min(zero_orders) for k in sups)
        )
        if top_zero:
            return GevreyOrder(
                order=1.0,
                n_points=len(sups),
                degenerate=True,
            )
        raise OrderTooHighError(
            f"only {len(sups)} derivative orders were reliable; need 5"
        )

    ks = np.array(sorted(sups), dtype=float)
    logs = np.log([sups[int(k)] for k in ks])
    design = np.vstack([ks * np.log(ks), ks, np.ones_like(ks)]).T
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    order = max(1.0, float(coef[0]))
    return GevreyOrder(order=order, n_points=len(sups))

