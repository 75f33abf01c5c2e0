"""Degenerate operator machinery and uniform-inequality checks.

The central object is the sum-of-squares operator

    L = d^2/dx^2 + x^(2(p-1)) d^2/dt1^2 + x^(2(q-1)) d^2/dt2^2

for integers 1 <= p <= q, whose coefficients vanish at x = 0 when
p, q > 1.  Taking a Fourier mode in (t1, t2) with dual frequencies
tau = (tau1, tau2) freezes L into the ordinary differential operator

    A_tau = d^2/dx^2 - tau1^2 x^(2(p-1)) - tau2^2 x^(2(q-1)),

and the regularity theory rests on estimates for A_tau that hold
uniformly in tau.  This module provides the discretized operators, the
anisotropic weight

    w(x, tau)^2 = (tau1^2)^(1/p) + tau1^2 x^(2(p-1))
                + (tau2^2)^(1/q) + tau2^2 x^(2(q-1)),

the weighted Sobolev norms built from it, and three numerical checks
whose tau-uniformity is the quantitative content of the theory:

* check_apriori: the full weighted second-order norm of f is controlled
  by the weighted norm of A_tau f, with a constant uniform in tau
  (apriori_norms gives the two sides of that ratio);
* check_weight_inequality: |tau|^(p/q) (|x|^(p-1) + |x|^(q-1)) <= C w
  on the unit cutoff region, uniformly over |tau| >= 1;
* check_scaling_inequality: lam^(2/m) ||f||^2 <= C(||f'||^2
  + lam^2 int x^(2(m-1)) |f|^2) with C calibrated once at lam = 1.

The norms and the a-priori and scaling checks take a probe stack: a
sequence of 1d samples on one grid, such as probe_family returns, held
as one (probes, nodes) array.  What depends on the grid only (weight,
density, potential) is formed once per call and broadcast over the
probes, and every quadrature sums over the contiguous node axis, so each
row equals that probe checked alone.  A single 1d sample is the stack of
one and gives floats.  Likewise the norms and the a-priori check take a
tau ladder, and the scaling check a ladder of cuts: what depends on the
probes only (derivatives, second difference) is formed once for every
rung.

Convention: x^0 is 1 everywhere including x = 0, so p = 1 terms are
constants, never 0^0 artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sampling import SampledFunction


class ConsistencyError(RuntimeError):
    """An internal cross-check that should always hold has failed."""


class InconclusiveError(RuntimeError):
    """The numerics ran but resolved nothing: no stable exponent intercept,
    no eigenpair of a p < q pencil that passed the filters, or a weighted
    norm that left the float range."""


@dataclass(frozen=True)
class OperatorParams:
    """Exponent pair (p, q) of the degenerate operator, 1 <= p <= q."""

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise TypeError("exponents p, q must be integers")
        if not 1 <= self.p <= self.q:
            raise ValueError("exponents must satisfy 1 <= p <= q")

    @property
    def exponent_ratio(self) -> float:
        """p/q, the homogeneity exponent pairing |tau| with the weight."""
        return self.p / self.q

    @property
    def optimal_order(self) -> float:
        """q/p, the regularity threshold the laboratory reproduces."""
        return self.q / self.p


@dataclass(frozen=True)
class DualFrequency:
    """Dual frequencies (tau1, tau2) of (t1, t2), which freeze L into A_tau."""

    tau1: float
    tau2: float

    @property
    def magnitude(self) -> float:
        return float(np.hypot(self.tau1, self.tau2))


_FLAT_RADIUS = 0.25
_FULL_RADIUS = 1.0


def _cutoff(x: np.ndarray) -> np.ndarray:
    """Cutoff v of the norms' weight exp(rho |tau|^(p/q) v(x)): a quintic
    smoothstep, 0 on |x| <= 1/4 and 1 on |x| >= 1, monotone in between."""
    t = np.clip((np.abs(x) - _FLAT_RADIUS) / (_FULL_RADIUS - _FLAT_RADIUS), 0.0, 1.0)
    return t**3 * (10.0 + t * (-15.0 + 6.0 * t))


def weight_w(x, tau: DualFrequency, params: OperatorParams) -> np.ndarray:
    """Anisotropic weight w(x, tau); vectorizes over x."""
    x = np.asarray(x, dtype=float)
    # numpy squares overflow to inf where Python floats would raise.
    t1sq, t2sq = np.square(tau.tau1), np.square(tau.tau2)
    total = (
        t1sq ** (1.0 / params.p)
        + t1sq * x ** (2 * (params.p - 1))
        + t2sq ** (1.0 / params.q)
        + t2sq * x ** (2 * (params.q - 1))
    )
    return np.sqrt(total)


def _potential(x: np.ndarray, tau: DualFrequency, params: OperatorParams) -> np.ndarray:
    t1sq, t2sq = np.square(tau.tau1), np.square(tau.tau2)
    return t1sq * x ** (2 * (params.p - 1)) + t2sq * x ** (2 * (params.q - 1))


def _probe_stack(
    f: SampledFunction | Sequence[SampledFunction],
) -> tuple[np.ndarray, np.ndarray, float]:
    """Values (probes, nodes), nodes x and spacing h of a probe stack.

    A probe stack is a sequence of 1d samples on one grid; a single 1d
    sample is read as the stack of one.
    """
    probes = (f,) if isinstance(f, SampledFunction) else tuple(f)
    if not probes:
        raise ValueError("a probe stack needs at least one probe")
    if any(g.ndim != 1 for g in probes):
        raise ValueError("expected 1d samples")
    first = probes[0]
    grid = (first.origin, first.spacing, first.values.shape)
    if any((g.origin, g.spacing, g.values.shape) != grid for g in probes):
        raise ValueError("the probes of a stack must share one grid")
    return np.stack([g.values for g in probes]), first.coords(0), first.spacing[0]


def _per_probe(f: SampledFunction | Sequence[SampledFunction], values: np.ndarray):
    """``values`` with its last, per-probe axis dropped for a single
    sample, and a float where nothing else is left."""
    if not isinstance(f, SampledFunction):
        return values
    one = values[..., 0]
    return float(one) if one.ndim == 0 else one


def _per_tau(
    f: SampledFunction | Sequence[SampledFunction],
    tau: DualFrequency | Sequence[DualFrequency],
    rows: list[np.ndarray],
):
    """Per-tau ``rows`` of per-probe values as one (taus, probes) array,
    less the axis a single tau or a single sample does not have."""
    values = np.array(rows)
    return _per_probe(f, values[0] if isinstance(tau, DualFrequency) else values)


def _squared_derivatives(values: np.ndarray, h: float, k: int) -> list[np.ndarray]:
    """|f^(j)|^2 for j = 0..k of every row of ``values`` (probes, nodes).

    They depend on the probes only, so a sweep over tau forms them once.
    """
    derivs = [values]
    for _ in range(k):
        derivs.append(np.gradient(derivs[-1], h, axis=-1, edge_order=2))
    return [np.abs(d) ** 2 for d in derivs]


def _weighted_norms(
    squares: list[np.ndarray],
    x: np.ndarray,
    h: float,
    tau: DualFrequency,
    params: OperatorParams,
    rho: float,
) -> np.ndarray:
    """htau_norm of order k = len(squares) - 1 of every probe, from its
    squared derivatives ``squares`` (j = 0..k, each (probes, nodes)) on
    the nodes x.

    The weight and the density depend on the grid only, so they are
    formed once on x and broadcast over the probes; each sum runs over
    the contiguous last axis.
    """
    k = len(squares) - 1
    w2 = weight_w(x, tau, params) ** 2
    env = np.exp(rho * tau.magnitude**params.exponent_ratio * _cutoff(x))
    total = np.zeros(squares[0].shape)
    for j, sq in enumerate(squares):
        total += sq * np.power(w2, k - 1 - j)
    return np.sum(total * env, axis=-1) * h


def htau_norm(
    f: SampledFunction | Sequence[SampledFunction],
    k: int,
    tau: DualFrequency | Sequence[DualFrequency],
    params: OperatorParams,
    rho: float = 0.0,
) -> float | np.ndarray:
    """Squared weighted Sobolev norm of order k in {0, 1, 2}.

    The k-th norm sums |f^(j)|^2 w^(2(k-1-j)) for j = 0..k against the
    density exp(rho |tau|^(p/q) v(x)) dx, where the cutoff v is 0 on
    |x| <= 1/4, 1 on |x| >= 1 and a quintic smoothstep in between.  The
    top derivative is always measured against w^(-2) and each derivative
    trades for one power of w:

        k=0:  |f|^2 w^(-2)
        k=1:  |f'|^2 w^(-2) + |f|^2
        k=2:  |f''|^2 w^(-2) + |f'|^2 + |f|^2 w^2

    ``f`` is one 1d sample or a probe stack on one grid, and ``tau`` one
    dual frequency or a ladder of them; the derivatives depend on f only,
    so they are formed once for every tau.  The result has the shape
    (taus, probes), less the axis a single tau or a single sample does
    not have: one sample at one tau gives a float.
    """
    if k not in (0, 1, 2):
        raise ValueError("norm order k must be 0, 1, or 2")
    values, x, h = _probe_stack(f)
    squares = _squared_derivatives(values, h, k)
    taus = [tau] if isinstance(tau, DualFrequency) else list(tau)
    return _per_tau(f, tau, [_weighted_norms(squares, x, h, t, params, rho) for t in taus])


def _second_difference(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centered second difference along one axis, at that axis's interior
    nodes (the result is two shorter along ``axis``)."""
    lo = [slice(None)] * values.ndim
    hi = [slice(None)] * values.ndim
    mid = [slice(None)] * values.ndim
    lo[axis], mid[axis], hi[axis] = slice(0, -2), slice(1, -1), slice(2, None)
    out = 2.0 * values[tuple(mid)]  # (lo - 2 mid + hi) / h^2 in one buffer
    np.subtract(values[tuple(lo)], out, out=out)
    out += values[tuple(hi)]
    out /= h**2
    return out


def apply_L(u: SampledFunction, params: OperatorParams) -> SampledFunction:
    """Apply the degenerate operator on a 3D grid (axes x, t1, t2).

    Centered second differences per axis, on the interior nodes only: the
    one-cell boundary layer cannot be differenced, so the result's grid
    starts one spacing further along each axis and is two nodes shorter
    per axis.
    """
    if u.ndim != 3:
        raise ValueError("the operator acts on 3d samples (x, t1, t2)")
    if any(n < 6 for n in u.values.shape):
        raise ValueError("grid too small: need at least 6 points per axis")
    x = u.coords(0)
    vals = np.asarray(u.values)
    inner = slice(1, -1)
    xp = (x ** (2 * (params.p - 1)))[inner, None, None]
    xq = (x ** (2 * (params.q - 1)))[inner, None, None]
    out = _second_difference(vals[:, inner, inner], 0, u.spacing[0])
    out += xp * _second_difference(vals[inner, :, inner], 1, u.spacing[1])
    out += xq * _second_difference(vals[inner, inner, :], 2, u.spacing[2])
    origin = tuple(o + s for o, s in zip(u.origin, u.spacing))
    return SampledFunction(origin, u.spacing, out)


def _frozen_images(
    values: np.ndarray, x: np.ndarray, h: float, taus: Sequence[DualFrequency],
    params: OperatorParams,
) -> list[np.ndarray]:
    """A_tau applied to every row of ``values`` (probes, nodes), at the
    interior nodes x[1:-1], for each tau of ``taus``; the second
    difference depends on the probes only and is taken once."""
    if values.shape[-1] < 6:
        raise ValueError("grid too small: need at least 6 points")
    curvature = _second_difference(values, -1, h)
    return [curvature - _potential(x[1:-1], tau, params) * values[:, 1:-1] for tau in taus]


def apply_A_tau(
    f: SampledFunction, tau: DualFrequency, params: OperatorParams
) -> SampledFunction:
    """Apply the frozen operator A_tau = d^2/dx^2 - potential on 1d samples.

    The result stays on the input grid and its two boundary points are NaN
    (no centered difference exists there), so callers slice
    ``.values[1:-1]`` for the interior, as the acceptance gate does.
    """
    values, x, h = _probe_stack(f)
    out = np.full_like(f.values, np.nan)
    out[1:-1] = _frozen_images(values, x, h, [tau], params)[0][0]
    return SampledFunction(f.origin, f.spacing, out)


def probe_family(seed: int = 42) -> list[SampledFunction]:
    """Reproducible family of 100 Gaussian probes for constant calibration.

    Centers are uniform in [-1/2, 1/2], widths uniform in [0.05, 0.5];
    the 4001-node grid on [-3, 3] is wide enough that every probe is
    negligible at the ends.  All probes share that grid, so the family
    is a probe stack: apriori_norms and check_scaling_inequality take it
    whole and return one value per probe.
    """
    count, half_width, n = 100, 3.0, 4001
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-0.5, 0.5, size=count)
    widths = rng.uniform(0.05, 0.5, size=count)
    x = np.linspace(-half_width, half_width, n)
    out = []
    for c, s in zip(centers, widths):
        vals = np.exp(-((x - c) ** 2) / (2.0 * s**2))
        out.append(
            SampledFunction((x[0],), (x[1] - x[0],), vals, support_radius=half_width)
        )
    return out


def apriori_norms(
    f: SampledFunction | Sequence[SampledFunction],
    tau: DualFrequency | Sequence[DualFrequency],
    params: OperatorParams,
    rho: float = 0.0,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """The two sides of the a-priori estimate: (||f||_(2,tau)^2,
    ||A_tau f||_(0,tau)^2), both squared norms as htau_norm forms them.

    A_tau f is measured on the interior nodes only: its one-cell
    boundary layer, which apply_A_tau leaves NaN, is sliced off.  ``f``
    and ``tau`` are read and both sides shaped as in htau_norm: one
    sample at one tau gives two floats, a probe stack over a tau ladder
    two (taus, probes) arrays.  A norm on either side that leaves the
    float range raises InconclusiveError, and a vanishing image norm,
    which leaves the ratio undefined, raises ValueError.
    """
    taus = [tau] if isinstance(tau, DualFrequency) else list(tau)
    values, x, h = _probe_stack(f)
    # The guard below reports an overflow; numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        images = _frozen_images(values, x, h, taus, params)
        # The image's grid starts at x[1] and is laid out as SampledFunction
        # lays out its nodes, which can differ from x[1:-1] in the last bit.
        x_image = x[1] + h * np.arange(len(x) - 2)
        image_norms = [
            _weighted_norms([np.abs(image) ** 2], x_image, h, t, params, rho)
            for t, image in zip(taus, images)
        ]
        num, den = htau_norm(f, 2, tau, params, rho), _per_tau(f, tau, image_norms)
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
        raise InconclusiveError("a weighted norm of the a-priori estimate is not finite: "
                                "it leaves the float range on this tau ladder")
    if np.any(den == 0.0):
        raise ValueError("A_tau f vanishes; the a-priori ratio is undefined")
    return num, den


def check_apriori(
    f: SampledFunction | Sequence[SampledFunction],
    tau: DualFrequency | Sequence[DualFrequency],
    params: OperatorParams,
    rho: float = 0.0,
) -> float | np.ndarray:
    """Ratio ||f||_(2,tau)^2 / ||A_tau f||_(0,tau)^2 of apriori_norms.

    The a-priori estimate says this ratio is bounded uniformly in tau
    for small rho, the exponent of the norms' weight exp(rho |tau|^(p/q)
    v(x)); the acceptance gate sweeps it over a probe family and a tau
    ladder and watches the spread.  ``f`` and ``tau`` are read and the
    ratios shaped as in htau_norm: one per (tau, probe), a float for one
    sample at one tau.  apriori_norms raises for norms it cannot divide.
    """
    num, den = apriori_norms(f, tau, params, rho)
    return num / den


def check_weight_inequality(params: OperatorParams, tau_ladder) -> float:
    """Sup of |tau|^(p/q) (|x|^(p-1) + |x|^(q-1)) / w(x, tau).

    Sampled at 401 points x in the unit cutoff region [-1, 1], tau
    magnitudes from the ladder, and 16 tau directions on a quarter
    circle (w is even in each component).  Uniform boundedness over
    |tau| >= 1 is the pointwise weight inequality the norms depend on.
    """
    x = np.linspace(-1.0, 1.0, 401)
    # x^0 == 1 by convention, including at x = 0.
    numerator_x = np.abs(x) ** (params.p - 1) + np.abs(x) ** (params.q - 1)
    angles = np.linspace(0.0, np.pi / 2.0, 16)
    sup = 0.0
    for mag in tau_ladder:
        if mag < 1.0:
            raise ValueError("weight inequality is asserted for |tau| >= 1")
        for theta in angles:
            tau = DualFrequency(mag * np.cos(theta), mag * np.sin(theta))
            ratio = mag**params.exponent_ratio * numerator_x / weight_w(x, tau, params)
            sup = max(sup, float(ratio.max()))
    return sup


def _scaling_terms(
    values: np.ndarray, x: np.ndarray, h: float, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-probe (||f||^2, ||f'||^2, int x^(2(m-1)) |f|^2) of the rows of
    ``values`` (probes, nodes) on the nodes x."""
    density, slope = _squared_derivatives(values, h, 1)
    n0 = np.sum(density, axis=-1) * h
    a = np.sum(slope, axis=-1) * h
    b = np.sum(density * x ** (2 * (m - 1)), axis=-1) * h
    return n0, a, b


_scaling_constants: dict[int, float] = {}


def scaling_constant(m: int) -> float:
    """Constant for the scaling inequality, fixed once per order m.

    At lam = 1 the inequality is the spectral bound ||g||^2 <=
    C (||g'||^2 + int y^(2(m-1)) |g|^2) whose sharp constant is the
    reciprocal ground energy of the associated oscillator; the general
    lam reduces to lam = 1 under x -> lam^(1/m) x with both sides in
    exact balance, so one constant serves every cut.  No finite probe
    family can stand in for that constant: the oscillator ground state
    itself beats any family of non-extremal probes.  Because the
    extremal saturates the bound, orders m >= 2 get 0.1 percent of
    headroom over the sharp constant so the discrete quadratures of
    the check cannot tip a saturated case over; for m = 1 the gradient
    term only ever helps and the sharp constant is discretely safe.

    The ground energy is exactly 1 for m = 1 (constant potential) and
    m = 2 (harmonic); higher m takes it from the eigenvalue oracle.
    """
    if m < 1:
        raise ValueError("scaling order m must be a positive integer")
    if m not in _scaling_constants:
        from .eigen import reference_eigenvalues  # eigen imports this module

        ground = 1.0 if m <= 2 else reference_eigenvalues(OperatorParams(1, m), 1)[0]
        sharp = 1.0 / float(ground)
        _scaling_constants[m] = sharp if m == 1 else 1.001 * sharp
    return _scaling_constants[m]


def check_scaling_inequality(
    f: SampledFunction | Sequence[SampledFunction],
    lam: float | Sequence[float],
    m: int,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Evaluate both sides of lam^(2/m) ||f||^2 <= C (||f'||^2 + lam^2 b).

    Returns (lhs, rhs) with the per-order constant folded into rhs.
    ``f`` is one 1d sample or a probe stack on one grid, and ``lam`` one
    cut or a ladder of cuts; the three quadratures depend on f and m
    only, so they are formed once for every cut.  Each side has the
    shape (cuts, probes), less the axis a single cut or a single sample
    does not have: one sample at one cut gives two floats.  The
    quadratures use f's own grid, so rescaled inputs (same values,
    scaled spacing) reproduce the continuum scaling identity exactly.
    """
    cuts = [float(c) for c in np.ravel(lam)]
    if min(cuts) <= 0:
        raise ValueError("scaling parameter must be positive")
    values, x, h = _probe_stack(f)
    n0, a, b = _scaling_terms(values, x, h, m)
    c = scaling_constant(m)
    # Python floats keep lam^(2/m) the scalar pow of a single cut.
    lhs = np.array([cut ** (2.0 / m) * n0 for cut in cuts])
    rhs = np.array([c * (a + cut**2 * b) for cut in cuts])
    if np.ndim(lam) == 0:
        lhs, rhs = lhs[0], rhs[0]
    return _per_probe(f, lhs), _per_probe(f, rhs)
