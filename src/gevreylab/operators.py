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

the weighted Sobolev norms of the a-priori estimate built from it, and
three numerical checks whose tau-uniformity is the quantitative content
of the theory:

* apriori_norms: the two sides of the a-priori estimate, whose ratio,
  the full weighted second-order norm of f over the weighted norm of
  A_tau f, is bounded uniformly in tau for small rho;
* check_weight_inequality: |tau|^(p/q) (|x|^(p-1) + |x|^(q-1)) <= C w
  on the unit cutoff region, uniformly over |tau| >= 1;
* check_scaling_inequality: lam^(2/m) ||f||^2 <= C(||f'||^2
  + lam^2 int x^(2(m-1)) |f|^2) with C calibrated once at lam = 1.

Every check is a sweep: probe stacks and ladders in, one entry per rung
out.  apriori_norms gives two (rhos, taus, probes) arrays, the scaling
check two (cuts, probes) arrays and the weight check one sup per
magnitude; an empty stack or ladder, or a NaN rung, raises ValueError,
while a finite rung whose numbers overflow is inconclusive
(InconclusiveError).  A probe stack is a sequence of 1d samples on one
grid, such as probe_family returns, held as one (probes, nodes) array.
Work that depends on the grid only is formed once and broadcast over the
probes, and work that depends on the probes only once for every tau, rho
or cut.  A weighted norm is one np.einsum contraction per derivative
order over the node axis, for every (rho, tau) at once on the side of
f, whose squares do not depend on tau, and for every rho at once, one
tau at a time, on the side of A_tau f; the scaling check sums with
np.sum over that axis.  Neither calls BLAS, so each entry is reduced in
one order whatever the thread count or the size of the stack or ladder,
and equals that probe checked alone at that tau, rho or cut.

Convention: x^0 is 1 everywhere including x = 0, so p = 1 terms are
constants, never 0^0 artifacts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sampling import SampledFunction, _exact_step_axis


class ConsistencyError(RuntimeError):
    """An internal cross-check that should always hold has failed."""


class InconclusiveError(RuntimeError):
    """The numerics ran but resolved nothing: no stable exponent intercept,
    a Hermite-Galerkin solve that did not settle or whose matrices left
    the float range, a difference pencil whose Lanczos iteration did not
    converge or whose Sturm count disagrees, or a weight, weighted norm
    or inequality side that left the float range."""


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
    """Dual frequencies (tau1, tau2) of (t1, t2), which freeze L into A_tau.
    The components may be broadcastable arrays, one tau per entry, as
    weight_w reads them; ``magnitude`` takes scalar components only."""

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
    """Anisotropic weight w(x, tau); broadcasts x against tau's components."""
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


def _rungs(name: str, ladder: Sequence) -> list:
    """The rungs of a probe stack or ladder ``name``, which may not be empty."""
    rungs = list(ladder)
    if not rungs:
        raise ValueError(f"{name} is empty: a sweep needs at least one rung")
    return rungs


def _probe_stack(
    probes: Sequence[SampledFunction],
) -> tuple[np.ndarray, np.ndarray, float]:
    """Values (probes, nodes), nodes x and spacing h of a probe stack, a
    sequence of 1d samples on one grid."""
    probes = _rungs("probes", probes)
    if any(g.ndim != 1 for g in probes):
        raise ValueError("expected 1d samples")
    first = probes[0]
    grid = (first.origin, first.spacing, first.values.shape)
    if any((g.origin, g.spacing, g.values.shape) != grid for g in probes):
        raise ValueError("the probes of a stack must share one grid")
    return np.stack([g.values for g in probes]), first.coords(0), first.spacing[0]


def _squared_derivatives(values: np.ndarray, h: float, k: int) -> list[np.ndarray]:
    """|f^(j)|^2 for j = 0..k of ``values``, differentiated along its last
    (node) axis.

    They depend on the probes only, so a sweep over tau forms them once.
    """
    derivs = [values]
    for _ in range(k):
        derivs.append(np.gradient(derivs[-1], h, axis=-1, edge_order=2))
    return [np.abs(d) ** 2 for d in derivs]


def _weighted_norms(squares: list[np.ndarray], x: np.ndarray, h: float,
                    taus: Sequence[DualFrequency], params: OperatorParams,
                    rhos: Sequence[float]) -> np.ndarray:
    """Weighted norm of order k = len(squares) - 1 (apriori_norms defines
    it) of every probe, from its squared derivatives ``squares`` (j =
    0..k, each (1, probes, nodes), shared by every tau) on the nodes x, as
    one (rhos, taus, probes) array.  A NaN tau or rho raises ValueError.

    The density exp(rho |tau|^(p/q) v), (rhos, taus, nodes), and the
    weight w^2, (taus, nodes), are formed once, and each order j is one
    np.einsum contraction of |f^(j)|^2 with density * w^(2(k-1-j)) over
    the node axis.  einsum without ``optimize`` calls no BLAS, so each
    entry is reduced in one order whatever the thread count and the size
    of the stack or ladders.
    """
    if np.isnan([(tau.tau1, tau.tau2) for tau in taus]).any() or np.isnan(rhos).any():
        raise ValueError("the tau and rho ladders must hold numbers, not nan")
    k = len(squares) - 1
    scale = np.array([tau.magnitude**params.exponent_ratio for tau in taus])
    env = np.exp(np.multiply.outer(rhos, scale)[..., None] * _cutoff(x))
    w2 = np.array([weight_w(x, tau, params) for tau in taus]) ** 2
    return h * sum(np.einsum("tpn,rtn->rtp", sq, env * w2 ** (k - 1 - j))
                   for j, sq in enumerate(squares))


def _second_difference(
    values: np.ndarray, axis: int, h: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Centered second difference along one axis, at that axis's interior
    nodes (the result is two shorter along ``axis``), written into
    ``out`` when it is given.  Every operation rounds as in
    (lo - 2 mid + hi) / h^2, so the two forms agree bit for bit."""
    if values.shape[axis] < 6:
        raise ValueError("grid too small: need at least 6 points per axis")
    lo = [slice(None)] * values.ndim
    hi = [slice(None)] * values.ndim
    mid = [slice(None)] * values.ndim
    lo[axis], mid[axis], hi[axis] = slice(0, -2), slice(1, -1), slice(2, None)
    out = np.multiply(values[tuple(mid)], 2.0, out=out)
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
    x = u.coords(0)
    vals = np.asarray(u.values)
    inner = slice(1, -1)
    xp = (x ** (2 * (params.p - 1)))[inner, None, None]
    xq = (x ** (2 * (params.q - 1)))[inner, None, None]
    out = _second_difference(vals[:, inner, inner], 0, u.spacing[0])
    scratch = _second_difference(vals[inner, :, inner], 1, u.spacing[1])
    scratch *= xp
    out += scratch
    _second_difference(vals[inner, inner, :], 2, u.spacing[2], out=scratch)
    scratch *= xq
    out += scratch
    origin = tuple(o + s for o, s in zip(u.origin, u.spacing))
    return SampledFunction(origin, u.spacing, out)


def apply_A_tau(
    f: SampledFunction, tau: DualFrequency, params: OperatorParams
) -> SampledFunction:
    """Apply the frozen operator A_tau = d^2/dx^2 - potential on 1d samples.

    The result stays on the input grid and its two boundary points are NaN
    (no centered difference exists there), so callers slice
    ``.values[1:-1]`` for the interior, as the acceptance gate does.
    """
    (values,), x, h = _probe_stack([f])
    out = np.full_like(values, np.nan)
    out[1:-1] = _second_difference(values, -1, h)
    out[1:-1] -= _potential(x[1:-1], tau, params) * values[1:-1]
    return SampledFunction(f.origin, f.spacing, out)


def probe_family(seed: int = 42) -> list[SampledFunction]:
    """Reproducible family of 100 Gaussian probes for constant calibration.

    Centers are uniform in [-1/2, 1/2], widths uniform in [0.05, 0.5];
    the 4001-node grid from -3 is wide enough that every probe is
    negligible at the ends.  Its spacing is the first step of
    linspace(-3, 3, 4001), 0.0015000000000000568; every step of
    coords(0) is exactly that spacing, and the last node is
    3.0000000000002274.  All probes share that grid, so the family
    is a probe stack: apriori_norms and check_scaling_inequality take it
    whole and return one value per probe.  Each probe holds a row view
    of one (probes, nodes) buffer, filled in place at the probes' coords
    with no temporaries.
    """
    count, half_width, n = 100, 3.0, 4001
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-0.5, 0.5, size=count)
    widths = rng.uniform(0.05, 0.5, size=count)
    h, x = _exact_step_axis(-half_width, half_width, n)
    values = np.subtract(x, centers[:, None])
    np.square(values, out=values)
    np.negative(values, out=values)
    np.divide(values, 2.0 * widths[:, None] ** 2, out=values)
    np.exp(values, out=values)
    return [SampledFunction((-half_width,), (h,), row, support_radius=half_width)
            for row in values]


def apriori_norms(
    probes: Sequence[SampledFunction],
    taus: Sequence[DualFrequency],
    params: OperatorParams,
    rhos: Sequence[float] = (0.0,),
) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of the a-priori estimate: (||f||_(2,tau)^2,
    ||A_tau f||_(0,tau)^2), squared weighted norms, both (rhos, taus,
    probes) arrays.

    The weighted norm of order k sums |f^(j)|^2 w^(2(k-1-j)) for j = 0..k
    against the density exp(rho |tau|^(p/q) v(x)) dx, where the cutoff v
    is 0 on |x| <= 1/4, 1 on |x| >= 1 and a quintic smoothstep in
    between.  The top derivative is measured against w^(-2) and each
    lower one trades for one power of w:

        k=0:  |f|^2 w^(-2)
        k=2:  |f''|^2 w^(-2) + |f'|^2 + |f|^2 w^2

    The probes' derivatives and second difference are formed once.
    A_tau f is measured on the interior nodes only (apply_A_tau leaves
    its one-cell boundary layer NaN), one tau at a time in one reused
    (probes, nodes - 2) buffer, for every rho at once.  A norm on either
    side that leaves the float range, at any rho of the ladder, raises
    InconclusiveError, and a vanishing image norm, which leaves the
    ratio undefined, raises ValueError.
    """
    taus, rhos = _rungs("taus", taus), _rungs("rhos", rhos)
    values, x, h = _probe_stack(probes)
    # The guard below reports an overflow; numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        stack = values[None]
        num = _weighted_norms(_squared_derivatives(stack, h, 2), x, h, taus, params, rhos)
        curvature = _second_difference(stack, -1, h)
        image = np.empty_like(curvature)
        den = np.empty_like(num)
        for i, tau in enumerate(taus):
            np.multiply(_potential(x[1:-1], tau, params), values[:, 1:-1], out=image)
            np.subtract(curvature, image, out=image)
            den[:, [i]] = _weighted_norms([np.abs(image) ** 2], x[1:-1], h, [tau], params, rhos)
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
        raise InconclusiveError("a weighted norm of the a-priori estimate is not finite: "
                                "it leaves the float range on this tau and rho ladder")
    if np.any(den == 0.0):
        raise ValueError("A_tau f vanishes; the a-priori ratio is undefined")
    return num, den


def check_weight_inequality(params: OperatorParams, magnitudes: Sequence[float]) -> np.ndarray:
    """Sup of |tau|^(p/q) (|x|^(p-1) + |x|^(q-1)) / w(x, tau), one per
    tau magnitude of the ladder.

    Sampled at 401 points x in the unit cutoff region [-1, 1] and 16 tau
    directions on a quarter circle (w is even in each component), the
    directions as one DualFrequency of (16, 1) components, so each
    magnitude takes one weight_w call.  Uniform boundedness over
    |tau| >= 1 is the pointwise weight inequality the norms depend on.
    A weight that leaves the float range raises InconclusiveError.
    """
    x = np.linspace(-1.0, 1.0, 401)
    # x^0 == 1 by convention, including at x = 0.
    numerator_x = np.abs(x) ** (params.p - 1) + np.abs(x) ** (params.q - 1)
    angles = np.linspace(0.0, np.pi / 2.0, 16)[:, None]
    sups = []
    for mag in _rungs("magnitudes", magnitudes):
        if not mag >= 1.0:  # nan too
            raise ValueError(f"weight inequality is asserted for |tau| >= 1, got {mag}")
        # The guard below reports an overflow; numpy need not warn of it.
        with np.errstate(over="ignore", invalid="ignore"):
            w = weight_w(x, DualFrequency(mag * np.cos(angles), mag * np.sin(angles)), params)
        if not np.all(np.isfinite(w)):
            raise InconclusiveError(f"the weight w(x, tau) leaves the float range "
                                    f"at |tau| = {mag:g}")
        ratio = mag**params.exponent_ratio * numerator_x / w
        sups.append(float(ratio.max()))
    return np.array(sups)


@functools.lru_cache(maxsize=None)
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
    m = 2 (harmonic); higher m takes it from the (1, m) profile pencil's
    finite-difference oracle, eigen.reference_eigenvalues, certified by
    a Sturm count.
    """
    if m < 1 or not float(m).is_integer():
        raise ValueError(f"scaling order m must be a positive integer, got {m}")
    m = int(m)
    from .eigen import reference_eigenvalues  # eigen imports this module

    ground = 1.0 if m <= 2 else reference_eigenvalues(OperatorParams(1, m), 1)[0]
    sharp = 1.0 / float(ground)
    return sharp if m == 1 else 1.001 * sharp


def check_scaling_inequality(
    probes: Sequence[SampledFunction],
    cuts: Sequence[float],
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate both sides of lam^(2/m) ||f||^2 <= C (||f'||^2 + lam^2 b).

    Returns (lhs, rhs), two (cuts, probes) arrays, with the per-order
    constant folded into rhs.  The three quadratures depend on the probes
    and m only, so they are formed once for every cut.  They use the
    probes' own grid, so rescaled inputs (same values, scaled spacing)
    reproduce the continuum scaling identity exactly.  A side that leaves
    the float range raises InconclusiveError.
    """
    cuts = np.array(_rungs("cuts", cuts), dtype=float)
    if not cuts.min() > 0:  # nan too
        raise ValueError(f"scaling parameter must be positive, got {cuts.min()}")
    values, x, h = _probe_stack(probes)
    # ||f||^2, ||f'||^2 and int x^(2(m-1)) |f|^2 of each probe.
    density, slope = _squared_derivatives(values, h, 1)
    n0 = np.sum(density, axis=-1) * h
    a = np.sum(slope, axis=-1) * h
    b = np.sum(density * x ** (2 * (m - 1)), axis=-1) * h
    c = scaling_constant(m)
    # Each cut is a numpy scalar, so lam^(2/m) and lam^2 overflow to inf,
    # which the guard below reports, where a Python float would raise.
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.array([cut ** (2.0 / m) * n0 for cut in cuts])
        rhs = np.array([c * (a + cut**2 * b) for cut in cuts])
    if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
        raise InconclusiveError("a side of the scaling inequality leaves the float range "
                                "on this ladder of cuts")
    return lhs, rhs
