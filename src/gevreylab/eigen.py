"""Nonlinear eigenproblem, exact kernel family, and the optimal exponent.

The hypoellipticity threshold is exhibited by explicit kernel elements.
A real number z and a Schwartz-decaying profile f solving

    f'' - x^(2(q-1)) f + z x^(2(p-1)) f = 0

("nonlinear eigenvalue problem": z multiplies the non-identity weight
x^(2(p-1))) generate, for every lam >= 1, the exact kernel element

    F_lam(x, t1, t2) = exp(i lam t2) exp(lam^(p/q) w t1) f(lam^(1/q) x),

with w a fixed square root of z.  Differentiating F_lam N times in t2
at the origin grows like lam^N while sup |F_lam| on a fixed box grows
only like exp(C lam^(p/q)); setting lam = N^(q/p) and comparing against
the derivative bound C^(N+1) N^(sN) of an order-s function forces
s >= q/p.  The per-row exponent

    s*(N) = [log lhs - log sup - N log B0] / (N log(N + 1))

then converges to q/p like 1/log N, and a linear regression of s*
against 1/log(N+1) reads off the limit as its intercept.  (log(N+1)
rather than log N keeps the N = 1 row finite; the substitution changes
individual rows at order 1/log N but not the extrapolated intercept.)

Discretization: the profile equation is the generalized symmetric
pencil (-D^2 + x^(2(q-1))) f = z x^(2(p-1)) f.  The mass weight
x^(2(p-1)) vanishes at x = 0 for p > 1, so the grid is staggered: an
even number n of nodes x_j = (j + 1/2 - n/2) h, exactly symmetric about
the origin and never on it, keeping every node weight positive.  The
pencil is solved by shift-invert Lanczos at sigma = 0.  The default
extent is the Agmon distance at which the highest requested mode has
decayed by e^-40 past its turning point, with that mode's eigenvalue
estimated by Bohr-Sommerfeld quantization (a closed-form Beta-function
action).  Spurious pencil modes are removed by three filters: equation
residual, eigenvalue drift between spacings h and h/2, and Schwartz tail
decay on the grid.  An independent oracle (Sturm bisection of the
symmetric tridiagonal matrix M^(-1/2) S M^(-1/2) on its own window, at
two spacings with Richardson extrapolation) exists for cross-validation
in reference_eigenvalues.

For p = q no Schwartz solution exists (the equation collapses to a
constant-coefficient one) and the solver correctly returns an empty
list.  For p < q profiles always exist, so a search in which the
filters reject every mode is a grid failure and raises
InconclusiveError.

scipy is imported per use, inside the one function that needs each
module (scipy.special in default_grid, scipy.sparse in the pencil
solve, scipy.linalg in reference_eigenvalues, scipy.interpolate in the
profile spline), so importing the package and its CLI loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (ConsistencyError, InconclusiveError, OperatorParams,
                        _second_difference, apply_L)
from .sampling import SampledFunction


class ResampleError(ValueError):
    """Requested evaluation exceeds the stored profile's grid extent."""


class DegenerateOriginError(ValueError):
    """Both |f(0)| and |f'(0)| vanish; the growth probe needs parity analysis."""


@dataclass(frozen=True)
class GridSpec:
    """Staggered grid on [-half_width, half_width] with the given spacing."""

    half_width: float
    spacing: float

    def __post_init__(self):
        if not (0 < self.half_width < math.inf and 0 < self.spacing < math.inf):
            raise ValueError("grid extent and spacing must be positive and finite")
        if self.half_width / self.spacing < 8:
            raise ValueError("grid too small for a second-order solve")

    @property
    def size(self) -> int:
        """Node count, even so that the nodes straddle x = 0 symmetrically."""
        return 2 * int(round(self.half_width / self.spacing))

    def nodes(self) -> np.ndarray:
        # Centred on n h / 2 rather than on half_width, so the nodes are
        # exactly antisymmetric even when 2 X / h is not an integer.
        return (np.arange(self.size) + 0.5 - self.size / 2) * self.spacing

    def refined(self) -> "GridSpec":
        """The same window at half the spacing (the solver's fine grid)."""
        return GridSpec(self.half_width, self.spacing / 2.0)


@dataclass(frozen=True)
class Eigenpair:
    """Solution (z, f) of the profile equation with solver diagnostics.

    ``w`` is the principal square root of z; ``residual`` the equation
    residual of the stored samples; ``grid_stability`` the relative
    eigenvalue drift between the h and h/2 solves.
    """

    z: float
    w: complex
    f: SampledFunction
    residual: float
    grid_stability: float


@dataclass(frozen=True)
class GrowthRow:
    """One rung of the log-space derivative-growth ladder, at lam = N^(q/p);
    the probe order k is the caller's argument to growth_table."""

    N: int
    lam: float
    log_lhs: float
    log_sup: float
    s_star: float


#: Decay, in units of e-folds past the turning point, that the default
#: grid resolves for the highest requested mode: e^-40 ~ 4e-18 lies far
#: below both the 1e-14 profile truncation and the 1e-6 tail filter.
_AGMON_DECAY = 40.0
#: Coarse spacing of the default grid; the solver also uses half of it.
_DEFAULT_SPACING = 2e-3


def _modes_requested(count: int) -> int:
    """Modes the pencil solve asks for, a margin above those it keeps."""
    return max(count + 4, 8)


def default_grid(params: OperatorParams, *, count: int = 4) -> GridSpec:
    """Spacing 2e-3 and the Agmon extent: the highest mode requested for
    ``count`` pairs has decayed by e^-40.

    Write a = 2(q-1), b = 2(p-1) and c = a - b.  A mode of eigenvalue z
    turns at x_t = z^(1/c) and decays past it like exp(-A(x)) with the
    Agmon distance A(x) = int_(x_t)^x sqrt(y^a - z y^b) dy.  The highest
    mode that solve_nonlinear_eigen requests for ``count`` pairs, n, is
    placed by Bohr-Sommerfeld quantization

        2 int_0^(x_t) sqrt(z y^b - y^a) dy = (n + 1/2) pi,

    whose left side is 2 x_t^q B(p/c, 3/2) / c in closed form.  In units
    u = y / x_t the distance is x_t^q int_1^U u^(b/2) sqrt(u^c - 1) du,
    and the half-width is x_t U for the smallest U at which that reaches
    40.  Bernoulli's inequality bounds the integrand below by
    sqrt(c (u - 1)), which brackets U for a fixed-node sum.

    For p = q there is no Schwartz solution (the solver returns early);
    a fixed window documents the empty search honestly.
    """
    if params.p == params.q:
        return GridSpec(30.0, _DEFAULT_SPACING)
    from scipy.special import beta

    c = 2 * (params.q - params.p)
    top = _modes_requested(count) - 1
    turn_q = (top + 0.5) * math.pi * c / (2.0 * beta(params.p / c, 1.5))
    target = _AGMON_DECAY / turn_q
    u = 1.0 + np.linspace(0.0, (1.5 * target / math.sqrt(c)) ** (2.0 / 3.0), 4097)
    rate = u ** (params.p - 1) * np.sqrt(u**c - 1.0)
    dist = np.concatenate(([0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(u))))
    reach = float(u[np.searchsorted(dist, target)])
    return GridSpec(float(turn_q ** (1.0 / params.q) * reach), _DEFAULT_SPACING)


def _profile_residual(x: np.ndarray, h: float, vals: np.ndarray, z: float,
                      params: OperatorParams) -> float:
    """Relative equation residual via centered differences, interior only."""
    d2 = _second_difference(vals, 0, h)
    xc = x[1:-1]
    r = d2 - xc ** (2 * (params.q - 1)) * vals[1:-1] + z * xc ** (
        2 * (params.p - 1)
    ) * vals[1:-1]
    return float(np.linalg.norm(r) / np.linalg.norm(vals))


def _pencil_solve(params: OperatorParams, grid: GridSpec, k: int):
    """Eigenvalues/vectors of (-D^2 + x^(2(q-1))) f = z x^(2(p-1)) f."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh

    x = grid.nodes()
    h = grid.spacing
    n = len(x)
    diag = 2.0 / h**2 + x ** (2 * (params.q - 1))
    off = np.full(n - 1, -1.0 / h**2)
    stiff = sp.diags([off, diag, off], [-1, 0, 1], format="csc")
    k = min(k, n - 2)
    # Fixed start vector keeps the Lanczos iteration, and with it every
    # emitted report, bit-reproducible across runs.
    v0 = np.full(n, 1.0 / np.sqrt(n))
    if params.p == 1:
        vals, vecs = eigsh(stiff, k=k, sigma=0.0, which="LM", v0=v0)
    else:
        mass = sp.diags(x ** (2 * (params.p - 1)), 0, format="csc")
        vals, vecs = eigsh(stiff, k=k, M=mass, sigma=0.0, which="LM", v0=v0)
    order = np.argsort(np.abs(vals))
    return x, vals[order], vecs[:, order]


def _truncate_profile(x: np.ndarray, vals: np.ndarray, pad: int = 8):
    """Drop the numerically dead tails of a Schwartz profile."""
    live = np.nonzero(np.abs(vals) > 1e-14 * np.max(np.abs(vals)))[0]
    lo = max(0, int(live[0]) - pad)
    hi = min(len(x), int(live[-1]) + pad + 1)
    return x[lo:hi], vals[lo:hi]


def solve_nonlinear_eigen(
    params: OperatorParams,
    grid: GridSpec | None = None,
    count: int = 4,
) -> list[Eigenpair]:
    """Real eigenpairs of the profile equation, ordered by |z|.

    Solves the pencil at spacings h and h/2 and keeps a fine-grid pair
    only when (a) its equation residual is below 1e-6 relative, (b) a
    coarse eigenvalue matches within 1e-5 relative, and
    (c) the eigenfunction decays at the grid edge (Schwartz tail, which
    box modes and continuum artifacts fail).  An empty list is a valid
    outcome only for p = q, where there is nothing to find; for p < q
    an empty search raises InconclusiveError with the number of modes
    each filter rejected.
    """
    if params.p == params.q:
        # The profile equation collapses to -f'' = (z - 1) x^(2(q-1)) f,
        # which has no decaying solution for any z; the pencil spectrum
        # is a near-continuum cluster that every filter would reject.
        # Returning the documented empty result directly spares the
        # iteration from grinding against that cluster.
        return []
    grid = grid or default_grid(params, count=count)
    want = _modes_requested(count)
    _, coarse_vals, _ = _pencil_solve(params, grid, want)
    fine_grid = grid.refined()
    x, fine_vals, fine_vecs = _pencil_solve(params, fine_grid, want)
    h = fine_grid.spacing

    pairs: list[Eigenpair] = []
    rejected = {"drift": 0, "tail": 0, "residual": 0}
    edge = max(4, int(0.05 * len(x)))
    for idx, z in enumerate(fine_vals):
        z = float(z)
        drift = float(np.min(np.abs(coarse_vals - z)) / max(abs(z), 1.0))
        if drift > 1e-5:
            rejected["drift"] += 1
            continue
        vals = fine_vecs[:, idx]
        vals = vals / np.sqrt(h * np.sum(vals**2))
        top = np.max(np.abs(vals))
        tail = max(np.max(np.abs(vals[:edge])), np.max(np.abs(vals[-edge:])))
        if tail > 1e-6 * top:
            rejected["tail"] += 1
            continue
        res = _profile_residual(x, h, vals, z, params)
        if res > 1e-6:
            rejected["residual"] += 1
            continue
        if vals[np.argmax(np.abs(vals))] < 0:
            vals = -vals
        xt, vt = _truncate_profile(x, vals)
        f = SampledFunction(
            origin=(float(xt[0]),),
            spacing=(h,),
            values=vt,
            support_radius=float(max(abs(xt[0]), abs(xt[-1]))),
        )
        pairs.append(
            Eigenpair(
                z=z,
                w=complex(np.sqrt(complex(z))),
                f=f,
                residual=res,
                grid_stability=drift,
            )
        )
        if len(pairs) == count:
            break
    if not pairs:
        tally = ", ".join(f"{n} by {name}" for name, n in rejected.items())
        raise InconclusiveError(
            f"no mode of the ({params.p}, {params.q}) pencil passed the filters "
            f"({len(fine_vals)} rejected: {tally}) at grid half-width "
            f"{grid.half_width:g}, spacing {grid.spacing:g}; refine or widen the grid"
        )
    return pairs


def reference_eigenvalues(
    params: OperatorParams,
    count: int = 3,
    *,
    spacing: float = 8e-3,
    potential_floor: float = 1e4,
) -> np.ndarray:
    """Independent oracle: tridiagonal bisection, Richardson refined.

    The pencil S f = z M f, with S = -D^2 + x^(2(q-1)) tridiagonal and
    M = diag x^(2(p-1)) positive on the staggered nodes, has the same
    eigenvalues as the symmetric tridiagonal T = M^(-1/2) S M^(-1/2).
    Its lowest values are found by Sturm bisection at two spacings
    (h, h/2) and combined by h^2 Richardson extrapolation.  The window
    is the oracle's own: the confining term only needs to reach
    ``potential_floor``, not the solver's Agmon extent, and neither
    shift-invert nor ARPACK is involved.

    For p > 1 the mass weight nearly vanishes at the innermost nodes,
    so T has entries near 8 / h^4 there.  T is scaled diagonally
    dominant, and bisection resolves its small eigenvalues to high
    relative accuracy (Barlow and Demmel 1990), but only if it is asked
    to: LAPACK's default tolerance eps * ||T|| is absolute, and against
    that norm it leaves relative errors from 1e-6 at (2, 3) to order one
    at (3, 4).  The explicit absolute tolerance 1e-12 keeps every
    returned value to about 1e-12 relative.
    """
    if params.q == 1:
        raise ValueError("no discrete spectrum exists for q = 1")
    from scipy.linalg import eigh_tridiagonal

    half = potential_floor ** (1.0 / (2 * (params.q - 1)))

    def lowest(h: float) -> np.ndarray:
        x = GridSpec(half, h).nodes()
        scale = np.abs(x) ** -(params.p - 1)  # M^(-1/2)
        diag = (2.0 / h**2 + x ** (2 * (params.q - 1))) * scale**2
        off = -scale[:-1] * scale[1:] / h**2
        return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                select_range=(0, count - 1), tol=1e-12)

    coarse = lowest(spacing)
    fine = lowest(spacing / 2.0)
    return (4.0 * fine - coarse) / 3.0


def residual_norm(pair: Eigenpair, params: OperatorParams) -> float:
    """Relative equation residual of the pair's stored samples."""
    f = pair.f
    x = f.coords(0)
    return _profile_residual(x, f.spacing[0], np.asarray(f.values, dtype=float),
                             pair.z, params)


def _spline(pair: Eigenpair):
    from scipy.interpolate import CubicSpline

    return CubicSpline(pair.f.coords(0), np.asarray(pair.f.values, dtype=float))


def select_k(pair: Eigenpair) -> int:
    """Deterministic probe order: 0 or 1, whichever derivative of the
    profile at the origin is larger; both vanishing means the profile
    has higher-order symmetry and a different eigenpair should be used."""
    s = _spline(pair)
    f0 = abs(float(s(0.0)))
    f1 = abs(float(s(0.0, 1)))
    if max(f0, f1) < 1e-12:
        raise DegenerateOriginError(
            "profile and its first derivative both vanish at the origin; "
            "pick an eigenpair of different parity"
        )
    return 0 if f0 >= f1 else 1


def build_counterexample(
    pair: Eigenpair,
    lam: float,
    params: OperatorParams,
    box,
) -> SampledFunction:
    """Kernel element exp(i lam t2) exp(lam^(p/q) w t1) f(lam^(1/q) x) on a box.

    Axes are (x, t1, t2); each axis of the caller's ``box`` is (lo, hi, n).
    The profile is cubic-spline resampled at the dilated x coordinates.
    """
    if lam < 1.0:
        raise ValueError("the family is defined for lam >= 1")
    (xlo, xhi, nx), (t1lo, t1hi, n1), (t2lo, t2hi, n2) = box
    scale = lam ** (1.0 / params.q)
    coords = pair.f.coords(0)
    if scale * max(abs(xlo), abs(xhi)) > max(abs(coords[0]), abs(coords[-1])):
        raise ResampleError(
            "dilated box exceeds the stored profile grid; solve on a wider grid"
        )
    xs = np.linspace(xlo, xhi, nx)
    t1 = np.linspace(t1lo, t1hi, n1)
    t2 = np.linspace(t2lo, t2hi, n2)
    spline = _spline(pair)
    fx = spline(np.clip(scale * xs, coords[0], coords[-1])).astype(complex)
    g1 = np.exp(lam**params.exponent_ratio * pair.w * t1)
    g2 = np.exp(1j * lam * t2)
    values = fx[:, None, None] * g1[None, :, None] * g2[None, None, :]
    return SampledFunction(
        origin=(xs[0], t1[0], t2[0]),
        spacing=(xs[1] - xs[0], t1[1] - t1[0], t2[1] - t2[0]),
        values=values,
    )


def _interior_norm(values: np.ndarray) -> float:
    """2-norm of the interior values[1:-1, 1:-1, 1:-1] of a C-ordered box,
    summed row by row along the contiguous last axis so that the
    interior is never copied out of the box."""
    interior = values[1:-1, 1:-1, 1:-1]
    return math.sqrt(sum(float(np.vdot(row, row).real) for plane in interior for row in plane))


def verify_kernel(
    pair: Eigenpair,
    lam: float,
    params: OperatorParams,
    *,
    refine_check: bool = True,
) -> float:
    """Relative residual of the kernel identity for F_lam.

    Path (i), returned: the family is separable, so applying the full
    operator reduces exactly to lam^(2/q) times the profile residual.
    Path (ii), asserted: direct second differences of F_lam on a coarse
    3D box (41 points per axis) must shrink like h^2 under refinement
    toward the path (i) value; failure raises ConsistencyError.  The t2
    axis is sampled finely enough to resolve the exp(i lam t2)
    oscillation.
    """
    path_i = lam ** (2.0 / params.q) * residual_norm(pair, params)
    if not refine_check:
        return path_i

    # Stored profiles are truncated where they drop below 1e-14 of peak,
    # so the x extent of the check box is capped to the numerically live
    # region; outside it the dilated profile is resample noise, not data.
    coords = pair.f.coords(0)
    scale = lam ** (1.0 / params.q)
    reach = min(abs(coords[0]), abs(coords[-1]))
    x_half = min(1.0, 0.98 * reach / scale)

    def path_ii(n: int, n_t2: int) -> float:
        box = ((-x_half, x_half, n), (-1.0, 1.0, n), (-1.0, 1.0, n_t2))
        F = build_counterexample(pair, lam, params, box)
        return np.linalg.norm(apply_L(F, params).values) / _interior_norm(F.values)

    # The t2 count is fixed once from the oscillation (8 samples per
    # period of exp(i lam t2)) and then doubled along with the rest;
    # recomputing it per level would freeze the t2 error and break the
    # h^2 contraction this check relies on.
    n_base = 41
    n_t2_base = max(n_base, 2 * int(np.ceil(lam / 0.25)) + 1)
    coarse = path_ii(n_base, n_t2_base)
    fine = path_ii(2 * n_base - 1, 2 * n_t2_base - 1)
    if fine > 0.35 * coarse + 2.0 * path_i + 1e-12:
        raise ConsistencyError(
            f"3d finite differences do not converge to the separable "
            f"reduction: coarse {coarse:.3e}, refined {fine:.3e}, "
            f"separable {path_i:.3e}"
        )
    return path_i


def _sup_bound_fit(pair: Eigenpair, params: OperatorParams,
                   lams=(1.0, 2.0, 4.0)) -> tuple[float, float]:
    """Fit log sup |F_lam| on [-1,1]^3 as logA + B * lam^(p/q).

    sup over the box factors: the t2 phase has modulus 1, the t1 factor
    peaks at exp(lam^(p/q) |Re w|), and the x factor is the max of the
    dilated profile over |x| <= 1, read directly from the samples.
    """
    coords = pair.f.coords(0)
    vals = np.abs(np.asarray(pair.f.values))
    rw = abs(pair.w.real)
    logs, basis = [], []
    for lam in lams:
        cut = lam ** (1.0 / params.q)
        inside = np.abs(coords) <= cut
        peak = float(np.max(vals[inside])) if np.any(inside) else float(vals.max())
        logs.append(lam ** (params.p / params.q) * rw + np.log(peak))
        basis.append([1.0, lam ** (params.p / params.q)])
    coef, *_ = np.linalg.lstsq(np.asarray(basis), np.asarray(logs), rcond=None)
    return float(coef[0]), float(coef[1])


def growth_table(
    pair: Eigenpair,
    params: OperatorParams,
    k: int,
    N_ladder,
) -> list[GrowthRow]:
    """Log-space growth ladder rows at lam = N^(q/p).

    Everything is analytic in log space (derivative values at the
    origin from the profile spline, sup bounds from the fitted
    exponential), so N up to 1e6 costs nothing.  The nuisance constant
    B0 is pinned by solving the two lowest rows exactly, mirroring how
    a derivative bound's constants would be fitted before testing
    growth against them; a repeated order would make that solve
    singular, so it raises ValueError.
    """
    if k not in (0, 1):
        raise ValueError("probe order k must be 0 or 1")
    Ns = sorted(int(N) for N in N_ladder)
    if len(Ns) < 2 or Ns[0] < 1:
        raise ValueError("need at least two ladder values with N >= 1")
    repeated = sorted({a for a, b in zip(Ns, Ns[1:]) if a == b})
    if repeated:
        raise ValueError(f"growth ladder orders must be distinct; repeated: {repeated}")
    s = _spline(pair)
    dk0 = abs(float(s(0.0, k))) if k else abs(float(s(0.0)))
    if dk0 < 1e-12:
        raise DegenerateOriginError(
            f"derivative of order {k} vanishes at the origin; "
            "pick k by parity (select_k)"
        )
    log_dk0 = math.log(dk0)
    logA, B = _sup_bound_fit(pair, params)
    ratio = params.q / params.p

    raw = []
    for N in Ns:
        log_lam = ratio * math.log(N)
        log_lhs = (N + k / params.q) * log_lam + log_dk0
        log_sup = logA + B * N  # lam^(p/q) equals N on this ladder
        raw.append((N, log_lam, log_lhs, log_sup))

    # Two-row exact solve for (log B0, s): lhs - sup = N log B0 + s N log(N+1).
    (n1, _, l1, s1), (n2, _, l2, s2) = raw[0], raw[1]
    mat = np.array(
        [[n1, n1 * math.log(n1 + 1.0)], [n2, n2 * math.log(n2 + 1.0)]]
    )
    rhs = np.array([l1 - s1, l2 - s2])
    log_b0, _ = np.linalg.solve(mat, rhs)

    rows = []
    for N, log_lam, log_lhs, log_sup in raw:
        denom = N * math.log(N + 1.0)
        s_star = (log_lhs - log_sup - N * log_b0) / denom
        rows.append(
            GrowthRow(
                N=N,
                lam=float(N**ratio),
                log_lhs=log_lhs,
                log_sup=log_sup,
                s_star=float(s_star),
            )
        )
    return rows


#: Rms budget of the 1/log N line, and the tolerated miss of an expected s0.
_S0_TOL = 0.02


def estimate_optimal_exponent(
    pair: Eigenpair,
    params: OperatorParams,
    N_ladder=(10**2, 10**3, 10**4, 10**5, 10**6),
    *,
    expected: float | None = None,
) -> float:
    """Extrapolated growth exponent: the limit of s*(N) as N -> infinity.

    Regresses s* against 1/log(N+1) and returns the intercept.  The
    finite-N corrections are O(1/log N) by construction, so the
    intercept is insensitive to the fitted nuisance constants, which
    only tilt the slope.  A ladder of fewer than three distinct orders
    (a line through two rows fits exactly, so linearity goes unchecked)
    or a fit with rms above 0.02 raises InconclusiveError; if
    ``expected`` is supplied, disagreement beyond 0.02 raises
    ConsistencyError (used by the CLI to self-check against theory).
    """
    if len({int(N) for N in N_ladder}) < 3:
        raise InconclusiveError("the growth ladder needs at least three distinct "
                                "orders; a line through two rows fits exactly")
    k = select_k(pair)
    rows = growth_table(pair, params, k, N_ladder)
    xs = np.array([1.0 / math.log(r.N + 1.0) for r in rows])
    ys = np.array([r.s_star for r in rows])
    design = np.vstack([np.ones_like(xs), xs]).T
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    fitted = design @ coef
    rms = float(np.sqrt(np.mean((ys - fitted) ** 2)))
    if rms > _S0_TOL:
        raise InconclusiveError(
            f"growth ladder is not linear in 1/log N (rms {rms:.3g}); "
            "widen the ladder or check the eigenpair"
        )
    s0 = float(coef[0])
    if expected is not None and abs(s0 - expected) > _S0_TOL:
        raise ConsistencyError(
            f"extrapolated exponent {s0:.4f} disagrees with the expected "
            f"threshold {expected:.4f}"
        )
    return s0
