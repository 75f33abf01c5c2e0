"""Nonlinear eigenproblem, exact kernel family, and the optimal exponent.

The hypoellipticity threshold is exhibited by explicit kernel elements.
A real number z and a Schwartz-decaying profile f solving

    f'' - x^(2(q-1)) f + z x^(2(p-1)) f = 0

("nonlinear eigenvalue problem": z multiplies the non-identity weight
x^(2(p-1))) generate, for every lam >= 1, the exact kernel element

    F_lam(x, t1, t2) = exp(i lam t2) exp(lam^(p/q) w t1) f(lam^(1/q) x),

with w = sqrt(z), real since z > 0.  Differentiating F_lam N times in t2
at the origin grows like lam^N while sup |F_lam| on a fixed box grows
only like exp(C lam^(p/q)); setting lam = N^(q/p) and comparing against
the derivative bound C^(N+1) N^(sN) of an order-s function forces
s >= q/p.  The per-row exponent

    s*(N) = [log lhs - log sup - N log B0] / (N log(N + 1))

converges to q/p like 1/log N.  (log(N+1) rather than log N keeps the
N = 1 row finite.)  Both logs are closed forms in N: with k the probe
order, log lhs = (N + k/q)(q/p) log N + log |f^(k)(0)| and log sup =
N w + log max |f|, the max over |x| <= N^(1/p).  Hence, with
c = -w - log B0,

    s*(N) = (q/p) log N / log(N+1) + c / log(N+1)
            + [(k/p) log N + log(|f^(k)(0)| / max |f|)] / (N log(N+1)).

The last term vanishes for k = 0 and a profile whose |f| peaks at the
origin, as for every ground state here, and a least-squares fit on the
basis {log N / log(N+1), 1/log(N+1)} then returns q/p as its first
coefficient s0.  f^(k)(0) and max |f| are exact values of the profile's
Hermite series, and for a ground state the max is f(0) itself, so on
the default ladder 10^2 .. 10^6 s0 - q/p is at rounding, at most
1.8e-15 on the four default pairs.  So s0 checks the algebra of the
construction and that a profile with f^(k)(0) != 0 exists; the
numerical evidence is z, the oracle agreement and the kernel residuals.

Discretization: the profile equation is the generalized symmetric
pencil (-D^2 + x^(2(q-1))) f = z x^(2(p-1)) f, solved in numpy by a
Hermite-function Galerkin method (Boyd, Chebyshev and Fourier Spectral
Methods, ch. 17; see _galerkin_lowest), even and odd functions apart
since the equation commutes with x -> -x; a profile's parity is its
probe order k (select_k).  The flipped solve is variational, so it has
no spurious modes to filter.  Each profile is kept as its series
(HermiteSeries), which gives f and its derivatives exactly at any x.
Each pair carries its operator and its window, where the readers take
f: the Agmon distance at which the highest mode that sizes the window
for the solve's count has decayed by e^-40 past its turning point, with
that mode's eigenvalue estimated by Bohr-Sommerfeld quantization (a
closed-form Beta-function action).  An
independent oracle, reference_eigenvalues, solves the same pencil by
staggered finite differences at two spacings, for cross-validation,
also in numpy (_pencil_solve); the inequality sweeps take the (1, m)
ground energy of their scaling constant from it (scaling_constant).
The (p, 2p) pairs have closed forms, z = (4j + 2)p - 1 (even) or + 1 (odd
modes); for p <= 5 the solver meets z to 4.4e-15, profiles to 6.2e-15.

For p = q no Schwartz solution exists (the equation collapses to a
constant-coefficient one) and the solver correctly returns an empty
list.  For p < q profiles always exist, so a Hermite basis that does
not settle raises InconclusiveError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .operators import (ConsistencyError, InconclusiveError, OperatorParams,
                        _second_difference, apply_L)
from .sampling import SampledFunction, sample


@dataclass(frozen=True)
class GridSpec:
    """Staggered grid on [-half_width, half_width] with the given spacing."""

    half_width: float
    spacing: float

    def __post_init__(self):
        if not (0 < self.half_width < math.inf and 0 < self.spacing < math.inf):
            raise ValueError("grid extent and spacing must be positive and finite")
        if self.half_width / self.spacing < 8:
            raise ValueError("grid too small: need at least 8 spacings per half-width "
                             "for a second-order difference")

    @property
    def size(self) -> int:
        """Node count, even so that the nodes straddle x = 0 symmetrically."""
        return 2 * int(round(self.half_width / self.spacing))

    def nodes(self) -> np.ndarray:
        # Centred on n h / 2 rather than on half_width, so the nodes are
        # exactly antisymmetric even when 2 X / h is not an integer.
        return (np.arange(self.size) + 0.5 - self.size / 2) * self.spacing

    def refined(self) -> "GridSpec":
        """The same window at half the spacing (where eigenpair.csv and
        residual_norm sample the profiles)."""
        return GridSpec(self.half_width, self.spacing / 2.0)


@dataclass(frozen=True, eq=False)
class HermiteSeries:
    """A profile as its Hermite series: f(x) = sum_k values[k]
    psi_k(x / scale) / sqrt(scale), with psi_k the orthonormal Hermite
    functions (see _hermite_sum), so f has the L^2 norm of ``values``.

    ``values`` holds the series in coefficient space, as
    SampledFunction.values holds a function at its nodes.  Series hold
    arrays, so they compare and hash by identity.
    """

    scale: float
    values: np.ndarray

    def __post_init__(self):
        if not 0 < self.scale < math.inf:  # nan too
            raise ValueError(f"the series scale must be positive and finite, got {self.scale}")

    def __call__(self, x, deriv: int = 0) -> np.ndarray:
        """f (deriv 0) or its derivative of order ``deriv`` at ``x``."""
        return self._rows(x, (deriv,))[0]

    def _rows(self, x, orders) -> np.ndarray:
        """f^(d)(x) for each d in ``orders``, one row each, from one pass of
        the recurrence.  Each derivative maps the coefficients exactly,
        one entry longer, by psi_k' = sqrt(k/2) psi_(k-1) - sqrt((k+1)/2)
        psi_(k+1)."""
        if min(orders) < 0:
            raise ValueError(f"derivative orders must be non-negative, got {min(orders)}")
        series = [np.asarray(self.values, dtype=float)]
        while len(series) <= max(orders):
            coef = series[-1]
            root = np.sqrt(np.arange(1, len(coef) + 1) / 2.0)
            step = np.zeros(len(coef) + 1)
            step[:-2] = root[:-1] * coef[1:]
            step[1:] -= root * coef
            series.append(step / self.scale)
        cols = np.zeros((len(series[-1]), len(orders)))
        for j, d in enumerate(orders):
            cols[:len(series[d]), j] = series[d]
        y = np.asarray(x, dtype=float) / self.scale
        rows = _hermite_sum(y.ravel(), cols) / math.sqrt(self.scale)
        return rows.reshape(len(orders), *y.shape)


@dataclass(frozen=True)
class Eigenpair:
    """Solution (z, f) of the profile equation with solver diagnostics.

    z > 0, so the kernel family's w is the real sqrt(z); ``f`` the
    profile's Hermite series, of unit L^2 norm (its length is the basis
    size of the final solve) and signed so that f^(k)(0) > 0, k =
    select_k(pair) its parity; ``residual`` the relative equation
    residual of its coefficients (see _galerkin_lowest), and
    ``basis_change`` the relative change of z from the solve before it.
    ``params`` is the operator solved and ``grid`` the pair's window,
    default_grid for the solve's count, where the readers take f.
    """

    z: float
    f: HermiteSeries
    residual: float
    basis_change: float
    params: OperatorParams
    grid: GridSpec


@dataclass(frozen=True)
class GrowthRow:
    """One rung of the log-space derivative-growth ladder, at lam = N^(q/p),
    probed at f^(k)(0) with k = select_k(pair), the profile's parity."""

    N: int
    lam: float
    log_lhs: float
    log_sup: float
    s_star: float


#: Decay, in units of e-folds past the turning point, that the default
#: grid resolves for the highest mode that sizes it: e^-40 ~ 4e-18, so a
#: profile read past the window is zero to rounding.
_AGMON_DECAY = 40.0
#: Coarse spacing of the default grid; eigenpair.csv samples at half of it.
_DEFAULT_SPACING = 2e-3


def _turning_point_q(params: OperatorParams, count: int) -> float:
    """x_t^q, with x_t the turning point of the highest mode that sizes
    the window and the Hermite scale for ``count`` pairs, mode
    max(count + 4, 8) - 1, a margin above the pairs kept, from
    Bohr-Sommerfeld quantization (see default_grid); p < q.  ``count``
    must be an integer >= 1, a numpy integer too."""
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"need an integer count of at least one eigenpair, got count = {count!r}")
    c = 2 * (params.q - params.p)
    a = params.p / c
    beta = math.exp(math.lgamma(a) + math.lgamma(1.5) - math.lgamma(a + 1.5))
    top = max(count + 4, 8) - 1
    return (top + 0.5) * math.pi * c / (2.0 * beta)


def default_grid(params: OperatorParams, *, count: int = 4) -> GridSpec:
    """Spacing 2e-3 and the Agmon extent: the highest mode that sizes the
    window for ``count`` pairs has decayed by e^-40.

    Write a = 2(q-1), b = 2(p-1) and c = a - b.  A mode of eigenvalue z
    turns at x_t = z^(1/c) and decays past it like exp(-A(x)) with the
    Agmon distance A(x) = int_(x_t)^x sqrt(y^a - z y^b) dy.  The highest
    mode that sizes the window for ``count`` pairs, n = max(count + 4, 8)
    - 1, is placed by Bohr-Sommerfeld quantization

        2 int_0^(x_t) sqrt(z y^b - y^a) dy = (n + 1/2) pi,

    whose left side is 2 x_t^q B(p/c, 3/2) / c in closed form.  In units
    u = y / x_t the distance is x_t^q int_1^U u^(b/2) sqrt(u^c - 1) du,
    and the half-width is x_t U for the smallest U at which that reaches
    40.  Bernoulli's inequality bounds the integrand below by
    sqrt(c (u - 1)), which brackets U for a fixed-node sum.  p = q has
    no discrete spectrum and raises ValueError.
    """
    if params.p == params.q:
        raise ValueError(f"no discrete spectrum exists for p = q = {params.q}")
    c = 2 * (params.q - params.p)
    turn_q = _turning_point_q(params, count)
    target = _AGMON_DECAY / turn_q
    u = 1.0 + np.linspace(0.0, (1.5 * target / math.sqrt(c)) ** (2.0 / 3.0), 4097)
    rate = u ** (params.p - 1) * np.sqrt(u**c - 1.0)
    dist = np.concatenate(([0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(u))))
    reach = float(u[np.searchsorted(dist, target)])
    return GridSpec(float(turn_q ** (1.0 / params.q) * reach), _DEFAULT_SPACING)


def _galerkin_lowest(params: OperatorParams, count: int, n: int, scale: float):
    """Lowest ``count`` z of the profile pencil in the first n Hermite
    functions psi_k(x / scale) / sqrt(scale), as (z, coefficients,
    residuals).

    In this basis x / scale is the tridiagonal Y, -d^2/dx^2 is
    (diag(2k + 1) - Y^2) / scale^2, and the pencil is S = that +
    scale^(2(q-1)) Y^(2(q-1)) against M = scale^(2(p-1)) Y^(2(p-1)),
    formed in n + 2q functions, where every column below n is exact.
    psi_k has the parity of k and even powers of Y keep it, so S and M
    are block-diagonal, and the even (k = 0, 2, ...) and odd functions
    are two pencils of about n / 2, a quarter of the dense work of one.
    Each is solved flipped: with S = L L^T, the largest mu = 1/z of
    L^-1 M L^-T.  (For p > 1 M is nearly singular, and a Cholesky of M
    instead loses accuracy as n grows or fails outright.)  An
    eigenvector u maps back to c = L^-T u, scaled to unit norm, the
    profile's L^2 norm, and exactly zero on the other parity, where
    select_k reads it.  The two blocks' modes merge by z in a stable
    sort.  The residual ||(-S + z M) c|| over its block's n / 2 + q rows
    vanishes in the first n / 2 to rounding; the rest hold the coupling
    of c's last entries to the functions left out.  A power of Y that
    leaves the float range raises InconclusiveError before any
    factorization: a larger basis only holds larger entries.  The path
    that bounces between the last two functions gives the bound
    (Y^(2(q-1)))[-1, -1] >= ((n + 2q - 1) / 2)^(q-1), so a q whose bound
    already leaves the float range raises before any matrix is formed.
    """
    p, q = params.p, params.q
    digits = (q - 1) * math.log10((n + 2 * q - 1) / 2.0)
    if digits > math.log10(sys.float_info.max):
        raise InconclusiveError(
            f"the ({p}, {q}) Hermite-Galerkin position powers leave the float range: "
            f"Y^{2 * q - 2} in {n} functions >= 1e{int(digits)}")
    # Powers of Y (off-diagonal sqrt(k / 2)) by banded shifts, keeping
    # only those the pencil reads, so memory does not grow with q.
    big = n + 2 * q
    off = np.sqrt(np.arange(1, big) / 2.0)[:, None]
    powers = {0: np.eye(big)}
    power = powers[0]
    with np.errstate(over="raise"):
        try:
            for j in range(1, max(2, 2 * (q - 1)) + 1):
                prev, power = power, np.zeros((big, big))
                power[:-1] += off * prev[1:]
                power[1:] += off * prev[:-1]
                if j in (2, 2 * (p - 1), 2 * (q - 1)):
                    powers[j] = power
        except FloatingPointError:
            raise InconclusiveError(
                f"the ({p}, {q}) Hermite-Galerkin position powers leave the float "
                f"range at Y^{j} in {n} functions"
            ) from None
    kinetic = (np.diag(2.0 * np.arange(big) + 1.0) - powers[2]) / scale**2
    stiff = (kinetic + scale ** (2 * (q - 1)) * powers[2 * (q - 1)])[:, :n]
    mass = scale ** (2 * (p - 1)) * powers[2 * (p - 1)][:, :n]
    z, coef, residual = [], np.zeros((n, 2 * count)), []
    for par in (0, 1):
        try:
            chol = np.linalg.cholesky(stiff[par:n:2, par::2])
        except np.linalg.LinAlgError:
            raise InconclusiveError(
                f"the ({p}, {q}) Hermite-Galerkin stiffness matrix lost definiteness "
                f"in rounding at {n} functions"
            ) from None
        flipped = np.linalg.solve(chol, np.linalg.solve(chol, mass[par:n:2, par::2]).T)
        mu, u = np.linalg.eigh(flipped)
        block_z = 1.0 / mu[::-1][:count]
        block = np.linalg.solve(chol.T, u[:, ::-1][:, :count])
        block /= np.linalg.norm(block, axis=0)
        residual.extend(np.linalg.norm(block_z * (mass[par::2, par::2] @ block)
                                       - stiff[par::2, par::2] @ block, axis=0))
        z.extend(block_z)
        coef[par::2, par * count:(par + 1) * count] = block
    order = np.argsort(z, kind="stable")[:count]
    return np.array(z)[order], coef[:, order], np.array(residual)[order]


def _hermite_sum(y: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_k coef[k] psi_k(y), one row per column of ``coef``, with the
    orthonormal Hermite functions from their recurrence psi_k =
    sqrt(2/k) y psi_(k-1) - sqrt((k-1)/k) psi_(k-2), psi_0 =
    pi^(-1/4) exp(-y^2/2).  Accumulated term by term, so memory stays
    at those rows whatever the basis size."""
    total = np.zeros((coef.shape[1], len(y)))
    prev, cur = np.zeros_like(y), np.pi**-0.25 * np.exp(-0.5 * y * y)
    for k, row in enumerate(coef):
        if k:
            prev, cur = cur, math.sqrt(2.0 / k) * y * cur - math.sqrt((k - 1) / k) * prev
        total += row[:, None] * cur
    return total


def solve_nonlinear_eigen(params: OperatorParams, count: int = 4) -> list[Eigenpair]:
    """The ``count`` lowest eigenpairs of the profile equation, by z.

    _galerkin_lowest solves at n = 64, 80, 100, ... (x 1.25) Hermite
    functions of scale 0.1 x_t, x_t the turning point that default_grid
    estimates, from the first rung whose parity blocks hold ``count``
    functions each (n // 2 >= count), until two consecutive solves agree
    on every z to 1e-12 relative and every residual is below 1e-10; no
    settling by n = 500 (the last rung is 476) raises InconclusiveError.
    z settles first, its error being the square of the coefficients'.
    The tails fall like exp(-x^q / q), faster than any Hermite
    function's Gaussian once q > 2, hence the narrow scale: at 0.15 x_t
    (6, 8) still has a residual of 4e-6 at n = 381.  The default pairs
    stop at n = 244 (1, 2), 195 (1, 3), 125 (2, 3) and 100 (3, 4); of
    the 120 pairs with q <= 16, 55 settle, the first failure at (8, 10).

    Each profile is its unit-norm series, signed so that f^(k)(0) > 0
    with k = select_k(pair), its parity, and ``basis_change`` compares
    its z with the solve before.  p = q returns an empty list.
    """
    if params.p == params.q:  # -f'' = (z - 1) x^(2(q-1)) f decays for no z
        return []
    scale = 0.1 * _turning_point_q(params, count) ** (1.0 / params.q)
    grid = default_grid(params, count=count)
    n, last = 64, None
    while n // 2 < count:  # each parity block must hold count functions
        n = int(round(1.25 * n))
    while n <= 500:
        z, coef, residual = _galerkin_lowest(params, count, n, scale)
        if (last is not None and np.all(np.abs(z - last) <= 1e-12 * np.abs(z))
                and np.all(residual <= 1e-10)):
            break
        n, last = int(round(1.25 * n)), z
    else:
        raise InconclusiveError(
            f"the ({params.p}, {params.q}) Hermite-Galerkin solve did not settle "
            f"within 500 functions"
        )
    pairs = []
    for j, zj in enumerate(z):
        pair = Eigenpair(z=float(zj), f=HermiteSeries(scale, coef[:, j]),
                         residual=float(residual[j]),
                         basis_change=float(abs(zj - last[j]) / abs(zj)),
                         params=params, grid=grid)
        if pair.f(0.0, select_k(pair)) < 0.0:
            pair = replace(pair, f=HermiteSeries(scale, -coef[:, j]))
        pairs.append(pair)
    return pairs


def _cyclic_reduction(diag: np.ndarray, off: float):
    """A solver for the symmetric tridiagonal system with diagonal
    ``diag`` and every off-diagonal entry ``off``, factored once by
    odd-even cyclic reduction.

    The system is padded to 2^m - 1 rows with decoupled identity rows.
    Each level eliminates the even rows (0, 2, ...) from the odd ones and
    keeps its multipliers, so a solve is 2m vectorised passes: reduce the
    right-hand side down the levels, then substitute back up.  The
    stiffness matrices here are diagonally dominant, where cyclic
    reduction is stable.
    """
    n = len(diag)
    size = 2 ** n.bit_length() - 1
    b = np.ones(size)
    b[:n] = diag
    a = np.zeros(size)  # a[i] couples row i to row i - 1
    a[1:n] = off
    levels = []
    while len(b) > 1:
        be, bo, ae, ao = b[0::2], b[1::2], a[0::2], a[1::2]
        left, right = -ao / be[:-1], -ae[1:] / be[1:]
        levels.append((be, ae, np.append(ao, 0.0), left, right))
        b = bo + left * ao + right * ae[1:]
        a = left * ae[:-1]
    last = b[0]

    def solve(rhs: np.ndarray) -> np.ndarray:
        r = np.zeros(size)
        r[:n] = rhs
        evens = []
        for _, _, _, left, right in levels:
            re = r[0::2]
            evens.append(re)
            r = r[1::2] + left * re[:-1] + right * re[1:]
        x = r / last
        for (be, ae, ce, _, _), re in zip(reversed(levels), reversed(evens)):
            xo = np.concatenate(([0.0], x, [0.0]))
            full = np.empty(2 * len(re) - 1)
            full[0::2] = (re - ae * xo[:-1] - ce * xo[1:]) / be
            full[1::2] = x
            x = full
        return x[:n]

    return solve


def _sturm_count(diag: np.ndarray, mass: np.ndarray, off: float, sigma: float) -> int:
    """Number of eigenvalues below ``sigma`` of the pencil (S, M), S the
    symmetric tridiagonal matrix with diagonal ``diag`` and off-diagonal
    ``off``, M = diag(``mass``) positive: the negative pivots of the
    LDL^T factorization of S - sigma M, by Sylvester's law of inertia
    (Barth, Martin and Wilkinson, Numer. Math. 9, 1967).  One scalar
    pass over the rows; a zero pivot is read as the tiniest negative
    one, the limit from sigma a hair above."""
    off2, count, pivot = off * off, 0, math.inf
    for d in (diag - sigma * mass).tolist():
        pivot = d - off2 / pivot
        if pivot <= 0.0:
            count += 1
            if pivot == 0.0:
                pivot = -sys.float_info.min
    return count


#: Relative Lanczos residual at which _pencil_solve takes a Ritz value.
_LANCZOS_TOL = 1e-14
#: Lanczos steps after which _pencil_solve gives up; the default pairs
#: take 18 to 33 for three modes, (12, 13) 62.
_LANCZOS_STEPS = 300


def _pencil_solve(params: OperatorParams, grid: GridSpec, k: int):
    """The k lowest eigenvalues of the three-point difference pencil
    (-D^2 + x^(2(q-1))) f = z x^(2(p-1)) f on ``grid``'s staggered nodes
    (zero outside the window), in order, with their eigenvectors as
    columns of unit norm.  numpy only.

    Write S f = z M f, M = diag(x^(2(p-1))).  Lanczos with full
    reorthogonalization runs on M^(1/2) S^-1 M^(1/2), whose eigenvalues
    are theta = 1/z, with S factored once by cyclic reduction.  The
    start vector exp(-x^2)(1 + x) has both parities.  The iteration
    stops once the k + 1 largest Ritz values each have a Lanczos residual
    at or below 1e-14 of their value: 18 to 33 steps on the default
    pairs at k = 3.  Each eigenvector is S^-1 M^(1/2) of its Ritz
    vector, which the iteration already formed, and each z its Rayleigh
    quotient in energy form,

        [sum ((f_(i+1) - f_i) / h)^2 + (f_0^2 + f_(n-1)^2) / h^2
         + sum x^(2(q-1)) f^2] / sum x^(2(p-1)) f^2,

    which never forms the diagonal 2 / h^2 + x^(2(q-1)): on the default
    grids the quotient f^T S f with that diagonal rounds to 9e-11
    relative, and the Ritz values 1/theta to 3e-12.
    One Sturm count certifies the result: exactly k eigenvalues must lie
    below the midpoint of the k-th and (k+1)-th z.  The k + 1 Ritz values
    are converged and distinct, so then the first k are the k lowest; a
    mode the start vector missed raises InconclusiveError, as does an
    iteration that does not converge.
    """
    x = grid.nodes()
    h = grid.spacing
    n = len(x)
    pot = x ** (2 * (params.q - 1))
    mass = x ** (2 * (params.p - 1))
    diag, off = 2.0 / h**2 + pot, -1.0 / h**2
    solve = _cyclic_reduction(diag, off)
    root = np.sqrt(mass)
    want = k + 1
    steps = min(n, _LANCZOS_STEPS)
    basis, images = np.zeros((steps, n)), np.zeros((steps, n))
    alphas, betas = [], []
    # np.einsum keeps the long reductions off the threaded BLAS, whose
    # ddot and dgemv stalled for 0.1-0.7 s in about one process in ten
    # on a busy 2-core machine.
    vec = np.exp(-x * x) * (1.0 + x)
    vec /= math.sqrt(np.einsum("i,i", vec, vec))
    for j in range(steps):
        basis[j] = vec
        images[j] = solve(root * vec)  # S^-1 M^(1/2) q_j
        w = root * images[j]
        alphas.append(float(np.einsum("i,i", vec, w)))
        w -= alphas[-1] * vec + (betas[-1] * basis[j - 1] if j else 0.0)
        for _ in range(2):  # full reorthogonalization; twice is enough
            w -= np.einsum("ji,j", basis[:j + 1], np.einsum("ji,i", basis[:j + 1], w))
        beta = math.sqrt(np.einsum("i,i", w, w))
        theta, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        theta, s = theta[::-1][:want], s[:, ::-1][:, :want]
        converged = len(theta) == want and np.all(beta * np.abs(s[-1]) <= _LANCZOS_TOL * theta)
        if converged or beta == 0.0:
            break
        betas.append(beta)
        vec = w / beta
    if not converged:
        raise InconclusiveError(
            f"the ({params.p}, {params.q}) difference pencil on {n} nodes did not "
            f"converge within {j + 1} Lanczos steps"
        )
    vecs = np.einsum("ji,jk", images[:j + 1], s)
    vecs /= np.sqrt(np.einsum("ik,ik->k", vecs, vecs))
    sq, step = vecs**2, np.diff(vecs, axis=0)
    energy = (np.einsum("ik,ik->k", step, step) + sq[0] + sq[-1]) / h**2
    vals = (energy + np.einsum("i,ik", pot, sq)) / np.einsum("i,ik", mass, sq)
    sigma = 0.5 * (vals[k - 1] + vals[k])
    below = _sturm_count(diag, mass, off, sigma)
    if below != k:
        raise InconclusiveError(
            f"the ({params.p}, {params.q}) difference pencil on {n} nodes has "
            f"{below} eigenvalues below {sigma:.12g}, where Lanczos found {k}"
        )
    return vals[:k], vecs[:, :k]


def reference_eigenvalues(params: OperatorParams, count: int = 3) -> np.ndarray:
    """Independent oracle: the lowest ``count`` z of the three-point
    finite-difference pencil, extrapolated to zero spacing.

    The pencil is solved by _pencil_solve (shift-invert Lanczos, checked
    by a Sturm count) on the staggered nodes of default_grid at its
    spacing h and at h/2, and (4 z_(h/2) - z_h) / 3 cancels the O(h^2)
    error of each.  It shares no discretization with
    solve_nonlinear_eigen's Hermite-Galerkin solve.  Against the closed
    forms of the (p, 2p) pairs (module docstring) its error is 1.1e-13
    relative at p = 1, growing with p to 3.0e-10 at p = 7; on (1, 3),
    (2, 3) and (3, 4) it agrees with the solver to 1.0e-13 or better on
    the ground state and 6.6e-13 on the third mode.  Its (1, m) ground
    state is scaling_constant's, returned for every m tried from 3 to 400
    in 7-24 ms each on a 2-core box.  p = q raises ValueError (see
    default_grid).
    """
    grid = default_grid(params, count=count)
    coarse = _pencil_solve(params, grid, count)[0]
    fine = _pencil_solve(params, grid.refined(), count)[0]
    return (4.0 * fine - coarse) / 3.0


def residual_norm(pair: Eigenpair) -> float:
    """Relative equation residual of the profile sampled on the nodes of
    pair.grid.refined(), where eigenpair.csv samples it, by centered
    second differences on the interior nodes: for a smooth profile the
    O(h^2) truncation of the difference, independent of the series' own
    residual."""
    params, grid = pair.params, pair.grid.refined()
    x = grid.nodes()
    vals = pair.f(x)
    d2 = _second_difference(vals, 0, grid.spacing)
    xc, vc = x[1:-1], vals[1:-1]
    r = d2 - xc ** (2 * (params.q - 1)) * vc + pair.z * xc ** (2 * (params.p - 1)) * vc
    return float(np.linalg.norm(r) / np.linalg.norm(vals))


def select_k(pair: Eigenpair) -> int:
    """Probe order from the profile's parity: 1 when every even-index
    Hermite coefficient is zero (an odd profile), 0 otherwise.  x = 0 is
    a regular point of the profile equation, so an even eigenfunction
    has f(0) != 0 and an odd one f'(0) != 0; the parity blocks of
    _galerkin_lowest leave the other parity's coefficients exactly 0."""
    return int(not np.any(pair.f.values[0::2]))


def _check_lam(lam: float) -> None:
    if not 1.0 <= lam < math.inf:
        raise ValueError(f"the family is defined for finite lam >= 1, got {lam}")


def build_counterexample(pair: Eigenpair, lam: float, box) -> SampledFunction:
    """Kernel element exp(i lam t2) exp(lam^(p/q) w t1) f(lam^(1/q) x) on a box.

    Axes are (x, t1, t2); each axis of the caller's ``box`` is (lo, hi, n).
    The profile's series is evaluated at the dilated x coordinates, which
    must lie in the pair's window |x| <= pair.grid.half_width.
    """
    _check_lam(lam)
    params = pair.params
    scale = lam ** (1.0 / params.q)
    reach = pair.grid.half_width
    (xlo, xhi, _), *_ = box
    if scale * xlo < -reach or scale * xhi > reach:
        raise ValueError(
            f"dilated box [{scale * xlo:g}, {scale * xhi:g}] leaves the profile "
            f"window |x| <= {reach:g}"
        )
    rate = lam**params.exponent_ratio * math.sqrt(pair.z)
    return sample(lambda x, t1, t2: pair.f(scale * x).astype(complex)
                  * np.exp(rate * t1) * np.exp(1j * lam * t2), box)


def verify_kernel(pair: Eigenpair, lam: float) -> float:
    """Relative residual of the kernel identity for F_lam in the pair's window.

    Path (i), returned: the family is separable, so applying the full
    operator reduces exactly to lam^(2/q) times the profile equation's
    residual, the pair's ``residual``.
    Path (ii), asserted: direct second differences of F_lam on one
    81 x 11 x 11 box, and on the 41 x 6 x 6 box of its every other node
    at twice the spacing, must shrink like h^2 toward the path (i)
    value; failure raises ConsistencyError.  The coarse box keeps the
    fine origin at twice the fine spacing h, which is exactly the spacing
    sample gives (n + 1) // 2 nodes, and its coords origin + (2 h) k are
    bit for bit the fine coords origin + h (2 k), so the coarse check
    reads the samples of a direct build, each at its own coords.

    The coarse spacings are 0.05 in t1 and min(0.05, 1/ceil(4 lam)) in
    t2, at least 25 samples per period of exp(i lam t2).  t1 and t2 enter
    only through their spacings: the second difference of exp(k t1) is
    exp(k t1) (2 cosh(k h) - 2) / h^2 and that of exp(i lam t2) is
    exp(i lam t2) (2 cos(lam h) - 2) / h^2, so on the interior
    L_h F_lam = exp(k t1) exp(i lam t2) R_h(x), and the ratio
    ||L_h F_lam|| / ||F_lam|| is that of any box with these spacings.
    """
    _check_lam(lam)
    params = pair.params
    path_i = lam ** (2.0 / params.q) * pair.residual

    # The dilated x extent stays inside the pair's window, past which
    # the profile is below e^-40 of its peak.
    scale = lam ** (1.0 / params.q)
    x_half = min(1.0, 0.98 * pair.grid.half_width / scale)
    t2_half = min(0.125, 2.5 / math.ceil(4.0 * lam))
    box = ((-x_half, x_half, 81), (-0.125, 0.125, 11), (-t2_half, t2_half, 11))
    F = build_counterexample(pair, lam, box)

    def path_ii(u: SampledFunction) -> float:
        interior = u.values[1:-1, 1:-1, 1:-1]
        return np.linalg.norm(apply_L(u, params).values) / np.linalg.norm(interior)

    fine = path_ii(F)
    coarse = path_ii(SampledFunction(F.origin, tuple(2.0 * h for h in F.spacing),
                                     F.values[::2, ::2, ::2]))
    if fine > 0.35 * coarse + 2.0 * path_i + 1e-12:
        raise ConsistencyError(
            f"3d finite differences do not converge to the separable "
            f"reduction: coarse {coarse:.3e}, refined {fine:.3e}, "
            f"separable {path_i:.3e}"
        )
    return path_i


def _extrema(f: HermiteSeries, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Candidate maxima of |f| in the window |x| <= reach, as (x, |f(x)|).

    The local maxima of |f| on 2049 nodes, the origin among them, and
    each one moved by Newton steps on f' = 0 with f'' from the series.
    A step below 1e-9 of the node spacing is not taken: it would change
    f by about f'' step^2 / 2, under rounding.  A point that leaves its
    node's cell is dropped; the node itself stays a candidate.
    """
    x = reach * np.linspace(-1.0, 1.0, 2049)
    cell = x[1] - x[0]
    mags = np.abs(f(x))
    nodes = x[np.flatnonzero((mags[1:-1] > mags[:-2]) & (mags[1:-1] >= mags[2:])) + 1]
    x = nodes
    for _ in range(8):
        slope, bend = f._rows(x, (1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = slope / bend
        move = np.isfinite(step) & (np.abs(step) > 1e-9 * cell)
        if not move.any():
            break
        x = np.where(move, x - step, x)
    x = np.concatenate((nodes, x[np.abs(x - nodes) <= cell]))
    return x, np.abs(f(x))


def growth_table(pair: Eigenpair, N_ladder) -> list[GrowthRow]:
    """Log-space growth ladder rows at lam = N^(q/p), probed at the order
    k = select_k(pair), the profile's parity.

    Everything is analytic in log space, so N up to 1e6 costs nothing:
    the derivative at the origin is the series' own, and the sup of
    |F_lam| on [-1, 1]^3 comes from its definition.  The t2 phase has
    modulus 1 and the t1 factor peaks at exp(lam^(p/q) w), so
    log sup = N w + log max |f| over |x| <= lam^(1/q) = N^(1/p),
    capped at the pair's window, past which f is below e^-40 of its
    peak.  That max is the largest |f| at the box ends and at the
    extrema inside (_extrema).  The nuisance constant B0 is pinned by
    solving the two lowest rows exactly, mirroring how a derivative
    bound's constants would be fitted before testing growth against
    them; a repeated order would make that solve singular, so it raises
    ValueError.  The pin absorbs the N w term, linear in N, exactly
    into log B0, so s* and the extrapolated s0 do not depend on w.  A
    lam beyond the float range raises InconclusiveError, found in log space.
    """
    Ns = sorted(N_ladder)
    if len(Ns) < 2 or Ns[0] < 1 or not all(N % 1 == 0 for N in Ns):  # float(N) can overflow
        raise ValueError("need at least two ladder values with N >= 1, all integers")
    Ns = [int(N) for N in Ns]
    params = pair.params
    ratio = params.q / params.p
    digits = ratio * math.log10(Ns[-1])
    if digits > math.log10(sys.float_info.max):
        raise InconclusiveError(f"lam = N^(q/p) = 1e{int(digits)} leaves the float range")
    repeated = sorted({a for a, b in zip(Ns, Ns[1:]) if a == b})
    if repeated:
        raise ValueError(f"growth ladder orders must be distinct; repeated: {repeated}")
    k = select_k(pair)
    log_dk0 = math.log(abs(float(pair.f(0.0, k))))
    reach = pair.grid.half_width
    xs, mags = _extrema(pair.f, reach)
    boxes = np.minimum(np.array(Ns, dtype=float) ** (1.0 / params.p), reach)
    ends = np.max(np.abs(pair.f(np.stack((-boxes, boxes)))), axis=0)

    raw = []
    for N, box, end in zip(Ns, boxes, ends):
        log_lhs = (N + k / params.q) * (ratio * math.log(N)) + log_dk0
        peak = float(np.max(mags[np.abs(xs) <= box], initial=end))
        log_sup = N * math.sqrt(pair.z) + math.log(peak)
        raw.append((N, log_lhs, log_sup))

    # Two-row exact solve for (log B0, s): lhs - sup = N log B0 + s N log(N+1).
    (n1, l1, s1), (n2, l2, s2) = raw[0], raw[1]
    mat = np.array(
        [[n1, n1 * math.log(n1 + 1.0)], [n2, n2 * math.log(n2 + 1.0)]]
    )
    rhs = np.array([l1 - s1, l2 - s2])
    log_b0, _ = np.linalg.solve(mat, rhs)

    rows = []
    for N, log_lhs, log_sup in raw:
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


#: Rms budget of the ladder fit, and the tolerated miss of an expected s0.
_S0_TOL = 0.02


def estimate_optimal_exponent(
    rows: Sequence[GrowthRow], *, expected: float | None = None
) -> float:
    """Extrapolated growth exponent of a growth_table ladder: the limit of
    s*(N) as N -> infinity.

    Fits the rows' s* by least squares on the basis {log N / log(N+1),
    1/log(N+1)} and returns the first coefficient.  The model is exact
    only for k = 0 profiles whose |f| peaks at the origin (see the module
    docstring), where s0 reproduces q/p to rounding.  An odd mode, or an
    even one peaking off the origin, leaves a term of order log N / N
    outside it: on the default ladder the excited modes of the four
    default pairs miss q/p by up to 8.1e-3 (the fourth mode of (1, 3)).
    Rows of fewer than three distinct orders (two rows fit exactly, so
    the model goes unchecked) or a fit with rms above 0.02 raise
    InconclusiveError; if ``expected`` is supplied, disagreement beyond
    0.02 raises ConsistencyError (used by the CLI to self-check against
    theory).
    """
    if expected is not None and not math.isfinite(expected):
        raise ValueError(f"the expected exponent must be finite, got {expected}")
    if len({r.N for r in rows}) < 3:
        raise InconclusiveError("the growth ladder needs at least three distinct "
                                "orders; a two-term fit passes through two rows exactly")
    design = np.array([[math.log(r.N), 1.0] for r in rows])
    design /= np.array([[math.log(r.N + 1.0)] for r in rows])
    ys = np.array([r.s_star for r in rows])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    fitted = design @ coef
    rms = float(np.sqrt(np.mean((ys - fitted) ** 2)))
    if rms > _S0_TOL:
        raise InconclusiveError(
            f"growth ladder is not linear in log N / log(N+1) and 1 / log(N+1) "
            f"(rms {rms:.3g}); "
            "widen the ladder or check the eigenpair"
        )
    s0 = float(coef[0])
    if expected is not None and abs(s0 - expected) > _S0_TOL:
        raise ConsistencyError(
            f"extrapolated exponent {s0:.4f} disagrees with the expected "
            f"threshold {expected:.4f}"
        )
    return s0
