"""Parameterized FBI transform, truncated inversion, and frequency splitting.

The transform used throughout is

    F u(z, xi) = integral  u(x') exp(i (z - x') . xi - <xi>^g (z - x')^2)
                           * alpha_g(z - x', xi)  dx'

with the Japanese bracket <xi> = (1 + |xi|^2)^(1/2), a window exponent
g in [0, 1], and the holomorphic density

    alpha_g(w, xi) = det(I + i g <xi>^(g-2) w xi^T)
                   = 1 + i g <xi>^(g-2) (w . xi),

which is the Jacobian determinant of the contour map
xi -> xi + i g ... appearing in the inversion formula; the closed form is
the rank-one determinant identity and is cross-checked against a finite
difference Jacobian in the tests.  Note (z - x')^2 means the holomorphic
square sum((z_j - x_j')^2), not |z - x'|^2, so F is entire in z.

At g = 0 the window is a plain Gaussian and alpha = 1 (the classical
transform); g = 1 gives the parabolic scaling adapted to Gevrey order 1.
The decay of |F u(x, xi)| in xi at fixed base point x, measured along a
frequency ladder, is the classifier signal: order-s regularity shows up
as exp(-c xi^(1/s)) at the right window exponent.

Truncated inversion and the low/high frequency splitting integrate the
transform over |xi| <= lam.  Because alpha_g is the Jacobian of the
contour map, the integrand is an exact xi-derivative,

    exp(i w xi - <xi>^g w^2) alpha_g(w, xi)
        = (1 / (i w)) d/dxi exp(i w xi - <xi>^g w^2),

so the frequency integral is closed form: both operations are the
convolution of u with the low-pass kernel

    K_lam(w) = (1/2pi) integral_{|xi|<=lam} exp(i w xi - <xi>^g w^2) alpha_g dxi
             = sin(lam w) / (pi w) * exp(-<lam>^g w^2),     K_lam(0) = lam/pi,

which holds for complex w as well, so tube evaluation needs nothing else.
On the sample grid the x' integral is the sum h * sum_j u(x_j) K_lam(z - x_j):
a discrete convolution along a line Im z = const, and one matrix-vector
product at a set of isolated points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import SampledFunction

#: Require this many quadrature samples per oscillation period.
_SAMPLES_PER_PERIOD = 8


class GridTooCoarseError(ValueError):
    """Requested frequency oscillates faster than the grid can resolve."""


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"window exponent must lie in [0, 1], got {gamma}")
    return gamma


def bracket(xi) -> np.ndarray:
    """Japanese bracket (1 + |xi|^2)^(1/2) for a vector frequency."""
    xi = np.asarray(xi, dtype=float)
    return np.sqrt(1.0 + np.sum(xi * xi, axis=-1 if xi.ndim else None))


def jacobian_alpha(x, xi, gamma: float) -> complex:
    """Holomorphic density alpha_g as a rank-one determinant.

    Parameters
    ----------
    x, xi : array_like, shape (n,)
        Offset vector and frequency vector.
    gamma : float
        Window exponent in [0, 1].

    Returns
    -------
    complex
        ``1 + i * gamma * <xi>**(gamma - 2) * (x . xi)``.
    """
    gamma = _check_gamma(gamma)
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if x.shape != xi.shape:
        raise ValueError("offset and frequency must have the same shape")
    br = float(bracket(xi))
    return complex(1.0 + 1j * gamma * br ** (gamma - 2.0) * np.sum(x * xi))


def _max_frequency(spacing) -> float:
    """Largest |xi_j| the grid resolves at the required sampling rate."""
    h = max(spacing)
    return 2.0 * np.pi / (_SAMPLES_PER_PERIOD * h)


def _require_resolved(spacing, xi) -> None:
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    limit = _max_frequency(spacing)
    top = float(np.max(np.abs(xi)))
    if top > limit:
        raise GridTooCoarseError(
            f"frequency {top:.6g} exceeds the grid limit {limit:.6g}; "
            "refine the sample spacing"
        )


def _require_supported(u: SampledFunction, rel_tol: float = 1e-8) -> None:
    if not u.is_compactly_supported(rel_tol):
        raise ValueError(
            "samples do not decay at the grid boundary; the quadrature "
            "would truncate essential mass"
        )


def fbi(u: SampledFunction, z, xi, gamma: float, *, check_support: bool = True) -> complex:
    """Transform of ``u`` at one base point and one frequency.

    Parameters
    ----------
    u : SampledFunction
        Samples in dimension 1 to 3, decaying at the grid boundary.
    z : array_like, shape (n,) or scalar for n = 1
        Base point; may be complex (evaluation on a tube).
    xi : array_like, shape (n,) or scalar for n = 1
        Real frequency vector.
    gamma : float
        Window exponent in [0, 1].

    Raises
    ------
    GridTooCoarseError
        If |xi_j| oscillates faster than the grid sampling supports.
    """
    gamma = _check_gamma(gamma)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if z.shape != (u.ndim,) or xi.shape != (u.ndim,):
        raise ValueError("base point and frequency must be vectors of length ndim")
    _require_resolved(u.spacing, xi)
    if check_support:
        _require_supported(u)

    br = float(bracket(xi))
    # Broadcast per-axis offsets; phase and squared offset are separable sums.
    offsets = [z[ax] - g for ax, g in enumerate(u.grids())]
    phase = sum(off * xi[ax] for ax, off in enumerate(offsets))
    sq = sum(off * off for off in offsets)
    dot = phase  # (z - x') . xi, reused inside alpha
    integrand = u.values * np.exp(1j * phase - br**gamma * sq)
    integrand = integrand * (1.0 + 1j * gamma * br ** (gamma - 2.0) * dot)
    return complex(np.sum(integrand) * u.cell_volume)


def _field_1d(u: SampledFunction, zs: np.ndarray, xis: np.ndarray, gamma: float) -> np.ndarray:
    """Transform values on a batch of base points times a frequency grid.

    Returns an array of shape (len(zs), len(xis)).  One fused broadcast
    keeps the hot loop in vectorized numpy; memory is len(zs) * len(xis)
    * len(grid) complex entries, so callers chunk the frequency axis.
    """
    x = u.coords(0)
    br = np.sqrt(1.0 + xis * xis)
    off = zs[:, None, None] - x[None, None, :]          # (m, 1, n)
    xi_b = xis[None, :, None]                           # (1, k, 1)
    br_b = br[None, :, None]
    dot = off * xi_b
    expo = 1j * dot - br_b**gamma * off * off
    alpha = 1.0 + 1j * gamma * br_b ** (gamma - 2.0) * dot
    vals = np.einsum("mkn,n->mk", np.exp(expo) * alpha, u.values)
    return vals * u.spacing[0]


def _field_1d_chunked(
    u: SampledFunction, zs: np.ndarray, xis: np.ndarray, gamma: float, chunk: int = 64
) -> np.ndarray:
    out = np.empty((len(zs), len(xis)), dtype=complex)
    for start in range(0, len(xis), chunk):
        sl = slice(start, min(start + chunk, len(xis)))
        out[:, sl] = _field_1d(u, zs, xis[sl], gamma)
    return out


@dataclass(frozen=True)
class FbiField:
    """Transform magnitudes |F u| on base points times a frequency ladder."""

    base_points: np.ndarray
    freqs: np.ndarray
    gamma: float
    values: np.ndarray  # complex, shape (len(base_points), len(freqs))

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.values)


def fbi_field(
    u: SampledFunction,
    base_points,
    freqs,
    gamma: float,
    *,
    check_support: bool = True,
) -> FbiField:
    """Evaluate the transform on a grid of base points and frequencies.

    One dimensional only; the pointwise ``fbi`` covers higher dimensions.

    Parameters
    ----------
    u : SampledFunction
    base_points : array_like, shape (m,)
        Real or complex base points.
    freqs : array_like, shape (k,)
        Positive frequency magnitudes (the classifier ladder).
    gamma : float
        Window exponent in [0, 1].
    """
    gamma = _check_gamma(gamma)
    if u.ndim != 1:
        raise ValueError("the transform field is implemented for 1d samples")
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or np.any(freqs <= 0):
        raise ValueError("frequency ladder must be a 1d array of positive reals")
    if check_support:
        _require_supported(u)

    zs = np.atleast_1d(np.asarray(base_points, dtype=complex))
    if freqs.size == 0:
        return FbiField(zs, freqs, gamma, np.empty((len(zs), 0), dtype=complex))
    _require_resolved(u.spacing, freqs.max())
    values = _field_1d_chunked(u, zs, freqs, gamma)
    return FbiField(zs, freqs, gamma, values)


def _lowpass_kernel(w, lam: float, gamma: float) -> np.ndarray:
    """Closed-form K_lam(w) = (1/2pi) int_{|xi|<=lam} exp(i w xi - <xi>^g w^2) alpha dxi.

    Equals sin(lam w) / (pi w) * exp(-<lam>^g w^2); ``np.sinc`` supplies
    the value lam/pi at w = 0.  w may be complex (tube evaluation).
    """
    br = np.sqrt(1.0 + lam * lam)
    return lam / np.pi * np.sinc(lam * w / np.pi) * np.exp(-(br**gamma) * w * w)


def _lowpass_at(u: SampledFunction, zs: np.ndarray, lam: float, gamma: float) -> np.ndarray:
    """Low-frequency part h * sum_j u(x_j) K_lam(z - x_j) at the points zs."""
    w = zs[:, None] - u.coords(0)[None, :]
    return _lowpass_kernel(w, lam, gamma) @ u.values * u.spacing[0]


def invert_partial(
    u: SampledFunction,
    x,
    gamma: float,
    radius: float,
    *,
    check_support: bool = True,
) -> complex:
    """Frequency-truncated inversion at one point.

    Computes (1/2pi) * integral over |xi| <= radius of F u(x, xi) d xi.
    As radius grows this converges to u(x) wherever u is smooth; the
    truncation error is the classifier's notion of high-frequency content.
    One dimensional only.
    """
    gamma = _check_gamma(gamma)
    if u.ndim != 1:
        raise ValueError("truncated inversion is implemented for 1d samples")
    if radius <= 0:
        raise ValueError("inversion radius must be positive")
    if check_support:
        _require_supported(u)
    _require_resolved(u.spacing, radius)
    zs = np.atleast_1d(np.asarray(x, dtype=complex))
    vals = _lowpass_at(u, zs, radius, gamma)
    return complex(vals[0]) if np.isscalar(x) or np.ndim(x) == 0 else vals


def inversion_profile(
    u: SampledFunction,
    xs,
    gamma: float,
    radii,
) -> np.ndarray:
    """Truncated inversions at several points for a whole radius ladder.

    Returns an array of shape (len(radii), len(xs)); row i equals
    ``invert_partial(u, xs, gamma, radii[i])``.  Any positive radii work;
    a radius <= 0 raises ValueError.
    """
    gamma = _check_gamma(gamma)
    if u.ndim != 1:
        raise ValueError("truncated inversion is implemented for 1d samples")
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0):
        raise ValueError("inversion radius must be positive")
    _require_resolved(u.spacing, float(radii.max()))
    zs = np.atleast_1d(np.asarray(xs, dtype=complex))
    return np.array([_lowpass_at(u, zs, r, gamma) for r in radii])


def lowpass_profile(
    u: SampledFunction,
    lam: float,
    gamma: float,
    *,
    height: float = 0.0,
) -> SampledFunction:
    """Low-frequency part g_lam evaluated along the line Im z = height.

    Returns samples on the same real grid as ``u``.  g_lam is entire in z,
    so evaluation off the real axis is the same convolution with a complex
    offset; boundedness of the result on tubes of width lam^(-1/2) is the
    quantitative content of the splitting.
    """
    gamma = _check_gamma(gamma)
    if u.ndim != 1:
        raise ValueError("frequency splitting is implemented for 1d samples")
    if lam <= 0:
        raise ValueError("frequency cut must be positive")
    _require_resolved(u.spacing, lam)
    x = u.coords(0)
    h = u.spacing[0]
    n = len(x)
    w0 = (x[0] + 1j * height) - x[-1]
    w = w0 + np.arange(2 * n - 1) * h
    kernel = _lowpass_kernel(w, lam, gamma)
    vals = h * np.convolve(u.values[::-1], kernel, mode="valid")[:n]
    return SampledFunction(u.origin, u.spacing, vals)


@dataclass(frozen=True)
class Decomposition:
    """Split u = low + high at frequency cut lam.

    ``low`` is the frequency-truncated part: it extends to an entire
    function, sampled here on a tube (axis 0 walks the imaginary offsets
    0 .. tube_height, axis 1 the real grid; row 0 is the real axis).
    With ``tube_height`` 0 there is no tube and ``low`` stays one
    dimensional on the input grid.
    ``high`` carries the frequencies above lam, lives on the real grid,
    and is small in sup norm when u is regular: sup |high| decays like
    exp(-delta * lam^(1/s)) for an order-s input.
    """

    lam: float
    gamma: float
    tube_height: float
    low: SampledFunction
    high: SampledFunction

    def low_on_axis(self) -> np.ndarray:
        vals = self.low.values
        return vals[0] if vals.ndim == 2 else vals

    def high_sup(self) -> float:
        return float(np.max(np.abs(self.high.values)))

    def tube_sup(self) -> float:
        return float(np.max(np.abs(self.low.values)))


def decompose(
    u: SampledFunction,
    lam: float,
    gamma: float,
    tube_height: float = 0.0,
    *,
    n_heights: int = 5,
) -> Decomposition:
    """Split samples into low and high frequency parts at cut ``lam``.

    The low part is evaluated on ``n_heights`` lines Im z = const from 0
    up to ``tube_height``; the split u = low + high is exact on the real
    axis by construction, so only the real-axis row enters ``high``.
    """
    if lam < 1.0:
        raise ValueError("frequency cut must be at least 1")
    if tube_height < 0.0:
        raise ValueError("tube height must be nonnegative")
    if tube_height == 0.0:
        n_heights = 1
    heights = np.linspace(0.0, tube_height, n_heights)
    rows = [lowpass_profile(u, lam, gamma, height=y).values for y in heights]
    if n_heights == 1:
        # Axis-only split: the low part lives on the input grid.
        low = SampledFunction(u.origin, u.spacing, rows[0])
    else:
        low = SampledFunction(
            origin=(0.0, u.origin[0]),
            spacing=(float(heights[1] - heights[0]), u.spacing[0]),
            values=np.vstack(rows),
        )
    high = SampledFunction(u.origin, u.spacing, u.values - rows[0])
    return Decomposition(float(lam), float(gamma), float(tube_height), low, high)
