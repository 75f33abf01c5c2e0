"""Uniform-grid sampled functions.

Everything downstream (transforms, norms, eigensolvers) consumes the same
container: complex or real values on a uniform rectangular grid, described
by a per-axis origin and spacing.  Keeping the grid implicit (never storing
coordinate arrays) makes rescaled copies cheap, which the scaling checks
exploit: f(c*x) on the matching grid is the same value array with spacing
divided by c.  ``coords(axis)[i] = origin + spacing * i`` is where sample
i lies: every builder (``sample``, ``probe_family``, ``make_gevrey_bump``)
evaluates its function there, bit for bit, so quadratures, stencils and
kernel offsets that read ``coords`` see the nodes the samples were taken at.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

#: Largest boundary-shell sample, relative to the peak, of a function
#: that counts as compactly supported on its grid.
_SUPPORT_REL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Function samples on a uniform grid in one to three dimensions.

    ``values[i]`` is the function at ``coords(axis)[i]``, for every
    builder.  Samples hold arrays, so they compare and hash by identity.

    Parameters
    ----------
    origin : tuple of float
        Coordinate of the first sample along each axis.
    spacing : tuple of float
        Grid step along each axis, strictly positive.
    values : numpy.ndarray
        Sample values, real or complex; ``values.ndim == len(origin)``.
    support_radius : float, optional
        Declared bound R such that the function is negligible outside
        ``max_i |x_i| <= R``.  Purely advisory; operations that need
        decay at the grid edge check the samples, not this field.
    """

    origin: tuple[float, ...]
    spacing: tuple[float, ...]
    values: np.ndarray
    support_radius: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        if values.ndim != len(self.origin) or values.ndim != len(self.spacing):
            raise ValueError("origin/spacing length must match values.ndim")
        if values.ndim not in (1, 2, 3):
            raise ValueError("only 1, 2, or 3 dimensional grids are supported")
        if not all(0 < s < np.inf for s in self.spacing):
            raise ValueError("grid spacing must be positive and finite")
        if not np.all(np.isfinite(self.origin)):
            raise ValueError("grid origin must be finite")
        if any(n < 2 for n in values.shape):
            raise ValueError("need at least two samples per axis")

    @property
    def ndim(self) -> int:
        return self.values.ndim

    def coords(self, axis: int = 0) -> np.ndarray:
        """Sample coordinates along one axis."""
        return _nodes(self.origin[axis], self.spacing[axis], self.values.shape[axis])

    def rescaled(self, factor: float) -> "SampledFunction":
        """Samples of x -> f(factor * x): same values, grid shrunk by factor."""
        if not 0 < factor < np.inf:
            raise ValueError("rescale factor must be positive and finite")
        return replace(
            self,
            origin=tuple(o / factor for o in self.origin),
            spacing=tuple(s / factor for s in self.spacing),
            support_radius=None
            if self.support_radius is None
            else self.support_radius / factor,
        )

    def is_compactly_supported(self) -> bool:
        """True when every sample on the outermost grid shell is at most
        _SUPPORT_REL_TOL of the peak |value|, so a quadrature over this
        grid can be trusted as an integral over all of space."""
        top = float(np.max(np.abs(self.values)))
        if top == 0.0:
            return True
        shell = max(
            float(np.max(np.abs(np.take(self.values, idx, axis=ax))))
            for ax in range(self.ndim)
            for idx in (0, -1)
        )
        return shell <= _SUPPORT_REL_TOL * top


def _nodes(origin: float, spacing: float, n: int) -> np.ndarray:
    """origin + spacing * arange(n): the one rule for where samples lie."""
    return origin + spacing * np.arange(n)


def _exact_step_axis(lo: float, hi: float, n: int) -> tuple[float, np.ndarray]:
    """Spacing h = x[1] - x[0] of linspace(lo, hi, n) and the nodes
    ``_nodes(lo, h, n)``, where the probe and bump builders sample."""
    h = (lo + (hi - lo) / (n - 1)) - lo
    return h, _nodes(lo, h, n)


def sample(
    fn: Callable[..., np.ndarray],
    axes: Sequence[tuple[float, float, int]],
    support_radius: float | None = None,
) -> SampledFunction:
    """Sample a callable on the box described by (lo, hi, n) triples.

    Each axis has origin lo and spacing (hi - lo) / (n - 1), and ``fn``
    is evaluated at its ``coords``, whose last node may miss hi by a few
    ulps.  ``fn`` receives one coordinate array per axis, shaped to broadcast
    against the others ((n, 1, 1), (1, n, 1), (1, 1, n) in 3-D), and must
    vectorize over them; what it returns is broadcast to the box.
    """
    origin, spacing, coord1d = [], [], []
    for lo, hi, n in axes:
        if not isinstance(n, (int, np.integer)) or n < 2 or not hi > lo:
            raise ValueError(f"each axis needs hi > lo and an integer n >= 2, got {(lo, hi, n)}")
        origin.append(float(lo))
        spacing.append((hi - lo) / (n - 1))
        coord1d.append(_nodes(origin[-1], spacing[-1], n))
    values = np.asarray(fn(*np.meshgrid(*coord1d, indexing="ij", sparse=True)))
    shape = tuple(len(c) for c in coord1d)
    if values.shape != shape:
        values = np.broadcast_to(values, shape).copy()
    return SampledFunction(
        origin=tuple(origin),
        spacing=tuple(spacing),
        values=values,
        support_radius=support_radius,
    )

