"""Grid container semantics."""

import math

import numpy as np
import pytest

from gevreylab import SampledFunction, make_gevrey_bump, sample


def line(vals, origin=0.0, h=0.5, **kw):
    return SampledFunction((origin,), (h,), np.asarray(vals), **kw)


class TestConstruction:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="origin/spacing"):
            SampledFunction((0.0, 0.0), (1.0, 1.0), np.zeros(4))

    def test_nonpositive_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            line([1.0, 2.0], h=0.0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="two samples"):
            line([1.0])

    def test_four_dimensional_rejected(self):
        with pytest.raises(ValueError, match="1, 2, or 3"):
            SampledFunction((0.0,) * 4, (1.0,) * 4, np.zeros((2, 2, 2, 2)))

    def test_coords(self):
        f = SampledFunction((1.0, -2.0), (0.5, 0.25), np.zeros((3, 5)))
        assert np.allclose(f.coords(0), [1.0, 1.5, 2.0])
        assert np.allclose(f.coords(1), [-2.0, -1.75, -1.5, -1.25, -1.0])


def test_rescaled_represents_dilated_argument():
    # g = f.rescaled(c) must satisfy g(x) = f(c x) on its own grid.
    f = sample(lambda x: np.exp(-(x**2)), [(-3.0, 3.0, 61)])
    g = f.rescaled(2.0)
    x = g.coords(0)
    assert np.allclose(g.values, np.exp(-((2.0 * x) ** 2)))
    with pytest.raises(ValueError):
        f.rescaled(-1.0)


def test_support_check():
    vals = np.zeros(11)
    vals[5] = 1.0
    assert line(vals).is_compactly_supported()
    vals[-1] = 1e-9  # below the 1e-8 tolerance
    assert line(vals).is_compactly_supported()
    vals[0] = 0.5
    assert not line(vals).is_compactly_supported()
    # All-zero samples count as supported (nothing to truncate).
    assert line(np.zeros(8)).is_compactly_supported()


def test_sample_matches_direct_evaluation():
    f = sample(lambda x, y: x + 10.0 * y, [(0.0, 1.0, 3), (0.0, 2.0, 5)])
    assert f.values.shape == (3, 5)
    assert f.values[2, 4] == pytest.approx(1.0 + 20.0)
    assert f.spacing == (0.5, 0.5)



def test_sample_passes_broadcastable_coordinates():
    # fn sees one sparse coordinate array per axis, and what it returns
    # is broadcast to the box, so an fn that ignores an axis fills it.
    seen = []

    def fn(x, t1, t2):
        seen.extend(a.shape for a in (x, t1, t2))
        return x * t2

    f = sample(fn, [(0.0, 1.0, 3), (0.0, 1.0, 4), (0.0, 2.0, 5)])
    assert seen == [(3, 1, 1), (1, 4, 1), (1, 1, 5)]
    assert f.values.shape == (3, 4, 5)
    want = f.coords(0)[:, None, None] * f.coords(2)[None, None, :]
    assert np.array_equal(f.values, np.broadcast_to(want, (3, 4, 5)))


class TestSamplesLieAtCoords:
    """``values[i]`` is each builder's own expression at ``coords(axis)[i]``,
    byte for byte, and the bump grid steps by exactly its recorded
    spacing (the probes are checked so in test_operators.py)."""

    @pytest.mark.parametrize("axes", [
        [(-7.0, 7.0, 4096)],
        [(-3.0, 3.0, 4001)],
        # The box verify_kernel builds at lam = 10 for (p, q) = (1, 2):
        # x half-width min(1, 0.98 * 10.62 / sqrt(10)) = 1, t2 half-width
        # 2.5 / ceil(4 lam).
        [(-1.0, 1.0, 81), (-0.125, 0.125, 11), (-0.0625, 0.0625, 11)],
    ])
    def test_sample(self, axes):
        def fn(*xs):
            return math.prod(np.exp(np.sin(3.0 * x + k)) for k, x in enumerate(xs))

        f = sample(fn, axes)
        grids = np.meshgrid(*(f.coords(ax) for ax in range(f.ndim)), indexing="ij", sparse=True)
        assert f.values.tobytes() == fn(*grids).tobytes()

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.0])
    def test_gevrey_bump(self, s):
        u = make_gevrey_bump(s)
        x = u.coords(0)
        if s == 1.0:
            want = np.where(np.abs(x) <= 1.0, np.exp(-(x**2) / (2.0 * 0.25**2)), 0.0)
        else:
            theta = 1.0 / (s - 1.0)
            with np.errstate(all="ignore"):
                inner = np.exp(-((x + 1.0) ** -theta) - (1.0 - x) ** -theta)
            want = np.where(np.abs(x) < 1.0, inner, 0.0)
        assert u.values.tobytes() == want.tobytes()
        assert np.all(np.diff(x) == u.spacing[0])
        assert x[-1] == 1.4999999999999893
