"""Windowed transform: density factor, quadrature, inversion, splitting."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import with_sample
from gevreylab import (
    FitRejectedError,
    GridTooCoarseError,
    SampledFunction,
    bracket,
    decompose,
    estimate_order_fbi,
    fbi,
    fbi_field,
    fit_stretched_exponential,
    inversion_profile,
    jacobian_alpha,
    make_gevrey_bump,
    prune_decay_floor,
    sample,
)
from gevreylab.fbi import _lowpass_kernel

finite = st.floats(allow_nan=False, allow_infinity=False)

EPS = float(np.finfo(float).eps)


def test_bracket_values():
    assert bracket([0.0]) == pytest.approx(1.0)
    assert bracket(2.0) == pytest.approx(np.sqrt(5.0))


class TestDensityFactor:
    def test_zero_exponent_is_identity(self):
        assert jacobian_alpha([0.7], [31.0], 0.0) == 1.0 + 0.0j

    def test_zero_offset_is_identity(self):
        assert jacobian_alpha([0.0], [5.0], 0.8) == 1.0 + 0.0j

    def test_unit_point_value(self):
        # Derivative of the contour map xi -> xi + i x <xi>^g at
        # x = xi = g = 1 is 1 + i/sqrt(2).
        got = jacobian_alpha([1.0], [1.0], 1.0)
        assert got == pytest.approx(1.0 + 1j / np.sqrt(2.0), abs=1e-14)

    def test_exponent_range(self):
        with pytest.raises(ValueError, match="window exponent"):
            jacobian_alpha([1.0], [1.0], 1.5)

    @given(
        x=st.floats(min_value=-2.0, max_value=2.0),
        xi=st.floats(min_value=0.5, max_value=50.0),
        gamma=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_matches_finite_difference_jacobian(self, x, xi, gamma):
        def contour(t):
            return t + 1j * x * (1.0 + t * t) ** (gamma / 2.0)

        h = 1e-5 * max(1.0, abs(xi))
        fd = (contour(xi + h) - contour(xi - h)) / (2.0 * h)
        assert abs(fd - jacobian_alpha([x], [xi], gamma)) <= 1e-8

    @given(
        x=st.floats(min_value=-10.0, max_value=10.0),
        xi=st.floats(min_value=-100.0, max_value=100.0),
        gamma=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_distance_to_identity_bound(self, x, xi, gamma):
        # |alpha - 1| <= g |x| <xi>^(g-1) holds exactly: the imaginary
        # part is g <xi>^(g-2) x xi and |xi| <= <xi>.
        br = float(bracket(xi))
        diff = abs(jacobian_alpha([x], [xi], gamma) - 1.0)
        assert diff <= gamma * abs(x) * br ** (gamma - 1.0) * (1.0 + 1e-12)


@pytest.fixture(scope="module")
def bump2():
    return make_gevrey_bump(2.0)


@pytest.fixture(scope="module")
def smooth_gaussian():
    return sample(
        lambda x: np.exp(-(x**2) / 2.0), [(-7.0, 7.0, 4096)], support_radius=7.0
    )


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda u: fbi(u, 0.0, NAN, 0.5), (ValueError, "nan")),
        (lambda u: fbi(u, 0.0, INF, 0.5), (GridTooCoarseError, "grid limit")),
        (lambda u: fbi_field(u, 0.0, [16.0, NAN], 0.5), (ValueError, "nan")),
        (lambda u: inversion_profile(u, [0.0], 0.5, [NAN]), (ValueError, "nan")),
        (lambda u: decompose(u, NAN, 0.5, 0.1), (ValueError, "nan")),
        (lambda u: decompose(u, 20.0, 0.5, INF), (ValueError, "tube height")),
        (lambda u: inversion_profile(u, [NAN], 0.5, [10.0]), (ValueError, "nan")),
        (lambda u: inversion_profile(u, [0.0, 0.5], 0.5, []).shape, (0, 2)),
        (lambda u: estimate_order_fbi(u, 1.0, 0.5, []), (FitRejectedError, "got 0")),
        (lambda u: make_gevrey_bump(NAN), (ValueError, "at least 1")),
        (lambda u: make_gevrey_bump(INF), (ValueError, "at least 1")),
        (lambda u: fbi(with_sample(u, NAN), 0.0, 10.0, 0.5, check_support=False),
         (ValueError, "non-finite samples")),
        (lambda u: fbi_field(with_sample(u, NAN), 0.0, [16.0], 0.5),
         (ValueError, "non-finite samples")),
        (lambda u: inversion_profile(with_sample(u, INF), [0.0], 0.5, [10.0]),
         (ValueError, "non-finite samples")),
        (lambda u: decompose(with_sample(u, NAN), 20.0, 0.5, 0.1),
         (ValueError, "non-finite samples")),
        (lambda u: fbi(u, NAN, 16.0, 0.5), (ValueError, "points must be finite")),
        (lambda u: fbi(u, 1.0 + 1j * INF, 16.0, 0.5), (ValueError, "points must be finite")),
        (lambda u: fbi_field(u, NAN, [16.0, 32.0], 0.5), (ValueError, "points must be finite")),
        (lambda u: fbi_field(u, [INF], [16.0], 0.5), (ValueError, "points must be finite")),
        (lambda u: estimate_order_fbi(u, NAN, 0.5, [16.0, 32.0]),
         (ValueError, "points must be finite")),
        (lambda u: inversion_profile(u, [0.0, INF], 0.5, [10.0]),
         (ValueError, "points must be finite")),
    ],
    ids=["fbi-nan", "fbi-inf", "field-nan", "inversion-nan", "decompose-nan",
         "decompose-tube-inf", "inversion-point-nan", "inversion-empty", "estimate-empty", "bump-nan", "bump-inf",
         "fbi-sample-nan", "field-sample-nan", "inversion-sample-inf", "decompose-sample-nan",
         "fbi-point-nan", "fbi-point-inf", "field-point-nan", "field-point-inf",
         "estimate-point-nan", "inversion-point-inf"],
)
def test_non_finite_and_empty_inputs(bump2, call, expected):
    # A NaN frequency is a plain ValueError and an infinite one is too
    # fine for the grid; neither reaches numpy, nor does an infinite tube
    # height or a non-finite evaluation point of any entry point.  An
    # empty ladder is an empty result, which the fit then rejects.  A
    # non-finite sample is named as such, not read as samples that fail
    # to decay.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not isinstance(expected[0], type):  # a result shape
            assert call(bump2) == expected
            return
        error, fragment = expected
        with pytest.raises(error, match=fragment) as err:
            call(bump2)
    assert type(err.value) is error


class TestTransform:
    def test_zero_input(self, bump2):
        z = SampledFunction(bump2.origin, bump2.spacing, np.zeros_like(bump2.values))
        assert fbi(z, 0.0, 10.0, 0.5) == 0.0

    def test_vector_length_checked(self, bump2):
        with pytest.raises(ValueError, match="length ndim"):
            fbi(bump2, [0.0, 0.0], [1.0, 1.0], 0.5)

    def test_grid_resolution_guard(self, bump2):
        limit = 2.0 * np.pi / (8.0 * bump2.spacing[0])
        with pytest.raises(GridTooCoarseError):
            fbi(bump2, 0.0, 2.0 * limit, 0.5)

    def test_one_dimensional_only(self):
        f = SampledFunction((0.0, 0.0), (0.1, 0.1), np.zeros((8, 8)))
        with pytest.raises(ValueError, match="1d"):
            fbi(f, 0.0, 1.0, 0.5)

    def test_unsupported_samples_rejected(self):
        f = SampledFunction((0.0,), (0.1,), np.ones(64))
        with pytest.raises(ValueError, match="decay at the grid boundary"):
            fbi(f, 0.0, 1.0, 0.5)

    def test_gaussian_against_refined_grid(self):
        # Smooth compactly supported integrand: trapezoid quadrature is
        # spectrally accurate, so 4x refinement pins 8 digits.  The
        # frequency is kept moderate so the value (~8e-5) sits far above
        # the eps * mass rounding floor that a relative check cannot see
        # past.
        coarse = sample(lambda x: np.exp(-(x**2) / 2.0), [(-7.0, 7.0, 4096)])
        fine = sample(lambda x: np.exp(-(x**2) / 2.0), [(-7.0, 7.0, 16384)])
        a = fbi(coarse, 0.0, 12.0, 0.5)
        b = fbi(fine, 0.0, 12.0, 0.5)
        assert abs(a - b) <= 1e-8 * abs(b)

    @given(
        a_re=st.floats(min_value=-3.0, max_value=3.0),
        a_im=st.floats(min_value=-3.0, max_value=3.0),
        b_re=st.floats(min_value=-3.0, max_value=3.0),
        xi=st.floats(min_value=0.5, max_value=100.0),
        gamma=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40)
    def test_linearity(self, bump2, a_re, a_im, b_re, xi, gamma):
        a = complex(a_re, a_im)
        x = bump2.coords(0)
        other = np.exp(-((x - 0.2) ** 2) / 0.18)
        v = SampledFunction(bump2.origin, bump2.spacing, other)
        combo = SampledFunction(
            bump2.origin, bump2.spacing, a * bump2.values + b_re * other
        )
        z = 0.3
        lhs = fbi(combo, z, xi, gamma, check_support=False)
        fu = fbi(bump2, z, xi, gamma, check_support=False)
        fv = fbi(v, z, xi, gamma, check_support=False)
        want = a * fu + b_re * fv
        scale = max(abs(fu), abs(fv), 1e-30)
        # Quadrature rounding leaves an absolute eps * integrand-mass
        # floor under the relative term; it dominates once the transform
        # values themselves have decayed to ~1e-8.
        mass = bump2.spacing[0] * float(
            abs(a) * np.sum(np.abs(bump2.values)) + abs(b_re) * np.sum(other)
        )
        tol = 1e-10 * max(1.0, abs(a) + abs(b_re)) * scale + 100.0 * EPS * mass
        assert abs(lhs - want) <= tol

    def test_entire_in_base_point(self, bump2):
        # Four-point complex stencil: d/dy F = i d/dx F for an entire
        # function of z = x + iy.
        h, z, xi, gamma = 1e-4, 0.3 + 0.05j, 6.0, 0.5

        def F(w):
            return fbi(bump2, w, xi, gamma)

        ddx = (F(z + h) - F(z - h)) / (2.0 * h)
        ddy = (F(z + 1j * h) - F(z - 1j * h)) / (2.0 * h)
        assert abs(ddy - 1j * ddx) <= 1e-6 * max(1.0, abs(ddx))


class TestField:
    def test_empty_frequency_list(self, bump2):
        field = fbi_field(bump2, 0.0, [], 0.5)
        assert field.values.shape == (0,)
        assert field.magnitudes().shape == (0,)

    def test_singleton_matches_pointwise(self, bump2):
        field = fbi_field(bump2, 0.25, [17.0], 0.75)
        direct = fbi(bump2, 0.25, 17.0, 0.75)
        assert field.base_point == 0.25
        assert abs(field.values[0] - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_fields_compare_and_hash_by_identity(self, bump2):
        a = fbi_field(bump2, 1.0, [16.0, 32.0], 0.5)
        b = fbi_field(bump2, 1.0, [16.0, 32.0], 0.5)
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_bump_decays_along_ray(self, bump2):
        freqs = 2.0 ** np.arange(0, 11)
        mags = fbi_field(bump2, 0.0, freqs, 1.0).magnitudes()
        assert mags.shape == freqs.shape
        # Strict decay down to 2.55e-9 at 2^6, over the prefix the
        # estimator keeps; past it the magnitudes are rounding noise
        # that need not fall, but stay below the 1e-12 * peak floor.
        _, kept = prune_decay_floor(freqs, mags)
        assert len(kept) == 7
        assert np.all(np.diff(kept) < 0)
        assert np.all(mags[len(kept):] < 1e-12 * mags.max())

    def test_positive_frequencies_required(self, bump2):
        with pytest.raises(ValueError, match="positive"):
            fbi_field(bump2, 0.0, [-1.0, 2.0], 0.5)

    def test_one_base_point_only(self, bump2):
        with pytest.raises(ValueError, match="scalars"):
            fbi_field(bump2, [0.0, 0.5], [1.0], 0.5)

    def test_one_dimensional_only(self):
        f = SampledFunction((0.0, 0.0), (0.1, 0.1), np.zeros((8, 8)))
        with pytest.raises(ValueError, match="1d"):
            fbi_field(f, 0.0, [1.0], 0.5)

    def test_tube_growth_bound(self, bump2):
        # One (C, delta) fitted on the real axis plus a linear-in-|Im z|
        # exchange term must dominate the entire (height, frequency)
        # grid; the exchange rate is at most the frequency itself.
        freqs = np.geomspace(16.0, 1024.0, 24)
        heights = (-0.02, -0.01, 0.0, 0.01, 0.02)
        mags = [fbi_field(bump2, 1.0 + 1j * y, freqs, 0.5).magnitudes() for y in heights]
        row0 = list(heights).index(0.0)
        kept_f, kept_m = prune_decay_floor(freqs, mags[row0])
        fit = fit_stretched_exponential(kept_f, kept_m)
        assert abs(fit.r - 0.5) <= 0.1
        logc = np.log(fit.C)
        for i, y in enumerate(heights):
            logs = np.log(mags[i][: len(kept_f)])
            bound = logc - fit.delta * kept_f**fit.r + 1.5 * kept_f * abs(y) + 1.0
            assert np.all(logs <= bound)


class TestInversion:
    def test_zero_input(self, bump2):
        z = SampledFunction(bump2.origin, bump2.spacing, np.zeros_like(bump2.values))
        assert np.all(inversion_profile(z, [0.0], 1.0, [50.0]) == 0.0)

    def test_one_dimensional_only(self):
        f = SampledFunction((0.0, 0.0), (0.1, 0.1), np.zeros((8, 8)))
        with pytest.raises(ValueError, match="1d"):
            inversion_profile(f, [0.0], 1.0, [10.0])

    def test_unsupported_samples_rejected(self):
        f = SampledFunction((0.0,), (0.1,), np.ones(64))
        with pytest.raises(ValueError, match="decay at the grid boundary"):
            inversion_profile(f, [3.0], 0.5, [1.0])

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_gaussian_recovered_at_large_radius(self, smooth_gaussian, gamma):
        got = inversion_profile(smooth_gaussian, [0.0], gamma, [200.0])
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - 1.0) <= 1e-3

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_monotone_convergence_on_dyadic_ladder(self, gamma):
        narrow = sample(
            lambda x: np.exp(-(x**2) / (2.0 * 0.1**2)),
            [(-7.0, 7.0, 4096)],
            support_radius=7.0,
        )
        idx = np.linspace(300, 3700, 7).astype(int)
        xs = narrow.coords(0)[idx]
        truth = narrow.values[idx]
        vals = inversion_profile(narrow, xs, gamma, [25.0, 50.0, 100.0, 200.0])
        errs = np.max(np.abs(vals - truth[None, :]), axis=1)
        assert np.all(np.diff(errs) <= 1e-12)
        assert errs[-1] <= 1e-3

    @pytest.mark.parametrize("radius", [0.0, -100.0])
    @pytest.mark.parametrize(
        "invert",
        [
            lambda u, r: inversion_profile(u, [0.5], 0.5, [r]),
            lambda u, r: inversion_profile(u, [0.5], 0.5, [100.0, r]),
        ],
        ids=["one_radius", "inversion_profile"],
    )
    def test_non_positive_radius_rejected(self, bump2, invert, radius):
        with pytest.raises(ValueError, match="radius must be positive"):
            invert(bump2, radius)

    def test_non_dyadic_ladder_matches_pointwise(self, smooth_gaussian):
        # Each ladder row equals that radius's own one-radius call.
        xs = np.array([-0.4, 0.0, 0.3, 1.1])
        radii = [13.3, 100.0]
        got = inversion_profile(smooth_gaussian, xs, 0.5, radii)
        for row, r in zip(got, radii):
            want = inversion_profile(smooth_gaussian, xs, 0.5, [r])[0]
            assert np.allclose(row, want, rtol=0.0, atol=1e-14)


class TestLowpassKernel:
    @staticmethod
    def reference(w, lam, gamma, n=200001):
        # Trapezoid rule for the defining frequency integral; the
        # integrand is smooth, so the error is O(dxi^2).
        xis = np.linspace(-lam, lam, n)
        br = np.sqrt(1.0 + xis * xis)
        vals = np.exp(1j * w * xis - br**gamma * w * w)
        vals = vals * (1.0 + 1j * gamma * br ** (gamma - 2.0) * w * xis)
        trap = (xis[1] - xis[0]) * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
        return trap / (2.0 * np.pi)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("w", [0.0, 0.013, -0.2, 0.7, 0.05 + 0.04j, -0.3 - 0.08j])
    def test_matches_frequency_quadrature(self, gamma, w):
        lam = 25.0
        got = _lowpass_kernel(np.array([w]), lam, gamma)[0]
        want = self.reference(w, lam, gamma)
        assert abs(got - want) <= 1e-8 * lam
        if w == 0.0:
            assert got == pytest.approx(lam / np.pi, rel=1e-15)


class TestSplitting:
    def test_split_is_exact_on_real_axis(self, bump2):
        # Row 0 of the tube is the real axis, where the split is exact.
        d = decompose(bump2, 30.0, 0.5, tube_height=0.1)
        assert d.low.values.shape == (5, bump2.values.size)
        assert d.low.origin == (0.0, bump2.origin[0])
        assert d.low.spacing == (0.025, bump2.spacing[0])
        recon = d.low.values[0] + d.high.values
        assert np.allclose(recon, bump2.values, atol=1e-14)

    @pytest.mark.parametrize("height", [0.0, 0.1, 0.3])
    def test_lowpass_matches_inversion_on_asymmetric_input(self, height):
        # Two Gaussians of different weight, off centre: a low-pass line
        # evaluated on the mirrored input would differ by order one.  The
        # complex case, times e^(3ix), checks the real-axis row's real kernel.
        def pair(x):
            return np.exp(-4.0 * (x - 1.0) ** 2) + 0.5 * np.exp(-8.0 * (x + 1.5) ** 2)

        row = round(height / 0.1)  # tube rows sit at heights 0, 0.1, ..., 0.4
        for fn in (pair, lambda x: pair(x) * np.exp(3j * x)):
            u = sample(fn, [(-4.0, 4.0, 1024)], support_radius=4.0)
            got = decompose(u, 20.0, 0.5, tube_height=0.4).low.values[row]
            want = inversion_profile(u, u.coords(0) + 1j * height, 0.5, [20.0])[0]
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_tube_rows_match_inversion(self, bump2):
        # The criterion-6 ladder: the top tube row of every cut, which
        # the FFT computes, against the pointwise sum at z = x + i lam^(-1/2).
        # The e^(lam y) growth of the tube kernel sets the rounding floor
        # (about 2e-12 at lam = 200, for the direct sum too).
        idx = np.arange(0, bump2.values.size, 37)
        for lam in (25.0 * 2.0 ** (j / 2.0) for j in range(7)):
            top = lam**-0.5
            got = decompose(bump2, lam, 0.5, tube_height=top).low.values[-1, idx]
            want = inversion_profile(bump2, bump2.coords(0)[idx] + 1j * top, 0.5, [lam])[0]
            assert np.max(np.abs(got - want)) <= 1e-11

    def test_undecayed_samples_rejected(self):
        flat = sample(np.ones_like, [(-1.0, 1.0, 1024)])
        with pytest.raises(ValueError, match="do not decay"):
            decompose(flat, 20.0, 0.5, tube_height=0.1)

    def test_cut_below_one_rejected(self, bump2):
        with pytest.raises(ValueError, match="at least 1"):
            decompose(bump2, 0.5, 0.5, tube_height=0.1)

    def test_negative_tube_rejected(self, bump2):
        for height in (-0.1, 0.0):
            with pytest.raises(ValueError, match="positive"):
                decompose(bump2, 10.0, 0.5, tube_height=height)

    def test_lowpass_requires_resolvable_cut(self, bump2):
        limit = 2.0 * np.pi / (8.0 * bump2.spacing[0])
        with pytest.raises(GridTooCoarseError):
            decompose(bump2, 2.0 * limit, 0.5, tube_height=0.1)

    def test_analytic_input_high_part_decays_exponentially(self, smooth_gaussian):
        # Analytic input: sup of the high part should fall like
        # exp(-delta lam), i.e. log sup is linear in lam with a clearly
        # negative slope.  (The order-1 generator truncates a Gaussian
        # at the interval ends; that jump would leave a lam-independent
        # remnant, so the genuinely smooth sample is the right probe.)
        lams = np.array([25.0, 50.0, 100.0, 200.0])
        sups = np.array(
            [decompose(smooth_gaussian, lam, 1.0, tube_height=lam**-0.5).high_sup()
             for lam in lams]
        )
        assert np.all(np.diff(sups) < 0)
        slope = np.polyfit(lams, np.log(sups), 1)[0]
        assert slope < -1e-3
