"""Synthetic bumps, the stretched-exponential fit, and both order estimators."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gevreylab.gevrey
from gevreylab import (
    FitRejectedError,
    OrderTooHighError,
    SampledFunction,
    decompose,
    estimate_order_derivatives,
    estimate_order_fbi,
    fbi_field,
    fd_weights,
    fit_stretched_exponential,
    make_gevrey_bump,
    prune_decay_floor,
)
from gevreylab.gevrey import _fd_table

LADDER = tuple(np.geomspace(16.0, 1024.0, 24))

# (r, delta, C) that scipy's bounded trust-region least squares fitted
# before the variable-projection solve replaced it, on the default
# transform ladders (order s at gamma = min(1, 1/s), as the transform
# pipeline picks it; classify reads the order-2 one) and on the
# criterion-6 splitting cuts of the order-2 bump.  The orders 1, 1.5 and
# 2 were fitted again the same way once the bump was sampled at its own
# coords, which moved their ladders.
TRUST_REGION_FITS = {
    "transform-1": (0.9955146765761437, 0.261277187886663, 1.0502979226549645),
    "transform-1.5": (0.6387133933104971, 1.1733597612136968, 0.1549243354007577),
    "transform-2": (0.441461853631457, 2.3393476939893203, 1.385519090502729),
    "transform-3": (0.2482767406234458, 4.397069743879219, 8.869940755122967),
    "splitting": (0.477434725021557, 1.7053237779371955, 0.5265718319926949),
}


def default_ladder(bump_of, name: str):
    """The (abscissae, values) ladder a TRUST_REGION_FITS entry was fitted on."""
    if name == "splitting":
        cuts = [25.0 * 2.0 ** (j / 2.0) for j in range(7)]
        highs = [decompose(bump_of(2.0), lam, 0.5, tube_height=lam**-0.5).high_sup()
                 for lam in cuts]
        return np.array(cuts), np.array(highs)
    s = float(name.split("-")[1])
    mags = fbi_field(bump_of(s), probe_point(s), LADDER, min(1.0, 1.0 / s)).magnitudes()
    return prune_decay_floor(LADDER, mags)


class TestBumpGenerator:
    def test_rejects_subanalytic_order(self):
        with pytest.raises(ValueError, match="at least 1"):
            make_gevrey_bump(0.8)

    def test_center_value_order_two(self):
        # exp(-1/(0-(-1))) * exp(-1/(1-0)) at the midpoint of [-1, 1].
        u = make_gevrey_bump(2.0)
        mid = np.argmin(np.abs(u.coords(0)))
        # The evaluation point is the grid sample nearest 0, half a
        # spacing off center, hence the loose relative tolerance.
        assert u.values[mid] == pytest.approx(np.exp(-2.0), rel=1e-6)

    def test_vanishes_outside_support(self):
        u = make_gevrey_bump(3.0)
        x = u.coords(0)
        outside = (x <= -1.0) | (x >= 1.0)
        assert np.all(u.values[outside] == 0.0)

    def test_order_just_above_one_is_finite_without_warning(self):
        # (1 -+ x)^(-1/(s-1)) overflows next to +-1 here; exp(-inf) = 0
        # is the exact value, so no overflow warning may reach the caller.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = make_gevrey_bump(1.005)
        x = u.coords(0)
        assert np.all(np.isfinite(u.values))
        assert np.all(u.values[np.abs(x) >= 1.0] == 0.0)
        assert np.max(u.values) > 0.0

    def test_flat_at_the_edges(self):
        # The profile and its sampled slope both vanish to high accuracy
        # approaching the support endpoint.
        u = make_gevrey_bump(2.0, n=8192)
        x = u.coords(0)
        near = (x > 0.995) & (x < 1.0)
        assert np.max(u.values[near]) < np.exp(-150.0)

    def test_order_one_is_truncated_gaussian(self):
        u = make_gevrey_bump(1.0)
        x = u.coords(0)
        inside = np.abs(x) <= 1.0
        sigma = 2.0 / 8.0
        want = np.exp(-(x[inside] ** 2) / (2.0 * sigma**2))
        assert np.allclose(u.values[inside], want, rtol=1e-12, atol=0.0)
        # Even sample count: no node lands exactly on 0, so the peak
        # sample sits half a spacing off the analytic maximum of 1.
        assert np.max(u.values) == pytest.approx(1.0, abs=2e-6)


class TestStretchedFit:
    def test_exact_square_root_law(self):
        xs = np.geomspace(1.0, 1000.0, 30)
        fit = fit_stretched_exponential(xs, np.exp(-np.sqrt(xs)))
        assert fit.r == pytest.approx(0.5, abs=1e-6)
        assert fit.delta == pytest.approx(1.0, rel=1e-6)
        assert fit.C == pytest.approx(1.0, rel=1e-6)
        assert fit.residual_rms < 1e-9

    def test_exact_cube_root_law_with_scale(self):
        xs = np.geomspace(1.0, 3000.0, 40)
        fit = fit_stretched_exponential(xs, 3.0 * np.exp(-2.0 * xs ** (1.0 / 3.0)))
        assert fit.r == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert fit.delta == pytest.approx(2.0, rel=1e-6)
        assert fit.C == pytest.approx(3.0, rel=1e-6)

    @given(
        c=st.floats(min_value=0.01, max_value=100.0),
        delta=st.floats(min_value=1.0, max_value=4.0),
        r=st.floats(min_value=1.0 / 3.0, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_round_trips_synthetic_laws(self, c, delta, r):
        # Keep the smallest ladder value above the float64 underflow
        # cliff; exp(-746) is exactly 0 and the fitter rightly rejects
        # zeros.
        assume(delta * 1000.0**r < 600.0)
        xs = np.geomspace(1.0, 1000.0, 36)
        fit = fit_stretched_exponential(xs, c * np.exp(-delta * xs**r))
        assert fit.r == pytest.approx(r, abs=1e-4)
        assert fit.delta == pytest.approx(delta, rel=1e-3)
        assert fit.C == pytest.approx(c, rel=1e-3)

    def test_needs_six_points(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        with pytest.raises(FitRejectedError, match="at least 6"):
            fit_stretched_exponential(xs, np.exp(-xs))

    def test_rejects_nonpositive_values(self):
        xs = np.geomspace(1.0, 100.0, 8)
        ys = np.exp(-xs)
        ys[3] = 0.0
        with pytest.raises(FitRejectedError, match="positive"):
            fit_stretched_exponential(xs, ys)

    def test_rejects_rising_ladder(self):
        xs = np.geomspace(1.0, 100.0, 10)
        ys = np.exp(-xs).copy()
        ys[5] = ys[4] * 3.0
        with pytest.raises(FitRejectedError, match="monotone"):
            fit_stretched_exponential(xs, ys)

    def test_rejects_narrow_dynamic_range(self):
        xs = np.geomspace(1.0, 100.0, 10)
        with pytest.raises(FitRejectedError, match="two decades"):
            fit_stretched_exponential(xs, 1.0 + 0.001 * np.exp(-xs / 50.0))

    @pytest.mark.parametrize(
        "decay", [lambda x: x**-2.0, lambda x: np.log(x) ** -8.0], ids=["power", "log"]
    )
    def test_rejects_degenerate_fit_without_warning(self, decay):
        # Algebraic and logarithmic decay drive r toward 0 and C past the
        # float range; that is a rejected fit, not an overflow warning.
        xs = np.array(LADDER)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitRejectedError, match="degenerate"):
                fit_stretched_exponential(xs, decay(xs))

    @pytest.mark.parametrize("name", sorted(TRUST_REGION_FITS))
    def test_matches_the_trust_region_fit(self, bump_of, name):
        # The order-1 ladder's seed v0 = -6.91 lies far below its optimum
        # v = 1.42, and the profile also falls toward the C -> infinity
        # ray, so only a search that stays local to the seed keeps it.
        fit = fit_stretched_exponential(*default_ladder(bump_of, name))
        r, delta, C = TRUST_REGION_FITS[name]
        assert fit.r == pytest.approx(r, rel=1e-8)
        assert fit.delta == pytest.approx(delta, rel=1e-8)
        # The trust-region solve stopped up to 1.4e-8 short of the optimum
        # in C (the order-3 ladder); the same objective evaluated in
        # 40-digit arithmetic agrees with the new fit to 3e-12.
        assert fit.C == pytest.approx(C, rel=2e-8)

    @pytest.mark.parametrize("which", ["xs", "ys"])
    def test_rejects_non_finite_input_quietly(self, capfd, which):
        xs = np.geomspace(1.0, 1000.0, 30)
        ys = np.exp(-np.sqrt(xs))
        if which == "xs":
            xs[-1] = np.inf
        else:
            ys[10] = np.nan
        with pytest.raises(ValueError, match=f"{which} must be finite") as info:
            fit_stretched_exponential(xs, ys)
        assert type(info.value) is ValueError
        assert capfd.readouterr() == ("", "")

    def test_requires_increasing_abscissae(self):
        xs = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(ValueError, match="increasing"):
            fit_stretched_exponential(xs, np.exp(-xs))


def test_prune_decay_floor_cuts_roundoff_tail():
    freqs = np.arange(1.0, 11.0)
    mags = np.array([1.0, 0.1, 1e-3, 1e-6, 1e-9, 1e-13, 2e-13, 1e-13, 9e-14, 1e-13])
    kept_f, kept_m = prune_decay_floor(freqs, mags)
    assert len(kept_f) == 5
    assert kept_m[-1] == 1e-9
    same_f, same_m = prune_decay_floor(freqs[:4], mags[:4])
    assert len(same_f) == 4


# Measured on the default 4096-sample bumps with the [16, 1024] ladder;
# regression guards, not targets. The fitted stretch exponent runs a
# little below 1/s for the higher orders (the algebraic prefactor of
# the true decay law biases it low), which is why the guard is on r
# rather than on 1/r.
FROZEN_R = {
    (1.0, 1.0): 0.9955,
    (1.5, 2.0 / 3.0): 0.6387,
    (1.5, 5.0 / 6.0): 0.6288,
    (1.5, 1.0): 0.5841,
    (2.0, 0.5): 0.4415,
    (2.0, 0.75): 0.4473,
    (2.0, 1.0): 0.4736,
    (3.0, 1.0 / 3.0): 0.2483,
    (3.0, 2.0 / 3.0): 0.2432,
    (3.0, 1.0): 0.2435,
}


def probe_point(s: float) -> float:
    return 0.0 if s == 1.0 else 1.0


class TestTransformEstimator:
    @pytest.mark.parametrize("s,gamma", sorted(FROZEN_R))
    def test_fitted_exponent_reproducible(self, bump_of, s, gamma):
        est = estimate_order_fbi(bump_of(s), probe_point(s), gamma, LADDER)
        assert est.fit.r == pytest.approx(FROZEN_R[(s, gamma)], abs=2e-3)
        assert est.order == pytest.approx(1.0 / est.fit.r)
        assert est.n_points == est.fit.n_points
        assert not est.degenerate
        # The fitted field rides along without taking part in eq or hash.
        again = estimate_order_fbi(bump_of(s), probe_point(s), gamma, LADDER)
        assert again == est and hash(again) == hash(est) and again.field is not est.field

    def test_matched_window_recovers_exponent(self, bump_of):
        for s in (1.0, 1.5, 2.0, 3.0):
            est = estimate_order_fbi(bump_of(s), probe_point(s), 1.0 / s, LADDER)
            assert abs(est.fit.r - 1.0 / s) <= 0.1

    def test_exponent_monotone_in_true_order(self, bump_of):
        rs = [
            estimate_order_fbi(bump_of(s), probe_point(s), 1.0 / s, LADDER).fit.r
            for s in (1.0, 1.5, 2.0, 3.0)
        ]
        for a, b in zip(rs, rs[1:]):
            assert b <= a + 0.05

    def test_window_robustness_order_two(self, bump_of):
        rs = [
            estimate_order_fbi(bump_of(2.0), 1.0, g, LADDER).fit.r
            for g in (0.5, 0.75, 1.0)
        ]
        assert all(abs(r - 0.5) <= 0.15 for r in rs)


class TestStencils:
    def test_classic_three_point_weights(self):
        assert np.allclose(fd_weights(2, 3), [1.0, -2.0, 1.0])
        assert np.allclose(fd_weights(1, 3), [-0.5, 0.0, 0.5])

    def test_moment_conditions_hold_exactly(self):
        order, npts = 4, 11
        w = fd_weights(order, npts)
        nodes = np.arange(npts) - (npts - 1) // 2
        for i in range(npts):
            want = math.factorial(order) if i == order else 0.0
            assert np.dot(w, nodes.astype(float) ** i) == pytest.approx(
                want, abs=1e-8
            )

    def test_rejects_even_stencils(self):
        with pytest.raises(ValueError, match="odd"):
            fd_weights(2, 4)

    def test_rejects_short_stencils(self):
        with pytest.raises(ValueError, match="wider"):
            fd_weights(5, 5)

    def test_cached_weights_are_fresh_and_exact(self):
        first = fd_weights(6, 15)
        first[:] = 99.0
        again = fd_weights(6, 15)
        assert again is not first
        uncached = np.array(_fd_table.__wrapped__(15)[6])
        assert again.tobytes() == uncached.tobytes()

    @pytest.mark.parametrize("order", range(1, 15))
    def test_recursion_matches_the_moment_solve(self, order):
        # The derivative estimator's stencils, against the Taylor moment
        # system sum_j w_j node_j^i = order! delta(i, order) solved by
        # Gaussian elimination over the rationals: both are exact, so
        # the rounded weights agree bit for bit.
        npts = order + 9 if (order + 9) % 2 == 1 else order + 10
        m = (npts - 1) // 2
        rows = [[Fraction(node) ** i for node in range(-m, m + 1)] for i in range(npts)]
        rhs = [Fraction(math.factorial(order) if i == order else 0) for i in range(npts)]
        for col in range(npts):
            piv = next(r for r in range(col, npts) if rows[r][col] != 0)
            rows[col], rows[piv] = rows[piv], rows[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            for r in range(npts):
                if r != col and rows[r][col] != 0:
                    factor = rows[r][col] / rows[col][col]
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
                    rhs[r] -= factor * rhs[col]
        want = np.array([float(rhs[i] / rows[i][i]) for i in range(npts)])
        assert fd_weights(order, npts).tobytes() == want.tobytes()


class TestDerivativeEstimator:
    def test_gaussian_profile_is_analytic(self, bump_of):
        est = estimate_order_derivatives(bump_of(1.0), 0.0)
        assert abs(est.order - 1.0) <= 0.15
        assert not est.degenerate

    def test_order_two_bump_near_edge(self, bump_of):
        est = estimate_order_derivatives(bump_of(2.0), 1.0)
        assert abs(est.order - 2.0) <= 0.3

    def test_polynomial_flagged_degenerate(self):
        x = np.linspace(-2.0, 2.0, 3000)
        u = SampledFunction((x[0],), (x[1] - x[0],), x**3 - 2.0 * x)
        est = estimate_order_derivatives(u, 0.0)
        assert est.degenerate
        assert est.order == 1.0

    def test_default_resolution_too_coarse_for_order_three(self, bump_of):
        # Order 3 derivatives grow so fast that fewer than five stencil
        # orders survive the noise gate at 4096 samples.
        with pytest.raises(OrderTooHighError):
            estimate_order_derivatives(bump_of(3.0), 1.0)

    def test_order_three_resolvable_on_finer_grid(self):
        u = make_gevrey_bump(3.0, n=8192)
        est = estimate_order_derivatives(u, 1.0)
        assert abs(est.order - 2.82) <= 0.1

    def test_probe_outside_grid_rejected(self, bump_of):
        with pytest.raises(ValueError, match="outside"):
            estimate_order_derivatives(bump_of(2.0), 25.0)

    def test_max_order_range(self, bump_of):
        with pytest.raises(ValueError, match="max_order"):
            estimate_order_derivatives(bump_of(2.0), 0.0, max_order=20)

    def test_one_stencil_per_order(self, bump_of, monkeypatch):
        # Each order forms its weights once; only the dilated sum runs
        # per stride.
        orders = []

        def counting(order, npts):
            orders.append(order)
            return fd_weights(order, npts)

        monkeypatch.setattr(gevreylab.gevrey, "fd_weights", counting)
        est = estimate_order_derivatives(bump_of(2.0), 1.0, max_order=12)
        assert orders == list(range(1, 13))
        assert abs(est.order - 2.0) <= 0.3

    def test_two_estimators_agree_on_bump_family(self, bump_of):
        # Orders 1, 1.5, 2; at order 3 the derivative route needs a
        # finer grid than the default and its bias points the other way.
        for s in (1.0, 1.5, 2.0):
            by_decay = estimate_order_fbi(
                bump_of(s), probe_point(s), 1.0 / s, LADDER
            )
            by_growth = estimate_order_derivatives(bump_of(s), probe_point(s))
            assert abs(by_decay.order - by_growth.order) <= 0.4

