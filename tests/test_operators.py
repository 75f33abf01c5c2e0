"""Weighted norms, the frozen 1d operator, and the uniform inequalities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevreylab import (
    DualFrequency,
    InconclusiveError,
    OperatorParams,
    SampledFunction,
    apply_A_tau,
    apply_L,
    apriori_norms,
    check_apriori,
    check_scaling_inequality,
    check_weight_inequality,
    htau_norm,
    probe_family,
    weight_w,
)

P11 = OperatorParams(1, 1)
P12 = OperatorParams(1, 2)
P23 = OperatorParams(2, 3)


def gauss(n: int = 4001, half: float = 8.0) -> SampledFunction:
    x = np.linspace(-half, half, n)
    return SampledFunction(
        (x[0],), (x[1] - x[0],), np.exp(-x * x / 2.0), support_radius=half
    )


class TestParams:
    def test_valid_pair(self):
        assert P23.exponent_ratio == pytest.approx(2.0 / 3.0)
        assert P23.optimal_order == pytest.approx(1.5)

    def test_rejects_disordered_exponents(self):
        with pytest.raises(ValueError, match="1 <= p <= q"):
            OperatorParams(3, 2)
        with pytest.raises(ValueError, match="1 <= p <= q"):
            OperatorParams(0, 2)

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            OperatorParams(1.5, 2)

    def test_frequency_magnitude(self):
        assert DualFrequency(3.0, 4.0).magnitude == pytest.approx(5.0)


class TestWeightConfig:
    """The norms' exponential weight exp(rho |tau|^(p/q) v(x))."""

    def test_cutoff_plateaus(self):
        # Samples on one node x_i have weighted-to-plain norm ratio
        # exp(rho |tau|^(p/q) v(x_i)), which reads the cutoff v back.
        x = np.linspace(-3.0, 3.0, 601)
        tau, rho = DualFrequency(0.0, 4.0), 0.5  # rho |tau|^(1/2) = 1

        def cutoff_at(node):
            f = SampledFunction((x[0],), (x[1] - x[0],), node)
            return np.log(htau_norm(f, 0, tau, P12, rho) / htau_norm(f, 0, tau, P12))

        v = np.array([cutoff_at(node) for node in np.eye(len(x))])
        assert np.all(v[np.abs(x) <= 0.25] == 0.0)
        assert np.allclose(v[np.abs(x) >= 1.0], 1.0, rtol=0.0, atol=1e-12)
        ramp = v[(x >= 0.25) & (x <= 1.0)]
        assert np.all(np.diff(ramp) >= 0.0)


class TestWeight:
    @given(
        t1=st.floats(min_value=-50.0, max_value=50.0),
        t2=st.floats(min_value=-50.0, max_value=50.0),
        x=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_isotropic_case_collapses(self, t1, t2, x):
        # With p = q = 1 every term loses its x dependence and the
        # weight is sqrt(2) times the frequency magnitude.
        tau = DualFrequency(t1, t2)
        want = np.sqrt(2.0) * tau.magnitude
        assert weight_w(x, tau, P11) == pytest.approx(want, abs=1e-12)

    def test_anisotropic_point_value(self):
        got = weight_w(1.0, DualFrequency(0.0, 4.0), P12)
        assert got == pytest.approx(np.sqrt(20.0), rel=1e-14)

    def test_origin_value(self):
        # At x = 0 only the x-free terms and the p = 1 constant term
        # survive (x^0 == 1 by convention).
        tau = DualFrequency(2.0, 9.0)
        want = np.sqrt(2.0 * 2.0**2 + 9.0)
        assert weight_w(0.0, tau, P12) == pytest.approx(want, rel=1e-14)

    @given(c=st.floats(min_value=0.1, max_value=30.0))
    @settings(max_examples=40)
    def test_termwise_scaling_identity(self, c):
        # Scaling tau -> c tau multiplies the x-free terms by c^(2/p),
        # c^(2/q) and the x-carrying terms by c^2; check the recombined
        # sum against the direct evaluation.
        t1, t2 = 1.3, -0.7
        x = np.linspace(-2.0, 2.0, 41)
        p, q = P23.p, P23.q
        a = (t1**2) ** (1.0 / p)
        b = t1**2 * x ** (2 * (p - 1))
        d = (t2**2) ** (1.0 / q)
        e = t2**2 * x ** (2 * (q - 1))
        want = np.sqrt(c ** (2.0 / p) * a + c**2 * b + c ** (2.0 / q) * d + c**2 * e)
        got = weight_w(x, DualFrequency(c * t1, c * t2), P23)
        assert np.allclose(got, want, rtol=1e-12)

    @given(c=st.floats(min_value=0.1, max_value=30.0))
    @settings(max_examples=40)
    def test_degree_one_homogeneity_isotropic(self, c):
        tau = DualFrequency(0.4, -2.2)
        scaled = DualFrequency(c * 0.4, c * -2.2)
        x = np.linspace(-2.0, 2.0, 11)
        assert np.allclose(
            weight_w(x, scaled, P11), c * weight_w(x, tau, P11), rtol=1e-12
        )


class TestWeightedNorms:
    def test_zero_function_has_zero_norm(self):
        x = np.linspace(-2.0, 2.0, 101)
        z = SampledFunction((x[0],), (x[1] - x[0],), np.zeros(101))
        tau = DualFrequency(1.0, 2.0)
        for k in (0, 1, 2):
            assert htau_norm(z, k, tau, P12) == 0.0

    def test_isotropic_base_norm_closed_form(self):
        # p = q = 1 puts w^2 = 2 |tau|^2 everywhere, so the order-0 norm
        # is the plain L2 sum divided by that constant.
        f = gauss(2001, 6.0)
        tau = DualFrequency(3.0, -1.0)
        want = np.sum(f.values**2) * f.spacing[0] / (2.0 * tau.magnitude**2)
        assert htau_norm(f, 0, tau, P11) == pytest.approx(want, rel=1e-12)

    def test_norm_order_validated(self):
        with pytest.raises(ValueError, match="0, 1, or 2"):
            htau_norm(gauss(101), 3, DualFrequency(1.0, 0.0), P12)

    def test_requires_1d(self):
        vals = np.ones((8, 8))
        u = SampledFunction((0.0, 0.0), (0.1, 0.1), vals)
        with pytest.raises(ValueError, match="1d"):
            htau_norm(u, 0, DualFrequency(1.0, 0.0), P12)

    def test_refinement_converges_to_frozen_value(self):
        # Gaussian data, tau = (0, 100), order-2 norm: grid refinement
        # moves the quadrature by under 1e-8 relative per doubling.
        tau = DualFrequency(0.0, 100.0)
        vals = [htau_norm(gauss(n), 2, tau, P12) for n in (2001, 4001, 8001)]
        assert vals[2] == pytest.approx(9040.40347, abs=1e-4)
        for a, b in zip(vals, vals[1:]):
            assert abs(b - a) / b < 1e-8


class TestFullOperator:
    def test_quadratic_profile_exact(self):
        # u = x^2 independent of t: centered differences of a quadratic
        # are exact, and the t-axis terms vanish.
        x = np.linspace(-1.0, 1.0, 21)
        t = np.linspace(-1.0, 1.0, 9)
        vals = np.broadcast_to((x**2)[:, None, None], (21, 9, 9)).copy()
        u = SampledFunction(
            (x[0], t[0], t[0]),
            (x[1] - x[0], t[1] - t[0], t[1] - t[0]),
            vals,
        )
        out = apply_L(u, P12)
        assert out.values.shape == (19, 7, 7)
        assert np.allclose(out.values, 2.0, atol=1e-10)

    def test_constant_maps_to_zero(self):
        # Only the interior is returned: no boundary layer, so no NaN.
        u = SampledFunction((0.0, 0.0, 0.0), (0.1, 0.1, 0.1), np.ones((8, 8, 8)))
        out = apply_L(u, P23)
        assert out.values.shape == (6, 6, 6)
        assert np.allclose(out.values, 0.0)

    def test_requires_3d(self):
        with pytest.raises(ValueError, match="3d"):
            apply_L(gauss(101), P12)

    @pytest.mark.parametrize("params", [P12, P23, OperatorParams(3, 4)])
    def test_equals_the_padded_difference_sum(self, params):
        # Reference: each axis differenced into its own NaN-padded copy of
        # the box, summed as d_x + x^(2(p-1)) d_t1 + x^(2(q-1)) d_t2.
        rng = np.random.default_rng(7)
        shape = (9, 8, 11)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u = SampledFunction((-1.0, -0.5, -2.0), (0.25, 0.125, 0.4), vals)

        def padded(axis):
            out = np.full_like(vals, np.nan)
            lo, mid, hi = ([slice(None)] * 3 for _ in range(3))
            lo[axis], mid[axis], hi[axis] = slice(0, -2), slice(1, -1), slice(2, None)
            out[tuple(mid)] = (
                vals[tuple(lo)] - 2.0 * vals[tuple(mid)] + vals[tuple(hi)]
            ) / u.spacing[axis] ** 2
            return out

        x = u.coords(0)[:, None, None]
        want = padded(0)
        want += x ** (2 * (params.p - 1)) * padded(1)
        want += x ** (2 * (params.q - 1)) * padded(2)
        got = apply_L(u, params)
        assert got.values.shape == (7, 6, 9)
        assert got.origin == (-0.75, -0.375, -1.6)
        assert got.spacing == u.spacing
        assert np.array_equal(got.values, want[1:-1, 1:-1, 1:-1])

    def test_requires_enough_points(self):
        u = SampledFunction((0.0, 0.0, 0.0), (0.1, 0.1, 0.1), np.ones((4, 8, 8)))
        with pytest.raises(ValueError, match="at least 6"):
            apply_L(u, P12)


class TestFrozenOperator:
    def test_constant_with_zero_frequency(self):
        f = SampledFunction((0.0,), (0.1,), np.ones(64))
        out = apply_A_tau(f, DualFrequency(0.0, 0.0), P12)
        assert np.allclose(out.values[1:-1], 0.0)
        assert np.isnan(out.values[0]) and np.isnan(out.values[-1])

    def test_gaussian_eigenrelation(self):
        # For p=1, q=2 and tau=(1,1) the potential is 1 + x^2, and the
        # standard Gaussian satisfies f'' = (x^2 - 1) f, so A_tau f = -2f.
        f = gauss(4001)
        out = apply_A_tau(f, DualFrequency(1.0, 1.0), P12).values[1:-1]
        want = -2.0 * np.exp(-f.coords(0)[1:-1] ** 2 / 2.0)
        assert np.max(np.abs(out - want)) < 1e-5

    @given(
        a=st.floats(min_value=-3.0, max_value=3.0),
        b=st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=25)
    def test_linearity(self, a, b):
        x = np.linspace(-5.0, 5.0, 801)
        h = x[1] - x[0]
        f1 = np.exp(-(x**2))
        f2 = np.cos(x) * np.exp(-((x - 1.0) ** 2))
        tau = DualFrequency(2.0, 3.0)
        mk = lambda v: SampledFunction((x[0],), (h,), v)
        lhs = apply_A_tau(mk(a * f1 + b * f2), tau, P23).values[1:-1]
        rhs = (
            a * apply_A_tau(mk(f1), tau, P23).values[1:-1]
            + b * apply_A_tau(mk(f2), tau, P23).values[1:-1]
        )
        scale = max(np.max(np.abs(lhs)), 1.0)
        assert np.allclose(lhs, rhs, atol=1e-9 * scale)

    def test_discrete_symmetry(self):
        # <A f, g> = <f, A g> for samples vanishing at the grid ends.
        x = np.linspace(-8.0, 8.0, 2001)
        h = x[1] - x[0]
        f = SampledFunction((x[0],), (h,), np.exp(-((x - 0.5) ** 2)))
        g = SampledFunction((x[0],), (h,), np.exp(-2.0 * (x + 0.3) ** 2))
        tau = DualFrequency(1.0, 2.0)
        af = apply_A_tau(f, tau, P12).values[1:-1]
        ag = apply_A_tau(g, tau, P12).values[1:-1]
        lhs = np.sum(af * g.values[1:-1]) * h
        rhs = np.sum(f.values[1:-1] * ag) * h
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_quadratic_form_negativity_identity(self):
        # Summation by parts: <A f, f> equals minus the discrete Dirichlet
        # energy minus the potential term, so the form is negative.
        x = np.linspace(-8.0, 8.0, 2001)
        h = x[1] - x[0]
        vals = np.exp(-(x**2) / 2.0)
        f = SampledFunction((x[0],), (h,), vals)
        tau = DualFrequency(1.0, 3.0)
        af = apply_A_tau(f, tau, P12).values
        quad = np.nansum(af * vals) * h
        fwd = np.diff(vals)
        pot = tau.tau1**2 * x**0 + tau.tau2**2 * x**2
        want = -(np.sum(fwd**2) / h + np.sum(pot * vals**2) * h)
        assert quad == pytest.approx(want, rel=1e-8)
        assert quad < 0.0


class TestAprioriEstimate:
    def test_ladder_spread_bounded(self):
        fam = probe_family()[::10]
        vals = [
            max(check_apriori(g, DualFrequency(0.0, 10.0**k), P12) for g in fam)
            for k in range(5)
        ]
        frozen = [1.25003, 2.600604, 1.454902, 1.057864, 1.005979]
        assert np.allclose(vals, frozen, atol=1e-5)
        assert max(vals) / min(vals) < 4.0

    def test_small_envelope_exponent_is_a_perturbation(self):
        g = probe_family()[0]
        tau = DualFrequency(0.0, 10.0)
        base = check_apriori(g, tau, P12)
        for rho in (-0.05, 0.05):
            v = check_apriori(g, tau, P12, rho=rho)
            assert 0.8 <= v / base <= 1.25

    def test_ratio_of_the_interior_norms(self):
        # The image norm skips the boundary layer apply_A_tau leaves NaN.
        g = probe_family()[3]
        tau = DualFrequency(0.0, 100.0)
        num, den = apriori_norms(g, tau, P12, rho=0.05)
        image = apply_A_tau(g, tau, P12)
        interior = SampledFunction((g.coords(0)[1],), g.spacing, image.values[1:-1])
        assert num == htau_norm(g, 2, tau, P12, rho=0.05)
        assert den == htau_norm(interior, 0, tau, P12, rho=0.05)
        assert check_apriori(g, tau, P12, rho=0.05) == num / den

    def test_zero_image_rejected(self):
        x = np.linspace(-2.0, 2.0, 101)
        z = SampledFunction((x[0],), (x[1] - x[0],), np.zeros(101))
        with pytest.raises(ValueError, match="vanishes"):
            check_apriori(z, DualFrequency(1.0, 1.0), P12)

    @pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 3), (3, 4)])
    def test_stack_rows_equal_single_probes(self, p, q):
        # Each (tau, probe) entry of a sweep over a tau ladder and a probe
        # stack is bit for bit that probe alone at that tau, the stack of
        # one: the sums run over the contiguous last axis, and the work
        # that depends on the probes only is shared, not reordered.
        params = OperatorParams(p, q)
        probes = probe_family()
        taus = [DualFrequency(0.0, mag) for mag in (1.0, 10.0, 100.0, 1000.0, 10000.0)]
        for rho in (0.0, 0.05, -0.05):
            ladder = check_apriori(probes, taus, params, rho)
            assert ladder.shape == (5, 100)
            sides = apriori_norms(probes, taus, params, rho)
            assert np.array_equal(ladder, sides[0] / sides[1])
            for j, tau in enumerate(taus):
                assert np.array_equal(ladder[j], check_apriori(probes, tau, params, rho))
            for i in range(0, 100, 33):
                alone = check_apriori(probes[i], taus, params, rho)
                assert alone.shape == (5,)
                for j, tau in enumerate(taus):
                    assert ladder[j, i] == alone[j] == check_apriori(probes[i], tau, params, rho)
                    one = apriori_norms(probes[i], tau, params, rho)
                    assert (sides[0][j, i], sides[1][j, i]) == one

    def test_zero_probe_in_a_stack_rejected(self):
        probes = probe_family()[:3]
        zero = SampledFunction(probes[0].origin, probes[0].spacing, np.zeros(4001))
        for check in (check_apriori, apriori_norms):
            with pytest.raises(ValueError, match="vanishes"):
                check([*probes, zero], DualFrequency(0.0, 10.0), P12)

    def test_overflow_of_the_h2_side_alone_is_inconclusive(self):
        # Scaled so that only the h2 sum overflows: the image sum stays
        # finite, since the ratio h2/image exceeds 1 at this tau.
        g = probe_family()[0]
        tau = DualFrequency(0.0, 10.0)
        num, den = apriori_norms(g, tau, P12)
        assert num / den > 1.2
        h = g.spacing[0]
        scale = np.sqrt(np.finfo(float).max * h / np.sqrt(num * den))
        big = SampledFunction(g.origin, g.spacing, scale * g.values)
        interior = apply_A_tau(big, tau, P12).values[1:-1]
        image = SampledFunction((g.coords(0)[1],), g.spacing, interior)
        assert np.isfinite(htau_norm(image, 0, tau, P12))
        with pytest.raises(InconclusiveError, match="not finite"):
            apriori_norms(big, tau, P12)

    def test_stack_needs_one_grid(self):
        g = probe_family()[0]
        with pytest.raises(ValueError, match="one grid"):
            check_apriori([g, g.rescaled(2.0)], DualFrequency(0.0, 10.0), P12)


class TestWeightInequality:
    def test_isotropic_sup_is_sqrt_two(self):
        # p = q = 1: ratio = mag * 2 / (sqrt(2) mag) at |x| = 1.
        for mag in (1.0, 10.0, 1000.0):
            got = check_weight_inequality(P11, [mag])
            assert got == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_ladder_sups_frozen(self):
        sups = [check_weight_inequality(P12, [10.0**k]) for k in range(5)]
        assert np.allclose(sups, [1.4142, 1.0488, 1.005, 1.0, 1.0], atol=1e-3)
        assert max(sups) / min(sups) < 2.0

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4)])
    def test_spread_bounded_for_higher_pairs(self, p, q):
        params = OperatorParams(p, q)
        sups = [check_weight_inequality(params, [10.0**k]) for k in range(5)]
        assert max(sups) / min(sups) < 2.0

    def test_small_magnitudes_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            check_weight_inequality(P12, [0.5])


class TestScalingInequality:
    def test_first_order_constant_is_exactly_one(self):
        from gevreylab.operators import scaling_constant

        assert scaling_constant(1) == 1.0

    def test_invalid_arguments(self):
        from gevreylab.operators import scaling_constant

        with pytest.raises(ValueError, match="positive integer"):
            scaling_constant(0)
        with pytest.raises(ValueError, match="positive"):
            check_scaling_inequality(gauss(101), -1.0, 2)

    def test_quartic_constant_matches_the_literature_ground_energy(self):
        # Lowest eigenvalue of -d^2/dy^2 + y^4: 1.06036209048418 (Hioe
        # and Montroll 1975); the constant carries 0.1 percent headroom.
        from gevreylab.operators import scaling_constant

        assert 1.001 / scaling_constant(3) == pytest.approx(1.0603620904841829, rel=1e-10)

    @pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 3), (3, 4)])
    def test_stack_and_ladder_equal_single_calls(self, p, q):
        probes = probe_family()
        ladder = (1.0, 10.0, 100.0, 1000.0, 10000.0)
        for m in sorted({p, q}):
            lhs, rhs = check_scaling_inequality(probes, ladder, m)
            assert lhs.shape == rhs.shape == (5, 100)
            for j, lam in enumerate(ladder):
                one_cut = check_scaling_inequality(probes, lam, m)
                assert np.array_equal(one_cut[0], lhs[j])
                assert np.array_equal(one_cut[1], rhs[j])
                for i in range(0, 100, 11):
                    assert (lhs[j, i], rhs[j, i]) == check_scaling_inequality(probes[i], lam, m)

    def test_gaussian_satisfies_bound(self):
        f = gauss(4001, 6.0)
        for lam in (1.0, 10.0, 100.0):
            lhs, rhs = check_scaling_inequality(f, lam, 2)
            assert lhs <= rhs

    @pytest.mark.parametrize(
        "m,frozen",
        [(1, 0.29632453316611246), (2, 0.39099733790025937), (3, 0.4304414759037226)],
    )
    def test_scaled_family_ratio_is_cut_invariant(self, m, frozen):
        # Evaluating the inequality on g(lam^(1/m) x) at cut lam must
        # reproduce the lam = 1 ratio bit for bit up to rounding; the
        # value itself is frozen against the seeded probe family.
        g = probe_family()[0]
        ratios = []
        for lam in (1.0, 10.0, 100.0):
            member = g.rescaled(lam ** (1.0 / m))
            lhs, rhs = check_scaling_inequality(member, lam, m)
            ratios.append(lhs / rhs)
        assert max(ratios) - min(ratios) <= 1e-12
        assert ratios[0] == pytest.approx(frozen, abs=1e-9)
        assert all(r <= 1.0 for r in ratios)
