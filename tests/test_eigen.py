"""Profile eigensolve, kernel family, and the growth-exponent ladder."""

import numpy as np
import pytest
from scipy.linalg import eigh

from gevreylab import (
    ConsistencyError,
    DegenerateOriginError,
    Eigenpair,
    GridSpec,
    InconclusiveError,
    OperatorParams,
    ResampleError,
    SampledFunction,
    build_counterexample,
    default_grid,
    estimate_optimal_exponent,
    growth_table,
    reference_eigenvalues,
    residual_norm,
    select_k,
    solve_nonlinear_eigen,
    verify_kernel,
)
from gevreylab.eigen import _interior_norm

P12 = OperatorParams(1, 2)
P23 = OperatorParams(2, 3)
P34 = OperatorParams(3, 4)
PAIRS = ((1, 2), (1, 3), (2, 3), (3, 4))
#: 41 points per axis on [-1, 1]^3, the coarse box of verify_kernel.
BOX = ((-1.0, 1.0, 41),) * 3


def hermite_ground_pair(h: float = 1e-4, half: float = 8.0) -> Eigenpair:
    """Closed-form ground profile for (1, 2): unit frequency Gaussian."""
    x = np.arange(-half, half + h / 2.0, h)
    f = SampledFunction((x[0],), (h,), np.exp(-x * x / 2.0), support_radius=half)
    return Eigenpair(z=1.0, w=1.0 + 0.0j, f=f, residual=0.0, grid_stability=0.0)


class TestGrids:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="positive"):
            GridSpec(-1.0, 0.1)
        with pytest.raises(ValueError, match="positive"):
            GridSpec(1.0, 0.0)
        with pytest.raises(ValueError, match="too small"):
            GridSpec(1.0, 0.5)
        for half, h in ((float("inf"), 0.1), (1.0, float("nan"))):
            with pytest.raises(ValueError, match="finite"):
                GridSpec(half, h)

    def test_nodes_are_staggered_and_symmetric(self):
        g = GridSpec(10.0, 0.5)
        x = g.nodes()
        assert np.allclose(np.diff(x), 0.5)
        assert np.min(np.abs(x)) == pytest.approx(0.25)
        assert np.allclose(x, -x[::-1])

    def test_nodes_centred_for_any_half_width(self):
        # 2 X / h = 4666.67 is not an integer; the nodes still pair off
        # exactly about the origin and never land on it.
        x = GridSpec(7.0, 0.003).nodes()
        assert len(x) % 2 == 0
        assert np.array_equal(x, -x[::-1])
        assert np.min(np.abs(x)) == pytest.approx(0.0015)
        assert np.allclose(np.diff(x), 0.003)

    def test_even_profile_on_off_multiple_grid(self):
        # An off-centre grid tilts the even ground state, so that its
        # odd derivative at the origin no longer vanishes.
        pair = solve_nonlinear_eigen(P12, GridSpec(7.0, 0.003), count=1)[0]
        with pytest.raises(DegenerateOriginError):
            growth_table(pair, P12, 1, (10, 100))

    def test_default_extent_resolves_requested_modes(self, solve):
        # Agmon extent: every kept mode dies out inside the grid, where
        # its stored profile is cut at 1e-14 of peak, and doubling the
        # extent moves no eigenvalue by more than 1e-10 relative.
        for p, q in PAIRS:
            params = OperatorParams(p, q)
            grid = default_grid(params)
            pairs = solve(p, q)
            assert len(pairs) == 4
            assert all(pair.f.support_radius < grid.half_width for pair in pairs)
            wide = solve_nonlinear_eigen(params, GridSpec(2.0 * grid.half_width, grid.spacing))
            z = np.array([pair.z for pair in pairs])
            z_wide = np.array([pair.z for pair in wide])
            assert np.all(np.abs(z - z_wide) <= 1e-10 * z_wide), (p, q)
        assert default_grid(OperatorParams(2, 2)).half_width == 30.0

    def test_default_extent_grows_with_count(self):
        # More requested pairs push the highest turning point outward.
        assert default_grid(P12, count=10).half_width > default_grid(P12).half_width
        pairs = solve_nonlinear_eigen(P12, count=10)
        assert np.allclose([p.z for p in pairs], np.arange(1.0, 20.0, 2.0), atol=1e-4)


class TestResidual:
    def test_exact_ground_profile(self):
        # Centered second differences of the exact profile leave an
        # O(h^2) truncation term; at h = 1e-4 that is ~1.1e-8.
        pair = hermite_ground_pair()
        assert residual_norm(pair, P12) <= 2e-8

    def test_perturbed_eigenvalue_detected(self):
        base = hermite_ground_pair()
        off = Eigenpair(
            z=1.1, w=base.w, f=base.f, residual=0.0, grid_stability=0.0
        )
        assert residual_norm(off, P12) >= 0.01


class TestSolve:
    def test_harmonic_ladder(self, solve):
        pairs = solve(1, 2)
        assert len(pairs) == 4
        assert np.allclose([p.z for p in pairs], [1.0, 3.0, 5.0, 7.0], atol=1e-5)
        assert abs(pairs[0].z - 1.0) <= 1e-6

    def test_filters_enforced(self, solve):
        for pair in solve(1, 2) + solve(2, 3):
            assert pair.residual <= 1e-6
            assert pair.grid_stability <= 1e-5
            assert abs(pair.w**2 - pair.z) <= 1e-12 * max(1.0, abs(pair.z))
            top = np.max(np.abs(pair.f.values))
            assert top > 0.0

    def test_profiles_have_definite_parity(self, solve):
        from scipy.interpolate import CubicSpline

        for pair in solve(1, 2):
            x = pair.f.coords(0)
            s = CubicSpline(x, pair.f.values)
            xs = np.linspace(0.0, 0.9 * x[-1], 500)
            even = np.max(np.abs(s(xs) - s(-xs)))
            odd = np.max(np.abs(s(xs) + s(-xs)))
            scale = np.max(np.abs(pair.f.values))
            assert min(even, odd) / scale <= 1e-8

    def test_parities_alternate(self, solve):
        assert [select_k(p) for p in solve(1, 2)] == [0, 1, 0, 1]

    def test_equal_exponents_have_no_profiles(self):
        assert solve_nonlinear_eigen(OperatorParams(2, 2)) == []

    def test_unresolved_grid_below_threshold_is_inconclusive(self):
        # Profiles exist for p < q, so an empty search blames the grid;
        # spacing 10 leaves every mode drifting between h and h/2.
        with pytest.raises(InconclusiveError, match="8 by drift, 0 by tail, 0 by residual"):
            solve_nonlinear_eigen(P12, GridSpec(1000.0, 10.0))

    def test_oracle_cross_check(self, solve):
        # Independent tridiagonal-bisection oracle on its own window.
        got = [p.z for p in solve(3, 4)][:3]
        oracle = reference_eigenvalues(P34)
        rel = np.abs(np.array(got) - oracle[: len(got)]) / oracle[: len(got)]
        assert np.all(rel <= 5e-7)

    @pytest.mark.parametrize("pq", [(1, 3), (2, 3), (3, 4)])
    def test_oracle_matches_dense_generalized_solve(self, pq):
        # The same discretisation solved densely as the flipped pencil
        # M v = mu S v, mu = 1/z, then Richardson-combined the same way.
        params = OperatorParams(*pq)
        spacing, floor, count = 0.05, 1e4, 3
        half = floor ** (1.0 / (2 * (params.q - 1)))

        def dense(h):
            x = GridSpec(half, h).nodes()
            n = len(x)
            stiff = (np.diag(2.0 / h**2 + x ** (2 * (params.q - 1)))
                     - (np.eye(n, k=1) + np.eye(n, k=-1)) / h**2)
            mass = np.diag(x ** (2 * (params.p - 1)))
            mus = eigh(mass, stiff, eigvals_only=True, subset_by_index=[n - count, n - 1])
            return np.sort(1.0 / mus)

        want = (4.0 * dense(spacing / 2.0) - dense(spacing)) / 3.0
        got = reference_eigenvalues(params, count, spacing=spacing, potential_floor=floor)
        assert np.all(np.abs(got - want) <= 1e-10 * want)

    def test_oracle_rejects_flat_potential(self):
        with pytest.raises(ValueError, match="q = 1"):
            reference_eigenvalues(OperatorParams(1, 1))


class TestSelectK:
    def test_degenerate_origin_rejected(self):
        x = np.linspace(-6.0, 6.0, 1201)
        vals = x**2 * np.exp(-x * x)
        f = SampledFunction((x[0],), (x[1] - x[0],), vals, support_radius=6.0)
        pair = Eigenpair(z=1.0, w=1.0 + 0j, f=f, residual=0.0, grid_stability=0.0)
        with pytest.raises(DegenerateOriginError):
            select_k(pair)


class TestFamily:
    def test_zero_time_slice_is_dilated_profile(self, solve):
        from scipy.interpolate import CubicSpline

        pair = solve(1, 2)[0]
        F = build_counterexample(pair, 4.0, P12, BOX)
        xs = np.linspace(-1.0, 1.0, 41)
        spline = CubicSpline(pair.f.coords(0), pair.f.values)
        assert np.allclose(F.values[:, 20, 20], spline(2.0 * xs), rtol=0, atol=1e-12)

    def test_modulus_grows_along_first_time_axis(self, solve):
        pair = solve(1, 2)[0]
        lam = 4.0
        F = build_counterexample(pair, lam, P12, BOX)
        t1 = np.linspace(-1.0, 1.0, 41)
        f0 = abs(F.values[20, 20, 20])
        want = f0 * np.exp(np.sqrt(lam) * pair.w.real * t1)
        assert np.allclose(np.abs(F.values[20, :, 20]), want, rtol=1e-12)

    def test_oscillation_axis_has_unit_modulus_factor(self, solve):
        pair = solve(1, 2)[0]
        F = build_counterexample(pair, 7.0, P12, BOX)
        mods = np.abs(F.values[:, :, :])
        assert np.allclose(mods, mods[:, :, :1], rtol=1e-12)

    def test_small_lambda_rejected(self, solve):
        with pytest.raises(ValueError, match=">= 1"):
            build_counterexample(solve(1, 2)[0], 0.5, P12, BOX)

    def test_dilation_beyond_grid_rejected(self, solve):
        # lam^(1/q) = 1000 dilation against a profile stored out to ~8.
        with pytest.raises(ResampleError):
            build_counterexample(solve(1, 2)[0], 1e6, P12, BOX)

    def test_sup_bound_fit_extrapolates(self, solve):
        # The fitted log-sup law is evaluated off the calibration ladder;
        # for profiles peaking inside |x| <= 1 the law is exactly affine
        # in lam^(p/q), so prediction and direct evaluation coincide.
        from gevreylab.eigen import _sup_bound_fit

        pair = solve(1, 2)[0]
        logA, B = _sup_bound_fit(pair, P12, lams=(1.0, 2.0, 4.0))
        coords = pair.f.coords(0)
        vals = np.abs(np.asarray(pair.f.values))
        for lam in (8.0, 16.0):
            peak = float(np.max(vals[np.abs(coords) <= lam**0.5]))
            actual = lam**0.5 * abs(pair.w.real) + np.log(peak)
            assert logA + B * lam**0.5 == pytest.approx(actual, abs=1e-9)


class TestKernelIdentity:
    def test_separable_reduction_is_exact(self, solve):
        pair = solve(1, 2)[0]
        base = residual_norm(pair, P12)
        for lam in (10.0, 100.0):
            got = verify_kernel(pair, lam, P12, refine_check=False)
            assert got == pytest.approx(lam * base, rel=1e-14)

    def test_doubling_scales_by_two_over_q(self, solve):
        pair = solve(1, 2)[0]
        v1 = verify_kernel(pair, 10.0, P12, refine_check=False)
        v2 = verify_kernel(pair, 20.0, P12, refine_check=False)
        assert v2 / v1 == pytest.approx(2.0 ** (2.0 / P12.q), rel=1e-12)

    def test_residual_stays_small_with_refinement_check(self, solve):
        pair = solve(1, 2)[0]
        assert verify_kernel(pair, 20.0, P12) <= 1e-6
        assert verify_kernel(pair, 1.0, P12) <= 1e-6

    def test_interior_norm_is_the_norm_of_the_copied_interior(self):
        # Path (ii) normalizes by the box interior, summed row by row.
        rng = np.random.default_rng(0)
        box = rng.standard_normal((7, 8, 9)) + 1j * rng.standard_normal((7, 8, 9))
        box[0], box[:, -1], box[..., 0] = 1e3, 1e3, 1e3
        want = np.linalg.norm(box[1:-1, 1:-1, 1:-1].ravel())
        assert _interior_norm(box) == pytest.approx(want, rel=1e-14)


class TestGrowthLadder:
    def test_smallest_ladder_is_finite(self, solve):
        rows = growth_table(solve(1, 2)[0], P12, 0, (1, 10))
        assert all(np.isfinite(r.s_star) for r in rows)
        assert rows[0].N == 1

    def test_ladder_validation(self, solve):
        pair = solve(1, 2)[0]
        with pytest.raises(ValueError, match="at least two"):
            growth_table(pair, P12, 0, (100,))
        with pytest.raises(ValueError, match="at least two"):
            growth_table(pair, P12, 0, (0, 10))
        with pytest.raises(ValueError, match=r"distinct; repeated: \[2\]"):
            growth_table(pair, P12, 0, (2, 2, 3, 4))
        with pytest.raises(ValueError, match="0 or 1"):
            growth_table(pair, P12, 2, (10, 100))

    def test_even_profile_rejects_odd_probe(self, solve):
        with pytest.raises(DegenerateOriginError):
            growth_table(solve(1, 2)[0], P12, 1, (10, 100))

    def test_row_fields_consistent(self, solve):
        rows = growth_table(solve(1, 2)[0], P12, 0, (10, 100, 1000))
        assert [r.N for r in rows] == [10, 100, 1000]
        for r in rows:
            assert r.lam == pytest.approx(float(r.N) ** 2.0, rel=1e-12)
            assert np.isfinite(r.log_lhs) and np.isfinite(r.log_sup)

    def test_ladder_converges_from_above(self, solve):
        # The two calibration rows coincide by construction; past them
        # the distance to the limit shrinks monotonically.
        ladder = (10**2, 10**3, 10**4, 10**5, 10**6)
        for pair, params, s_limit in (
            (solve(1, 2)[0], P12, 2.0),
            (solve(2, 3)[0], P23, 1.5),
        ):
            rows = growth_table(pair, params, select_k(pair), ladder)
            stars = [r.s_star for r in rows]
            assert stars[0] == pytest.approx(stars[1], abs=1e-12)
            gaps = [abs(s - s_limit) for s in stars[1:]]
            assert all(b < a for a, b in zip(gaps, gaps[1:]))
            assert all(abs(s - s_limit) < 0.05 for s in stars)


class TestExponentEstimate:
    def test_frozen_intercepts(self, solve):
        assert estimate_optimal_exponent(solve(1, 2)[0], P12) == pytest.approx(
            2.002832927488601, abs=1e-6
        )
        assert estimate_optimal_exponent(solve(2, 3)[0], P23) == pytest.approx(
            1.502124695749911, abs=1e-6
        )

    def test_expectation_cross_check(self, solve):
        pair = solve(1, 2)[0]
        with pytest.raises(ConsistencyError, match="disagrees"):
            estimate_optimal_exponent(pair, P12, expected=1.0)
        got = estimate_optimal_exponent(pair, P12, expected=2.0)
        assert abs(got - 2.0) <= 0.02

    def test_zero_residual_budget_is_inconclusive(self, solve):
        # On N = 1, 2, 3 the rows leave the 1/log N line by rms 0.042,
        # above the 0.02 budget.
        with pytest.raises(InconclusiveError, match="not linear"):
            estimate_optimal_exponent(solve(1, 2)[0], P12, (1, 2, 3))

    def test_two_order_ladder_is_inconclusive(self, solve):
        # A line through two rows fits exactly, so linearity goes unchecked.
        with pytest.raises(InconclusiveError, match="three distinct"):
            estimate_optimal_exponent(solve(1, 2)[0], P12, (1, 2, 2))

    def test_normalization_invariance(self, solve):
        pair = solve(2, 3)[0]
        scaled = Eigenpair(
            z=pair.z,
            w=pair.w,
            f=SampledFunction(
                pair.f.origin,
                pair.f.spacing,
                -2.35 * np.asarray(pair.f.values),
                support_radius=pair.f.support_radius,
            ),
            residual=pair.residual,
            grid_stability=pair.grid_stability,
        )
        # Rescaling rounds every stored sample once and the second
        # difference amplifies that by 1/h^2, so the residual (itself at
        # that floor) is invariant to eps/h^2 absolute, not to relative
        # precision.  Measured shift ~1.3e-11 against a 2.2e-10 floor.
        floor = np.finfo(float).eps / pair.f.spacing[0] ** 2
        assert abs(residual_norm(scaled, P23) - residual_norm(pair, P23)) <= floor
        assert estimate_optimal_exponent(scaled, P23) == pytest.approx(
            estimate_optimal_exponent(pair, P23), abs=1e-9
        )
