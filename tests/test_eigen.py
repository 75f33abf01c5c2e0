"""Profile eigensolve, kernel family, and the growth-exponent ladder."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
import gevreylab.eigen
from gevreylab.eigen import _pencil_solve, _profile_at, _sturm_count

P12 = OperatorParams(1, 2)
P23 = OperatorParams(2, 3)
P34 = OperatorParams(3, 4)
PAIRS = ((1, 2), (1, 3), (2, 3), (3, 4))
#: 41 points per axis on [-1, 1]^3: the size of verify_kernel's coarse cube,
#: whose t2 window shrinks with lam above 5.
BOX = ((-1.0, 1.0, 41),) * 3


def off_centre_pair() -> Eigenpair:
    """A profile that peaks at |x| = 1.5, outside the unit box."""
    h, half = 1e-3, 4.0
    x = np.arange(-half, half + h / 2.0, h)
    values = np.exp(-((np.abs(x) - 1.5) ** 2) / 0.1)
    f = SampledFunction((x[0],), (h,), values, support_radius=half)
    return Eigenpair(z=1.0, w=1.0 + 0.0j, f=f, residual=0.0, basis_size=0,
                     basis_change=0.0)


def hermite_ground_pair(h: float = 1e-4, half: float = 8.0) -> Eigenpair:
    """Closed-form ground profile for (1, 2): unit frequency Gaussian."""
    x = np.arange(-half, half + h / 2.0, h)
    f = SampledFunction((x[0],), (h,), np.exp(-x * x / 2.0), support_radius=half)
    return Eigenpair(z=1.0, w=1.0 + 0.0j, f=f, residual=0.0, basis_size=0,
                     basis_change=0.0)


def staggered_hermite_pair(odd: bool) -> Eigenpair:
    """Closed-form (1, 2) profile on a staggered grid at the solver's fine
    spacing 1e-3: e^(-x^2/2) (z = 1) or x e^(-x^2/2) (z = 3)."""
    x = GridSpec(8.0, 1e-3).nodes()
    values = (x if odd else 1.0) * np.exp(-x * x / 2.0)
    f = SampledFunction((x[0],), (1e-3,), values, support_radius=8.0)
    z = 3.0 if odd else 1.0
    return Eigenpair(z=z, w=complex(np.sqrt(z)), f=f, residual=0.0, basis_size=0,
                     basis_change=0.0)


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
        # extent moves no eigenvalue by more than 1e-10 relative.  The
        # eigenvalues do not depend on the grid, so the stored profiles,
        # sampled on the same nodes, are compared too.
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
            for pair, other in zip(pairs, wide):
                assert other.f.origin == pair.f.origin, (p, q)
                top = np.max(np.abs(pair.f.values))
                assert np.max(np.abs(other.f.values - pair.f.values)) <= 1e-12 * top, (p, q)
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
        off = dataclasses.replace(base, z=1.1)
        assert residual_norm(off, P12) >= 0.01


class TestSolve:
    def test_harmonic_ladder(self, solve):
        pairs = solve(1, 2)
        assert len(pairs) == 4
        assert np.allclose([p.z for p in pairs], [1.0, 3.0, 5.0, 7.0], atol=1e-5)
        assert abs(pairs[0].z - 1.0) <= 1e-6

    def test_settling_enforced(self, solve):
        for pair in solve(1, 2) + solve(2, 3):
            assert pair.residual <= 1e-6
            assert pair.basis_change <= 1e-12
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
        # Profiles exist for p < q, so a grid that cannot hold them is a
        # failure.  Spacing 10 samples the profiles at half of it, so the
        # ground state only at +-2.5, +-7.5, ..., and its grid norm reads 0.011.
        with pytest.raises(InconclusiveError, match="cannot hold mode 0 .* norm is off 1 by 9.9e-01"):
            solve_nonlinear_eigen(P12, GridSpec(1000.0, 10.0))

    def test_sampling_grid_check(self):
        # At half-width 3 the ground state, of peak 0.75, still reaches
        # 0.02 on the outer 5% of the window.
        with pytest.raises(InconclusiveError,
                           match="cannot hold mode 0 .* reaches 2.0e-02 .* peak of 7.5e-01"):
            solve_nonlinear_eigen(P12, GridSpec(3.0, 2e-3))
        # At half-width 6 the ground state fits and the next mode does not.
        with pytest.raises(InconclusiveError, match="cannot hold mode 1"):
            solve_nonlinear_eigen(P12, GridSpec(6.0, 2e-3))

    @pytest.mark.parametrize("pq", PAIRS)
    def test_profiles_match_the_oracle_eigenvectors(self, solve, pq):
        # The finite-difference eigenvectors on the same nodes carry their
        # own O(h^2) error, 3.9e-8 to 9.0e-7 of the peak on these modes.
        params = OperatorParams(*pq)
        grid = default_grid(params).refined()
        _, vecs = _pencil_solve(params, grid, 4)
        for pair, vec in zip(solve(*pq), vecs.T):
            start = int(round((pair.f.origin[0] - grid.nodes()[0]) / grid.spacing))
            got = np.zeros(grid.size)
            got[start:start + len(pair.f.values)] = pair.f.values
            vec *= np.sign(vec @ got) / np.sqrt(grid.spacing * np.sum(vec**2))
            assert np.max(np.abs(got - vec)) <= 1e-6 * np.max(np.abs(got)), pq

    def test_residuals_settle_below_1e10(self, solve):
        # The basis grows until every kept mode's residual is below 1e-10,
        # and the ground states land far below it.
        for p, q in PAIRS:
            pairs = solve(p, q)
            assert all(pair.residual <= 1e-10 for pair in pairs)
            assert pairs[0].residual <= 1e-13, (p, q)

    def test_oracle_cross_check(self, solve):
        # Independent finite-difference oracle, no discretization shared
        # with the solver.
        got = [p.z for p in solve(3, 4)][:3]
        oracle = reference_eigenvalues(P34)
        rel = np.abs(np.array(got) - oracle[: len(got)]) / oracle[: len(got)]
        assert np.all(rel <= 5e-7)

    @pytest.mark.parametrize("pq", [(1, 3), (2, 3), (3, 4)])
    def test_oracle_matches_dense_generalized_solve(self, pq):
        # An independent reference: the three-point staggered difference
        # pencil on the window where x^(2(q-1)) reaches 1e4, solved densely
        # as the flipped pencil M v = mu S v, mu = 1/z, at h = 0.02 and
        # 0.01 and Richardson-combined.  Its own error is a few 1e-9.
        params = OperatorParams(*pq)
        spacing, floor, count = 0.02, 1e4, 3
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
        got = reference_eigenvalues(params, count)
        assert np.all(np.abs(got - want) <= 1e-8 * want)

    def test_solver_is_exact_for_the_harmonic_pair(self, solve):
        # -f'' + x^2 f = z f: the Hermite functions are its eigenfunctions.
        got = [pair.z for pair in solve(1, 2)]
        assert np.all(np.abs(np.array(got) - [1.0, 3.0, 5.0, 7.0]) <= 1e-13)

    def test_unsettled_basis_is_inconclusive(self):
        # At (12, 13) z agrees to 3e-15 between 305 and 381 functions, but
        # the residuals still read 0.16.  At (1, 30) the stiffness loses
        # definiteness in rounding at 305 functions, before any two agree.
        with pytest.raises(InconclusiveError, match="did not settle"):
            solve_nonlinear_eigen(OperatorParams(12, 13))
        with pytest.raises(InconclusiveError):
            solve_nonlinear_eigen(OperatorParams(1, 30))

    def test_oracle_rejects_flat_potential(self):
        for p, q in ((1, 1), (2, 2)):
            with pytest.raises(ValueError, match=f"p = q = {q}"):
                reference_eigenvalues(OperatorParams(p, q))

    def test_oracle_is_exact_for_the_harmonic_pair(self):
        # The Richardson step leaves O(h^4) truncation and rounding:
        # measured 1.5e-14, 4.5e-14 and 1.1e-13 relative.
        want = np.array([1.0, 3.0, 5.0])
        assert np.all(np.abs(reference_eigenvalues(P12) - want) <= 1e-12 * want)

    @pytest.mark.parametrize("pq", [(1, 2), (2, 3)])
    def test_sturm_count_matches_the_dense_pencil(self, pq):
        # Every gap of the spectrum on a 60-node grid, below it and above it.
        params = OperatorParams(*pq)
        grid = GridSpec(3.0, 0.1)
        x, h = grid.nodes(), grid.spacing
        diag = 2.0 / h**2 + x ** (2 * (params.q - 1))
        mass = x ** (2 * (params.p - 1))
        stiff = np.diag(diag) - (np.eye(len(x), k=1) + np.eye(len(x), k=-1)) / h**2
        z = eigh(stiff, np.diag(mass), eigvals_only=True)
        sigmas = [0.5 * z[0], *(0.5 * (z[:-1] + z[1:])), 2.0 * z[-1]]
        counts = [_sturm_count(diag, mass, -1.0 / h**2, sigma) for sigma in sigmas]
        assert counts == [int(np.sum(z < sigma)) for sigma in sigmas]
        assert counts == list(range(len(x) + 1))
        got = _pencil_solve(params, grid, 4)[0]
        assert np.all(np.abs(got - z[:4]) <= 1e-12 * z[:4])

    def test_pencil_solve_finds_the_odd_modes(self):
        # The start vector has both parities: the modes z = 3 and 7 of
        # (1, 2) come out, with odd eigenvectors on the symmetric nodes.
        vals, vecs = _pencil_solve(P12, default_grid(P12), 4)
        assert np.all(np.abs(vals - [1.0, 3.0, 5.0, 7.0]) <= 1e-5)
        for j, vec in enumerate(vecs.T):
            mirror = vec[::-1] * (-1) ** j
            assert np.max(np.abs(vec - mirror)) <= 1e-10 * np.max(np.abs(vec)), j

    def test_sturm_certificate_rejects_a_missed_mode(self, monkeypatch):
        # One eigenvalue more below each midpoint than Lanczos found is
        # what a start vector blind to a mode would leave.
        count = gevreylab.eigen._sturm_count
        monkeypatch.setattr(gevreylab.eigen, "_sturm_count", lambda *args: count(*args) + 1)
        with pytest.raises(InconclusiveError, match="2 eigenvalues below .* Lanczos found 1"):
            _pencil_solve(P12, GridSpec(8.0, 0.05), 3)

    def test_oracle_report_is_identical_across_processes(self):
        # The oracle benchmark job's report, written in two fresh processes.
        code = ("import json, gevreylab as gl\n"
                "zs = gl.reference_eigenvalues(gl.OperatorParams(2, 3))\n"
                "print(json.dumps({'2,3': [float(z) for z in zs]}, indent=2, sort_keys=True))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(gevreylab.__file__).parents[1]))
        outs = [subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, check=True).stdout for _ in range(2)]
        assert outs[0] == outs[1]
        assert len(json.loads(outs[0])["2,3"]) == 3

    def test_galerkin_keeps_only_the_powers_it_reads(self):
        # The pencil reads Y^2, Y^(2(p-1)) and Y^(2(q-1)) of the n + 2q
        # square position matrix; keeping every power up to Y^(2(q-1))
        # would hold 159 of them here, about 87 MB.
        tracemalloc.start()
        try:
            z = gevreylab.eigen._galerkin_lowest(OperatorParams(1, 80), 1, 100, 0.1)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(z[0]) and z[0] > 0.0
        assert peak < 20e6


class TestSelectK:
    def test_degenerate_origin_rejected(self):
        x = np.linspace(-6.0, 6.0, 1201)
        vals = x**2 * np.exp(-x * x)
        f = SampledFunction((x[0],), (x[1] - x[0],), vals, support_radius=6.0)
        pair = Eigenpair(z=1.0, w=1.0 + 0j, f=f, residual=0.0, basis_size=0,
                         basis_change=0.0)
        with pytest.raises(DegenerateOriginError):
            select_k(pair)

    def test_parity_of_closed_form_profiles(self):
        assert select_k(staggered_hermite_pair(odd=False)) == 0
        assert select_k(staggered_hermite_pair(odd=True)) == 1

    def test_odd_profile_slope_at_origin(self):
        # d/dx x e^(-x^2/2) = 1 at x = 0, read mid-cell on the staggered grid.
        f = staggered_hermite_pair(odd=True).f
        assert float(_profile_at(f, 0.0, 1)) == pytest.approx(1.0, abs=1e-9)


class TestFamily:
    def test_zero_time_slice_is_dilated_profile(self, solve):
        from scipy.interpolate import CubicSpline

        pair = solve(1, 2)[0]
        F = build_counterexample(pair, 4.0, P12, BOX)
        xs = np.linspace(-1.0, 1.0, 41)
        spline = CubicSpline(pair.f.coords(0), pair.f.values)
        assert np.allclose(F.values[:, 20, 20], spline(2.0 * xs), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("odd", [False, True])
    def test_zero_time_slice_matches_closed_form(self, odd):
        F = build_counterexample(staggered_hermite_pair(odd), 4.0, P12, BOX)
        u = 2.0 * np.linspace(-1.0, 1.0, 41)
        want = (u if odd else 1.0) * np.exp(-u * u / 2.0)
        assert np.allclose(F.values[:, 20, 20], want, rtol=0, atol=1e-12)

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

    @pytest.mark.parametrize("lo,hi", [(-4.0, 6.0), (-6.0, 4.0)])
    def test_dilation_beyond_the_nearer_end_rejected(self, lo, hi):
        # lam = 25 dilates [-1, 1] to [-5, 5]: inside the farther end of
        # the stored grid but past the nearer one, where no sample exists.
        h = 1e-3
        x = np.arange(lo, hi + h / 2.0, h)
        f = SampledFunction((x[0],), (h,), np.exp(-x * x / 2.0))
        pair = Eigenpair(z=1.0, w=1.0 + 0.0j, f=f, residual=0.0, basis_size=0,
                         basis_change=0.0)
        with pytest.raises(ResampleError):
            build_counterexample(pair, 25.0, P12, BOX)


class TestKernelIdentity:
    def test_separable_reduction_is_exact(self, solve):
        pair = solve(1, 2)[0]
        for lam in (10.0, 100.0):
            got = verify_kernel(pair, lam, P12)
            assert got == pytest.approx(lam * pair.residual, rel=1e-14)

    def test_doubling_scales_by_two_over_q(self, solve):
        pair = solve(1, 2)[0]
        v1 = verify_kernel(pair, 10.0, P12)
        v2 = verify_kernel(pair, 20.0, P12)
        assert v2 / v1 == pytest.approx(2.0 ** (2.0 / P12.q), rel=1e-12)

    def test_residual_stays_small_with_refinement_check(self, solve):
        pair = solve(1, 2)[0]
        assert verify_kernel(pair, 20.0, P12) <= 1e-6
        assert verify_kernel(pair, 1.0, P12) <= 1e-6

    @pytest.mark.parametrize("lam", [1.0, 10.0, 100.0])
    def test_wrong_dispersion_fails_the_3d_check(self, lam):
        # The exact (1, 2) ground profile has z = 1, so w = sqrt(1.1) makes
        # F_lam miss the kernel by 0.1 lam f while the profile residual
        # (path i) stays at rounding level.
        pair = dataclasses.replace(hermite_ground_pair(), w=np.sqrt(1.1) + 0.0j)
        with pytest.raises(ConsistencyError, match="do not converge"):
            verify_kernel(pair, lam, P12)

    def test_check_boxes_are_small_cubes_at_large_lambda(self, solve, monkeypatch):
        boxes = []

        def recording(pair, lam, params, box):
            boxes.append(box)
            return build_counterexample(pair, lam, params, box)

        monkeypatch.setattr(gevreylab.eigen, "build_counterexample", recording)
        verify_kernel(solve(1, 2)[0], 100.0, P12)
        assert [[n for _, _, n in box] for box in boxes] == [[41] * 3, [81] * 3]


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

    def test_log_sup_is_the_box_sup(self, solve):
        # sup |F_lam| on [-1, 1]^3 at lam = N^(q/p) is exp(N |Re w|)
        # times the max of |f| over |x| <= N^(1/p).
        ladder = (1, 2, 10, 100)
        for pair in (off_centre_pair(), solve(1, 2)[0]):
            coords, mags = pair.f.coords(0), np.abs(pair.f.values)
            for row in growth_table(pair, P12, 0, ladder):
                peak = np.max(mags[np.abs(coords) <= row.N])
                want = row.N * abs(pair.w.real) + np.log(peak)
                assert row.log_sup == pytest.approx(want, rel=1e-14)
        # Past N = 1 the box reaches the off-centre peak, f = 1 at |x| = 1.5.
        rows = growth_table(off_centre_pair(), P12, 0, ladder)
        assert [r.log_sup for r in rows[1:]] == pytest.approx([2.0, 10.0, 100.0], abs=1e-9)

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
            1.999999999822193, abs=1e-6
        )
        assert estimate_optimal_exponent(solve(2, 3)[0], P23) == pytest.approx(
            1.499999999999999, abs=1e-6
        )

    @pytest.mark.parametrize("pq", PAIRS)
    def test_excited_modes_miss_by_less_than_a_hundredth(self, solve, pq):
        # The basis is exact only for k = 0 profiles peaking at the origin;
        # on the other modes of these pairs the left-out term costs up to 8.1e-3.
        params = OperatorParams(*pq)
        for pair in solve(*pq):
            s0 = estimate_optimal_exponent(pair, params)
            assert abs(s0 - params.optimal_order) <= 0.01

    def test_intercept_does_not_depend_on_w(self, solve):
        # The two-row B0 pin absorbs the N |Re w| term of log sup exactly.
        pair = solve(2, 3)[0]
        s0 = estimate_optimal_exponent(pair, P23)
        for w in (5.0, 0.1):
            moved = dataclasses.replace(pair, w=complex(w))
            assert estimate_optimal_exponent(moved, P23) == pytest.approx(s0, rel=1e-14)

    def test_expectation_cross_check(self, solve):
        pair = solve(1, 2)[0]
        with pytest.raises(ConsistencyError, match="disagrees"):
            estimate_optimal_exponent(pair, P12, expected=1.0)
        got = estimate_optimal_exponent(pair, P12, expected=2.0)
        assert abs(got - 2.0) <= 0.02

    def test_zero_residual_budget_is_inconclusive(self):
        # The box sup jumps once the box reaches the off-centre peak at
        # |x| = 1.5, so on N = 1, 2, 3 the rows leave the model by rms
        # 0.349, above the 0.02 budget.
        with pytest.raises(InconclusiveError, match="not linear"):
            estimate_optimal_exponent(off_centre_pair(), P12, (1, 2, 3))

    def test_two_order_ladder_is_inconclusive(self, solve):
        # A two-term fit passes through two rows exactly, so the model goes unchecked.
        with pytest.raises(InconclusiveError, match="three distinct"):
            estimate_optimal_exponent(solve(1, 2)[0], P12, (1, 2, 2))

    def test_normalization_invariance(self, solve):
        pair = solve(2, 3)[0]
        scaled = dataclasses.replace(pair, f=SampledFunction(
            pair.f.origin,
            pair.f.spacing,
            -2.35 * np.asarray(pair.f.values),
            support_radius=pair.f.support_radius,
        ))
        # Rescaling rounds every stored sample once and the second
        # difference amplifies that by 1/h^2, so the sampled residual is
        # invariant to eps/h^2 absolute, not to relative precision.
        # Measured shift 5e-14 against a 2.2e-10 floor.
        floor = np.finfo(float).eps / pair.f.spacing[0] ** 2
        assert abs(residual_norm(scaled, P23) - residual_norm(pair, P23)) <= floor
        assert estimate_optimal_exponent(scaled, P23) == pytest.approx(
            estimate_optimal_exponent(pair, P23), abs=1e-9
        )
