"""Profile eigensolve, kernel family, and the growth-exponent ladder."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh

from conftest import LADDER
from gevreylab import (
    ConsistencyError,
    Eigenpair,
    GridSpec,
    HermiteSeries,
    InconclusiveError,
    OperatorParams,
    SampledFunction,
    apply_L,
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
from gevreylab.eigen import _pencil_solve, _sturm_count

P12 = OperatorParams(1, 2)
P23 = OperatorParams(2, 3)
P34 = OperatorParams(3, 4)
PAIRS = ((1, 2), (1, 3), (2, 3), (3, 4))
#: 41 points per axis on [-1, 1]^3, the x size of verify_kernel's coarse box.
BOX = ((-1.0, 1.0, 41),) * 3


def record_cubes(monkeypatch) -> list:
    """(lam, box, cube) of every cube verify_kernel builds from here on."""
    cubes = []

    def recording(pair, lam, box):
        cubes.append((lam, box, build_counterexample(pair, lam, box)))
        return cubes[-1][2]

    monkeypatch.setattr(gevreylab.eigen, "build_counterexample", recording)
    return cubes


def every_other_node(u: SampledFunction) -> SampledFunction:
    """The coarse grid verify_kernel reads: every other node at twice the spacing."""
    return SampledFunction(u.origin, tuple(2.0 * h for h in u.spacing), u.values[::2, ::2, ::2])


def path_ii_ratio(u: SampledFunction, params: OperatorParams) -> float:
    """||L_h u|| / ||u|| on the interior: verify_kernel's path (ii)."""
    return np.linalg.norm(apply_L(u, params).values) / np.linalg.norm(u.values[1:-1, 1:-1, 1:-1])


def series_pair(values, z: float = 1.0, scale: float = 1.0) -> Eigenpair:
    """A pair whose profile is the Hermite series of ``values`` at ``scale``."""
    f = HermiteSeries(scale, np.asarray(values, dtype=float))
    return Eigenpair(z=z, f=f, residual=0.0, basis_change=0.0, params=P12,
                     grid=default_grid(P12))


def off_centre_pair() -> Eigenpair:
    """A profile that peaks at |x| = 1.5, outside the unit box:
    g(x - 1.5) + g(x + 1.5), g(x) = exp(-x^2 / 0.1), both 1 to e^-90 at
    their peaks.  At scale s = sqrt(0.05) g(x - 1.5) is exp(-(y - b)^2 / 2)
    in y = x / s, b = 1.5 / s, whose Hermite coefficients are those of a
    coherent state: sqrt(s) pi^(1/4) e^(-a^2/2) a^n / sqrt(n!), a = b / sqrt(2).
    The mirrored term flips the odd ones."""
    s = math.sqrt(0.05)
    a = 1.5 / s / math.sqrt(2.0)
    n = np.arange(128)
    log_c = n * math.log(a) - 0.5 * np.array([math.lgamma(k + 1.0) for k in n]) - a * a / 2
    values = np.where(n % 2 == 0, 2.0 * math.sqrt(s) * np.pi**0.25 * np.exp(log_c), 0.0)
    return series_pair(values, scale=s)


def hermite_ground_pair() -> Eigenpair:
    """Closed-form ground profile for (1, 2): e^(-x^2/2) = pi^(1/4) psi_0."""
    return series_pair([np.pi**0.25])


def closed_form_pair(odd: bool) -> Eigenpair:
    """Closed-form (1, 2) profile: e^(-x^2/2) (z = 1) or x e^(-x^2/2) =
    pi^(1/4) psi_1 / sqrt(2) (z = 3)."""
    if odd:
        return series_pair([0.0, np.pi**0.25 / np.sqrt(2.0)], z=3.0)
    return hermite_ground_pair()


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

    def test_default_extent_resolves_requested_modes(self, solve):
        # Agmon extent: every kept mode has died out at the window's edge,
        # where the readers stop (build_counterexample, growth_table).
        for p, q in PAIRS:
            params = OperatorParams(p, q)
            reach = default_grid(params).half_width
            pairs = solve(p, q)
            assert len(pairs) == 4
            for pair in pairs:
                top = np.max(np.abs(pair.f(np.linspace(-reach, reach, 2001))))
                assert np.max(np.abs(pair.f(np.array([-reach, reach])))) <= 1e-16 * top, (p, q)
        # Each pair carries the window of its solve's count: the 40 (1, 2)
        # pairs of count = 40 sit below 1.5e-20 of their peaks at its edge,
        # 14.80, where the count = 4 window's edge, 10.62, leaves the
        # z = 79 mode at 4.8e-4.
        for pair in solve_nonlinear_eigen(P12, count=40):
            assert pair.grid == default_grid(P12, count=40)
            reach = pair.grid.half_width
            top = np.max(np.abs(pair.f(np.linspace(-reach, reach, 2001))))
            assert np.max(np.abs(pair.f(np.array([-reach, reach])))) <= 1e-16 * top
        with pytest.raises(ValueError, match="p = q = 2"):
            default_grid(OperatorParams(2, 2))

    def test_default_extent_grows_with_count(self):
        # More requested pairs push the highest turning point outward.
        assert default_grid(P12, count=10).half_width > default_grid(P12).half_width
        pairs = solve_nonlinear_eigen(P12, count=10)
        assert np.allclose([p.z for p in pairs], np.arange(1.0, 20.0, 2.0), atol=1e-4)


class TestResidual:
    def test_exact_ground_profile(self):
        # Centered second differences of the exact profile, sampled at
        # the default (1, 2) spacing h = 1e-3, leave an O(h^2) truncation
        # term: 0.21 h^2.
        h = default_grid(P12).refined().spacing
        assert residual_norm(hermite_ground_pair()) <= 0.25 * h**2

    def test_perturbed_eigenvalue_detected(self):
        base = hermite_ground_pair()
        off = dataclasses.replace(base, z=1.1)
        assert residual_norm(off) >= 0.01


class TestSolve:
    def test_harmonic_ladder(self, solve):
        pairs = solve(1, 2)
        assert len(pairs) == 4
        assert np.allclose([p.z for p in pairs], [1.0, 3.0, 5.0, 7.0], atol=1e-5)
        assert abs(pairs[0].z - 1.0) <= 1e-6

    def test_more_pairs_than_the_first_basis_holds(self):
        # 64 functions hold 32 per parity block, so 40 pairs start the
        # basis ladder at 80; the (1, 2) pairs are z_k = 2k + 1.
        pairs = solve_nonlinear_eigen(P12, count=40)
        z = np.array([pair.z for pair in pairs])
        odd = 2.0 * np.arange(40) + 1.0
        assert np.max(np.abs(z - odd) / odd) <= 1e-13

    def test_samples_series_and_pairs_compare_by_identity(self, solve):
        # Samples and series hold arrays, so == and hash go by identity;
        # a pair compares and hashes through its series.
        line = SampledFunction((0.0,), (1.0,), np.zeros(4))
        twin = SampledFunction((0.0,), (1.0,), np.zeros(4))
        assert line == line and line != twin and hash(line) == hash(line)
        series = HermiteSeries(1.0, np.array([1.0]))
        assert series == series and series != HermiteSeries(1.0, np.array([1.0]))
        assert hash(series) == hash(series)
        first, second = solve(1, 2)[:2]
        assert first != second and dataclasses.replace(first) == first
        assert hash(dataclasses.replace(first)) == hash(first)

    def test_settling_enforced(self, solve):
        for pair in solve(1, 2) + solve(2, 3):
            assert pair.residual <= 1e-6
            assert pair.basis_change <= 1e-12
            top = np.max(np.abs(pair.f.values))
            assert top > 0.0

    def test_profiles_have_definite_parity(self, solve):
        reach = default_grid(P12).half_width
        xs = np.linspace(0.0, 0.9 * reach, 500)
        for pair in solve(1, 2):
            even = np.max(np.abs(pair.f(xs) - pair.f(-xs)))
            odd = np.max(np.abs(pair.f(xs) + pair.f(-xs)))
            scale = np.max(np.abs(pair.f(xs)))
            assert min(even, odd) / scale <= 1e-8

    @pytest.mark.parametrize("pq", PAIRS)
    def test_sign_rule(self, solve, pq):
        # Each profile is signed by its probe derivative at the origin,
        # not by which of an odd mode's two mirror-image peaks comes first.
        for pair in solve(*pq):
            assert float(pair.f(0.0, select_k(pair))) > 0.0, pq

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_parities_alternate(self, solve, p):
        # The (p, 2p) closed forms order the modes 2p - 1 (even), 2p + 1
        # (odd), 6p - 1 (even), 6p + 1 (odd).  Each comes from one parity
        # block, so the other parity's coefficients are exactly zero.
        pairs = solve(p, 2 * p)
        assert [select_k(pair) for pair in pairs] == [0, 1, 0, 1]
        for pair in pairs:
            assert np.all(pair.f.values[1 - select_k(pair)::2] == 0.0), p

    def test_equal_exponents_have_no_profiles(self):
        assert solve_nonlinear_eigen(OperatorParams(2, 2)) == []

    def test_sampling_grid_check(self, solve):
        # eigenpair.csv samples each profile on the default grid's
        # refinement.  That grid holds every kept mode: on its outer 5%
        # the profile sits below 1e-6 of its peak, and its grid norm
        # h sum f^2 matches the unit coefficient norm to 1e-6 (Parseval).
        for p, q in PAIRS:
            grid = default_grid(OperatorParams(p, q)).refined()
            x = grid.nodes()
            edge = int(0.05 * len(x))
            for pair in solve(p, q):
                vals = np.abs(pair.f(x))
                tail = max(np.max(vals[:edge]), np.max(vals[-edge:]))
                assert tail <= 1e-6 * np.max(vals), (p, q)
                assert abs(grid.spacing * np.sum(vals**2) - 1.0) <= 1e-6, (p, q)

    @pytest.mark.parametrize("pq", PAIRS)
    def test_profiles_match_the_oracle_eigenvectors(self, solve, pq):
        # The finite-difference eigenvectors on the same nodes carry their
        # own O(h^2) error, 3.9e-8 to 9.0e-7 of the peak on these modes.
        params = OperatorParams(*pq)
        grid = default_grid(params).refined()
        _, vecs = _pencil_solve(params, grid, 4)
        for pair, vec in zip(solve(*pq), vecs.T):
            got = pair.f(grid.nodes())
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

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_solver_is_exact_on_the_p_2p_family(self, solve, p):
        # f(x) = g(x^p) turns the (p, 2p) equation into a radial harmonic
        # oscillator in dimension 2 - 1/p: z = (4j + 2) p - 1 for even
        # modes and (4j + 2) p + 1 for odd ones.  Measured: <= 4.4e-15
        # relative; (6, 12) and (7, 14) do not settle yet.
        want = np.array([2 * p - 1, 2 * p + 1, 6 * p - 1, 6 * p + 1], dtype=float)
        got = np.array([pair.z for pair in solve(p, 2 * p)])
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_profiles_match_the_p_2p_closed_form(self, solve, p):
        # Even modes exp(-x^(2p)/(2p)) L_j^(-1/(2p))(t), odd ones
        # x exp(-x^(2p)/(2p)) L_j^(1/(2p))(t), t = x^(2p)/p, for j = 0, 1,
        # with L_0 = 1 and L_1^(a)(t) = 1 + a - t; each normalized by
        # f(0) or f'(0).  Measured: <= 4.0e-14 max abs on the default
        # window, largest on p = 2's second odd mode.
        half_width = default_grid(OperatorParams(p, 2 * p)).half_width
        x = np.linspace(-half_width, half_width, 2001)
        ground, t = np.exp(-x ** (2 * p) / (2 * p)), x ** (2 * p) / p
        even, odd = 1.0 - 1.0 / (2 * p), 1.0 + 1.0 / (2 * p)  # L_1^(-+1/(2p))(0)
        want = (ground, x * ground, ground * (even - t) / even, x * ground * (odd - t) / odd)
        for j, (pair, form) in enumerate(zip(solve(p, 2 * p), want)):
            f = pair.f
            assert np.max(np.abs(f(x) / f(0.0, j % 2) - form)) <= 1e-13, j

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_eight_modes_match_the_p_2p_closed_form(self, p):
        # j = 0 .. 3, even and odd, at count = 8 on the pair's window:
        # z = (4j + 2) p -+ 1 and profiles exp(-x^(2p)/(2p)) L_j^(-a)(t)
        # and x exp(-x^(2p)/(2p)) L_j^(a)(t), a = 1/(2p), t = x^(2p)/p,
        # each normalized by f(0) or f'(0).  L_j^(a) comes from its
        # three-term recurrence.  Measured: profiles <= 3.4e-14 max abs
        # (p = 2, odd j = 3), z <= 5.9e-15 relative.
        def laguerre(j, a, t):
            prev, cur = np.zeros_like(t), np.ones_like(t)
            for k in range(j):
                prev, cur = cur, ((2 * k + 1 + a - t) * cur - (k + a) * prev) / (k + 1)
            return cur

        pairs = solve_nonlinear_eigen(OperatorParams(p, 2 * p), count=8)
        assert len(pairs) == 8
        x = np.linspace(-pairs[0].grid.half_width, pairs[0].grid.half_width, 2001)
        ground, t = np.exp(-x ** (2 * p) / (2 * p)), x ** (2 * p) / p
        for i, pair in enumerate(pairs):
            j, odd = divmod(i, 2)
            a = (1 if odd else -1) / (2 * p)
            want = (4 * j + 2) * p + (1 if odd else -1)
            assert abs(pair.z - want) <= 1e-13 * want, (p, i)
            form = (x if odd else 1.0) * ground * laguerre(j, a, t) / laguerre(j, a, 0.0)
            assert np.max(np.abs(pair.f(x) / pair.f(0.0, odd) - form)) <= 1e-13, (p, i)

    def test_pairs_that_need_476_functions_meet_the_acceptance_bounds(self):
        # These pairs settle only on the last rung below the 500 cap.
        # Measured: oracle gap <= 9.3e-12, kernel residual <= 3.2e-11,
        # |s0 - q/p| <= 7.1e-15.
        for p, q in ((1, 14), (2, 13), (3, 12), (4, 12), (5, 11), (6, 10), (7, 9), (7, 10)):
            params = OperatorParams(p, q)
            pair = solve_nonlinear_eigen(params)[0]
            assert len(pair.f.values) == 476, (p, q)
            oracle = reference_eigenvalues(params)[0]
            assert abs(pair.z - oracle) <= 1e-6 * oracle, (p, q)
            for lam in (10.0, 100.0):
                assert verify_kernel(pair, lam) <= 1e-4, (p, q, lam)
            s0 = estimate_optimal_exponent(growth_table(pair, LADDER))
            assert abs(s0 - q / p) <= 0.02, (p, q)

    def test_unsettled_basis_is_inconclusive(self):
        # At (12, 13) z agrees to 1e-15 between 381 and 476 functions, but
        # the residuals still read 0.034.  At (1, 30) the stiffness loses
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

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7])
    def test_oracle_matches_the_p_2p_closed_form(self, p):
        # z = 2p - 1, 2p + 1, 6p - 1.  Measured: 1.1e-13 relative at p = 1,
        # growing with p to 3.0e-10 at p = 7.
        want = np.array([2 * p - 1, 2 * p + 1, 6 * p - 1], dtype=float)
        got = reference_eigenvalues(OperatorParams(p, 2 * p), count=3)
        assert np.all(np.abs(got - want) <= 1e-9 * want)

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
        # One eigenvalue more below the midpoint than Lanczos found is
        # what a start vector blind to a mode would leave.
        count = gevreylab.eigen._sturm_count
        monkeypatch.setattr(gevreylab.eigen, "_sturm_count", lambda *args: count(*args) + 1)
        with pytest.raises(InconclusiveError, match="4 eigenvalues below .* Lanczos found 3"):
            _pencil_solve(P12, GridSpec(8.0, 0.05), 3)

    def test_lanczos_that_does_not_converge_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(gevreylab.eigen, "_LANCZOS_STEPS", 2)
        with pytest.raises(InconclusiveError, match="did not converge within 2 Lanczos steps"):
            _pencil_solve(P12, GridSpec(8.0, 0.05), 3)

    def test_sturm_count_reads_a_zero_pivot_as_negative(self):
        # sigma = 2 is the eigenvalue of the 1 x 1 pencil (2, 1) itself.
        assert _sturm_count(np.array([2.0]), np.array([1.0]), 0.0, 2.0) == 1

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
        # would hold 159 of them here, about 87 MB.  At scale 0.1 the
        # 50-function even block loses definiteness in rounding.
        tracemalloc.start()
        try:
            z = gevreylab.eigen._galerkin_lowest(OperatorParams(1, 80), 1, 100, 0.05)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(z[0]) and z[0] > 0.0
        assert peak < 20e6

    def test_overflowing_powers_are_inconclusive(self):
        # At (1, 120) the powers of Y overflow at Y^224 in the first basis
        # of 64 functions; a larger basis only holds larger entries.  No
        # overflow warning, no factorization, no further basis.
        with pytest.raises(InconclusiveError, match=r"\(1, 120\) .* float range at Y\^224 in 64"):
            solve_nonlinear_eigen(OperatorParams(1, 120))

    @pytest.mark.parametrize("q", [140, 400, 2000])
    def test_a_q_the_basis_cannot_hold_raises_before_allocating(self, monkeypatch, q):
        # ((64 + 2q - 1) / 2)^(q - 1) bounds an entry of Y^(2(q-1)) from
        # below and first leaves the float range at q = 140, so no matrix
        # is formed, not even the 4064 x 4064 powers that (1, 2000) needs.
        def eye(*args, **kwargs):
            raise AssertionError("a matrix was formed")

        monkeypatch.setattr(np, "eye", eye)
        with pytest.raises(InconclusiveError, match=rf"\(1, {q}\) .* float range: Y\^{2 * (q - 1)} in 64"):
            solve_nonlinear_eigen(OperatorParams(1, q))


class TestSelectK:
    def test_parity_of_closed_form_profiles(self):
        assert select_k(closed_form_pair(odd=False)) == 0
        assert select_k(closed_form_pair(odd=True)) == 1

    def test_odd_profile_slope_at_origin(self):
        # d/dx x e^(-x^2/2) = 1 at x = 0, read off the series.
        f = closed_form_pair(odd=True).f
        assert float(f(0.0, 1)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("odd", [False, True])
    def test_series_matches_the_closed_form(self, odd):
        # f and f' of e^(-x^2/2) and x e^(-x^2/2), at scale 1 and at a
        # scale the coefficients absorb, f(x) = g(x / s) / sqrt(s).
        x = np.linspace(-6.0, 6.0, 1201)
        g = np.exp(-x * x / 2.0)
        want = (x * g, (1.0 - x * x) * g) if odd else (g, -x * g)
        f = closed_form_pair(odd).f
        s = 0.4
        wide = HermiteSeries(s, np.sqrt(s) * f.values)
        for deriv in (0, 1):
            assert np.max(np.abs(f(x, deriv) - want[deriv])) <= 1e-14
            assert np.max(np.abs(s**deriv * wide(s * x, deriv) - want[deriv])) <= 1e-14


class TestFamily:
    def test_zero_time_slice_is_dilated_profile(self, solve):
        pair = solve(1, 2)[0]
        F = build_counterexample(pair, 4.0, BOX)
        xs = np.linspace(-1.0, 1.0, 41)
        assert np.array_equal(F.values[:, 20, 20], pair.f(2.0 * xs))

    @pytest.mark.parametrize("odd", [False, True])
    def test_zero_time_slice_matches_closed_form(self, odd):
        F = build_counterexample(closed_form_pair(odd), 4.0, BOX)
        u = 2.0 * np.linspace(-1.0, 1.0, 41)
        want = (u if odd else 1.0) * np.exp(-u * u / 2.0)
        assert np.allclose(F.values[:, 20, 20], want, rtol=0, atol=1e-15)

    def test_modulus_grows_along_first_time_axis(self, solve):
        pair = solve(1, 2)[0]
        lam = 4.0
        F = build_counterexample(pair, lam, BOX)
        t1 = np.linspace(-1.0, 1.0, 41)
        f0 = abs(F.values[20, 20, 20])
        want = f0 * np.exp(np.sqrt(lam) * math.sqrt(pair.z) * t1)
        assert np.allclose(np.abs(F.values[20, :, 20]), want, rtol=1e-12)

    def test_oscillation_axis_has_unit_modulus_factor(self, solve):
        pair = solve(1, 2)[0]
        F = build_counterexample(pair, 7.0, BOX)
        mods = np.abs(F.values[:, :, :])
        assert np.allclose(mods, mods[:, :, :1], rtol=1e-12)

    def test_small_lambda_rejected(self, solve):
        with pytest.raises(ValueError, match=">= 1"):
            build_counterexample(solve(1, 2)[0], 0.5, BOX)

    def test_dilation_beyond_grid_rejected(self, solve):
        # lam^(1/q) = 1000 dilation against a window of half-width 10.6.
        with pytest.raises(ValueError, match="leaves the profile window"):
            build_counterexample(solve(1, 2)[0], 1e6, BOX)

    @pytest.mark.parametrize("lo,hi", [(-4.0, 6.0), (-6.0, 4.0)])
    def test_dilation_beyond_the_nearer_end_rejected(self, lo, hi):
        # lam = X^2 dilates [lo, hi] / 5 to [lo, hi] X / 5: inside the
        # window |x| <= X on one side and past it on the other.
        reach = default_grid(P12).half_width
        pair = hermite_ground_pair()
        lam = reach**2
        with pytest.raises(ValueError, match="leaves the profile window"):
            build_counterexample(pair, lam, ((lo / 5.0, hi / 5.0, 41),) + BOX[1:])
        inside = build_counterexample(pair, lam, ((lo / 7.0, hi / 7.0, 41),) + BOX[1:])
        assert np.all(np.isfinite(inside.values))

    def test_box_reads_the_pair_window(self):
        # lam = 4 dilates x in [-6.5, 6.5] to [-13, 13]: past the count = 4
        # window's 10.62, inside the 14.80 of the count = 40 solve that
        # the 40th (1, 2) mode carries.
        pair = solve_nonlinear_eigen(P12, count=40)[39]
        xs = np.linspace(-6.5, 6.5, 41)
        F = build_counterexample(pair, 4.0, ((-6.5, 6.5, 41),) + BOX[1:])
        assert np.array_equal(F.values[:, 20, 20], pair.f(2.0 * xs))

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 3)])
    def test_cube_is_the_outer_product_of_its_factors(self, solve, monkeypatch, p, q):
        # On verify_kernel's own boxes the cube is, bit for bit, the
        # product f(lam^(1/q) x) exp(lam^(p/q) w t1) exp(i lam t2) of its
        # three 1-d factors, multiplied in that order.
        pair = solve(p, q)[0]
        built = record_cubes(monkeypatch)
        for lam in (10.0, 100.0):
            verify_kernel(pair, lam)
        assert [lam for lam, _, _ in built] == [10.0, 100.0]
        for lam, box, F in built:
            x, t1, t2 = (np.linspace(*axis) for axis in box)
            fx = pair.f(lam ** (1.0 / q) * x).astype(complex)
            g1 = np.exp(lam ** (p / q) * math.sqrt(pair.z) * t1)
            g2 = np.exp(1j * lam * t2)
            want = fx[:, None, None] * g1[None, :, None] * g2[None, None, :]
            assert F.values.tobytes() == want.tobytes()


class TestKernelIdentity:
    def test_separable_reduction_is_exact(self, solve):
        pair = solve(1, 2)[0]
        for lam in (10.0, 100.0):
            got = verify_kernel(pair, lam)
            assert got == pytest.approx(lam * pair.residual, rel=1e-14)

    def test_doubling_scales_by_two_over_q(self, solve):
        pair = solve(1, 2)[0]
        v1 = verify_kernel(pair, 10.0)
        v2 = verify_kernel(pair, 20.0)
        assert v2 / v1 == pytest.approx(2.0 ** (2.0 / P12.q), rel=1e-12)

    def test_residual_stays_small_with_refinement_check(self, solve):
        pair = solve(1, 2)[0]
        assert verify_kernel(pair, 20.0) <= 1e-6
        assert verify_kernel(pair, 1.0) <= 1e-6

    @pytest.mark.parametrize("lam", [1.0, 10.0, 100.0])
    def test_wrong_dispersion_fails_the_3d_check(self, lam):
        # The exact (1, 2) ground profile has z = 1, so z = 1.1 (w =
        # sqrt(1.1)) makes F_lam miss the kernel by 0.1 lam f while the
        # stored profile residual (path i) stays at rounding level.
        pair = dataclasses.replace(hermite_ground_pair(), z=1.1)
        with pytest.raises(ConsistencyError, match="do not converge"):
            verify_kernel(pair, lam)

    def test_check_boxes_are_small_cubes_at_large_lambda(self, solve, monkeypatch):
        cubes = record_cubes(monkeypatch)
        for lam in (10.0, 100.0):
            verify_kernel(solve(1, 2)[0], lam)
        assert [(lam, [n for _, _, n in box]) for lam, box, _ in cubes] == [
            (10.0, [81, 11, 11]), (100.0, [81, 11, 11])
        ]

    @pytest.mark.parametrize("pq", PAIRS)
    def test_check_box_reads_the_ratio_of_the_full_cube(self, solve, monkeypatch, pq):
        # The t1 and t2 factors pass through the second differences as
        # constants, so the path-(ii) ratios on the 81 x 11 x 11 box and on
        # the 81^3 cube of the same spacings, eight times its t1 and t2
        # extents, agree to rounding; measured <= 1.9e-10 relative.
        params = OperatorParams(*pq)
        pair = solve(*pq)[0]
        cubes = record_cubes(monkeypatch)
        for lam in (1.0, 10.0, 100.0):
            verify_kernel(pair, lam)
        for lam, box, small in cubes:
            x_axis, _, (_, t2_half, _) = box
            full = build_counterexample(
                pair, lam, (x_axis, (-1.0, 1.0, 81), (-8 * t2_half, 8 * t2_half, 81))
            )
            for a, b in ((small, full), (every_other_node(small), every_other_node(full))):
                assert path_ii_ratio(a, params) == pytest.approx(
                    path_ii_ratio(b, params), rel=1e-9, abs=0.0
                ), lam

    @pytest.mark.parametrize("pq", PAIRS)
    def test_coarse_check_is_the_direct_coarse_cube(self, solve, monkeypatch, pq):
        # The coarse check reads every other node of the fine box at twice
        # its spacing; a direct build of (n + 1) // 2 nodes per axis on the
        # same box must give the same samples, grid and path-(ii) ratio,
        # bit for bit.
        params = OperatorParams(*pq)
        pair = solve(*pq)[0]
        cubes = record_cubes(monkeypatch)
        for lam in (1.0, 4.0, 10.0, 37.3, 100.0):
            verify_kernel(pair, lam)
        for lam, box, fine in cubes:
            direct = build_counterexample(
                pair, lam, [(lo, hi, (n + 1) // 2) for lo, hi, n in box]
            )
            view = every_other_node(fine)
            assert np.array_equal(view.values, direct.values), lam
            assert view.origin == direct.origin, lam
            assert view.spacing == direct.spacing, lam
            assert path_ii_ratio(view, params) == path_ii_ratio(direct, params), lam


class TestGrowthLadder:
    def test_smallest_ladder_is_finite(self, solve):
        rows = growth_table(solve(1, 2)[0], (1, 10))
        assert all(np.isfinite(r.s_star) for r in rows)
        assert rows[0].N == 1

    def test_ladder_validation(self, solve):
        pair = solve(1, 2)[0]
        with pytest.raises(ValueError, match="at least two"):
            growth_table(pair, (100,))
        with pytest.raises(ValueError, match="at least two"):
            growth_table(pair, (0, 10))
        with pytest.raises(ValueError, match=r"distinct; repeated: \[2\]"):
            growth_table(pair, (2, 2, 3, 4))

    def test_row_fields_consistent(self, solve):
        rows = growth_table(solve(1, 2)[0], (10, 100, 1000))
        assert [r.N for r in rows] == [10, 100, 1000]
        for r in rows:
            assert r.lam == pytest.approx(float(r.N) ** 2.0, rel=1e-12)
            assert np.isfinite(r.log_lhs) and np.isfinite(r.log_sup)

    def test_log_sup_is_the_box_sup(self, solve):
        # sup |F_lam| on [-1, 1]^3 at lam = N^(q/p) is exp(N w)
        # times the max of |f| over |x| <= N^(1/p): no node of a dense
        # grid beats it, and the nearest node, within half a spacing d of
        # the peak, falls short by |f''| (d/2)^2 / 2 <= 2.5 d^2 (f''/f = -20
        # at the off-centre peak).
        ladder = (1, 2, 10, 100)
        reach = default_grid(P12).half_width
        for pair in (off_centre_pair(), solve(1, 2)[0]):
            for row in growth_table(pair, ladder):
                box = min(row.N, reach)
                nodes = np.linspace(-box, box, 200001)
                want = row.N * math.sqrt(pair.z) + np.log(np.max(np.abs(pair.f(nodes))))
                short = 2.5 * (nodes[1] - nodes[0]) ** 2
                assert want - 1e-13 <= row.log_sup <= want + short + 1e-13
        # Past N = 1 the box reaches the off-centre peak, f = 1 at |x| = 1.5.
        rows = growth_table(off_centre_pair(), ladder)
        assert [r.log_sup for r in rows[1:]] == pytest.approx([2.0, 10.0, 100.0], abs=1e-14)

    @pytest.mark.parametrize("pq", [(1, 2), (1, 3)])
    def test_ground_state_peak_is_f_at_the_origin(self, solve, pq):
        # The ground states peak at the origin, so the box max is f(0)
        # itself, to the bit, and the last term of s*(N) vanishes.
        pair = solve(*pq)[0]
        log_f0 = math.log(abs(float(pair.f(0.0))))
        for row in growth_table(pair, LADDER):
            assert row.log_sup == row.N * math.sqrt(pair.z) + log_f0

    def test_ladder_converges_from_above(self, solve):
        # The two calibration rows coincide by construction; past them
        # the distance to the limit shrinks monotonically.
        for pair, s_limit in ((solve(1, 2)[0], 2.0), (solve(2, 3)[0], 1.5)):
            rows = growth_table(pair, LADDER)
            stars = [r.s_star for r in rows]
            assert stars[0] == pytest.approx(stars[1], abs=1e-12)
            gaps = [abs(s - s_limit) for s in stars[1:]]
            assert all(b < a for a, b in zip(gaps, gaps[1:]))
            assert all(abs(s - s_limit) < 0.05 for s in stars)


class TestExponentEstimate:
    def test_frozen_intercepts(self, solve):
        s12 = estimate_optimal_exponent(growth_table(solve(1, 2)[0], LADDER))
        s23 = estimate_optimal_exponent(growth_table(solve(2, 3)[0], LADDER))
        assert s12 == pytest.approx(1.999999999822193, abs=1e-6)
        assert s23 == pytest.approx(1.499999999999999, abs=1e-6)

    @pytest.mark.parametrize("pq", PAIRS)
    def test_excited_modes_miss_by_less_than_a_hundredth(self, solve, pq):
        # The basis is exact only for k = 0 profiles peaking at the origin;
        # on the other modes of these pairs the left-out term costs up to
        # 8.1e-3, on the fourth mode of (1, 3).
        params = OperatorParams(*pq)
        for pair in solve(*pq):
            s0 = estimate_optimal_exponent(growth_table(pair, LADDER))
            assert abs(s0 - params.optimal_order) <= 0.01

    def test_intercept_does_not_depend_on_w(self, solve):
        # The two-row B0 pin absorbs the N w term of log sup exactly.
        pair = solve(2, 3)[0]
        s0 = estimate_optimal_exponent(growth_table(pair, LADDER))
        for z in (25.0, 0.01):  # w = 5 and 0.1
            moved = dataclasses.replace(pair, z=z)
            got = estimate_optimal_exponent(growth_table(moved, LADDER))
            assert got == pytest.approx(s0, rel=1e-14)

    def test_expectation_cross_check(self, solve):
        rows = growth_table(solve(1, 2)[0], LADDER)
        with pytest.raises(ConsistencyError, match="disagrees"):
            estimate_optimal_exponent(rows, expected=1.0)
        got = estimate_optimal_exponent(rows, expected=2.0)
        assert abs(got - 2.0) <= 0.02

    def test_zero_residual_budget_is_inconclusive(self):
        # The box sup jumps once the box reaches the off-centre peak at
        # |x| = 1.5, so on N = 1, 2, 3 the rows leave the model by rms
        # 0.349, above the 0.02 budget.
        with pytest.raises(InconclusiveError, match="not linear"):
            estimate_optimal_exponent(growth_table(off_centre_pair(), (1, 2, 3)))

    def test_two_order_ladder_is_inconclusive(self, solve):
        # A two-term fit passes through two rows exactly, so the model goes unchecked.
        with pytest.raises(InconclusiveError, match="three distinct"):
            estimate_optimal_exponent(growth_table(solve(1, 2)[0], (1, 2)))

    def test_normalization_invariance(self, solve):
        pair = solve(2, 3)[0]
        scaled = dataclasses.replace(pair, f=HermiteSeries(pair.f.scale, -2.35 * pair.f.values))
        # Rescaling rounds every coefficient once, and the second
        # difference of the samples amplifies that by 1/h^2, so the sampled
        # residual is invariant to eps/h^2 absolute, not to relative precision.
        floor = np.finfo(float).eps / default_grid(P23).refined().spacing ** 2
        assert abs(residual_norm(scaled) - residual_norm(pair)) <= floor
        got = estimate_optimal_exponent(growth_table(scaled, LADDER))
        assert got == pytest.approx(
            estimate_optimal_exponent(growth_table(pair, LADDER)), abs=1e-9
        )
