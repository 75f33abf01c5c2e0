"""End-to-end acceptance gate.

Eight checks, one per headline capability of the laboratory.  Each test
prints a single PASS/FAIL line with the measured numbers (visible under
``pytest -s``, or in the captured output on failure) and then asserts.
The tolerances here are contractual; loosening one to turn a red line
green defeats the point of the gate.

The suite-level wall-clock budget that goes with these checks is
enforced in ``conftest.pytest_sessionfinish``.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from conftest import LADDER, SOLVE_SECONDS
from gevreylab import (
    DualFrequency,
    HermiteSeries,
    OperatorParams,
    SampledFunction,
    apply_A_tau,
    apriori_norms,
    check_scaling_inequality,
    check_weight_inequality,
    decompose,
    default_grid,
    estimate_optimal_exponent,
    estimate_order_fbi,
    fbi,
    fit_stretched_exponential,
    growth_table,
    inversion_profile,
    jacobian_alpha,
    reference_eigenvalues,
    residual_norm,
    sample,
    verify_kernel,
)

PAIRS = ((1, 2), (1, 3), (2, 3), (3, 4))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_threshold_exponent_recovery(solve):
    # For each exponent pair the ladder estimate must land within 0.02
    # of q/p, and the whole computation (profile solve + ladder fit)
    # must stay under a minute.
    ok, details = True, []
    for p, q in PAIRS:
        pair = solve(p, q)[0]
        t0 = time.perf_counter()
        est = estimate_optimal_exponent(growth_table(pair, LADDER))
        took = SOLVE_SECONDS[(p, q)] + time.perf_counter() - t0
        ok &= abs(est - q / p) <= 0.02 and took < 60.0
        details.append(f"({p},{q})->{est:.5f} want {q / p:.5f} [{took:.1f}s]")
    _report(1, ok, "; ".join(details))


def test_criterion_02_eigenvalue_oracle_agreement(solve):
    # Quadratic confinement has a closed-form ground value of 1; the
    # quartic cases are checked against an independent finite-difference
    # oracle (three-point pencil at h and h/2, Richardson-combined) that
    # shares no discretization with the Hermite-Galerkin solver.  Budget:
    # 30 s per pair.
    checks = [("(1,2) closed form", abs(solve(1, 2)[0].z - 1.0), SOLVE_SECONDS[(1, 2)])]
    for p, q in ((1, 3), (2, 3)):
        t0 = time.perf_counter()
        oracle = reference_eigenvalues(OperatorParams(p, q))[0]
        took = SOLVE_SECONDS[(p, q)] + time.perf_counter() - t0
        checks.append((f"({p},{q}) oracle", abs(solve(p, q)[0].z - oracle) / oracle, took))
    ok = all(err <= 1e-6 and took < 30.0 for _, err, took in checks)
    _report(2, ok, "; ".join(f"{n} err {e:.2e} [{t:.1f}s]" for n, e, t in checks))


def test_criterion_03_exact_kernel_family(solve):
    # The assembled three-variable field must annihilate the operator
    # to 1e-4 relative at both moderate and large frequency, with the
    # finite-difference cross-check enabled.
    pair = solve(1, 2)[0]
    res = {lam: verify_kernel(pair, lam) for lam in (10.0, 100.0)}
    ok = all(r <= 1e-4 for r in res.values())
    _report(3, ok, "; ".join(f"lam={lam:g} residual {r:.2e}" for lam, r in res.items()))


def test_criterion_04_transform_order_detection(bump_of):
    # Fitted decay exponent r = 1/s within 0.1 at the matched window
    # exponent, and stable within 0.15 when the window exponent moves
    # through the ladder {1/s, midpoint, 1}.
    freqs = np.geomspace(16.0, 1024.0, 24)
    ok, details = True, []
    for s in (1.0, 1.5, 2.0, 3.0):
        base = 0.0 if s == 1.0 else 1.0
        gammas = sorted({1.0 / s, (1.0 + 1.0 / s) / 2.0, 1.0})
        rs = [estimate_order_fbi(bump_of(s), base, g, freqs).fit.r for g in gammas]
        r0 = rs[gammas.index(1.0 / s)]
        ok &= abs(r0 - 1.0 / s) <= 0.1 and all(abs(r - r0) <= 0.15 for r in rs)
        details.append(f"s={s:g}: r={r0:.4f} want {1.0 / s:.4f} drift {max(rs) - min(rs):.4f}")
    _report(4, ok, "; ".join(details))


def test_criterion_05_inversion_convergence():
    # Narrow Gaussian, so the spectrum is wide enough that the radius
    # ladder shows genuine convergence rather than an immediate
    # rounding floor.  Sup error over seven probe points must fall
    # below 1e-3 at radius 200 and decrease along the dyadic ladder.
    u = sample(
        lambda x: np.exp(-(x**2) / (2.0 * 0.1**2)), [(-7.0, 7.0, 4096)], support_radius=7.0
    )
    idx = np.linspace(300, 3700, 7).astype(int)
    xs = u.coords(0)[idx]
    truth = u.values[idx]
    ok, details = True, []
    for gamma in (0.0, 0.5, 1.0):
        vals = inversion_profile(u, xs, gamma, [25.0, 50.0, 100.0, 200.0])
        errs = np.max(np.abs(vals - truth[None, :]), axis=1)
        ok &= errs[-1] <= 1e-3 and bool(np.all(np.diff(errs) <= 1e-12))
        details.append(f"gamma={gamma:g}: final {errs[-1]:.1e} steps " +
                       ">".join(f"{e:.0e}" for e in errs))
    _report(5, ok, "; ".join(details))


def test_criterion_06_tube_decomposition(bump_of):
    # Splitting an order-2 bump at frequency lam: the high part decays
    # like exp(-delta lam^(1/2)) (fitted exponent within 0.1 of 1/2)
    # while the low part stays bounded on the tube of height
    # lam^(-1/2) by a single constant across the ladder.
    bump = bump_of(2.0)
    sup_u = float(np.max(np.abs(bump.values)))
    lams = np.array([25.0 * 2.0 ** (j / 2.0) for j in range(7)])
    highs, tubes = [], []
    for lam in lams:
        dec = decompose(bump, lam, 0.5, tube_height=lam**-0.5)
        highs.append(dec.high_sup())
        tubes.append(dec.tube_sup())
    fit = fit_stretched_exponential(lams, np.asarray(highs))
    ratio = max(tubes) / sup_u
    ok = abs(fit.r - 0.5) <= 0.1 and ratio <= 1.5
    _report(6, ok, f"high-part exponent {fit.r:.4f} want 0.5; tube/sup ratio {ratio:.3f}")


def test_criterion_07_uniform_inequalities(probes):
    # Three uniformity sweeps over the frequency ladder 1..10^4: the
    # a-priori ratio may vary by at most x4, the weight comparison by
    # at most x2, and the scaled-family ratio must be cut-invariant
    # to 1e-6.
    params = OperatorParams(1, 2)
    mags = [10.0**k for k in range(5)]
    taus = [DualFrequency(0.0, m) for m in mags]
    num, den = apriori_norms(probes, taus, params)
    apriori = (num / den)[0].max(axis=1)
    weight = check_weight_inequality(params, mags)
    drift = 0.0
    for m in (1, 2, 3):
        ratios = []
        for lam in (1.0, 10.0, 100.0):
            member = probes[0].rescaled(lam ** (1.0 / m))
            lhs, rhs = check_scaling_inequality([member], [lam], m)
            ratios.append(lhs[0, 0] / rhs[0, 0])
        drift = max(drift, max(ratios) - min(ratios))
    a_spread = max(apriori) / min(apriori)
    w_spread = max(weight) / min(weight)
    ok = a_spread < 4.0 and w_spread < 2.0 and drift <= 1e-6
    _report(
        7,
        ok,
        f"apriori spread x{a_spread:.2f} (<4); weight spread x{w_spread:.2f} (<2); "
        f"scaling drift {drift:.1e} (<=1e-6)",
    )


def test_criterion_08_structural_invariants(solve, bump_of):
    # Five structural spot checks in one gate: profile parity,
    # normalization invariance of the exponent estimate, symmetry of
    # the frozen operator, linearity of the transform, and the
    # deformation density against a finite-difference derivative of
    # the contour map.  The companion wall-clock budget is enforced at
    # session exit in conftest.
    fails = []

    worst = 0.0
    xs = np.linspace(0.0, 0.9 * default_grid(OperatorParams(1, 2)).half_width, 500)
    for pair in solve(1, 2):
        even = np.max(np.abs(pair.f(xs) - pair.f(-xs)))
        odd = np.max(np.abs(pair.f(xs) + pair.f(-xs)))
        worst = max(worst, min(even, odd) / np.max(np.abs(pair.f(xs))))
    if worst > 1e-8:
        fails.append(f"parity {worst:.1e}")

    p23 = OperatorParams(2, 3)
    pair = solve(2, 3)[0]
    scaled = dataclasses.replace(pair, f=HermiteSeries(pair.f.scale, -2.35 * pair.f.values))
    # The rescaling rounds every coefficient, which perturbs the sampled
    # second-difference residual by up to eps/h^2 absolute, h the default
    # refined spacing; the exponent estimate cancels the scale in log
    # space and is far tighter.
    d_res = abs(residual_norm(scaled) - residual_norm(pair))
    d_est = abs(estimate_optimal_exponent(growth_table(scaled, LADDER))
                - estimate_optimal_exponent(growth_table(pair, LADDER)))
    h = default_grid(p23).refined().spacing
    if d_res > np.finfo(float).eps / h**2 or d_est > 1e-9:
        fails.append(f"normalization d_res {d_res:.1e} d_est {d_est:.1e}")

    x = np.linspace(-8.0, 8.0, 2001)
    h = x[1] - x[0]
    f = SampledFunction((x[0],), (h,), np.exp(-((x - 0.5) ** 2)))
    g = SampledFunction((x[0],), (h,), np.exp(-2.0 * (x + 0.3) ** 2))
    tau = DualFrequency(1.0, 2.0)
    af = apply_A_tau(f, tau, OperatorParams(1, 2)).values[1:-1]
    ag = apply_A_tau(g, tau, OperatorParams(1, 2)).values[1:-1]
    sym = abs(np.sum(af * g.values[1:-1]) * h - np.sum(f.values[1:-1] * ag) * h)
    if sym > 1e-10:
        fails.append(f"symmetry defect {sym:.1e}")

    bump = bump_of(2.0)
    grid = bump.coords(0)
    other = SampledFunction(bump.origin, bump.spacing, np.exp(-((grid - 0.2) ** 2) / 0.18))
    a, b = 0.7 - 0.2j, 1.3
    combo = SampledFunction(bump.origin, bump.spacing, a * bump.values + b * other.values)
    z, xi, gamma = 0.3, 24.0, 0.5
    parts = [fbi(w, z, xi, gamma, check_support=False) for w in (combo, bump, other)]
    lin = abs(parts[0] - (a * parts[1] + b * parts[2]))
    if lin > 1e-10 * max(abs(parts[1]), abs(parts[2]), 1e-30):
        fails.append(f"linearity defect {lin:.1e}")

    x1, xi1, g1 = 0.8, 37.0, 0.6
    step = 1e-5 * max(1.0, abs(xi1))

    def contour(t):
        return t + 1j * x1 * (1.0 + t * t) ** (g1 / 2.0)

    fd = (contour(xi1 + step) - contour(xi1 - step)) / (2.0 * step)
    dens = abs(fd - jacobian_alpha([x1], [xi1], g1))
    if dens > 1e-8:
        fails.append(f"density vs FD {dens:.1e}")

    _report(8, not fails, "; ".join(fails) if fails else "parity, normalization, symmetry, linearity, density all green")
