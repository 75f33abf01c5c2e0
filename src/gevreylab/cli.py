"""Command-line orchestration for the laboratory pipelines.

Two tables declare the command line.  ``_PIPELINES`` holds one row per
subcommand: its handler, its help line, the description embedded in its
JSON reports, and every key it reads.  ``_FLAGS`` holds one row per
key: the parser of its value, its help line and its default.  A
subcommand takes exactly the keys its pipeline reads, as flags; flags
are the only input.  The pipeline reads them from the parsed namespace,
which holds every key's default unless a flag overrides it.

Exit codes: 0 success, 2 inconclusive numerics (rejected fit, derivative
order out of range, non-linear growth ladder, an eigen solve for p < q
that does not settle or whose matrices leave the float range, a q too
large for the Hermite basis, an n-ladder whose lam = N^(q/p) leaves the
float range, a tau ladder whose weighted norms leave the float range),
1 other failures, 64 usage errors (among them a flag the pipeline does
not read, a non-finite value, and an n-ladder that is not strictly
increasing or has fewer than three orders).  A run that fails writes no
report.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .eigen import (
    estimate_optimal_exponent,
    growth_table,
    select_k,
    solve_nonlinear_eigen,
    verify_kernel,
)
from .fbi import GridTooCoarseError
from .gevrey import (
    FitRejectedError,
    OrderTooHighError,
    estimate_order_derivatives,
    estimate_order_fbi,
    make_gevrey_bump,
)
from .operators import (
    DualFrequency,
    InconclusiveError,
    OperatorParams,
    apriori_norms,
    check_scaling_inequality,
    check_weight_inequality,
    probe_family,
    scaling_constant,
)
from .reports import emit_report, write_json

USAGE_EXIT = 64
INCONCLUSIVE_EXIT = 2


class UsageError(ValueError):
    """Flag values no pipeline can run with."""


# The value parsers raise ArgumentTypeError, whose message argparse
# prints as is; for any other error it prints "invalid <function> value".
def _csv(kind: type, noun: str):
    """Parser of a non-empty comma-separated ladder of ``kind`` values."""

    def parse(text: str) -> tuple:
        try:
            vals = tuple(kind(t) for t in text.split(",") if t.strip())
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}, got {text!r}") from exc
        if not vals:
            raise argparse.ArgumentTypeError("ladder must not be empty")
        return vals

    return parse


_floats_csv = _csv(float, "numbers")
_ints_csv = _csv(int, "integers")


def _pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected a pair like 1,2 — got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a pair of integers, got {text!r}") from exc


class _Flag(NamedTuple):
    parse: Callable[[str], object]
    help: str
    default: object
    nargs: str | None = None  # "+": one or more words, collected in a list


#: Keyed by the attribute a pipeline reads; the flag spells "_" as "-".
_FLAGS = {
    "p": _Flag(int, "lower exponent parameter (default 1)", 1),
    "q": _Flag(int, "upper exponent parameter (default 2)", 2),
    "gamma": _Flag(float, "window exponent in [0, 1] (default 1/order)", None),
    "order": _Flag(float, "Gevrey order of the generated bump (default 2)", 2.0),
    "tau_ladder": _Flag(_floats_csv, "dual-frequency magnitudes T1,T2,..., each >= 1",
                        (1.0, 10.0, 100.0, 1000.0, 10000.0)),
    "freq_ladder": _Flag(_floats_csv, "transform frequency ladder F1,F2,...",
                         tuple(float(x) for x in np.geomspace(16.0, 1024.0, 24))),
    "n_ladder": _Flag(_ints_csv, "growth ladder orders N1<N2<..., three or more",
                      (100, 1000, 10000, 100000, 1000000)),
    "seed": _Flag(int, "probe-family seed (default 42)", 42),
    "pairs": _Flag(_pair, "pairs P,Q (default 1,2 1,3 2,3 3,4)",
                   ((1, 2), (1, 3), (2, 3), (3, 4)), "+"),
    "out": _Flag(str, "output directory (default .)", "."),
}


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The parsed flags, defaults filled in, once they hold values every
    pipeline can run with; UsageError otherwise."""
    numbers = (args.gamma, args.order, *args.tau_ladder, *args.freq_ladder)
    if not all(v is None or math.isfinite(v) for v in numbers):
        raise UsageError("every number must be finite, not inf or nan")
    if not (1 <= args.p <= args.q):
        raise UsageError("need integers 1 <= p <= q")
    if args.gamma is not None and not 0.0 <= args.gamma <= 1.0:
        raise UsageError("gamma must lie in [0, 1]")
    if args.order < 1.0:
        raise UsageError("Gevrey order must be >= 1")
    for name, ladder in (("freq-ladder", args.freq_ladder), ("n-ladder", args.n_ladder)):
        if any(v <= 0 for v in ladder):
            raise UsageError(f"{name} entries must be positive")
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise UsageError(f"{name} must be strictly increasing")
    if any(v < 1 for v in args.tau_ladder):  # the estimates need |tau| >= 1
        raise UsageError("tau-ladder entries must be >= 1")
    # Two rows pin the nuisance constants; a third tests the line.
    if len(args.n_ladder) < 3:
        raise UsageError("n-ladder needs at least three orders")
    if any(not (1 <= a <= b) for a, b in args.pairs):
        raise UsageError("each pair must satisfy 1 <= p <= q")
    if args.seed < 0:
        raise UsageError("seed must be non-negative")
    return args


def _bump_setup(config: argparse.Namespace):
    """Order, window exponent (default 1/order, at most 1), bump and probe
    point of the transform and classify pipelines."""
    order = config.order
    gamma = config.gamma if config.gamma is not None else min(1.0, 1.0 / order)
    # The support edge carries the order-s flatness signature; order-1
    # bumps are hard truncations of an analytic profile, so the center
    # is the right probe there.
    return order, gamma, make_gevrey_bump(order), 0.0 if order == 1.0 else 1.0


def _cmd_transform(config: argparse.Namespace) -> dict:
    order, gamma, u, x0 = _bump_setup(config)
    est = estimate_order_fbi(u, x0, gamma, config.freq_ladder)
    fit, field = est.fit, est.field
    print(
        f"fitted decay exponent r = {fit.r:.4f} (delta = {fit.delta:.4g}) "
        f"from {fit.n_points} ladder points"
    )
    return {
        # Python numbers, so csv writes each as repr; abs is the fitted magnitude.
        "field.csv": (["base", "xi", "re", "im", "abs"],
                      [[x0, xi, val.real, val.imag, mag] for xi, val, mag in zip(
                          field.freqs.tolist(), field.values.tolist(),
                          field.magnitudes().tolist())]),
        "transform.json": {"order": order, "gamma": gamma, "base_point": x0,
                           "fit": dataclasses.asdict(fit)},
    }


def _cmd_classify(config: argparse.Namespace) -> dict:
    order, gamma, u, x0 = _bump_setup(config)
    by_decay = estimate_order_fbi(u, x0, gamma, config.freq_ladder)
    try:
        est = estimate_order_derivatives(u, x0)
        by_derivatives = {"order": est.order, "degenerate": est.degenerate,
                          "n_points": est.n_points}
        deriv_text = f"{est.order:.3f} (derivative growth)"
    except OrderTooHighError as exc:
        # The decay estimate stands on its own; losing the cross-check
        # to stencil noise is worth reporting, not failing over.
        by_derivatives = {"error": str(exc)}
        deriv_text = "unavailable (derivative growth: noise floor)"
    print(
        f"order estimates: {by_decay.order:.3f} (transform decay), "
        f"{deriv_text}; target {order:g}"
    )
    return {
        "classify.json": {
            "target_order": order,
            "gamma": gamma,
            "base_point": x0,
            "s": by_decay.order,
            "transform_estimate": {
                "order": by_decay.order,
                "fit": dataclasses.asdict(by_decay.fit),
            },
            "derivative_estimate": by_derivatives,
        },
    }


def _profiles(config: argparse.Namespace, command: str):
    """Eigenpairs for (p, q), and the report of an empty (p = q) search."""
    params = OperatorParams(config.p, config.q)
    found = solve_nonlinear_eigen(params)
    if not found:
        print(f"no admissible eigenpairs for p={params.p}, q={params.q}")
    return params, found, {f"{command}.json": {
        "p": params.p,
        "q": params.q,
        "count": 0,
        "note": "no stable decaying profiles at these parameters",
    }}


def _cmd_eigen(config: argparse.Namespace) -> dict:
    params, found, empty = _profiles(config, "eigen")
    if not found:
        return empty
    pair = found[0]
    # The ground profile's series on the nodes at half its window's spacing.
    x = pair.grid.refined().nodes()
    print(f"z = {pair.z:.9f}, residual {pair.residual:.2e}, "
          f"{len(found)} pair(s) kept")
    return {
        "eigenpair.csv": (["x", "re", "im"],
                          [[xi, fi, 0.0] for xi, fi in zip(x.tolist(), pair.f(x).tolist())]),
        "eigen.json": {
            "p": params.p,
            "q": params.q,
            "z": pair.z,
            "residual": pair.residual,
            "basis_size": len(pair.f.values),
            "basis_change": pair.basis_change,
            "count": len(found),
            "all_z": [p.z for p in found],
            "all_residual": [p.residual for p in found],
            "all_basis_change": [p.basis_change for p in found],
            "grid": {"half_width": pair.grid.half_width, "spacing": pair.grid.spacing,
                     "fine_nodes": len(x)},
        },
    }


def _cmd_counterexample(config: argparse.Namespace) -> dict:
    params, found, empty = _profiles(config, "counterexample")
    if not found:
        return empty
    pair = found[0]
    residuals = {f"{lam:g}": verify_kernel(pair, lam) for lam in (10.0, 100.0)}
    rows = growth_table(pair, config.n_ladder)
    s0 = estimate_optimal_exponent(rows, expected=params.optimal_order)
    print(f"s0 = {s0:.4f} against q/p = {params.optimal_order:.4f} "
          f"(|delta| = {abs(s0 - params.optimal_order):.2e})")
    return {
        "growth.csv": (["N", "lambda", "log_lhs", "log_sup", "s_star"],
                       [[r.N, r.lam, r.log_lhs, r.log_sup, r.s_star] for r in rows]),
        "counterexample.json": {
            "p": params.p,
            "q": params.q,
            "z": pair.z,
            "probe_order": select_k(pair),
            "kernel_residuals": residuals,
            "s0_estimate": s0,
            "expected": params.optimal_order,
            "abs_delta": abs(s0 - params.optimal_order),
        },
    }


def _worst_probes(num_rows, den_rows):
    """Per row, (num, den) of the first probe that attains the max num / den."""
    for nums, dens in zip(num_rows, den_rows):
        best = int(np.argmax(nums / dens))
        yield float(nums[best]), float(dens[best])


def _cmd_inequalities(config: argparse.Namespace) -> dict:
    params = OperatorParams(config.p, config.q)
    probes = probe_family(seed=config.seed)

    taus = [DualFrequency(0.0, float(mag)) for mag in config.tau_ladder]
    rhos = (0.0, 0.05, -0.05)
    apriori_rows = [
        [rho, tau.tau1, tau.tau2, num / den, num, den]
        for rho, *sides in zip(rhos, *apriori_norms(probes, taus, params, rhos))
        for tau, (num, den) in zip(taus, _worst_probes(*sides))
    ]

    sups = check_weight_inequality(params, config.tau_ladder).tolist()
    weight_rows = [[mag, sup] for mag, sup in zip(config.tau_ladder, sups)]

    orders = sorted({params.p, params.q})
    scaling_rows = [
        [m, lam, lhs, rhs, lhs / rhs]
        for m in orders
        for lam, (lhs, rhs) in zip(config.tau_ladder, _worst_probes(
            *check_scaling_inequality(probes, config.tau_ladder, m)))
    ]

    flat = [row[3] for row in apriori_rows if row[0] == 0.0]
    summary = {
        "p": params.p,
        "q": params.q,
        "apriori_spread": max(flat) / min(flat),
        "weight_sup": max(sups),
        "weight_spread": max(sups) / min(sups),
        "scaling_constants": {str(m): scaling_constant(m) for m in orders},
        "scaling_max_ratio": max(row[4] for row in scaling_rows),
    }
    print(
        f"apriori spread x{summary['apriori_spread']:.2f}, "
        f"weight sup {summary['weight_sup']:.4f} "
        f"(spread x{summary['weight_spread']:.2f}), "
        f"scaling max lhs/rhs {summary['scaling_max_ratio']:.4f}"
    )
    return {
        "apriori.csv": (["rho", "tau1", "tau2", "max_ratio", "h2_norm", "image_norm"],
                        apriori_rows),
        "weight.csv": (["tau", "sup_ratio"], weight_rows),
        "scaling.csv": (["m", "lam", "lhs", "rhs", "ratio"], scaling_rows),
        "inequalities.json": summary,
    }


def _cmd_demo(config: argparse.Namespace) -> dict:
    rows = []
    lines = [f"{'p':>3} {'q':>3} {'q/p':>8} {'s0':>10} {'|delta|':>10}"]
    for p, q in config.pairs:
        params = OperatorParams(p, q)
        target = params.optimal_order
        found = solve_nonlinear_eigen(params)
        if not found:
            rows.append([p, q, target, math.nan, math.nan])
            lines.append(f"{p:>3} {q:>3} {target:>8.4f} {'n/a':>10} {'n/a':>10}")
            continue
        s0 = estimate_optimal_exponent(growth_table(found[0], config.n_ladder))
        rows.append([p, q, target, s0, abs(s0 - target)])
        lines.append(
            f"{p:>3} {q:>3} {target:>8.4f} {s0:>10.4f} {abs(s0 - target):>10.2e}"
        )
    print("\n".join(lines))
    return {"demo.csv": (["p", "q", "q_over_p", "s0_estimate", "abs_delta"], rows)}


class _Pipeline(NamedTuple):
    # Computes everything and prints its summary; returns its reports as
    # {file name: (schema, rows) of a CSV, or the dict of a JSON}.
    run: Callable[[argparse.Namespace], dict]
    help: str
    # Embedded in every JSON report so a report file is self-describing
    # about what produced it.
    description: str
    flags: tuple[str, ...]  # every key it reads


_PIPELINES = {
    "transform": _Pipeline(
        _cmd_transform,
        "transform magnitude ladder and stretched fit",
        "windowed transform T_gamma u(x0, xi) over a frequency ladder; "
        "magnitudes fitted to C exp(-delta xi^r)",
        ("order", "gamma", "freq_ladder", "out"),
    ),
    "classify": _Pipeline(
        _cmd_classify,
        "Gevrey order of a generated bump",
        "Gevrey order two ways: 1/r from the transform-decay fit "
        "C exp(-delta xi^r), and the slope of log sup|f^(k)| against "
        "k log k near the probe point",
        ("order", "gamma", "freq_ladder", "out"),
    ),
    "eigen": _Pipeline(
        _cmd_eigen,
        "profile-equation eigenpairs for one (p, q)",
        "pencil (-f'' + x^(2(q-1)) f) = z x^(2(p-1)) f by Hermite-function "
        "Galerkin, the basis grown until z and the residuals settle; "
        "the ground profile's series sampled on the default staggered grid",
        ("p", "q", "out"),
    ),
    "counterexample": _Pipeline(
        _cmd_counterexample,
        "kernel family checks and growth exponent",
        "kernel family exp(i lam t2) exp(lam^(p/q) w t1) f(lam^(1/q) x); "
        "residual checked by separable reduction and by 3d differences, "
        "growth exponent s*(N) fitted on log N / log(N+1) and 1 / log(N+1), "
        "whose leading coefficient s0 checks the construction's algebra",
        ("p", "q", "n_ladder", "out"),
    ),
    "inequalities": _Pipeline(
        _cmd_inequalities,
        "weighted-norm inequality sweeps",
        "ratio ||f||_(2,tau)^2 / ||A_tau f||_(0,tau)^2 over a probe "
        "family; pointwise bound |tau|^(p/q)(|x|^(p-1)+|x|^(q-1)) <= "
        "C w(x, tau); scaling bound lam^(2/m)||f||^2 <= "
        "C (||f'||^2 + lam^2 int x^(2(m-1)) |f|^2)",
        ("p", "q", "tau_ladder", "seed", "out"),
    ),
    "demo": _Pipeline(
        _cmd_demo,
        "exponent table across (p, q) pairs",
        "per (p, q): Hermite-Galerkin pencil solve for the ground profile and "
        "ladder extrapolation of the growth exponent s*(N) toward the q/p threshold",
        ("pairs", "n_ladder", "out"),
    ),
}


class _Parser(argparse.ArgumentParser):
    def report(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")

    # BSD-style usage exit so scripted callers can tell bad invocations
    # from genuine pipeline failures.
    def error(self, message):
        self.report(message)
        raise SystemExit(USAGE_EXIT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gevreylab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser, required=True)
    for command, pipeline in _PIPELINES.items():
        # No abbreviations: demo would otherwise take --p for --pairs.
        cmd = sub.add_parser(command, help=pipeline.help, allow_abbrev=False,
                             description=pipeline.description)
        # main reports a usage error found after parsing with this usage line.
        cmd.set_defaults(subparser=cmd, **{key: flag.default for key, flag in _FLAGS.items()})
        for key in pipeline.flags:
            flag = _FLAGS[key]
            cmd.add_argument("--" + key.replace("_", "-"), dest=key, type=flag.parse,
                             help=flag.help, nargs=flag.nargs)
    return parser


def dispatch(config: argparse.Namespace) -> int:
    """Run the configured pipeline, then write its reports under config.out.

    Nothing is written, and no directory made, unless the pipeline's
    numerics have all succeeded.
    """
    pipeline = _PIPELINES[config.command]
    reports = pipeline.run(config)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, report in reports.items():
        if isinstance(report, dict):
            write_json({**report, "pipeline": pipeline.description}, out / name)
        else:
            schema, rows = report
            emit_report(rows, schema, out / name)
    print("wrote " + ", ".join(str(out / name) for name in reports))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    # argparse hands a subcommand's unread words back to the top parser;
    # report them with the subcommand's own usage line instead.
    args, unread = parser.parse_known_args(argv)
    if unread:
        args.subparser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return dispatch(config_from_args(args))
    except (UsageError, GridTooCoarseError) as exc:
        # GridTooCoarseError: the frequency ladder is out of range for the grid.
        args.subparser.report(str(exc))
        return USAGE_EXIT
    except (InconclusiveError, FitRejectedError, OrderTooHighError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return INCONCLUSIVE_EXIT
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
