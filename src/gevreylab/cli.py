"""Command-line orchestration for the laboratory pipelines.

Two tables declare the command line.  ``_PIPELINES`` holds one row per
subcommand: its handler, its help line, the description embedded in its
JSON reports, and every key it reads.  ``_FLAGS`` holds one row per
key: the parser of its value and its help line.  A subcommand takes
exactly the keys its pipeline reads as flags, plus ``--config``: a plain
key=value file of the same keys, which explicit flags override.

Exit codes: 0 success, 2 inconclusive numerics (rejected fit, derivative
order out of range, non-linear growth ladder, no eigenpair for p < q, a
tau ladder whose weighted norms leave the float range),
1 other failures, 64 usage errors (among them a flag or config key the
pipeline does not read, a non-finite value, an n-ladder that is not
strictly increasing or has fewer than three orders, and a grid override
too coarse to solve on).
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
    GridSpec,
    default_grid,
    estimate_optimal_exponent,
    growth_table,
    select_k,
    solve_nonlinear_eigen,
    verify_kernel,
)
from .fbi import GridTooCoarseError, fbi_field
from .gevrey import (
    FitRejectedError,
    OrderTooHighError,
    estimate_order_derivatives,
    estimate_order_fbi,
    fit_stretched_exponential,
    make_gevrey_bump,
    prune_decay_floor,
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
from .reports import (
    eigenpair_summary,
    eigenpair_to_csv,
    emit_report,
    field_to_csv,
    grid_summary,
    growth_to_csv,
    write_json,
)

USAGE_EXIT = 64
INCONCLUSIVE_EXIT = 2

_DEFAULT_FREQS = tuple(float(x) for x in np.geomspace(16.0, 1024.0, 24))
_DEFAULT_TAUS = (1.0, 10.0, 100.0, 1000.0, 10000.0)
_DEFAULT_NS = (100, 1000, 10000, 100000, 1000000)
_DEFAULT_PAIRS = ((1, 2), (1, 3), (2, 3), (3, 4))


class UsageError(ValueError):
    """Malformed config-file entry, or flag values no pipeline can run with."""


# The value parsers raise ArgumentTypeError, whose message argparse
# prints as is; for any other error it prints "invalid <function> value".
def _floats_csv(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from exc
    if not vals:
        raise argparse.ArgumentTypeError("ladder must not be empty")
    return vals

def _ints_csv(text: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from exc
    if not vals:
        raise argparse.ArgumentTypeError("ladder must not be empty")
    return vals


def _pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected a pair like 1,2 — got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a pair of integers, got {text!r}") from exc


def _pairs_value(text: str) -> tuple[tuple[int, int], ...]:
    tokens = text.replace(";", " ").split()
    if not tokens:
        raise argparse.ArgumentTypeError("pairs must not be empty")
    return tuple(_pair(tok) for tok in tokens)


class _Flag(NamedTuple):
    parse: Callable[[str], object]
    help: str
    # "+": one or more words after the flag, each parsed to a tuple and
    # the tuples joined; a config file gives the words on one line.
    nargs: str | None = None


#: Keyed by RunConfig field; the flag spells "_" as "-", config files
#: accept either spelling.
_FLAGS = {
    "p": _Flag(int, "lower exponent parameter (default 1)"),
    "q": _Flag(int, "upper exponent parameter (default 2)"),
    "gamma": _Flag(float, "window exponent in [0, 1] (default 1/order)"),
    "order": _Flag(float, "Gevrey order of the generated bump (default 2)"),
    "tau_ladder": _Flag(_floats_csv, "dual-frequency magnitudes T1,T2,..., each >= 1"),
    "freq_ladder": _Flag(_floats_csv, "transform frequency ladder F1,F2,..."),
    "n_ladder": _Flag(_ints_csv, "growth ladder orders N1<N2<..., three or more"),
    "grid_x": _Flag(float, "override the profile grid half-width"),
    "grid_h": _Flag(float, "override the profile grid spacing"),
    "seed": _Flag(int, "probe-family seed (default 42)"),
    "pairs": _Flag(_pairs_value, "pairs P,Q (default 1,2 1,3 2,3 3,4)", "+"),
    "out": _Flag(str, "output directory (default .)"),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters for one CLI invocation."""

    command: str
    p: int = 1
    q: int = 2
    gamma: float | None = None
    order: float = 2.0
    tau_ladder: tuple[float, ...] = _DEFAULT_TAUS
    freq_ladder: tuple[float, ...] = _DEFAULT_FREQS
    n_ladder: tuple[int, ...] = _DEFAULT_NS
    grid_x: float | None = None
    grid_h: float | None = None
    out: str = "."
    seed: int = 42
    pairs: tuple[tuple[int, int], ...] = _DEFAULT_PAIRS

    def __post_init__(self):
        if self.command not in _PIPELINES:
            raise UsageError(f"unknown command {self.command!r}")
        numbers = (self.gamma, self.order, *self.tau_ladder, *self.freq_ladder,
                   self.grid_x, self.grid_h)
        if not all(v is None or math.isfinite(v) for v in numbers):
            raise UsageError("every number must be finite, not inf or nan")
        if not (1 <= self.p <= self.q):
            raise UsageError("need integers 1 <= p <= q")
        if self.gamma is not None and not 0.0 <= self.gamma <= 1.0:
            raise UsageError("gamma must lie in [0, 1]")
        if self.order < 1.0:
            raise UsageError("Gevrey order must be >= 1")
        for name, ladder in (
            ("freq-ladder", self.freq_ladder),
            ("n-ladder", self.n_ladder),
        ):
            if any(v <= 0 for v in ladder):
                raise UsageError(f"{name} entries must be positive")
            if any(b <= a for a, b in zip(ladder, ladder[1:])):
                raise UsageError(f"{name} must be strictly increasing")
        if any(v < 1 for v in self.tau_ladder):  # the estimates need |tau| >= 1
            raise UsageError("tau-ladder entries must be >= 1")
        # Two rows pin the nuisance constants; a third tests the line.
        if len(self.n_ladder) < 3:
            raise UsageError("n-ladder needs at least three orders")
        if self.grid_x is not None and self.grid_x <= 0:
            raise UsageError("grid half-width must be positive")
        if self.grid_h is not None and self.grid_h <= 0:
            raise UsageError("grid spacing must be positive")
        if any(not (1 <= a <= b) for a, b in self.pairs):
            raise UsageError("each pair must satisfy 1 <= p <= q")
        if self.seed < 0:
            raise UsageError("seed must be non-negative")


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _converted(key: str, text: str):
    try:
        return _FLAGS[key].parse(text)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"bad value for {key}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad value for {key}: {text!r}") from exc


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, config-file entries, then explicit flags."""
    reads = _PIPELINES[args.command].flags
    merged: dict = {"command": args.command}
    if args.config:
        for key, text in _read_config_file(args.config).items():
            if key not in reads:
                raise UsageError(f"{args.command} does not read config key "
                                 f"{key!r}; it reads {', '.join(reads)}")
            merged[key] = _converted(key, text)
    for key in reads:
        value = getattr(args, key)
        if value is not None:
            merged[key] = sum(value, ()) if _FLAGS[key].nargs else value
    return RunConfig(**merged)


def _default_gamma(order: float) -> float:
    return min(1.0, 1.0 / order)


def _probe_point(order: float) -> float:
    # The support edge carries the order-s flatness signature; order-1
    # bumps are hard truncations of an analytic profile, so the center
    # is the right probe there.
    return 0.0 if order == 1.0 else 1.0


def _grid(config: RunConfig, params: OperatorParams) -> GridSpec:
    """The default grid, with the --grid-x and --grid-h overrides applied."""
    base = default_grid(params)
    half = config.grid_x if config.grid_x is not None else base.half_width
    spacing = config.grid_h if config.grid_h is not None else base.spacing
    try:
        return GridSpec(half, spacing)
    except ValueError as exc:
        raise UsageError(f"grid half-width {half:g}, spacing {spacing:g}: {exc}") from exc


def _cmd_transform(config: RunConfig, out: Path) -> int:
    order = config.order
    gamma = config.gamma if config.gamma is not None else _default_gamma(order)
    u = make_gevrey_bump(order)
    x0 = _probe_point(order)
    freqs = np.asarray(config.freq_ladder, dtype=float)
    field = fbi_field(u, x0, freqs, gamma)
    field_to_csv(field, out / "field.csv")
    kept_f, kept_m = prune_decay_floor(freqs, field.magnitudes())
    fit = fit_stretched_exponential(kept_f, kept_m)
    write_json(
        {
            "pipeline": _PIPELINES["transform"].description,
            "order": order,
            "gamma": gamma,
            "base_point": x0,
            "fit": dataclasses.asdict(fit),
        },
        out / "transform.json",
    )
    print(
        f"fitted decay exponent r = {fit.r:.4f} (delta = {fit.delta:.4g}) "
        f"from {fit.n_points} ladder points"
    )
    print(f"wrote {out / 'field.csv'}, {out / 'transform.json'}")
    return 0


def _cmd_classify(config: RunConfig, out: Path) -> int:
    order = config.order
    gamma = config.gamma if config.gamma is not None else _default_gamma(order)
    u = make_gevrey_bump(order)
    x0 = _probe_point(order)
    by_decay = estimate_order_fbi(u, x0, gamma, config.freq_ladder)
    try:
        est = estimate_order_derivatives(u, x0)
        by_derivatives = {
            "order": est.order,
            "degenerate": est.degenerate,
            "n_points": est.n_points,
        }
        deriv_text = f"{est.order:.3f} (derivative growth)"
    except OrderTooHighError as exc:
        # The decay estimate stands on its own; losing the cross-check
        # to stencil noise is worth reporting, not failing over.
        by_derivatives = {"error": str(exc)}
        deriv_text = "unavailable (derivative growth: noise floor)"
    write_json(
        {
            "pipeline": _PIPELINES["classify"].description,
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
        out / "classify.json",
    )
    print(
        f"order estimates: {by_decay.order:.3f} (transform decay), "
        f"{deriv_text}; target {order:g}"
    )
    print(f"wrote {out / 'classify.json'}")
    return 0


def _profiles(config: RunConfig, out: Path, command: str):
    """Eigenpairs for (p, q) and the grid they were solved on, after
    reporting an empty p = q search."""
    params = OperatorParams(config.p, config.q)
    grid = _grid(config, params)
    found = solve_nonlinear_eigen(params, grid)
    if not found:
        write_json(
            {
                "pipeline": _PIPELINES[command].description,
                "p": params.p,
                "q": params.q,
                "count": 0,
                "note": "no stable decaying profiles at these parameters",
            },
            out / f"{command}.json",
        )
        print(f"no admissible eigenpairs for p={params.p}, q={params.q}")
    return params, grid, found


def _cmd_eigen(config: RunConfig, out: Path) -> int:
    params, grid, found = _profiles(config, out, "eigen")
    if not found:
        return 0
    pair = found[0]
    eigenpair_to_csv(pair, out / "eigenpair.csv")
    summary = eigenpair_summary(pair, params)
    summary["pipeline"] = _PIPELINES["eigen"].description
    summary["count"] = len(found)
    summary["all_z"] = [p.z for p in found]
    summary["grid"] = grid_summary(grid)
    write_json(summary, out / "eigen.json")
    print(f"z = {pair.z:.9f}, residual {pair.residual:.2e}, "
          f"{len(found)} pair(s) kept")
    print(f"wrote {out / 'eigenpair.csv'}, {out / 'eigen.json'}")
    return 0


def _cmd_counterexample(config: RunConfig, out: Path) -> int:
    params, grid, found = _profiles(config, out, "counterexample")
    if not found:
        return 0
    pair = found[0]
    residuals = {f"{lam:g}": verify_kernel(pair, lam, params)
                 for lam in (10.0, 100.0)}
    k = select_k(pair)
    rows = growth_table(pair, params, k, config.n_ladder)
    growth_to_csv(rows, out / "growth.csv")
    s0 = estimate_optimal_exponent(
        pair, params, config.n_ladder, expected=params.optimal_order
    )
    write_json(
        {
            "pipeline": _PIPELINES["counterexample"].description,
            "p": params.p,
            "q": params.q,
            "z": pair.z,
            "probe_order": k,
            "grid": grid_summary(grid),
            "kernel_residuals": residuals,
            "s0_estimate": s0,
            "expected": params.optimal_order,
            "abs_delta": abs(s0 - params.optimal_order),
        },
        out / "counterexample.json",
    )
    print(f"s0 = {s0:.4f} against q/p = {params.optimal_order:.4f} "
          f"(|delta| = {abs(s0 - params.optimal_order):.2e})")
    print(f"wrote {out / 'growth.csv'}, {out / 'counterexample.json'}")
    return 0


def _cmd_inequalities(config: RunConfig, out: Path) -> int:
    params = OperatorParams(config.p, config.q)
    probes = probe_family(seed=config.seed)

    apriori_rows = []
    taus = [DualFrequency(0.0, float(mag)) for mag in config.tau_ladder]
    for rho in (0.0, 0.05, -0.05):
        for tau, nums, dens in zip(taus, *apriori_norms(probes, taus, params, rho)):
            best = int(np.argmax(nums / dens))  # the first probe that attains the max
            num, den = float(nums[best]), float(dens[best])
            apriori_rows.append([rho, tau.tau1, tau.tau2, num / den, num, den])
    emit_report(
        apriori_rows,
        ["rho", "tau1", "tau2", "max_ratio", "h2_norm", "image_norm"],
        out / "apriori.csv",
    )

    weight_rows = [
        [mag, check_weight_inequality(params, [mag])] for mag in config.tau_ladder
    ]
    emit_report(weight_rows, ["tau", "sup_ratio"], out / "weight.csv")

    scaling_rows = []
    for m in sorted({params.p, params.q}):
        sides = check_scaling_inequality(probes, config.tau_ladder, m)
        for lam, lhs_row, rhs_row in zip(config.tau_ladder, *sides):
            worst = (0.0, 0.0, 0.0)
            for lhs, rhs in zip(lhs_row.tolist(), rhs_row.tolist()):
                if rhs > 0 and lhs / rhs > worst[0]:
                    worst = (lhs / rhs, lhs, rhs)
            scaling_rows.append([m, lam, worst[1], worst[2], worst[0]])
    emit_report(scaling_rows, ["m", "lam", "lhs", "rhs", "ratio"],
                out / "scaling.csv")

    flat = [row[3] for row in apriori_rows if row[0] == 0.0]
    weight_sups = [row[1] for row in weight_rows]
    write_json(
        {
            "pipeline": _PIPELINES["inequalities"].description,
            "p": params.p,
            "q": params.q,
            "apriori_spread": max(flat) / min(flat),
            "weight_sup": max(weight_sups),
            "weight_spread": max(weight_sups) / min(weight_sups),
            "scaling_constants": {
                str(m): scaling_constant(m) for m in sorted({params.p, params.q})
            },
            "scaling_max_ratio": max(row[4] for row in scaling_rows),
        },
        out / "inequalities.json",
    )
    print(
        f"apriori spread x{max(flat) / min(flat):.2f}, "
        f"weight sup {max(weight_sups):.4f} "
        f"(spread x{max(weight_sups) / min(weight_sups):.2f}), "
        f"scaling max lhs/rhs {max(r[4] for r in scaling_rows):.4f}"
    )
    print(f"wrote {out / 'apriori.csv'}, {out / 'weight.csv'}, "
          f"{out / 'scaling.csv'}, {out / 'inequalities.json'}")
    return 0


def _cmd_demo(config: RunConfig, out: Path) -> int:
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
        s0 = estimate_optimal_exponent(found[0], params, config.n_ladder)
        rows.append([p, q, target, s0, abs(s0 - target)])
        lines.append(
            f"{p:>3} {q:>3} {target:>8.4f} {s0:>10.4f} {abs(s0 - target):>10.2e}"
        )
    emit_report(rows, ["p", "q", "q_over_p", "s0_estimate", "abs_delta"],
                out / "demo.csv")
    print("\n".join(lines))
    print(f"wrote {out / 'demo.csv'}")
    return 0


class _Pipeline(NamedTuple):
    run: Callable[[RunConfig, Path], int]
    help: str
    # Embedded in every JSON report so a report file is self-describing
    # about what produced it.
    description: str
    flags: tuple[str, ...]  # every key it reads, flags and config file alike


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
        "staggered-grid pencil (-f'' + x^(2(q-1)) f) = z x^(2(p-1)) f, "
        "shift-invert iteration cross-checked on two spacings",
        ("p", "q", "grid_x", "grid_h", "out"),
    ),
    "counterexample": _Pipeline(
        _cmd_counterexample,
        "kernel family checks and growth exponent",
        "kernel family exp(i lam t2) exp(lam^(p/q) w t1) f(lam^(1/q) x); "
        "residual checked by separable reduction and by 3d differences, "
        "growth exponent s*(N) extrapolated against 1/log N",
        ("p", "q", "grid_x", "grid_h", "n_ladder", "out"),
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
        "per (p, q): pencil solve, kernel family, ladder extrapolation "
        "of the growth exponent s*(N) toward the q/p threshold",
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
        cmd.set_defaults(subparser=cmd)
        cmd.add_argument("--config", metavar="FILE",
                         help="key=value file; explicit flags override it")
        for key in pipeline.flags:
            flag = _FLAGS[key]
            cmd.add_argument("--" + key.replace("_", "-"), dest=key, type=flag.parse,
                             help=flag.help, nargs=flag.nargs)
    return parser


def dispatch(config: RunConfig) -> int:
    """Run the configured pipeline, writing reports under config.out.

    A directory this call creates is removed again if the pipeline fails
    before writing into it.
    """
    out = Path(config.out)
    created = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _PIPELINES[config.command].run(config, out)
    except BaseException:
        for d in created:
            if not any(d.iterdir()):
                d.rmdir()
        raise


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
