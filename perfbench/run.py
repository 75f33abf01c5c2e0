"""gevreylab benchmark: cold passes of CLI and library jobs, one at a time.

    python3 perfbench/run.py --workload construction --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program under test is
``src/gevreylab``, imported by each job child through PYTHONPATH.  A pass
runs every job of the workload back to back (a closed loop with one
client), each in a fresh child process, with empty ``--out`` directories
and a fresh HOME/cache directory.  Passes repeat until ``--seconds`` have
elapsed; every pass is whole.  With ``--trace 1`` one traced pass follows
the untraced ones and the per-layer metrics come from it.

The last line of standard output is the result object:
``{"correct", "attempted", "failed", "metrics"}``.  Progress and failures
go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import jobs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "gevreylab" / "cli.py"
WORK = ROOT / ".perfbench_work"

#: A run must end within 180 s; no pass starts once this much has elapsed
#: plus the length of the previous pass, and no job outlives it.
RUN_LIMIT_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "err_frac_max": "ratio",
}

#: Layers whose self time is reported, and those whose calls are counted.
TIMED = (
    "eigen.solve_nonlinear_eigen", "eigen.reference_eigenvalues", "eigen.verify_kernel",
    "eigen.build_counterexample", "operators.apply_L", "eigen.select_k",
    "eigen.growth_table", "eigen.estimate_optimal_exponent",
    "fbi.fbi_field", "fbi.inversion_profile", "fbi.decompose", "fbi.lowpass_profile",
    "gevrey.estimate_order_derivatives", "gevrey.fd_weights", "gevrey.estimate_order_fbi",
    "gevrey.fit_stretched_exponential", "gevrey.make_gevrey_bump",
    "operators.check_apriori", "operators.htau_norm", "operators.weight_w",
    "operators.apply_A_tau", "operators.check_scaling_inequality",
    "operators.check_weight_inequality", "operators.probe_family", "operators.scaling_constant",
    "cli.main",
)
COUNTED = (
    "eigen.solve_nonlinear_eigen", "eigen.verify_kernel", "fbi.fbi_field",
    "fbi.lowpass_profile", "gevrey.fd_weights", "operators.check_apriori",
    "operators.htau_norm", "operators.weight_w", "operators.apply_A_tau",
    "operators.check_scaling_inequality",
)
JOB_KINDS = (
    "counterexample", "demo", "eigen", "oracle", "classify",
    "inversion", "splitting", "inequalities", "transform",
)
ACCURACY = ("s0", "eig", "r", "inversion")


def layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TIMED:
        units[f"{name}.self_s"] = "s"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
    units.update({
        "eigen.solve.fine_nodes": "count",
        "eigen.solve.kept_node_frac": "ratio",
        "eigen.solve.pairs_kept_frac": "ratio",
        "eigen.oracle.dense_n": "count",
        "eigen.verify_kernel.box_points": "count",
        "fbi.fbi_field.evals": "count",
        "fbi.inversion_profile.evals": "count",
        "fbi.lowpass_profile.evals": "count",
        "gevrey.fd_weights.distinct_frac": "ratio",
        "gevrey.derivatives.reliable_frac": "ratio",
        "gevrey.fit.points_kept_frac": "ratio",
        "reports.self_s": "s",
        "reports.files": "count",
        "reports.bytes": "B",
        "cli.import_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.uncovered_s": "s",
        "trace.sizer_errors": "count",
    })
    for kind in JOB_KINDS:
        units[f"job.{kind}_s"] = "s"
    for family in ACCURACY:
        units[f"acc.{family}_err_max"] = "1"
    return units


@dataclass
class JobRun:
    job: jobs.Job
    out: Path
    wall_s: float
    setup_s: float | None
    rc: int | None
    child: dict
    figures: list = field(default_factory=list)
    error: str | None = None


@dataclass
class Pass:
    traced: bool
    wall_s: float
    runs: list[JobRun]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(home: Path) -> dict[str, str]:
    env = dict(os.environ)
    threads = str(nproc())
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "HOME": str(home),
        "XDG_CACHE_HOME": str(home / ".cache"),
        "TMPDIR": str(home / "tmp"),
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
    })
    return env


def run_job(job: jobs.Job, index: int, pass_dir: Path, env: dict, trace: bool, deadline: float) -> JobRun:
    out = pass_dir / f"{index:02d}-{job.kind}"
    out.mkdir()
    result = pass_dir / f"{index:02d}.json"
    argv = [sys.executable, str(HERE / "child.py"), "--result", str(result), "--out", str(out)]
    if trace:
        argv += ["--trace", f"{pass_dir.name}/{index:02d}"]
    argv += ["--", *job.args]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, cwd=pass_dir, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
        rc, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        rc, stderr = None, "timed out"
    wall = time.monotonic() - start
    child = json.loads(result.read_text()) if result.exists() else {}
    setup = child["t_imported"] - start if "t_imported" in child else None
    run = JobRun(job, out, wall, setup, rc, child)
    if rc != 0:
        run.error = f"exit {rc}: {stderr.strip().splitlines()[-1] if stderr.strip() else ''}"
    return run


def run_pass(job_list: list[jobs.Job], work: Path, trace: bool, deadline: float) -> Pass:
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=work))
    home = pass_dir / "home"
    (home / "tmp").mkdir(parents=True)
    env = child_env(home)
    start = time.monotonic()
    runs = [run_job(job, i, pass_dir, env, trace, deadline) for i, job in enumerate(job_list)]
    wall = time.monotonic() - start
    siblings = [(r.job, r.out) for r in runs]
    for run in runs:
        if run.error is None:
            try:
                run.figures = jobs.check_job(run.job, run.out, siblings)
            # A report that is missing or lost a field fails its check.
            except (jobs.CheckFailed, OSError, LookupError, TypeError, ValueError) as exc:
                run.error = f"check: {exc!r}"
    return Pass(trace, wall, runs)


def check_determinism(passes: list[Pass]) -> None:
    """Every job's reports must be byte-identical in every pass, traced or not."""
    first: dict[str, dict] = {}
    for p in passes:
        for run in p.runs:
            if run.error is not None:
                continue
            got = jobs.digests(run.out)
            want = first.setdefault(run.job.label, got)
            if got != want:
                changed = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
                run.error = f"reports differ from the first pass: {', '.join(changed)}"


def tally(passes: list[Pass]) -> tuple[int, int]:
    """Jobs attempted, and jobs that failed to run or failed a check."""
    runs = [run for p in passes for run in p.runs]
    return len(runs), sum(run.error is not None for run in runs)


def end_to_end(untraced: list[Pass]) -> dict[str, float]:
    figures = [f for p in untraced for r in p.runs for f in r.figures]
    setups = [r.setup_s for p in untraced for r in p.runs if r.setup_s is not None]
    return {
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "err_frac_max": max((err / tol for _, err, tol in figures), default=0.0),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: Pass, untraced: list[Pass]) -> dict[str, float]:
    calls: Counter = Counter()
    selfs: dict[str, float] = defaultdict(float)
    counters: Counter = Counter()
    distinct: Counter = Counter()
    covered = 0.0
    for run in traced.runs:
        span_list = run.child.get("spans", [])
        for span, self_s in zip(span_list, spans.self_times(span_list)):
            calls[span[0]] += 1
            selfs[span[0]] += self_s
            if span[3] < 0:
                covered += span[2] - span[1]
        counters.update(run.child.get("counters", {}))
        distinct.update(run.child.get("distinct", {}))

    m: dict[str, float] = {}
    for name in TIMED:
        m[f"{name}.self_s"] = selfs[name]
    for name in COUNTED:
        m[f"{name}.calls"] = calls[name]
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    m.update({
        "eigen.solve.fine_nodes": counters["eigen.solve.fine_nodes"],
        "eigen.solve.kept_node_frac": _ratio(counters["eigen.solve.kept_nodes"], counters["eigen.solve.fine_nodes"]),
        "eigen.solve.pairs_kept_frac": _ratio(counters["eigen.solve.pairs_returned"], counters["eigen.solve.pairs_requested"]),
        "eigen.oracle.dense_n": counters["eigen.oracle.dense_n"],
        "eigen.verify_kernel.box_points": counters["eigen.verify_kernel.box_points"],
        "fbi.fbi_field.evals": counters["fbi.fbi_field.evals"],
        "fbi.inversion_profile.evals": counters["fbi.inversion_profile.evals"],
        "fbi.lowpass_profile.evals": counters["fbi.lowpass_profile.evals"],
        "gevrey.fd_weights.distinct_frac": _ratio(distinct["gevrey.fd_weights"], calls["gevrey.fd_weights"]),
        "gevrey.derivatives.reliable_frac": _ratio(counters["gevrey.derivatives.reliable"], counters["gevrey.derivatives.orders"]),
        "gevrey.fit.points_kept_frac": _ratio(counters["gevrey.fit.points_kept"], counters["gevrey.fit.points_offered"]),
        "reports.self_s": sum(v for k, v in selfs.items() if k.startswith("reports.")),
        "reports.files": counters["reports.files"],
        "reports.bytes": counters["reports.bytes"],
        "cli.import_s": statistics.median(
            [r.child["import_s"] for p in untraced for r in p.runs if "import_s" in r.child] or [0.0]
        ),
        "trace.overhead_frac": _ratio(traced.wall_s - untraced_wall, untraced_wall),
        "trace.uncovered_s": traced.wall_s - covered,
        "trace.sizer_errors": counters["trace.sizer_errors"],
    })
    for kind in JOB_KINDS:
        m[f"job.{kind}_s"] = statistics.median(
            sum(r.wall_s for r in p.runs if r.job.kind == kind) for p in untraced
        )
    for family in ACCURACY:
        m[f"acc.{family}_err_max"] = max(
            (err for p in untraced for r in p.runs for fam, err, _ in r.figures if fam == family),
            default=0.0,
        )
    return m


def environment(args) -> dict:
    from importlib import metadata

    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as buf:
            cpu = next((ln.split(":", 1)[1].strip() for ln in buf if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": nproc(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[list[Pass], Pass | None]:
    job_list = jobs.workload_jobs(workload, seed)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    untraced: list[Pass] = []
    # The traced pass, when asked for, still has to fit in the limit.
    passes_left = 2 if trace else 1
    while True:
        untraced.append(run_pass(job_list, work, False, deadline))
        elapsed = time.monotonic() - start
        if elapsed >= seconds or elapsed + passes_left * untraced[-1].wall_s > RUN_LIMIT_S:
            break
    traced = run_pass(job_list, work, True, deadline) if trace else None
    return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SOURCE.is_file():
        print(f"error: {SOURCE.relative_to(ROOT)} not found; run from a gevreylab checkout",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        untraced, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
        passes = untraced + ([traced] if traced else [])
        check_determinism(passes)
        for p in passes:
            for run in p.runs:
                status = "FAIL " + run.error if run.error else "ok"
                print(f"{'traced' if p.traced else 'pass'} {run.wall_s:8.3f}s  {run.job.label}: {status}",
                      file=sys.stderr)
        attempted, failed = tally(passes)
        if traced:
            values, units = per_layer(traced, untraced), layer_units()
        else:
            values, units = end_to_end(untraced), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    print(json.dumps({"env": environment(args)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
