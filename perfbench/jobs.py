"""Workloads, the library jobs, and the per-job correctness checks.

A job is one fresh child process: either a CLI pipeline (its argv without
``--out``) or a library job that calls the package the way the acceptance
gate does.  The workload seed only shuffles the job order, the ``--pairs``
order of ``demo`` and the ``inequalities --seed`` probe seed, so every seed
does the same amount of work.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Acceptance tolerances (tests/test_acceptance.py); never loosened here.
S0_TOL = 0.02
KERNEL_TOL = 1e-4
EIG_TOL = 1e-6
R_TOL = 0.1
INVERSION_TOL = 1e-3
TUBE_RATIO_MAX = 1.5
APRIORI_SPREAD_MAX = 4.0
WEIGHT_SPREAD_MAX = 2.0

#: Criterion-5 radius ladder and criterion-6 frequency cuts.
INVERSION_RADII = (25.0, 50.0, 100.0, 200.0)
SPLIT_CUTS = tuple(25.0 * 2.0 ** (j / 2.0) for j in range(7))

#: Probe-family seeds 0..99 all keep the (1,2) a-priori spread below the
#: criterion-7 limit (worst 3.47), so any workload seed maps into them.
PROBE_SEEDS = 100

LIBRARY_KINDS = ("oracle", "inversion", "splitting")


@dataclass(frozen=True)
class Job:
    kind: str
    args: tuple[str, ...]

    @property
    def label(self) -> str:
        return " ".join(self.args)


class CheckFailed(Exception):
    """A job ran but its output misses an acceptance tolerance."""


def _cli(*args) -> Job:
    return Job(args[0], tuple(str(a) for a in args))


def workload_jobs(name: str, seed: int) -> list[Job]:
    """The jobs of one pass of workload ``name``, in the seed's order."""
    rng = random.Random(seed)
    if name == "construction":
        pairs = ["1,3", "2,3", "3,4"]
        rng.shuffle(pairs)
        jobs = [
            _cli("counterexample", "--p", 1, "--q", 2),
            _cli("demo", "--pairs", *pairs),
            _cli("eigen", "--p", 2, "--q", 3),
            Job("oracle", ("oracle", "2,3")),
        ]
    elif name == "detection":
        jobs = [
            _cli("classify", "--order", 2),
            Job("inversion", ("inversion", "0.5")),
            Job("splitting", ("splitting",)),
        ]
    elif name == "sweeps":
        probe_seed = rng.randrange(PROBE_SEEDS)
        jobs = [
            _cli("inequalities", "--p", p, "--q", q, "--seed", probe_seed)
            for p, q in ((1, 2), (1, 3), (2, 3), (3, 4))
        ]
        jobs += [_cli("transform", "--order", order) for order in ("1", "1.5", "2", "3")]
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(jobs)
    return jobs


WORKLOADS = ("construction", "detection", "sweeps")


# --- library jobs (run inside the child, after any tracing is installed) ---


def run_library_job(args: tuple[str, ...], out: Path) -> None:
    """Run a library job and write its deterministic report into ``out``."""
    # Attribute lookups go through the package at call time, so a traced
    # child sees the wrapped functions.
    import gevreylab as gl
    import numpy as np

    kind = args[0]
    if kind == "oracle":
        result = {}
        for text in args[1:]:
            p, q = (int(v) for v in text.split(","))
            result[text] = [float(z) for z in gl.reference_eigenvalues(gl.OperatorParams(p, q))]
    elif kind == "inversion":
        # Criterion 5: a narrow Gaussian, seven probe points.
        u = gl.sample(
            lambda x: np.exp(-(x**2) / (2.0 * 0.1**2)), [(-7.0, 7.0, 4096)], support_radius=7.0
        )
        idx = np.linspace(300, 3700, 7).astype(int)
        xs, truth = u.coords(0)[idx], u.values[idx]
        result = {}
        for text in args[1:]:
            vals = gl.inversion_profile(u, xs, float(text), list(INVERSION_RADII))
            errs = np.max(np.abs(vals - truth[None, :]), axis=1)
            result[text] = {"radii": list(INVERSION_RADII), "sup_error": [float(e) for e in errs]}
    elif kind == "splitting":
        # Criterion 6: order-2 bump, seven cuts, tube of height lam^(-1/2).
        bump = gl.make_gevrey_bump(2.0)
        highs, tubes = [], []
        for lam in SPLIT_CUTS:
            dec = gl.decompose(bump, lam, 0.5, tube_height=lam**-0.5)
            highs.append(dec.high_sup())
            tubes.append(dec.tube_sup())
        fit = gl.fit_stretched_exponential(np.array(SPLIT_CUTS), np.array(highs))
        result = {
            "cuts": list(SPLIT_CUTS),
            "high_sup": highs,
            "tube_sup": tubes,
            "r": float(fit.r),
            "tube_ratio": max(tubes) / float(np.max(np.abs(bump.values))),
        }
    else:
        raise ValueError(f"unknown library job {kind!r}")
    with open(out / f"{kind}.json", "w") as buf:
        json.dump(result, buf, indent=2, sort_keys=True)
        buf.write("\n")


# --- checks ---------------------------------------------------------------

#: Families whose acceptance bound is strict (value < limit).
_STRICT = {"apriori", "weight"}


def _load(out: Path, name: str):
    with open(out / name) as buf:
        return json.load(buf)


def _flag(job: Job, name: str) -> str:
    return job.args[job.args.index(name) + 1]


def check_job(job: Job, out: Path, siblings: list[tuple[Job, Path]]) -> list[tuple[str, float, float]]:
    """Accuracy figures (family, error, tolerance) of one job's reports.

    Raises CheckFailed when a figure misses its tolerance, and OSError,
    LookupError or ValueError when a report is missing or malformed.  ``siblings`` are the other jobs of the same pass; the oracle
    job compares against the eigen job of its pair.
    """
    figures: list[tuple[str, float, float]] = []
    kind = job.kind
    if kind == "demo":
        with open(out / "demo.csv") as buf:
            for row in csv.DictReader(buf):
                figures.append(("s0", float(row["abs_delta"]), S0_TOL))
    elif kind == "counterexample":
        rep = _load(out, "counterexample.json")
        figures.append(("s0", rep["abs_delta"], S0_TOL))
        figures += [("kernel", r, KERNEL_TOL) for r in rep["kernel_residuals"].values()]
        if (rep["p"], rep["q"]) == (1, 2):
            figures.append(("eig", abs(rep["z"] - 1.0), EIG_TOL))  # closed form
    elif kind == "eigen":
        rep = _load(out, "eigen.json")
        if rep.get("count", 0) < 1:
            raise CheckFailed("no eigenpairs")
        if (rep["p"], rep["q"]) == (1, 2):
            figures.append(("eig", abs(rep["z"] - 1.0), EIG_TOL))
    elif kind == "oracle":
        rep = _load(out, "oracle.json")
        for text, zs in rep.items():
            p, q = (int(v) for v in text.split(","))
            matches = [
                s_out for s_job, s_out in siblings
                if s_job.kind == "eigen" and (int(_flag(s_job, "--p")), int(_flag(s_job, "--q"))) == (p, q)
            ]
            if not matches:
                raise CheckFailed(f"no eigen job for pair {text}")
            for s_out in matches:
                z = _load(s_out, "eigen.json")["z"]
                figures.append(("eig", abs(z - zs[0]) / abs(zs[0]), EIG_TOL))
    elif kind == "classify":
        rep = _load(out, "classify.json")
        r = rep["transform_estimate"]["fit"]["r"]
        figures.append(("r", abs(r - 1.0 / rep["target_order"]), R_TOL))
    elif kind == "transform":
        rep = _load(out, "transform.json")
        figures.append(("r", abs(rep["fit"]["r"] - 1.0 / rep["order"]), R_TOL))
    elif kind == "inversion":
        for gamma, rec in _load(out, "inversion.json").items():
            errs = rec["sup_error"]
            if any(b - a > 1e-12 for a, b in zip(errs, errs[1:])):
                raise CheckFailed(f"gamma={gamma}: error grows along the radius ladder {errs}")
            figures.append(("inversion", errs[-1], INVERSION_TOL))
    elif kind == "splitting":
        rep = _load(out, "splitting.json")
        figures.append(("r", abs(rep["r"] - 0.5), R_TOL))
        figures.append(("tube", rep["tube_ratio"], TUBE_RATIO_MAX))
    elif kind == "inequalities":
        rep = _load(out, "inequalities.json")
        figures.append(("apriori", rep["apriori_spread"], APRIORI_SPREAD_MAX))
        figures.append(("weight", rep["weight_spread"], WEIGHT_SPREAD_MAX))
    else:
        raise CheckFailed(f"no check for job kind {kind!r}")

    for family, err, tol in figures:
        if not math.isfinite(err) or err > tol or (family in _STRICT and err >= tol):
            raise CheckFailed(f"{job.label}: {family} {err:.3e} misses {tol:g}")
    return figures


def digests(out: Path) -> dict[str, str]:
    """sha256 of every report file a job wrote, by relative path."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
