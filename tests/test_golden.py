"""Golden reports: every byte of eleven CLI runs is pinned.

Each run's reports are kept verbatim under ``tests/golden/<run>/``, apart
from ``eigenpair.csv`` (hundreds of KB), which is kept as its SHA-256 in
``eigenpair.csv.sha256``.  ``tests/golden/STACK.txt`` names the numpy and
BLAS the files were made with; on another stack a mismatch is a finding
to report, not a case to skip.  The runs go through ``cli.main`` in this
process.  Every summary number of a golden run is, bit for bit, what its
own rows give.

A change that moves a report byte on purpose regenerates the set, from
the root of a checkout, and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from gevreylab import (GrowthRow, estimate_optimal_exponent, fit_stretched_exponential,
                       prune_decay_floor)
from gevreylab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

#: Kept as a digest, not verbatim.
DIGESTED = ("eigenpair.csv",)

RUNS = {
    "transform": ("transform",),
    "transform-order-3": ("transform", "--order", "3"),
    "classify": ("classify",),
    "classify-order-1.5": ("classify", "--order", "1.5"),
    "eigen": ("eigen",),
    "eigen-p2-q3": ("eigen", "--p", "2", "--q", "3"),
    "counterexample": ("counterexample",),
    "counterexample-p1-q3": ("counterexample", "--p", "1", "--q", "3"),
    "inequalities": ("inequalities",),
    "inequalities-p3-q4-seed30": ("inequalities", "--p", "3", "--q", "4", "--seed", "30"),
    "demo": ("demo",),
}


def stack() -> str:
    """The numpy version and the BLAS it was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 only prints its build configuration
        blas = {"name": "unknown", "version": ""}
    return f"numpy {np.__version__}\nblas {blas['name']} {blas['version']}\n"


def sha256_line(data: bytes, name: str) -> str:
    """One line in the format of ``sha256sum``."""
    return f"{hashlib.sha256(data).hexdigest()}  {name}\n"


def reports(argv, out: Path) -> dict[str, str]:
    """The golden form of one run's reports: {file name: text}."""
    assert main([*argv, "--out", str(out)]) == 0
    kept = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name in DIGESTED:
            kept[path.name + ".sha256"] = sha256_line(data, path.name)
        else:
            kept[path.name] = data.decode()
    return kept


def first_difference(name: str, want: str, got: str) -> str:
    """Where two texts of one file first differ, line by line."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for i, (a, b) in enumerate(zip(want_lines, got_lines), 1):
        if a != b:
            return f"{name} line {i}:\n  golden: {a}\n  now:    {b}"
    i = min(len(want_lines), len(got_lines))
    return f"{name}: {len(want_lines)} lines golden, {len(got_lines)} now (line {i + 1})"


@pytest.mark.parametrize("run", sorted(RUNS))
def test_reports_match_the_golden_bytes(run, tmp_path):
    got = reports(RUNS[run], tmp_path)
    want = {path.name: path.read_bytes().decode() for path in sorted((GOLDEN / run).iterdir())}
    assert sorted(got) == sorted(want)
    diffs = [first_difference(name, want[name], got[name])
             for name in sorted(want) if want[name] != got[name]]
    assert not diffs, (
        f"reports of {' '.join(RUNS[run])} moved\n" + "\n".join(diffs)
        + f"\ngolden stack:\n{(GOLDEN / 'STACK.txt').read_text()}this stack:\n{stack()}"
    )


def golden_csv(run: str, name: str) -> dict[str, list]:
    """The columns of one golden CSV, each cell parsed as a number."""
    header, *rows = (line.split(",") for line in (GOLDEN / run / name).read_text().splitlines())
    return {key: [float(row[i]) for row in rows] for i, key in enumerate(header)}


def golden_json(run: str, name: str) -> dict:
    return json.loads((GOLDEN / run / name).read_text())


def test_every_summary_is_recomputed_from_its_rows():
    # Each summary number is, bit for bit, what its own report rows give.
    for run in ("transform", "transform-order-3"):
        field = golden_csv(run, "field.csv")
        fit = fit_stretched_exponential(*prune_decay_floor(field["xi"], field["abs"]))
        assert golden_json(run, "transform.json")["fit"] == dataclasses.asdict(fit), run
    for run in ("counterexample", "counterexample-p1-q3"):
        growth = golden_csv(run, "growth.csv")
        rows = [GrowthRow(int(n), *rest) for n, *rest in zip(*growth.values())]
        report = golden_json(run, "counterexample.json")
        assert report["s0_estimate"] == estimate_optimal_exponent(rows), run
        assert report["abs_delta"] == abs(report["s0_estimate"] - report["expected"]), run
    for run in ("inequalities", "inequalities-p3-q4-seed30"):
        apriori = golden_csv(run, "apriori.csv")
        sups = golden_csv(run, "weight.csv")["sup_ratio"]
        scaling = golden_csv(run, "scaling.csv")
        flat = [r for rho, r in zip(apriori["rho"], apriori["max_ratio"]) if rho == 0.0]
        report = golden_json(run, "inequalities.json")
        assert report["apriori_spread"] == max(flat) / min(flat), run
        assert report["weight_sup"] == max(sups), run
        assert report["weight_spread"] == max(sups) / min(sups), run
        assert report["scaling_max_ratio"] == max(scaling["ratio"]), run
        assert apriori["max_ratio"] == [a / b for a, b in zip(apriori["h2_norm"],
                                                              apriori["image_norm"])], run
        assert scaling["ratio"] == [a / b for a, b in zip(scaling["lhs"], scaling["rhs"])], run
    demo = golden_csv("demo", "demo.csv")
    assert demo["abs_delta"] == [abs(s0 - t) for s0, t in zip(demo["s0_estimate"],
                                                              demo["q_over_p"])]


def regenerate() -> None:
    """Rewrite the golden set from the code in this checkout, printing
    where each rewritten file first differs from what it replaces."""
    for run, argv in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            kept = reports(argv, Path(tmp) / "out")
        target = GOLDEN / run
        target.mkdir(parents=True, exist_ok=True)
        old = {path.name: path.read_bytes().decode() for path in target.iterdir()}
        for stale in old.keys() - kept.keys():
            (target / stale).unlink()
        for name, text in kept.items():
            if old.get(name) != text:
                print(f"{run}/" + first_difference(name, old.get(name, ""), text))
                (target / name).write_bytes(text.encode())
    (GOLDEN / "STACK.txt").write_text(stack())


if __name__ == "__main__":
    regenerate()
