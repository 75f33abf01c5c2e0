"""Tests of the benchmark harness itself (not of gevreylab).

    python3 -m pytest perfbench/tests -q

The job-running tests start real child processes on small jobs and take
about 10 s together.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import jobs
import run
import spans

ROOT = Path(__file__).resolve().parents[2]


def _normalized(job: jobs.Job) -> tuple:
    args = list(job.args)
    if job.kind == "demo":
        args[2:] = sorted(args[2:])
    if "--seed" in args:
        del args[args.index("--seed") + 1]
    return tuple(args)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_seed_gives_the_same_jobs(workload):
    base = Counter(_normalized(j) for j in jobs.workload_jobs(workload, 0))
    orders = set()
    for seed in (1, 2, 7, 99, 12345, -3):
        got = jobs.workload_jobs(workload, seed)
        assert Counter(_normalized(j) for j in got) == base
        assert got == jobs.workload_jobs(workload, seed)
        orders.add(tuple(j.args for j in got))
    assert len(orders) > 1, "the seed should shuffle the job order"


def test_self_time_subtracts_the_union_of_direct_children():
    recorded = [
        ["root", 0.0, 10.0, -1, "j"],
        ["a", 1.0, 4.0, 0, "j"],
        ["b", 3.0, 6.0, 0, "j"],   # overlaps a: the overlap is covered once
        ["c", 2.0, 3.0, 1, "j"],   # grandchild: only a loses it
        ["d", 8.0, 12.0, 0, "j"],  # clipped to the parent's end
    ]
    assert spans.self_times(recorded) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_tracer_nests_spans_and_self_times_add_up():
    ticks = iter(range(100))
    tracer = spans.Tracer("job", clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda: None)

    def middle():
        leaf()
        leaf()

    top = tracer.wrap("top", lambda: tracer.wrap("middle", middle)())
    top()
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["top", "middle", "leaf", "leaf"]
    assert parents == [-1, 0, 1, 1]
    selfs = spans.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(selfs) == pytest.approx(root[2] - root[1])


def test_failing_sizer_is_counted_not_raised():
    tracer = spans.Tracer("job")

    def broken(tr, args, result):
        raise KeyError("gone")

    wrapped = tracer.wrap("f", lambda x: x + 1, broken)
    assert wrapped(1) == 2
    assert tracer.counters["trace.sizer_errors"] == 1


def _run_pass(job_list, trace, work: Path):
    p = run.run_pass(job_list, work, trace, time.monotonic() + 120.0)
    return p, {r.job.label: jobs.digests(r.out) for r in p.runs}


def test_traced_reports_equal_untraced_reports(tmp_path):
    job_list = [jobs._cli("transform", "--order", 2), jobs._cli("eigen", "--p", 2, "--q", 3)]
    plain, plain_digests = _run_pass(job_list, False, tmp_path)
    traced, traced_digests = _run_pass(job_list, True, tmp_path)
    assert run.tally([plain, traced]) == (4, 0)
    assert plain_digests == traced_digests
    assert all(plain_digests.values())
    names = {s[0] for r in traced.runs for s in r.child["spans"]}
    assert {"cli.main", "fbi.fbi_field", "eigen.solve_nonlinear_eigen", "reports.write_json"} <= names
    assert not any("spans" in r.child for r in plain.runs)
    layers = run.per_layer(traced, [plain])
    assert layers["eigen.solve_nonlinear_eigen.calls"] == 1
    assert layers["eigen.solve.fine_nodes"] > 0
    assert layers["trace.sizer_errors"] == 0


def test_failed_jobs_count_toward_failed_and_the_pass_goes_on(tmp_path):
    bad = jobs._cli("eigen", "--p", 3, "--q", 2)  # usage error, exit 64
    good = jobs._cli("transform", "--order", 2)
    p, _ = _run_pass([bad, good], False, tmp_path)
    assert [r.rc for r in p.runs] == [64, 0]
    assert p.runs[0].error.startswith("exit 64")
    assert p.runs[1].error is None and p.runs[1].figures
    assert run.tally([p]) == (2, 1)


def test_reports_that_change_between_passes_count_as_failed(tmp_path):
    job = jobs._cli("transform", "--order", 2)
    passes = []
    for i, text in enumerate(("r = 0.44\n", "r = 0.44\n", "r = 0.45\n")):
        out = tmp_path / str(i)
        out.mkdir()
        (out / "transform.json").write_text(text)
        passes.append(run.Pass(False, 1.0, [run.JobRun(job, out, 1.0, 0.5, 0, {})]))
    run.check_determinism(passes)
    assert [p.runs[0].error for p in passes[:2]] == [None, None]
    assert "transform.json" in passes[2].runs[0].error
    assert run.tally(passes) == (3, 1)


def test_check_rejects_output_outside_tolerance(tmp_path):
    job = jobs._cli("transform", "--order", 2)
    (tmp_path / "transform.json").write_text(json.dumps({"order": 2.0, "fit": {"r": 0.39}}))
    with pytest.raises(jobs.CheckFailed):
        jobs.check_job(job, tmp_path, [])
    (tmp_path / "transform.json").write_text(json.dumps({"order": 2.0, "fit": {"r": 0.45}}))
    assert jobs.check_job(job, tmp_path, []) == [("r", pytest.approx(0.05), jobs.R_TOL)]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweeps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
