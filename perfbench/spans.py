"""Span recording around gevreylab's public functions, from outside the package.

A traced job child calls :func:`install`, which wraps every public function
of the layer modules at every module that binds it (``gevreylab.cli``,
``gevreylab.eigen``, the package namespace, ...), so calls between modules
and calls within one module both pass through the wrapper.  Each call
records a span (name, start, end, parent, job id) in memory; the child
writes them out when the job ends.  Sizers add computed work counts at the
same boundary: they read only argument and result sizes, never the
package's internals, and run after the span closes so their cost is not
billed to the layer.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict

#: Modules whose public functions are layers.  ``cli.main`` is wrapped too.
LAYER_MODULES = ("eigen", "fbi", "gevrey", "operators", "reports")


class Tracer:
    """In-memory spans and counters for one job."""

    def __init__(self, job_id: str, clock=time.perf_counter):
        self.job_id = job_id
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.counters: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.job_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = self.clock()

    def wrap(self, name: str, fn, sizer=None):
        signature = inspect.signature(fn) if sizer else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if sizer is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    sizer(self, bound.arguments, result)
                except Exception:
                    # A sizer that no longer fits the package's signatures
                    # must not change what the job does; the count says so.
                    self.counters["trace.sizer_errors"] += 1
            return result

        return traced

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_name, start, end, _parent, _job) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


# --- sizers: computed work counts, labelled "computed" in the README -------


def _xi_nodes(radius: float, args) -> int:
    # Nodes of the trapezoid frequency grid on [-R, R] at the call's dxi;
    # an implementation without a frequency quadrature has no dxi and one
    # kernel evaluation per output point.
    dxi = args.get("dxi")
    if dxi is None:
        return 1
    return max(int(math.ceil(2.0 * radius / dxi)) + 1, 9)


def _size_solve(tr: Tracer, args, result) -> None:
    params, grid = args["params"], args.get("grid")
    if params.p == params.q:
        return
    if grid is None:
        from gevreylab.eigen import default_grid

        grid = default_grid(params)
    fine = int(round(2.0 * grid.half_width / (grid.spacing / 2.0)))
    tr.counters["eigen.solve.fine_nodes"] += fine
    tr.counters["eigen.solve.pairs_requested"] += args["count"]
    tr.counters["eigen.solve.pairs_returned"] += len(result)
    if result:
        tr.counters["eigen.solve.kept_nodes"] += sum(len(pair.f.values) for pair in result) / len(result)


def _size_oracle(tr: Tracer, args, result) -> None:
    q = args["params"].q
    half = args["potential_floor"] ** (1.0 / (2 * (q - 1)))
    tr.counters["eigen.oracle.dense_n"] += int(round(2.0 * half / (args["spacing"] / 2.0)))


def _size_box(tr: Tracer, args, result) -> None:
    tr.counters["eigen.verify_kernel.box_points"] += result.values.size


def _size_field(tr: Tracer, args, result) -> None:
    n = args["u"].values.size
    tr.counters["fbi.fbi_field.evals"] += result.values.size * n


def _size_inversion(tr: Tracer, args, result) -> None:
    rmax = max(float(r) for r in args["radii"])
    n = args["u"].values.size
    tr.counters["fbi.inversion_profile.evals"] += result.shape[1] * _xi_nodes(rmax, args) * n


def _size_lowpass(tr: Tracer, args, result) -> None:
    n = args["u"].values.size
    tr.counters["fbi.lowpass_profile.evals"] += (2 * n - 1) * _xi_nodes(args["lam"], args)


def _size_fd(tr: Tracer, args, result) -> None:
    tr.distinct["gevrey.fd_weights"].add((args["order"], args["npts"]))


def _size_derivatives(tr: Tracer, args, result) -> None:
    tr.counters["gevrey.derivatives.reliable"] += result.n_points
    tr.counters["gevrey.derivatives.orders"] += args["max_order"]


def _size_prune(tr: Tracer, args, result) -> None:
    tr.counters["gevrey.fit.points_kept"] += len(result[0])
    tr.counters["gevrey.fit.points_offered"] += len(args["freqs"])


def _size_report(tr: Tracer, args, result) -> None:
    tr.counters["reports.files"] += 1
    tr.counters["reports.bytes"] += os.path.getsize(args["path"])


SIZERS = {
    "eigen.solve_nonlinear_eigen": _size_solve,
    "eigen.reference_eigenvalues": _size_oracle,
    "eigen.build_counterexample": _size_box,
    "fbi.fbi_field": _size_field,
    "fbi.inversion_profile": _size_inversion,
    "fbi.lowpass_profile": _size_lowpass,
    "gevrey.fd_weights": _size_fd,
    "gevrey.estimate_order_derivatives": _size_derivatives,
    "gevrey.prune_decay_floor": _size_prune,
    # The other report writers delegate to these two, which open the files.
    "reports.emit_report": _size_report,
    "reports.write_json": _size_report,
}


def install(tracer: Tracer) -> None:
    """Wrap every public layer function, and ``cli.main``, wherever bound."""
    import gevreylab
    import gevreylab.cli

    wrappers = {}
    for short in LAYER_MODULES:
        module = sys.modules[f"gevreylab.{short}"]
        for attr, obj in vars(module).items():
            # Any callable defined here counts, so a function that gains a
            # caching decorator is still wrapped and its calls still counted.
            if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{short}.{attr}"
            wrappers[id(obj)] = tracer.wrap(name, obj, SIZERS.get(name))
    wrappers[id(gevreylab.cli.main)] = tracer.wrap("cli.main", gevreylab.cli.main)

    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "gevreylab" or mod_name.startswith("gevreylab.")):
            continue
        for attr, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(module, attr, wrapper)
