"""Deterministic CSV and JSON report emitters.

Every writer here is a pure function of its inputs: fixed column order,
repr-formatted floats (shortest round-trip form), LF line endings, and
sorted JSON keys, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from typing import Iterable, Mapping, Sequence

import numpy as np

from .eigen import Eigenpair, GridSpec, GrowthRow
from .fbi import FbiField
from .operators import OperatorParams


def _fmt(value) -> str:
    if type(value) is float:  # most cells; same text as the branch below
        return repr(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def emit_report(rows: Iterable[Sequence], schema: Sequence[str], path) -> None:
    """Write rows under a fixed schema; zero rows still emit the header."""
    rows = list(rows)
    for row in rows:
        if len(row) != len(schema):
            raise ValueError(
                f"row width {len(row)} does not match schema width {len(schema)}"
            )
    with open(path, "w", newline="") as buf:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(schema))
        writer.writerows([_fmt(v) for v in row] for row in rows)


def write_json(data: Mapping, path) -> None:
    with open(path, "w") as buf:
        json.dump(data, buf, indent=2, sort_keys=True)
        buf.write("\n")


def field_to_csv(field: FbiField, path) -> None:
    """Transform field rows: base point, frequency, re, im, abs."""
    base = field.base_point
    label = repr(base.real) if base.imag == 0.0 else repr(base)
    rows = [[label, xi, val.real, val.imag, abs(val)] for xi, val in zip(field.freqs, field.values)]
    emit_report(rows, ["base", "xi", "re", "im", "abs"], path)


def eigenpair_to_csv(pair: Eigenpair, grid: GridSpec, path) -> None:
    """Profile samples on the nodes of ``grid``: x, re f, im f."""
    x = grid.nodes()
    vals = np.asarray(pair.f(x), dtype=complex)
    rows = zip(x.tolist(), vals.real.tolist(), vals.imag.tolist())
    emit_report(rows, ["x", "re", "im"], path)


def eigenpair_summary(pair: Eigenpair, params: OperatorParams) -> dict:
    return {
        "p": params.p,
        "q": params.q,
        "z": pair.z,
        "residual": pair.residual,
        "basis_size": len(pair.f.values),
        "basis_change": pair.basis_change,
    }


def grid_summary(grid: GridSpec) -> dict:
    """The grid of eigenpair.csv; the samples sit at half its spacing
    (fine_nodes)."""
    return {
        "half_width": grid.half_width,
        "spacing": grid.spacing,
        "fine_nodes": grid.refined().size,
    }


def growth_to_csv(rows: Iterable[GrowthRow], path) -> None:
    emit_report(
        [[r.N, r.lam, r.log_lhs, r.log_sup, r.s_star] for r in rows],
        ["N", "lambda", "log_lhs", "log_sup", "s_star"],
        path,
    )
