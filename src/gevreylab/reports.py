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
