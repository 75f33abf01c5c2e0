"""Deterministic CSV and JSON report emitters.

Fixed column order, LF line endings and sorted JSON keys, so identical
inputs give byte-identical files.  ``csv`` formats each cell with ``str``,
so the pipelines hand it Python numbers: ``str`` of an int or a float is
its ``repr``, for a float the shortest round-trip form.
"""

from __future__ import annotations

import csv
import json
from typing import Iterable, Mapping, Sequence


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
        writer.writerows(rows)


def write_json(data: Mapping, path) -> None:
    with open(path, "w") as buf:
        json.dump(data, buf, indent=2, sort_keys=True)
        buf.write("\n")
