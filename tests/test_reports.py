"""Report emitters: fixed schemas, deterministic bytes."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gevreylab import emit_report
from gevreylab.reports import write_json


def test_zero_rows_emit_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    emit_report([], ["a", "b", "c"], out)
    assert out.read_text() == "a,b,c\n"


def test_row_width_must_match_schema(tmp_path):
    with pytest.raises(ValueError, match="row width"):
        emit_report([[1, 2]], ["a", "b", "c"], tmp_path / "bad.csv")


def test_value_formatting_distinguishes_types(tmp_path):
    out = tmp_path / "fmt.csv"
    emit_report([[3, 3.0, "x"]], ["i", "f", "s"], out)
    assert out.read_text() == "i,f,s\n3,3.0,x\n"


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(), min_size=1, max_size=8))
@example([-0.0, 5e-324, 1e308, 0.1 + 0.2, -2.5e-17])
@example([float("nan"), float("inf"), -float("inf"), 0.0, -5e-324, 2.2250738585072009e-308])
def test_numpy_and_python_numbers_write_the_same_bytes(tmp_path, values):
    # csv writes a cell with str: repr for a Python float, numpy's own
    # formatting, under its default print options, for a numpy float.
    schema = ["n", *(f"v{j}" for j in range(len(values)))]
    a, b = tmp_path / "py.csv", tmp_path / "np.csv"
    emit_report([[7, *values]], schema, a)
    emit_report([[np.int64(7), *map(np.float64, values)]], schema, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[1] == ",".join(["7", *map(repr, values)])


def test_json_is_sorted_and_newline_terminated(tmp_path):
    out = tmp_path / "data.json"
    write_json({"zeta": 1, "alpha": 2.5}, out)
    text = out.read_text()
    assert text.endswith("\n")
    assert text.index('"alpha"') < text.index('"zeta"')


def test_reruns_are_byte_identical(tmp_path):
    rows = [[1, 0.1 + 0.2, "note"], [2, 1e-17, "x"]]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(rows, ["n", "v", "tag"], a)
    emit_report(rows, ["n", "v", "tag"], b)
    assert a.read_bytes() == b.read_bytes()
