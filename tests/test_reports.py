"""Report emitters: fixed schemas, deterministic bytes."""

import numpy as np
import pytest

from gevreylab import (
    Eigenpair,
    GridSpec,
    GrowthRow,
    HermiteSeries,
    emit_report,
    fbi_field,
    sample,
)
from gevreylab.reports import (
    eigenpair_summary,
    eigenpair_to_csv,
    field_to_csv,
    growth_to_csv,
    write_json,
)


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


def test_numpy_and_python_numbers_write_the_same_bytes(tmp_path):
    values = [-0.0, 5e-324, 1e308, 0.1 + 0.2, -2.5e-17]
    a, b = tmp_path / "py.csv", tmp_path / "np.csv"
    emit_report([[7, *values]], ["n", *"abcde"], a)
    emit_report([[np.int64(7), *map(np.float64, values)]], ["n", *"abcde"], b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[1] == "7,-0.0,5e-324,1e+308,0.30000000000000004,-2.5e-17"


def test_growth_schema_echoes_row_fields(tmp_path):
    rows = [
        GrowthRow(N=10, lam=100.0, log_lhs=1.5, log_sup=0.25, s_star=2.0),
        GrowthRow(N=100, lam=10000.0, log_lhs=9.0, log_sup=1.0, s_star=2.01),
    ]
    out = tmp_path / "growth.csv"
    growth_to_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "N,lambda,log_lhs,log_sup,s_star"
    assert lines[1].split(",") == ["10", "100.0", "1.5", "0.25", "2.0"]
    assert len(lines) == 3


def test_field_csv_keeps_complex_base_label(tmp_path):
    u = sample(lambda x: np.exp(-(x**2)), [(-6.0, 6.0, 1501)], support_radius=6.0)
    lines = []
    for base in (0.25, 0.1 + 0.05j):
        out = tmp_path / "field.csv"
        field_to_csv(fbi_field(u, base, [4.0, 8.0], 1.0), out)
        text = out.read_text().splitlines()
        assert text[0] == "base,xi,re,im,abs"
        assert len(text) == 3
        lines += text[1:]
    assert lines[0].startswith("0.25,4.0,")
    assert lines[1].startswith("0.25,8.0,")
    assert lines[2].startswith('"(0.1+0.05j)",4.0,') or lines[2].startswith(
        "(0.1+0.05j),4.0,"
    )
    # abs column must equal the modulus of (re, im) as parsed back.
    for line in lines:
        cells = line.rsplit(",", 3)
        re, im, mag = map(float, cells[1:])
        assert mag == pytest.approx(np.hypot(re, im), rel=1e-12)


def test_eigenpair_csv_parses_back(tmp_path):
    # e^(-x^2/2) = pi^(1/4) psi_0, sampled on a staggered grid.
    f = HermiteSeries(1.0, np.array([np.pi**0.25]))
    pair = Eigenpair(z=1.0, f=f, residual=0.0, basis_change=0.0)
    grid = GridSpec(1.0, 0.1)
    out = tmp_path / "pair.csv"
    eigenpair_to_csv(pair, grid, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,re,im"
    parsed = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    # repr-formatting must preserve the nodes and the values bit for bit.
    assert np.array_equal(parsed[:, 0], grid.nodes())
    assert np.array_equal(parsed[:, 1], f(grid.nodes()))
    assert np.all(parsed[:, 2] == 0.0)


def test_eigenpair_summary_fields():
    from gevreylab import OperatorParams

    # psi_1 in a basis of 80 functions: basis_size is the series length.
    f = HermiteSeries(1.0, np.eye(80)[1])
    pair = Eigenpair(z=3.0, f=f, residual=1e-13, basis_change=4e-16)
    got = eigenpair_summary(pair, OperatorParams(1, 2))
    assert got == {
        "p": 1,
        "q": 2,
        "z": 3.0,
        "residual": 1e-13,
        "basis_size": 80,
        "basis_change": 4e-16,
    }


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
