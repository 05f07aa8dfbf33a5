"""The sweep-report renderers against the oracle renderers of ``_oracles``, byte for byte."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from swigert.asymptotics import CaseVerificationRow
from swigert.diophantine import DiophantineWitness
from swigert.report import ROW_HEADER, rows_to_csv, rows_to_json

from _oracles import report_cells, report_csv, report_json

EDGE_FLOATS = (0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 2.2250738585072014e-308, 1e16, 1e-7, 0.1)
FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)
INTS = st.integers(0, 10**6) | st.integers(-(10**40), 10**40)
WITNESSES = st.none() | st.builds(DiophantineWitness, n=st.integers(1, 10**30), m=INTS, residual=FLOATS,
                                  beta=FLOATS, rho=FLOATS)
ROWS = st.builds(CaseVerificationRow, n=INTS, lhs=st.builds(complex, FLOATS, FLOATS),
                 main=st.builds(complex, FLOATS, FLOATS), abs_err=FLOATS, bound=FLOATS, within=st.booleans(),
                 nu_n=INTS, witness=WITNESSES)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(ROWS, max_size=6))
def test_json_equals_oracle(rows):
    assert rows_to_json(rows) == report_json(rows)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(ROWS, max_size=6))
def test_csv_equals_oracle(rows):
    assert rows_to_csv(rows) == report_csv(rows, ROW_HEADER)


def test_header_names_the_oracle_columns():
    row = CaseVerificationRow(n=1, lhs=1j, main=0j, abs_err=1.0, bound=2.0, within=True, nu_n=0)
    assert ROW_HEADER.split(",") == list(report_cells(row))
    assert list(json.loads(rows_to_json([row]))[0]) == sorted(report_cells(row))
