"""The public result records: field order, immutability, records built
from their fields by ``tuple.__new__`` that are proper records, and a
cold import that pulls in neither ``dataclasses`` nor ``inspect``."""

import os
import subprocess
import sys

import pytest

import marcumq
from marcumq import BoundEval, BoundId, OracleResult, QArgs
from marcumq.analysis import BoundCell, CurveTable, ErrorRow, ScanReport, error_table
from marcumq.oracle import TrapezoidResult, q1_bessel_series, q1_reference, q1_trapezoid

RECORDS = [
    (QArgs(1.0, 2.0), ("a", "b")),
    (
        OracleResult(0.5, 0.5, 0.5, 0.0, "series"),
        ("value", "method_a_value", "method_b_value", "agreement_gap", "method_b"),
    ),
    (BoundEval(BoundId.UB1A, 0.5, 0.5, "upper"), ("id", "raw", "clamped", "side")),
    (BoundCell(0.5, 0.5, 1.0), ("raw", "clamped", "epsilon_pct")),
    (ErrorRow(1.0, 0.5, {}), ("b", "exact", "cells", "skipped")),
    (
        ScanReport("g_negative", "stub", -1.0, (1.0,), True),
        ("property_id", "grid", "worst_violation", "witness", "passed", "details"),
    ),
    (CurveTable(("x",), [(1.0,)]), ("columns", "rows")),
]
NAMES = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record,fields", RECORDS, ids=NAMES)
def test_field_order(record, fields):
    assert type(record)._fields == fields


@pytest.mark.parametrize("record,fields", RECORDS, ids=NAMES)
def test_immutable(record, fields):
    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(record, fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1


def _assert_proper(record, cls):
    """record is an exact cls with its fields, a working _replace and the named repr."""
    assert type(record) is cls
    assert record._fields == cls._fields
    assert cls(*record) == record
    first = record._fields[0]
    replaced = record._replace(**{first: "x"})
    assert type(replaced) is cls
    assert replaced == ("x", *record[1:])
    body = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, record))
    assert repr(record) == f"{cls.__name__}({body})"


# one point per route of each method that builds its records from their fields
ORACLE_ROUTES = [
    (q1_reference, (1.0, 1.5)),  # the band: quadrature and Poisson series
    (q1_reference, (150.0, 150.5)),  # the diagonal route beside the expansion
    (q1_reference, (600.0, 610.0)),  # the trapezoid beside the expansion
    (q1_reference, (1.0, 3.0)),  # the trapezoid beside the Bessel series
    (q1_reference, (3.0, 1.0)),  # both complements, relative gate
    (q1_reference, (60.0, 10.0)),  # 1 - Q1 underflows: method a is 1.0
    (q1_trapezoid, (1.0, 3.0)),  # one weight
    (q1_trapezoid, (3.0, 1.0)),  # both weights from one pass
    (q1_trapezoid, (62.2462682043616, 0.014559367799381268)),  # N doubled
    (q1_trapezoid, (3.0, 0.0)),  # zeta = 0: the early return
    (q1_bessel_series, (1.0, 3.0)),  # backward recurrence
    (q1_bessel_series, (60.0, 10.0)),  # forward recurrence
    (q1_bessel_series, (0.0, 2.0)),  # ab = 0: the early return
]


@pytest.mark.parametrize(
    "method,point", ORACLE_ROUTES, ids=[f"{m.__name__}{p}" for m, p in ORACLE_ROUTES]
)
def test_oracle_records_are_proper(method, point):
    _assert_proper(method(QArgs(*point)), OracleResult if method is q1_reference else TrapezoidResult)


def test_error_table_records_are_proper():
    rows = error_table(1.0, [0.5, 1.0, 2.0], list(BoundId))
    for row in rows:
        _assert_proper(row, ErrorRow)
        assert row.cells
        for cell in row.cells.values():
            _assert_proper(cell, BoundCell)
    assert rows[1].skipped  # the tie b = a skips the singular ids


def test_qargs_repr():
    # QArgs validates in a subclass of its field tuple; the repr names QArgs
    assert repr(QArgs(1.0, 2.0)) == "QArgs(a=1.0, b=2.0)"


def test_default_mappings_are_read_only():
    rep = ScanReport("g_negative", "stub", -1.0, (1.0,), True)
    row = ErrorRow(1.0, 0.5, {})
    for empty in (rep.details, row.skipped):
        assert len(empty) == 0
        with pytest.raises(TypeError):
            empty["x"] = 1


def test_cold_import_skips_dataclasses_and_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import marcumq, marcumq.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = os.path.dirname(os.path.dirname(marcumq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout.split()
    assert "marcumq.cli" in out
    assert "dataclasses" not in out
    assert "inspect" not in out
    # the package imports only the standard library: no new runtime dependency
    top = {m.split(".")[0] for m in out}
    assert top - {"marcumq"} <= sys.stdlib_module_names, sorted(top - {"marcumq"} - sys.stdlib_module_names)
