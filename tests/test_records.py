"""The public result records: field order, immutability, and a cold import
that pulls in neither ``dataclasses`` nor ``inspect``."""

import os
import subprocess
import sys

import pytest

import marcumq
from marcumq import BoundEval, BoundId, OracleResult, QArgs
from marcumq.analysis import BoundCell, CurveTable, ErrorRow, ScanReport

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
