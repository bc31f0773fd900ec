"""The record types: frozen values, equal and hashed by their fields.

Each record is checked against a frozen dataclass with the same name and
fields, the type it replaces, so equality, hash and repr stay what they were.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from qtcat.bijections import BoundedPartition, ZeroOneMatrix
from qtcat.paths import EllMPath, PositionPath, RationalDyckPath, Record, StatReport
from qtcat.verify import VerificationReport

ROOT = Path(__file__).resolve().parent.parent

RECORDS = [
    EllMPath(5, 2, (1, 3, 0, 2, 2, 4)),
    PositionPath(3, (0, 0, 2, 1)),
    RationalDyckPath(5, 3, (0, 1, 4)),
    StatReport(area=7, degr=9, dinv=14, M=30),
    BoundedPartition((2, 1), 3),
    ZeroOneMatrix(2, 2, ((0, 1), (None, None))),
    VerificationReport({"n": 5, "s": 3}, True, counts={"paths": 7}),
]
IDS = [type(r).__name__ for r in RECORDS]


def fields(r):
    return tuple(getattr(r, name) for name in type(r).__slots__)


def dataclass_twin(r):
    cls = dataclasses.make_dataclass(type(r).__qualname__, type(r).__slots__, frozen=True)
    return cls(*fields(r))


@pytest.mark.parametrize("r", RECORDS, ids=IDS)
def test_record_equality_and_hash(r):
    same = type(r)(*fields(r))
    assert r == same and not r != same
    assert r.__eq__(fields(r)) is NotImplemented
    assert r != dataclass_twin(r)
    if isinstance(r, VerificationReport):
        # its fields hold dicts, so it is unhashable like its field tuple
        with pytest.raises(TypeError):
            hash(r)
        with pytest.raises(TypeError):
            hash(fields(r))
    else:
        assert hash(r) == hash(fields(r)) == hash(dataclass_twin(r))


def test_records_differ_by_field():
    assert EllMPath(2, 1, (1, 1, 1)) != EllMPath(2, 1, (1, 0, 2))
    assert PositionPath(1, (0, 1)) != PositionPath(2, (0, 1))
    assert BoundedPartition((1,), 2) != BoundedPartition((1,), 3)
    assert len({PositionPath(1, (0, 1)), PositionPath(1, (0, 1)), PositionPath(1, (0, 0))}) == 2


@pytest.mark.parametrize("r", RECORDS, ids=IDS)
def test_record_repr(r):
    assert repr(r) == repr(dataclass_twin(r))


def test_record_repr_literals():
    assert repr(StatReport(area=7, degr=9, dinv=14, M=30)) == (
        "StatReport(area=7, degr=9, dinv=14, M=30)"
    )
    assert repr(PositionPath(3, (0, 0, 2, 1))) == "PositionPath(m=3, positions=(0, 0, 2, 1))"


@pytest.mark.parametrize("r", RECORDS, ids=IDS)
def test_record_is_frozen(r):
    name = type(r).__slots__[0]
    value = getattr(r, name)
    with pytest.raises(AttributeError):
        setattr(r, name, value)
    with pytest.raises(AttributeError):
        delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert getattr(r, name) is value


@pytest.mark.parametrize("r", RECORDS, ids=IDS)
def test_record_copy_and_pickle(r):
    for other in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(other) is type(r)
        assert other == r


def test_record_constructor_normalises():
    # sequence fields are stored as tuples (of ints where they are numbers)
    assert PositionPath(2, [0, 1, 3]).positions == (0, 1, 3)
    assert EllMPath(1, 1, [True, 1]).steps == (1, 1)
    assert BoundedPartition([2, 1], 2).parts == (2, 1)
    assert ZeroOneMatrix(1, 2, [[0, 1]]).entries == ((0, 1),)
    with pytest.raises(ValueError):
        StatReport(1, 1, 1, 4)
    # Record.__init__ sets the fields from exactly one value each
    class Pair(Record):
        __slots__ = ("a", "b")

    assert fields(Pair(1, (2,))) == (1, (2,))
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            Pair(*values)


def test_verification_report_defaults():
    a = VerificationReport({}, True)
    b = VerificationReport({}, True)
    assert (a.lhs, a.rhs, a.witness, a.counts, a.detail) == (None, None, None, {}, {})
    # each report gets dicts of its own
    assert a.counts is not b.counts and a.detail is not b.detail


def test_cli_import_leaves_heavy_modules_out():
    # qtcat's start-up cost: none of these may be imported on the way to cli
    heavy = ("dataclasses", "inspect", "fractions", "decimal", "csv")
    # and nothing else may join what cli imports today: argparse, gettext and
    # json with what they bring, __future__, contextlib, math and qtcat's own
    # modules (either kernel backend)
    code = (
        "import sys; import argparse, gettext, json; before = set(sys.modules); "
        "from qtcat import cli; "
        "print([m for m in %r if m in sys.modules]); "
        "print(' '.join(sorted(set(sys.modules) - before)))" % (heavy,)
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded_heavy, added = proc.stdout.split("\n")[:2]
    assert loaded_heavy == "[]"
    allowed = {"__future__", "contextlib", "math", "qtcat"}
    allowed |= {
        "qtcat." + name
        for name in ("_kernels_py", "_speedups", "bijections", "cli", "cycles",
                     "kernels", "paths", "qtpoly", "verify")
    }
    assert set(added.split()) - allowed == set()
