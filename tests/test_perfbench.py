"""The benchmark's tracer wraps qtcat's entry points by name, so each name
it lists must exist: a missing one makes every traced job fail."""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.ENTRY_POINTS
    for span, modname, attr, _ in tracer.ENTRY_POINTS:
        module = importlib.import_module(modname)
        assert callable(reduce(getattr, attr.split("."), module)), span
