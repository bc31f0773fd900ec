"""The benchmark's tracer wraps qtcat's entry points by name, so each name
it lists must exist: a missing one makes every traced job fail.  It wraps
them where callers look them up, so a caller that stops using a listed name
reads 0 in its metric."""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

from qtcat import bijections, kernels, verify

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.ENTRY_POINTS
    for span, modname, attr, _ in tracer.ENTRY_POINTS:
        module = importlib.import_module(modname)
        assert callable(reduce(getattr, attr.split("."), module)), span


def test_computation1_calls_height_from_path_once_per_maximal_path(monkeypatch):
    # bijections.height_from_path is traced at verify's binding of it
    calls = []

    def counting(a):
        calls.append(a)
        return bijections.height_from_path(a)

    monkeypatch.setattr(verify, "height_from_path", counting)
    for m, dstar in [(1, 4), (2, 5), (3, 7), (5, 9)]:
        calls.clear()
        verify.computation1(m, dstar)
        maximal = kernels.ellm_maximal_bounded(verify.lstar(m, dstar), m, dstar)
        assert calls == [a for _, a in maximal], (m, dstar)
