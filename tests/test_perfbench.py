"""The benchmark's tracer wraps qtcat's entry points by name, so each name
it lists must exist: a missing one makes every traced job fail.  It wraps
them where callers look them up, so a caller that stops using a listed name
reads 0 in its metric."""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

from qtcat import _kernels_py, bijections, cycles, kernels, verify

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
    # on the pure-Python backend, bijections.height_from_path is traced at
    # the orbit kernel's binding of it
    calls = []

    def counting(a):
        calls.append(a)
        return bijections.height_from_path(a)

    monkeypatch.setattr(kernels, "_impl", _kernels_py)
    monkeypatch.setattr(_kernels_py, "height_from_path", counting)
    for m, dstar in [(1, 4), (2, 5), (3, 7), (5, 9)]:
        calls.clear()
        assert verify.computation1(m, dstar).verdict
        maximal = kernels.ellm_maximal_bounded(verify.lstar(m, dstar), m, dstar)
        assert calls == [a for _, a in maximal], (m, dstar)


def test_c_computation1_makes_no_call_per_maximal_path(speedups, monkeypatch):
    # on C, maximal_orbit_check walks, bounds and orbits every maximal path
    # itself, so the traced listing, orbit and height read 0 calls
    monkeypatch.setattr(kernels, "_impl", speedups)
    want = [verify.computation1(m, 9) for m in (1, 2, 3)]

    def raising(*args):
        raise AssertionError("called once per maximal path")

    monkeypatch.setattr(kernels, "ellm_maximal_bounded", raising)
    monkeypatch.setattr(kernels, "lowest_tuple", raising)
    for module in (cycles, _kernels_py):
        monkeypatch.setattr(module, "lowest_tuple", raising)
    for module in (bijections, _kernels_py):
        monkeypatch.setattr(module, "height_from_path", raising)
    assert not hasattr(verify, "height_from_path")
    got = [verify.computation1(m, 9) for m in (1, 2, 3)]
    assert all(r.verdict and r.witness is None for r in got)
    assert [r.counts["maximal_paths"] for r in got] == [
        r.counts["maximal_paths"] for r in want
    ]
    assert all(r.counts["maximal_paths"] > 0 for r in got)
