"""Shared fixtures: both kernel backends, the C one built once per session.

The C kernel is built from this tree's setup.py into a temporary directory
and loaded from there, so the suite runs it without an install step.  It is
built with -Wall -Werror, so a new compiler warning fails the suite.  Its
cases are skipped only when no C compiler or no Python.h is found; a build
that fails with both present is an error.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import time
from math import gcd
from pathlib import Path

import pytest

from qtcat import _kernels_py, kernels

ROOT = Path(__file__).resolve().parent.parent


def _toolchain_missing():
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        return "no C compiler (%s)" % cc
    if not (Path(sysconfig.get_paths()["include"]) / "Python.h").exists():
        return "no Python.h"
    return None


@pytest.fixture(scope="session")
def speedups(tmp_path_factory):
    """qtcat._speedups, compiled from src/qtcat/_speedups.c."""
    missing = _toolchain_missing()
    if missing:
        pytest.skip("C kernel not built: %s" % missing)
    out = tmp_path_factory.mktemp("speedups")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "temp")],
        cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, CFLAGS="-Wall -Werror"),
    )
    built = sorted((out / "lib" / "qtcat").glob("_speedups*"))
    if proc.returncode != 0 or not built:
        pytest.fail("C kernel build failed:\n%s%s" % (proc.stdout, proc.stderr))
    spec = importlib.util.spec_from_file_location("qtcat._speedups", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def impl(request):
    """The kernel backend a test is parametrized with: "python" or "c"."""
    if request.param == "python":
        return _kernels_py
    return request.getfixturevalue("speedups")


@pytest.fixture(scope="session")
def census_17_12():
    """The pure-Python census of slope 17/12, keyed by (17, 12), and the
    seconds it took, walked once per session: it is the slowest walk of the
    suite on that backend, and more than one test checks the verify path on
    it."""
    t0 = time.perf_counter()
    tables = {(17, 12): _kernels_py.rational_census(17, 12)}
    return tables, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sweep_census():
    """The pure-Python censuses of the 449 slopes n/s with n*s <= 120, keyed
    by (n, s), and the seconds they took, walked once per session for the
    tests that check the conjecture sweep and the census tables on them."""
    t0 = time.perf_counter()
    tables = {
        (n, s): _kernels_py.rational_census(n, s)
        for n in range(1, 121)
        for s in range(1, 121)
        if n * s <= 120 and gcd(n, s) == 1
    }
    return tables, time.perf_counter() - t0


def _kernels_serving(impl, monkeypatch, request, census):
    """qtcat.kernels switched to impl for one test; on Python, the slopes of
    the session fixture named census are answered from its tables, each call
    with fresh dicts.  Returns the seconds of census work done before the
    test: that fixture's on Python, 0.0 on C."""
    monkeypatch.setattr(kernels, "_impl", impl)
    if impl is not _kernels_py:
        return 0.0
    tables, seconds = request.getfixturevalue(census)
    walk = impl.rational_census

    def rational_census(n, s):
        if (n, s) in tables:
            all_counts, max_counts = tables[n, s]
            return dict(all_counts), dict(max_counts)
        return walk(n, s)

    monkeypatch.setattr(impl, "rational_census", rational_census)
    return seconds


@pytest.fixture
def kernels_on_impl(impl, monkeypatch, request):
    """_kernels_serving with census_17_12."""
    return _kernels_serving(impl, monkeypatch, request, "census_17_12")


@pytest.fixture
def sweep_on_impl(impl, monkeypatch, request):
    """_kernels_serving with sweep_census."""
    return _kernels_serving(impl, monkeypatch, request, "sweep_census")
