"""Both kernel backends must agree with each other, with the plain
generators in qtcat.paths and with committed census digests.  The `impl`
fixture (conftest.py) gives the pure-Python kernels or the C kernel built
from this tree."""

import hashlib
import json
import os
from functools import lru_cache
from math import comb
from pathlib import Path

import pytest

from qtcat import _kernels_py, kernels, paths, verify

GOLDEN = Path(__file__).parent / "data" / "census_digests.json"


def oracle_rational(n, s):
    ac, mc = {}, {}
    for p in paths.enumerate_rational(n, s):
        k = (paths.degr_rational(p), paths.area(p))
        ac[k] = ac.get(k, 0) + 1
        if paths.is_maximal(p):
            mc[k] = mc.get(k, 0) + 1
    return ac, mc


def oracle_ellm(ell, m, dstar):
    ac, mc = {}, {}
    for p in paths.enumerate_positions(ell, m):
        d = paths.degr_alpha(p)
        if d > dstar:
            continue
        k = (d, paths.area(p))
        ac[k] = ac.get(k, 0) + 1
        if p.positions[1] == 0:
            mc[k] = mc.get(k, 0) + 1
    return ac, mc


# both backends, named last in the test ids: [5-3-python]
BACKENDS = pytest.mark.parametrize("impl", ["python", "c"], indirect=True)


@BACKENDS
@pytest.mark.parametrize("n,s", [(5, 3), (11, 5), (13, 8), (7, 2), (9, 1), (1, 7), (3, 10)])
def test_rational_census_matches_oracle(impl, n, s):
    assert impl.rational_census(n, s) == oracle_rational(n, s)


@BACKENDS
@pytest.mark.parametrize(
    "ell,m,dstar", [(1, 4, 9), (3, 2, 50), (4, 3, 6), (5, 2, 8), (2, 6, 0)]
)
def test_ellm_census_matches_oracle(impl, ell, m, dstar):
    assert impl.ellm_census_bounded(ell, m, dstar) == oracle_ellm(ell, m, dstar)


@BACKENDS
@pytest.mark.parametrize("ell,m,dstar", [(1, 3, 5), (4, 3, 6), (5, 2, 8)])
def test_maximal_bounded_matches_oracle(impl, ell, m, dstar):
    want = [
        (paths.degr_alpha(p), p.positions)
        for p in paths.enumerate_positions(ell, m)
        if p.positions[1] == 0 and paths.degr_alpha(p) <= dstar
    ]
    assert impl.ellm_maximal_bounded(ell, m, dstar) == want


def ellm_path_count(ell, m):
    """|D_{ell,m}|: the rational Dyck paths of slope (m(ell+1)+1)/(ell+1)."""
    n, s = m * (ell + 1) + 1, ell + 1
    return comb(n + s, s) // (n + s)


# every (ell, m) with m <= 6 whose universe has at most 50,000 paths
GRID = [
    (ell, m)
    for ell in range(1, 12)
    for m in range(1, 7)
    if ellm_path_count(ell, m) <= 50_000
]


@lru_cache(maxsize=None)
def universe(ell, m):
    """(degr, area, positions) of every (ell, m)-path, in generator order."""
    return [
        (paths.degr_alpha(p), paths.area(p), p.positions)
        for p in paths.enumerate_positions(ell, m)
    ]


@BACKENDS
@pytest.mark.parametrize("ell,m", GRID)
def test_bounded_kernels_match_unpruned_filter(impl, ell, m):
    rows = universe(ell, m)
    top = max(d for d, _, _ in rows)
    by_degree = {}
    for d, a, pos in rows:
        by_degree.setdefault(d, []).append((a, pos))
    maximal = [(d, pos) for d, _, pos in rows if pos[1] == 0]
    # every degree bound on C; on the slow pure-Python walk five of them,
    # from 0 up to the largest degree (nothing pruned)
    bounds = {0, 1, top // 3, 2 * top // 3, top} if impl is _kernels_py else None
    ac, mc = {}, {}
    for dstar in range(top + 1):
        for a, pos in by_degree.get(dstar, ()):
            ac[(dstar, a)] = ac.get((dstar, a), 0) + 1
            if pos[1] == 0:
                mc[(dstar, a)] = mc.get((dstar, a), 0) + 1
        if bounds is None or dstar in bounds:
            assert impl.ellm_census_bounded(ell, m, dstar) == (ac, mc), dstar
            want = [(d, pos) for d, pos in maximal if d <= dstar]
            assert impl.ellm_maximal_bounded(ell, m, dstar) == want, dstar
            want = [pos for _, pos in by_degree.get(dstar, ())]
            assert impl.ellm_paths_of_degree(ell, m, dstar) == want, dstar


@pytest.mark.parametrize("n,s", [(20001, 2), (1001, 3)])
def test_thin_slopes_match_python(speedups, n, s):
    # M = 10,000 and 1,000, but only 10,001 and 167,501 paths
    assert speedups.rational_census(n, s) == _kernels_py.rational_census(n, s)


BAD_INPUT = [
    ("rational_census", (6, 3)),
    ("rational_census", (0, 1)),
    ("rational_census", (1, 0)),
    ("rational_census", (-5, 3)),
    ("rational_census", (2**31, 1)),
    ("rational_census", (46349, 46351)),
    ("rational_census", (10**24 + 1, 2)),
    ("rational_census", (1, kernels.MAX_DEPTH + 1)),
    ("rational_census", (1, 2**31 - 1)),
    ("ellm_census_bounded", (3, 2, -1)),
    ("ellm_census_bounded", (0, 2, 3)),
    ("ellm_census_bounded", (3, 0, 3)),
    ("ellm_census_bounded", (3, 2, 2**63)),
    ("ellm_census_bounded", (46340, 1, 0)),
    ("ellm_census_bounded", (1, 2**30, 0)),
    ("ellm_census_bounded", (kernels.MAX_DEPTH, 1, 0)),
    ("ellm_maximal_bounded", (3, 2, -1)),
    ("ellm_maximal_bounded", (0, 1, 3)),
    ("ellm_maximal_bounded", (10**20, 1, 3)),
    ("ellm_maximal_bounded", (kernels.MAX_DEPTH, 1, 0)),
    ("ellm_paths_of_degree", (3, 2, -1)),
    ("ellm_paths_of_degree", (0, 2, 3)),
    ("ellm_paths_of_degree", (3, 0, 3)),
    ("ellm_paths_of_degree", (3, 2, 2**63)),
    ("ellm_paths_of_degree", (2000, 1, 3)),
    ("ellm_paths_of_degree", (kernels.MAX_DEPTH, 1, 0)),
]


@BACKENDS
def test_census_rejects_bad_input(impl, monkeypatch):
    # each backend guards itself against the inputs that are no path universe
    with pytest.raises(ValueError):
        impl.rational_census(6, 3)
    with pytest.raises(ValueError):
        impl.ellm_census_bounded(3, 2, -1)
    with pytest.raises(ValueError):
        impl.ellm_maximal_bounded(3, 2, -1)
    with pytest.raises(ValueError):
        impl.ellm_paths_of_degree(3, 2, -1)
    # and qtcat.kernels checks every input before it dispatches, so each
    # backend rejects the same inputs with the same InputError
    monkeypatch.setattr(kernels, "_impl", impl)
    for name, args in BAD_INPUT:
        with pytest.raises(kernels.InputError):
            getattr(kernels, name)(*args)


@BACKENDS
def test_census_accepts_the_deepest_slope(impl):
    # s = MAX_DEPTH is inside the limits, on the recursive pure-Python walk too
    assert impl.rational_census(1, kernels.MAX_DEPTH) == ({(0, 0): 1}, {(0, 0): 1})


def test_c_kernel_rejects_out_of_range_input(speedups):
    # its own guard, for callers that bypass qtcat.kernels
    for name, args in BAD_INPUT:
        with pytest.raises((ValueError, OverflowError)):
            getattr(speedups, name)(*args)


def test_selected_backend_exports():
    assert kernels.BACKEND in ("c", "python")
    assert kernels.rational_census(5, 3) == oracle_rational(5, 3)
    assert kernels.ellm_paths_of_degree(4, 3, 5) == [
        p.positions for p in paths.enumerate_positions(4, 3) if paths.degr_alpha(p) == 5
    ]


def test_backends_agree_on_larger_instance(speedups):
    assert speedups.rational_census(16, 9) == _kernels_py.rational_census(16, 9)
    assert speedups.ellm_census_bounded(6, 3, 10) == _kernels_py.ellm_census_bounded(
        6, 3, 10
    )
    # list results must agree element for element, same order included
    assert speedups.ellm_maximal_bounded(8, 3, 20) == _kernels_py.ellm_maximal_bounded(
        8, 3, 20
    )
    assert speedups.ellm_paths_of_degree(8, 3, 12) == _kernels_py.ellm_paths_of_degree(
        8, 3, 12
    )


def census_digest(census):
    """SHA-256 of the sorted (all_counts, max_counts) tables."""
    all_counts, max_counts = census
    text = json.dumps([sorted(all_counts.items()), sorted(max_counts.items())])
    return hashlib.sha256(text.encode()).hexdigest()


def golden_calls():
    """The 17/12 census and the 85 censuses of basecase(1..20, 15)."""
    yield "rational_census", (17, 12)
    for m in range(1, 21):
        for ell in range(1, verify.lstar(m, 15) + 1):
            yield "ellm_census_bounded", (ell, m, 15)


def golden_digests(impl):
    return {
        "%s%r" % (name, args): census_digest(getattr(impl, name)(*args))
        for name, args in golden_calls()
    }


@BACKENDS
def test_census_matches_golden_digests(impl):
    if impl is _kernels_py and not os.environ.get("QTCAT_FULL_BASECASE"):
        pytest.skip("pure-Python golden censuses are opt-in; set QTCAT_FULL_BASECASE=1")
    got = golden_digests(impl)
    assert len(got) == 86
    assert got == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    # rewrites the golden digests, from the pure-Python kernels only
    GOLDEN.write_text(json.dumps(golden_digests(_kernels_py), indent=1) + "\n")
