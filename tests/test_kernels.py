"""Both kernel backends must agree with each other, with the plain
generators in qtcat.paths and with committed census digests.  The `impl`
fixture (conftest.py) gives the pure-Python kernels or the C kernel built
from this tree."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from functools import lru_cache
from math import comb, gcd
from pathlib import Path
from types import SimpleNamespace

import pytest

from qtcat import _kernels_py, bijections, cycles, kernels, paths, verify
from qtcat.bijections import bounded_partitions

GOLDEN = Path(__file__).parent / "data" / "census_digests.json"
# per-level totals and digests of one C walk at lstar(1, 28); see its "source"
LEVELS_28 = Path(__file__).parent / "data" / "catalan_levels_28.json"


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


def walk_levels(ell, m, dstar):
    """ellm_census_levels(ell, m, dstar) counted path by path on the
    pure-Python walk from a_1 = m, at m = 1 too, where the kernels take the
    Garsia-Haglund recursion instead."""
    levels = [({}, {}) for _ in range(ell)]

    def count(i, d, ar, a):
        all_counts, max_counts = levels[i - 1]
        all_counts[d, ar] = all_counts.get((d, ar), 0) + 1
        if a[1] == 0:
            max_counts[d, ar] = max_counts.get((d, ar), 0) + 1

    _kernels_py._ellm_walk(ell, m, m, dstar, count, 1)
    return levels


# both backends, named last in the test ids: [5-3-python]
BACKENDS = pytest.mark.parametrize("impl", ["python", "c"], indirect=True)

# The C walk slides each try's degree from the one before it over a
# histogram of the earlier positions, and starts a level from the level
# above when m < ell.  These walks take each branch: m = 1, windows that
# reach past position 0 (v < m), and m >= ell, where every level's first
# try takes the plain sum.
SLIDES = [(7, 1, 6), (5, 2, 9), (4, 3, 10), (2, 6, 9), (3, 5, 12)]


@BACKENDS
@pytest.mark.parametrize("n,s", [(5, 3), (11, 5), (13, 8), (7, 2), (9, 1), (1, 7), (3, 10)])
def test_rational_census_matches_oracle(impl, n, s):
    assert impl.rational_census(n, s) == oracle_rational(n, s)


@BACKENDS
@pytest.mark.parametrize(
    "ell,m,dstar", [(1, 4, 9), (3, 2, 50), (4, 3, 6), (5, 2, 8), (2, 6, 0), *SLIDES]
)
def test_ellm_census_matches_oracle(impl, ell, m, dstar):
    # one walk at ell counts every level below it too
    want = [oracle_ellm(level, m, dstar) for level in range(1, ell + 1)]
    assert impl.ellm_census_levels(ell, m, dstar) == want


@BACKENDS
@pytest.mark.parametrize("ell", range(1, 8))
def test_catalan_census_matches_the_walk(impl, ell):
    # the m = 1 census comes from the recursion; every cut from dstar 0 to
    # past the largest degree C(ell+1, 2), where nothing is cut, and a dstar
    # far past it
    for dstar in [*range(comb(ell + 1, 2) + 2), 2**63 - 1]:
        assert impl.ellm_census_levels(ell, 1, dstar) == walk_levels(ell, 1, dstar), dstar


def level_totals(ell, census):
    """A level's totals and digest, as LEVELS_28 holds them."""
    all_counts, max_counts = census
    return {
        "ell": ell,
        "paths": sum(all_counts.values()),
        "keys": len(all_counts),
        "maximal": sum(max_counts.values()),
        "maximal_keys": len(max_counts),
        "digest": result_digest(census),
    }


def test_c_catalan_census_matches_the_walk_at_dstar_28(speedups):
    # the walk takes seconds here (70,374,634 paths over 131,198 keys), so
    # its levels are committed rather than walked again
    want = json.loads(LEVELS_28.read_text())["levels"]
    got = speedups.ellm_census_levels(verify.lstar(1, 28), 1, 28)
    assert [level_totals(ell, census) for ell, census in enumerate(got, 1)] == want
    assert sum(level["paths"] for level in want) == 70374634
    assert sum(level["keys"] for level in want) == 131198


@BACKENDS
@pytest.mark.parametrize("dstar", [15, 20, 24])
def test_catalan_census_matches_golden_digests(impl, dstar):
    # the m = 1 levels of the golden digests, which the walk wrote
    if impl is _kernels_py and dstar == 24 and not os.environ.get("QTCAT_FULL_BASECASE"):
        pytest.skip("pure-Python d* = 24 is opt-in; set QTCAT_FULL_BASECASE=1")
    golden = json.loads(GOLDEN.read_text())
    levels = impl.ellm_census_levels(verify.lstar(1, dstar), 1, dstar)
    for ell, census in enumerate(levels, 1):
        key = "ellm_census_bounded%r" % ((ell, 1, dstar),)
        assert result_digest(census) == golden[key], key


def levels_check_oracle(levels, m):
    """What census_levels_check returns for the dict census levels, with the
    pure-Python slice_witness."""
    return [
        (sum(all_counts.values()), sum(max_counts.values()),
         _kernels_py.slice_witness(all_counts, max_counts, paths.max_area(i, m)))
        for i, (all_counts, max_counts) in enumerate(levels, 1)
    ]


def levels_check_grid():
    """(backend, ell, m) for ell <= 7 and m <= 4 with at most 500,000
    (ell, m)-paths on C and 8,000 on pure Python, as each dstar walks again:
    all but (7, 4) on C, whose 2,330,445 paths take 2 s over its 114 cuts."""
    for ell in range(1, 8):
        for m in range(1, 5):
            n, s = m * (ell + 1) + 1, ell + 1
            count = comb(n + s, s) // (n + s)
            if count <= 8000:
                yield "python", ell, m
            if count <= 500000:
                yield "c", ell, m


@pytest.mark.parametrize("impl,ell,m", levels_check_grid(), indirect=["impl"])
def test_census_levels_check_matches_its_oracle(impl, ell, m):
    # every cut from dstar 0 to past the largest degree C(ell+1, 2) m, where
    # nothing is cut, and a dstar far past it; the cut census is the whole
    # one without the keys past dstar
    top = comb(ell + 1, 2) * m
    census = impl.ellm_census_levels(ell, m, top)
    for dstar in [*range(top + 2), 2**63 - 1]:
        levels = [
            tuple({key: c for key, c in table.items() if key[0] <= dstar} for table in level)
            for level in census
        ]
        got = impl.census_levels_check(ell, m, dstar)
        assert got == levels_check_oracle(levels, m), dstar


@pytest.mark.parametrize("dstar", [15, 20, 24])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_c_census_levels_check_matches_its_oracle_at_lstar(speedups, m, dstar):
    ell = verify.lstar(m, dstar)
    got = speedups.census_levels_check(ell, m, dstar)
    assert got == levels_check_oracle(speedups.ellm_census_levels(ell, m, dstar), m)


@BACKENDS
def test_slice_witness_sums_are_exact(impl, monkeypatch):
    # counts past int64 give OverflowError on C, never a verdict, and exact
    # witnesses on pure Python
    monkeypatch.setattr(kernels, "_impl", impl)
    M = 4
    cases = [
        # 2**62 paths at (0, 0) less the run -[0, M] of 2**62 maximal paths
        # at (0, M + 1): 2**62 twice in the cell (0, 0) of lhs - rhs
        ({(0, 0): 2**62}, {(0, M + 1): 2**62},
         (0, [(0, 2**63), *((j, 2**62) for j in range(1, M + 1))])),
        # the runs [0, M] and [1, M - 1] of 2**62 maximal paths each: 2**63
        # in the run sum at area 1
        ({}, {(0, 0): 2**62, (0, 1): 2**62},
         (0, [(0, -(2**62)), (1, -(2**63)), (2, -(2**63)), (3, -(2**63)), (4, -(2**62))])),
        ({(0, 0): 2**63}, {}, (0, [(0, 2**63)])),
        ({}, {(1, 0): -(2**63) - 1}, (1, [(j, 2**63 + 1) for j in range(M)])),
    ]
    for all_counts, max_counts, want in cases:
        if impl is _kernels_py:
            assert kernels.slice_witness(all_counts, max_counts, M) == want
        else:
            with pytest.raises(OverflowError):
                kernels.slice_witness(all_counts, max_counts, M)


@BACKENDS
def test_slice_witness_admits_every_census_check_slope_admits(impl, monkeypatch):
    # the widest, 2506/3, has the degrees 0..835 over M + 2 = 2,507 areas:
    # 2,095,852 cells; its rows are laid out here with one path each
    monkeypatch.setattr(kernels, "_impl", impl)
    table = {(d, 0): 1 for d in range(836)}
    assert kernels.slice_witness(table, {}, 2505) == (0, [(0, 1)])
    # 2**11 rows of 2**11 areas, exactly MAX_CELLS cells, and of one more
    kernels.check_slices({(2**11 - 1, 0): 1}, {}, 2**11 - 2)
    with pytest.raises(kernels.InputError):
        kernels.slice_witness({(2**11 - 1, 0): 1}, {}, 2**11 - 1)


@BACKENDS
@pytest.mark.parametrize("ell,m,dstar", [(1, 3, 5), (4, 3, 6), (5, 2, 8), *SLIDES])
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
    # the paths of every level 1..ell by degree; no level below ell holds a
    # degree above top, since a prefix's degree is at most its path's
    by_degree = [{} for _ in range(ell)]
    for level in range(1, ell + 1):
        for d, a, pos in universe(level, m):
            by_degree[level - 1].setdefault(d, []).append((a, pos))
    maximal = [(d, pos) for d, _, pos in rows if pos[1] == 0]
    # every degree bound on C; on the slow pure-Python walk five of them,
    # from 0 up to the largest degree (nothing pruned)
    bounds = {0, 1, top // 3, 2 * top // 3, top} if impl is _kernels_py else None
    census = [({}, {}) for _ in range(ell)]
    for dstar in range(top + 1):
        for (ac, mc), level in zip(census, by_degree):
            for a, pos in level.get(dstar, ()):
                ac[(dstar, a)] = ac.get((dstar, a), 0) + 1
                if pos[1] == 0:
                    mc[(dstar, a)] = mc.get((dstar, a), 0) + 1
        if bounds is None or dstar in bounds:
            assert impl.ellm_census_levels(ell, m, dstar) == census, dstar
            want = [(d, pos) for d, pos in maximal if d <= dstar]
            assert impl.ellm_maximal_bounded(ell, m, dstar) == want, dstar
            want = [(d, pos) for d, _, pos in rows if d <= dstar]
            assert impl.ellm_paths_bounded(ell, m, dstar) == want, dstar


@pytest.mark.parametrize("ell,m,dstar", [(14, 1, 12), (10, 2, 12), (6, 3, 12), (3, 7, 12)])
def test_sliding_degree_matches_python_on_deep_walks(speedups, ell, m, dstar):
    # deeper than the unpruned filter reaches: many slides per level
    for name, bound in [
        ("ellm_census_levels", dstar),
        ("ellm_maximal_bounded", dstar),
        ("ellm_paths_bounded", 8),
    ]:
        got = getattr(speedups, name)(ell, m, bound)
        assert got == getattr(_kernels_py, name)(ell, m, bound), name


# The histogram spans positions 0..(ell + 1)m + 1 and is kept only up to
# 2**16 entries; past that every try takes the plain sum.  At ell = 4 the
# span is 5m + 2: 65,532 entries at m = 13106, 65,537 at m = 13107.
@pytest.mark.parametrize("m", [13106, 13107])
def test_sliding_degree_on_each_side_of_the_histogram_cap(speedups, m):
    got = speedups.ellm_maximal_bounded(4, m, 8)
    assert got == _kernels_py.ellm_maximal_bounded(4, m, 8)
    assert len(got) == 41


@BACKENDS
def test_huge_m_walk_allocates_no_histogram(impl):
    # a histogram over positions 0..2m + 1 would take gigabytes
    assert impl.ellm_maximal_bounded(1, 5 * 10**8, 0) == [(0, (0, 0))]


@lru_cache(maxsize=None)
def q_binomial(N, k):
    """Coefficients of the Gaussian binomial [N choose k]_q, lowest first, by
    [N choose k] = [N-1 choose k-1] + q^k [N-1 choose k]."""
    if k == 0 or k == N:
        return (1,)
    low, high = q_binomial(N - 1, k - 1), q_binomial(N - 1, k)
    out = [0] * (k * (N - k) + 1)
    for i, c in enumerate(low):
        out[i] += c
    for i, c in enumerate(high):
        out[k + i] += c
    return tuple(out)


# the slopes of the n*s <= 120 conjecture sweep
SWEEP = [
    (n, s) for n in range(1, 121) for s in range(1, 121) if n * s <= 120 and gcd(n, s) == 1
]


@BACKENDS
def test_census_specialises_to_the_rational_q_catalan(impl, sweep_on_impl):
    # q^M C(q, 1/q) = [n+s-1 choose s]_q / [n]_q, an identity the census
    # does not define: a path counted under (degr d, area a) is the term
    # q^a t^(M-d-a), which becomes q^(2a+d); multiplying both sides by
    # [n]_q = 1 + q + ... + q^(n-1) keeps everything an integer list
    assert len(SWEEP) == 449
    for n, s in SWEEP:
        all_counts, _ = impl.rational_census(n, s)
        M = (n - 1) * (s - 1) // 2
        lhs = [0] * (2 * M + n)
        for (d, a), c in all_counts.items():
            for j in range(n):
                lhs[2 * a + d + j] += c
        assert tuple(lhs) == q_binomial(n + s - 1, s), (n, s)


def test_c_census_tables_match_python_on_the_sweep(speedups, sweep_census):
    # the whole (all, max) tables, not only the q-binomial marginal above
    tables, _ = sweep_census
    for n, s in SWEEP:
        assert speedups.rational_census(n, s) == tables[n, s], (n, s)


def test_division_free_gamma_step():
    # both census kernels take floor(|s*X - n*j| / s), 1 <= j < s, as
    # X - q - 1 when X > q and q - X otherwise, with q = floor(n*j/s); this
    # needs s*X != n*j, which gcd(n, s) = 1 guarantees
    checked = 0
    for n in range(1, 201):
        for s in range(2, 200 // n + 1):
            if gcd(n, s) != 1:
                continue
            for j in range(1, s):
                q = n * j // s
                for X in range(q - 3, q + 4):
                    nu = s * X - n * j
                    assert nu != 0
                    assert abs(nu) // s == (X - q - 1 if X > q else q - X), (n, s, j, X)
                    checked += 1
    assert checked == 186431


@pytest.mark.parametrize("n,s", [(20001, 2), (1001, 3)])
def test_thin_slopes_match_python(speedups, n, s):
    # M = 10,000 and 1,000, but only 10,001 and 167,501 paths
    assert speedups.rational_census(n, s) == _kernels_py.rational_census(n, s)


# The C census counts every slope into dense rows of M + 1 areas, grown to
# the largest degr met; the pure-Python one into dicts.  Thin slopes, with
# fewer paths than possible keys (19/4: 385 paths for 406 keys; every n/3,
# here 1447/3: 349,692 for 1,047,628; and 2893/2, one row of 1,447 areas),
# and thick ones (21/4: 506 for 496; 9/5, 11/5), where 101/4 grows its rows
# several times, must give the same tables.
@pytest.mark.parametrize(
    "n, s", [(19, 4), (21, 4), (9, 5), (11, 5), (101, 4), (1447, 3), (2893, 2)]
)
def test_c_census_matches_python_on_thin_and_thick_slopes(speedups, n, s):
    assert speedups.rational_census(n, s) == _kernels_py.rational_census(n, s)


# Each level of an (ell, m) census has its own width of areas in the C
# store's rows, and the rows stop at min(dstar, M) + 1: a wide level 1 with
# dstar 0, narrow deep levels, and a dstar far past every degree.
@pytest.mark.parametrize("ell, m, dstar", [(2, 300, 0), (3, 40, 6), (4, 2, 2**63 - 1)])
def test_c_levels_census_matches_python_on_the_store_widths(speedups, ell, m, dstar):
    got = speedups.ellm_census_levels(ell, m, dstar)
    assert got == _kernels_py.ellm_census_levels(ell, m, dstar)


def test_c_census_raises_memory_error_when_its_rows_are_refused(speedups):
    # the one row of 2**30 - 1 over 2 is 2**29 areas, 8 GiB of counts; a
    # child capped at 1 GiB of address space is refused it
    child = textwrap.dedent("""
        import importlib.util, resource, sys
        spec = importlib.util.spec_from_file_location("qtcat._speedups", sys.argv[1])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(hard, 1 << 30)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        try:
            module.rational_census(2**30 - 1, 2)
        except MemoryError:
            print("MemoryError")
        print(module.rational_census(5, 3)[0][0, 0])
    """)
    proc = subprocess.run(
        [sys.executable, "-c", child, speedups.__file__],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout == "MemoryError\n1\n", proc.stderr


def test_long_c_census_answers_sigint(speedups):
    # 29/20 has about 5.8 * 10**11 paths, hours of walking; the walk checks
    # for signals every 2**20 nodes, so ^C ends it at once
    child = textwrap.dedent("""
        import importlib.util, sys
        spec = importlib.util.spec_from_file_location("qtcat._speedups", sys.argv[1])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        print("walking", flush=True)
        try:
            module.rational_census(29, 20)
        except KeyboardInterrupt:
            print("KeyboardInterrupt", flush=True)
    """)
    proc = subprocess.Popen(
        [sys.executable, "-c", child, speedups.__file__], stdout=subprocess.PIPE, text=True
    )
    try:
        assert proc.stdout.readline() == "walking\n"
        time.sleep(0.5)
        assert proc.poll() is None, "the walk ended before the signal"
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=2)
    finally:
        proc.kill()
        proc.wait()
    assert out == "KeyboardInterrupt\n"


def test_c_lowest_tuple_matches_the_tuple_orbit(speedups):
    # the pure-Python backend is cycles.lowest_tuple itself; C must match it
    # on every path of a few small universes and on every maximal path that
    # computation 1 walks in basecase(1..20, 20)
    for ell, m in [(1, 3), (3, 2), (4, 3), (5, 2), (6, 1)]:
        for p in paths.enumerate_positions(ell, m):
            assert speedups.lowest_tuple(p.positions, m) == cycles.lowest_tuple(
                p.positions, m
            )
    checked = 0
    for m in range(1, 21):
        for _, a in speedups.ellm_maximal_bounded(verify.lstar(m, 20), m, 20):
            assert speedups.lowest_tuple(a, m) == cycles.lowest_tuple(a, m), (a, m)
            checked += 1
    assert checked == 13079


@BACKENDS
def test_lowest_tuple_orbit_past_the_area_range_raises(impl):
    # no path, but a tuple whose right orbit outruns the cap of max_area steps
    with pytest.raises(RuntimeError, match="orbit exceeded"):
        impl.lowest_tuple((-3, 1, -2), 1)


@lru_cache(maxsize=None)
def lowest_area(a, m):
    """The area of cycles.lowest_tuple(a, m), walked once per tuple."""
    return sum(cycles.lowest_tuple(a, m))


def orbit_loop(impl, ell, m, dstar):
    """maximal_orbit_check(ell, m, dstar) as a loop over impl's listing of
    the maximal paths: area(lowest(x)) <= M - height(x) - degr(x) on each
    x, with the tuple orbit and bijections.height_from_path."""
    M = paths.max_area(ell, m)
    checked = 0
    for d, a in impl.ellm_maximal_bounded(ell, m, dstar):
        checked += 1
        low = lowest_area(a, m)
        if low > M - bijections.height_from_path(a) - d:
            return checked, (d, a, low)
    return checked, None


@BACKENDS
def test_maximal_orbit_check_matches_the_loop(impl):
    # every dstar up to M + 1: from (ell - 1)m on, past the paper's range,
    # some path fails the bound, so the witness is checked as well as the
    # pass; the first two fail at the first path in walk order
    assert impl.maximal_orbit_check(3, 1, 2) == (1, (2, (0, 0, 1, 2), 3))
    assert impl.maximal_orbit_check(4, 2, 6) == (1, (6, (0, 0, 2, 4, 6), 12))
    verdicts = set()
    for ell in range(1, 6):
        for m in range(1, 4):
            for dstar in range(paths.max_area(ell, m) + 2):
                want = orbit_loop(impl, ell, m, dstar)
                assert impl.maximal_orbit_check(ell, m, dstar) == want, (ell, m, dstar)
                verdicts.add(want[1] is None)
    assert verdicts == {True, False}


@BACKENDS
def test_maximal_orbit_check_matches_the_loop_at_lstar(impl):
    # computation 1's own instances, m <= 7 and dstar <= 20 on C; the
    # pure-Python kernel is this loop over its own listing, so it stops at
    # dstar 15, past which each dstar costs it seconds
    top = 20 if impl is not _kernels_py else 15
    checked = 0
    for m in range(1, 8):
        for dstar in range(top + 1):
            ell = verify.lstar(m, dstar)
            want = orbit_loop(impl, ell, m, dstar)
            assert want[1] is None
            assert impl.maximal_orbit_check(ell, m, dstar) == want, (m, dstar)
            checked += want[0]
    assert checked == (43151 if top == 20 else 9804)


# every partition within the projection rule |lam| < (ell-2)m at these
# (ell, m), as (lam, m)
PROJECTIONS = [
    (lam, m)
    for ell, m in ((4, 3), (5, 2), (6, 2))
    for d in range((ell - 2) * m)
    for lam in bounded_partitions(d, ell - 1)
]


@BACKENDS
def test_projection_matches_the_tuple_orbit_oracle(impl, monkeypatch):
    # verify_projection walks its two orbits in the orbit kernel; on either
    # backend it gives the reports that cycles.lowest_tuple gives
    with monkeypatch.context() as mp:
        mp.setattr(kernels, "lowest_tuple", cycles.lowest_tuple)
        expected = [verify.verify_projection(lam, m) for lam, m in PROJECTIONS]
    monkeypatch.setattr(kernels, "_impl", impl)
    got = [verify.verify_projection(lam, m) for lam, m in PROJECTIONS]
    assert got == expected
    assert all(r.verdict for r in got)


# a census that could hold more than kernels.MAX_KEYS keys: every path of
# slope 10001/3 has its own (degr, area) key, 16,675,001 of them
TOO_MANY_KEYS = [("rational_census", (10001, 3))]
# two rows of 2**21 + 2 areas each: more than kernels.MAX_CELLS to compare
TOO_MANY_CELLS = [("slice_witness", ({(1, 0): 1}, {}, 2**21))]

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
    *TOO_MANY_KEYS,
    ("ellm_census_levels", (3, 2, -1)),
    ("ellm_census_levels", (0, 2, 3)),
    ("ellm_census_levels", (3, 0, 3)),
    ("ellm_census_levels", (3, 2, 2**63)),
    ("ellm_census_levels", (46340, 1, 0)),
    ("ellm_census_levels", (1, 2**30, 0)),
    ("ellm_census_levels", (kernels.MAX_DEPTH, 1, 0)),
    ("ellm_census_levels", (3, 1, -1)),
    ("ellm_census_levels", (0, 1, 3)),
    ("ellm_census_levels", (3, 1, 2**63)),
    ("ellm_maximal_bounded", (3, 2, -1)),
    ("ellm_maximal_bounded", (0, 1, 3)),
    ("ellm_maximal_bounded", (10**20, 1, 3)),
    ("ellm_maximal_bounded", (kernels.MAX_DEPTH, 1, 0)),
    ("ellm_paths_bounded", (3, 2, -1)),
    ("ellm_paths_bounded", (0, 2, 3)),
    ("ellm_paths_bounded", (3, 0, 3)),
    ("ellm_paths_bounded", (3, 2, 2**63)),
    ("ellm_paths_bounded", (2000, 1, 3)),
    ("ellm_paths_bounded", (kernels.MAX_DEPTH, 1, 0)),
    ("census_levels_check", (3, 2, -1)),
    ("census_levels_check", (0, 2, 3)),
    ("census_levels_check", (3, 0, 3)),
    ("census_levels_check", (3, 2, 2**63)),
    ("census_levels_check", (46340, 1, 0)),
    ("census_levels_check", (kernels.MAX_DEPTH, 1, 0)),
    ("slice_witness", ({}, {}, -1)),
    ("slice_witness", ({}, {}, 2**31)),
    ("slice_witness", ({(-1, 0): 1}, {}, 3)),
    ("slice_witness", ({(0, -1): 1}, {}, 3)),
    ("slice_witness", ({}, {(1, 4): 1}, 3)),
    ("slice_witness", ({(5, 0): 1}, {}, 3)),
    *TOO_MANY_CELLS,
    ("maximal_orbit_check", (3, 2, -1)),
    ("maximal_orbit_check", (0, 1, 3)),
    ("maximal_orbit_check", (10**20, 1, 3)),
    ("maximal_orbit_check", (kernels.MAX_DEPTH, 1, 0)),
    ("lowest_tuple", ((0, 1, 2), 0)),
    ("lowest_tuple", ((0,) * (kernels.MAX_DEPTH + 1), 1)),
    ("lowest_tuple", ((0, 2**31), 1)),
]


@BACKENDS
def test_census_rejects_bad_input(impl, monkeypatch):
    # each backend guards itself against the inputs that are no path universe
    with pytest.raises(ValueError):
        impl.rational_census(6, 3)
    with pytest.raises(ValueError):
        impl.ellm_census_levels(3, 2, -1)
    with pytest.raises(ValueError):
        impl.ellm_census_levels(3, 1, -1)
    with pytest.raises(ValueError):
        impl.ellm_maximal_bounded(3, 2, -1)
    with pytest.raises(ValueError):
        impl.ellm_paths_bounded(3, 2, -1)
    with pytest.raises(ValueError):
        impl.census_levels_check(3, 2, -1)
    with pytest.raises(ValueError):
        impl.maximal_orbit_check(3, 2, -1)
    # and qtcat.kernels checks every input before it dispatches, so each
    # backend rejects the same inputs with the same InputError
    monkeypatch.setattr(kernels, "_impl", impl)
    for name, args in BAD_INPUT:
        with pytest.raises(kernels.InputError):
            getattr(kernels, name)(*args)
        # the one-level census is the levels census, checked the same way
        if name == "ellm_census_levels":
            with pytest.raises(kernels.InputError):
                kernels.ellm_census_bounded(*args)


@BACKENDS
def test_census_accepts_the_deepest_slope(impl):
    # s = MAX_DEPTH is inside the limits, on the recursive pure-Python walk too
    assert impl.rational_census(1, kernels.MAX_DEPTH) == ({(0, 0): 1}, {(0, 0): 1})


def test_c_kernel_rejects_out_of_range_input(speedups):
    # its own guard, for callers that bypass qtcat.kernels; it keeps the
    # int64 arithmetic in range, while the bound on a census's size is
    # qtcat.kernels' alone
    for name, args in BAD_INPUT:
        if (name, args) in TOO_MANY_KEYS + TOO_MANY_CELLS:
            continue
        with pytest.raises((ValueError, OverflowError)):
            getattr(speedups, name)(*args)
    for a in [(0,), tuple(range(514)), (0, -(2**31)), (0, 2**63)]:
        with pytest.raises((ValueError, OverflowError)):
            speedups.lowest_tuple(a, 1)


# every kernel of the contract, with one input that qtcat.kernels admits
KERNELS = {
    "rational_census": (5, 3),
    "ellm_census_levels": (3, 1, 4),
    "ellm_paths_bounded": (3, 2, 4),
    "ellm_maximal_bounded": (3, 2, 4),
    "census_levels_check": (3, 1, 4),
    "slice_witness": ({(0, 0): 1}, {}, 2),
    "maximal_orbit_check": (3, 2, 4),
    "lowest_tuple": ((0, 0, 2), 1),
}


def test_selected_backend_exports(request, monkeypatch):
    assert kernels.BACKEND in ("c", "python")
    assert kernels.rational_census(5, 3) == oracle_rational(5, 3)
    assert kernels.ellm_paths_bounded(4, 3, 5) == [
        (paths.degr_alpha(p), p.positions)
        for p in paths.enumerate_positions(4, 3)
        if paths.degr_alpha(p) <= 5
    ]
    assert kernels.lowest_tuple((0, 0, 2, 2, 1), 3) == (0, 2, 4, 7, 10)
    # qtcat.kernels dispatches each kernel of the contract
    stub = {name: lambda *args, name=name: (name, args) for name in KERNELS}
    monkeypatch.setattr(kernels, "_impl", SimpleNamespace(**stub))
    for name, args in KERNELS.items():
        assert getattr(kernels, name)(*args) == (name, args)
    # and each backend exports those kernels and BACKEND, and nothing else
    # public: the pure-Python one its own functions and qtcat.cycles'
    # lowest_tuple
    contract = {*KERNELS, "BACKEND"}
    own = {
        name for name, value in vars(_kernels_py).items()
        if not name.startswith("_")
        and getattr(value, "__module__", None) == _kernels_py.__name__
    }
    assert own | {"lowest_tuple", "BACKEND"} == contract
    assert _kernels_py.lowest_tuple is cycles.lowest_tuple
    speedups = request.getfixturevalue("speedups")
    assert {name for name in dir(speedups) if not name.startswith("_")} == contract


def test_backends_agree_on_larger_instance(speedups):
    assert speedups.rational_census(16, 9) == _kernels_py.rational_census(16, 9)
    assert speedups.ellm_census_levels(6, 3, 10) == _kernels_py.ellm_census_levels(
        6, 3, 10
    )
    # list results must agree element for element, same order included
    assert speedups.ellm_maximal_bounded(8, 3, 20) == _kernels_py.ellm_maximal_bounded(
        8, 3, 20
    )
    assert speedups.ellm_paths_bounded(8, 3, 12) == _kernels_py.ellm_paths_bounded(
        8, 3, 12
    )


def result_digest(result):
    """SHA-256 of a kernel result: a census as its sorted (all_counts,
    max_counts) tables, a listing as it is, in walk order."""
    if isinstance(result, tuple):
        result = [sorted(table.items()) for table in result]
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()


def golden_calls():
    """The 17/12 and 19/13 censuses, the censuses of basecase(1..20, d*) at
    d* = 15 and 20, the maximal listings of basecase(1..20, 20), and past the
    paper's bound the censuses and maximal listings of basecase(1..24, 24)."""
    yield "rational_census", (17, 12)
    for m in range(1, 21):
        yield "ellm_census_levels", (verify.lstar(m, 15), m, 15)
    yield "rational_census", (19, 13)
    for m in range(1, 21):
        yield "ellm_census_levels", (verify.lstar(m, 20), m, 20)
    for m in range(1, 21):
        yield "ellm_maximal_bounded", (verify.lstar(m, 20), m, 20)
    for m in range(1, 25):
        yield "ellm_census_levels", (verify.lstar(m, 24), m, 24)
    for m in range(1, 25):
        yield "ellm_maximal_bounded", (verify.lstar(m, 24), m, 24)


def golden_digests(impl):
    """Digest per call, keyed by the call; a levels census counts as one
    ellm_census_bounded(ell, m, dstar) call per level ell."""
    digests = {}
    for name, args in golden_calls():
        result = getattr(impl, name)(*args)
        if name == "ellm_census_levels":
            _, m, dstar = args
            for ell, census in enumerate(result, 1):
                digests["ellm_census_bounded%r" % ((ell, m, dstar),)] = result_digest(census)
        else:
            digests["%s%r" % (name, args)] = result_digest(result)
    return digests


@BACKENDS
def test_census_matches_golden_digests(impl):
    if impl is _kernels_py and not os.environ.get("QTCAT_FULL_BASECASE"):
        pytest.skip("pure-Python golden censuses are opt-in; set QTCAT_FULL_BASECASE=1")
    got = golden_digests(impl)
    assert len(got) == 369
    assert got == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    # rewrites the golden digests from the pure-Python kernels only, every
    # census from the walk, m = 1 too
    walked = SimpleNamespace(**{**vars(_kernels_py), "ellm_census_levels": walk_levels})
    GOLDEN.write_text(json.dumps(golden_digests(walked), indent=1) + "\n")
