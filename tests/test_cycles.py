import pytest

from qtcat import cycles, paths
from qtcat.bijections import BoundedPartition, bounded_partitions
from qtcat.cycles import (
    cycleleft_tuple,
    cycleright_tuple,
    is_connected,
    left_tuple,
    lowest_tuple,
    pair_tuple,
    point_tuple,
    right_tuple,
    string_of,
)
from qtcat.paths import PositionPath, area, degr_alpha, enumerate_positions, is_maximal

M5 = 5

# the right-orbit around x^0 = [0,4,9,12,6,6,6,7,12,8]; each row carries its
# (pair, point) tuple
CYCLE_TABLE = [
    (-5, (0, 4, 7, 12, 8, 11, 8, 5, 5, 5), (2, 1)),
    (-4, (0, 4, 6, 7, 12, 8, 11, 8, 5, 5), (1, 1)),
    (-3, (0, 4, 6, 6, 7, 12, 8, 11, 8, 5), (1, 1)),
    (-2, (0, 4, 6, 6, 6, 7, 12, 8, 11, 8), (1, 1)),
    (-1, (0, 4, 9, 6, 6, 6, 7, 12, 8, 11), (1, 2)),
    (0, (0, 4, 9, 12, 6, 6, 6, 7, 12, 8), (2, 1)),
    (1, (0, 4, 9, 9, 12, 6, 6, 6, 7, 12), (1, 2)),
    (2, (0, 4, 9, 13, 9, 12, 6, 6, 6, 7), (2, 1)),
    (3, (0, 4, 8, 9, 13, 9, 12, 6, 6, 6), (1, 1)),
    (4, (0, 4, 7, 8, 9, 13, 9, 12, 6, 6), (1, 1)),
    (5, (0, 4, 7, 7, 8, 9, 13, 9, 12, 6), (1, 1)),
    # the published tuple for this row is (1,6); the minimal-index definition
    # of point (and the construction it feeds) gives 5, and either value
    # makes the row unrightable -- see the build notes
    (6, (0, 4, 7, 7, 7, 8, 9, 13, 9, 12), (1, 5)),
]


def test_cycle_table_pair_point():
    for _, a, (pr, pt) in CYCLE_TABLE:
        assert pair_tuple(a, M5) == pr, a
        assert point_tuple(a, M5) == pt, a


def test_cycle_table_right_left_chain():
    rows = {k: a for k, a, _ in CYCLE_TABLE}
    for k in range(-5, 6):
        assert right_tuple(rows[k], M5) == rows[k + 1]
    for k in range(6, -4, -1):
        assert left_tuple(rows[k], M5) == rows[k - 1]
    assert right_tuple(rows[6], M5) is None  # unrightable top
    assert left_tuple(rows[-5], M5) is None  # unleftable bottom


def test_point_pair_trivia():
    z = (0, 0, 0, 0)
    assert point_tuple(z, 3) == 0
    assert pair_tuple(z, 3) == 0


def test_left_rejects_maximal():
    z = (0, 0, 2, 1)
    with pytest.raises(ValueError, match="left is undefined on maximal paths"):
        left_tuple(z, 3)


def test_cycle_tuple_identities():
    # cycleleft undoes cycleright on raw coordinate tuples
    a = (0, 4, 9, 12, 6, 6, 6, 7, 12, 8)
    for i in range(len(a) - 1):
        b = cycleright_tuple(i, a)
        assert len(b) == len(a)
        assert cycleleft_tuple(i, b) == a
        assert sum(b) == sum(a) + 1  # area moves up by exactly 1


def test_inverse_pair_exhaustive():
    for ell in range(2, 6):
        for m in range(1, 4):
            if ell * m > 12:
                continue
            for p in enumerate_positions(ell, m):
                a = p.positions
                r = right_tuple(a, m)
                if r is not None:
                    rp = PositionPath(m, r)
                    assert not is_maximal(rp)
                    assert degr_alpha(rp) == degr_alpha(p)
                    assert area(rp) == area(p) + 1
                    assert left_tuple(r, m) == a
                if not is_maximal(p):
                    l = left_tuple(a, m)
                    if l is not None:
                        lp = PositionPath(m, l)
                        assert degr_alpha(lp) == degr_alpha(p)
                        assert area(lp) == area(p) - 1
                        assert right_tuple(l, m) == a


def test_lowest_examples():
    assert lowest_tuple((0, 0, 2, 1, 2, 1), 3) == (0, 2, 5, 7, 9, 12)
    assert lowest_tuple((0, 0, 1, 0, 1), 3) == (0, 3, 5, 7, 10)
    top = (0, 4, 7, 7, 7, 8, 9, 13, 9, 12)
    assert lowest_tuple(top, M5) == top  # already unrightable


def areas(orbit, m):
    return [area(PositionPath(m, a)) for a in orbit]


def test_string_of_structure():
    lam = BoundedPartition.from_multiplicities([1, 1, 0])  # (3,2), ell=4
    st = string_of(lam, 3)
    assert areas(st, 3) == list(range(5, 24))
    assert all(degr_alpha(PositionPath(3, a)) == 5 for a in st)
    assert is_maximal(PositionPath(3, st[0]))
    assert right_tuple(st[-1], 3) is None

    lam2 = BoundedPartition.from_multiplicities([0, 0, 5])  # (1,1,1,1,1)
    st2 = string_of(lam2, 3)
    assert areas(st2, 3) == list(range(2, 19))
    assert st2[0] == (0, 0, 0, 2, 0)

    with pytest.raises(ValueError):
        string_of(BoundedPartition((1,) * 9, 1), 3)  # size >= (ell-1)m


# every string at (ell, m) = (4, 3) with d <= 5, (5, 2) with d <= 7 and
# (3, 4) with d <= 7, as (ell, m, lam)
STRINGS = [
    (ell, m, lam)
    for ell, m, dmax in ((4, 3, 5), (5, 2, 7), (3, 4, 7))
    for d in range(dmax + 1)
    for lam in bounded_partitions(d, ell - 1)
]


@pytest.mark.parametrize(
    "ell, m, lam", STRINGS,
    ids=["%d,%d:%s" % (ell, m, "-".join(map(str, lam.parts)) or "0") for ell, m, lam in STRINGS],
)
def test_string_elements_are_paths_of_its_degree_with_consecutive_areas(ell, m, lam):
    st = string_of(lam, m)
    for a in st:
        assert type(a) is tuple and len(a) == ell + 1
        assert degr_alpha(PositionPath(m, a)) == lam.size()  # PositionPath checks a
    first = area(PositionPath(m, st[0]))
    assert areas(st, m) == list(range(first, first + len(st)))


def test_string_extendable_table_intervals():
    # the five degree-5 strings at (ell, m) = (4, 3)
    expected = {
        (3, 2): (5, 23),
        (3, 1, 1): (4, 22),
        (2, 2, 1): (3, 20),
        (2, 1, 1, 1): (3, 19),
        (1, 1, 1, 1, 1): (2, 18),
    }
    for parts, (lo, hi) in expected.items():
        got = areas(string_of(BoundedPartition(parts, 3), 3), 3)
        assert got[0] == lo and got[-1] == hi


def test_is_connected():
    # red entries of the degree-5 slice at (4,3) are disconnected
    assert not is_connected((0, 3, 6, 9, 3), 3)
    assert not is_connected((0, 3, 4, 6, 9), 3)
    # maximal paths are trivially connected
    assert is_connected((0, 0, 2, 1), 3)
    # every D_{2,m}^d element for d < m is connected
    for m in range(1, 5):
        for p in enumerate_positions(2, m):
            if degr_alpha(p) < m:
                assert is_connected(p.positions, m)


def test_orbit_longer_than_the_area_range_raises():
    # each step moves the area by one, so an orbit holds at most
    # max_area + 1 tuples; one step more is a bug and raises, not loops
    a = (0, 1, 2)  # max_area(2, 1) = 3

    def stepping(times):
        budget = iter(range(times))
        return lambda b, m: b if next(budget, None) is not None else None

    assert len(list(cycles._orbit(a, 1, stepping(3)))) == 4
    with pytest.raises(RuntimeError, match="orbit exceeded"):
        list(cycles._orbit(a, 1, stepping(4)))
