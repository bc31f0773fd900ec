import itertools
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtcat import paths
from qtcat.paths import (
    EllMPath,
    PositionPath,
    RationalDyckPath,
    area,
    degr_alpha,
    degr_delta,
    degr_delta_parts,
    degr_epsilon,
    degr_rational,
    dinv,
    ellm_to_rational,
    enumerate_bounded,
    enumerate_ellm,
    enumerate_positions,
    enumerate_rational,
    is_maximal,
    max_area,
    max_area_rational,
    parse_path_text,
    positions_to_steps,
    rational_to_ellm,
    stats,
    steps_of_positions,
    steps_to_positions,
    under,
)


def staircase(ell, m):
    return EllMPath(ell, m, (m,) * (ell + 1))


# ---------------------------------------------------------------------------
# construction and conversions


def test_validation_rejects_bad_paths():
    with pytest.raises(ValueError):
        EllMPath(2, 2, (3, 2, 1))  # prefix sum over the diagonal
    with pytest.raises(ValueError):
        EllMPath(2, 2, (1, 1, 1))  # wrong total
    with pytest.raises(ValueError):
        RationalDyckPath(6, 3, (1, 2, 3))  # not coprime
    with pytest.raises(ValueError):
        RationalDyckPath(5, 3, (1, 3, 1))  # touches the diagonal
    with pytest.raises(ValueError):
        PositionPath(2, (1, 0, 0))  # a_0 != 0
    with pytest.raises(ValueError):
        PositionPath(2, (0, 3, 0))  # rise over m


def test_conversion_golden():
    p = EllMPath(5, 2, (1, 3, 0, 2, 2, 4))
    assert steps_to_positions(p).positions == (0, 1, 0, 2, 2, 2)
    q = EllMPath(5, 5, (3, 0, 12, 1, 2, 12))
    assert steps_to_positions(q).positions == (0, 2, 7, 0, 4, 7)
    assert positions_to_steps(PositionPath(2, (0, 1, 0, 2, 2, 2))).steps == (
        1, 3, 0, 2, 2, 4,
    )
    s = staircase(4, 3)
    assert steps_to_positions(s).positions == (0, 0, 0, 0, 0)
    assert positions_to_steps(PositionPath(3, (0, 0, 0, 0, 0))) == s


def test_round_trip_exhaustive():
    for ell in range(1, 7):
        for m in range(1, 5):
            if ell * m > 12:
                continue
            for p in enumerate_ellm(ell, m):
                q = steps_to_positions(p)
                assert positions_to_steps(q) == p
                # the tuple helper the listings print from gives the same steps
                assert steps_of_positions(q.positions, m) == p.steps
                assert steps_of_positions(q.positions, m) == positions_to_steps(q).steps


def test_rational_correspondence_round_trip():
    for p in enumerate_ellm(3, 2):
        assert rational_to_ellm(ellm_to_rational(p)) == p


# ---------------------------------------------------------------------------
# M and area


def test_max_area():
    assert max_area_rational(13, 8) == 42
    assert max_area_rational(5, 3) == 4
    for m in range(1, 6):
        assert max_area(2, m) == 3 * m
    with pytest.raises(ValueError):
        max_area_rational(6, 3)


def test_area_golden():
    assert area(EllMPath(5, 2, (1, 3, 0, 2, 2, 4))) == 7
    assert area(staircase(4, 3)) == 0
    assert area(PositionPath(5, (0, 4, 9, 12, 6, 6, 6, 7, 12, 8))) == 70


def test_area_position_sum_agrees():
    for p in enumerate_ellm(4, 3):
        assert area(p) == sum(steps_to_positions(p).positions)


# ---------------------------------------------------------------------------
# degr in all four formulations


def test_degr_worked_example():
    p = EllMPath(5, 5, (3, 0, 12, 1, 2, 12))
    plus, minus = degr_delta_parts(p)
    assert (plus, minus) == (8, 20)
    assert degr_delta(p) == 28
    assert degr_epsilon(p) == 28
    assert degr_alpha(steps_to_positions(p)) == 28


def test_degr_epsilon0_corrections():
    # the four i=0 correction terms of the worked example
    xs, m = (3, 0, 12, 1, 2, 12), 5
    eps0 = [max(0, m * (j + 1) - sum(xs[: j + 1]) - m) for j in range(1, 5)]
    assert eps0 == [2, 0, 0, 2]


def test_degr_small_example():
    p = EllMPath(5, 2, (1, 3, 0, 2, 2, 4))
    assert degr_delta(p) == 9
    assert degr_epsilon(p) == 9
    assert degr_alpha(steps_to_positions(p)) == 9
    assert degr_delta(staircase(5, 2)) == 0


def test_degr_rational_vs_delta_on_11_5():
    seen = 0
    for rp in enumerate_rational(11, 5):
        ep = rational_to_ellm(rp)
        assert degr_rational(rp) == degr_delta(ep)
        assert area(rp) == area(ep)
        assert is_maximal(rp) == is_maximal(ep)
        seen += 1
    assert seen == 273  # |D_{11/5}| = C(16,5)/16


def test_degr_rational_staircase():
    # slope (sm+1)/s analogue of the staircase: last step m+1
    p = RationalDyckPath(11, 5, (2, 2, 2, 2, 3))
    assert degr_rational(p) == 0 and area(p) == 0


# ---------------------------------------------------------------------------
# dinv / under / maximality


def test_dinv_examples():
    # D_{5/3}: maximal path with area 0 has dinv 4; area-1 maximal has dinv 2
    vals = {}
    for p in enumerate_rational(5, 3):
        if is_maximal(p):
            vals[area(p)] = dinv(p)
    assert vals == {0: 4, 1: 2}
    s = staircase(3, 2)
    assert dinv(s) == max_area(3, 2)


def test_stats_identity():
    for p in enumerate_ellm(4, 2):
        st_ = stats(p)
        assert st_.area + st_.degr + st_.dinv == st_.M


def test_under_and_maximal():
    from fractions import Fraction

    count = 0
    for p in enumerate_rational(5, 3):
        if is_maximal(p):
            assert under(p) == Fraction(1, 3)
            count += 1
    assert count == 2
    assert is_maximal(staircase(3, 4))
    assert not is_maximal(EllMPath(2, 2, (0, 2, 4)))


def test_is_maximal_matches_under_reference():
    # is_maximal tests the least gap in integers; the reference is the
    # definition with exact fractions, under(p) == 1/s (every path of slope
    # n/1 is maximal)
    from fractions import Fraction

    checked = 0
    for n in range(1, 61):
        for s in range(1, 61):
            if n * s > 60 or gcd(n, s) != 1:
                continue
            for p in enumerate_rational(n, s):
                want = s == 1 or under(p) == Fraction(1, s)
                assert is_maximal(p) == want, (n, s, p.steps)
                checked += 1
    assert checked == 5355


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_rational(5, 3)) == 7
    assert sum(1 for p in enumerate_rational(13, 8) if degr_rational(p) == 19) == 36
    for m in range(1, 5):
        assert sum(1 for _ in enumerate_ellm(1, m)) == m + 1
        ps = [steps_to_positions(p).positions for p in enumerate_ellm(1, m)]
        assert sorted(ps) == [(0, a) for a in range(m + 1)]


def test_enumeration_is_lexicographic_and_unique():
    seen = [p.steps for p in enumerate_rational(7, 5)]
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))
    seen = [p.steps for p in enumerate_ellm(3, 3)]
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))


def test_enumerate_positions_matches_ellm():
    a = {p.positions for p in enumerate_positions(3, 2)}
    b = {steps_to_positions(p).positions for p in enumerate_ellm(3, 2)}
    assert a == b


def test_enumerate_bounded_matches_filter():
    for ell, m, dstar in [(2, 25, 20), (3, 3, 4), (4, 2, 0), (4, 3, 5)]:
        got = sorted((d, p.steps) for d, p in enumerate_bounded(ell, m, dstar))
        want = sorted(
            (degr_delta(p), p.steps)
            for p in enumerate_ellm(ell, m)
            if degr_delta(p) <= dstar
        )
        assert got == want


def test_enumerate_bounded_degree_is_alpha():
    for d, p in enumerate_bounded(3, 3, 6):
        assert d == degr_alpha(steps_to_positions(p))


def test_pruning_increment_is_monotone():
    # the running degree never decreases when a coordinate is appended
    for ell in range(1, 6):
        for m in range(1, 5):
            if ell * m > 10:
                continue
            for p in enumerate_positions(ell, m):
                a = p.positions
                degs = [
                    degr_alpha(PositionPath(m, a[: i + 1]))
                    for i in range(1, ell + 1)
                ]
                assert degs == sorted(degs), (a, m)


@st.composite
def prefix_and_next_position(draw):
    """m, positions a_0..a_{i-1} (i >= 2) and a next position v."""
    m = draw(st.integers(1, 8))
    a = [0]
    for _ in range(draw(st.integers(1, 10))):
        a.append(draw(st.integers(0, a[-1] + m)))
    return m, a, draw(st.integers(0, a[-1] + m))


@given(prefix_and_next_position())
def test_pruning_step_increment_is_never_negative(case):
    # The kernels and enumerate_bounded cut a prefix once its running degree
    # exceeds dstar.  That is sound only because appending a_i = v never
    # lowers the degree: the increment -max(0, v-m) + sum_{k<i} alpha(a_k, v)
    # is never negative.
    m, a, v = case
    inc = -max(0, v - m) + sum(paths.alpha(a[k], v, m) for k in range(1, len(a)))
    assert inc >= 0
    assert inc == degr_alpha(PositionPath(m, a + [v])) - degr_alpha(PositionPath(m, a))


# ---------------------------------------------------------------------------
# degree bounds under prepending a step


def ellm_from_prefix(ell, m, prefix):
    return EllMPath(ell, m, tuple(prefix) + (m * (ell + 1) - sum(prefix),))


def test_prepend_step_degree_bound():
    ell, m = 4, 2
    for p in enumerate_ellm(ell - 1, m):
        for x0 in range(m + 1):
            q = ellm_from_prefix(ell, m, (x0,) + p.steps[:-1])
            assert degr_delta(q) <= x0 * (ell - 1) + degr_delta(p)


def test_prepend_step_deep_equality():
    # when every proper prefix stays at least m below the diagonal, the
    # degree increase from the first step is exactly x0(ell-1)
    ell, m = 4, 2
    for p in enumerate_ellm(ell, m):
        xs = p.steps
        if all(sum(xs[: j + 1]) - m * (j + 1) <= -m for j in range(1, ell)):
            tail = ellm_from_prefix(ell - 1, m, xs[1:ell])
            assert degr_delta(p) == xs[0] * (ell - 1) + degr_delta(tail)


# ---------------------------------------------------------------------------
# text formats


def test_text_round_trip():
    p = parse_path_text("1,3,0,2,2,4", m=2)
    assert isinstance(p, EllMPath) and p.steps == (1, 3, 0, 2, 2, 4)
    q = parse_path_text("pos:0,1,0,2,2,2", m=2)
    assert isinstance(q, PositionPath)
    assert positions_to_steps(q) == p
    r = parse_path_text("2,2,2,2,3", slope=(11, 5))
    assert isinstance(r, RationalDyckPath)


@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_random_path_statistics_consistent(ell, m, seed):
    all_paths = list(enumerate_ellm(ell, m))
    p = all_paths[seed % len(all_paths)]
    pos = steps_to_positions(p)
    assert degr_delta(p) == degr_epsilon(p) == degr_alpha(pos)
    assert area(p) == sum(pos.positions)
