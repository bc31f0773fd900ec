import pytest

from qtcat import cycles, kernels, verify
from qtcat.bijections import (
    BoundedPartition,
    ZeroOneMatrix,
    bounded_partitions,
    contacts,
    enumerate_matrices,
    f,
    f_inv,
    g,
    g_inv,
    height,
    height_from_path,
    hook_rows,
    iota,
    ones,
    size,
    width,
    zeros,
)
from qtcat.paths import (
    PositionPath,
    area,
    degr_alpha,
    enumerate_positions,
    is_maximal,
)

BIG = BoundedPartition((8, 7, 5, 5, 4, 3, 3, 2, 1, 1), 8)


# ---------------------------------------------------------------------------
# partitions


def test_partition_forms():
    lam = BoundedPartition((4, 2, 1), 4)
    assert lam.multiplicities() == (1, 0, 1, 1)
    assert BoundedPartition.from_multiplicities((1, 0, 1, 1)) == lam
    assert BoundedPartition.from_multiplicities((1, 1, 0)) == BoundedPartition((3, 2), 3)
    empty = BoundedPartition((), 4)
    assert empty.multiplicities() == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        BoundedPartition((5, 2), 4)  # part above bound
    with pytest.raises(ValueError):
        BoundedPartition((2, 3), 4)  # not weakly decreasing


def test_bounded_partitions_enumeration():
    got = [p.parts for p in bounded_partitions(5, 3)]
    assert got == [(3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
    assert [p.parts for p in bounded_partitions(0, 3)] == [()]
    assert list(bounded_partitions(3, 0)) == []


def test_hook_rows_and_statistics():
    assert hook_rows(BIG) == [1, 2, 4, 8]
    assert height(BIG) == 10
    assert width(BIG) == 8 + 7 + 5 + 2  # hook-row lengths
    assert size(BIG) == 39
    empty = BoundedPartition((), 4)
    assert hook_rows(empty) == [] and width(empty) == 0 and height(empty) == 0
    # for bound 1 every row is a hook row
    lam = BoundedPartition((1,) * 4, 1)
    assert hook_rows(lam) == [1, 2, 3, 4]
    assert width(lam) == 4 and height(lam) == 4


# ---------------------------------------------------------------------------
# matrices


STATS_MATRIX = ZeroOneMatrix.from_text(
    """
    011111101
    011101101
    001101001
    001001***
    *********
    """
)


def test_matrix_statistics_example():
    assert zeros(STATS_MATRIX) == 14
    assert ones(STATS_MATRIX) == 19
    assert contacts(STATS_MATRIX) == 51


def test_matrix_text_round_trip():
    assert ZeroOneMatrix.from_text(STATS_MATRIX.to_text()) == STATS_MATRIX


def test_matrix_validation():
    with pytest.raises(ValueError):
        ZeroOneMatrix.from_text("10\n**")  # first entry not 0
    with pytest.raises(ValueError):
        ZeroOneMatrix.from_text("00\n**")  # last non-* not 1
    with pytest.raises(ValueError):
        ZeroOneMatrix.from_text("0*\n01")  # * before non-*
    with pytest.raises(ValueError):
        ZeroOneMatrix.from_text("01\n01\n11")  # wait: 0 above 1


def test_single_contact():
    M = ZeroOneMatrix.from_text("01")
    assert contacts(M) == 1


# ---------------------------------------------------------------------------
# g


def test_g_worked_example():
    M = g(BIG, 5)
    assert M.to_text() == "\n".join(
        ["011111111", "011111101", "011011001", "01001****", "*********"]
    )
    assert zeros(M) == height(BIG)
    assert ones(M) == width(BIG)
    assert contacts(M) == size(BIG)
    assert g_inv(M) == BIG


def test_g_n0_example():
    lam = BoundedPartition((4, 2, 1), 4)
    M = g(lam, 3)
    assert M.to_text() == "\n".join(["01111", "0101*", "*****"])
    assert f(M).positions == (0, 0, 2, 1, 2, 1)


def test_g_empty_partition():
    M = g(BoundedPartition((), 4), 3)
    assert M.to_text() == "\n".join(["*****"] * 3)
    assert contacts(M) == 0
    assert g_inv(M) == BoundedPartition((), 4)
    assert f(M).positions == (0,) * 6  # the unique degree-0 maximal path


def test_g_rejects_oversized():
    with pytest.raises(ValueError):
        g(BoundedPartition((1,) * 6, 1), 3)  # size >= (ell-1)m = 6


def test_g_transport_exhaustive():
    for ell in range(2, 6):
        for m in range(1, 4):
            if ell * m > 12:
                continue
            for lam in all_partitions_below(ell, m):
                M = g(lam, m)
                assert zeros(M) == height(lam)
                assert ones(M) == width(lam)
                assert contacts(M) == size(lam)
                assert g_inv(M) == lam


def all_partitions_below(ell, m):
    for d in range((ell - 1) * m):
        yield from bounded_partitions(d, ell - 1)


# ---------------------------------------------------------------------------
# f


def test_f_examples():
    lam = BoundedPartition((2, 1), 3)
    assert f(g(lam, 3)).positions == (0, 0, 1, 0, 1)


def test_f_inverse_exhaustive():
    m, ell = 3, 4
    for M in enumerate_matrices(m, ell, max_contacts=(ell - 1) * m):
        p = f(M)
        assert is_maximal(p)
        assert area(p) == ones(M)
        assert degr_alpha(p) == contacts(M)
        assert f_inv(p) == M


def test_f_inv_rejects_non_maximal():
    with pytest.raises(ValueError):
        f_inv(PositionPath(3, (0, 1, 0, 1)))


def test_composition_hits_every_maximal_path():
    # f(g(.)) is a bijection onto the maximal paths of degree < (ell-1)m
    for ell in range(2, 5):
        for m in range(1, 4):
            images = {f(g(lam, m)).positions for lam in all_partitions_below(ell, m)}
            targets = {
                p.positions
                for p in enumerate_positions(ell, m)
                if is_maximal(p) and degr_alpha(p) < (ell - 1) * m
            }
            assert images == targets


def test_maximal_position_bound():
    # maximal paths of degree < (ell-1)m never rise above m
    for ell in range(2, 6):
        for m in range(1, 4):
            if ell * m > 12:
                continue
            for p in enumerate_positions(ell, m):
                if is_maximal(p) and degr_alpha(p) < (ell - 1) * m:
                    assert max(p.positions) <= m


# ---------------------------------------------------------------------------
# iota


IOTA_IN = ZeroOneMatrix.from_text(
    """
    011111111
    011110101
    011010100
    00101****
    *********
    """
)
IOTA_OUT = ZeroOneMatrix.from_text(
    """
    010111101
    010010101
    000010000
    00001****
    *********
    """
)


def test_iota_worked_example():
    assert iota(IOTA_IN) == IOTA_OUT
    assert iota(IOTA_OUT) == IOTA_IN


def test_iota_exhaustive():
    for m, ell in [(2, 3), (3, 4), (2, 5), (4, 3)]:
        if m * ell > 12:
            continue
        for M in enumerate_matrices(m, ell):
            N = iota(M)
            assert zeros(N) == ones(M)
            assert ones(N) == zeros(M)
            assert contacts(N) == contacts(M)
            assert iota(N) == M


# ---------------------------------------------------------------------------
# height shortcut


def test_height_from_path():
    assert height_from_path((0, 0, 2, 1, 2, 1)) == 3
    assert height_from_path((0, 0, 0, 0)) == 0
    # in the ell=2 universe the degree-d maximal path indexes [1^d]
    for m in range(2, 5):
        for d in range(m):
            lam = BoundedPartition((1,) * d, 1)
            assert height_from_path(f(g(lam, m)).positions) == d


def test_height_from_path_matches_bijections():
    for ell in range(2, 5):
        for m in range(1, 4):
            for lam in all_partitions_below(ell, m):
                p = f(g(lam, m))
                assert height_from_path(p.positions) == height(lam)
                assert height_from_path(p.positions) == height(g_inv(f_inv(p)))


def test_height_from_path_matches_the_scan_for_the_last_maximum():
    # the last index of the maximum, against the index scan it replaced, on
    # every maximal path that computation 1 walks in basecase(1..20, 20)
    checked = 0
    for m in range(1, 21):
        for _, a in kernels.ellm_maximal_bounded(verify.lstar(m, 20), m, 20):
            ell, greatest = len(a) - 1, max(a)
            j = max(i for i, v in enumerate(a) if v == greatest)
            assert height_from_path(a) == (greatest - 1) * ell + j - sum(a), a
            checked += 1
    assert checked == 13079
