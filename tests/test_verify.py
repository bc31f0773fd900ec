import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtcat import _kernels_py, cycles, kernels, paths, verify
from qtcat.bijections import BoundedPartition, bounded_partitions
from qtcat.qtpoly import QtPolynomial, bracket_run, str_run, sym
from qtcat.verify import (
    VerificationReport,
    basecase,
    catalan_poly,
    catalan_slice,
    check_conjecture,
    computation1,
    computation2,
    conjecture_rhs_slice,
    lstar,
    verify_projection,
    verify_string_partition,
)


def test_catalan_slice_13_8_19():
    got = catalan_slice(13, 8, 19)
    want = QtPolynomial(
        {
            (8, 15): 1, (9, 14): 3, (10, 13): 6, (11, 12): 8,
            (12, 11): 8, (13, 10): 6, (14, 9): 3, (15, 8): 1,
        }
    )
    assert got == want
    assert conjecture_rhs_slice(13, 8, 19) == want


def test_rhs_decomposition_13_8_19():
    # the maximal degree-19 paths, grouped by area
    _, max_counts = kernels.rational_census(13, 8)
    groups = {}
    for (d, a), c in max_counts.items():
        if d == 19:
            groups[a] = groups.get(a, 0) + c
    assert groups == {8: 1, 9: 2, 10: 4, 11: 4, 12: 4, 13: 2, 14: 1}
    # term-group by term-group: runs, zeros, and the two negative runs
    assert sym(8, 15) == str_run(8, 15, 23)
    assert sym(9, 14) == str_run(9, 14, 23)
    assert sym(10, 13) == str_run(10, 13, 23)
    assert sym(11, 12) == str_run(11, 12, 23)
    assert sym(12, 11).is_zero()
    assert sym(13, 10) == -(QtPolynomial({(11, 12): 1, (12, 11): 1}))
    assert sym(14, 9) == -str_run(10, 13, 23)
    total = QtPolynomial()
    for a, c in groups.items():
        for _ in range(c):
            total = total + sym(a, 23 - a)
    assert total == catalan_slice(13, 8, 19)


def test_full_polynomial_5_3():
    assert catalan_poly(5, 3) == bracket_run(0, 4) + bracket_run(1, 2)
    # summing the slices gives the same polynomial
    acc = QtPolynomial()
    for d in range(0, 5):
        acc = acc + catalan_slice(5, 3, d)
    assert acc == catalan_poly(5, 3)
    assert catalan_slice(5, 3, 99).is_zero()


def test_slices_reject_negative_degree():
    for fn in (catalan_slice, conjecture_rhs_slice):
        with pytest.raises(ValueError):
            fn(5, 3, -1)


def test_rhs_5_3():
    acc = QtPolynomial()
    for d in range(0, 5):
        acc = acc + conjecture_rhs_slice(5, 3, d)
    assert acc == bracket_run(0, 4) + bracket_run(1, 2)


def test_check_conjecture():
    r = check_conjecture(13, 8)
    assert r.verdict and r.witness is None
    assert r.counts["paths"] == 9690  # C(21,8)/21
    r2 = check_conjecture(5, 3)
    assert r2.verdict and r2.counts["paths"] == 7 and r2.counts["maximal"] == 2
    with pytest.raises(ValueError):
        check_conjecture(6, 3)


# both backends, named last in the test ids: [python]
BACKENDS = pytest.mark.parametrize("impl", ["python", "c"], indirect=True)


@BACKENDS
def test_check_conjecture_witness_is_smallest_bad_degree(impl, monkeypatch):
    # one extra path at d = 19 on the left and one extra maximal path at
    # d = 7 on the right break the identity at both degrees; the witness
    # comes from kernels.slice_witness on the backend
    all_counts, max_counts = kernels.rational_census(13, 8)
    all_bad = dict(all_counts)
    all_bad[(19, 10)] = all_bad.get((19, 10), 0) + 1
    max_bad = dict(max_counts)
    max_bad[(7, 5)] += 1
    monkeypatch.setattr(kernels, "_impl", impl)
    monkeypatch.setattr(kernels, "rational_census", lambda n, s: (all_bad, max_bad))
    r = check_conjecture(13, 8)
    M = 42
    assert not r.verdict
    assert list(r.witness) == ["d", "difference"]
    assert r.witness["d"] == 7
    diff = r.lhs - r.rhs
    assert QtPolynomial.from_obj(r.witness["difference"]) == diff.slice_total_degree(M - 7)
    assert diff.slice_total_degree(M - 7) == -sym(5, M - 7 - 5)
    assert diff.slice_total_degree(M - 19) == QtPolynomial({(10, M - 19 - 10): 1})


def test_computation2_witness_is_smallest_bad_degree(monkeypatch):
    # the pure-Python census_levels_check compares the dict census it reads
    census = _kernels_py.ellm_census_levels

    def perturbed(ell, m, dstar):
        levels = census(ell, m, dstar)
        all_counts, max_counts = levels[3 - 1]
        all_counts[(4, 3)] = all_counts.get((4, 3), 0) + 1
        max_counts[(2, 1)] = max_counts.get((2, 1), 0) + 1
        return levels

    monkeypatch.setattr(kernels, "_impl", _kernels_py)
    monkeypatch.setattr(_kernels_py, "ellm_census_levels", perturbed)
    r = computation2(2, 6)
    M = paths.max_area(3, 2)
    assert not r.verdict
    assert list(r.witness) == ["ell", "d", "difference"]
    assert (r.witness["ell"], r.witness["d"]) == (3, 2)
    assert QtPolynomial.from_obj(r.witness["difference"]) == -sym(1, M - 2 - 1)


def test_computation2_witness_at_m_1_is_smallest_bad_level_and_degree(monkeypatch):
    # m = 1 takes its levels from _catalan_levels, whose one walk is of the
    # maximal paths, from a_1 = 0
    census = _kernels_py._catalan_levels
    walk = _kernels_py._ellm_walk

    def perturbed(ell, dstar):
        levels = census(ell, dstar)
        all_counts, max_counts = levels[3 - 1]
        all_counts[(4, 1)] = all_counts.get((4, 1), 0) + 1
        max_counts[(2, 1)] = max_counts.get((2, 1), 0) + 1
        # a bad degree 0 at a later level does not hide level 3
        all_counts = levels[5 - 1][0]
        all_counts[(0, 2)] = all_counts.get((0, 2), 0) + 1
        return levels

    def maximal_walk(ell, m, a1, dstar, visit, first):
        assert a1 == 0, "an all-paths walk ran at m = 1"
        return walk(ell, m, a1, dstar, visit, first)

    monkeypatch.setattr(kernels, "_impl", _kernels_py)
    monkeypatch.setattr(_kernels_py, "_catalan_levels", perturbed)
    monkeypatch.setattr(_kernels_py, "_ellm_walk", maximal_walk)
    r = computation2(1, 6)
    M = paths.max_area(3, 1)
    assert not r.verdict
    assert list(r.witness) == ["ell", "d", "difference"]
    assert (r.witness["ell"], r.witness["d"]) == (3, 2)
    assert QtPolynomial.from_obj(r.witness["difference"]) == -sym(1, M - 2 - 1)


@pytest.mark.parametrize("m", [1, 2])
def test_c_computation2_builds_no_dict_census(speedups, monkeypatch, m):
    # a passing computation 2 on C counts and compares in the kernel's rows:
    # the dict census is not called
    monkeypatch.setattr(kernels, "_impl", speedups)
    want = computation2(m, 6)
    for module in (kernels, speedups):
        monkeypatch.setattr(module, "ellm_census_levels", None)
    got = computation2(m, 6)
    assert got.verdict and got.witness is None
    assert got.counts["paths"] == want.counts["paths"] > 0
    assert got.counts["maximal"] == want.counts["maximal"] > 0


def rhs_by_sym(max_counts, M):
    """The right side as the sum of c * sym(a, M - d - a), one QtPolynomial
    addition per term: the definition that _slices_from_census's run-based
    assembly replaces."""
    rhs = QtPolynomial()
    for (d, a), c in max_counts.items():
        for _ in range(c):
            rhs = rhs + sym(a, M - d - a)
    return rhs


@st.composite
def census_tables(draw):
    """(max_counts, M): a (degr, area) -> count table with a key in each of
    sym's three branches, a <= b, a = b + 1 and a > b + 1 (b = M - d - a)."""
    M = draw(st.integers(1, 30))
    d = st.integers(0, M)
    table = draw(
        st.dictionaries(
            d.flatmap(lambda d: st.tuples(st.just(d), st.integers(0, M - d + 1))),
            st.integers(1, 4),
            max_size=12,
        )
    )
    run = draw(d)
    table[(run, draw(st.integers(0, (M - run) // 2)))] = draw(st.integers(1, 4))
    odd = draw(st.sampled_from([e for e in range(M + 1) if (M - e) % 2]))
    table[(odd, (M - odd + 1) // 2)] = draw(st.integers(1, 4))
    neg = draw(d)
    table[(neg, draw(st.integers((M - neg + 1) // 2 + 1, M - neg + 1)))] = draw(
        st.integers(1, 4)
    )
    return table, M


@given(census_tables())
def test_run_assembly_equals_the_sum_of_syms(table):
    max_counts, M = table
    assert verify._slices_from_census({}, max_counts, M)[1] == rhs_by_sym(max_counts, M)


@st.composite
def perturbed_censuses(draw):
    """(all_counts, max_counts, M): a census of one level of
    _kernels_py.ellm_census_levels, with counts moved at a few random keys,
    sometimes in pairs that keep the sides equal."""
    ell, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    dstar = draw(st.integers(0, 6))
    level = draw(st.integers(1, ell))
    all_counts, max_counts = (
        dict(t) for t in _kernels_py.ellm_census_levels(ell, m, dstar)[level - 1]
    )
    M = paths.max_area(level, m)
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.integers(0, min(dstar, M)))
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        kind = draw(st.sampled_from(["all", "max", "both"]))
        if kind == "both":
            # sym(a, a) is the single term q^a t^a, one path's term on the left
            if (M - d) % 2:
                continue
            a = (M - d) // 2
        else:
            a = draw(st.integers(0, M - d + (kind == "max")))
        for name, table in (("all", all_counts), ("max", max_counts)):
            if kind in (name, "both"):
                table[d, a] = table.get((d, a), 0) + c
    return all_counts, max_counts, M


def mismatch(lhs, rhs, M):
    """The witness by polynomial subtraction, for the smallest d whose slices
    differ: d and slice d of lhs - rhs, or None when the sides agree.  The
    definition that slice_witness's row compare replaces."""
    if lhs == rhs:
        return None
    diff = lhs - rhs
    d = M - max(a + b for (a, b), _ in diff.terms())
    return {"d": d, "difference": diff.slice_total_degree(M - d).to_obj()}


@BACKENDS
def test_witness_equals_the_polynomial_difference(impl, monkeypatch):
    # kernels.slice_witness on the backend, formatted by verify._witness
    monkeypatch.setattr(kernels, "_impl", impl)

    @given(perturbed_censuses())
    def check(census):
        all_counts, max_counts, M = census
        lhs, rhs = verify._slices_from_census(all_counts, max_counts, M)
        bad = kernels.slice_witness(all_counts, max_counts, M)
        assert verify._witness(bad, M) == mismatch(lhs, rhs, M)

    # and right sides alone with a key in each of sym's three branches
    @given(census_tables())
    def check_runs(table):
        max_counts, M = table
        rhs = rhs_by_sym(max_counts, M)
        bad = kernels.slice_witness({}, max_counts, M)
        assert verify._witness(bad, M) == mismatch(QtPolynomial(), rhs, M)

    check()
    check_runs()


def test_report_json_shape():
    r = check_conjecture(5, 3)
    obj = r.to_obj()
    assert obj["verdict"] == "pass"
    assert obj["params"] == {"n": 5, "s": 3}
    assert isinstance(obj["lhs"], list) and isinstance(obj["counts"], dict)


def test_multiset_method_equivalence():
    # the sorted-monomial multiset identity All + Minus == Plus is the same
    # check as signed polynomial equality, replayed here on 13/8
    all_counts, max_counts = kernels.rational_census(13, 8)
    M = 42
    by_d = {}
    for (d, a), c in all_counts.items():
        by_d.setdefault(d, {"all": [], "plus": [], "minus": []})["all"].extend(
            [(a, M - d - a)] * c
        )
    for (d, a), c in max_counts.items():
        slot = by_d[d]
        p = sym(a, M - d - a)
        for (qa, qb), cc in p.terms():
            bucket = slot["plus"] if cc > 0 else slot["minus"]
            bucket.extend([(qa, qb)] * (abs(cc) * c))
    for d, slot in by_d.items():
        assert sorted(slot["all"] + slot["minus"]) == sorted(slot["plus"]), d


def test_lstar():
    from math import ceil

    assert lstar(5, 20) == 6
    assert lstar(3, 20) == 8
    assert lstar(40, 20) == 2
    for m in range(1, 21):
        assert lstar(m, 20) == int(ceil(20 / m + 1.001))


def test_computations_reject_m_below_one():
    # m = 0 has no lstar, so neither computation has a level to walk
    for computation in (computation1, computation2):
        with pytest.raises(kernels.InputError, match="ell and m must be positive"):
            computation(0, 5)
    # basecase names a negative dstar first, before the m it cannot use
    with pytest.raises(kernels.InputError, match="dstar must be >= 0"):
        basecase([0], -1)


def test_computations_small():
    for m in range(1, 6):
        assert computation1(m, 5).verdict
        assert computation2(m, 5).verdict


def test_computation1_counts_paths():
    r = computation1(3, 5)
    assert r.params["lstar"] == 3
    assert r.counts["maximal_paths"] > 0


def perturbed_heights(monkeypatch, m, dstar, picks):
    """The pure-Python backend, with the maximal paths at positions picks of
    the walk order at lstar(m, dstar) made too high to meet the bound;
    returns the listing."""
    ell = lstar(m, dstar)
    maximal = _kernels_py.ellm_maximal_bounded(ell, m, dstar)
    bad = {maximal[k][1] for k in picks}
    height = _kernels_py.height_from_path

    def perturbed(a):
        return height(a) + (paths.max_area(ell, m) + 1 if a in bad else 0)

    monkeypatch.setattr(kernels, "_impl", _kernels_py)
    monkeypatch.setattr(_kernels_py, "height_from_path", perturbed)
    return maximal


def test_computation1_witness_is_the_first_failing_path(monkeypatch):
    # the third and fifth maximal paths fail; the report names the third
    # and counts the paths up to it
    maximal = perturbed_heights(monkeypatch, 2, 5, [2, 4])
    d, a = maximal[2]
    r = computation1(2, 5)
    assert not r.verdict
    assert r.witness == {
        "positions": list(a), "degr": d, "lowest_area": sum(cycles.lowest_tuple(a, 2))
    }
    assert list(r.witness) == ["positions", "degr", "lowest_area"]
    assert r.counts["maximal_paths"] == 3
    b = basecase([1, 2], 5)
    assert not b.verdict
    assert b.witness == {"params": r.params, "witness": r.witness}


def test_c_computation1_formats_the_kernels_witness(speedups, monkeypatch):
    # computation1 only formats what the kernel returns: a C result equal
    # to the perturbed pure-Python one makes the same report
    perturbed_heights(monkeypatch, 2, 5, [2, 4])
    want = computation1(2, 5)
    result = kernels.maximal_orbit_check(lstar(2, 5), 2, 5)
    monkeypatch.setattr(kernels, "_impl", speedups)
    monkeypatch.setattr(speedups, "maximal_orbit_check", lambda ell, m, dstar: result)
    got = computation1(2, 5)
    assert (got.params, got.verdict, got.witness) == (want.params, want.verdict, want.witness)
    assert got.counts["maximal_paths"] == want.counts["maximal_paths"] == 3


def test_basecase_aggregate():
    r = basecase(range(1, 4), 4)
    assert r.verdict
    assert len(r.counts["computation1"]) == 3


def test_computation2_cross_checks_conjecture():
    # the (ell, m) slices must agree with the general-slope check at
    # n = (ell+1)m + 1 restricted to d <= dstar
    m, dstar = 2, 6
    for ell in range(1, lstar(m, dstar) + 1):
        n, s = (ell + 1) * m + 1, ell + 1
        all_r, max_r = kernels.rational_census(n, s)
        all_e, max_e = kernels.ellm_census_bounded(ell, m, dstar)
        assert {k: v for k, v in all_r.items() if k[0] <= dstar} == all_e
        assert {k: v for k, v in max_r.items() if k[0] <= dstar} == max_e


def test_ell2_closed_forms():
    # area + 2 degr <= 3m with equality achieved for each d in [0, m]
    for m in range(1, 6):
        M = 3 * m
        reached = set()
        for p in paths.enumerate_ellm(2, m):
            a, d = paths.area(p), paths.degr_delta(p)
            assert a + 2 * d <= M
            if a + 2 * d == M:
                reached.add(d)
        assert reached == set(range(m + 1))
        # the degree-d slice is the full run for d <= m and empty above
        for d in range(0, M + 2):
            sl = catalan_slice((2 + 1) * m + 1, 3, d)
            if d <= m:
                assert sl == str_run(d, M - 2 * d, M - d)
            else:
                assert sl.is_zero()


def test_ell2_strings_cover_slices():
    # D_{2,m}^d is a single string for d < m
    for m in range(2, 5):
        for d in range(m):
            got = set(cycles.string_of(BoundedPartition((1,) * d, 1), m))
            want = {
                p.positions
                for p in paths.enumerate_positions(2, m)
                if paths.degr_alpha(p) == d
            }
            assert got == want


def test_string_partition_extendable_example():
    r = verify_string_partition(4, 3, 5)
    assert r.verdict
    assert r.counts["strings"] == 5
    assert r.counts["disconnected"] == 6


def test_string_partition_more():
    assert verify_string_partition(5, 3, 7).verdict
    assert verify_string_partition(2, 4, 2).verdict
    with pytest.raises(ValueError):
        verify_string_partition(3, 2, 4)  # d >= (ell-1)m


def test_degree3_bounds():
    # hypotheses of the two degree-bound claims, checked path by path
    for ell in range(3, 6):
        for m in range(1, 4):
            if ell * m > 12:
                continue
            for p in paths.enumerate_ellm(ell, m):
                xs = p.steps
                if sum(xs[1:ell]) <= (ell - 2) * m and xs[0] + xs[1] >= m:
                    _, minus = paths.degr_delta_parts(p)
                    assert minus >= (ell - 2) * m, p
                i = next(
                    (i for i in range(1, ell) if xs[i] + xs[i + 1] >= m), None
                )
                if i is not None and sum(xs[i + 1 : ell]) > (ell - i) * m + 1:
                    if any(
                        sum(xs[: j + 1]) > j * m for j in range(2, ell)
                    ) or xs[0] + xs[1] >= m:
                        assert paths.degr_delta(p) >= (ell - 2) * m, p


def test_projection_example():
    lam = BoundedPartition((4, 2, 1), 4)
    r = verify_projection(lam, 3)
    assert r.verdict
    assert r.params == {"lam": [4, 2, 1], "m": 3, "ell": 5}


def test_projection_exhaustive():
    for ell in range(3, 6):
        for m in range(1, 4):
            for d in range((ell - 2) * m):
                for lam in bounded_partitions(d, ell - 1):
                    assert verify_projection(lam, m).verdict, (lam, m)
    with pytest.raises(ValueError):
        verify_projection(BoundedPartition((3, 3), 3), 2)  # size >= (ell-2)m


def test_projection_checks_the_kernel_limits_before_g(monkeypatch):
    # g builds an m x ell matrix; past the orbit kernel's (ell, m) limits
    # the input is rejected before that
    def g(lam, m):
        raise AssertionError("g called past the kernel limits")

    monkeypatch.setattr(verify, "g", g)
    with pytest.raises(kernels.InputError, match="too large"):
        verify_projection(BoundedPartition((4, 2, 1), 4), 2**40)
    with pytest.raises(kernels.InputError, match="too large"):
        verify_projection(BoundedPartition((), kernels.MAX_DEPTH - 1), 1)


def test_input_rules_raise_input_error():
    # each rule has one owner; the command line exits 2 on InputError
    with pytest.raises(kernels.InputError):
        catalan_slice(5, 3, -1)
    with pytest.raises(kernels.InputError):
        basecase([], 3)
    with pytest.raises(kernels.InputError):
        verify_string_partition(4, 3, 9)  # d >= (ell-1)m
    with pytest.raises(kernels.InputError):
        verify_projection(BoundedPartition((3, 3), 3), 2)  # size >= (ell-2)m


def test_basecase_rejects_m_below_one_with_the_kernels_message():
    # m = 0 has no lstar; check_ellm names it, as it does a negative m
    for m_values in ([0], range(0, 3), [-2]):
        with pytest.raises(kernels.InputError, match="ell and m must be positive"):
            basecase(m_values, 3)


def test_takeoff_addon():
    # dropping the first step sends a disconnected degree-d path (d < (ell-2)m)
    # to a disconnected path one level down, with degree d - x0(ell-1);
    # prepending inverts it
    ell, m = 4, 3
    for p in paths.enumerate_ellm(ell, m):
        d = paths.degr_delta(p)
        if d >= (ell - 2) * m:
            continue
        if cycles.is_connected(paths.steps_to_positions(p).positions, m):
            continue
        x0 = p.steps[0]
        dd = d - x0 * (ell - 1)
        tail = paths.EllMPath(
            ell - 1, m, p.steps[1:ell] + (m * ell - sum(p.steps[1:ell]),)
        )
        assert paths.degr_delta(tail) == dd
        assert not cycles.is_connected(paths.steps_to_positions(tail).positions, m)
        # addon direction
        back = paths.EllMPath(
            ell, m, (x0,) + tail.steps[: ell - 1]
            + (m * (ell + 1) - x0 - sum(tail.steps[: ell - 1]),)
        )
        assert back == p
