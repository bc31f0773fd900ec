"""Kernel selection: the C extension when it was built, pure Python otherwise.

Both backends export the same eight functions with identical results:
rational_census(n, s); the four (ell, m) kernels, which all take
(ell, m, dstar) and walk the (ell, m)-paths with degr <= dstar:
ellm_census_levels counts them, and in the same walk the shorter paths at
every level below (at m = 1 it takes the all_counts from the
Garsia-Haglund recursion for the q,t-Catalan polynomials instead of a walk),
ellm_paths_bounded lists them, ellm_maximal_bounded lists the maximal
ones, and maximal_orbit_check runs computation 1 on the maximal ones,
area(lowest(x)) <= M - height(x) - degr(x), up to the first that fails; the
two comparisons of a census's sides, slice_witness(all_counts, max_counts,
M) on two count tables and census_levels_check(ell, m, dstar) on each level
of the census of ellm_census_levels, which the C kernel compares in its own
rows without building the dicts; and lowest_tuple(a, m), the end of the
right orbit of a position tuple, which the projection check walks (the
pure-Python backend runs qtcat.cycles.lowest_tuple; the C kernel runs the
same orbit routine at each leaf of maximal_orbit_check).  The C module
qtcat._speedups is built by setup.py whenever a C compiler and Python.h are
present; otherwise qtcat._kernels_py runs.  This module checks every input
before it dispatches, so both backends reject the same inputs with the same
InputError, a ValueError.  The test suite cross-checks the backends against
each other and against the straightforward generators in qtcat.paths.
"""

from math import comb, gcd

try:
    from qtcat import _speedups as _impl
except ImportError:  # no extension was built
    from qtcat import _kernels_py as _impl

BACKEND = _impl.BACKEND

# The C kernels compute in int64.  For a slope n/s with n*s < LIMIT every
# intermediate value, degr and area among them, stays below 2**62;
# (ell, m)-paths are the paths of slope (m(ell+1)+1)/(ell+1).  Each walk is
# s - 1 (or ell) levels deep, and the pure-Python walk recurses once per
# level, so s and ell + 1 are held to MAX_DEPTH, far above any walk that
# ends in reasonable time and below Python's default recursion limit.
LIMIT = 2**31
MAX_DEPTH = 512

# A census is a dict with one entry per (degr, area) key, and every path of
# a thin slope such as n/3 can have its own key.  A slope whose census could
# hold more than MAX_KEYS keys is rejected before any walk: the key count is
# at most the number of paths, C(n+s, s)/(n+s), and at most the number of
# pairs degr + area <= M = (n-1)(s-1)/2, which is (M+1)(M+2)/2.
MAX_KEYS = 2**20

# slice_witness lays two count tables out as rows of the areas 0..M+1, one
# for each degree 0..dmax, the largest degree in them, and compares them row
# by row.  Tables whose (dmax + 1)(M + 2) cells exceed MAX_CELLS are
# rejected before any compare.  Every census that check_slope admits fits:
# the widest, 2506/3, has the degrees 0..835 over 2,507 areas, 2,095,852
# cells.
MAX_CELLS = 2**22


class InputError(ValueError):
    """The one error for an input that breaks a rule of the library: not a
    path universe, past the kernels' limits, or outside the range a check in
    qtcat.verify is defined on.  The kernels and qtcat.verify raise it where
    each rule lives, before any walk; the command line exits 2 on it."""


def check_slope(n, s):
    """Raise InputError unless n/s is a coprime slope the kernels can walk."""
    if n < 1 or s < 1:
        raise InputError("slope parameters must be positive")
    if gcd(n, s) != 1:
        raise InputError("slope %d/%d is not coprime" % (n, s))
    if n * s >= LIMIT or s > MAX_DEPTH:
        raise InputError(
            "slope %d/%d is too large: need n*s < 2**31 and s <= %d" % (n, s, MAX_DEPTH)
        )
    M = (n - 1) * (s - 1) // 2
    if (M + 1) * (M + 2) // 2 > MAX_KEYS and comb(n + s, s) // (n + s) > MAX_KEYS:
        raise InputError(
            "slope %d/%d is too large: its census could hold more than 2**20 "
            "(degr, area) keys" % (n, s)
        )


def check_ellm(ell, m, dstar):
    """Raise InputError unless the kernels can walk (ell, m) up to dstar."""
    # dstar first: verify.basecase derives ell from dstar, so a negative
    # dstar is named before the ell it made negative
    if not 0 <= dstar < 2**63:
        raise InputError("dstar must be >= 0 and < 2**63")
    if ell < 1 or m < 1:
        raise InputError("ell and m must be positive")
    if (m * (ell + 1) + 1) * (ell + 1) >= LIMIT or ell + 1 > MAX_DEPTH:
        raise InputError(
            "(ell, m) = (%d, %d) is too large: need (m(ell+1)+1)(ell+1) < 2**31 "
            "and ell < %d" % (ell, m, MAX_DEPTH)
        )


def check_slices(all_counts, max_counts, M):
    """Raise InputError unless slice_witness can compare the two (degr,
    area) count tables at max area M: 0 <= M < 2**31, each key has 0 <= degr
    and 0 <= area <= M - degr + 1 (sym's range), and their rows fit in
    MAX_CELLS cells."""
    if not 0 <= M < LIMIT:
        raise InputError("M must be >= 0 and < 2**31")
    rows = 0
    for table in (all_counts, max_counts):
        for d, a in table:
            if d < 0 or not 0 <= a <= M - d + 1:
                raise InputError(
                    "key (%d, %d) is out of range: need 0 <= degr and "
                    "0 <= area <= M - degr + 1 = %d" % (d, a, M - d + 1)
                )
            if d >= rows:
                rows = d + 1
    if rows * (M + 2) > MAX_CELLS:
        raise InputError(
            "the tables are too large to compare: their rows hold more than "
            "2**22 (degr, area) cells"
        )


def rational_census(n, s):
    """(all_counts, max_counts): the paths of slope n/s counted by (degr,
    area), all of them and the maximal ones."""
    check_slope(n, s)
    return _impl.rational_census(n, s)


def ellm_census_levels(ell, m, dstar):
    """[(all_counts, max_counts) for levels 1..ell]: entry i - 1 counts the
    (i, m)-paths with degr <= dstar, all from one walk at ell, or at m = 1
    from the Garsia-Haglund recursion cut at dstar and a walk of the maximal
    paths only; see qtcat._kernels_py._catalan_levels."""
    check_ellm(ell, m, dstar)
    return _impl.ellm_census_levels(ell, m, dstar)


def ellm_census_bounded(ell, m, dstar):
    """(all_counts, max_counts) over the (ell, m)-paths with degr <= dstar."""
    return ellm_census_levels(ell, m, dstar)[-1]


def census_levels_check(ell, m, dstar):
    """[(paths, maximal, witness) for levels 1..ell]: for each level i, the
    numbers of (i, m)-paths and of maximal ones with degr <= dstar, and
    slice_witness of its census at max area m*i*(i+1)/2; from the census of
    ellm_census_levels."""
    check_ellm(ell, m, dstar)
    return _impl.census_levels_check(ell, m, dstar)


def slice_witness(all_counts, max_counts, M):
    """None when the left and right sides built from the (degr, area) count
    tables at max area M agree, else (d, [(area, c), ...]): the smallest
    degree whose slices differ and the nonzero cells of slice d of
    lhs - rhs, in area order."""
    check_slices(all_counts, max_counts, M)
    return _impl.slice_witness(all_counts, max_counts, M)


def ellm_paths_bounded(ell, m, dstar):
    """List of (degr, positions) over the (ell, m)-paths with degr <= dstar,
    in walk order; the walk cuts every prefix whose degree exceeds dstar."""
    check_ellm(ell, m, dstar)
    return _impl.ellm_paths_bounded(ell, m, dstar)


def ellm_maximal_bounded(ell, m, dstar):
    """List of (degr, positions) over the maximal (ell, m)-paths with
    degr <= dstar, in walk order."""
    check_ellm(ell, m, dstar)
    return _impl.ellm_maximal_bounded(ell, m, dstar)


def maximal_orbit_check(ell, m, dstar):
    """(checked, None) when every maximal (ell, m)-path x with degr <=
    dstar has area(lowest(x)) <= max_area(ell, m) - height(x) - degr(x),
    else (checked, (degr, positions, lowest_area)) for the first that fails
    in walk order; checked counts the paths up to and including it."""
    check_ellm(ell, m, dstar)
    return _impl.maximal_orbit_check(ell, m, dstar)


def lowest_tuple(a, m):
    """Iterate right on the position tuple a = (a_0, ..., a_ell) until
    unrightable; see qtcat.cycles.lowest_tuple."""
    check_ellm(len(a) - 1, m, 0)
    if max(a) >= LIMIT or min(a) <= -LIMIT:
        raise InputError("positions must lie strictly between -2**31 and 2**31")
    return _impl.lowest_tuple(a, m)
