"""Kernel selection: the C extension when it was built, pure Python otherwise.

Both backends export the same five functions with identical results:
rational_census(n, s); the three (ell, m) kernels, which all take
(ell, m, dstar) and walk the (ell, m)-paths with degr <= dstar:
ellm_census_levels counts them, and in the same walk the shorter paths at
every level below, ellm_paths_bounded lists them and ellm_maximal_bounded
lists the maximal ones; and lowest_tuple(a, m), the
end of the right orbit of a position tuple, which computation 1 walks (the
pure-Python backend runs qtcat.cycles.lowest_tuple).  The C module
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
# intermediate value and every (degr, area) table key stays below 2**62;
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


def rational_census(n, s):
    """(all_counts, max_counts): the paths of slope n/s counted by (degr,
    area), all of them and the maximal ones."""
    check_slope(n, s)
    return _impl.rational_census(n, s)


def ellm_census_levels(ell, m, dstar):
    """[(all_counts, max_counts) for levels 1..ell]: entry i - 1 counts the
    (i, m)-paths with degr <= dstar, all from one walk at ell."""
    check_ellm(ell, m, dstar)
    return _impl.ellm_census_levels(ell, m, dstar)


def ellm_census_bounded(ell, m, dstar):
    """(all_counts, max_counts) over the (ell, m)-paths with degr <= dstar."""
    return ellm_census_levels(ell, m, dstar)[-1]


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


def lowest_tuple(a, m):
    """Iterate right on the position tuple a = (a_0, ..., a_ell) until
    unrightable; see qtcat.cycles.lowest_tuple."""
    check_ellm(len(a) - 1, m, 0)
    if max(a) >= LIMIT or min(a) <= -LIMIT:
        raise InputError("positions must lie strictly between -2**31 and 2**31")
    return _impl.lowest_tuple(a, m)
