"""Pure-Python enumeration kernels.

These are the hot loops behind the verification drivers: they walk the whole
path universe (or its degree-bounded part) once, maintaining the degree
statistic incrementally from prefix sums.  rational_census counts the paths
of a slope by (degr, area).  The three (ell, m) kernels all take (ell, m,
dstar) and share one degree-pruned walk: ellm_census_levels counts the paths
with degr <= dstar by (degr, area) at every level 1..ell of that walk,
ellm_paths_bounded lists them and ellm_maximal_bounded lists the maximal
ones.  The fifth kernel,
lowest_tuple(a, m), the end of a right orbit, is qtcat.cycles.lowest_tuple
itself.  A compiled twin with identical signatures lives in qtcat._speedups;
qtcat.kernels picks whichever is importable.
"""

from __future__ import annotations

from math import gcd

from qtcat.cycles import lowest_tuple  # noqa: F401 - the fifth kernel
from qtcat.paths import alpha

BACKEND = "python"


def rational_census(n, s):
    """Count the paths of slope n/s by (degr, area).

    Returns (all_counts, max_counts): dicts mapping (degr, area) -> number of
    paths, the second restricted to maximal paths.  The degree is accumulated
    from the gamma terms min(|nu| // s, x_k or x_{k-1}), nu = s*X - n*j the
    scaled beta numerator of X = x_k + ... + x_i and j = i - k + 1 in
    1..s-1.  Coprimality makes nu nonzero, so with q = n*j // s: nu > 0
    exactly when X > q, and then nu // s = X - q - 1, else (-nu) // s = q - X.
    The walk therefore reads one table of q's and divides nothing, as the C
    kernel does; the gcd guard is what makes the case split exact.
    """
    if gcd(n, s) != 1:
        raise ValueError("slope %d/%d is not coprime" % (n, s))
    ell = s - 1
    fl = [n * j // s for j in range(ell + 1)]  # fl[j] = floor(n*j/s)
    M = sum(fl[1:])
    all_counts = {}
    max_counts = {}
    if ell == 0:
        # single path (n); no interior, everything degenerates to zero
        all_counts[(0, 0)] = 1
        max_counts[(0, 0)] = 1
        return all_counts, max_counts

    xs = [0] * ell  # generated coordinates x_0..x_{ell-1}; x_ell is forced
    pref = [0] * (ell + 1)  # pref[i+1] = x_0 + ... + x_i

    def rec(i, d, w, minslack):
        # i: next index to fill; d: degr of the prefix; w: weighted sum
        # sum (ell - k) x_k; minslack: min over k < i of n(k+1) - s*pref[k+1]
        if i == ell:
            key = (d, M - w)
            all_counts[key] = all_counts.get(key, 0) + 1
            if minslack == 1:
                max_counts[key] = max_counts.get(key, 0) + 1
            return
        base = pref[i]
        room = fl[i + 1] - base
        for x in range(room + 1):
            xs[i] = x
            total = base + x
            pref[i + 1] = total
            dd = d
            # gamma_{k i} for k in 1..i, by the case split on X > q
            for k in range(1, i + 1):
                X = total - pref[k]
                q = fl[i - k + 1]
                if X > q:
                    dd += min(xs[k], X - q - 1)
                else:
                    dd += min(xs[k - 1], q - X)
            slack = n * (i + 1) - s * total
            rec(i + 1, dd, w + (ell - i) * x, slack if slack < minslack else minslack)

    rec(0, 0, 0, n * s)
    return all_counts, max_counts


def _ellm_walk(ell, m, a1, dstar, visit, first):
    """Call visit(i, degr, area, a) on each (i, m)-path with degr <= dstar,
    for every level i from first to ell.

    Works in position coordinates a = [0, a_1, ..., a_ell] with the
    incremental alpha update, in the walk order of the C kernel: a_1 runs
    down from a1 (m for every path, 0 for the maximal ones only), each later
    a_i from a_{i-1} + m, which is the step-lexicographic order of the
    generators.  A prefix whose running degree exceeds dstar is cut (sound
    because no step lowers the degree), so the nodes entered at level i are
    exactly the (i, m)-paths with degr <= dstar, and a[:i + 1] is the path.

    Each try sums alpha over the whole prefix, in O(i).  That plain sum is
    the oracle for the C walk, which slides the degree from one try to the
    next instead.
    """
    if dstar < 0:
        raise ValueError("dstar must be >= 0")
    a = [0] * (ell + 1)

    def rec(i, d, ar, top):
        for v in range(top, -1, -1):
            dd = d - max(0, v - m)
            for k in range(1, i):
                dd += alpha(a[k], v, m)
            if dd <= dstar:
                a[i] = v
                if i >= first:
                    visit(i, dd, ar + v, a)
                if i < ell:
                    rec(i + 1, dd, ar + v, v + m)

    rec(1, 0, 0, a1)


def ellm_census_levels(ell, m, dstar):
    """[(all_counts, max_counts) for levels 1..ell]: level i counts the
    (i, m)-paths with degr <= dstar by (degr, area), as rational_census
    does (maximal = a_1 == 0), all from one walk at ell."""
    levels = [({}, {}) for _ in range(ell)]

    def count(i, d, ar, a):
        all_counts, max_counts = levels[i - 1]
        key = (d, ar)
        all_counts[key] = all_counts.get(key, 0) + 1
        if a[1] == 0:
            max_counts[key] = max_counts.get(key, 0) + 1

    _ellm_walk(ell, m, m, dstar, count, 1)
    return levels


def _ellm_list(ell, m, a1, dstar):
    out = []
    _ellm_walk(ell, m, a1, dstar, lambda i, d, ar, a: out.append((d, tuple(a))), ell)
    return out


def ellm_paths_bounded(ell, m, dstar):
    """List of (degr, positions) over the (ell, m)-paths with degr <= dstar,
    in walk order."""
    return _ellm_list(ell, m, m, dstar)


def ellm_maximal_bounded(ell, m, dstar):
    """List of (degr, positions) over the maximal (ell, m)-paths with
    degr <= dstar, in walk order."""
    return _ellm_list(ell, m, 0, dstar)
