"""Pure-Python enumeration kernels.

These are the hot loops behind the verification drivers: they walk the whole
path universe (or its degree-bounded part) once, maintaining the degree
statistic incrementally from prefix sums.  The four kernels are
rational_census and ellm_census_bounded, which count paths by (degr, area),
and ellm_maximal_bounded and ellm_paths_of_degree, which list them.
A compiled twin with identical signatures lives in qtcat._speedups;
qtcat.kernels picks whichever is importable.
"""

from __future__ import annotations

from math import gcd

BACKEND = "python"


def rational_census(n, s):
    """Count the paths of slope n/s by (degr, area).

    Returns (all_counts, max_counts): dicts mapping (degr, area) -> number of
    paths, the second restricted to maximal paths.  The degree is accumulated
    via the scaled beta numerators s*(x_i+...+x_j) - n(j-i+1), which are
    nonzero by coprimality.
    """
    if gcd(n, s) != 1:
        raise ValueError("slope %d/%d is not coprime" % (n, s))
    ell = s - 1
    M = sum(n * (i + 1) // s for i in range(ell))
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
        room = n * (i + 1) // s - base
        for x in range(room + 1):
            xs[i] = x
            total = base + x
            pref[i + 1] = total
            dd = d
            if i >= 1:
                # gamma_{k i} for k in 1..i, from the scaled beta numerators
                for k in range(1, i + 1):
                    nu = s * (total - pref[k]) - n * (i - k + 1)
                    if nu > 0:
                        dd += min(xs[k], nu // s)
                    elif nu < 0:
                        dd += min(xs[k - 1], (-nu) // s)
                    else:  # pragma: no cover - impossible for coprime slope
                        raise AssertionError("beta = 0 for coprime slope")
            slack = n * (i + 1) - s * total
            rec(i + 1, dd, w + (ell - i) * x, slack if slack < minslack else minslack)

    rec(0, 0, 0, n * s)
    return all_counts, max_counts


def _alpha(a, b, m):
    if a <= b:
        d = b - a
    else:
        d = a - b - 1
    return d if d < m else m


def ellm_census_bounded(ell, m, dstar):
    """Count the (ell, m)-paths with degr <= dstar by (degr, area).

    Works in position coordinates with the incremental alpha update and
    prunes any prefix whose running degree exceeds dstar.  Returns
    (all_counts, max_counts) as in rational_census (maximal = a_1 == 0).
    """
    if dstar < 0:
        raise ValueError("dstar must be >= 0")
    all_counts = {}
    max_counts = {}
    a = [0] * (ell + 1)

    def rec(i, d, ar):
        if i == ell + 1:
            key = (d, ar)
            all_counts[key] = all_counts.get(key, 0) + 1
            if a[1] == 0:
                max_counts[key] = max_counts.get(key, 0) + 1
            return
        # descending, matching the step-lexicographic order of the generators
        for v in range(a[i - 1] + m, -1, -1):
            dd = d - max(0, v - m)
            for k in range(1, i):
                dd += _alpha(a[k], v, m)
            if dd <= dstar:
                a[i] = v
                rec(i + 1, dd, ar + v)

    rec(1, 0, 0)
    return all_counts, max_counts


def _ellm_paths(ell, m, dmin, dstar, maximal):
    """List of (degr, positions) over the (ell, m)-paths with
    dmin <= degr <= dstar, in walk order, pruned as in ellm_census_bounded;
    a_1 = 0 pinned when maximal."""
    out = []
    a = [0] * (ell + 1)

    def rec(i, d):
        if i == ell + 1:
            if d >= dmin:
                out.append((d, tuple(a)))
            return
        for v in range(a[i - 1] + m, -1, -1):
            dd = d - max(0, v - m)
            for k in range(1, i):
                dd += _alpha(a[k], v, m)
            if dd <= dstar:
                a[i] = v
                rec(i + 1, dd)

    if maximal:
        a[1] = 0
        rec(2, 0)
    else:
        rec(1, 0)
    return out


def ellm_maximal_bounded(ell, m, dstar):
    """List of (degr, positions) over maximal (ell, m)-paths with
    degr <= dstar, pruned as in ellm_census_bounded."""
    if dstar < 0:
        raise ValueError("dstar must be >= 0")
    return _ellm_paths(ell, m, 0, dstar, maximal=True)


def ellm_paths_of_degree(ell, m, d):
    """List of the positions of the (ell, m)-paths with degr == d, in walk
    order; prefixes past degree d are pruned as in ellm_census_bounded."""
    if d < 0:
        raise ValueError("d must be >= 0")
    return [a for _, a in _ellm_paths(ell, m, d, d, maximal=False)]
