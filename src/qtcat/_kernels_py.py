"""Pure-Python enumeration kernels.

These are the hot loops behind the verification drivers: they walk the whole
path universe (or its degree-bounded part) once, maintaining the degree
statistic incrementally from prefix sums.  rational_census counts the paths
of a slope by (degr, area).  The four (ell, m) kernels all take (ell, m,
dstar) and share one degree-pruned walk: ellm_census_levels counts the paths
with degr <= dstar by (degr, area) at every level 1..ell of that walk (at
m = 1 it takes the all_counts from the Garsia-Haglund recursion and walks
only the maximal paths), ellm_paths_bounded lists them,
ellm_maximal_bounded lists the maximal ones, and maximal_orbit_check runs
base-case computation 1 on that listing, one height_from_path and one
lowest_tuple per path.  slice_witness(all_counts, max_counts, M) compares
the two sides of the conjecture built from a census, by their first
differences in the area, and census_levels_check(ell, m, dstar) gives each
level's totals and slice_witness from the dict census of
ellm_census_levels; the C kernel compares in its count rows instead.  The
eighth, lowest_tuple(a, m), the end of a right orbit, is
qtcat.cycles.lowest_tuple itself.  A compiled twin with identical signatures
lives in qtcat._speedups; qtcat.kernels picks whichever is importable.
"""

from __future__ import annotations

from math import gcd

from qtcat.bijections import height_from_path
from qtcat.cycles import lowest_tuple  # the eighth kernel
from qtcat.paths import alpha, max_area
from qtcat.qtpoly import step_runs, sym_steps

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
    does (maximal = a_1 == 0), all from one walk at ell, or at m = 1 from
    _catalan_levels."""
    if m == 1:
        return _catalan_levels(ell, dstar)
    levels = [({}, {}) for _ in range(ell)]

    def count(i, d, ar, a):
        all_counts, max_counts = levels[i - 1]
        key = (d, ar)
        all_counts[key] = all_counts.get(key, 0) + 1
        if a[1] == 0:
            max_counts[key] = max_counts.get(key, 0) + 1

    _ellm_walk(ell, m, m, dstar, count, 1)
    return levels


def _catalan_levels(ell, dstar):
    """ellm_census_levels(ell, 1, dstar), with every level's all_counts from
    the Garsia-Haglund recursion (Discrete Math. 256, 2002) cut at dstar
    instead of a walk.

    Level i counts the Dyck paths of size n = i + 1, whose sum of
    q^dinv t^area is C_n = F_{n,1} + ... + F_{n,n} with F_{n,n} = q^C(n,2)
    and F_{n,k} = t^(n-k) q^C(k,2) sum_{r=1}^{n-k} [r+k-1 choose r]_q
    F_{n-k,r}; a term q^a t^b counts under (degr, area) =
    (C(n,2) - a - b, b).  A term of F_{n-k,r} of degr d times q^j from the
    q-binomial, 0 <= j <= r(k-1), gives a term of F_{n,k} of area b + n - k
    and, as C(n,2) = C(k,2) + C(n-k,2) + k(n-k), of degr
    d + (k-1)(n-k) - j = d + (k-1)(n-k-r) + i with i = r(k-1) - j >= 0.  No
    step lowers the degree, so the recursion keeps only terms of degr
    <= dstar: term r adds nothing when d + (k-1)(n-k-r) > dstar, and
    otherwise only i <= dstar - d - (k-1)(n-k-r).  ((k-1)(n-k) alone is no
    lower bound on a step, as j reaches r(k-1).)  The q-binomial is
    palindromic, so the coefficient of q^j is co[i], the number of
    partitions of i into at most r parts of size at most k - 1, kept for
    i <= dstar and stepped from r - 1 to r by (1 - q^(r+k-1)) / (1 - q^r).

    max_counts come from one walk of the maximal paths.  The C kernel
    checks every sum and product for int64 overflow; here the counts are
    Python integers.
    """
    levels = [({}, {}) for _ in range(ell)]

    def count_max(i, d, ar, a):
        max_counts = levels[i - 1][1]
        max_counts[d, ar] = max_counts.get((d, ar), 0) + 1

    _ellm_walk(ell, 1, 0, dstar, count_max, 1)
    # no level i <= ell has a path of degr above C(ell+1, 2)
    dstar = min(dstar, ell * (ell + 1) // 2)
    # F[n][k][d] maps the area b of each term of F_{n,k} of degr d to its
    # coefficient, for d <= min(dstar, C(n, 2)); n and k count from 1
    F = [None, [None, [{0: 1}]]]
    for n in range(2, ell + 2):
        depth = min(dstar, n * (n - 1) // 2) + 1
        row = [None] + [[{} for _ in range(depth)] for _ in range(n)]
        row[n][0][0] = 1
        for k in range(1, n):
            c, s = k - 1, n - k
            co = [1] + [0] * dstar
            for r in range(1, s + 1):
                for i in range(dstar, r + c - 1, -1):
                    co[i] -= co[i - r - c]
                for i in range(r, dstar + 1):
                    co[i] += co[i - r]
                low = c * (s - r)
                for d, cells in enumerate(F[s][r][: dstar - low + 1]):
                    for i in range(min(r * c, dstar - d - low) + 1):
                        out, x = row[k][d + low + i], co[i]
                        for b, count in cells.items():
                            out[b + s] = out.get(b + s, 0) + count * x
        F.append(row)
        all_counts = levels[n - 2][0]
        for table in row[1:]:
            for d, cells in enumerate(table):
                for b, count in cells.items():
                    all_counts[d, b] = all_counts.get((d, b), 0) + count
    return levels


def slice_witness(all_counts, max_counts, M):
    """None when the two sides built from the (degr, area) count tables
    agree, else (d, [(area, c), ...]): the smallest d whose slices differ and
    the nonzero cells of slice d of lhs - rhs, in area order.

    Slice d of a side is a sequence in the area j, equal to another exactly
    when their first differences in j are.  A path key (d, a) with count c
    steps lhs by +c at a and -c at a + 1, and qtcat.qtpoly.sym_steps gives
    rhs's steps.  So one pass over the keys, whatever the runs' lengths,
    gives lhs's steps minus rhs's, and slice d of lhs - rhs is their prefix
    sums."""
    steps = dict(all_counts)
    for (d, a), c in all_counts.items():
        key = d, a + 1
        steps[key] = steps.get(key, 0) - c
    sym_steps(max_counts, M, steps, -1)
    if not any(steps.values()):
        return None
    d = min(dd for (dd, _), c in steps.items() if c)
    row = {key: c for key, c in steps.items() if key[0] == d}
    return d, [(j, c) for _, lo, hi, c in step_runs(row) for j in range(lo, hi)]


def census_levels_check(ell, m, dstar):
    """[(paths, maximal, witness) for levels 1..ell]: the totals of level
    i's census and slice_witness of it at max_area(i, m), from
    ellm_census_levels."""
    levels = ellm_census_levels(ell, m, dstar)
    return [
        (sum(all_counts.values()), sum(max_counts.values()),
         slice_witness(all_counts, max_counts, max_area(i, m)))
        for i, (all_counts, max_counts) in enumerate(levels, 1)
    ]


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


def maximal_orbit_check(ell, m, dstar):
    """(checked, None) when every maximal (ell, m)-path x with degr <=
    dstar has area(lowest(x)) <= M - height(x) - degr(x), M =
    max_area(ell, m), else (checked, (degr, positions, lowest_area)) for
    the first that fails in walk order; checked counts the paths up to and
    including it."""
    M = max_area(ell, m)
    checked = 0
    for d, a in ellm_maximal_bounded(ell, m, dstar):
        checked += 1
        h = height_from_path(a)
        low = sum(lowest_tuple(a, m))
        if low > M - h - d:
            return checked, (d, a, low)
    return checked, None
