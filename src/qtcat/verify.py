"""Verification drivers: conjecture checks, base-case computations, and the
string / projection consistency harnesses.

Everything here reduces to exact integer identities; a report either passes
or carries a concrete counterexample witness.
"""

from __future__ import annotations

import time

from qtcat import cycles, kernels
from qtcat.bijections import BoundedPartition, bounded_partitions, f, g
from qtcat.paths import Record, max_area, max_area_rational
from qtcat.qtpoly import QtPolynomial, step_runs, sym_steps


class VerificationReport(Record):
    # detail holds what the check built, for the command line to print;
    # to_obj leaves it out.  verify_string_partition puts there its strings,
    # as (partition, orbit) pairs with the orbit a tuple of position tuples,
    # and the disconnected position tuples in walk order
    __slots__ = ("params", "verdict", "lhs", "rhs", "witness", "counts", "detail")

    def __init__(
        self,
        params: dict,
        verdict: bool,
        lhs: QtPolynomial | None = None,
        rhs: QtPolynomial | None = None,
        witness: object = None,
        counts: dict | None = None,
        detail: dict | None = None,
    ):
        super().__init__(
            params, verdict, lhs, rhs, witness,
            {} if counts is None else counts, {} if detail is None else detail,
        )

    def to_obj(self):
        return {
            "params": self.params,
            "verdict": "pass" if self.verdict else "fail",
            "lhs": self.lhs.to_obj() if self.lhs is not None else None,
            "rhs": self.rhs.to_obj() if self.rhs is not None else None,
            "witness": self.witness,
            "counts": self.counts,
        }


# ---------------------------------------------------------------------------
# conjecture: both sides, slice by slice
#
# A term of degree d has total degree M - d on either side, so slice d of a
# side is its slice_total_degree(M - d).


def _lhs_from_census(all_counts, M):
    """The left side, whole, from a (degr, area) count table: the sum of
    q^area t^(M-d-area) over all paths."""
    return QtPolynomial({(a, M - d - a): c for (d, a), c in all_counts.items()})


def _rhs_from_census(max_counts, M):
    """The right side, whole, from the maximal paths' count table: the sum
    of sym(area, M-d-area), as the prefix sums of its steps."""
    rhs = {}
    for d, lo, hi, c in step_runs(sym_steps(max_counts, M, {}, 1)):
        rhs.update(((j, M - d - j), c) for j in range(lo, hi))
    return QtPolynomial(rhs)


def _slices_from_census(all_counts, max_counts, M):
    """Both sides, whole, from (degr, area) count tables."""
    return _lhs_from_census(all_counts, M), _rhs_from_census(max_counts, M)


def _witness(bad, M):
    """The report form of a kernel's witness: None stays None, and (d,
    [(area, c), ...]), the smallest degree d whose slices differ and the
    nonzero terms of slice d of lhs - rhs, becomes {"d": d, "difference":
    [{"q": area, "t": M - d - area, "c": c}, ...]}."""
    if bad is None:
        return None
    d, cells = bad
    return {"d": d, "difference": [{"q": j, "t": M - d - j, "c": c} for j, c in cells]}


def _rational_census(n, s):
    """(all_counts, max_counts, M) for the coprime slope n/s."""
    all_counts, max_counts = kernels.rational_census(n, s)
    return all_counts, max_counts, max_area_rational(n, s)


def catalan_slice(n, s, d):
    """Sum of q^area t^(M-d-area) over the degree-d paths of slope n/s."""
    if d < 0:
        raise kernels.InputError("d must be >= 0")
    all_counts, _, M = _rational_census(n, s)
    return _lhs_from_census(all_counts, M).slice_total_degree(M - d)


def conjecture_rhs_slice(n, s, d):
    """Sum of sym(area, M-d-area) over the maximal degree-d paths."""
    if d < 0:
        raise kernels.InputError("d must be >= 0")
    _, max_counts, M = _rational_census(n, s)
    return _rhs_from_census(max_counts, M).slice_total_degree(M - d)


def catalan_poly(n, s):
    """The full polynomial: sum of q^area t^dinv over all paths."""
    all_counts, _, M = _rational_census(n, s)
    return _lhs_from_census(all_counts, M)


def check_conjecture(n, s):
    """Compare both sides of the conjecture slice by slice over one sweep."""
    t0 = time.perf_counter()
    all_counts, max_counts, M = _rational_census(n, s)
    lhs, rhs = _slices_from_census(all_counts, max_counts, M)
    witness = _witness(kernels.slice_witness(all_counts, max_counts, M), M)
    return VerificationReport(
        params={"n": n, "s": s},
        verdict=witness is None,
        lhs=lhs,
        rhs=rhs,
        witness=witness,
        counts={
            "paths": sum(all_counts.values()),
            "maximal": sum(max_counts.values()),
            "runtime": round(time.perf_counter() - t0, 3),
        },
    )


# ---------------------------------------------------------------------------
# base-case computations


def lstar(m, dstar):
    """min { ell : m(ell-1) > dstar }, which exists for m >= 1 only."""
    if m < 1:
        raise kernels.InputError("ell and m must be positive")
    return dstar // m + 2


def computation1(m, dstar):
    """Orbit-length bound for every maximal path at ell* = lstar(m, dstar).

    For each maximal x with degr <= dstar, checks
    area(lowest(x)) <= M - height(x) - degr(x), in one call of
    kernels.maximal_orbit_check, which stops at the first x that fails.
    """
    t0 = time.perf_counter()
    ell = lstar(m, dstar)
    checked, bad = kernels.maximal_orbit_check(ell, m, dstar)
    witness = None
    if bad is not None:
        d, a, low = bad
        witness = {"positions": list(a), "degr": d, "lowest_area": low}
    return VerificationReport(
        params={"m": m, "dstar": dstar, "lstar": ell},
        verdict=witness is None,
        witness=witness,
        counts={
            "maximal_paths": checked,
            "runtime": round(time.perf_counter() - t0, 3),
        },
    )


def computation2(m, dstar):
    """Slice identity for every ell <= lstar(m, dstar) and every d <= dstar.

    kernels.census_levels_check counts and compares every level at once:
    one walk at lstar, or at m = 1 the Garsia-Haglund recursion for the left
    sides and a walk of the maximal paths only."""
    t0 = time.perf_counter()
    witness = None
    paths = maximal = 0
    levels = kernels.census_levels_check(lstar(m, dstar), m, dstar)
    for ell, (level_paths, level_maximal, bad) in enumerate(levels, 1):
        paths += level_paths
        maximal += level_maximal
        if bad is not None:
            witness = {"ell": ell, **_witness(bad, max_area(ell, m))}
            break
    return VerificationReport(
        params={"m": m, "dstar": dstar, "lstar": lstar(m, dstar)},
        verdict=witness is None,
        witness=witness,
        counts={
            "paths": paths,
            "maximal": maximal,
            "runtime": round(time.perf_counter() - t0, 3),
        },
    )


def basecase(m_values, dstar):
    """computations 1 and 2 across a range of m; overall report."""
    if not m_values:
        raise kernels.InputError("need at least one m")
    # every walk fits the kernels before the first one runs: the largest for
    # each m is at ell = lstar, and the largest m goes first, so a range far
    # past the kernels' limits fails at once; an m below 1 has no lstar, and
    # check_ellm names a bad dstar before it rejects that m
    for m in reversed(m_values):
        kernels.check_ellm(lstar(m, dstar) if m >= 1 else 0, m, dstar)
    m_values = list(m_values)
    r1 = [computation1(m, dstar) for m in m_values]
    r2 = [computation2(m, dstar) for m in m_values]
    verdict = all(r.verdict for r in r1 + r2)
    witness = None
    for r in r1 + r2:
        if not r.verdict:
            witness = {"params": r.params, "witness": r.witness}
            break
    return VerificationReport(
        params={"m_values": m_values, "dstar": dstar},
        verdict=verdict,
        witness=witness,
        counts={
            "computation1": [r.counts for r in r1],
            "computation2": [r.counts for r in r2],
        },
    )


# ---------------------------------------------------------------------------
# strings and projection


def verify_string_partition(ell, m, d):
    """The connected degree-d paths are the disjoint union of the strings.

    Only the paths of degree at most d are walked: kernels.ellm_paths_bounded
    cuts every prefix whose degree already exceeds d.  Paths on one left
    orbit share its verdict, so each orbit is walked only up to the first
    tuple an earlier orbit decided.
    """
    if not 0 <= d < (ell - 1) * m:
        raise kernels.InputError("need 0 <= d < (ell-1)m")
    t0 = time.perf_counter()
    connected = set()
    disconnected = []
    decided = {}  # each tuple a left orbit visited -> connected
    for degr, a in kernels.ellm_paths_bounded(ell, m, d):
        if degr != d:
            continue
        visited, ok = cycles._left_orbit(a, m, decided)
        decided.update(dict.fromkeys(visited, ok))
        if ok:
            connected.add(a)
        else:
            disconnected.append(a)
    strings = []
    covered = set()
    witness = None
    for lam in bounded_partitions(d, ell - 1):
        orbit = cycles.string_of(lam, m)
        elems = set(orbit)
        if covered & elems:
            witness = {
                "reason": "strings overlap",
                "partition": list(lam.parts),
                "overlap": sorted(covered & elems),
            }
            break
        covered |= elems
        strings.append((lam, orbit))
    if witness is None and covered != connected:
        witness = {
            "reason": "string union differs from connected set",
            "missing": sorted(connected - covered)[:5],
            "extra": sorted(covered - connected)[:5],
        }
    return VerificationReport(
        params={"ell": ell, "m": m, "d": d},
        verdict=witness is None,
        witness=witness,
        counts={
            "strings": len(strings),
            "connected": len(connected),
            "disconnected": len(disconnected),
            "runtime": round(time.perf_counter() - t0, 3),
        },
        detail={"strings": strings, "disconnected": disconnected},
    )


def verify_projection(lam: BoundedPartition, m):
    """Dropping the multiplicity p_0 shifts the lowest path uniformly.

    With lam = [p_0, ..., p_{ell-2}] and mu = [p_1, ..., p_{ell-2}]:
    lowest(f(g(lam))) = [0, a_1, ..., a_ell] forces a_1 = m - p_0 and
    lowest(f(g(mu))) = [a_1 - (m - p_0), ..., a_ell - (m - p_0)].
    Each lowest path is the end of a right orbit, walked by the orbit kernel
    kernels.lowest_tuple; (ell, m) must be within the kernels' limits, which
    are checked before g builds its m x ell matrix.
    """
    ell = lam.bound + 1
    if lam.size() >= (ell - 2) * m:
        raise kernels.InputError("need |lam| < (ell-2)m")
    kernels.check_ellm(ell, m, 0)
    ps = lam.multiplicities()
    p0 = ps[0]
    mu = BoundedPartition.from_multiplicities(ps[1:])
    low_lam = kernels.lowest_tuple(f(g(lam, m)).positions, m)
    low_mu = kernels.lowest_tuple(f(g(mu, m)).positions, m)
    shift = m - p0
    expected_mu = tuple(v - shift for v in low_lam[1:])
    ok = low_lam[1] == shift and low_mu == expected_mu
    witness = None
    if not ok:
        witness = {
            "lam": list(lam.parts),
            "mu": list(mu.parts),
            "lowest_lam": list(low_lam),
            "lowest_mu": list(low_mu),
            "expected_mu": list(expected_mu),
        }
    return VerificationReport(
        params={"lam": list(lam.parts), "m": m, "ell": ell},
        verdict=ok,
        witness=witness,
        counts={},
    )
