"""Verification drivers: conjecture checks, base-case computations, and the
string / projection consistency harnesses.

Everything here reduces to exact integer identities; a report either passes
or carries a concrete counterexample witness.
"""

from __future__ import annotations

import time

from qtcat import cycles, kernels
from qtcat.bijections import (
    BoundedPartition,
    bounded_partitions,
    f,
    g,
    height_from_positions,
)
from qtcat.paths import PositionPath, Record, max_area, max_area_rational
from qtcat.qtpoly import QtPolynomial, sym_run


class VerificationReport(Record):
    # detail holds what the check built, for the command line to print;
    # to_obj leaves it out
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
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "counts", {} if counts is None else counts)
        object.__setattr__(self, "detail", {} if detail is None else detail)

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
    of sym(area, M-d-area), each sym added straight into rhs as its run."""
    rhs = {}
    for (d, a), c in max_counts.items():
        T = M - d
        lo, hi, sign = sym_run(a, T - a)
        c *= sign
        for j in range(lo, hi + 1):
            key = (j, T - j)
            rhs[key] = rhs.get(key, 0) + c
    return QtPolynomial(rhs)


def _slices_from_census(all_counts, max_counts, M):
    """Both sides, whole, from (degr, area) count tables."""
    return _lhs_from_census(all_counts, M), _rhs_from_census(max_counts, M)


def _witness(all_counts, max_counts, M):
    """None when the sides of _slices_from_census agree, else the smallest d
    whose slices differ and slice d of lhs - rhs, without building the sides.

    Slice d of a side is a sequence in the area j, equal to another exactly
    when their first differences in j are.  A path key (d, a) with count c
    steps lhs by +c at a and -c at a + 1; a run lo..hi steps rhs by +c at lo
    and -c at hi + 1.  So one pass over the keys, whatever the runs' lengths,
    gives lhs's steps minus rhs's, and slice d of lhs - rhs is their prefix
    sums."""
    steps = {}
    for (d, a), c in all_counts.items():
        steps[d, a] = steps.get((d, a), 0) + c
        steps[d, a + 1] = steps.get((d, a + 1), 0) - c
    for (d, a), c in max_counts.items():
        lo, hi, sign = sym_run(a, M - d - a)
        steps[d, lo] = steps.get((d, lo), 0) - sign * c
        steps[d, hi + 1] = steps.get((d, hi + 1), 0) + sign * c
    if not any(steps.values()):
        return None
    d = min(dd for (dd, _), c in steps.items() if c)
    row = sorted(j for (dd, j), c in steps.items() if dd == d and c)
    difference, value = [], 0
    # the steps of a slice sum to 0, so the difference ends at the last one
    for j, nxt in zip(row, row[1:]):
        value += steps[d, j]
        if value:
            difference += ({"q": i, "t": M - d - i, "c": value} for i in range(j, nxt))
    return {"d": d, "difference": difference}


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
    witness = _witness(all_counts, max_counts, M)
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
    """min { ell : m(ell-1) > dstar }."""
    return dstar // m + 2


def computation1(m, dstar):
    """Orbit-length bound for every maximal path at ell* = lstar(m, dstar).

    For each maximal x with degr <= dstar, checks
    area(lowest(x)) <= M - height(x) - degr(x).
    """
    t0 = time.perf_counter()
    ell = lstar(m, dstar)
    M = max_area(ell, m)
    checked = 0
    witness = None
    for d, a in kernels.ellm_maximal_bounded(ell, m, dstar):
        checked += 1
        h = height_from_positions(a)
        low = kernels.lowest_tuple(a, m)
        if sum(low) > M - h - d:
            witness = {"positions": list(a), "degr": d, "lowest_area": sum(low)}
            break
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

    One walk at lstar counts every level, and _witness compares each
    level's sides without assembling them."""
    t0 = time.perf_counter()
    witness = None
    paths = maximal = 0
    levels = kernels.ellm_census_levels(lstar(m, dstar), m, dstar)
    for ell, (all_counts, max_counts) in enumerate(levels, 1):
        paths += sum(all_counts.values())
        maximal += sum(max_counts.values())
        bad = _witness(all_counts, max_counts, max_area(ell, m))
        if bad is not None:
            witness = {"ell": ell, **bad}
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
    # past the kernels' limits fails at once
    for m in reversed(m_values):
        kernels.check_ellm(lstar(m, dstar), m, dstar)
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
            disconnected.append(PositionPath(m, a))
    strings = []
    covered = set()
    witness = None
    for lam in bounded_partitions(d, ell - 1):
        st = cycles.string_of(lam, m)
        elems = {p.positions for p in st.elements}
        if covered & elems:
            witness = {
                "reason": "strings overlap",
                "partition": list(lam.parts),
                "overlap": sorted(covered & elems),
            }
            break
        covered |= elems
        strings.append(st)
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
    """
    ell = lam.bound + 1
    if lam.size() >= (ell - 2) * m:
        raise kernels.InputError("need |lam| < (ell-2)m")
    ps = lam.multiplicities()
    p0 = ps[0]
    mu = BoundedPartition.from_multiplicities(ps[1:])
    low_lam = cycles.lowest(f(g(lam, m))).positions
    low_mu = cycles.lowest(f(g(mu, m))).positions
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
