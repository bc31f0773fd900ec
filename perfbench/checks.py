"""Output checks for the three workloads, computed apart from qtcat.

Nothing here imports qtcat.  Path counts, q-binomials, partition counts and
the area / degr statistics are recomputed from their definitions; the only
stored reference is basecase_totals.json, which regen_totals.py rebuilds from
the plain generator ``qtcat.paths.enumerate_bounded``.  Each check returns a
list of problems; an empty list means the output is correct.
"""

import json
import os
from math import comb

from regen_totals import DSTAR, M_MAX

HERE = os.path.dirname(os.path.abspath(__file__))


# ---------------------------------------------------------------------------
# independent arithmetic


def rational_catalan_count(r, s):
    """Number of rational Dyck paths of coprime slope r/s: C(r+s, s)/(r+s)."""
    return comb(r + s, s) // (r + s)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divide_exact(num, den):
    """num / den for integer polynomials (coefficient lists, lowest degree
    first) when den has leading coefficient 1 and divides num."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + dd]
        quot[k] = c
        if c:
            for j, y in enumerate(den):
                num[k + j] -= c * y
    if any(num):
        raise ArithmeticError("division is not exact")
    return quot


def q_factorial(n):
    """[n]!_q = [1]_q [2]_q ... [n]_q with [k]_q = 1 + q + ... + q^(k-1)."""
    out = [1]
    for k in range(1, n + 1):
        out = _mul(out, [1] * k)
    return out


def q_rational_catalan(r, s):
    """[r+s-1]!_q / ([r]!_q [s]!_q) as a coefficient list."""
    return _divide_exact(
        _divide_exact(q_factorial(r + s - 1), q_factorial(r)), q_factorial(s)
    )


def partitions(n, bound):
    """Partitions of n with parts <= bound, as tuples of decreasing parts."""
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, bound), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return out


def ellm_area(steps, m):
    """Area of the (ell, m)-path with steps x_0..x_ell: M - sum (ell-i) x_i."""
    ell = len(steps) - 1
    return m * ell * (ell + 1) // 2 - sum((ell - i) * x for i, x in enumerate(steps))


def ellm_degr(steps, m):
    """degr by the delta statistics over 1 <= i <= j < ell."""
    ell = len(steps) - 1
    total = 0
    for i in range(1, ell):
        run = 0
        for j in range(i, ell):
            run += steps[j] - m
            total += min(steps[i], max(0, run - 1))
            total += min(steps[i - 1], max(0, -run))
    return total


def is_ellm_path(steps, ell, m):
    if len(steps) != ell + 1 or min(steps) < 0 or sum(steps) != m * (ell + 1):
        return False
    acc = 0
    for i, x in enumerate(steps[:-1]):
        acc += x
        if acc > m * (i + 1):
            return False
    return True


# ---------------------------------------------------------------------------
# workload checks


def _terms(obj):
    return {(t["q"], t["t"]): t["c"] for t in obj}


def check_verify(text, r, s):
    """qtcat --format json verify --slope r/s."""
    obj = json.loads(text)
    problems = []
    expected = rational_catalan_count(r, s)
    lhs = _terms(obj["lhs"])
    if obj["verdict"] != "pass":
        problems.append("verdict is %r" % obj["verdict"])
    if lhs != _terms(obj["rhs"]):
        problems.append("lhs != rhs")
    if obj["counts"]["paths"] != expected:
        problems.append("counts.paths %d != %d" % (obj["counts"]["paths"], expected))
    if sum(lhs.values()) != expected:
        problems.append("lhs coefficients sum to %d, not %d" % (sum(lhs.values()), expected))
    if any(lhs.get((b, a)) != c for (a, b), c in lhs.items()):
        problems.append("lhs is not symmetric in q and t")
    # q^M lhs(q, 1/q) against the q-binomial form
    M = (r - 1) * (s - 1) // 2
    spec = [0] * (2 * M + 1)
    for (a, b), c in lhs.items():
        spec[a - b + M] += c
    want = q_rational_catalan(r, s)
    while spec and spec[-1] == 0:
        spec.pop()
    if spec != want:
        problems.append("q^M lhs(q, 1/q) differs from [r+s-1]!/([r]![s]!)")
    return problems


def load_totals():
    with open(os.path.join(HERE, "basecase_totals.json")) as fh:
        return json.load(fh)


def basecase_path_count():
    """Computation-2 paths (stored totals) plus computation-1 maximal paths."""
    comp2 = sum(row["paths"] for row in load_totals()["computation2"])
    comp1 = sum(computation1_maximal(m) for m in range(1, M_MAX + 1))
    return comp1 + comp2


def computation1_maximal(m):
    """Maximal paths at ell* = DSTAR//m + 2 with degr <= DSTAR: f o g maps
    the partitions of 0..DSTAR with parts <= DSTAR//m + 1 onto them."""
    return sum(len(partitions(k, DSTAR // m + 1)) for k in range(DSTAR + 1))


def check_basecase(text):
    """qtcat --format json basecase --dstar DSTAR --m-max M_MAX."""
    obj = json.loads(text)
    problems = []
    if obj["verdict"] != "pass":
        problems.append("verdict is %r" % obj["verdict"])
    comp1 = obj["counts"]["computation1"]
    comp2 = obj["counts"]["computation2"]
    if len(comp1) != M_MAX or len(comp2) != M_MAX:
        problems.append("expected %d entries per computation" % M_MAX)
        return problems
    for m, row in enumerate(comp1, start=1):
        want = computation1_maximal(m)
        if row["maximal_paths"] != want:
            problems.append("computation1 m=%d: %d maximal paths, not %d"
                            % (m, row["maximal_paths"], want))
    for row, ref in zip(comp2, load_totals()["computation2"]):
        if (row["paths"], row["maximal"]) != (ref["paths"], ref["maximal"]):
            problems.append("computation2 m=%d: %d/%d paths, not %d/%d" % (
                ref["m"], row["paths"], row["maximal"], ref["paths"], ref["maximal"]))
    return problems


def _parse_path_line(line):
    steps_text, stats = line.strip().split("  ")
    area_text, degr_text = stats.split(", ")
    steps = tuple(int(v) for v in steps_text.split(","))
    return steps, int(area_text[len("area="):]), int(degr_text[len("degr="):])


def check_strings(text, ell, m, d):
    """qtcat strings --ellm ell,m --d d (plain text)."""
    problems = []
    lines = text.splitlines()
    if not lines or lines[-1] != "verdict: pass":
        return ["last line is not 'verdict: pass'"]
    strings = []  # (header, [(steps, area, degr)])
    disconnected = None
    declared = None
    for line in lines[:-1]:
        if line.startswith("string "):
            strings.append((line[len("string "):-1], []))
        elif line.startswith("disconnected ("):
            declared = int(line[len("disconnected ("):-2])
            disconnected = []
        elif disconnected is not None:
            disconnected.append(_parse_path_line(line))
        elif strings:
            strings[-1][1].append(_parse_path_line(line))
        else:
            problems.append("unexpected line %r" % line)
    want = partitions(d, ell - 1)
    if len(strings) != len(want):
        problems.append("%d strings, not %d" % (len(strings), len(want)))
    if sorted(h for h, _ in strings) != sorted(str(list(p)) for p in want):
        problems.append("string headers are not the partitions of %d into parts <= %d"
                        % (d, ell - 1))
    if disconnected is None or declared != len(disconnected):
        problems.append("disconnected list missing or miscounted")
        disconnected = disconnected or []
    seen = set()
    listed = [e for _, elems in strings for e in elems] + disconnected
    for steps, area, degr in listed:
        if not is_ellm_path(steps, ell, m):
            problems.append("%s is not an (%d,%d)-path" % (steps, ell, m))
            continue
        if (ellm_area(steps, m), ellm_degr(steps, m)) != (area, degr):
            problems.append("%s: printed area/degr %d/%d are wrong" % (steps, area, degr))
        if degr != d:
            problems.append("%s has degr %d, not %d" % (steps, degr, d))
        if steps in seen:
            problems.append("%s is listed twice" % (steps,))
        seen.add(steps)
    for header, elems in strings:
        areas = [a for _, a, _ in elems]
        if not areas or any(b - a != 1 for a, b in zip(areas, areas[1:])):
            problems.append("string %s: areas do not rise by 1" % header)
    return problems
