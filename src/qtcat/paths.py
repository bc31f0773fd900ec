"""Dyck-path representations, coordinate conversions, and statistics.

Three path types share one underlying picture:

* RationalDyckPath -- slope n/s with gcd(n,s)=1, step coordinates
  x_0..x_ell (ell = s-1), prefix sums strictly below the diagonal.
* EllMPath -- the special case n = (ell+1)m + 1 with the last vertical
  step deleted: prefix sums weakly below m(i+1), total m(ell+1).
* PositionPath -- the same (ell,m) path recorded by its distances below
  the diagonal, a_0 = 0 and x_i = m + a_i - a_{i+1}.

The degree statistic degr is implemented in every formulation the theory
admits (delta, epsilon, alpha, gamma); they agree on all valid paths and the
test suite checks that exhaustively at small scale.
"""

from __future__ import annotations

from math import gcd


# ---------------------------------------------------------------------------
# records


class Record:
    """Base of qtcat's frozen value types.

    A subclass names its fields, in order, in __slots__, and its __init__
    checks its arguments and passes the field values, in that order, to
    Record.__init__, the one place a field is set.  A record
    equals another of the same class with equal fields, hashes as the tuple
    of its fields, prints as Name(field=value, ...), refuses assignment, and
    copies and pickles by calling its class with its fields.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), self._fields()


# ---------------------------------------------------------------------------
# path types


class EllMPath(Record):
    """Path with steps x_0..x_ell, parameters (ell, m)."""

    __slots__ = ("ell", "m", "steps")

    def __init__(self, ell: int, m: int, steps: tuple):
        steps = tuple(int(x) for x in steps)
        if ell < 1 or m < 1:
            raise ValueError("need ell >= 1 and m >= 1")
        if len(steps) != ell + 1:
            raise ValueError("expected %d steps, got %d" % (ell + 1, len(steps)))
        s = 0
        for i, x in enumerate(steps):
            if x < 0:
                raise ValueError("negative step coordinate")
            s += x
            if i < ell and s > m * (i + 1):
                raise ValueError("prefix sum exceeds m(i+1) at i=%d" % i)
        if s != m * (ell + 1):
            raise ValueError("steps must sum to m(ell+1)")
        super().__init__(ell, m, steps)


class PositionPath(Record):
    """Path recorded by positions a_0..a_ell below the diagonal."""

    __slots__ = ("m", "positions")

    def __init__(self, m: int, positions: tuple):
        a = tuple(int(v) for v in positions)
        if m < 1:
            raise ValueError("need m >= 1")
        if len(a) < 2:
            raise ValueError("need at least positions a_0, a_1")
        if a[0] != 0:
            raise ValueError("a_0 must be 0")
        for i in range(len(a) - 1):
            if a[i] < 0 or a[i] - a[i + 1] < -m:
                raise ValueError("positions must be nonnegative with a_i - a_{i+1} >= -m")
        if a[-1] < 0:
            raise ValueError("positions must be nonnegative")
        super().__init__(m, a)

    @property
    def ell(self):
        return len(self.positions) - 1


class RationalDyckPath(Record):
    """Path of slope num/den (den = ell + 1), steps x_0..x_ell."""

    __slots__ = ("num", "den", "steps")

    def __init__(self, num: int, den: int, steps: tuple):
        steps = tuple(int(x) for x in steps)
        n, s = num, den
        if n < 1 or s < 1:
            raise ValueError("slope parameters must be positive")
        if gcd(n, s) != 1:
            raise ValueError("slope %d/%d is not coprime" % (n, s))
        if len(steps) != s:
            raise ValueError("expected %d steps, got %d" % (s, len(steps)))
        acc = 0
        for i, x in enumerate(steps):
            if x < 0:
                raise ValueError("negative step coordinate")
            acc += x
            if i < s - 1 and acc * s >= n * (i + 1):
                raise ValueError("prefix sum not strictly below the diagonal at i=%d" % i)
        if acc != n:
            raise ValueError("steps must sum to n")
        super().__init__(num, den, steps)

    @property
    def ell(self):
        return self.den - 1


class StatReport(Record):
    __slots__ = ("area", "degr", "dinv", "M")

    def __init__(self, area: int, degr: int, dinv: int, M: int):
        if area + degr + dinv != M:
            raise ValueError("area + degr + dinv must equal M")
        super().__init__(area, degr, dinv, M)


# ---------------------------------------------------------------------------
# coordinate conversions


def steps_to_positions(p: EllMPath) -> PositionPath:
    """a_0 = 0 and a_i = (m - x_0) + ... + (m - x_{i-1})."""
    a = [0]
    for x in p.steps[: p.ell]:
        a.append(a[-1] + p.m - x)
    return PositionPath(p.m, tuple(a))


def steps_of_positions(a, m):
    """The steps of the position tuple a: x_i = m + a_i - a_{i+1}, and the
    last step, m + a_ell, closes the total to m(ell+1)."""
    xs = [m + a[i] - a[i + 1] for i in range(len(a) - 1)]
    xs.append(m + a[-1])
    return tuple(xs)


def positions_to_steps(p: PositionPath) -> EllMPath:
    """The same path in step coordinates; see steps_of_positions."""
    return EllMPath(p.ell, p.m, steps_of_positions(p.positions, p.m))


def ellm_to_rational(p: EllMPath) -> RationalDyckPath:
    """Restore the deleted last vertical step: slope ((ell+1)m+1)/(ell+1)."""
    xs = list(p.steps)
    xs[-1] += 1
    return RationalDyckPath(p.m * (p.ell + 1) + 1, p.ell + 1, tuple(xs))


def rational_to_ellm(p: RationalDyckPath) -> EllMPath:
    """Inverse of ellm_to_rational; requires num = (ell+1)m + 1."""
    s = p.den
    if p.num % s != 1:
        raise ValueError("slope %d/%d is not of the form ((ell+1)m+1)/(ell+1)" % (p.num, s))
    m = (p.num - 1) // s
    xs = list(p.steps)
    xs[-1] -= 1
    return EllMPath(s - 1, m, tuple(xs))


# ---------------------------------------------------------------------------
# maximal area


def max_area(ell, m):
    """M = m * ell * (ell+1) / 2 for the (ell, m) universe."""
    return m * ell * (ell + 1) // 2


def max_area_rational(n, s):
    """M = sum_{i=0}^{ell-1} floor(n(i+1)/s)."""
    if gcd(n, s) != 1:
        raise ValueError("slope %d/%d is not coprime" % (n, s))
    return sum(n * (i + 1) // s for i in range(s - 1))


# ---------------------------------------------------------------------------
# area / degr / dinv


def area(p):
    """Area between path and diagonal (full boxes)."""
    if isinstance(p, PositionPath):
        return sum(p.positions)
    if isinstance(p, EllMPath):
        ell = p.ell
        return max_area(ell, p.m) - sum((ell - i) * x for i, x in enumerate(p.steps))
    if isinstance(p, RationalDyckPath):
        ell = p.ell
        return max_area_rational(p.num, p.den) - sum(
            (ell - i) * x for i, x in enumerate(p.steps)
        )
    raise TypeError("unsupported path type: %r" % type(p))


def _delta_plus(xs, m, i, j):
    # min(x_i, max(0, (x_i - m) + ... + (x_j - m) - 1))
    return min(xs[i], max(0, sum(xs[i : j + 1]) - m * (j - i + 1) - 1))


def _delta_minus(xs, m, i, j):
    # min(x_{i-1}, max(0, (m - x_i) + ... + (m - x_j)))
    return min(xs[i - 1], max(0, m * (j - i + 1) - sum(xs[i : j + 1])))


def degr_delta_parts(p: EllMPath):
    """(degr_plus, degr_minus) via the delta statistics, summed over
    1 <= i <= j < ell."""
    xs, m, ell = p.steps, p.m, p.ell
    plus = minus = 0
    for i in range(1, ell):
        for j in range(i, ell):
            plus += _delta_plus(xs, m, i, j)
            minus += _delta_minus(xs, m, i, j)
    return plus, minus


def degr_delta(p: EllMPath):
    plus, minus = degr_delta_parts(p)
    return plus + minus


def degr_epsilon(p: EllMPath):
    """degr via the epsilon statistics (capped at m, with the epsilon^0
    correction subtracted for the i = 0 column)."""
    xs, m, ell = p.steps, p.m, p.ell
    total = 0
    for i in range(1, ell):
        for j in range(i, ell):
            run = sum(xs[i : j + 1]) - m * (j - i + 1)
            total += min(m, max(0, run - 1))  # epsilon^+
            total += min(m, max(0, -run))  # epsilon^-
    for j in range(1, ell):
        run0 = m * (j + 1) - sum(xs[: j + 1])
        total -= max(0, run0 - m)  # epsilon^0_{0j}
    return total


def alpha(a, b, m):
    """Pairwise position contribution: min(b-a, m) when a <= b, else
    min(a-b-1, m).  Branches, not min(), since the pure-Python kernel's walk
    calls it at every node."""
    if a <= b:
        d = b - a
    else:
        d = a - b - 1
    return d if d < m else m


def alpha0(a, m):
    return max(0, a - m)


def degr_alpha(p: PositionPath):
    """degr in position coordinates: sum of alpha(a_i, a_j) over i < j minus
    the alpha^0 excesses of a_2..a_ell."""
    a, m = p.positions, p.m
    ell = len(a) - 1
    total = 0
    for i in range(1, ell):
        for j in range(i + 1, ell + 1):
            total += alpha(a[i], a[j], m)
    for j in range(2, ell + 1):
        total -= alpha0(a[j], m)
    return total


def degr_rational(p: RationalDyckPath):
    """degr for general slope, via the gamma statistics."""
    xs, n, s = p.steps, p.num, p.den
    ell = s - 1
    total = 0
    for i in range(1, ell):
        for j in range(i, ell):
            # beta_{ij} = (x_i + ... + x_j) - n(j-i+1)/s, scaled by s
            nu = s * sum(xs[i : j + 1]) - n * (j - i + 1)
            assert nu != 0, "beta = 0 impossible for coprime slope"
            if nu > 0:
                total += min(xs[i], nu // s)
            else:
                total += min(xs[i - 1], (-nu) // s)
    return total


def degr(p):
    """Dispatch degr to the natural formulation for the path type."""
    if isinstance(p, PositionPath):
        return degr_alpha(p)
    if isinstance(p, EllMPath):
        return degr_delta(p)
    if isinstance(p, RationalDyckPath):
        return degr_rational(p)
    raise TypeError("unsupported path type: %r" % type(p))


def dinv(p):
    """dinv = M - area - degr."""
    return stats(p).dinv


def stats(p) -> StatReport:
    if isinstance(p, (EllMPath, PositionPath)):
        M = max_area(p.ell, p.m)
    else:
        M = max_area_rational(p.num, p.den)
    a = area(p)
    d = degr(p)
    return StatReport(area=a, degr=d, dinv=M - a - d, M=M)


# ---------------------------------------------------------------------------
# maximality


def under(p: RationalDyckPath):
    """Minimal gap n(i+1)/s - (x_0 + ... + x_i) over 0 <= i < ell, as a
    Fraction."""
    from fractions import Fraction

    n, s = p.num, p.den
    acc = 0
    best = None
    for i in range(s - 1):
        acc += p.steps[i]
        gap = Fraction(n * (i + 1), s) - acc
        if best is None or gap < best:
            best = gap
    return best if best is not None else Fraction(0)


def is_maximal(p) -> bool:
    """True when the path hugs the diagonal as closely as possible."""
    if isinstance(p, PositionPath):
        return p.positions[1] == 0
    if isinstance(p, EllMPath):
        return p.steps[0] == p.m
    if isinstance(p, RationalDyckPath):
        # under(p) == 1/s, scaled by s: the least n(i+1) - s(x_0 + ... + x_i)
        # over 0 <= i < ell is 1
        n, s = p.num, p.den
        acc = 0
        slack = []
        for i in range(s - 1):
            acc += p.steps[i]
            slack.append(n * (i + 1) - s * acc)
        return min(slack, default=1) == 1
    raise TypeError("unsupported path type: %r" % type(p))


# ---------------------------------------------------------------------------
# enumeration (straightforward generators; the fast aggregating kernels
# live in qtcat.kernels)


def enumerate_rational(n, s):
    """All paths of slope n/s, lexicographic in step coordinates."""
    if gcd(n, s) != 1:
        raise ValueError("slope %d/%d is not coprime" % (n, s))
    ell = s - 1
    xs = [0] * s

    def rec(i, acc):
        if i == ell:
            xs[ell] = n - acc
            yield RationalDyckPath(n, s, tuple(xs))
            return
        room = n * (i + 1) // s - acc  # strict bound, never on the diagonal
        for x in range(room + 1):
            xs[i] = x
            yield from rec(i + 1, acc + x)

    yield from rec(0, 0)


def enumerate_ellm(ell, m):
    """All (ell, m)-paths, lexicographic in step coordinates."""
    xs = [0] * (ell + 1)

    def rec(i, acc):
        if i == ell:
            xs[ell] = m * (ell + 1) - acc
            yield EllMPath(ell, m, tuple(xs))
            return
        room = m * (i + 1) - acc
        for x in range(room + 1):
            xs[i] = x
            yield from rec(i + 1, acc + x)

    yield from rec(0, 0)


def enumerate_positions(ell, m):
    """All (ell, m)-paths in position coordinates, in the induced order.

    Positions grow by at most m per step; a_{i+1} runs downward from
    a_i + m so that the induced step order is lexicographic smallest first.
    """
    a = [0] * (ell + 1)

    def rec(i):
        if i == ell + 1:
            yield PositionPath(m, tuple(a))
            return
        for v in range(a[i - 1] + m, -1, -1):
            a[i] = v
            yield from rec(i + 1)

    yield from rec(1)


def enumerate_bounded(ell, m, dstar):
    """Stream of (degr, path) over { x in D_{ell,m} : degr(x) <= dstar }.

    The degree is accumulated incrementally in position coordinates --
    appending a_j adds sum_k alpha(a_k, a_j) - alpha0(a_j) -- and any prefix
    whose running degree exceeds dstar is pruned.  Yields EllMPath values in
    lexicographic step order.
    """
    if dstar < 0:
        raise ValueError("dstar must be >= 0")
    a = [0] * (ell + 1)

    def rec(i, d):
        if i == ell + 1:
            yield d, positions_to_steps(PositionPath(m, tuple(a)))
            return
        for v in range(a[i - 1] + m, -1, -1):
            dd = d - alpha0(v, m)
            for k in range(1, i):
                dd += alpha(a[k], v, m)
            if dd <= dstar:
                a[i] = v
                yield from rec(i + 1, dd)

    yield from rec(1, 0)


# ---------------------------------------------------------------------------
# text formats


def parse_path_text(text, m=None, slope=None):
    """Parse "1,3,0,2,2,4" (steps) or "pos:0,1,0,2,2,2" (positions).

    Supply m for the (ell, m) universes or slope=(n, s) for general slope
    step coordinates.
    """
    text = text.strip()
    if text.startswith("pos:"):
        if m is None:
            raise ValueError("position form requires m")
        vals = tuple(int(v) for v in text[4:].split(","))
        return PositionPath(m, vals)
    vals = tuple(int(v) for v in text.split(","))
    if slope is not None:
        n, s = slope
        return RationalDyckPath(n, s, vals)
    if m is None:
        raise ValueError("step form requires m or slope")
    return EllMPath(len(vals) - 1, m, vals)
