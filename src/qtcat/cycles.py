"""Cycle maps on position tuples, strings, and connectivity.

Every map here takes a position tuple a = (a_0, ..., a_ell) of an
(ell, m)-path and its m.  right and left are mutually inverse maps that keep
degr fixed and move area by +1 / -1.  Iterating right from a maximal path
until it becomes unrightable produces the path's string; iterating left
classifies a path as connected (reaches a maximal path) or disconnected (hits
an unleftable path first): is_connected(a, m).
"""

from __future__ import annotations

from qtcat.bijections import f, g
from qtcat.paths import max_area


def point_tuple(a, m):
    """Minimal r <= ell with a_r - a_ell > -m."""
    last = a[-1]
    for r, ai in enumerate(a):
        if ai - last > -m:
            return r
    raise AssertionError("unreachable: a_ell - a_ell = 0 > -m")


def pair_tuple(a, m):
    """Minimal r < ell with a_r - a_{r+2} >= -m (a_s = 0 for s > ell)."""
    ell = len(a) - 1
    for r in range(ell - 1):
        if a[r] - a[r + 2] >= -m:
            return r
    return ell - 1  # a_{ell-1} - 0 >= -m always holds


def cycleright_tuple(i, a):
    """[a_0..a_i, a_ell + 1, a_{i+1}..a_{ell-1}]."""
    return a[: i + 1] + (a[-1] + 1,) + a[i + 1 : len(a) - 1]


def cycleleft_tuple(i, a):
    """[a_0..a_i, a_{i+2}..a_ell, a_{i+1} - 1]."""
    return a[: i + 1] + a[i + 2 :] + (a[i + 1] - 1,)


def right_tuple(a, m):
    """cycleright at the point, or None when unrightable."""
    r = point_tuple(a, m)
    ell = len(a) - 1
    if r == ell or r > pair_tuple(a, m) + 1:
        return None
    return cycleright_tuple(r, a)


def left_tuple(a, m):
    """cycleleft at the pair, or None when unleftable.

    Maximal tuples (a_1 == 0) are a precondition violation, not "unleftable":
    the map is only defined off the maximal set.
    """
    if a[1] == 0:
        raise ValueError("left is undefined on maximal paths")
    r = pair_tuple(a, m)
    if a[r + 1] - a[-1] > m + 1:
        return None
    return cycleleft_tuple(r, a)


def _orbit(a, m, step):
    """a, step(a, m), step(step(a, m), m), ... up to the first None.

    Each step moves the area by one, so an orbit longer than the area range
    is a bug, raised rather than looped on.
    """
    for _ in range(max_area(len(a) - 1, m) + 1):
        yield a
        a = step(a, m)
        if a is None:
            return
    raise RuntimeError(
        "%s orbit exceeded the area range; implementation bug" % step.__name__
    )


def lowest_tuple(a, m):
    """Iterate right until unrightable."""
    for a in _orbit(a, m, right_tuple):
        pass
    return a


def _left_orbit(a, m, decided):
    """(visited, connected): iterate left from a up to the first tuple that
    is a key of the dict decided, whose value is then the verdict, or up to
    the orbit's end, a maximal tuple (a_1 == 0: connected) or an unleftable
    one (disconnected).  visited lists the tuples walked before the stop, the
    end included."""
    visited = []
    for b in _orbit(a, m, left_tuple):
        if b in decided:
            return visited, decided[b]
        visited.append(b)
        if b[1] == 0:
            return visited, True  # before the orbit applies left, which raises here
    return visited, False


def is_connected(a, m) -> bool:
    """True when iterated left from the position tuple a reaches a maximal
    tuple (a_1 == 0); a maximal tuple is connected itself."""
    return _left_orbit(a, m, {})[1]


# ---------------------------------------------------------------------------
# strings


def string_of(lam, m):
    """The string of the partition lam: the right orbit of f(g(lam, m)), as a
    tuple of position tuples (a_0, ..., a_ell), ell = lam.bound + 1, each of
    degr |lam| and each one area above the one before.

    g raises ValueError unless |lam| < (ell - 1) m.
    """
    return tuple(_orbit(f(g(lam, m)).positions, m, right_tuple))
