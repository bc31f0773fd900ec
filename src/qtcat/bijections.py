"""Bounded partitions, {0,1,*} matrices, and the maps g, f, and iota.

g sends a partition with parts < ell and size < (ell-1)m to an m x ell
matrix; f sends such a matrix to a maximal path; iota is the matrix
involution swapping the height and width statistics.  The composition f o g
indexes the maximal paths of each degree below (ell-1)m by partitions.
"""

from __future__ import annotations

from qtcat.paths import PositionPath, Record, degr_alpha, is_maximal

STAR = None  # internal marker for the * entries


# ---------------------------------------------------------------------------
# bounded partitions


class BoundedPartition(Record):
    """Weakly decreasing positive parts, each at most `bound`."""

    __slots__ = ("parts", "bound")

    def __init__(self, parts: tuple, bound: int):
        parts = tuple(int(x) for x in parts)
        if bound < 0:
            raise ValueError("bound must be >= 0")
        prev = bound
        for x in parts:
            if x < 1 or x > prev:
                raise ValueError("parts must be weakly decreasing in [1, bound]")
            prev = x
        super().__init__(parts, bound)

    def size(self):
        return sum(self.parts)

    def height(self):
        return len(self.parts)

    def multiplicities(self):
        """[p_0, ..., p_{bound-1}] with p_i parts of size bound - i."""
        ps = [0] * self.bound
        for x in self.parts:
            ps[self.bound - x] += 1
        return tuple(ps)

    @classmethod
    def from_multiplicities(cls, ps):
        ps = tuple(int(p) for p in ps)
        parts = []
        for i, cnt in enumerate(ps):
            parts.extend([len(ps) - i] * cnt)
        return cls(tuple(parts), len(ps))


def bounded_partitions(d, bound):
    """All partitions of d with parts <= bound (includes the empty one for
    d = 0), in decreasing lexicographic order."""

    def rec(rem, largest):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, largest), 0, -1):
            for rest in rec(rem - first, first):
                yield (first,) + rest

    for parts in rec(d, bound):
        yield BoundedPartition(parts, bound)


def hook_rows(lam: BoundedPartition):
    """1-based hook row indices: row 1, then repeatedly i -> i + ell - lambda_i,
    with ell = lam.bound + 1."""
    ell = lam.bound + 1
    rows = []
    i = 1
    while i <= len(lam.parts):
        rows.append(i)
        i += ell - lam.parts[i - 1]
    return rows


def width(lam: BoundedPartition):
    """w^{ell-1}: total length of the hook rows."""
    return sum(lam.parts[h - 1] for h in hook_rows(lam))


def height(lam: BoundedPartition):
    return lam.height()


def size(lam: BoundedPartition):
    return lam.size()


# ---------------------------------------------------------------------------
# {0,1,*} matrices


class ZeroOneMatrix(Record):
    """m x ell matrix over {0, 1, *}; * is stored as None."""

    __slots__ = ("m", "ell", "entries")  # entries: tuple of row tuples

    def __init__(self, m: int, ell: int, entries: tuple):
        ent = tuple(tuple(row) for row in entries)
        if len(ent) != m or any(len(r) != ell for r in ent):
            raise ValueError("entry grid must be m x ell")
        flat = [v for row in ent for v in row]
        if any(v not in (0, 1, STAR) for v in flat):
            raise ValueError("entries must be 0, 1, or *")
        nonstar = [v for v in flat if v is not STAR]
        # all * entries follow all 0/1 entries in row-reading order
        if flat[: len(nonstar)] != nonstar:
            raise ValueError("* entries must follow all 0/1 entries in row order")
        if nonstar:
            if nonstar[0] != 0:
                raise ValueError("first row-read entry must be 0")
            if nonstar[-1] != 1:
                raise ValueError("last non-* entry must be 1")
        # no 0 directly above a 1
        for i in range(m - 1):
            for j in range(ell):
                if ent[i][j] == 0 and ent[i + 1][j] == 1:
                    raise ValueError("no 0 may sit directly above a 1")
        super().__init__(m, ell, ent)

    def to_text(self):
        return "\n".join(
            "".join("*" if v is STAR else str(v) for v in row) for row in self.entries
        )

    @classmethod
    def from_text(cls, text):
        rows = [r.strip() for r in text.strip().splitlines() if r.strip()]
        grid = tuple(
            tuple(STAR if ch == "*" else int(ch) for ch in row) for row in rows
        )
        return cls(len(grid), len(grid[0]), grid)


def zeros(M: ZeroOneMatrix):
    """h(M): number of 0 entries."""
    return sum(row.count(0) for row in M.entries)


def ones(M: ZeroOneMatrix):
    """w(M): number of 1 entries."""
    return sum(row.count(1) for row in M.entries)


def _zero_contacts(M, i, j):
    # 1s to the right in the same row, plus 1s weakly left in the row below
    ent = M.entries
    c = sum(1 for jj in range(j + 1, M.ell) if ent[i][jj] == 1)
    if i + 1 < M.m:
        c += sum(1 for jj in range(j + 1) if ent[i + 1][jj] == 1)
    return c


def contacts(M: ZeroOneMatrix):
    """|M|: number of (0,1) contact pairs."""
    total = 0
    for i in range(M.m):
        for j in range(M.ell):
            if M.entries[i][j] == 0:
                total += _zero_contacts(M, i, j)
    return total


# ---------------------------------------------------------------------------
# g: partitions -> matrices


def _boundary_segments(lam: BoundedPartition):
    """The hook-row segments of the diagram's boundary trace.

    Walking the lower-right boundary, each row i contributes a 0 followed by
    lambda_i - lambda_{i+1} 1s; the trace is split at the hook rows.
    """
    parts = lam.parts
    hooks = hook_rows(lam)
    nxt = hooks[1:] + [len(parts) + 1]
    segs = []
    for h, stop in zip(hooks, nxt):
        seg = []
        for i in range(h, stop):
            seg.append(0)
            drop = parts[i - 1] - (parts[i] if i < len(parts) else 0)
            seg.extend([1] * drop)
        segs.append(seg)
    return segs


def g(lam: BoundedPartition, m):
    """The partition-to-matrix bijection, by the hook-segment fill, into an
    m x ell matrix with ell = lam.bound + 1.

    Segment k goes in row k, placed bottom-up: it fills the row's * cells
    from the left, and each 1 it places turns the * cells above it into 1s.
    The cells no segment reaches stay *.
    """
    ell = lam.bound + 1
    if lam.size() >= (ell - 1) * m:
        raise ValueError("partition size must be < (ell-1)m")
    grid = [[STAR] * ell for _ in range(m)]
    segs = _boundary_segments(lam)
    if len(segs) > m:
        raise AssertionError("more hook segments than rows; bound violated")
    for r in reversed(range(len(segs))):
        free = [j for j in range(ell) if grid[r][j] is STAR]
        if len(segs[r]) > len(free):
            raise AssertionError("segment does not fit its row; bound violated")
        for j, v in zip(free, segs[r]):
            grid[r][j] = v
            if v == 1:
                for i in range(r):
                    if grid[i][j] is STAR:
                        grid[i][j] = 1
    return ZeroOneMatrix(m, ell, tuple(tuple(r) for r in grid))


def g_inv(M: ZeroOneMatrix) -> BoundedPartition:
    """Read the partition back: the i-th 0 in row order has lambda_i contacts."""
    parts = []
    for i in range(M.m):
        for j in range(M.ell):
            if M.entries[i][j] == 0:
                parts.append(_zero_contacts(M, i, j))
    parts = [p for p in parts if p > 0]
    # trailing zero-contact 0s contribute no part; interior ones cannot occur
    return BoundedPartition(tuple(parts), M.ell - 1)


# ---------------------------------------------------------------------------
# f: matrices -> maximal paths


def f(M: ZeroOneMatrix) -> PositionPath:
    """a_j = number of 1s in column j (and a_0 = 0)."""
    if contacts(M) >= (M.ell - 1) * M.m:
        raise ValueError("matrix contact count must be < (ell-1)m")
    a = [0]
    for j in range(M.ell):
        a.append(sum(1 for i in range(M.m) if M.entries[i][j] == 1))
    # column fill is top-down, so a_1 = 0 iff column 1 has no 1; maximality
    # holds because no 1 may appear in column 1 ahead of the leading 0
    return PositionPath(M.m, tuple(a))


def f_inv(p: PositionPath) -> ZeroOneMatrix:
    """Place a_j 1s at the top of column j, 0s before the last 1, * after."""
    m, a = p.m, p.positions
    ell = len(a) - 1
    if not is_maximal(p):
        raise ValueError("f_inv requires a maximal path (a_1 = 0)")
    if degr_alpha(p) >= (ell - 1) * m:
        raise ValueError("path degree must be < (ell-1)m")
    if any(v > m for v in a):
        raise ValueError("positions must be <= m to fit the columns")
    grid = [[STAR] * ell for _ in range(m)]
    for j in range(1, ell + 1):
        for i in range(a[j]):
            grid[i][j - 1] = 1
    last = None
    for i in range(m):
        for j in range(ell):
            if grid[i][j] == 1:
                last = (i, j)
    if last is not None:
        li, lj = last
        for i in range(m):
            for j in range(ell):
                if (i, j) > (li, lj):
                    break
                if grid[i][j] is STAR:
                    grid[i][j] = 0
            if i == li:
                break
    return ZeroOneMatrix(m, ell, tuple(tuple(r) for r in grid))


# ---------------------------------------------------------------------------
# iota: the statistic-swapping involution


def iota(M: ZeroOneMatrix) -> ZeroOneMatrix:
    """Complement 0 <-> 1, then rotate the two boundary rectangles 180 degrees.

    The rectangles are (rows 1..i, cols 1..j) and (rows 1..i-1, cols j+1..ell)
    where (i, j) is the last non-* position in row-reading order.
    """
    grid = [
        [STAR if v is STAR else 1 - v for v in row] for row in M.entries
    ]
    last = None
    for i in range(M.m):
        for j in range(M.ell):
            if M.entries[i][j] is not STAR:
                last = (i, j)
    if last is None:
        return ZeroOneMatrix(M.m, M.ell, tuple(tuple(r) for r in grid))
    li, lj = last

    def rotate(r0, r1, c0, c1):
        # rotate the subgrid rows r0..r1, cols c0..c1 (inclusive) by 180
        block = [row[c0 : c1 + 1] for row in grid[r0 : r1 + 1]]
        block = [list(reversed(row)) for row in reversed(block)]
        for bi, row in enumerate(block):
            grid[r0 + bi][c0 : c1 + 1] = row

    rotate(0, li, 0, lj)
    if li >= 1 and lj + 1 <= M.ell - 1:
        rotate(0, li - 1, lj + 1, M.ell - 1)
    return ZeroOneMatrix(M.m, M.ell, tuple(tuple(r) for r in grid))


# ---------------------------------------------------------------------------
# matrix enumeration (brute force; for exhaustive checks at tiny scale)


def enumerate_matrices(m, ell, max_contacts=None):
    """All valid m x ell matrices (including the all-* one), by trying every
    0/1 prefix of the row-reading order."""
    cells = m * ell
    for length in range(cells + 1):
        for bits in range(1 << length):
            flat = [(bits >> k) & 1 for k in range(length)]
            flat += [STAR] * (cells - length)
            grid = tuple(
                tuple(flat[i * ell : (i + 1) * ell]) for i in range(m)
            )
            try:
                M = ZeroOneMatrix(m, ell, grid)
            except ValueError:
                continue
            if max_contacts is not None and contacts(M) >= max_contacts:
                continue
            yield M


# ---------------------------------------------------------------------------
# height shortcut


def height_from_path(a):
    """Height of the partition that indexes the maximal path with position
    tuple a = (a_0, ..., a_ell), read off the tuple directly, unchecked.

    With g = max position and j the last index attaining it:
    (g - 1) * ell + j - sum(positions).
    """
    ell = len(a) - 1
    greatest = max(a)
    j = ell - a[::-1].index(greatest)
    return (greatest - 1) * ell + j - sum(a)
