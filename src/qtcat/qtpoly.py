"""Sparse exact polynomials in q and t, plus the run/bracket/sym constructors.

A polynomial is stored as a mapping (q_exp, t_exp) -> nonzero integer
coefficient.  All arithmetic is exact; coefficients are arbitrary-precision
signed integers.  Canonical term order everywhere: ascending q_exp, ties by
ascending t_exp.
"""

from __future__ import annotations


class QtPolynomial:
    """Immutable sparse polynomial in q, t with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        tt = {}
        if terms:
            for (a, b), c in dict(terms).items():
                if a < 0 or b < 0:
                    raise ValueError("negative exponent: (%r, %r)" % (a, b))
                if c != 0:
                    tt[(int(a), int(b))] = int(c)
        self._terms = tt

    def terms(self):
        """Sorted list of ((q_exp, t_exp), coeff) in canonical order."""
        return sorted(self._terms.items())

    def coeff(self, q_exp, t_exp):
        return self._terms.get((q_exp, t_exp), 0)

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, QtPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        tt = dict(self._terms)
        for k, c in other._terms.items():
            nc = tt.get(k, 0) + c
            if nc:
                tt[k] = nc
            else:
                tt.pop(k, None)
        out = QtPolynomial.__new__(QtPolynomial)
        out._terms = tt
        return out

    def __neg__(self):
        out = QtPolynomial.__new__(QtPolynomial)
        out._terms = {k: -c for k, c in self._terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def slice_total_degree(self, n):
        """Sub-polynomial of terms with q_exp + t_exp = n."""
        out = QtPolynomial.__new__(QtPolynomial)
        out._terms = {k: c for k, c in self._terms.items() if k[0] + k[1] == n}
        return out

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for (a, b), c in self.terms():
            mono = "q^%d*t^%d" % (a, b)
            mag = abs(c)
            body = mono if mag == 1 else "%d*%s" % (mag, mono)
            if not chunks:
                chunks.append(body if c > 0 else "-" + body)
            else:
                chunks.append(("+ " if c > 0 else "- ") + body)
        return " ".join(chunks)

    def __repr__(self):
        return "QtPolynomial(%s)" % str(self)

    def to_obj(self):
        """JSON-ready form: list of {"q","t","c"} in canonical order."""
        return [{"q": a, "t": b, "c": c} for (a, b), c in self.terms()]

    @classmethod
    def from_obj(cls, obj):
        return cls({(d["q"], d["t"]): d["c"] for d in obj})


def monomial(q_exp, t_exp, coeff=1):
    return QtPolynomial({(q_exp, t_exp): coeff})


def bracket_run(a, b):
    """[a,b] = q^a t^b + q^{a+1} t^{b-1} + ... + q^b t^a; zero when a > b."""
    if a > b:
        return QtPolynomial()
    return QtPolynomial({(a + i, b - i): 1 for i in range(b - a + 1)})


def sym_run(a, b):
    """(lo, hi, sign) with sym(a, b) = sign * [lo, hi].

    The run [a, b] when a <= b, else the negated run -[b+1, a-1], which is
    empty when a = b + 1.
    """
    if a <= b:
        return a, b, 1
    return b + 1, a - 1, -1


def sym_steps(counts, M, steps, sign):
    """Add to steps, keyed (d, j), sign times the first differences in j of
    the sum of c * sym(a, M-d-a) over the keys (d, a) of counts, and return
    steps.  sym_run gives each term as a signed run lo..hi, which steps by
    its signed c at lo and back at hi + 1."""
    for (d, a), c in counts.items():
        lo, hi, run_sign = sym_run(a, M - d - a)
        c *= sign * run_sign
        key = d, lo
        steps[key] = steps.get(key, 0) + c
        key = d, hi + 1
        steps[key] = steps.get(key, 0) - c
    return steps


def step_runs(steps):
    """(d, lo, hi, value) for each stretch lo <= j < hi of a row d on which
    the prefix sum in j of steps is a nonzero value.  The steps of a row
    sum to 0, so the running sum is 0 again where the next row starts."""
    value = 0
    for (d, j), c in sorted(steps.items()):
        if value:
            yield d, lo, j, value
        value += c
        lo = j


def sym(a, b):
    """(q^{b+1} t^a - q^a t^{b+1}) / (q - t), the signed run sym_run(a, b)."""
    if a < 0 or b < -1:
        raise ValueError("sym requires a >= 0 and b >= -1")
    lo, hi, sign = sym_run(a, b)
    run = bracket_run(lo, hi)
    return run if sign > 0 else -run


def str_run(a, b, c):
    """Run q^a t^{c-a} + ... + q^b t^{c-b} at fixed total degree c."""
    if a > b:
        raise ValueError("str_run requires a <= b")
    if c < b:
        raise ValueError("str_run requires c >= b")
    return QtPolynomial({(j, c - j): 1 for j in range(a, b + 1)})
