import json

from hypothesis import given
from hypothesis import strategies as st

from qtcat.qtpoly import QtPolynomial, bracket_run, monomial, str_run, sym, sym_run


def poly_of(pairs):
    return QtPolynomial({k: 1 for k in pairs})


def test_bracket_run_golden():
    assert bracket_run(0, 4) == poly_of([(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)])
    assert bracket_run(1, 2) == poly_of([(1, 2), (2, 1)])
    assert bracket_run(3, 2).is_zero()


def test_seven_term_sum():
    # [0,4] + [1,2] has seven terms with the doubled antidiagonal
    c = bracket_run(0, 4) + bracket_run(1, 2)
    assert len(c.terms()) == 7
    assert c.coeff(1, 2) == 1 and c.coeff(2, 1) == 1 and c.coeff(2, 2) == 1


def test_sym_branches():
    assert sym(12, 11).is_zero()
    assert sym(13, 10) == -poly_of([(11, 12), (12, 11)])
    assert sym(0, 0) == monomial(0, 0)
    assert sym(3, 7) == bracket_run(3, 7)


def test_sym_is_its_signed_run():
    # a <= b, a = b + 1 and a > b + 1 all occur; (q - t) times the signed run
    # must be the numerator q^(b+1) t^a - q^a t^(b+1)
    for a in range(7):
        for b in range(-1, 7):
            lo, hi, sign = sym_run(a, b)
            run = QtPolynomial({k: sign * c for k, c in bracket_run(lo, hi).terms()})
            assert sym(a, b) == run, (a, b)
            q_run = QtPolynomial({(i + 1, j): c for (i, j), c in run.terms()})
            t_run = QtPolynomial({(i, j + 1): c for (i, j), c in run.terms()})
            assert q_run - t_run == monomial(b + 1, a) - monomial(a, b + 1), (a, b)


def test_str_run():
    assert str_run(0, 4, 4) == bracket_run(0, 4)
    assert str_run(2, 2, 7) == monomial(2, 5)
    p = str_run(5, 23, 25)
    assert len(p.terms()) == 19
    assert p.coeff(5, 20) == 1 and p.coeff(23, 2) == 1
    try:
        str_run(3, 2, 5)
    except ValueError:
        pass
    else:
        raise AssertionError("a > b must be rejected")


def test_antisymmetry_exhaustive():
    for a in range(0, 51):
        for b in range(0, 51):
            assert sym(a, b) == -sym(b + 1, a - 1)


def test_run_identity_exhaustive():
    for a in range(0, 51):
        for b in range(a + 1, 51):
            assert str_run(a, b, a + b) == sym(a, b)


def test_add_negate_slice():
    p = bracket_run(0, 4)
    assert (p + (-p)).is_zero()
    q = p + bracket_run(1, 2)
    assert q.slice_total_degree(4) == p
    assert q.slice_total_degree(3) == bracket_run(1, 2)
    assert q.slice_total_degree(99).is_zero()


terms_strategy = st.dictionaries(
    st.tuples(st.integers(0, 30), st.integers(0, 30)),
    st.integers(-5, 5).filter(lambda c: c != 0),
    max_size=12,
)


@given(terms_strategy)
def test_json_round_trip(terms):
    p = QtPolynomial(terms)
    assert QtPolynomial.from_obj(json.loads(json.dumps(p.to_obj()))) == p


@given(terms_strategy, terms_strategy)
def test_add_commutes_and_cancels(t1, t2):
    p, q = QtPolynomial(t1), QtPolynomial(t2)
    assert p + q == q + p
    assert (p + q) - q == p


def test_canonical_order():
    p = QtPolynomial({(2, 0): 1, (0, 2): 1, (1, 1): -3})
    assert [k for k, _ in p.terms()] == [(0, 2), (1, 1), (2, 0)]
    assert str(p) == "q^0*t^2 - 3*q^1*t^1 + q^2*t^0"
