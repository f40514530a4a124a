"""Ring and field axioms for the bivariate polynomial / rational-function layer."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wzpi import DivisionByZeroFunction, Poly2, RatFunc2
from wzpi.catalog import parse_poly

from conftest import lattice_points, nonzero_poly2s, poly2s, rationals, small_ints


# -- Poly2 ring axioms --------------------------------------------------------------

@given(poly2s(), poly2s())
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(poly2s(), poly2s(), poly2s())
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(poly2s())
def test_zero_is_additive_identity(a):
    zero = Poly2()
    assert a + zero == a
    assert a - a == zero
    assert -(-a) == a


@given(poly2s(), poly2s())
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(poly2s(max_degree=2, max_terms=4), poly2s(max_degree=2, max_terms=4),
       poly2s(max_degree=2, max_terms=4))
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(poly2s())
def test_one_is_multiplicative_identity(a):
    one = Poly2.const(1)
    assert a * one == a
    assert a * Poly2() == Poly2()


@given(poly2s(), poly2s(), poly2s())
def test_multiplication_distributes_over_addition(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(nonzero_poly2s, nonzero_poly2s)
def test_degree_of_product_adds(a, b):
    p = a * b
    assert p.degree("n") == a.degree("n") + b.degree("n")
    assert p.degree("k") == a.degree("k") + b.degree("k")


@given(poly2s(max_degree=2, max_terms=4), st.integers(min_value=0, max_value=4))
def test_power_is_repeated_multiplication(a, m):
    expected = Poly2.const(1)
    for _ in range(m):
        expected = expected * a
    assert a ** m == expected


# -- products and values against Fraction references -----------------------------------

def schoolbook_product(a: Poly2, b: Poly2) -> Poly2:
    """Every pair of terms multiplied and summed in Fractions."""
    terms: dict = {}
    for (i1, j1), c1 in a.terms.items():
        for (i2, j2), c2 in b.terms.items():
            e = (i1 + i2, j1 + j2)
            terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return Poly2(terms)


def fraction_value(a: Poly2, n, k) -> Fraction:
    n, k = Fraction(n), Fraction(k)
    return sum((c * n ** i * k ** j for (i, j), c in a.terms.items()), Fraction(0))


# coefficients up to 10^40 over denominators up to 10^6, of either sign
big_coefficients = st.fractions(min_value=-10 ** 40, max_value=10 ** 40,
                                max_denominator=10 ** 6)


def big_poly2s(max_degree: int = 6, max_terms: int = 12):
    monomials = st.tuples(st.integers(min_value=0, max_value=max_degree),
                          st.integers(min_value=0, max_value=max_degree))
    return st.dictionaries(monomials, st.one_of(big_coefficients, rationals),
                           max_size=max_terms).map(Poly2)


@given(big_poly2s(), big_poly2s())
def test_product_matches_schoolbook_reference(a, b):
    assert a * b == schoolbook_product(a, b)


@given(big_poly2s(), big_poly2s())
def test_products_whose_terms_cancel_match_schoolbook_reference(a, b):
    # (a + b)(a - b): the cross terms cancel slot by slot
    product = (a + b) * (a - b)
    assert product == schoolbook_product(a + b, a - b)
    assert product == a * a - b * b


def test_product_edge_cases():
    n, k = Poly2.var("n"), Poly2.var("k")
    assert (n + k) * (n - k) == Poly2({(2, 0): 1, (0, 2): -1})
    assert (n + k) * Poly2() == Poly2() and Poly2() * Poly2() == Poly2()
    assert Poly2.const(Fraction(-3, 7)) * Poly2.const(Fraction(7, 3)) == Poly2.const(-1)
    # coefficients 2^(8s - 1) - 1 and -1 in neighbouring slots borrow across them
    edge = Poly2({(0, 0): -1, (0, 1): 2 ** 63 - 1, (1, 0): -(2 ** 63 - 1)})
    assert edge * edge == schoolbook_product(edge, edge)
    assert edge * -edge == schoolbook_product(edge, -edge)
    # 256 products of (2^64 - 1)^2 add up in the middle slot, 8 bits beyond
    # the coefficients' own 128
    dense = Poly2({(0, j): 2 ** 64 - 1 for j in range(256)})
    assert dense * dense == schoolbook_product(dense, dense)
    assert (dense * dense).coeff(0, 255) == 256 * (2 ** 64 - 1) ** 2


@given(big_poly2s(), st.tuples(st.integers(min_value=-40, max_value=0),
                               st.integers(min_value=-40, max_value=0)))
def test_eval_matches_fraction_reference_at_negative_lattice_points(a, pt):
    assert a.eval(*pt) == fraction_value(a, *pt)


@given(big_poly2s(), big_coefficients, rationals)
def test_eval_matches_fraction_reference_at_rational_points(a, n, k):
    assert a.eval(n, k) == fraction_value(a, n, k)


# -- the integer representation against Fraction-dict references ---------------------

def fraction_sum(a: dict, b: dict, sign: int = 1) -> dict:
    """{exponent: Fraction} of a + sign*b, zeros dropped."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def fraction_shift(a: dict, var: str, delta: Fraction) -> dict:
    """{exponent: Fraction} of a with var -> var + delta, by the binomial theorem."""
    pos = 0 if var == "n" else 1
    out: dict = {}
    for e, c in a.items():
        m = e[pos]
        for t in range(m + 1):
            f = (t, e[1]) if pos == 0 else (e[0], t)
            out[f] = out.get(f, Fraction(0)) + c * math.comb(m, t) * delta ** (m - t)
    return {e: c for e, c in out.items() if c}


def assert_canonical(p: Poly2) -> None:
    assert p.den > 0 and all(p.ints.values())
    assert math.gcd(p.den, *p.ints.values()) == 1


# zero, constants, linear polynomials and polynomials of higher degree, with
# coefficients up to 10^40
shiftable_poly2s = st.one_of(st.just(Poly2()), big_coefficients.map(Poly2.const),
                             big_poly2s(max_degree=1, max_terms=4),
                             big_poly2s(max_degree=5, max_terms=8))
# deltas with denominators up to 10^6, zero included
deltas = st.fractions(min_value=-1000, max_value=1000, max_denominator=10 ** 6)


@given(big_poly2s(), big_poly2s())
def test_sum_and_difference_match_fraction_reference(a, b):
    for got, want in ((a + b, fraction_sum(a.terms, b.terms)),
                      (a - b, fraction_sum(a.terms, b.terms, -1))):
        assert got.terms == want
        assert got == Poly2(want)
        assert_canonical(got)


@given(shiftable_poly2s, deltas, st.sampled_from("nk"))
def test_shift_matches_fraction_reference(a, delta, var):
    got = a.shift(var, delta)
    assert got.terms == fraction_shift(a.terms, var, delta)
    assert_canonical(got)


@given(big_poly2s(), st.one_of(big_coefficients, deltas))
def test_eval_k_and_coeffs_in_k_match_fraction_reference(a, k):
    row = [Fraction(0)] * (a.degree("n") + 1)
    cols: list = [{} for _ in range(a.degree("k") + 1)]
    for (i, j), c in a.terms.items():
        row[i] += c * k ** j
        cols[j][i] = c
    while row and not row[-1]:
        row.pop()
    assert a.eval_k(k) == row
    assert a.coeffs_in_k() == cols


@given(big_poly2s(), big_coefficients.filter(bool))
def test_representation_is_canonical(a, c):
    back = (a * c) * (1 / c)
    assert back == a and hash(back) == hash(a)
    assert_canonical(a * c)
    assert a - a == Poly2() and hash(a - a) == hash(Poly2())
    assert parse_poly(str(a)) == a


# -- evaluation is a ring homomorphism ----------------------------------------------

@given(poly2s(), poly2s(), lattice_points)
def test_eval_respects_addition_and_multiplication(a, b, pt):
    n, k = pt
    assert (a + b).eval(n, k) == a.eval(n, k) + b.eval(n, k)
    assert (a * b).eval(n, k) == a.eval(n, k) * b.eval(n, k)


@given(poly2s(), rationals, rationals)
def test_eval_accepts_rational_points(a, n, k):
    direct = sum(c * n ** i * k ** j for (i, j), c in a.terms.items())
    assert a.eval(n, k) == direct


@given(poly2s(), lattice_points)
def test_coefficient_slices_reassemble(a, pt):
    n, k = pt
    cols = a.coeffs_in_k()
    rebuilt = Poly2({(i, j): c
                     for j, col in enumerate(cols)
                     for i, c in col.items()})
    assert rebuilt == a
    row = a.eval_k(k)
    assert sum(c * n ** i for i, c in enumerate(row)) == a.eval(n, k)


# -- shift operators ----------------------------------------------------------------

@given(poly2s(), small_ints, lattice_points)
def test_shift_commutes_with_eval_in_k(a, delta, pt):
    n, k = pt
    assert a.shift("k", delta).eval(n, k) == a.eval(n, k + delta)


@given(poly2s(), small_ints, lattice_points)
def test_shift_commutes_with_eval_in_n(a, delta, pt):
    n, k = pt
    assert a.shift("n", delta).eval(n, k) == a.eval(n + delta, k)


@given(poly2s(), rationals)
def test_shift_accepts_rational_deltas(a, delta):
    assert a.shift("k", delta).eval(2, 3) == a.eval(2, 3 + delta)


@given(poly2s(), small_ints, small_ints)
def test_shifts_compose_additively(a, d1, d2):
    assert a.shift("k", d1).shift("k", d2) == a.shift("k", d1 + d2)
    assert a.shift("n", d1).shift("n", d2) == a.shift("n", d1 + d2)


@given(poly2s(), small_ints, small_ints)
def test_shifts_in_different_variables_commute(a, d1, d2):
    assert a.shift("n", d1).shift("k", d2) == a.shift("k", d2).shift("n", d1)


@given(poly2s(), poly2s(), small_ints)
def test_shift_is_a_ring_homomorphism(a, b, delta):
    assert (a + b).shift("k", delta) == a.shift("k", delta) + b.shift("k", delta)
    assert (a * b).shift("k", delta) == a.shift("k", delta) * b.shift("k", delta)


# -- rational functions -------------------------------------------------------------

@given(nonzero_poly2s, nonzero_poly2s, nonzero_poly2s)
def test_ratfunc_equal_ignores_common_factors(p, q, c):
    assert RatFunc2(p * c, q * c) == RatFunc2(p, q)


@given(nonzero_poly2s, nonzero_poly2s, rationals.filter(bool))
def test_ratfunc_equal_ignores_scalar_multiples(p, q, c):
    assert RatFunc2(p * c, q) == RatFunc2(p, q) * c


@given(poly2s(), nonzero_poly2s, poly2s(), nonzero_poly2s)
def test_ratfunc_field_laws(a, b, c, d):
    x = RatFunc2(a, b)
    y = RatFunc2(c, d)
    assert x + y == y + x
    assert x * y == y * x
    assert x - y == -(y - x)
    assert x + y - y == x
    if not c.is_zero:
        assert x / y * y == x


@given(poly2s(), nonzero_poly2s)
def test_ratfunc_eval_matches_fraction_of_evals(a, b):
    x = RatFunc2(a, b)
    for n in range(-3, 4):
        for k in range(-3, 4):
            bv = b.eval(n, k)
            if bv and x.den.eval(n, k):
                assert x.eval(n, k) == a.eval(n, k) / bv


@given(poly2s(), nonzero_poly2s, small_ints)
def test_ratfunc_shift_matches_componentwise_shift(a, b, delta):
    x = RatFunc2(a, b)
    shifted = x.shift("k", delta)
    assert shifted == RatFunc2(a.shift("k", delta), b.shift("k", delta))


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZeroFunction):
        RatFunc2(Poly2.const(1), Poly2())
    with pytest.raises(DivisionByZeroFunction):
        RatFunc2(Poly2.var("n"), 1) / RatFunc2(Poly2(), 1)


def test_variable_constructors():
    n = Poly2.var("n")
    k = Poly2.var("k")
    assert Poly2.linear(2, -3, Fraction(1, 2)) == 2 * n - 3 * k + Fraction(1, 2)
    assert (n * k).degree("n") == 1
    assert (n * k).coeff(1, 1) == 1
    with pytest.raises(ValueError):
        Poly2.var("x")
