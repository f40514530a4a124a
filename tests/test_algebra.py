"""Ring axioms for the bivariate polynomial layer, and the contract of the
certificate quotient: cross-multiplied equality and no arithmetic."""
from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wzpi import DivisionByZeroFunction, Poly2, RatFunc2, load_builtin, synthesize_certificate
from wzpi import algebra
from wzpi.algebra import SCHOOLBOOK_TERMS, KShifted, Product, sum_of_products
from wzpi.catalog import parse_poly

from conftest import (PRINTED_CERT_NAMES, WZ_NAMES, lattice_points, nonzero_poly2s,
                      nonzero_rationals, poly2s, rationals, small_ints)


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


@given(st.one_of(big_poly2s(max_degree=1, max_terms=3), big_poly2s(max_terms=3)),
       big_poly2s())
def test_products_with_a_few_term_operand_match_schoolbook_reference(a, b):
    # zero, constants and linear factors against anything: the term-by-term path
    product = a * b
    assert product == schoolbook_product(a, b) == b * a
    assert_canonical(product)


@pytest.mark.parametrize("m", [SCHOOLBOOK_TERMS, SCHOOLBOOK_TERMS + 1])
def test_products_on_both_sides_of_the_term_threshold(m):
    # m terms against m + 3, so term by term at the threshold and Kronecker
    # packing one term above it; coefficients of both signs past 2^64
    a = Poly2({(i, m - i): Fraction((-1) ** i * (2 ** 70 + i), 3 + i) for i in range(m)})
    b = Poly2({(i % 4, i // 4): Fraction((-1) ** i * (2 ** 65 - i), 7) for i in range(m + 3)})
    assert len(a.ints) == m
    for x, y in ((a, b), (a, a), (a, -a)):
        product = x * y
        assert product == schoolbook_product(x, y) == y * x
        assert_canonical(product)


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


# -- sums of products on one packed int -------------------------------------------------

def as_poly2(f) -> Poly2:
    """A factor of sum_of_products as a Poly2: an int triple (e, a, c) is
    e*k + a*n + c, and a KShifted A is A shifted by ``Poly2.shift``."""
    if isinstance(f, KShifted):
        return f[0].shift("k", 1)
    if isinstance(f, tuple):
        e, a, c = f
        return Poly2({(0, 1): e, (1, 0): a, (0, 0): c})
    return f


def reference_sum_of_products(terms) -> Poly2:
    """Each term's scale times its factors by schoolbook products, summed."""
    total = Poly2()
    for scale, factors in terms:
        product = Poly2.const(scale)
        for f in factors:
            product = schoolbook_product(product, as_poly2(f))
        total = total + product
    return total


def power_of_linear(a: int, e: int, c: int, m: int) -> Poly2:
    """(a*n + e*k + c)^m by the multinomial theorem: the coefficient of
    n^i k^j is m!/(i! j! (m-i-j)!) a^i e^j c^(m-i-j)."""
    return Poly2({(i, j): math.comb(m, i) * math.comb(m - i, j) * a ** i * e ** j * c ** (m - i - j)
                  for i in range(m + 1) for j in range(m + 1 - i)})


# ints past 2^64 of both signs, and Fractions over denominators up to 10^6
big_ints = st.integers(min_value=-2 ** 80, max_value=2 ** 80)
linear_factors = st.tuples(st.one_of(big_ints, big_coefficients), big_ints,
                           st.one_of(big_ints, big_coefficients)).map(lambda t: Poly2.linear(*t))
# one monomial per factor: the product's coefficient is the slot bound itself
monomial_factors = st.tuples(st.integers(min_value=0, max_value=3),
                             st.integers(min_value=0, max_value=3),
                             st.one_of(big_ints, big_coefficients)).map(
    lambda t: Poly2({t[:2]: t[2]}))
# e*k + a*n + c as an int triple, with e = 0 or a = 0 in about half the draws
triple_factors = st.tuples(st.one_of(big_ints, st.just(0)), st.one_of(big_ints, st.just(0)),
                           big_ints)
# 1 to 3 terms of either sign, packed by the same Horner packer as longer factors
few_term_factors = st.dictionaries(st.tuples(st.integers(min_value=0, max_value=3),
                                             st.integers(min_value=0, max_value=3)),
                                   st.one_of(big_ints, big_coefficients).filter(bool),
                                   min_size=1, max_size=3).map(Poly2)
kernel_factors = st.one_of(linear_factors, triple_factors, monomial_factors, few_term_factors,
                           big_poly2s(max_degree=3, max_terms=6),
                           st.one_of(monomial_factors, few_term_factors,
                                     big_poly2s(max_degree=3, max_terms=6),
                                     st.just(Poly2())).map(KShifted),
                           st.one_of(big_coefficients, rationals).map(Poly2.const),
                           st.just(Poly2()))
product_terms = st.lists(st.tuples(st.one_of(rationals, big_coefficients),
                                   st.lists(kernel_factors, max_size=5)), max_size=4)


@given(product_terms)
def test_sum_of_products_matches_schoolbook_reference(terms):
    got = sum_of_products(terms)
    assert got == reference_sum_of_products(terms)
    # a triple gives what its Poly2 gives
    assert got == sum_of_products([(scale, [as_poly2(f) for f in fs]) for scale, fs in terms])
    if not got.is_zero:
        assert_canonical(got)


@given(product_terms, monomial_factors, rationals)
def test_sums_of_products_that_cancel_to_zero_or_one_monomial(terms, mono, c):
    # every term again with its scale negated, so the sum is exactly zero
    cancelling = terms + [(-scale, factors) for scale, factors in terms]
    assert sum_of_products(cancelling) == Poly2()
    assert sum_of_products(cancelling + [(c, [mono])]) == mono * c
    assert sum_of_products(cancelling + [(c, [mono, Poly2.var("k")])]) == mono * c * Poly2.var("k")


def test_sum_of_products_of_zero_and_empty_factor_lists():
    n, k = Poly2.var("n"), Poly2.var("k")
    assert sum_of_products([]) == Poly2()
    assert sum_of_products([(3, [n, Poly2(), k])]) == Poly2()
    assert sum_of_products([(0, [n, k])]) == Poly2()
    assert sum_of_products([(Fraction(5, 3), [])]) == Poly2.const(Fraction(5, 3))
    assert sum_of_products([(2, []), (1, [Poly2()]), (-2, [])]) == Poly2()


def test_sparse_factors_go_in_by_shift_and_add(monkeypatch):
    # 40 linear Poly2 factors, as many as the bound test above draws: none is
    # packed by Horner's rule, so each costs a shift-and-add, not a product
    pack, calls = algebra._pack, []
    monkeypatch.setattr(algebra, "_pack", lambda *a: calls.append(a) or pack(*a))
    fs = [Poly2.linear(2 ** 70, -1, -2 ** 70), Poly2.linear(1, 1, 0)] * 20
    got = sum_of_products([(3, fs)])
    assert calls == []
    assert got == sum_of_products([(3, [(-1, 2 ** 70, -2 ** 70), (1, 1, 0)] * 20)])


@pytest.mark.parametrize("t", [1, 2, 8, 9])
@pytest.mark.parametrize("delta", [-2, -1, 0])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("packed", [False, True], ids=["shifted", "packed"])
def test_sum_of_products_on_both_sides_of_a_slot_byte_boundary(t, delta, sign, packed):
    # c*n*k beside -sign*n, with the slot bound at 2^(8t-1) + delta: just
    # below, at or just above the point where a slot gains a byte.  c and its
    # neighbour have opposite signs, so the packed int carries across them
    n, k = Poly2.var("n"), Poly2.var("k")
    if packed:  # one four-term factor, multiplied in packed; bound |c| + 4
        c = sign * (2 ** (8 * t - 1) + delta - 4)
        wide = Poly2({(1, 1): c, (2, 0): 1, (0, 2): 1, (0, 0): 1})
        terms = [(1, [wide]), (-1, [n * n]), (-1, [k * k]), (-1, []), (-sign, [n])]
    else:  # two one-term factors; bound |c| + 1
        c = sign * (2 ** (8 * t - 1) + delta - 1)
        terms = [(c, [n, k]), (-sign, [n])]
    got = sum_of_products(terms)
    assert got == Poly2({(1, 1): c, (1, 0): -sign})
    assert got == reference_sum_of_products(terms)


@given(st.one_of(rationals, big_coefficients), st.integers(min_value=0, max_value=40))
def test_sum_of_products_at_the_bound_of_a_linear_product(c, m):
    # (n + k)^m has coefficients binom(m, j), and (n - k)^m the same with
    # alternating signs; both against |f_1|_inf * prod |f_i|_1 = 2^(m-1).
    # Each factor goes in as a Poly2 and as its triple
    for a, e, g in ((1, 1, 0), (1, -1, 0), (2 ** 70, -1, -2 ** 70)):
        f = Poly2.linear(a, e, g)
        expected = power_of_linear(a, e, g, m) * c
        assert sum_of_products([(c, [f] * m)]) == expected == Poly2.const(c) * f ** m
        assert sum_of_products([(c, [(e, a, g)] * m)]) == expected


@pytest.mark.parametrize("t", [1, 2, 8, 9])
@pytest.mark.parametrize("delta", [-2, -1, 0])
@pytest.mark.parametrize("sign", [1, -1])
def test_a_factor_at_k_plus_one_packs_at_the_slot_bound(t, delta, sign):
    # f = 1 + k + k^2 + k^3 against A(n, k + 1) for A = c*k^3: the k^3
    # coefficient of f * (k + 1)^3 * c is c * 2^3 = |f|_inf * sum |c_ij| 2^j,
    # the bound met exactly; with d*k^3 beside it, the slot bound is
    # 2^(8t-1) + delta: just below, at or just above a byte boundary
    k = Poly2.var("k")
    c, d = sign * (2 ** (8 * t - 4) - 1), sign * (8 + delta)
    f, a = Poly2({(0, j): 1 for j in range(4)}), c * k ** 3
    got = sum_of_products([(1, [f, KShifted(a)]), (d, [k ** 3])])
    shifted = [(1, [f, a.shift("k", 1)]), (d, [k ** 3])]
    assert got == sum_of_products(shifted) == reference_sum_of_products(shifted)
    assert got.coeff(0, 3) == sign * (2 ** (8 * t - 1) + delta)


@given(st.one_of(big_poly2s(), big_poly2s(max_degree=0), st.just(Poly2())),
       st.sampled_from("nk"),
       st.one_of(st.just(0), st.integers(-5, 5), rationals, big_coefficients))
def test_row_matches_fraction_reference(a, var, value):
    # the other variable's coefficients, highest power first, from the terms
    pos = "nk".index(var)
    want = [Fraction(0)] * (a.degree("nk"[1 - pos]) + 1)
    for e, c in a.terms.items():
        want[-1 - e[1 - pos]] += c * Fraction(value) ** e[pos]
    ints, den = a.row(var, value)
    assert all(type(x) is int for x in ints)
    assert den == a.den * Fraction(value).denominator ** max(a.degree(var), 0)
    assert [Fraction(x, den) for x in ints] == want


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
        cols[j][(i, 0)] = c
    while row and not row[-1]:
        row.pop()
    assert a.eval_k(k) == row
    for j, col in enumerate(cols):
        assert a.k_coeff(j).terms == col
        assert_canonical(a.k_coeff(j))


@given(big_poly2s(), big_coefficients.filter(bool))
def test_representation_is_canonical(a, c):
    back = (a * c) * (1 / c)
    assert back == a and hash(back) == hash(a)
    assert_canonical(a * c)
    assert a - a == Poly2() and hash(a - a) == hash(Poly2())
    assert parse_poly(str(a)) == a


# -- exact division -------------------------------------------------------------------

polys_in_n = st.lists(rationals, max_size=4).map(
    lambda cs: Poly2({(i, 0): c for i, c in enumerate(cs)}))
K = Poly2.var("k")


@given(big_poly2s(max_degree=4, max_terms=8), polys_in_n, nonzero_rationals,
       polys_in_n.filter(lambda h: not h.is_zero), lattice_points)
def test_division_by_a_factor_linear_in_k(g, a, c, h, pt):
    # f = c k + a(n), the shape of the factors the certificate assembly
    # divides out (c = 1, or the multiplier's leading coefficient)
    f = c * K + a
    quo = (g * f).divide(f)
    assert quo == g
    assert_canonical(quo)
    # a remainder free of k is left over, so f does not divide
    assert (g * f + h).divide(f) is None
    n, k = pt
    assert quo.eval(n, k) * f.eval(n, k) == (g * f).eval(n, k)
    assert quo.eval(n, k) == g.eval(n, k)


@given(poly2s(), polys_in_n.filter(lambda d: d.degree("n") > 0), rationals)
def test_division_by_a_factor_free_of_k_runs_in_n(g, d, e):
    # lc_k(d) = d is no constant, so the division runs in n
    assert (g * d).divide(d) == g
    if e:
        assert (g * d + e).divide(d) is None
    with pytest.raises(ValueError):
        g.divide(d * K + 1)


def reference_divide(a: Poly2, f: Poly2):
    """Poly2.divide as it was written first: the remainder is one dict, and
    each column is read by a scan over all of it."""
    for var, pos in (("k", 1), ("n", 0)):
        m = f.degree(var)
        lead = [e for e in f.ints if e[pos] == m]
        if lead == [(0, m) if pos else (m, 0)]:
            break
    else:
        raise ValueError(f"{f} has no constant leading coefficient in k or n")
    c = f.ints[lead[0]]
    rest, quo, scale = dict(a.ints), {}, 1
    for top in range(a.degree(var), m - 1, -1):
        col = {e: v for e, v in rest.items() if e[pos] == top and v}
        s = abs(c) // math.gcd(c, *col.values())
        if s > 1:
            rest = {e: v * s for e, v in rest.items()}
            quo = {e: v * s for e, v in quo.items()}
            scale *= s
        for (i, j), v in col.items():
            q = (i, j - m) if pos else (i - m, j)
            quo[q] = t = v * s // c
            for (x, y), fc in f.ints.items():
                e = (q[0] + x, q[1] + y)
                rest[e] = rest.get(e, 0) - t * fc
    if any(rest.values()):
        return None
    return Poly2({e: Fraction(v * f.den, a.den * scale) for e, v in quo.items()})


@st.composite
def divisors(draw):
    """c * v^d plus terms of lower degree in v, for v = k or n: a constant
    leading coefficient in k, or in n where the one in k is not constant."""
    pos = draw(st.sampled_from((0, 1)))
    d = draw(st.integers(min_value=0, max_value=3))
    low = draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               st.one_of(big_coefficients, rationals), max_size=5))
    lead = (0, d) if pos else (d, 0)
    return Poly2({lead: draw(nonzero_rationals),
                  **{e: c for e, c in low.items() if e[pos] < d}})


@given(big_poly2s(max_degree=4, max_terms=8), divisors(), polys_in_n)
def test_division_matches_the_reference(g, f, h):
    # exact products, products plus a remainder (mostly not divisible) and
    # arbitrary dividends
    for a in (g * f, g * f + h + 1, g):
        got = a.divide(f)
        assert got == reference_divide(a, f)
        if got is not None:
            assert_canonical(got)
    assert (g * f).divide(f) == g


def test_division_matches_the_reference_on_the_residual_split(monkeypatch):
    # the divisions of the split of each printed denominator, given expanded,
    # then every division of a synthesis pass over the wz records (the
    # assembly's split and gcd) and of the split of each synthesized
    # denominator, given expanded
    def split(ident, cert):
        return replace(ident, certificate=RatFunc2(cert.num, cert.den)).den_split

    calls = []
    divide = Poly2.divide
    monkeypatch.setattr(Poly2, "divide", lambda a, f: calls.append((a, f)) or divide(a, f))
    for name in PRINTED_CERT_NAMES:
        ident = load_builtin(name)
        split(ident, ident.certificate)
    printed = len(calls)
    for name in WZ_NAMES:
        ident = load_builtin(name)
        split(ident, synthesize_certificate(ident).certificate)
    monkeypatch.undo()
    quotients = [divide(a, f) for a, f in calls]
    assert printed > 20 and None not in quotients[:printed]
    assert len(calls) - printed > 40
    assert quotients == [reference_divide(a, f) for a, f in calls]


linear_coefficients = st.one_of(st.just(0), st.just(Fraction(0)),
                                st.integers(min_value=-10 ** 20, max_value=10 ** 20),
                                st.fractions(min_value=-50, max_value=50,
                                             max_denominator=10 ** 6))


@given(linear_coefficients, linear_coefficients, linear_coefficients)
def test_linear_matches_the_general_constructor(a, b, c):
    got = Poly2.linear(a, b, c)
    want = Poly2({(1, 0): a, (0, 1): b, (0, 0): c})
    assert got == want and hash(got) == hash(want)
    assert_canonical(got)


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
    cols = [a.k_coeff(j) for j in range(a.degree("k") + 1)]
    assert all(col.degree("k") <= 0 for col in cols)
    rebuilt = Poly2({(i, j): c
                     for j, col in enumerate(cols)
                     for (i, _), c in col.terms.items()})
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


# -- certificates: quotients with cross-multiplied equality and no arithmetic -------

@given(nonzero_poly2s, nonzero_poly2s, nonzero_poly2s)
def test_ratfunc_equal_ignores_common_factors(p, q, c):
    assert RatFunc2(p * c, q * c) == RatFunc2(p, q)


@given(nonzero_poly2s, nonzero_poly2s, rationals.filter(bool))
def test_ratfunc_equal_ignores_scalar_multiples(p, q, c):
    assert RatFunc2(p * c, q * c) == RatFunc2(p, q)
    assert RatFunc2(p * c, q) == RatFunc2(p, q * (1 / c))
    assert (RatFunc2(p * c, q) == RatFunc2(p, q)) == (c == 1)


@given(poly2s(), nonzero_poly2s, nonzero_poly2s, nonzero_poly2s)
def test_ratfunc_equality_is_cross_multiplication(a, b, c, e):
    x = RatFunc2(a, b)
    assert (x == RatFunc2(c, e)) == (a * e == c * b)
    assert x == RatFunc2(a * c, b * c)
    # a perturbed numerator is another function
    assert x != RatFunc2(a + c, b)
    assert not x == RatFunc2(a * c + e, b * c)
    # a polynomial or a number is no certificate: unequal, without raising
    assert x != a and not x == a and not a == x
    assert x != 1 and not x == 0
    with pytest.raises(TypeError):
        hash(x)


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZeroFunction):
        RatFunc2(Poly2.const(1), Poly2())
    with pytest.raises(DivisionByZeroFunction):
        RatFunc2(Poly2.var("n"), 0)
    with pytest.raises(DivisionByZeroFunction):
        RatFunc2(Poly2.var("n"), Product(0, [(1, 0, 1)]))


def test_a_product_denominator_is_expanded_once_and_only_when_read(monkeypatch):
    n, k = Poly2.var("n"), Poly2.var("k")
    square = (n * n + 1) * (n * n + 1)
    product = Product(Fraction(-3, 2), [(4, 0, 1), (1, -1, -1), (1, -1, -1), n * n + 1])
    expanded = Fraction(-3, 2) * (4 * k + 1) * (k - n - 1) * (k - n - 1) * (n * n + 1)
    assert product == expanded and expanded == product and hash(product) == hash(expanded)
    assert str(product) == str(expanded) and product != square
    expand, calls = Product.expand, []
    monkeypatch.setattr(Product, "expand", lambda self: calls.append(self) or expand(self))
    x = RatFunc2(k, product)
    assert x.product is product and calls == []
    assert x.den == expanded and x.den is x.den and calls == [product]
    assert RatFunc2(k, expanded).product is None
    assert x == RatFunc2(2 * k, 2 * expanded)


def test_certificates_have_no_arithmetic():
    x = RatFunc2(Poly2.var("n"), Poly2.var("k") + 1)
    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__",
                 "__radd__", "__rsub__", "__rmul__", "__rtruediv__", "shift", "eval"):
        assert not hasattr(x, name), name


def test_variable_constructors():
    n = Poly2.var("n")
    k = Poly2.var("k")
    assert Poly2.linear(2, -3, Fraction(1, 2)) == 2 * n - 3 * k + Fraction(1, 2)
    assert (n * k).degree("n") == 1
    assert (n * k).coeff(1, 1) == 1
    with pytest.raises(ValueError):
        Poly2.var("x")
