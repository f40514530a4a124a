"""Univariate polynomial and rational-function layer: exact division, gcd,
interpolation, and the field operations used by the summability solver."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from wzpi import RatFn, UniPoly
from wzpi.unipoly import _iprimitive, interpolate

from conftest import nonzero_unipolys, rationals, small_ints, unipolys


# -- ring axioms ---------------------------------------------------------------------

@given(unipolys(), unipolys())
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(unipolys(), unipolys(), unipolys())
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(unipolys(), unipolys())
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(unipolys(max_degree=3), unipolys(max_degree=3), unipolys(max_degree=3))
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(unipolys(), unipolys(), unipolys())
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(unipolys())
def test_additive_and_multiplicative_identities(a):
    assert a + UniPoly() == a
    assert a * UniPoly.const(1) == a
    assert a - a == UniPoly()
    assert (-a) + a == UniPoly()


@given(unipolys(), rationals)
def test_eval_is_a_homomorphism(a, x):
    direct = sum(c * x ** i for i, c in enumerate(a.c))
    assert a.eval(x) == direct


@given(unipolys(), unipolys(), rationals)
def test_eval_respects_ring_operations(a, b, x):
    assert (a + b).eval(x) == a.eval(x) + b.eval(x)
    assert (a * b).eval(x) == a.eval(x) * b.eval(x)


# -- division, gcd, shifts -----------------------------------------------------------

@given(unipolys(), nonzero_unipolys)
def test_divmod_reconstructs_dividend(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


@given(unipolys(max_degree=3), nonzero_unipolys)
def test_exact_div_inverts_multiplication(a, b):
    assert (a * b).exact_div(b) == a


def test_exact_div_rejects_inexact_quotient():
    x = UniPoly((0, 1))
    with pytest.raises(ArithmeticError):
        (x ** 2 + 1).exact_div(x + 1)


@given(nonzero_unipolys, nonzero_unipolys)
def test_gcd_divides_both_and_is_monic(a, b):
    g = a.gcd(b)
    assert g.lc == 1
    assert (a % g).is_zero
    assert (b % g).is_zero


@given(unipolys(max_degree=2), unipolys(max_degree=2), nonzero_unipolys)
def test_gcd_absorbs_common_factor(a, b, g):
    assume(not a.is_zero and not b.is_zero)
    d = (a * g).gcd(b * g)
    assert (d % g.monic()).is_zero


@given(nonzero_unipolys, nonzero_unipolys)
def test_lcm_times_gcd_matches_product(a, b):
    g = a.gcd(b)
    m = a.lcm(b)
    assert (g * m).monic() == (a * b).monic()


@given(unipolys(), rationals, rationals)
def test_shift_commutes_with_eval(a, delta, x):
    assert a.shift(delta).eval(x) == a.eval(x + delta)


@given(unipolys(), rationals, rationals)
def test_shifts_compose(a, d1, d2):
    assert a.shift(d1).shift(d2) == a.shift(d1 + d2)


@given(unipolys(), rationals)
def test_div_linear_leaves_value_as_remainder(a, x0):
    q, rem = a.div_linear(x0)
    assert rem == a.eval(x0)
    assert q * UniPoly((-x0, 1)) + UniPoly.const(rem) == a


@given(unipolys(max_degree=3), rationals, st.integers(min_value=0, max_value=3))
def test_root_multiplicity_deflates_exactly(a, x0, m):
    assume(not a.is_zero)
    assume(a.eval(x0) != 0)
    p = a * UniPoly((-x0, 1)) ** m
    order, deflated = p.root_multiplicity(x0)
    assert order == m
    assert deflated == a


@given(unipolys())
def test_primitive_has_integer_coprime_coefficients(a):
    # the integer primitive part that the gcd runs on
    assume(not a.is_zero)
    prim = UniPoly(_iprimitive(a.int_coeffs()[0]))
    assert prim.lc > 0 and prim.monic() == a.monic()
    coeffs, den = prim.int_coeffs()
    assert den == 1
    from math import gcd
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    assert g == 1


# -- interpolation -------------------------------------------------------------------

@given(unipolys(max_degree=4))
def test_interpolation_recovers_polynomial(p):
    points = [(Fraction(x), p.eval(x)) for x in range(p.degree + 2)]
    assert interpolate(points) == p


@given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=6,
                unique_by=lambda t: t[0]))
def test_interpolation_passes_through_points(points):
    p = interpolate(points)
    for x, y in points:
        assert p.eval(x) == y


# -- rational functions over Q -------------------------------------------------------

@given(unipolys(), nonzero_unipolys)
def test_ratfn_is_stored_reduced_with_monic_denominator(a, b):
    f = RatFn(a, b)
    assert f.den.lc == 1
    if not f.num.is_zero:
        assert f.num.gcd(f.den) == UniPoly.const(1)


@given(unipolys(), nonzero_unipolys, nonzero_unipolys)
def test_ratfn_common_factors_cancel(a, b, c):
    assert RatFn(a * c, b * c) == RatFn(a, b)


@given(unipolys(max_degree=3), nonzero_unipolys, unipolys(max_degree=3),
       nonzero_unipolys)
def test_ratfn_field_laws(a, b, c, d):
    x = RatFn(a, b)
    y = RatFn(c, d)
    assert x + y == y + x
    assert x * y == y * x
    assert x + y - y == x
    if not y.is_zero:
        assert x / y * y == x
    assert (x + y) * (x - y) == x * x - y * y


@given(unipolys(max_degree=3), nonzero_unipolys, small_ints)
def test_ratfn_eval_matches_quotient(a, b, x):
    f = RatFn(a, b)
    if b.eval(x) and f.den.eval(x):
        assert f.eval(x) == a.eval(x) / b.eval(x)


@given(rationals, rationals)
def test_ratfn_scalar_arithmetic(u, v):
    f = RatFn.const(u)
    assert f + v == RatFn.const(u + v)
    assert f * v == RatFn.const(u * v)
    assert (f - v).as_const() == u - v
