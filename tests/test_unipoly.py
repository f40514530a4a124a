"""Univariate polynomial layer: ring operations, exact division, gcd,
interpolation, and the bare (num, den) pair the benchmark's probes read."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from wzpi import UniPoly
from wzpi.unipoly import RatFn, _iprimitive, interpolate

from conftest import nonzero_unipolys, rationals, unipolys


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


@given(unipolys(), rationals)
def test_eval_is_a_homomorphism(a, x):
    direct = sum(c * x ** i for i, c in enumerate(a.c))
    assert a.eval(x) == direct


@given(unipolys(), unipolys(), rationals)
def test_eval_respects_ring_operations(a, b, x):
    assert (a + b).eval(x) == a.eval(x) + b.eval(x)
    assert (a * b).eval(x) == a.eval(x) * b.eval(x)


# -- division and gcd ----------------------------------------------------------------

@given(unipolys(), nonzero_unipolys)
def test_divmod_reconstructs_dividend(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


@given(unipolys(max_degree=3), nonzero_unipolys)
def test_exact_div_inverts_multiplication(a, b):
    assert (a * b).exact_div(b) == a


def test_exact_div_rejects_inexact_quotient():
    x, one = UniPoly((0, 1)), UniPoly.const(1)
    with pytest.raises(ArithmeticError):
        (x * x + one).exact_div(x + one)


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


# -- the (num, den) pair -------------------------------------------------------------

def test_ratfn_stores_its_pair_as_given():
    num, den = UniPoly((2, 4)), UniPoly((0, 2))
    f = RatFn(num, den)
    assert f.num is num and f.den is den
    assert RatFn.__slots__ == ("num", "den")
    assert "__eq__" not in vars(RatFn)
