"""Shared strategies and fixtures for the wzpi test suite."""
from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from wzpi import (
    BUILTIN_NAMES,
    Poly2,
    RatFunc2,
    UniPoly,
    WZIdentity,
    builtin_record,
    parse_identity,
    poch_exact,
    rhs_exact,
    synthesize_certificate,
    term_value,
)
from wzpi.terms import ClosedForm, HyperTerm, factor_product, p_eval, shift_quotient_n_parts

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


WZ_NAMES = tuple(n for n in BUILTIN_NAMES
                 if builtin_record(n).kind == "wz")
THEOREM_NAMES = tuple(f"theorem{i}" for i in range(1, 12))
PRINTED_CERT_NAMES = tuple(n for n in BUILTIN_NAMES
                           if builtin_record(n).has_certificate)


# -- hypothesis strategies ----------------------------------------------------------

rationals = st.fractions(min_value=Fraction(-30), max_value=Fraction(30),
                         max_denominator=10)
nonzero_rationals = rationals.filter(bool)
small_ints = st.integers(min_value=-8, max_value=8)
lattice_points = st.tuples(st.integers(min_value=-5, max_value=5),
                           st.integers(min_value=-5, max_value=5))


def poly2s(max_degree: int = 3, max_terms: int = 6):
    monomials = st.tuples(st.integers(min_value=0, max_value=max_degree),
                          st.integers(min_value=0, max_value=max_degree))
    return st.dictionaries(monomials, rationals, max_size=max_terms).map(Poly2)


nonzero_poly2s = poly2s().filter(lambda p: not p.is_zero)


def unipolys(max_degree: int = 5):
    return st.lists(rationals, max_size=max_degree + 1).map(UniPoly)


nonzero_unipolys = unipolys().filter(lambda p: not p.is_zero)


# -- generated identity families ----------------------------------------------------

def hypergeometric_record(
    num: list[tuple], den: list[tuple], rhs: list[tuple]
) -> WZIdentity:
    """sum_k prod (num)_k / (prod (den)_k k!) = prod (rhs)_n, as a record;
    each factor is an (argument, exponent) pair."""
    def poch(args):
        return ", ".join(f'"({a})^{e}"' for a, e in args)
    text = "\n".join([
        "[identity]", "name = family", "kind = wz", "z = 1", "p = [1]",
        "fact_pow = 1", f"num_poch = [{poch(num)}]", f"den_poch = [{poch(den)}]",
        "rhs_base = 1", f"rhs_poch = [{poch(rhs)}]"]) + "\n"
    return parse_identity(text).to_identity()


def chu_vandermonde(b: Fraction, c: Fraction) -> WZIdentity:
    # sum_k (-n)_k (b)_k / ((c)_k k!) = (c-b)_n / (c)_n
    return hypergeometric_record([("-n", 1), (b, 1)], [(c, 1)],
                                 [(c - b, 1), (c, -1)])


def pfaff_saalschuetz(a: Fraction, b: Fraction, c: Fraction) -> WZIdentity:
    # sum_k (-n)_k (a)_k (b)_k / ((c)_k (1+a+b-c-n)_k k!)
    #   = (c-a)_n (c-b)_n / ((c)_n (c-a-b)_n)
    return hypergeometric_record(
        [("-n", 1), (a, 1), (b, 1)], [(c, 1), (f"-n+{1 + a + b - c}", 1)],
        [(c - a, 1), (c - b, 1), (c, -1), (c - a - b, -1)])


# both signs, so that some denominator factors hit a pole
family_parameters = st.one_of(
    st.integers(min_value=-6, max_value=9).map(Fraction),
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7),
).filter(bool)
family_identities = st.one_of(
    st.builds(chu_vandermonde, family_parameters, family_parameters),
    st.builds(pfaff_saalschuetz, family_parameters, family_parameters,
              family_parameters))


# -- certificates compared term by term ---------------------------------------------

def normalised_terms(cert):
    """(num, den) coefficient dicts of a certificate, both divided by the
    coefficient of the largest monomial of the denominator.  Two certificates
    in lowest terms are equal exactly when these agree."""
    lead = cert.den.terms[max(cert.den.terms)]
    return ({e: c / lead for e, c in cert.num.terms.items()},
            {e: c / lead for e, c in cert.den.terms.items()})


# -- reference arithmetic in Q(n, k) -----------------------------------------------

class RefRat:
    """A quotient of two Poly2 with sums, products, shift and evaluation:
    the oracle that tests build residuals, shift quotients and normal-form
    identities with.  The package's RatFunc2 is a plain (num, den) pair."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if isinstance(num, (RatFunc2, RefRat)):
            num, den = num.num, num.den
        self.num = num if isinstance(num, Poly2) else Poly2.const(num)
        self.den = den if isinstance(den, Poly2) else Poly2.const(den)
        if self.den.is_zero:
            raise ZeroDivisionError("zero denominator polynomial")

    def __add__(self, other):
        other = RefRat(other)
        return RefRat(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RefRat(-self.num, self.den)

    def __sub__(self, other):
        return self + -RefRat(other)

    def __mul__(self, other):
        other = RefRat(other)
        return RefRat(self.num * other.num, self.den * other.den)

    def __eq__(self, other):
        other = RefRat(other)
        return self.num * other.den == other.num * self.den

    def shift(self, var: str, delta) -> "RefRat":
        return RefRat(self.num.shift(var, delta), self.den.shift(var, delta))

    def eval(self, n, k) -> Fraction:
        d = self.den.eval(n, k)
        if not d:
            raise ZeroDivisionError(f"denominator vanishes at (n={n}, k={k})")
        return self.num.eval(n, k) / d


def shift_quotient_n(t: HyperTerm, rhs: ClosedForm) -> RefRat:
    """Fhat(n+1,k)/Fhat(n,k), Fhat = F / RHS, as one rational function of
    (n, k), from the factor lists of ``shift_quotient_n_parts``."""
    num, den, scal = shift_quotient_n_parts(t, rhs)
    return RefRat(factor_product(num, scal.numerator), factor_product(den, scal.denominator))


# -- exact values of G = R * F / RHS on the lattice ---------------------------------

class PoleOnLattice(ArithmeticError):
    """G has a genuine pole at a lattice point."""


def _times(a: list, b: list) -> list:
    """Product of two coefficient lists in n, ascending powers."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _at(a: list, x) -> Fraction:
    v = Fraction(0)
    for c in reversed(a):
        v = v * x + c
    return v


def _deflate(a: list, x0) -> "tuple[int, list]":
    """(order of the zero of a at x0, a with (n - x0)^order divided out),
    by synthetic division."""
    order = 0
    while a:
        quo, acc = [], Fraction(0)
        for c in reversed(a):
            acc = acc * x0 + c
            quo.append(acc)
        if acc:  # the remainder a(x0)
            break
        order, a = order + 1, quo[-2::-1]
    return order, a


def g_value(ident: WZIdentity, n: int, k: int) -> Fraction:
    """Exact G(n, k) = R(n,k) F(n,k) / RHS(n), resolving a removable 0/0.

    Where the certificate denominator vanishes at (n, k), R F is taken as a
    quotient of polynomials in n at fixed k, on Fraction coefficient lists:
    each Pochhammer factor (c + b n)_k is one there, and the common zeros at
    n cancel by deflation.  A genuine pole raises PoleOnLattice."""
    cert, t = ident.certificate, ident.term
    rhs_val = rhs_exact(ident.rhs, n)
    den_val = cert.den.eval(n, k)
    if den_val:
        return cert.num.eval(n, k) / den_val * term_value(t, n, k) / rhs_val
    scalar = t.prefactor_rational * p_eval(t, k) * t.z ** k / poch_exact(1, k) ** t.fact_pow
    top = [c * scalar for c in cert.num.eval_k(k)]
    bottom = cert.den.eval_k(k)
    for f in t.poch:
        poch = [Fraction(1)]
        for j in range(k):
            poch = _times(poch, [f.offset + j, Fraction(f.n_coeff)])
        for _ in range(abs(f.power)):
            if f.power > 0:
                top = _times(top, poch)
            else:
                bottom = _times(bottom, poch)
    if not any(top):
        return Fraction(0)
    ord_top, top = _deflate(top, n)
    ord_bottom, bottom = _deflate(bottom, n)
    if ord_bottom > ord_top:
        raise PoleOnLattice(f"{ident.name}: G has a pole of order "
                            f"{ord_bottom - ord_top} at (n={n}, k={k})")
    if ord_bottom < ord_top:
        return Fraction(0)
    return _at(top, n) / _at(bottom, n) / rhs_val


# -- shared synthesis results -------------------------------------------------------

class SynthesisCache:
    """Runs certificate synthesis once per identity and remembers wall time.

    The first caller pays for the computation; the recorded elapsed time is
    therefore an honest cold-run measurement for the timing assertions.
    """

    def __init__(self):
        self.results = {}
        self.elapsed = {}

    def get(self, name: str):
        if name not in self.results:
            ident = builtin_record(name).to_identity()
            start = time.perf_counter()
            self.results[name] = synthesize_certificate(ident)
            self.elapsed[name] = time.perf_counter() - start
        return self.results[name]


_CACHE = SynthesisCache()


@pytest.fixture(scope="session")
def synthesis() -> SynthesisCache:
    return _CACHE
