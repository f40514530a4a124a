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
    UniPoly,
    WZIdentity,
    builtin_record,
    parse_identity,
    synthesize_certificate,
)

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
