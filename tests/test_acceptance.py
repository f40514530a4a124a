"""Acceptance gate: the headline capabilities, each at its stated tolerance.

Every test here pins an end-to-end guarantee:
  1.  the theorem1 printed certificate passes the exact symbolic check in < 1 s;
  2.  exact row sums match closed forms for n = 0..20 on every terminating
      identity, with zero tolerance, in < 60 s total;
  3.  the printed-certificate audit reports an explicit outcome for every
      printed certificate, including the two flagged misprints;
  4.  synthesis produces a verified certificate for all twelve terminating
      identities, each in < 120 s, in lowest terms: the printed sizes, and
      term by term the printed certificate (-1 times it for theorem2);
  5.  at n = -1/(2a) the closed form and the accelerated series both land
      within 1e-9 of 2/pi for theorems 1-11;
  6.  theorem6's closed form matches sqrt(5)/(pi (cos(pi/5)+cos(2pi/5)))
      to 1e-12, and the cosine sum matches sqrt(5)/2 to 1e-15;
  7.  two terms of the quartic-base tail series give pi to < 1e-12, checked
      against a high-precision oracle;
  8.  the exact-arithmetic and floating-point property suites hold at their
      stated tolerances;
  9.  substituting n = -1/(2a) into every terminating identity's factor lists
      yields exactly the alternating (1/2)^3 / k!^3, p = 4k+1 shape.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest

from wzpi import (
    BUILTIN_NAMES,
    Poly2,
    RatFunc2,
    builtin_record,
    carlson_point_check,
    load_builtin,
    log_gamma,
    parse_identity,
    pi_from_series,
    poch_exact,
    reduces_to_ramanujan,
    rhs_exact,
    rhs_numeric,
    serialize_identity,
    term_value,
    termination_bound,
    trig_identity_check,
    verify_certificate,
    verify_exact_sums,
    wz_residual,
)
from wzpi import HyperTerm, PochFactor
from wzpi.numeric import series_numeric
from wzpi.terms import carlson_substitution

from conftest import PRINTED_CERT_NAMES, THEOREM_NAMES, WZ_NAMES, RefRat, normalised_terms

mpmath.mp.dps = 50


# -- 1. printed certificate of theorem1 ----------------------------------------------

def test_theorem1_certificate_check_is_exact_and_fast():
    ident = load_builtin("theorem1")
    start = time.perf_counter()
    assert wz_residual(ident).num.is_zero
    report = verify_certificate(ident)
    elapsed = time.perf_counter() - start
    assert report.symbolic_ok and report.boundary_ok and report.base_case_ok
    assert elapsed < 1.0


# -- 2. exact sums, zero tolerance ----------------------------------------------------

def test_exact_sums_for_all_terminating_identities():
    start = time.perf_counter()
    for name in WZ_NAMES:
        report = verify_exact_sums(load_builtin(name), n_max=20)
        assert report.exact_sums_ok, (name, report.failure_detail)
        assert report.n_checked == 20
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


# -- 3. printed-certificate audit ------------------------------------------------------

def test_printed_certificate_audit_lists_every_outcome(synthesis):
    audit: dict[str, str] = {}
    for name in PRINTED_CERT_NAMES:
        report = verify_certificate(load_builtin(name))
        if report.symbolic_ok:
            audit[name] = "pass"
        else:
            residual = wz_residual(load_builtin(name))
            assert not residual.num.is_zero
            assert builtin_record(name).erratum, (
                f"{name}: unflagged certificate failure")
            audit[name] = "fail (nonzero residual, flagged)"

    assert set(audit) == set(PRINTED_CERT_NAMES) == {
        f"theorem{i}" for i in range(1, 10)}
    assert audit["theorem9"].startswith("fail")
    assert audit["theorem2"].startswith("fail")
    for i in (1, 3, 4, 5, 6, 7, 8):
        assert audit[f"theorem{i}"] == "pass"

    # synthesized replacements for the failures must verify
    for name in ("theorem2", "theorem9"):
        result = synthesis.get(name)
        assert result.status == "Summable"
        ident = replace(load_builtin(name), certificate=result.certificate)
        assert wz_residual(ident).num.is_zero
        audit[name] += "; synthesized replacement passes"
    assert all(outcome for outcome in audit.values())


# -- 4. synthesis suite ----------------------------------------------------------------

@pytest.mark.parametrize("name", WZ_NAMES)
def test_synthesis_yields_verified_certificate(name, synthesis):
    result = synthesis.get(name)
    assert result.status == "Summable"
    assert result.certificate is not None
    assert result.report is not None
    assert result.report.symbolic_ok and result.report.boundary_ok
    assert synthesis.elapsed[name] < 120.0


# numerator/denominator monomials of the synthesized certificates
CERT_SIZES = {"zeilberger": (1, 5), "theorem1": (5, 9),
              **dict.fromkeys(("theorem2", "theorem3"), (13, 20)),
              **dict.fromkeys(("theorem4", "theorem5"), (25, 35)),
              **dict.fromkeys(("theorem6", "theorem7", "theorem8", "theorem9"), (41, 54)),
              **dict.fromkeys(("theorem10", "theorem11"), (85, 104))}


@pytest.mark.parametrize("name", WZ_NAMES)
def test_synthesized_certificate_is_the_printed_one(name, synthesis):
    cert = synthesis.get(name).certificate
    assert (len(cert.num.terms), len(cert.den.terms)) == CERT_SIZES[name]
    printed = load_builtin(name).certificate
    if name == "theorem2":
        printed = RatFunc2(-printed.num, printed.den)
    if printed is not None and name != "theorem9":
        assert normalised_terms(cert) == normalised_terms(printed)


# -- 5. rational-point suite -------------------------------------------------------------

@pytest.mark.parametrize("name", THEOREM_NAMES)
def test_rational_point_values_reach_two_over_pi(name):
    chk = carlson_point_check(load_builtin(name))
    assert chk.rhs_error < 1e-9, f"{name}: closed form off by {chk.rhs_error}"
    assert chk.series_error < 1e-9, f"{name}: series off by {chk.series_error}"


# -- 6. theorem6 closed form ------------------------------------------------------------

def test_theorem6_special_value_and_cosine_sum():
    ident = load_builtin("theorem6")
    cos_sum = math.cos(math.pi / 5) + math.cos(2 * math.pi / 5)
    special = math.sqrt(5.0) / (math.pi * cos_sum)
    got = rhs_numeric(ident.rhs, Fraction(-1, 2))
    assert abs(got - special) < 1e-12
    assert abs(cos_sum - math.sqrt(5.0) / 2.0) < 1e-15
    assert trig_identity_check() < 1e-15


# -- 7. two-term pi estimate --------------------------------------------------------------

TWO_TERM_PI = 3.1415926535897936          # float nearest the 50-digit truncation


def test_two_term_pi_estimate():
    est = pi_from_series("r1103", terms=2)
    assert abs(est - math.pi) < 1e-12
    assert est == pytest.approx(TWO_TERM_PI, abs=5e-16)

    # independent high-precision recomputation of the same truncation
    term = load_builtin("r1103").term
    partial = sum(
        mpmath.mpf(term_value(term, 0, k).numerator)
        / term_value(term, 0, k).denominator
        for k in range(2))
    partial *= mpmath.sqrt(int(term.prefactor_sqrt))
    oracle = 1 / partial
    assert abs(oracle - mpmath.mpf("3.14159265358979387799890582631")) \
        < mpmath.mpf("1e-28")
    assert abs(est - float(oracle)) < 5e-16


# -- 8. property-suite summary (deterministic mirrors) -------------------------------------

def _random_poly(rng: random.Random) -> Poly2:
    return Poly2({(rng.randint(0, 3), rng.randint(0, 3)):
                  Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(rng.randint(0, 5))})


def test_ring_axioms_hold_on_seeded_samples():
    rng = random.Random(42)
    for _ in range(60):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_shift_eval_commutation_on_seeded_samples():
    rng = random.Random(43)
    for _ in range(60):
        p = _random_poly(rng)
        d, n, k = rng.randint(-4, 4), rng.randint(-3, 3), rng.randint(-3, 3)
        assert p.shift("k", d).eval(n, k) == p.eval(n, k + d)
        assert p.shift("n", d).eval(n, k) == p.eval(n + d, k)


def test_quotient_equality_is_representation_independent():
    rng = random.Random(44)
    checked = 0
    while checked < 40:
        p, q, c = (_random_poly(rng) for _ in range(3))
        if q.is_zero or c.is_zero:
            continue
        assert RatFunc2(p * c, q * c) == RatFunc2(p, q)
        checked += 1


def test_pochhammer_recurrence_on_seeded_samples():
    rng = random.Random(45)
    for _ in range(50):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        k = rng.randint(0, 20)
        assert poch_exact(a, k + 1) == poch_exact(a, k) * (a + k)


def test_shift_quotients_match_term_values_on_catalog():
    from wzpi.terms import shift_quotient_k
    for name in WZ_NAMES:
        t = load_builtin(name).term
        n = 4
        bound = termination_bound(t, n)
        k = min(1, bound - 1)
        r = RefRat(shift_quotient_k(t))
        assert r.eval(n, k) == term_value(t, n, k + 1) / term_value(t, n, k)


def test_gamma_recurrence_and_reflection():
    rng = random.Random(46)
    for _ in range(200):
        x = rng.uniform(1e-2, 30.0)
        la1, _ = log_gamma(x + 1.0)
        la0, _ = log_gamma(x)
        assert abs(la1 - la0 - math.log(x)) < 1e-12 * max(1.0, abs(la1))
    checked = 0
    while checked < 200:
        x = rng.uniform(-10.0, 10.0)
        if abs(x - round(x)) < 1e-3:
            continue
        la_x, s_x = log_gamma(x)
        la_r, s_r = log_gamma(1.0 - x)
        sin_pi_x = ((1 if math.floor(x) % 2 == 0 else -1)
                    * math.sin(math.pi * (x - math.floor(x))))
        assert abs(s_x * s_r * math.exp(la_x + la_r) * sin_pi_x / math.pi
                   - 1.0) < 1e-12
        checked += 1


def test_accelerator_on_logarithm_and_arctangent_series():
    tol = 1e-12  # z = -1: accelerated
    ln2 = HyperTerm(poch=(PochFactor(0, 1, 2), PochFactor(0, 2, -1)),
                    fact_pow=1, z=-1, p=(1,))
    assert abs(series_numeric(ln2, 0, tol) - math.log(2.0)) < 1e-10
    leibniz = HyperTerm(poch=(PochFactor(0, Fraction(1, 2), 1),
                              PochFactor(0, Fraction(3, 2), -1)),
                        fact_pow=0, z=-1, p=(1,))
    assert abs(series_numeric(leibniz, 0, tol) - math.pi / 4.0) < 1e-10


def test_catalog_serialization_fixed_point():
    for name in BUILTIN_NAMES:
        text = serialize_identity(builtin_record(name))
        assert serialize_identity(parse_identity(text)) == text


# -- 9. structural reduction -----------------------------------------------------------

@pytest.mark.parametrize("name", WZ_NAMES)
def test_reduction_to_the_base_factor_multiset(name):
    rec = builtin_record(name)
    term = rec.to_identity().term
    assert reduces_to_ramanujan(term, rec.carlson_a)
    args, fact, z, p = carlson_substitution(term, rec.carlson_a)
    assert args == {Fraction(1, 2): 3}
    assert fact == 3
    assert z == -1
    assert p == (Fraction(1), Fraction(4))


# -- exact values that anchor the numeric layer -----------------------------------------

def test_frozen_exact_anchors():
    assert poch_exact(Fraction(1, 2), 3) == Fraction(15, 8)
    assert rhs_exact(load_builtin("theorem1").rhs, 1) == Fraction(3, 5)
    assert rhs_exact(load_builtin("zeilberger").rhs, 2) == Fraction(15, 8)
    ram = load_builtin("ramanujan").term
    assert term_value(ram, 0, 1) == Fraction(-5, 8)
