"""Floating-point layer: log-gamma, numeric closed forms, series summation
(accelerated when z < 0), and the machine-precision pi targets, frozen."""
from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest

from wzpi import (
    ClosedForm,
    HyperTerm,
    NoConvergence,
    NumericConfig,
    PochFactor,
    PoleError,
    builtin_record,
    carlson_point_check,
    load_builtin,
    log_gamma,
    pi_from_series,
    poch_exact,
    rhs_exact,
    rhs_numeric,
    trig_identity_check,
)
from wzpi import numeric
from wzpi.numeric import _accelerated_alternating, series_numeric

from conftest import THEOREM_NAMES, WZ_NAMES

mpmath.mp.dps = 40

# alternating probe series with known limits
LN2_TERM = HyperTerm(poch=(PochFactor(0, 1, 2), PochFactor(0, 2, -1)),
                     fact_pow=1, z=-1, p=(1,))
LEIBNIZ_TERM = HyperTerm(poch=(PochFactor(0, Fraction(1, 2), 1),
                               PochFactor(0, Fraction(3, 2), -1)),
                         fact_pow=0, z=-1, p=(1,))
CATALAN_TERM = HyperTerm(poch=(PochFactor(0, Fraction(1, 2), 2),
                               PochFactor(0, Fraction(3, 2), -2)),
                         fact_pow=0, z=-1, p=(1,))
CATALAN = 0.915965594177219015054603514932

TIGHT_CFG = NumericConfig(target_abs_tol=1e-12)


# -- log-gamma ----------------------------------------------------------------------

def test_log_gamma_spot_values():
    la, sign = log_gamma(0.5)
    assert sign == 1 and abs(la - math.log(math.sqrt(math.pi))) < 1e-14
    la, sign = log_gamma(5.0)
    assert sign == 1 and abs(la - math.log(24.0)) < 1e-14
    la, sign = log_gamma(-0.5)
    assert sign == -1 and abs(la - math.log(2 * math.sqrt(math.pi))) < 1e-14


def test_log_gamma_matches_stdlib_on_positive_axis():
    rng = random.Random(20260814)
    for _ in range(200):
        x = rng.uniform(1e-3, 30.0)
        la, sign = log_gamma(x)
        assert sign == 1
        assert abs(la - math.lgamma(x)) < 1e-12 * max(1.0, abs(la))


def test_log_gamma_matches_high_precision_oracle():
    for x in (0.25, 0.75, 1.5, 2.5, 7.25, 19.875, -0.25, -3.7, -8.125):
        la, sign = log_gamma(x)
        g = mpmath.gamma(x)
        assert sign == mpmath.sign(g)
        assert abs(la - float(mpmath.log(abs(g)))) < 1e-12 * max(1.0, abs(la))


def test_log_gamma_recurrence():
    rng = random.Random(1103)
    for _ in range(200):
        x = rng.uniform(1e-2, 30.0)
        la1, s1 = log_gamma(x + 1.0)
        la0, s0 = log_gamma(x)
        assert s0 == s1 == 1
        assert abs(la1 - la0 - math.log(x)) < 1e-12 * max(1.0, abs(la1))


def test_log_gamma_reflection():
    rng = random.Random(4821)
    checked = 0
    while checked < 200:
        x = rng.uniform(-10.0, 10.0)
        if abs(x - round(x)) < 1e-3:
            continue
        la_x, s_x = log_gamma(x)
        la_r, s_r = log_gamma(1.0 - x)
        # Gamma(x) Gamma(1-x) sin(pi x) / pi == 1
        value = (s_x * s_r * math.exp(la_x + la_r)
                 * math.sin(math.pi * (x - math.floor(x)))
                 * (1 if math.floor(x) % 2 == 0 else -1) / math.pi)
        assert abs(value - 1.0) < 1e-12
        checked += 1


def test_log_gamma_poles():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            log_gamma(x)


def test_gamma_quarter_ratio_against_frozen_oracle():
    la_14, _ = log_gamma(0.25)
    la_34, _ = log_gamma(0.75)
    ratio = math.exp(la_14 - la_34)
    assert abs(ratio - 2.95867511918863889231082135773) < 1e-13


# -- numeric Pochhammer and closed forms ----------------------------------------------

def pochhammer(arg) -> ClosedForm:
    """(arg)_n as a closed form: base 1 and the single factor (arg)^1."""
    return ClosedForm(base=1, poch_n=((arg, 1),))


def test_rhs_numeric_of_a_pochhammer_at_zero_count_is_exactly_one():
    assert rhs_numeric(pochhammer(Fraction(3, 7)), 0) == 1.0
    assert rhs_numeric(pochhammer(-2.5), 0) == 1.0


def test_rhs_numeric_of_a_pochhammer_matches_exact_values():
    rng = random.Random(7)
    checked = 0
    while checked < 100:
        arg = Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 4, 6]))
        count = rng.randint(0, 15)
        if arg.denominator == 1 and arg <= 0:
            continue    # gamma pole: outside the numeric contract
        exact = poch_exact(arg, count)
        got = rhs_numeric(pochhammer(arg), count)
        assert abs(got - float(exact)) <= 1e-11 * abs(float(exact))
        checked += 1


@pytest.mark.parametrize("name", WZ_NAMES)
def test_rhs_numeric_tracks_exact_rhs(name):
    rhs = load_builtin(name).rhs
    # at n = 171 single factors of the product pass the largest double
    for n in [*range(41), 171]:
        exact = float(rhs_exact(rhs, n))
        got = rhs_numeric(rhs, n)
        assert abs(got - exact) <= 1e-12 * abs(exact)


def test_rhs_numeric_at_rational_points_matches_oracle():
    # Gamma(3/4 + n) < 0 at n = -9/10, so the sign of the product is -1;
    # at n = -13/10 two such factors cancel their signs
    rhs = load_builtin("theorem1").rhs
    for pt in (Fraction(-1, 2), Fraction(-9, 10), Fraction(-13, 10), Fraction(37, 10)):
        got = rhs_numeric(rhs, pt)
        # closed form: base^n * prod Gamma-ratio factors, via high precision
        x = mpmath.mpf(pt.numerator) / pt.denominator
        expected = mpmath.power(mpmath.mpf(rhs.base.numerator)
                                / rhs.base.denominator, x)
        for arg, e in rhs.poch_n:
            a = mpmath.mpf(arg.numerator) / arg.denominator
            expected *= (mpmath.gamma(a + x) / mpmath.gamma(a)) ** e
        assert abs(got - float(expected)) < 1e-13 * max(1.0, abs(float(expected))), pt


def test_closed_form_at_n_zero_is_one_even_at_a_gamma_pole():
    # (arg)_0 = 1 for every arg, also where Gamma(arg) has a pole
    assert rhs_numeric(ClosedForm(base=3, poch_n=((-2, 1), (0, -2))), 0) == 1.0


# -- series summation ------------------------------------------------------------------

def test_direct_summation_of_exponential_series():
    term = HyperTerm(poch=(), fact_pow=1, z=Fraction(1, 2), p=(1,))
    v = series_numeric(term, 0, NumericConfig(target_abs_tol=1e-12))
    assert abs(v - math.exp(0.5)) < 1e-12


@pytest.mark.parametrize("poch, exact", [
    ((), 1000.0),                                          # sum z^k = 1/(1-z)
    ((PochFactor(0, Fraction(1, 2), 1),), math.sqrt(1000.0)),  # (1 - z)^(-1/2)
])
def test_direct_summation_bounds_a_slow_tail_of_one_sign(poch, exact):
    # at z = 999/1000 the terms fall below 1e-10 a thousand times too early
    # for the tail they leave
    term = HyperTerm(poch=poch, fact_pow=len(poch), z=Fraction(999, 1000), p=(1,))
    cfg = NumericConfig(target_abs_tol=1e-10, max_terms=100000)
    assert abs(series_numeric(term, 0, cfg) - exact) <= 1e-10


def test_direct_walk_keeps_the_first_term_that_meets_the_tolerance():
    # geometric with ratio 1/3: the walk stops at the first t(j) with
    # t(j) <= tol*(1 - 1/3)/2 and sums t(0), ..., t(j), that term included
    term = HyperTerm(poch=(), fact_pow=0, z=Fraction(1, 3), p=(1,))
    for tol in (1e-4, 1e-6, 1e-9, 1e-12):
        terms = [1.0]
        while terms[-1] > tol * (1 - 1 / 3) / 2:
            terms.append(terms[-1] * (1 / 3))
        got = series_numeric(term, 0, NumericConfig(target_abs_tol=tol))
        assert got == math.fsum(terms) != math.fsum(terms[:-1]), tol


def test_direct_summation_raises_on_slow_series():
    slow = HyperTerm(poch=(PochFactor(0, 1, 2), PochFactor(0, 2, -2)),
                     fact_pow=0, z=1, p=(1,))
    with pytest.raises(NoConvergence):
        series_numeric(slow, 0, NumericConfig(target_abs_tol=1e-10))


def test_accelerator_reaches_ln2():
    v = series_numeric(LN2_TERM, 0, TIGHT_CFG)
    assert abs(v - math.log(2.0)) < 1e-10


def test_accelerator_reaches_pi_over_4():
    v = series_numeric(LEIBNIZ_TERM, 0, TIGHT_CFG)
    assert abs(v - math.pi / 4.0) < 1e-10


def test_accelerator_reaches_catalan_constant():
    v = series_numeric(CATALAN_TERM, 0, TIGHT_CFG)
    assert abs(v - CATALAN) < 1e-10
    assert abs(CATALAN - float(mpmath.catalan)) < 1e-15


def test_accelerator_rejects_terms_that_do_not_alternate():
    # z < 0, but (-5/2 + k)/(k + 1) < 0 for k <= 2 makes the first ratios positive
    term = HyperTerm(poch=(PochFactor(0, Fraction(-5, 2), 1),), fact_pow=1,
                     z=Fraction(-1, 2), p=(1,))
    with pytest.raises(ValueError, match="term ratio 1.25 at k=0 is not negative"):
        series_numeric(term, 0, TIGHT_CFG)


@pytest.mark.parametrize("term, n, where", [
    # (2n + 3/2)_k in the denominator at n = -3/4: t(1) is a pole
    (load_builtin("theorem9").term, -0.75, r"\(2\*n\+3/2\)_k vanishes at n=-0.75, k=1"),
    # p(k) = k: t(0) = 0, so t(1)/t(0) has no value
    (HyperTerm(poch=(), fact_pow=1, z=Fraction(-1, 2), p=(0, 1)), 0.0,
     r"p\(k\) vanishes at k=0"),
])
def test_term_ratio_names_the_factor_that_vanishes(term, n, where):
    for z in (term.z, -term.z):  # the accelerated path, then the direct one
        with pytest.raises(PoleError, match=where):
            series_numeric(replace(term, z=z), n)


def test_a_zero_of_the_multiplier_does_not_end_direct_summation():
    # p(k) = k - 1 makes t(1) = 0 although the sum is -e^(1/2)/2, not t(0) = -1;
    # the walk cannot pass the zero by term ratios, so it must raise
    term = HyperTerm(poch=(), fact_pow=1, z=Fraction(1, 2), p=(-1, 1))
    with pytest.raises(PoleError, match=r"p\(k\) vanishes at k=1"):
        series_numeric(term, 0)


@pytest.mark.parametrize("p, exact", [
    ((1,), 0.125),     # sum (-3)_k (1/2)^k / k! = (1 - 1/2)^3
    ((-5, 1), -1.0),   # p(5) = 0 lies past the last nonzero term, t(3)
])
def test_direct_summation_ends_where_the_pochhammer_part_terminates(p, exact):
    # (-3)_k at n = 0 is summed exactly; (n + 2)_k at n = -5 is the same
    # factor, but a negative n leaves it to the walk over term ratios
    for factor, n in ((PochFactor(0, -3, 1), 0), (PochFactor(1, 2, 1), -5)):
        term = HyperTerm(poch=(factor,), fact_pow=1, z=Fraction(1, 2), p=p)
        assert abs(series_numeric(term, n) - exact) < 1e-15


@pytest.mark.parametrize("name", WZ_NAMES)
def test_terminating_series_is_the_exact_sum_rounded(name):
    ident = load_builtin(name)
    for n in range(41):
        expected = float(rhs_exact(ident.rhs, n))
        assert abs(series_numeric(ident, n) - expected) <= 1e-12 * abs(expected), n


def test_terminating_series_longer_than_max_terms_is_not_summed():
    # theorem1 terminates at k = n here; summing 10^6 exact terms would not end
    with pytest.raises(NoConvergence, match="1000001 terms, more than 10000"):
        series_numeric(load_builtin("theorem1"), 10 ** 6)


# -- rational-point checks --------------------------------------------------------------

@pytest.mark.parametrize("name", THEOREM_NAMES)
def test_rational_point_checks_hit_two_over_pi(name):
    chk = carlson_point_check(load_builtin(name))
    assert chk.point == Fraction(-1, 2 * builtin_record(name).carlson_a)
    assert chk.target == 2.0 / math.pi
    assert chk.rhs_error < 1e-9
    assert chk.series_error < 1e-9
    assert chk.series_vs_rhs < 1e-9


def test_identity_extends_off_the_standard_point():
    chk = carlson_point_check(load_builtin("theorem1"), point=Fraction(-1, 4))
    assert chk.series_vs_rhs < 1e-12
    assert chk.rhs_error > 0.1          # off-point value is far from 2/pi


@pytest.mark.parametrize("name", THEOREM_NAMES)
def test_series_value_matches_high_precision_oracle(name):
    ident = load_builtin(name)
    chk = carlson_point_check(ident)
    assert abs(chk.rhs_value - float(2 / mpmath.pi)) < 1e-9


def test_theorem6_closed_form_special_value():
    ident = load_builtin("theorem6")
    got = rhs_numeric(ident.rhs, Fraction(-1, 2))
    cos_sum = math.cos(math.pi / 5) + math.cos(2 * math.pi / 5)
    special = math.sqrt(5.0) / (math.pi * cos_sum)
    assert abs(got - special) < 1e-12


def test_half_angle_cosine_sum_identity():
    assert trig_identity_check() < 1e-15
    # cos(pi/5) and cos(3 pi/5) are the two roots of 4x^2 - 2x - 1
    for x in (math.cos(math.pi / 5), math.cos(3 * math.pi / 5)):
        assert abs(4 * x * x - 2 * x - 1) < 1e-12


# -- pi estimates ------------------------------------------------------------------------

# the floats the two estimates give, frozen bit for bit: r1103 is summed
# directly, ramanujan accelerated (None: the default tolerance, 1e-13)
PI_AT_TOL = {
    "r1103": {None: 3.141592653589793, 1e-6: 3.1415926535897936,
              1e-9: 3.141592653589793, 1e-12: 3.141592653589793,
              1e-15: 3.141592653589793},
    "ramanujan": {None: 3.1415926535897936, 1e-6: 3.1415926510004457,
                  1e-9: 3.1415926535880123, 1e-12: 3.1415926535897936,
                  1e-15: 3.141592653589794},
}
PI_AT_TERMS = {
    "r1103": {1: 3.1415927300133055, 2: 3.1415926535897936, 3: 3.141592653589793,
              100: 3.141592653589793, 402: 3.141592653589793, 403: 3.141592653589793,
              1000: 3.141592653589793},
    "ramanujan": {1: 3.0, 2: 3.090909090909091, 3: 3.13353115727003,
                  100: 3.141592653589795, 402: 3.1415926535897927, 403: 3.141592653589793,
                  1000: 3.141592653589792},
}


@pytest.mark.parametrize("name, tol", [(name, tol) for name in PI_AT_TOL
                                       for tol in PI_AT_TOL[name]])
def test_pi_estimate_at_a_tolerance_is_frozen(name, tol):
    cfg = None if tol is None else NumericConfig(target_abs_tol=tol)
    assert pi_from_series(name, cfg) == PI_AT_TOL[name][tol]


@pytest.mark.parametrize("name, terms", [(name, m) for name in PI_AT_TERMS
                                         for m in PI_AT_TERMS[name]])
def test_pi_estimate_from_a_term_count_is_frozen(name, terms):
    assert pi_from_series(name, terms=terms) == PI_AT_TERMS[name][terms]


def test_two_term_tail_estimate_reaches_double_precision():
    est = pi_from_series("r1103", terms=2)
    assert abs(est - math.pi) < 1e-12


def test_one_term_estimate_matches_frozen_error():
    est = pi_from_series("r1103", terms=1)
    err = abs(est - math.pi)
    assert 7.5e-8 < err < 7.8e-8


def test_direct_sum_stops_once_its_terms_underflow(monkeypatch):
    # r1103's terms shrink by about 1e-8 a step and reach 0.0 within 50 steps;
    # a million requested terms must not cost a million ratio evaluations
    calls = 0
    term_ratio = numeric._term_ratio

    def counting(t, n):
        ratio = term_ratio(t, n)

        def counted(k):
            nonlocal calls
            calls += 1
            assert calls <= 1000, "ratio evaluated past the underflow of the terms"
            return ratio(k)
        return counted

    monkeypatch.setattr(numeric, "_term_ratio", counting)
    est = pi_from_series("r1103", terms=10 ** 6)
    assert calls < 100
    assert est == pi_from_series("r1103", terms=100)


def _unscaled_accelerator(a):
    """The Chebyshev-weighted sum in plain floats, finite up to 402 terms."""
    m = len(a)
    d = (3.0 + math.sqrt(8.0)) ** m
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s = 0.0
    for k in range(m):
        c = b - c
        s += c * a[k]
        b *= (k + m) * (k - m) / ((k + 0.5) * (k + 1.0))
    return s / d


def test_accelerator_matches_the_unscaled_recurrence_bit_for_bit():
    rng = random.Random(402)
    for m in range(1, 403):
        a = [rng.uniform(0.0, 2.0) / (k + 1) ** rng.random() for k in range(m)]
        assert _accelerated_alternating(a) == _unscaled_accelerator(a), m


def test_accelerator_past_the_overflow_of_its_weights():
    # rounding moves the estimate by a few ulp from one m to the next (402
    # terms happen to land one ulp from pi), so the bar is the largest error
    # of the last counts the unscaled weights reach
    bar = max(abs(pi_from_series("ramanujan", terms=m) - math.pi)
              for m in range(390, 403))
    for m in (403, 1000):
        assert abs(pi_from_series("ramanujan", terms=m) - math.pi) <= bar, m


def test_accelerated_alternating_estimate():
    est = pi_from_series("ramanujan", NumericConfig(target_abs_tol=1e-12))
    assert abs(est - math.pi) < 1e-12


def test_unknown_series_name_rejected():
    with pytest.raises(KeyError):
        pi_from_series("not_a_series")


def test_no_convergence_propagates_through_pi_estimates():
    with pytest.raises(NoConvergence):
        pi_from_series("r1103", NumericConfig(target_abs_tol=1e-40, max_terms=3))
