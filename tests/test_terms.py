"""Hypergeometric summand model: rising factorials, exact term values,
termination, shift quotients, and the structural reduction at n = -1/(2a)."""
from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from wzpi import (
    BUILTIN_NAMES,
    ClosedForm,
    HyperTerm,
    PochFactor,
    PoleError,
    builtin_record,
    poch_exact,
    reduces_to_ramanujan,
    rhs_exact,
    term_value,
    termination_bound,
)
from wzpi.terms import (
    RAMANUJAN_FACT_POW,
    RAMANUJAN_P,
    RAMANUJAN_POCH,
    RAMANUJAN_Z,
    carlson_substitution,
    p_eval,
    shift_quotient_k,
    term_sum,
    term_sum_parts,
)

from conftest import WZ_NAMES, RefRat, family_identities, rationals, shift_quotient_n


poch_args = st.fractions(min_value=Fraction(-10), max_value=Fraction(10),
                         max_denominator=6)


# -- rising factorial ----------------------------------------------------------------

@given(poch_args, st.integers(min_value=0, max_value=25))
def test_pochhammer_recurrence(a, k):
    assert poch_exact(a, k + 1) == poch_exact(a, k) * (a + k)


@given(poch_args, st.integers(min_value=0, max_value=10),
       st.integers(min_value=0, max_value=10))
def test_pochhammer_concatenation(a, k, m):
    assert poch_exact(a, k + m) == poch_exact(a, k) * poch_exact(a + k, m)


@given(st.integers(min_value=1, max_value=12))
def test_pochhammer_of_one_is_factorial(k):
    import math
    assert poch_exact(1, k) == math.factorial(k)


@given(poch_args.filter(lambda a: a.denominator > 1),
       st.integers(min_value=1, max_value=8))
def test_pochhammer_negative_count_inverts_falling_product(a, m):
    v = Fraction(1)
    for j in range(1, m + 1):
        v *= a - j
    assert poch_exact(a, -m) == 1 / v
    assert poch_exact(a, -m) * poch_exact(a - m, m) == 1


def _schoolbook_poch(a, count):
    """(a)_count one Fraction factor at a time."""
    v = Fraction(1)
    if count >= 0:
        for j in range(count):
            v *= a + j
        return v
    for j in range(1, -count + 1):
        v *= a - j
    return 1 / v


@given(st.fractions(min_value=Fraction(-40), max_value=Fraction(40),
                    max_denominator=12),
       st.integers(min_value=-8, max_value=30))
@example(Fraction(3), -5)
@example(Fraction(1), -1)
@example(Fraction(-7, 3), 30)
def test_pochhammer_matches_the_schoolbook_product(a, count):
    if count < 0 and a.denominator == 1 and 1 <= a <= -count:
        with pytest.raises(PoleError, match=re.escape(f"({a})_{count} hits a zero factor")):
            poch_exact(a, count)
    else:
        assert poch_exact(a, count) == _schoolbook_poch(a, count)


@pytest.mark.parametrize("name", WZ_NAMES)
def test_rhs_matches_the_schoolbook_product(name):
    rhs = builtin_record(name).to_identity().rhs
    for n in range(41):
        expected = rhs.base ** n
        for arg, e in rhs.poch_n:
            expected *= _schoolbook_poch(arg, n) ** e
        assert rhs_exact(rhs, n) == expected, n


def test_pochhammer_negative_count_pole():
    with pytest.raises(PoleError):
        poch_exact(1, -1)
    with pytest.raises(PoleError):
        poch_exact(3, -5)


def test_pochhammer_terminates_at_nonpositive_integer_argument():
    assert poch_exact(-3, 4) == 0
    assert poch_exact(-3, 3) == -6
    assert poch_exact(0, 1) == 0


# -- polynomial multiplier and term values -------------------------------------------

@given(st.lists(rationals, max_size=5), rationals)
def test_multiplier_evaluation_is_horner(coeffs, k):
    t = HyperTerm(poch=(), fact_pow=0, z=1, p=tuple(coeffs) or (Fraction(0),))
    assert p_eval(t, k) == sum(c * k ** i for i, c in enumerate(t.p))


def test_term_value_requires_nonnegative_k():
    t = builtin_record("theorem1").to_identity().term
    with pytest.raises(ValueError):
        term_value(t, 0, -1)


def test_term_value_known_points():
    # (1/2)_k^3 (4k+1) (-1)^k / k!^3 at k = 0, 1
    ram = builtin_record("ramanujan").to_identity().term
    assert term_value(ram, 0, 0) == 1
    assert term_value(ram, 0, 1) == Fraction(-5, 8)


@given(st.sampled_from(WZ_NAMES), st.integers(min_value=0, max_value=6))
def test_termination_bound_is_sharp(name, n):
    t = builtin_record(name).to_identity().term
    bound = termination_bound(t, n)
    assert bound is not None
    for k in range(bound + 1, bound + 4):
        assert term_value(t, n, k) == 0
    assert term_value(t, n, 0) != 0


def test_non_terminating_series_has_no_bound():
    ram = builtin_record("ramanujan").to_identity().term
    assert termination_bound(ram, 0) is None
    assert termination_bound(ram, 5) is None


# -- row sums by the term ratio ------------------------------------------------------

def term_value_sum(t, n, bound):
    return sum((term_value(t, n, k) for k in range(bound + 1)), Fraction(0))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_term_sum_matches_the_summed_term_values(name):
    # the two numeric records do not terminate: their first 31 terms
    t = builtin_record(name).to_identity().term
    for n in range(21):
        bound = termination_bound(t, n)
        bound = 30 if bound is None else bound
        num, den = term_sum_parts(t, n, bound)
        assert den > 0
        assert term_sum(t, n, bound) == Fraction(num, den) == term_value_sum(t, n, bound)


@given(family_identities, st.integers(min_value=0, max_value=10))
def test_term_sum_matches_the_summed_term_values_on_families(ident, n):
    t = ident.term
    bound = termination_bound(t, n)
    try:
        expected = term_value_sum(t, n, bound)
    except PoleError as exc:
        with pytest.raises(PoleError, match=f"^{re.escape(str(exc))}$"):
            term_sum(t, n, bound)
    else:
        assert term_sum(t, n, bound) == expected
        num, den = term_sum_parts(t, n, bound)
        assert den > 0 and Fraction(num, den) == expected


@pytest.mark.parametrize("den_factor, n, pole", [
    (PochFactor(0, -2, -1), 6, 3),              # (-2)_k
    (PochFactor(1, -5, -2), 3, 3),              # (n - 5)_k^2 at n = 3
    (PochFactor(-1, Fraction(3), -1), 5, 3),    # (3 - n)_k at n = 5
])
def test_term_sum_raises_the_pole_term_value_raises(den_factor, n, pole):
    t = HyperTerm(poch=(PochFactor(-1, 0, 1), PochFactor(0, Fraction(1, 2), 1),
                        den_factor),
                  fact_pow=1, z=Fraction(-3, 2), p=(1, 1))
    # term_value has no pole below k = pole and one at it
    assert term_sum(t, n, pole - 1) == term_value_sum(t, n, pole - 1)
    with pytest.raises(PoleError) as expected:
        term_value(t, n, pole)
    with pytest.raises(PoleError, match=f"^{re.escape(str(expected.value))}$"):
        term_sum(t, n, termination_bound(t, n))


def test_term_sum_walks_past_integer_roots_of_the_multiplier():
    # p(k) = (k - 2)(k - 5): the terms at k = 2 and k = 5 are zero, the rest not
    t = HyperTerm(poch=(PochFactor(-1, 0, 1), PochFactor(0, Fraction(1, 3), 2)),
                  fact_pow=2, z=Fraction(4, 3), p=(10, -7, 1),
                  prefactor_rational=Fraction(-5, 2))
    values = [term_value(t, 9, k) for k in range(10)]
    assert values[2] == values[5] == 0 and all(values[k] for k in (0, 1, 3, 4, 6, 9))
    for bound in range(10):
        assert term_sum(t, 9, bound) == sum(values[:bound + 1])


# -- closed forms --------------------------------------------------------------------

def test_rhs_known_values():
    thm1 = builtin_record("theorem1").to_identity()
    assert rhs_exact(thm1.rhs, 0) == 1
    assert rhs_exact(thm1.rhs, 1) == Fraction(3, 5)
    zb = builtin_record("zeilberger").to_identity()
    assert rhs_exact(zb.rhs, 2) == Fraction(15, 8)


@given(st.sampled_from(WZ_NAMES), st.integers(min_value=0, max_value=8))
def test_rhs_recurrence_matches_factor_structure(name, n):
    rhs = builtin_record(name).to_identity().rhs
    ratio = rhs_exact(rhs, n + 1) / rhs_exact(rhs, n)
    expected = rhs.base
    for arg, e in rhs.poch_n:
        expected *= (arg + n) ** e
    assert ratio == expected


# -- shift quotients vs. exact values ------------------------------------------------

@given(st.sampled_from(WZ_NAMES),
       st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=6))
def test_k_shift_quotient_matches_value_ratio(name, n, k):
    ident = builtin_record(name).to_identity()
    t = ident.term
    bound = termination_bound(t, n)
    assume(k + 1 <= bound)
    fk = term_value(t, n, k)
    fk1 = term_value(t, n, k + 1)
    assume(fk != 0)
    r = RefRat(shift_quotient_k(t))
    assert r.den.eval(n, k) != 0
    assert r.eval(n, k) == fk1 / fk


@given(st.sampled_from(WZ_NAMES),
       st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=6))
def test_n_shift_quotient_matches_normalized_value_ratio(name, n, k):
    ident = builtin_record(name).to_identity()
    t = ident.term
    assume(k <= termination_bound(t, n))
    fhat_n = term_value(t, n, k) / rhs_exact(ident.rhs, n)
    fhat_n1 = term_value(t, n + 1, k) / rhs_exact(ident.rhs, n + 1)
    assume(fhat_n != 0)
    s = shift_quotient_n(t, ident.rhs)
    assert s.den.eval(n, k) != 0
    assert s.eval(n, k) == fhat_n1 / fhat_n


# -- reduction at the rational point -------------------------------------------------

def test_reduction_constants_are_the_alternating_half_cubed_shape():
    assert RAMANUJAN_POCH == {Fraction(1, 2): 3}
    assert RAMANUJAN_FACT_POW == 3
    assert RAMANUJAN_Z == -1
    assert RAMANUJAN_P == (1, 4)


@given(st.sampled_from(WZ_NAMES))
def test_every_terminating_identity_reduces_to_the_base_series(name):
    rec = builtin_record(name)
    t = rec.to_identity().term
    assert rec.carlson_a is not None
    assert reduces_to_ramanujan(t, rec.carlson_a)
    args, fact, z, p = carlson_substitution(t, rec.carlson_a)
    assert args == {Fraction(1, 2): 3}
    assert fact == 3
    assert z == -1
    assert p == (1, 4)


def test_reduction_rejects_perturbed_terms():
    rec = builtin_record("theorem1")
    t = rec.to_identity().term
    wrong_z = HyperTerm(poch=t.poch, fact_pow=t.fact_pow, z=t.z / 2, p=t.p)
    assert not reduces_to_ramanujan(wrong_z, rec.carlson_a)
    wrong_a = rec.carlson_a + 1
    assert not reduces_to_ramanujan(t, wrong_a)


def test_reduction_requires_nonzero_parameter():
    t = builtin_record("theorem1").to_identity().term
    with pytest.raises(ValueError):
        carlson_substitution(t, 0)


def test_factor_constructors_validate():
    with pytest.raises(ValueError):
        PochFactor(1, Fraction(1, 2), 0)
    f = PochFactor(2, Fraction(1, 2), 1)
    assert f.arg_at(Fraction(-1, 4)) == 0
    cf = ClosedForm(base=Fraction(3, 5), poch_n=((Fraction(1, 2), -1),))
    assert rhs_exact(cf, 2) == Fraction(9, 25) / (Fraction(1, 2) * Fraction(3, 2))
