"""Indefinite-summability engine: normal form, dispersion, polynomial solver,
ratio assembly, and end-to-end certificate synthesis."""
from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wzpi import (
    ClosedForm,
    DegenerateRatio,
    HyperTerm,
    PochFactor,
    Poly2,
    RatFunc2,
    UniPolyQn,
    WZIdentity,
    builtin_record,
    gosper_normal_form,
    gosper_solve,
    h_ratio,
    load_builtin,
    parse_identity,
    rhs_exact,
    synthesize_certificate,
    term_value,
    wz_residual,
)
from wzpi.gosper import dispersion_candidates
from wzpi.terms import factor_product, multiplier

from conftest import (WZ_NAMES, RefRat, chu_vandermonde, family_identities,
                      normalised_terms, pfaff_saalschuetz, poly2s, rationals)

K = Poly2.var("k")
N = Poly2.var("n")


def ratio(top, bottom, z=1, w=Poly2.const(1)):
    """The factored shift quotient z * prod(top)/prod(bottom) * w(k+1)/w(k),
    in the form h_ratio returns."""
    return Fraction(z), list(top), list(bottom), w


def expand(parts) -> RefRat:
    z, top, bottom, w = parts
    return RefRat(factor_product(top, z) * w.shift("k", 1), factor_product(bottom) * w)


# -- the UniPolyQn view of a Poly2 ---------------------------------------------------

@given(poly2s(), st.fractions(min_value=-3, max_value=3, max_denominator=4),
       rationals, rationals)
def test_tower_shift_commutes_with_eval(a, delta, n0, k0):
    f = UniPolyQn(a)
    shifted = f.shift(delta)
    assert shifted.poly == a.shift("k", delta)
    assert shifted.eval_n(n0).eval(k0) == a.eval(n0, k0 + delta)
    assert f.eval_n(n0).eval(k0) == a.eval(n0, k0)
    # the k-columns, as polynomials in n over denominator 1
    assert len(f.coeffs) == f.degree() + 1 == a.degree("k") + 1
    for j, c in enumerate(f.coeffs):
        assert c.den.degree == 0
        assert c.num.eval(n0) == a.k_coeff(j).eval(n0, 0)


# -- dispersion ------------------------------------------------------------------------

def test_dispersion_candidates_catch_integer_shifts():
    assert dispersion_candidates([K], [K - 5]) == [(K, K - 5, 5)]
    # k and k-2 both sit above k-3; the smaller shift takes it
    assert dispersion_candidates([K, K - 2], [K - 3]) == [(K - 2, K - 3, 1)]


def test_dispersion_candidates_handle_parameterized_roots():
    assert dispersion_candidates([K - N], [K - N - 4]) == [(K - N, K - N - 4, 4)]
    # a gap of n is no integer shift
    assert dispersion_candidates([K + 2 * N], [K + N]) == []


def test_dispersion_candidates_scale_beyond_degree_counts():
    # root gap 40 with degree-1 inputs: the gap, not the degree, matters
    assert dispersion_candidates([K], [K - 40]) == [(K, K - 40, 40)]


@settings(max_examples=20)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=3),
       st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=3))
def test_dispersion_candidates_are_complete_for_integer_roots(qroots, rroots):
    top = [K - x for x in qroots]
    bottom = [K - x for x in rroots]
    for a, b, j in dispersion_candidates(top, bottom):
        assert a - b == j > 0
        top.remove(a)
        bottom.remove(b)
    # no positive integer shift is left between what stays in q and r
    assert not any(0 < (a - b).coeff(0, 0) for a in top for b in bottom)


linear_factors = st.lists(
    st.builds(lambda b, c: K + b * N + c, st.integers(min_value=0, max_value=2),
              st.fractions(min_value=-4, max_value=4, max_denominator=2)),
    min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(linear_factors, linear_factors)
def test_dispersion_candidates_agree_with_sympy(top, bottom):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.dispersion import dispersionset
    k, n = sympy.symbols("k n")

    def positive_shifts(top, bottom):
        def product(factors):
            return sympy.Poly(sympy.Mul(*[
                k + sympy.Rational(f.coeff(1, 0)) * n + sympy.Rational(f.coeff(0, 0))
                for f in factors]), k)
        return dispersionset(product(top), product(bottom)) - {0}

    pairs = dispersion_candidates(top, bottom)
    expected = positive_shifts(top, bottom)
    assert {j for _, _, j in pairs} <= expected
    if expected:
        assert pairs[0][2] == min(expected)
    top, bottom = list(top), list(bottom)
    for a, b, _ in pairs:
        top.remove(a)
        bottom.remove(b)
    # what the pairs leave over has no positive integer shift
    assert not positive_shifts(top, bottom)


# -- normal form ------------------------------------------------------------------------

def coprime_at(q: UniPolyQn, r: UniPolyQn, j: int) -> bool:
    """gcd(q(k), r(k+j)) = 1, tested over Q at an n0 where neither leading
    coefficient vanishes.  n0 is no integer, so that roots k = -(b*n + c)
    with small b do not meet by accident."""
    n0 = next(n0 for n0 in (m + Fraction(1, 97) for m in range(2, 64))
              if q.lc.eval(n0, 0) and r.lc.eval(n0, 0))
    return q.eval_n(n0).gcd(r.shift(j).eval_n(n0)).degree == 0


def check_normal_form(parts):
    p, q, r = gosper_normal_form(parts)
    # defining equation: ratio(k) = (q/r) * p(k+1)/p(k)
    lhs = expand(parts) * (p.poly * r.poly)
    rhs = RefRat(q.poly * p.shift(1).poly)
    assert lhs == rhs
    # shifted coprimality
    if q.degree() > 0 and r.degree() > 0:
        for j in range(0, 8):
            assert coprime_at(q, r, j)
    return p, q, r


def test_normal_form_known_shapes():
    one = Poly2.const(1)
    p, q, r = check_normal_form(ratio([K + 2], [K]))
    assert p.poly == K * (K + 1)
    assert q.poly == one and r.poly == one

    p, q, r = check_normal_form(ratio([], []))
    assert p.poly == q.poly == r.poly == one

    p, q, r = check_normal_form(ratio([], [], z=5))
    assert q.poly == Poly2.const(5)
    assert p.poly == r.poly == one

    # w goes into p as it is, its content in Q[n] with it
    p, q, r = check_normal_form(ratio([K + N], [K], w=(2 * N + 4) * (3 * K + N)))
    assert p.poly == (2 * N + 4) * (3 * K + N)
    assert q.poly == K + N and r.poly == K


def test_normal_form_with_parameter():
    # ratio (k+n+1)/(k+n) shifts a parameterized root
    check_normal_form(ratio([K + N + 1], [K + N]))


@settings(max_examples=25)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=0, max_size=2),
       st.lists(st.integers(min_value=-4, max_value=4), min_size=0, max_size=2),
       st.integers(min_value=1, max_value=5))
def test_normal_form_property_on_random_rational_ratios(nroots, droots, scale):
    check_normal_form(ratio([K - x for x in nroots], [K - x for x in droots], z=scale))


def test_zero_ratio_is_degenerate():
    with pytest.raises(DegenerateRatio):
        gosper_normal_form(ratio([K], [], z=0))


# -- polynomial solver --------------------------------------------------------------

def test_solver_sums_the_identity_summand_k():
    p, q, r = gosper_normal_form(ratio([K + 1], [K]))
    x = gosper_solve(p, q, r)
    assert x == RatFunc2(K * (K - 1), 2)
    assert [RefRat(x).eval(3, k0) for k0 in range(5)] == [0, 0, 1, 3, 6]


@pytest.mark.parametrize("b, expected", [
    # of the solutions x = t(k+2) - 1, x(0) = 0 picks k/2
    (2, K * Fraction(1, 2)),
    # every solution t*k - 1 has x(0) = -1; x_sigma = 0 picks -1
    (0, Poly2.const(-1)),
])
def test_solver_picks_the_kernel_solution_that_vanishes_at_zero(b, expected):
    # a_k = 1/((k+b)(k+b+1)): q = k+b, r(k-1) = k+b+1, sigma = 1, and x = k+b
    # spans the kernel
    p, q, r = gosper_normal_form(ratio([K + b], [K + b + 2]))
    x = gosper_solve(p, q, r)
    assert x == RatFunc2(expected)
    assert [RefRat(x).eval(1, k0) for k0 in range(3)] == [expected.eval(1, k0) for k0 in range(3)]


def test_solver_rejects_factorial_growth():
    p, q, r = gosper_normal_form(ratio([K + 1], []))
    assert gosper_solve(p, q, r) is None


def test_solver_rejects_reciprocal_summand():
    # a_k = 1/k has no hypergeometric antidifference
    p, q, r = gosper_normal_form(ratio([K], [K + 1]))
    assert gosper_solve(p, q, r) is None


@pytest.mark.parametrize("power", [2, 3])
def test_solver_handles_power_sums(power):
    # a_k = k^power: antidifference is the Faulhaber polynomial
    p, q, r = gosper_normal_form(ratio([K + 1] * power, [K] * power))
    x = gosper_solve(p, q, r)
    assert x is not None
    x = RefRat(x)
    # verify: with a_k = k^power, the antidifference S satisfies
    # S(k+1) - S(k) = a_k; reconstruct S/a as r(k-1) x / p and check values
    rm1 = r.shift(-1)
    for k0 in range(2, 8):
        s_over_a = (rm1.eval_n(0).eval(k0) * x.eval(0, k0)
                    / p.eval_n(0).eval(k0))
        s_over_a_next = (rm1.eval_n(0).eval(k0 + 1) * x.eval(0, k0 + 1)
                         / p.eval_n(0).eval(k0 + 1))
        a_k = Fraction(k0) ** power
        a_k1 = Fraction(k0 + 1) ** power
        assert s_over_a_next * a_k1 - s_over_a * a_k == a_k


@settings(max_examples=60)
@given(poly2s(max_degree=2, max_terms=4), poly2s(max_degree=2, max_terms=4),
       poly2s(max_degree=2, max_terms=4), st.booleans(),
       st.integers(min_value=0, max_value=3))
def test_solver_recovers_a_planted_solution(x2, q2, r2, equal_lc, sigma):
    # the k^sigma term makes x_sigma, the unknown of a zero pivot, nonzero
    x, q, rm1 = x2 + K ** sigma, q2, r2
    assume(not x.is_zero and not q.is_zero and not rm1.is_zero)
    if equal_lc:
        # lc(r(k-1)) = lc(q), with the pivot of x_sigma zero (sigma = 0 when
        # q is a constant)
        top = q.degree("k")
        rm1 = q if top == 0 else with_top_columns(
            rm1, q, q.k_coeff(top - 1) + q.k_coeff(top) * sigma)
    p = q * x.shift("k", 1) - rm1 * x
    assume(not p.is_zero)
    got = gosper_solve(UniPolyQn(p), UniPolyQn(q), UniPolyQn(rm1.shift("k", 1)))
    assert got is not None
    sol = RefRat(got)
    assert sol.shift("k", 1) * q - sol * rm1 == p


def with_top_columns(low: Poly2, q: Poly2, below_top: Poly2) -> Poly2:
    """The columns of ``low`` under k^(top-1), then ``below_top`` k^(top-1)
    and lc(q) k^top, where top = deg_k q."""
    top = q.degree("k")
    return (sum((low.k_coeff(i) * K ** i for i in range(top - 1)), Poly2())
            + below_top * K ** (top - 1) + q.k_coeff(top) * K ** top)


@settings(max_examples=40)
@given(poly2s(max_degree=2, max_terms=4), poly2s(max_degree=2, max_terms=4),
       poly2s(max_degree=2, max_terms=4), st.integers(min_value=0, max_value=3),
       st.integers(min_value=-3, max_value=3).filter(bool),
       st.integers(min_value=1, max_value=3), rationals,
       rationals.filter(bool))
def test_solver_recovers_a_planted_solution_with_pivots_in_n(
        x2, q2, r2, lead_n, lead_c, degree, sigma0, b):
    # lc(r(k-1)) = lc(q) and sigma(n) = sigma0 + b n: the pivot of x_i is
    # lc(q) (i - sigma(n)), which depends on n, so x = X(n, k) / D(n) with
    # D not constant
    x = x2 + K ** degree
    top = max(q2.degree("k"), 0) + 1
    q = q2 + (lead_c + lead_n * N) * K ** top
    rm1 = with_top_columns(r2, q, q.k_coeff(top - 1) + q.k_coeff(top) * (sigma0 + b * N))
    p = q * x.shift("k", 1) - rm1 * x
    got = gosper_solve(UniPolyQn(p), UniPolyQn(q), UniPolyQn(rm1.shift("k", 1)))
    assert got is not None
    sol = RefRat(got)
    assert sol.shift("k", 1) * q - sol * rm1 == p
    assert got.den.degree("k") == 0 and got.den.degree("n") > 0
    # no pivot vanishes, so the planted solution is the only one
    assert got == RatFunc2(x)


# -- ratio assembly -----------------------------------------------------------------

@pytest.mark.parametrize("name, n0, k0", [
    ("theorem1", 4, 1),
    ("zeilberger", 5, 2),
])
def test_difference_ratio_matches_exact_values(name, n0, k0):
    ident = load_builtin(name)
    parts = h_ratio(ident)

    def h(n, k):
        return (term_value(ident.term, n + 1, k) / rhs_exact(ident.rhs, n + 1)
                - term_value(ident.term, n, k) / rhs_exact(ident.rhs, n))

    expected = h(n0, k0 + 1) / h(n0, k0)
    assert expand(parts).eval(n0, k0) == expected


def test_constant_row_makes_the_difference_degenerate():
    term = HyperTerm(poch=(PochFactor(0, 1, 1),), fact_pow=1,
                     z=Fraction(1, 2), p=(1,))
    ident = WZIdentity(name="flat", term=term, rhs=ClosedForm(1, ()),
                       certificate=None, carlson_a=None, kind="wz")
    with pytest.raises(DegenerateRatio):
        h_ratio(ident)
    with pytest.raises(DegenerateRatio):
        synthesize_certificate(ident)


# -- end-to-end synthesis ------------------------------------------------------------

FAST_NAMES = ("zeilberger", "theorem1", "theorem2", "theorem3")


@pytest.mark.parametrize("name", FAST_NAMES)
def test_synthesis_produces_verified_certificates(name, synthesis):
    result = synthesis.get(name)
    assert result.status == "Summable"
    assert result.certificate is not None
    assert result.report is not None and result.report.symbolic_ok
    ident = load_builtin(name)
    assert wz_residual(replace(ident, certificate=result.certificate)).num.is_zero
    # boundary normalization: certificate vanishes along k = 0
    assert not result.certificate.num.eval_k(0)


@pytest.mark.parametrize("name", ["theorem1"] + [f"theorem{i}" for i in range(3, 9)])
def test_synthesis_reproduces_printed_certificates(name, synthesis):
    # both are in lowest terms, so they agree term by term, not only when
    # cross-multiplied
    printed = load_builtin(name).certificate
    assert normalised_terms(synthesis.get(name).certificate) == normalised_terms(printed)


def test_synthesis_exposes_the_sign_error_in_the_flagged_certificate(synthesis):
    printed = load_builtin("theorem2").certificate
    synth = synthesis.get("theorem2").certificate
    assert synth != printed
    assert normalised_terms(synth) == normalised_terms(RatFunc2(-printed.num, printed.den))


def test_synthesis_metadata_is_reported(synthesis):
    # the certificate is assembled in lowest terms, so its size is the printed one
    for name, bound, monomials in (("theorem1", 2, (5, 9)), ("zeilberger", 0, (1, 5))):
        result = synthesis.get(name)
        assert result.dispersion_set == (1,)
        assert result.degree_bound_used == bound
        cert = result.certificate
        assert (len(cert.num.terms), len(cert.den.terms)) == monomials


def test_synthesis_never_blesses_a_false_identity():
    rec = builtin_record("theorem1")
    wrong = replace(rec, rhs_base=rec.rhs_base * 2).to_identity()
    try:
        result = synthesize_certificate(wrong)
    except (RuntimeError, DegenerateRatio):
        return
    assert result.status == "NotSummable"
    assert result.certificate is None


@pytest.mark.parametrize("b, c, bound", [
    # lc(q) = lc(r(k-1)), but sigma depends on n, so no pivot vanishes and
    # the bound is deg p - deg q + 1
    (Fraction(9), Fraction(8, 7), 9),
    (Fraction(1, 3), Fraction(8, 7), 0),
])
def test_chu_vandermonde_is_summable(b, c, bound):
    result = synthesize_certificate(chu_vandermonde(b, c))
    assert result.status == "Summable"
    assert result.degree_bound_used == bound


@pytest.mark.parametrize("a, b, c, sigma", [
    (Fraction(2), Fraction(8, 3), Fraction(8, 7), 2),
    (Fraction(11, 2), Fraction(5), Fraction(8, 7), 5),
])
def test_pfaff_saalschuetz_with_a_zero_pivot_is_summable(a, b, c, sigma):
    ident = pfaff_saalschuetz(a, b, c)
    p, q, r = gosper_normal_form(h_ratio(ident))
    rm1, top = r.shift(-1), q.degree()
    # the pivot of x_sigma vanishes, and sigma, not deg p - deg q + 1, sets
    # the degree bound
    assert rm1.degree() == top and rm1.lc == q.lc
    assert rm1.coeff(top - 1) - q.coeff(top - 1) == q.lc * sigma
    assert p.degree() - top + 1 < sigma
    result = synthesize_certificate(ident)
    assert result.status == "Summable"
    assert result.degree_bound_used == sigma


# -- certificate assembly ------------------------------------------------------------

def test_trial_division_cancels_each_listed_factor_once():
    # one trial per listed factor, as the certificate assembly makes them
    num, left = 3 * (K + N) ** 2 * (K + 1) * (2 * N + 1), []
    for f in [K + N, K + 2, K + N, K + N, Poly2.const(3), 2 * N + 1]:
        quo = num.divide(f)
        if quo is None:
            left.append(f)
        else:
            num = quo
    # the repeated factor divides twice but not a third time, k + 2 does not
    # divide, and the constant and the k-free factor divide out
    assert num == K + 1
    assert left == [K + 2, K + N]


def sympy_monomials(cert) -> tuple[int, int]:
    """Monomial counts of numerator and denominator after sympy.cancel."""
    sympy = pytest.importorskip("sympy")
    n, k = sympy.symbols("n k")

    def expr(p):
        return sympy.Add(*[sympy.Rational(c.numerator, c.denominator) * n ** i * k ** j
                           for (i, j), c in p.terms.items()])
    num, den = sympy.fraction(sympy.cancel(expr(cert.num) / expr(cert.den)))
    return len(sympy.Poly(num, n, k).terms()), len(sympy.Poly(den, n, k).terms())


@pytest.mark.parametrize("name", FAST_NAMES)
def test_synthesized_certificates_are_in_lowest_terms(name, synthesis):
    cert = synthesis.get(name).certificate
    assert sympy_monomials(cert) == (len(cert.num.terms), len(cert.den.terms))


def off_integers(den: int):
    return st.integers(min_value=1, max_value=13).filter(lambda p: p % den).map(
        lambda p: Fraction(p, den))


def parameters(den: int):
    return st.one_of(st.integers(min_value=1, max_value=9).map(Fraction), off_integers(den))


@settings(max_examples=10, deadline=None)
@given(st.one_of(
    st.builds(chu_vandermonde, parameters(3), off_integers(7)),
    st.builds(pfaff_saalschuetz, parameters(2), parameters(3), off_integers(7))))
def test_family_certificates_are_in_lowest_terms(ident):
    result = synthesize_certificate(ident)
    assert result.status == "Summable"
    cert = result.certificate
    assert sympy_monomials(cert) == (len(cert.num.terms), len(cert.den.terms))


def _rem(a: list, b: list) -> list:
    """a mod b on Fraction coefficient lists in n, ascending; b nonzero."""
    a = list(a)
    while len(a) >= len(b):
        t, at = a[-1] / b[-1], len(a) - len(b)
        for i, c in enumerate(b):
            a[at + i] -= t * c
        while a and not a[-1]:
            a.pop()
    return a


def gcd_in_n(polys) -> list:
    """The monic gcd over Q[n] of polynomials in n alone, by Euclid on their
    Fraction coefficient lists."""
    g: list = []
    for b in polys:
        a = g
        while b:
            a, b = b, _rem(a, b)
        g = a
    return [c / g[-1] for c in g]


def assert_lowest_terms_in_n(ident, cert):
    """The certificate's denominator is c(n) times factors with k, c monic:
    lc_k(den) is c times 1 or the multiplier's leading coefficient, and c is
    the content of den over Q[n].  No factor of c divides every k-column of
    the numerator."""
    num, den = cert.num, cert.den
    content = gcd_in_n(den.k_coeff(j).eval_k(0) for j in range(den.degree("k") + 1))
    lead = den.k_coeff(den.degree("k")).eval_k(0)
    mult = multiplier(ident.term)
    assert lead[-1] in (1, mult.coeff(0, mult.degree("k")))
    assert lead == [c * lead[-1] for c in content]
    columns = [num.k_coeff(j).eval_k(0) for j in range(num.degree("k") + 1)]
    assert gcd_in_n([content, *columns]) == [1]


def test_gcd_in_n_finds_the_monic_common_factor():
    polys = [(2 * N + 4) * (N - 1), (3 * N + 6) * N, 4 * N + 8]
    assert gcd_in_n(f.eval_k(0) for f in polys) == [2, 1]
    assert gcd_in_n([(N * N + 1).eval_k(0), N.eval_k(0)]) == [1]


@pytest.mark.parametrize("name", WZ_NAMES)
def test_synthesized_certificates_are_in_lowest_terms_in_n(name, synthesis):
    assert_lowest_terms_in_n(load_builtin(name), synthesis.get(name).certificate)


@settings(max_examples=50, deadline=None)
@given(family_identities)
def test_family_certificates_are_in_lowest_terms_in_n(ident):
    result = synthesize_certificate(ident)
    assume(result.status == "Summable")
    assert_lowest_terms_in_n(ident, result.certificate)


# Pfaff-Saalschuetz at (a, b, c) = (9, 2, 8/7) with its closed form perturbed
# (c-a+1 for c-a): a certificate satisfies the WZ relation, yet R(n, 0) != 0.
PERTURBED_PFAFF_SAALSCHUETZ = """\
[identity]
name = ps_defect
kind = wz
z = 1
p = [1]
fact_pow = 1
num_poch = ["(-n)^1", "(9)^1", "(2)^1"]
den_poch = ["(8/7)^1", "(-n+76/7)^1"]
rhs_base = 1
rhs_poch = ["(-48/7)^1", "(-6/7)^1", "(8/7)^-1", "(-69/7)^-1"]
"""


def test_wz_pair_with_a_failed_boundary_is_not_proved():
    ident = parse_identity(PERTURBED_PFAFF_SAALSCHUETZ).to_identity()
    result = synthesize_certificate(ident)
    assert result.status == "NotProved"
    assert result.certificate is None
    report = result.report
    assert report.symbolic_ok is True and report.base_case_ok is True
    assert report.boundary_ok is False
    assert "certificate does not vanish at k = 0" in report.failure_detail
