"""Certificate verification: the cross-multiplied pair identity, exact row
sums, lattice values of the companion function, and telescoping."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wzpi import (
    BUILTIN_NAMES,
    CertReport,
    ClosedForm,
    HyperTerm,
    MissingCertificate,
    PochFactor,
    PoleError,
    Poly2,
    RatFunc2,
    WZIdentity,
    builtin_record,
    load_builtin,
    parse_identity,
    rhs_exact,
    serialize_identity,
    synthesize_certificate,
    term_value,
    termination_bound,
    verify_certificate,
    verify_exact_sums,
    wz_residual,
)
from wzpi import wz
from wzpi.algebra import Product
from wzpi.terms import (multiplier, shift_quotient_k, shift_quotient_k_triples,
                        shift_quotient_n_triples)

from conftest import (WZ_NAMES, PoleOnLattice, RefRat, chu_vandermonde, family_identities,
                      g_value, nonzero_poly2s, pfaff_saalschuetz, record_text,
                      shift_quotient_n, triple_poly)

PRINTED_OK = ("theorem1", "theorem3", "theorem4", "theorem5", "theorem6",
              "theorem7", "theorem8")
PRINTED_BAD = ("theorem2", "theorem9")
N, K = Poly2.var("n"), Poly2.var("k")


# -- the certificate identity --------------------------------------------------------

@pytest.mark.parametrize("name", PRINTED_OK)
def test_printed_certificates_satisfy_the_pair_identity(name):
    ident = load_builtin(name)
    assert wz_residual(ident).num.is_zero


@pytest.mark.parametrize("name", PRINTED_BAD)
def test_flagged_certificates_have_nonzero_residual(name):
    ident = load_builtin(name)
    assert builtin_record(name).erratum
    residual = wz_residual(ident)
    assert not residual.num.is_zero


@pytest.mark.parametrize("name", PRINTED_OK)
def test_verify_certificate_full_report(name):
    report = verify_certificate(load_builtin(name))
    assert report.symbolic_ok
    assert report.boundary_ok
    assert report.base_case_ok
    assert report.ok
    assert report.failure_detail == ""


@pytest.mark.parametrize("name", PRINTED_BAD)
def test_verify_certificate_reports_failure_detail(name):
    report = verify_certificate(load_builtin(name))
    assert report.symbolic_ok is False
    assert not report.ok
    assert "residual" in report.failure_detail


def test_missing_certificate_raises():
    with pytest.raises(MissingCertificate):
        wz_residual(load_builtin("zeilberger"))
    with pytest.raises(MissingCertificate):
        verify_certificate(load_builtin("theorem10"))


def test_wz_residual_accepts_an_override_certificate():
    ident = load_builtin("theorem1")
    good = ident.certificate
    assert wz_residual(replace(ident, certificate=good)).num.is_zero
    bad = RatFunc2(good.num + Poly2.var("k"), good.den)
    assert not wz_residual(replace(ident, certificate=bad)).num.is_zero


@given(nonzero_poly2s)
def test_residual_is_invariant_under_certificate_rescaling(c):
    ident = load_builtin("theorem1")
    cert = ident.certificate
    scaled = RatFunc2(cert.num * c, cert.den * c)
    assert wz_residual(replace(ident, certificate=scaled)).num.is_zero


# -- the residual against the formula over the full product of denominators --------

def reference_residual(ident, cert):
    """(s - 1) - (R(n,k+1)*r - R(n,k)) by RefRat arithmetic, over
    den(s)*B(k+1)*den(r)*B."""
    r = RefRat(shift_quotient_k(ident.term))
    s = shift_quotient_n(ident.term, ident.rhs)
    cert = RefRat(cert)
    return (s - 1) - (cert.shift("k", 1) * r - cert)


def residual_is_zero(ident, cert):
    """Whether the residual is zero, after checking that it equals the
    reference as a rational function and is zero exactly when that is."""
    new = wz_residual(replace(ident, certificate=cert))
    ref = reference_residual(ident, cert)
    assert new.num * ref.den == ref.num * new.den
    assert new.num.is_zero == ref.num.is_zero
    return new.num.is_zero


def shift_quotient_factor(ident, poly):
    """A nonconstant factor of the shift quotients or p(k) that divides poly."""
    s_num, s_den, _ = shift_quotient_n_triples(ident.term, ident.rhs)
    k_num, k_den, _ = shift_quotient_k_triples(ident.term)
    return next(f for f in [*map(triple_poly, s_num + s_den + k_num + k_den),
                            multiplier(ident.term)]
                if f.degree("n") + f.degree("k") and poly.divide(f) is not None)


def assert_mutants_match_reference(ident, cert):
    """Mutants of a valid certificate: each residual equals the reference,
    and is zero exactly when the mutant is still a proof."""
    a, b = cert.num, cert.den
    g = shift_quotient_factor(ident, b)
    opaque = N * N + K * K + 1               # no candidate divides it
    for label, mutant, proves in [
            ("sign flip", RatFunc2(-a, b), False),
            ("one numerator coefficient", RatFunc2(a + Poly2({max(a.ints): 1}), b), False),
            ("dropped factor", RatFunc2(a, b.divide(g)), False),
            ("repeated factor", RatFunc2(a * g, b * g), True),
            ("k-free factor", RatFunc2(a * (2 * N + 3), b * (2 * N + 3)), True),
            ("opaque cofactor", RatFunc2(a * opaque, b * opaque), True),
            ("opaque factor in B only", RatFunc2(a, b * opaque), False)]:
        assert residual_is_zero(ident, mutant) == proves, label


@pytest.mark.parametrize("name, num_terms, den_terms", [
    ("theorem1", 0, 66), ("theorem2", 95, 94), ("theorem3", 0, 95), ("theorem4", 0, 154),
    ("theorem5", 0, 154), ("theorem6", 0, 193), ("theorem7", 0, 193), ("theorem8", 0, 193),
    ("theorem9", 79, 193)])
def test_residual_is_built_over_the_lcm_of_the_factor_multisets(name, num_terms, den_terms):
    # over the full product den(s)*B(k+1)*den(r)*B, the denominators of
    # theorem1, theorem4 and theorem9 have 137, 475 and 682 terms, and the
    # printed errata theorem2 and theorem9 leave 262 and 464 on top
    residual = wz_residual(load_builtin(name))
    assert (len(residual.num.ints), len(residual.den.ints)) == (num_terms, den_terms)


def _with_common_factor(ident, factor):
    cert = ident.certificate
    return replace(ident, certificate=RatFunc2(cert.num * factor, cert.den * factor))


@pytest.mark.parametrize("name, factor, num_terms, den_terms", [
    ("theorem2", N - 3, 106, 106), ("theorem9", N - 3, 88, 209),
    ("theorem9", 2 * N + 3, 89, 209), ("theorem9", N * N + K * K + 1, 145, 283)])
def test_residual_size_with_a_nonconstant_cofactor(name, factor, num_terms, den_terms):
    # no shift-quotient factor divides the common factor, so it is the
    # cofactor of the split: one key of the lcm, shared with its k-shift
    # when that is the same polynomial (n - 3, 2n + 3); the residual is the
    # printed erratum's, over one more factor
    residual = wz_residual(_with_common_factor(load_builtin(name), factor))
    assert (len(residual.num.ints), len(residual.den.ints)) == (num_terms, den_terms)


def test_a_nonconstant_cofactor_leaves_the_reported_residual_size():
    report = verify_certificate(_with_common_factor(load_builtin("theorem9"), N - 3))
    assert report.symbolic_ok is False
    assert "(88 monomials in the numerator)" in report.failure_detail


@pytest.mark.parametrize("name, den_terms", [
    ("zeilberger", 33), ("theorem1", 66), ("theorem2", 94), ("theorem3", 95),
    ("theorem4", 154), ("theorem5", 154)])
def test_residual_of_a_synthesized_certificate_is_built_over_the_lcm(name, den_terms, synthesis):
    ident = replace(load_builtin(name), certificate=synthesis.get(name).certificate)
    residual = wz_residual(ident)
    assert residual.num.is_zero
    assert len(residual.den.ints) == den_terms


def test_a_zero_certificate_numerator_is_rejected_not_raised():
    # R = 0/B: two of the four numerator terms have a zero factor
    ident = load_builtin("theorem1")
    zero = replace(ident, certificate=RatFunc2(Poly2(), ident.certificate.den))
    residual = wz_residual(zero)
    assert len(residual.num.ints) == 66
    assert residual_is_zero(ident, zero.certificate) is False
    report = verify_certificate(zero)
    assert report.symbolic_ok is False
    assert "(66 monomials in the numerator)" in report.failure_detail


def test_the_residual_forms_no_product_of_two_polynomials(monkeypatch, synthesis):
    idents = [load_builtin("theorem9"),
              replace(load_builtin("theorem6"), certificate=synthesis.get("theorem6").certificate)]
    expected = [wz_residual(ident) for ident in idents]
    products = []
    mul = Poly2.__mul__

    def counted(self, other):
        if isinstance(other, Poly2):
            products.append((self, other))
        return mul(self, other)
    monkeypatch.setattr(Poly2, "__mul__", counted)
    assert N * K == Poly2({(1, 1): 1}) and len(products) == 1  # the count sees a product
    products.clear()
    for ident, want in zip(idents, expected):
        got = wz_residual(ident)
        assert (got.num, got.den) == (want.num, want.den)
    assert products == []


def test_the_residual_builds_no_fraction_for_a_factor(monkeypatch):
    # the shift quotients of theorem1, theorem4 and theorem9 have 18, 30 and
    # 34 linear factors, and their certificate denominators 3, 7 and 9, so a
    # Fraction for any one factor would make the counts differ
    counts = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        counts[-1] += 1
        return new(cls, *args, **kwargs)
    idents = [load_builtin(name) for name in ("theorem1", "theorem4", "theorem9")]
    monkeypatch.setattr(Fraction, "__new__", counted)
    for ident in idents:
        counts.append(0)
        wz_residual(ident)
    monkeypatch.undo()
    assert counts[0] > 0 and len(set(counts)) == 1, counts


def test_one_check_makes_one_residual_and_one_split(monkeypatch):
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append((name, args[0]))
            return fn(*args, **kwargs)
        return call
    ident = load_builtin("theorem9")
    for name in ("wz_residual", "split_factors"):
        monkeypatch.setattr(wz, name, counted(name, getattr(wz, name)))
    report = wz.verify_certificate(ident)
    assert report.symbolic_ok is False
    # the parsed denominator is a product: its factors are read, not split
    assert ident.certificate.product is not None
    assert calls == [("wz_residual", ident)]
    # an expanded one is split once, by trial division
    calls.clear()
    cert = ident.certificate
    expanded = replace(ident, certificate=RatFunc2(cert.num, cert.den))
    wz.verify_certificate(expanded)
    assert calls == [("wz_residual", expanded), ("split_factors", cert.den)]
    # a replaced certificate is split afresh
    calls.clear()
    wz.verify_certificate(replace(ident, certificate=_with_common_factor(ident, N - 3).certificate))
    assert [name for name, _ in calls] == ["wz_residual", "split_factors"]


# -- a denominator given as its factors against the same one expanded ---------------

def assert_factored_matches_expanded(ident):
    """The certificate's factored denominator and the same polynomial given
    expanded give equal dens, the same split up to order, the same residual
    numerator and the same report."""
    cert = ident.certificate
    assert cert.product is not None
    expanded = replace(ident, certificate=RatFunc2(cert.num, cert.den))
    assert expanded.certificate.product is None
    assert cert.den == cert.product.expand() == expanded.certificate.den
    split, split2 = ident.den_split, expanded.den_split
    assert (Counter(split.factors), split.scale) == (Counter(split2.factors), split2.scale)
    assert wz_residual(ident).num == wz_residual(expanded).num
    assert verify_certificate(ident) == verify_certificate(expanded)


@pytest.mark.parametrize("name", PRINTED_OK + PRINTED_BAD)
def test_a_printed_denominator_as_parsed_matches_it_expanded(name):
    # the record file writes cert_den as a product, and the serializer
    # writes it as its keys and scale, which parse back unchanged
    rec = builtin_record(name)
    again = parse_identity(serialize_identity(rec)).cert_den
    assert isinstance(again, Product)
    assert (Counter(again.factors), again.scale) == (Counter(rec.cert_den.factors),
                                                     rec.cert_den.scale)
    assert_factored_matches_expanded(rec.to_identity())


@pytest.mark.parametrize("name", ["theorem1", "theorem9"])
def test_a_product_keys_its_factors_and_folds_every_content_into_its_scale(name):
    # the printed denominator given again: its first key as a Poly2 with
    # content 3, the others as triples times -2, and constants as a Poly2
    # and as a triple, all divided out of the scale
    ident = load_builtin(name)
    canonical = ident.certificate.product
    (e, a, c), *rest = canonical.factors
    messy = Product(canonical.scale / (3 * (-2) ** len(rest) * 5 * 7),
                    [3 * Poly2.linear(a, e, c), *(tuple(-2 * x for x in g) for g in rest),
                     Poly2.const(5), (0, 0, 7)])
    assert (messy.factors, messy.scale) == (canonical.factors, canonical.scale)
    want = wz_residual(ident)
    got = wz_residual(replace(ident, certificate=RatFunc2(ident.certificate.num, messy)))
    assert got.num == want.num
    assert (got.product.factors, got.product.scale) == (want.product.factors,
                                                         want.product.scale)


def test_a_product_key_that_is_not_linear_is_primitive():
    got = Product(2, [2 * N * N + 2, (0, 0, -1), (0, -3, 6), -K * K * N])
    assert (got.factors, got.scale) == ((N * N + 1, (0, 1, -2), K * K * N), -12)
    assert all(type(g) is tuple or g.den == 1 and math.gcd(*g.ints.values()) == 1
               for g in got.factors)


def test_a_key_nonlinear_in_k_round_trips_and_is_checked_with_no_shift(monkeypatch):
    # the serializer writes k^2 + n as one factor; it parses back to the same
    # keys and scale, and the check packs it at k + 1 with no Poly2.shift
    rec = builtin_record("theorem1")
    bare = Product(1, [(4, 0, 1), K * K + N])
    again = parse_identity(serialize_identity(replace(rec, cert_den=bare))).cert_den
    assert (again.factors, again.scale) == (bare.factors, bare.scale)
    # theorem1's certificate with k^2 + n in both halves
    cert_den = Product(rec.cert_den.scale, [*rec.cert_den.factors, K * K + N])
    text = serialize_identity(replace(rec, cert_num=rec.cert_num * (K * K + N), cert_den=cert_den))
    ident = parse_identity(text).to_identity()
    got = ident.certificate.product
    assert (Counter(got.factors), got.scale) == (Counter(cert_den.factors), cert_den.scale)
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)
    for name in ("divide", "shift"):
        monkeypatch.setattr(Poly2, name, counted(name, getattr(Poly2, name)))
    monkeypatch.setattr(wz, "split_factors", counted("split_factors", wz.split_factors))
    report = verify_certificate(ident)
    monkeypatch.undo()
    assert calls == []
    assert report.ok and report.symbolic_ok
    # k^2 + n vanishes at (0, 0), on the support, which the scan reports
    assert report.failure_detail == "certificate denominator vanishes on support at [(0, 0)]"


@pytest.mark.parametrize("name", WZ_NAMES)
def test_a_synthesized_denominator_as_assembled_matches_it_expanded(name, synthesis):
    assert_factored_matches_expanded(
        replace(load_builtin(name), certificate=synthesis.get(name).certificate))


def test_a_verify_pass_neither_divides_nor_expands_a_denominator(monkeypatch):
    # to_identity on the 14 records, the 9 printed checks and the exact sums
    counts = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call
    for owner, name in ((Poly2, "divide"), (Product, "expand"), (wz, "split_factors")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    assert Product(2, [(1, 0, 1)]).expand() == 2 * K + 2 and counts["expand"] == 1
    counts.clear()
    checked = 0
    for name in BUILTIN_NAMES:
        ident = load_builtin(name)
        if ident.kind != "wz":
            continue
        if ident.certificate is not None:
            checked += 1
            verify_certificate(ident, n_scan=20)
        verify_exact_sums(ident, n_max=20)
    assert checked == 9 and counts == Counter()


@pytest.mark.parametrize("factor, text", [
    (K, "k"), (N - 3, "(n-3)"), (K - 2, "(k-2)"), ((N - K) * (N - 3), "(n-k)*(n-3)")])
def test_a_common_factor_in_the_product_gives_the_expanded_report(factor, text):
    # the boundary check and the scan read the factors of the parsed product
    # as they read the split of the same denominator expanded
    ident = parse_identity(record_text("theorem1", text)).to_identity()
    assert ident.certificate.product is not None
    assert verify_certificate(ident) == \
        verify_certificate(_with_common_factor(load_builtin("theorem1"), factor))


FAMILIES = {
    "chu_vandermonde(9, 8/7)": lambda: chu_vandermonde(Fraction(9), Fraction(8, 7)),
    "chu_vandermonde(1/3, 8/7)": lambda: chu_vandermonde(Fraction(1, 3), Fraction(8, 7)),
    "pfaff_saalschuetz(2, 8/3, 8/7)":
        lambda: pfaff_saalschuetz(Fraction(2), Fraction(8, 3), Fraction(8, 7)),
    "pfaff_saalschuetz(11/2, 5, 8/7)":
        lambda: pfaff_saalschuetz(Fraction(11, 2), Fraction(5), Fraction(8, 7)),
}


@pytest.mark.parametrize("name", PRINTED_OK + PRINTED_BAD)
def test_residual_of_printed_certificates_matches_reference(name):
    ident = load_builtin(name)
    assert residual_is_zero(ident, ident.certificate) == (name in PRINTED_OK)
    if name in PRINTED_OK:
        assert_mutants_match_reference(ident, ident.certificate)


@pytest.mark.parametrize("name", WZ_NAMES)
def test_residual_of_synthesized_certificates_matches_reference(name, synthesis):
    ident = load_builtin(name)
    cert = synthesis.get(name).certificate
    assert residual_is_zero(ident, cert)
    assert_mutants_match_reference(ident, cert)


@pytest.mark.parametrize("family", FAMILIES)
def test_residual_of_family_certificates_matches_reference(family):
    ident = FAMILIES[family]()
    cert = synthesize_certificate(ident).certificate
    assert residual_is_zero(ident, cert)
    assert_mutants_match_reference(ident, cert)


# -- certificate-denominator zeros on the summation support --------------------------

POLES_PREFIX = "certificate denominator vanishes on support at "


@pytest.mark.parametrize("factor, n_scan, detail", [
    (K - 2, 20, POLES_PREFIX + "[(2, 2), (3, 2), (4, 2), (5, 2)]"),
    (N - K, 20, POLES_PREFIX + "[(0, 0), (1, 1), (2, 2), (3, 3)]"),
    (2 * K - 3, 20, ""),
    (K * K * Fraction(1, 3) - N * Fraction(3, 7), 20,
     POLES_PREFIX + "[(0, 0), (7, 3)]"),
    (K * K * Fraction(1, 3) - N * Fraction(3, 7), 6, POLES_PREFIX + "[(0, 0)]"),
    (K - 2, 3, POLES_PREFIX + "[(2, 2), (3, 2)]"),
    # k - n is split out as a line, k - 2 and n - 3 stay in the cofactor:
    # both kinds of zero are merged, each once, in increasing k
    ((K - 2) * (N - K), 20, POLES_PREFIX + "[(0, 0), (1, 1), (2, 2), (3, 2)]"),
    ((N - K) * (N - 3), 20, POLES_PREFIX + "[(0, 0), (1, 1), (2, 2), (3, 0)]"),
    ((N - K) * (N - K), 20, POLES_PREFIX + "[(0, 0), (1, 1), (2, 2), (3, 3)]"),
])
def test_denominator_zeros_on_the_support_are_reported_in_order(factor, n_scan, detail):
    # a factor common to num and den leaves the rational function, so every
    # flag, as it is; only the lattice scan sees where it vanishes
    ident = _with_common_factor(load_builtin("theorem1"), factor)
    report = verify_certificate(ident, n_scan=n_scan)
    assert (report.symbolic_ok, report.boundary_ok, report.base_case_ok) == (True, True, True)
    assert report.exact_sums_ok is None and report.ok
    assert report.failure_detail == detail


def test_a_denominator_that_vanishes_at_k_0_fails_the_boundary_check():
    # k/k leaves the rational function, so the WZ relation holds, and the
    # numerator still vanishes at k = 0; but R = G/F is then not finite on
    # the boundary column, where the telescoping sum starts
    report = verify_certificate(_with_common_factor(load_builtin("theorem1"), K))
    assert report.symbolic_ok is True and report.boundary_ok is False
    assert report.base_case_ok is True and not report.ok
    assert report.failure_detail.startswith("certificate denominator vanishes at k = 0; ")
    assert POLES_PREFIX + "[(0, 0), (1, 0), (2, 0), (3, 0)]" in report.failure_detail


small_rationals = st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                               max_denominator=3)


@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       small_rationals, min_size=1, max_size=4).map(Poly2)
       .filter(lambda p: not p.is_zero),
       st.integers(min_value=0, max_value=8))
def test_reported_denominator_zeros_match_a_pointwise_scan(factor, n_scan):
    ident = _with_common_factor(load_builtin("theorem1"), factor)
    # the oracle sums the monomials as Fractions: Poly2.eval shares the scan's row
    terms = ident.certificate.den.terms.items()
    poles = [(n, k) for n in range(n_scan + 1)
             for k in range(termination_bound(ident.term, n) + 1)
             if not sum(c * n ** i * k ** j for (i, j), c in terms)]
    detail = verify_certificate(ident, n_scan=n_scan).failure_detail
    assert detail.endswith(POLES_PREFIX + str(poles[:4])) == bool(poles)
    assert (POLES_PREFIX in detail) == bool(poles)


def test_non_wz_identities_are_rejected():
    ident = load_builtin("ramanujan")
    with pytest.raises(ValueError):
        wz_residual(ident)
    with pytest.raises(ValueError):
        verify_exact_sums(ident)


# -- exact row sums ------------------------------------------------------------------

@pytest.mark.parametrize("name", WZ_NAMES)
def test_exact_row_sums_match_closed_form(name):
    report = verify_exact_sums(load_builtin(name), n_max=8)
    assert report.exact_sums_ok
    assert report.n_checked == 8


def test_exact_sum_failure_is_reported_with_position():
    rec = builtin_record("theorem1")
    broken = replace(rec, rhs=replace(rec.rhs, base=rec.rhs.base * 2)).to_identity()
    report = verify_exact_sums(broken, n_max=5)
    assert report.exact_sums_ok is False
    assert report.n_checked == 1
    assert "mismatch at n = 1" in report.failure_detail


def test_scaled_summand_fails_only_the_base_case():
    # F -> 2F leaves both shift quotients, hence the WZ relation and the
    # k = 0 column, unchanged; only the n = 0 row sum (2 against 1) differs.
    ident = load_builtin("theorem1")
    term = replace(ident.term, prefactor_rational=ident.term.prefactor_rational * 2)
    report = verify_certificate(replace(ident, term=term))
    assert report.symbolic_ok is True and report.boundary_ok is True
    assert report.base_case_ok is False
    assert "base case n = 0 sum differs" in report.failure_detail


def reference_exact_sums(ident, n_max):
    """verify_exact_sums in Fractions, row by row: term_value summed against
    rhs_exact, with row_sum's errors in row_sum's order."""
    report = CertReport(identity_name=ident.name)
    for n in range(n_max + 1):
        bound = termination_bound(ident.term, n)
        if bound is None:
            raise ValueError(f"{ident.name}: series does not terminate at n = {n}")
        total = sum((term_value(ident.term, n, k) for k in range(bound + 1)), Fraction(0))
        expected = rhs_exact(ident.rhs, n)
        if total != expected:
            report.exact_sums_ok = False
            report.n_checked = n
            report.failure_detail = f"row sum mismatch at n = {n}: {total} != {expected}"
            return report
    report.exact_sums_ok = True
    report.n_checked = n_max
    return report


def exact_sums_outcome(check, ident, n_max):
    try:
        report = check(ident, n_max)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return report.exact_sums_ok, report.n_checked, report.failure_detail


def with_rhs(ident, base=None, poch_n=None):
    rhs = ident.rhs
    return replace(ident, rhs=ClosedForm(rhs.base if base is None else base,
                                         rhs.poch_n if poch_n is None else poch_n))


def negative_controls(ident):
    (a, e), *rest = ident.rhs.poch_n
    return (with_rhs(ident, base=ident.rhs.base * Fraction(9, 8)),
            with_rhs(ident, poch_n=((a, 2 * e), *rest)))


@pytest.mark.parametrize("name", WZ_NAMES)
def test_exact_sums_match_the_fraction_reference(name):
    ident = load_builtin(name)
    want = exact_sums_outcome(reference_exact_sums, ident, 20)
    assert exact_sums_outcome(verify_exact_sums, ident, 20) == want == (True, 20, "")
    for broken in negative_controls(ident):
        want = exact_sums_outcome(reference_exact_sums, broken, 20)
        assert want[0] is not True
        assert exact_sums_outcome(verify_exact_sums, broken, 20) == want


@given(family_identities, st.integers(min_value=0, max_value=10), st.booleans())
def test_exact_sums_match_the_fraction_reference_on_families(ident, n_max, broken):
    if broken:
        ident = negative_controls(ident)[0]
    assert (exact_sums_outcome(verify_exact_sums, ident, n_max)
            == exact_sums_outcome(reference_exact_sums, ident, n_max))


# (-2)_n / (-2)_n leaves the closed form's values alone and vanishes in a
# denominator from n = 3 on
CANCELLED_POLE = ((Fraction(-2), 1), (Fraction(-2), -1))


@pytest.mark.parametrize("n_max, outcome", [
    (2, (True, 2, "")),
    (3, (PoleError, "(-2)_3 vanishes in a denominator")),
    (20, (PoleError, "(-2)_3 vanishes in a denominator")),
])
def test_exact_sums_raise_a_closed_form_pole_only_on_a_checked_row(n_max, outcome):
    ident = load_builtin("zeilberger")
    ident = with_rhs(ident, poch_n=ident.rhs.poch_n + CANCELLED_POLE)
    assert exact_sums_outcome(reference_exact_sums, ident, n_max) == outcome
    assert exact_sums_outcome(verify_exact_sums, ident, n_max) == outcome


def test_exact_sums_raise_the_summand_pole_before_the_closed_form_pole():
    # c = -2: (c)_k below the summand vanishes at k = 3, so first on row 3,
    # and (c)_n below the closed form vanishes on row 3 too
    ident = chu_vandermonde(Fraction(1, 2), Fraction(-2))
    outcome = (PoleError, "denominator factor (-2)_3 vanishes at n=3, k=3")
    assert exact_sums_outcome(verify_exact_sums, ident, 2) == (True, 2, "")
    for check in (reference_exact_sums, verify_exact_sums):
        assert exact_sums_outcome(check, ident, 3) == outcome
    with pytest.raises(PoleError, match=r"^\(-2\)_3 vanishes in a denominator$"):
        rhs_exact(ident.rhs, 3)


def test_exact_sums_raise_where_the_series_does_not_terminate():
    ident = load_builtin("zeilberger")
    # (2 - n)_k in place of (-n)_k terminates from n = 2 on only
    term = replace(ident.term, poch=tuple(
        PochFactor(-1, 2, 1) if f == PochFactor(-1, 0, 1) else f for f in ident.term.poch))
    outcome = (ValueError, "zeilberger: series does not terminate at n = 0")
    for check in (reference_exact_sums, verify_exact_sums):
        assert exact_sums_outcome(check, replace(ident, term=term), 5) == outcome


def ends_before_row_5(base=Fraction(1, 2), rhs_poch=(), den=(), pre=Fraction(1, 16)):
    """sum_k (n - 4)_k (-1)^k / k! / 16 = (1/2)^n for n <= 4, given the
    factors den below and the closed form's base and rhs_poch; from n = 5 on
    the series does not terminate."""
    term = HyperTerm(poch=(PochFactor(1, -4, 1), *den), fact_pow=1, z=-1, p=(1,),
                     prefactor_rational=pre)
    return WZIdentity("ends", term, ClosedForm(base, rhs_poch), None, None, "wz")


ENDS = (ValueError, "ends: series does not terminate at n = 5")


@pytest.mark.parametrize("ident, outcome, upto_4", [
    (ends_before_row_5(), ENDS, (True, 4, "")),
    # the closed form's (-4)_n / (-4)_n vanishes in a denominator on row 5 itself
    (ends_before_row_5(rhs_poch=((Fraction(-4), 1), (Fraction(-4), -1))), ENDS, (True, 4, "")),
    (ends_before_row_5(base=Fraction(1, 3)), (False, 1, "row sum mismatch at n = 1: 1/2 != 1/3"),
     None),
    # below the summand (1 - n)_k, and row 0 scaled back to 1 = 209/24 * 24/209
    (ends_before_row_5(den=(PochFactor(-1, 1, -1),), pre=Fraction(24, 209)),
     (PoleError, "denominator factor (0)_1 vanishes at n=1, k=1"), None),
    (ends_before_row_5(rhs_poch=((Fraction(0), -1),)),
     (PoleError, "(0)_1 vanishes in a denominator"), None),
], ids=["terminating", "closed-form-pole-on-row-5", "mismatch", "summand-pole", "closed-form-pole"])
def test_exact_sums_keep_their_error_order_before_a_row_that_does_not_terminate(
        ident, outcome, upto_4):
    # rows 0..4 terminate and row 5 does not: what an earlier row raises or
    # reports comes first, and row 5 raises ValueError before its closed form's pole
    for check in (reference_exact_sums, verify_exact_sums):
        assert exact_sums_outcome(check, ident, 8) == outcome
        if upto_4 is not None:
            assert exact_sums_outcome(check, ident, 4) == upto_4


# -- lattice values of G = R * (summand / closed form) -------------------------------

@pytest.mark.parametrize("name", PRINTED_OK)
def test_pair_identity_holds_pointwise_on_the_lattice(name):
    ident = load_builtin(name)
    for n in range(4):
        bound = termination_bound(ident.term, n + 1)
        for k in range(bound + 2):
            f_n = (term_value(ident.term, n, k) / rhs_exact(ident.rhs, n))
            f_n1 = (term_value(ident.term, n + 1, k) / rhs_exact(ident.rhs, n + 1))
            lhs = f_n1 - f_n
            rhs = g_value(ident, n, k + 1) - g_value(ident, n, k)
            assert lhs == rhs, (name, n, k)


def test_companion_function_vanishes_at_left_edge_and_beyond_support():
    ident = load_builtin("theorem1")
    for n in range(5):
        assert g_value(ident, n, 0) == 0
        bound = termination_bound(ident.term, n)
        assert g_value(ident, n, bound + 2) == 0


def _fhat(ident, n, k):
    return term_value(ident.term, n, k) / rhs_exact(ident.rhs, n)


def test_removable_certificate_singularities_are_deflated():
    ident = load_builtin("theorem1")
    cert = ident.certificate
    spike = Poly2.var("n") - 3          # vanishes along n = 3
    scaled = replace(ident, certificate=RatFunc2(cert.num * spike,
                                                 cert.den * spike))
    bound = termination_bound(ident.term, 3)
    for k in range(bound + 2):
        assert not scaled.certificate.den.eval(3, k)
        assert g_value(scaled, 3, k) == g_value(ident, 3, k)
    # the printed denominator vanishes just past each row's support, where
    # the pair identity at k = n fixes G(n, n + 1)
    for n in range(6):
        assert termination_bound(ident.term, n) == n and not cert.den.eval(n, n + 1)
        assert (g_value(ident, n, n + 1) - g_value(ident, n, n)
                == _fhat(ident, n + 1, n) - _fhat(ident, n, n))


def test_a_genuine_pole_of_the_companion_function_is_raised():
    ident = load_builtin("theorem1")
    cert = ident.certificate
    poled = replace(ident, certificate=RatFunc2(cert.num, cert.den * (Poly2.var("n") - 3)))
    assert cert.num.eval(3, 1) and term_value(ident.term, 3, 1)
    with pytest.raises(PoleOnLattice, match=r"pole of order 1 at \(n=3, k=1\)"):
        g_value(poled, 3, 1)


def _telescoped(ident, n, k_max):
    """Sum of G(n,k+1) - G(n,k) over k = 0..k_max, every G value exact."""
    return sum(g_value(ident, n, k + 1) - g_value(ident, n, k)
               for k in range(k_max + 1))


@pytest.mark.parametrize("name", PRINTED_OK)
def test_telescoping_over_full_support_cancels(name):
    ident = load_builtin(name)
    for n in range(4):
        k_max = termination_bound(ident.term, n + 1) + 1
        assert _telescoped(ident, n, k_max) == 0


def test_telescoping_partial_sums_match_endpoints():
    ident = load_builtin("theorem1")
    total = _telescoped(ident, 2, 3)
    assert total == g_value(ident, 2, 4) - g_value(ident, 2, 0)
    direct = sum((term_value(ident.term, 3, k) / rhs_exact(ident.rhs, 3))
                 - (term_value(ident.term, 2, k) / rhs_exact(ident.rhs, 2))
                 for k in range(4))
    assert total == direct
