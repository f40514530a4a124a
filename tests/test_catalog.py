"""Identity-file grammar: expression parser, record parsing, serialization
round trips, and the built-in catalog."""
from __future__ import annotations

import hashlib
from copy import deepcopy
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given

from wzpi import (
    BUILTIN_NAMES,
    ParseError,
    Poly2,
    SemanticError,
    UnknownIdentity,
    builtin_record,
    load_builtin,
    load_identity_file,
    parse_identity,
    serialize_identity,
    synthesize_certificate,
    verify_certificate,
    verify_exact_sums,
    wz_residual,
)
from wzpi.algebra import Product, factor_key
from wzpi.catalog import _fmt_den, parse_poly
from wzpi.terms import ClosedForm, HyperTerm, PochFactor

from conftest import poly2s, record_text


# -- polynomial expression parser ----------------------------------------------------

def test_parser_handles_the_usual_shapes():
    n = Poly2.var("n")
    k = Poly2.var("k")
    assert parse_poly("(4*k+1)") == 4 * k + 1
    assert parse_poly("-k+n+1") == -k + n + 1
    assert parse_poly("2*n^2 - 3/4*k + 5") == 2 * n ** 2 - Fraction(3, 4) * k + 5
    assert parse_poly("(n+k)*(n-k)") == n ** 2 - k ** 2
    assert parse_poly("(n+1)^3") == (n + 1) ** 3
    assert parse_poly("- (k - n)") == n - k
    assert parse_poly("7") == Poly2.const(7)


def test_parser_precedence_and_associativity():
    n = Poly2.var("n")
    k = Poly2.var("k")
    assert parse_poly("2+3*k") == 3 * k + 2
    assert parse_poly("2*k^2") == 2 * k ** 2
    assert parse_poly("-(k^2)") == -(k ** 2)
    assert parse_poly("n-k-1") == (n - k) - 1
    assert parse_poly("2*3*n") == 6 * n


@given(poly2s())
def test_printing_then_parsing_is_identity(p):
    assert parse_poly(str(p)) == p


@pytest.mark.parametrize("bad", [
    "", "n +", "(n", "n)", "x + 1", "n ^ k", "n ** 2", "1/0", "n // 2",
    "4n", "^2",
])
def test_parser_rejects_malformed_input(bad):
    with pytest.raises(ParseError):
        parse_poly(bad)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_poly("n + x")
    assert info.value.line == 1
    assert info.value.col >= 5


# -- identity records ----------------------------------------------------------------

def test_builtin_catalog_is_complete():
    assert len(BUILTIN_NAMES) == 14
    assert set(BUILTIN_NAMES) == {
        "ramanujan", "zeilberger", "r1103",
        *{f"theorem{i}" for i in range(1, 12)},
    }


def test_unknown_identity_raises():
    with pytest.raises(UnknownIdentity):
        builtin_record("theorem12")
    with pytest.raises(UnknownIdentity):
        load_builtin("nope")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_serialization_round_trip_is_a_fixed_point(name):
    rec = builtin_record(name)
    text = serialize_identity(rec)
    once = parse_identity(text)
    assert once == rec
    again = serialize_identity(parse_identity(serialize_identity(once)))
    assert again == serialize_identity(once)


def test_the_serialized_catalog_is_pinned():
    # the canonical text of the 14 records, in BUILTIN_NAMES order
    text = "".join(serialize_identity(builtin_record(name)) for name in BUILTIN_NAMES)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "7ffe61f4bf87c88be5439670ff62d170e74e592e8d46b9e92f82969c5c9fac8e"


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_records_agree_with_identity_view(name):
    rec = builtin_record(name)
    ident = load_builtin(name)
    assert ident.name == rec.name
    assert ident.kind == rec.kind
    assert ident.carlson_a == rec.carlson_a
    assert (ident.certificate is not None) == rec.has_certificate
    assert ident.term is rec.term and ident.rhs is rec.rhs
    if rec.kind == "wz":
        assert ident.rhs is not None
    # numerator factors first, then the denominator's with negative powers
    powers = [f.power for f in rec.term.poch]
    assert powers == sorted(powers, key=lambda e: e < 0)


def test_to_identity_builds_no_fraction(monkeypatch):
    # the record's term and closed form are shared, not rebuilt, but each
    # call builds a new identity with its own shift quotients
    records = [builtin_record(name) for name in BUILTIN_NAMES]
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counted)
    idents = [rec.to_identity() for rec in records]
    monkeypatch.undo()
    assert built == []
    assert all(ident.term is rec.term and ident.rhs is rec.rhs
               for ident, rec in zip(idents, records))
    for rec in (rec for rec in records if rec.kind == "wz"):
        first, second = rec.to_identity(), rec.to_identity()
        assert first is not second
        assert first.quotients is not second.quotients


def test_checks_leave_the_shared_term_and_closed_form_as_they_were():
    # every identity of a record shares its term, with the term's cached
    # k_factors, p_ints and stops, and its closed form: a check that changed
    # them would change every later check of the record
    records = [builtin_record(name) for name in BUILTIN_NAMES
               if builtin_record(name).kind == "wz"]

    def shared():
        return [(rec.term.k_factors, rec.term.p_ints, rec.term.stops, rec.rhs)
                for rec in records]
    before = deepcopy(shared())
    for _ in range(2):
        for rec in records:
            if rec.has_certificate:
                verify_certificate(rec.to_identity())
            verify_exact_sums(rec.to_identity())
            synthesize_certificate(rec.to_identity())
    assert shared() == before


def test_kind_split_matches_expectations():
    kinds = {name: builtin_record(name).kind for name in BUILTIN_NAMES}
    assert kinds["ramanujan"] == "numeric"
    assert kinds["r1103"] == "numeric"
    wz = [n for n, k in kinds.items() if k == "wz"]
    assert len(wz) == 12


def test_printed_certificates_present_where_expected():
    with_cert = {n for n in BUILTIN_NAMES if builtin_record(n).has_certificate}
    assert with_cert == {f"theorem{i}" for i in range(1, 10)}
    flagged = {n for n in BUILTIN_NAMES if builtin_record(n).erratum}
    assert flagged == {"theorem2", "theorem9"}


def test_load_identity_file_round_trip(tmp_path):
    rec = builtin_record("theorem1")
    path = tmp_path / "copy.identity"
    path.write_text(serialize_identity(rec), encoding="utf-8")
    assert load_identity_file(str(path)) == rec


def test_edited_record_survives_round_trip(tmp_path):
    rec = builtin_record("theorem3")
    edited = replace(rec, name="theorem3_variant", erratum=True)
    text = serialize_identity(edited)
    back = parse_identity(text)
    assert back == edited
    assert back.name == "theorem3_variant"
    assert back.erratum is True


# -- record-level validation ---------------------------------------------------------

MINIMAL = """\
[identity]
name = toy
kind = wz
z = -1
p = [1, 4]
fact_pow = 3
num_poch = ["(1/2 + n)^3"]
rhs_base = 1
"""


def test_minimal_record_parses():
    rec = parse_identity(MINIMAL)
    assert rec.name == "toy"
    assert rec.term == HyperTerm((PochFactor(1, Fraction(1, 2), 3),), 3, -1, (1, 4))
    assert rec.rhs == ClosedForm(1, ())
    assert not rec.has_certificate


def test_comments_and_blank_lines_are_ignored():
    text = "# header comment\n\n" + MINIMAL + "\n# trailing comment\n"
    assert parse_identity(text) == parse_identity(MINIMAL)


@pytest.mark.parametrize("old, new", [
    ('name = toy', 'name = "Toy"'),
    ("kind = wz", "kind = mystery"),
    ("z = -1", "z = -1\nz = -1"),
    ("p = [1, 4]", ""),
    ("z = -1", "z = one"),
    ('num_poch = ["(1/2 + n)^3"]', 'num_poch = ["(1/2 + n*k)^3"]'),
    ('num_poch = ["(1/2 + n)^3"]', 'num_poch = ["(1/2 + n)^0"]'),
    ('num_poch = ["(1/2 + n)^3"]', 'num_poch = ["(1/2 + n)^-3"]'),
    ("rhs_base = 1", ""),
    ("fact_pow = 3", "fact_pow = -1"),
])
def test_semantic_errors(old, new):
    text = MINIMAL.replace(old, new)
    with pytest.raises(SemanticError):
        parse_identity(text)


def test_missing_header_rejected():
    with pytest.raises(ParseError):
        parse_identity(MINIMAL.replace("[identity]\n", ""))


def test_certificate_halves_must_appear_together():
    with pytest.raises(SemanticError):
        parse_identity(MINIMAL + 'cert_num = "k"\n')


def test_unknown_keys_rejected():
    with pytest.raises(SemanticError):
        parse_identity(MINIMAL + "mystery_key = 1\n")


# -- cert_den as a product -------------------------------------------------------------

CERT = MINIMAL + 'cert_num = "k"\ncert_den = "{}"\n'
CERT_DEN_LINE = CERT.count("\n")


@pytest.mark.parametrize("den", ["(4*k+1)*0*(n+1)", "(n-n)^2*(k+1)", "(k+1)*(0)^1", "0"])
def test_a_product_with_a_zero_factor_is_the_zero_polynomial(den):
    with pytest.raises(SemanticError, match="cert_den is the zero polynomial") as info:
        parse_identity(CERT.format(den))
    assert info.value.line == CERT_DEN_LINE


@pytest.mark.parametrize("den, scale, triples, cofactor", [
    # 3n + 3 - k is -1 times its key (1, -3, -3); -(4k + 1) is squared
    ("27*(4*k+1)^2*(3*n+3-k)", -27, [(4, 0, 1), (4, 0, 1), (1, -3, -3)], None),
    ("-(4*k+1)^2*n^2*(n^2+1)", 1, [(4, 0, 1), (4, 0, 1), (0, 1, 0), (0, 1, 0)], "n^2+1"),
    ("2*k^2*(2*k+2)*1/3", Fraction(4, 3), [(1, 0, 0), (1, 0, 0), (1, 0, 1)], None),
    ("(6*n+4)*(k+1/2*n)^3", Fraction(1, 4), [(0, 3, 2)] + [(2, 1, 0)] * 3, None),
    ("(4*k+1)^0*5", 5, [], None),
])
def test_powers_and_constants_of_a_product_are_parsed(den, scale, triples, cofactor):
    got = parse_identity(CERT.format(den)).cert_den
    assert isinstance(got, Product) and got == parse_poly(den)
    assert list(got.factors) == triples + ([] if cofactor is None else [parse_poly(cofactor)])
    assert got.scale == scale
    assert str(got) == str(parse_poly(den))


@pytest.mark.parametrize("den", ["k*n+1", "(4*k+1)*(k+1)-1"])
def test_a_sum_is_parsed_expanded(den):
    got = parse_identity(CERT.format(den)).cert_den
    assert type(got) is Poly2 and got == parse_poly(den)


@pytest.mark.parametrize("den", ["(n^2+k^2+1)*(4*k+1)", "(k^2)*n"])
def test_a_factor_nonlinear_in_k_is_parsed_as_a_product_key(den):
    # the factor is kept whole, as its key, beside the triples
    got = parse_identity(CERT.format(den)).cert_den
    assert isinstance(got, Product) and got == parse_poly(den)
    assert [type(g) for g in got.factors].count(Poly2) == 1
    again = parse_identity(CERT.format(_fmt_den(got))).cert_den
    assert (again.factors, again.scale) == (got.factors, got.scale)


@pytest.mark.parametrize("name, factor, num_terms, den_terms, linear", [
    ("theorem9", "(n^2+k^2+1)", 145, 283, False), ("theorem9", "(n-3)", 88, 209, True),
    ("theorem9", "(2*n+3)", 89, 209, True), ("theorem2", "(n-3)", 106, 106, True)])
def test_a_common_factor_written_in_the_record_keeps_the_residual_size(
        name, factor, num_terms, den_terms, linear):
    # the sizes of test_wz.py::test_residual_size_with_a_nonconstant_cofactor,
    # where the same factor is multiplied in after the parse; written as a
    # factor of the product, it is one key of the parsed Product, linear or not
    ident = parse_identity(record_text(name, factor)).to_identity()
    key = factor_key(parse_poly(factor))[0]
    assert key in ident.certificate.product.factors and (type(key) is tuple) == linear
    residual = wz_residual(ident)
    assert (len(residual.num.ints), len(residual.den.ints)) == (num_terms, den_terms)
    assert verify_certificate(ident).symbolic_ok is False


@pytest.mark.parametrize("bad", [
    "", "n +", "(n", "n)", "x + 1", "n ^ k", "n ** 2", "1/0", "n // 2",
    "4n", "^2", "(4*k+1)*(n", "(4*k+1)*x", "2*(k+1) 3",
])
def test_a_malformed_cert_den_fails_where_the_expression_parser_does(bad):
    with pytest.raises(ParseError) as want:
        parse_poly(bad, CERT_DEN_LINE, 13)
    with pytest.raises(ParseError) as got:
        parse_identity(CERT.format(bad))
    assert (got.value.line, got.value.col, str(got.value)) == \
        (want.value.line, want.value.col, str(want.value))


@pytest.mark.parametrize("text, line, col", [
    (MINIMAL + 'cert_num = "k + x"\ncert_den = "1"\n', CERT_DEN_LINE - 1, 17),
    (MINIMAL + '  cert_num = "k + x"\ncert_den = "1"\n', CERT_DEN_LINE - 1, 19),
    (CERT.format("(4*k+1)*x"), CERT_DEN_LINE, 21),
    (CERT.format("k*n + x"), CERT_DEN_LINE, 19),  # a sum: parsed expanded
], ids=["cert_num", "indented", "product", "sum"])
def test_a_certificate_parse_error_names_the_column_in_the_file(text, line, col):
    # counted from the start of the line, not from the opening quote
    with pytest.raises(ParseError, match="unknown variable 'x'") as info:
        parse_identity(text)
    assert (info.value.line, info.value.col) == (line, col)
