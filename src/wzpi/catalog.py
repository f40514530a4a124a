"""Identity catalog: a line-oriented text format, its parser and canonical
serializer, and the builtin identity files shipped under ``data/``.  A record
holds the engine's term and closed form, which ``to_identity`` shares.

File format: one ``[identity]`` header followed by ``key = value`` lines.
Values are rationals (``a/b`` with positive b), booleans, bare names,
double-quoted expression strings, or square-bracket lists of those.
Pochhammer factors are written ``"(EXPR)^POW"``; certificate polynomials are
quoted expressions over n and k.

Expression grammar (explicit ``*`` required; implicit multiplication is a
parse error)::

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := rational | 'n' | 'k' | '(' expr ')' | '-' base
    rational := uint ('/' uint)?

Unary minus binds tighter than ``^``, so ``-k^2`` means ``(-k)^2``; the
serializer therefore always writes an explicit coefficient, e.g. ``-1*k^2``.

A ``cert_den`` written as one product of factors, as every bundled record
writes it, is ``algebra.Product(1, <the factors>)``, a factor nonlinear in k
among them; a sum is expanded.  The serializer writes a Product as its scale
and keys, which parse back to the same keys and scale.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional

from .algebra import Poly2, Product, Rat, RatFunc2
from .terms import ClosedForm, HyperTerm, PochFactor
from .wz import WZIdentity


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class SemanticError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class UnknownIdentity(KeyError):
    pass


# -- expression tokenizer / parser ---------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*^()/]))")


def _tokenize(text: str, line: int, col0: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = col0 + pos + (len(text[pos:]) - len(stripped))
            raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
        col = col0 + m.start(m.lastgroup)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), line, col))
        pos = m.end()
    tokens.append(("eof", "", line, col0 + len(text)))
    return tokens


class _ExprParser:
    def __init__(self, text: str, line: int = 1, col0: int = 1):
        self.tokens = _tokenize(text, line, col0)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Poly2:
        poly = self.expr()
        kind, val, line, col = self.peek()
        if kind != "eof":
            raise ParseError(
                f"unexpected {val!r} (implicit multiplication is not allowed)"
                if kind in ("int", "name") or val == "(" else f"unexpected {val!r}",
                line, col)
        return poly

    def expr(self) -> Poly2:
        poly = _product(self.factors())
        while True:
            kind, val, _, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = _product(self.factors())
                poly = poly + rhs if val == "+" else poly - rhs
            else:
                return poly

    def factors(self) -> list[tuple[Poly2, int]]:
        fs = [self.factor()]
        while True:
            kind, val, line, col = self.peek()
            if kind == "op" and val == "*":
                self.next()
                fs.append(self.factor())
            elif kind in ("int", "name") or (kind == "op" and val == "("):
                raise ParseError(
                    f"unexpected {val!r} (implicit multiplication is not allowed)",
                    line, col)
            else:
                return fs

    def factor(self) -> tuple[Poly2, int]:
        poly = self.base()
        kind, val, _, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, line, col = self.peek()
            if kind != "int":
                raise ParseError("expected a nonnegative integer exponent", line, col)
            self.next()
            return poly, int(val)
        return poly, 1

    def base(self) -> Poly2:
        kind, val, line, col = self.next()
        if kind == "int":
            num = int(val)
            kind2, val2, _, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.next()
                kind3, val3, line3, col3 = self.next()
                if kind3 != "int" or int(val3) == 0:
                    raise ParseError("expected a positive integer denominator",
                                     line3, col3)
                return Poly2.const(Fraction(num, int(val3)))
            return Poly2.const(num)
        if kind == "name":
            if val in ("n", "k"):
                return Poly2.var(val)
            raise ParseError(f"unknown variable {val!r}", line, col)
        if kind == "op" and val == "-":
            return -self.base()
        if kind == "op" and val == "(":
            poly = self.expr()
            kind, val, line, col = self.next()
            if kind != "op" or val != ")":
                raise ParseError("expected ')'", line, col)
            return poly
        raise ParseError(f"expected a value, got {val!r}" if val else "unexpected end",
                         line, col)


def _product(fs: list[tuple[Poly2, int]]) -> Poly2:
    return math.prod((b ** e for b, e in fs[1:]), start=fs[0][0] ** fs[0][1])


def parse_poly(text: str, line: int = 1, col0: int = 1) -> Poly2:
    """Parse an expression string into a Poly2."""
    return _ExprParser(text, line, col0).parse()


def _parse_den(text: str, line: int, col0: int) -> "Poly2 | Product":
    """cert_den as a Product (see the module docstring), else expanded."""
    parser = _ExprParser(text, line, col0)
    fs = parser.factors()
    if parser.peek()[0] == "eof":
        return Product(1, [base for base, power in fs for _ in range(power)])
    return parse_poly(text, line, col0)


# -- identity record -------------------------------------------------------------

@dataclass(frozen=True)
class IdentityFile:
    """Parsed identity record: the engine's summand ``term`` (numerator
    factors first, then denominator factors with negative powers) and closed
    form ``rhs`` (None without ``rhs_base``), beside the record's own fields.
    ``to_identity`` shares term and rhs with the identity it builds."""
    name: str
    kind: str                                   # "wz" | "numeric"
    term: HyperTerm
    rhs: Optional[ClosedForm] = None
    carlson_a: Optional[int] = None
    cert_num: Optional[Poly2] = None
    cert_den: "Optional[Poly2 | Product]" = None
    erratum: bool = False

    @property
    def has_certificate(self) -> bool:
        return self.cert_num is not None

    def to_identity(self) -> WZIdentity:
        cert = None if self.cert_num is None else RatFunc2(self.cert_num, self.cert_den)
        return WZIdentity(name=self.name, term=self.term, rhs=self.rhs, certificate=cert,
                          carlson_a=self.carlson_a, kind=self.kind)


# -- file parsing -----------------------------------------------------------------

_NAME_RE = re.compile(r"[a-z_][a-z0-9_]*\Z")
_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?\Z")


def _split_list(raw: str, line: int) -> list[str]:
    items: list[str] = []
    depth_quote = False
    cur = ""
    for ch in raw:
        if ch == '"':
            depth_quote = not depth_quote
            cur += ch
        elif ch == "," and not depth_quote:
            items.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if depth_quote:
        raise ParseError("unterminated string in list", line, 1)
    tail = cur.strip()
    if tail:
        items.append(tail)
    elif items:
        raise ParseError("trailing comma in list", line, 1)
    return items


def _parse_scalar(raw: str, line: int):
    if raw.startswith('"'):
        if len(raw) < 2 or not raw.endswith('"') or '"' in raw[1:-1]:
            raise ParseError("malformed string literal", line, 1)
        return raw[1:-1]
    if raw in ("true", "false"):
        return raw == "true"
    if _RATIONAL_RE.match(raw):
        return Fraction(raw)
    if _NAME_RE.match(raw):
        return raw
    raise ParseError(f"cannot parse value {raw!r}", line, 1)


def _parse_value(raw: str, line: int):
    raw = raw.strip()
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise ParseError("unterminated list", line, 1)
        return [_parse_scalar(x, line) for x in _split_list(raw[1:-1], line)]
    return _parse_scalar(raw, line)


def _parse_poch_entry(text: str, line: int) -> tuple[Poly2, int]:
    """Split '(EXPR)^POW' (POW a signed integer, default 1) and parse EXPR."""
    text = text.strip()
    power = 1
    m = re.match(r"\((?P<inner>.*)\)\^(?P<pow>-?\d+)\Z", text, re.DOTALL)
    if m:
        inner = m.group("inner")
        power = int(m.group("pow"))
        poly = parse_poly(inner, line)
    else:
        poly = parse_poly(text, line)
    if power == 0:
        raise SemanticError(f"factor {text!r} has zero power", line)
    return poly, power


def _linear_arg(poly: Poly2, entry: str, line: int) -> tuple[int, Rat]:
    if poly.degree("k") > 0:
        raise SemanticError(f"factor argument {entry!r} must not involve k", line)
    if poly.degree("n") > 1:
        raise SemanticError(f"factor argument {entry!r} must be linear in n", line)
    b = poly.coeff(1, 0)
    if b.denominator != 1:
        raise SemanticError(
            f"factor argument {entry!r} needs an integer n coefficient", line)
    return int(b), poly.coeff(0, 0)


_KNOWN_KEYS = {
    "name", "kind", "carlson_a", "z", "p", "fact_pow", "num_poch", "den_poch",
    "rhs_base", "rhs_poch", "prefactor_rational", "prefactor_sqrt",
    "cert_num", "cert_den", "erratum",
}


def parse_identity(text: str) -> IdentityFile:
    """Parse one identity file; raises ParseError / SemanticError."""
    seen_header = False
    raw: dict[str, tuple[object, int]] = {}
    lines = text.splitlines()
    for lineno, rawline in enumerate(lines, start=1):
        stripped = rawline.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped == "[identity]":
            if seen_header:
                raise ParseError("multiple [identity] sections", lineno, 1)
            seen_header = True
            continue
        if not seen_header:
            raise ParseError("expected [identity] header", lineno, 1)
        if "=" not in stripped:
            raise ParseError("expected key = value", lineno, 1)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise SemanticError(f"unknown key {key!r}", lineno)
        if key in raw:
            raise SemanticError(f"duplicate key {key!r}", lineno)
        raw[key] = (_parse_value(value, lineno), lineno)
    if not seen_header:
        raise ParseError("missing [identity] header", 1, 1)

    def take(key: str, default=None):
        return raw.pop(key, (default, 0))

    def need(key: str):
        if key not in raw:
            raise SemanticError(f"missing required key {key!r}")
        return raw.pop(key)

    name, line = need("name")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise SemanticError(f"bad identity name {name!r}", line)
    kind, line = need("kind")
    if kind not in ("wz", "numeric"):
        raise SemanticError(f"kind must be wz or numeric, got {kind!r}", line)
    z, line = need("z")
    if not isinstance(z, Fraction) or z == 0:
        raise SemanticError("z must be a nonzero rational", line)
    p, line = need("p")
    if not isinstance(p, list) or not p or not all(isinstance(c, Fraction) for c in p) \
            or all(c == 0 for c in p):
        raise SemanticError("p must be a nonempty list of rationals, not all zero", line)
    fact_pow, line = need("fact_pow")
    if not isinstance(fact_pow, Fraction) or fact_pow.denominator != 1 or fact_pow < 0:
        raise SemanticError("fact_pow must be a nonnegative integer", line)

    def parse_factor_list(key: str, sign: int) -> tuple[PochFactor, ...]:
        entries, line = take(key, [])
        if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
            raise SemanticError(f"{key} must be a list of quoted factors", line)
        factors = []
        for entry in entries:
            poly, power = _parse_poch_entry(entry, line)
            if power < 0:
                raise SemanticError(
                    f"{key} powers are positive; move the factor to the other list", line)
            b, c = _linear_arg(poly, entry, line)
            if poly.is_zero:
                raise SemanticError(f"zero factor argument in {key}", line)
            factors.append(PochFactor(n_coeff=b, offset=c, power=sign * power))
        return tuple(factors)

    poch = parse_factor_list("num_poch", 1) + parse_factor_list("den_poch", -1)

    carlson_a, line = take("carlson_a")
    if carlson_a is not None:
        if not isinstance(carlson_a, Fraction) or carlson_a.denominator != 1 \
                or carlson_a == 0:
            raise SemanticError("carlson_a must be a nonzero integer", line)
        carlson_a = int(carlson_a)

    rhs_base, line = take("rhs_base")
    if rhs_base is not None and (not isinstance(rhs_base, Fraction) or rhs_base <= 0):
        raise SemanticError("rhs_base must be a positive rational", line)
    rhs_entries, line = take("rhs_poch", [])
    rhs_poch: list[tuple[Rat, int]] = []
    if rhs_entries:
        if rhs_base is None:
            raise SemanticError("rhs_poch without rhs_base", line)
        if not isinstance(rhs_entries, list) \
                or not all(isinstance(e, str) for e in rhs_entries):
            raise SemanticError("rhs_poch must be a list of quoted factors", line)
        for entry in rhs_entries:
            poly, power = _parse_poch_entry(entry, line)
            if poly.degree("n") > 0 or poly.degree("k") > 0:
                raise SemanticError(
                    f"rhs factor argument {entry!r} must be a constant", line)
            rhs_poch.append((poly.coeff(0, 0), power))
    if kind == "wz" and rhs_base is None:
        raise SemanticError("wz identities need rhs_base / rhs_poch")

    pref_rat, line = take("prefactor_rational", Fraction(1))
    if not isinstance(pref_rat, Fraction) or pref_rat == 0:
        raise SemanticError("prefactor_rational must be a nonzero rational", line)
    pref_sqrt, line = take("prefactor_sqrt", Fraction(1))
    if not isinstance(pref_sqrt, Fraction) or pref_sqrt <= 0:
        raise SemanticError("prefactor_sqrt must be a positive rational", line)

    cert_num_s, line_cn = take("cert_num")
    cert_den_s, line_cd = take("cert_den")
    if (cert_num_s is None) != (cert_den_s is None):
        raise SemanticError("cert_num and cert_den must appear together",
                            line_cn or line_cd)
    cert_num = cert_den = None
    if cert_num_s is not None:
        if not isinstance(cert_num_s, str) or not isinstance(cert_den_s, str):
            raise SemanticError("certificate parts must be quoted expressions",
                                line_cn)
        # columns count from the line: the first one inside the quotes is col0
        cert_num = parse_poly(cert_num_s, line_cn, lines[line_cn - 1].index('"') + 2)
        cert_den = _parse_den(cert_den_s, line_cd, lines[line_cd - 1].index('"') + 2)
        if cert_den.is_zero:
            raise SemanticError("cert_den is the zero polynomial", line_cd)

    erratum, line = take("erratum", False)
    if not isinstance(erratum, bool):
        raise SemanticError("erratum must be true or false", line)

    if raw:
        leftover = sorted(raw)[0]
        raise SemanticError(f"unhandled key {leftover!r}", raw[leftover][1])

    term = HyperTerm(poch=poch, fact_pow=int(fact_pow), z=z, p=tuple(p),
                     prefactor_rational=pref_rat, prefactor_sqrt=pref_sqrt)
    rhs = None if rhs_base is None else ClosedForm(rhs_base, rhs_poch)
    return IdentityFile(
        name=name, kind=kind, term=term, rhs=rhs, carlson_a=carlson_a,
        cert_num=cert_num, cert_den=cert_den, erratum=erratum)


# -- canonical serialization -------------------------------------------------------

def _fmt_linear(b: int, c: Rat) -> str:
    if b == 0:
        return str(c)
    head = {1: "n", -1: "-n"}.get(b, f"{b}*n")
    return f"{head}{'+' if c > 0 else '-'}{abs(c)}" if c else head


def _fmt_den(den: "Poly2 | Product") -> str:
    """A Product as its scale and keys, which parse back to the same, else expanded."""
    if not isinstance(den, Product):
        return str(den)
    parts = [str(den.scale)] * (den.scale != 1) + [
        f"({Poly2.linear(g[1], g[0], g[2]) if type(g) is tuple else g})" + f"^{e}" * (e > 1)
        for g, e in Counter(den.factors).items()]
    return "*".join(parts) or "1"


def serialize_identity(rec: IdentityFile) -> str:
    """Canonical text form: alphabetical keys, graded-lex polynomials,
    defaults omitted.  A fixed point of parse-then-serialize."""
    t = rec.term
    rows: list[tuple[str, str]] = [
        ("name", rec.name),
        ("kind", rec.kind),
        ("z", str(t.z)),
        ("p", "[" + ", ".join(str(c) for c in t.p) + "]"),
        ("fact_pow", str(t.fact_pow)),
    ]
    for key, sign in (("num_poch", 1), ("den_poch", -1)):
        if fs := [f'"({_fmt_linear(f.n_coeff, f.offset)})^{abs(f.power)}"'
                  for f in t.poch if f.power * sign > 0]:
            rows.append((key, "[" + ", ".join(fs) + "]"))
    if rec.carlson_a is not None:
        rows.append(("carlson_a", str(rec.carlson_a)))
    if rec.rhs is not None:
        rows.append(("rhs_base", str(rec.rhs.base)))
        rows.append(("rhs_poch", "[" + ", ".join(
            f'"({arg})^{e}"' for (arg, e) in rec.rhs.poch_n) + "]"))
    if t.prefactor_rational != 1:
        rows.append(("prefactor_rational", str(t.prefactor_rational)))
    if t.prefactor_sqrt != 1:
        rows.append(("prefactor_sqrt", str(t.prefactor_sqrt)))
    if rec.cert_num is not None:
        rows.append(("cert_num", f'"{rec.cert_num}"'))
        rows.append(("cert_den", f'"{_fmt_den(rec.cert_den)}"'))
    if rec.erratum:
        rows.append(("erratum", "true"))
    body = "\n".join(f"{k} = {v}" for k, v in sorted(rows))
    return f"[identity]\n{body}\n"


# -- builtins ----------------------------------------------------------------------

BUILTIN_NAMES = ("ramanujan", "zeilberger") \
    + tuple(f"theorem{i}" for i in range(1, 12)) + ("r1103",)

_RECORD_CACHE: dict[str, IdentityFile] = {}


def builtin_record(name: str) -> IdentityFile:
    if name not in BUILTIN_NAMES:
        raise UnknownIdentity(name)
    if name not in _RECORD_CACHE:
        path = resources.files(__package__).joinpath("data", f"{name}.identity")
        _RECORD_CACHE[name] = parse_identity(path.read_text())
    return _RECORD_CACHE[name]


def load_builtin(name: str) -> WZIdentity:
    return builtin_record(name).to_identity()


def load_identity_file(path: str) -> IdentityFile:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_identity(fh.read())
