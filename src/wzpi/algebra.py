"""Exact arithmetic in Q[n, k], and quotients of two such polynomials.

A bivariate polynomial is stored sparsely as a dict mapping exponent pairs
``(i, j)`` (power of n, power of k) to nonzero int coefficients, over one
positive int denominator, in lowest terms: the gcd of the denominator and
every coefficient is 1.  That form is canonical, so equality and hashing
compare the stored pair.  A certificate is a ``RatFunc2``: a numerator and a
denominator kept exactly as constructed (no gcd cancellation), with no
arithmetic; equality is decided by cross-multiplication, which is sound and
complete over an integral domain.  Its denominator may be a ``Product``, as
records print it; ``den`` expands it if read.  ``Product`` is the one place
where a factored denominator is made canonical.  Its invariant: each factor
is a key (``factor_key``), a primitive triple or a primitive nonconstant
Poly2 (in a WZ residual also a key at k + 1, ``KShifted``), and every
content and constant is folded into its one scale.

All scalars are ``fractions.Fraction`` (aliased ``Rat``): arbitrary precision,
normalized sign, always in lowest terms.  Polynomial arithmetic runs on
Python ints and ends with one gcd that brings the result to lowest terms.  A
product with a few-term operand is formed term by term.  ``sum_of_products``
expands a whole sum of products of factors (Poly2s, int triples (e, a, c)
for e*k + a*n + c, or a Poly2 at k + 1), such as the WZ residual, Gosper's
confirmation or a product of two larger Poly2s, into one int by Kronecker
substitution, with slots that hold a proven bound, so an int of 0 is the
zero polynomial.  A triple or a Poly2 of at most three terms goes in by
shift-and-add; one packer, ``_pack``, puts any other Poly2 in by Horner's rule
at k = 2^s + delta (delta = 1 at k + 1), n = 2^(s*w).  One evaluator,
``row``, puts a rational for one variable in ints; ``eval``, ``eval_k`` and
the zero tests of ``terms.split_factors`` and ``wz.verify_certificate`` read
it.  ``gcd_n``, the assembly's gcd in Q[n] by a primitive pseudo-remainder
sequence, reads k-columns straight off the ints.
A Fraction is built only for a value handed back: ``eval``, ``eval_k``,
``coeff`` and the read-only ``terms`` mapping.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rat = Fraction
Scalar = Union[Rat, int]
# on the residual's and synthesis's operands a product is faster term by term
# up to about 9 terms in one operand, and by Kronecker packing from about 11
SCHOOLBOOK_TERMS = 8


class DivisionByZeroFunction(ZeroDivisionError):
    """Raised when a rational function would be built with a zero denominator."""


class Poly2:
    """Sparse polynomial in the two variables n and k over Q.

    ``ints`` maps (i, j) to the nonzero int coefficient of n^i k^j times
    ``den``, the least positive common denominator.  Instances are treated
    as immutable; every operation returns a fresh Poly2.
    """

    __slots__ = ("ints", "den")

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        fracs = {(int(i), int(j)): Fraction(c) for (i, j), c in (terms or {}).items()}
        den = math.lcm(*(c.denominator for c in fracs.values()))
        self.ints = {e: c.numerator * (den // c.denominator)
                     for e, c in fracs.items() if c}
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c: Scalar) -> "Poly2":
        return cls({(0, 0): c})

    @classmethod
    def var(cls, name: str) -> "Poly2":
        if name == "n":
            return cls({(1, 0): 1})
        if name == "k":
            return cls({(0, 1): 1})
        raise ValueError(f"unknown variable {name!r}")

    @classmethod
    def linear(cls, n_coeff: Scalar, k_coeff: Scalar, const: Scalar) -> "Poly2":
        """n_coeff*n + k_coeff*k + const."""
        return cls({(1, 0): n_coeff, (0, 1): k_coeff, (0, 0): const})

    # -- basic queries ------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], Rat]:
        """The nonzero coefficients as Fractions, built on each read."""
        return {e: Fraction(c, self.den) for e, c in self.ints.items()}

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def degree(self, var: str) -> int:
        """Degree in ``var`` ('n' or 'k'); the zero polynomial has degree -1."""
        if not self.ints:
            return -1
        pos = 0 if var == "n" else 1
        return max(e[pos] for e in self.ints)

    def coeff(self, i: int, j: int) -> Rat:
        return Fraction(self.ints.get((i, j), 0), self.den)

    def k_coeff(self, j: int) -> "Poly2":
        """The coefficient of k^j, a polynomial in n."""
        return _lowest({(i, 0): c for (i, m), c in self.ints.items() if m == j}, self.den)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly2 | Scalar") -> "Poly2":
        other = _coerce(other)
        if not other.ints:
            return self
        if not self.ints:
            return other
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        ints = {e: c * sa for e, c in self.ints.items()}
        for e, c in other.ints.items():
            ints[e] = ints.get(e, 0) + c * sb
        return _lowest(ints, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return _lowest({e: -c for e, c in self.ints.items()}, self.den)

    def __sub__(self, other: "Poly2 | Scalar") -> "Poly2":
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "Poly2":
        return _coerce(other) - self

    def __mul__(self, other: "Poly2 | Scalar") -> "Poly2":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return _lowest({e: a * c.numerator for e, a in self.ints.items()},
                           self.den * c.denominator)
        if not self.ints or not other.ints:
            return Poly2()
        a, b = self.ints, other.ints
        a, b = (a, b) if len(a) >= len(b) else (b, a)
        if len(b) <= SCHOOLBOOK_TERMS:  # term by term, b the shorter operand
            ((i0, j0), c0), *rest = b.items()
            ints = {(i + i0, j + j0): c * c0 for (i, j), c in a.items()}
            for (i0, j0), c0 in rest:
                for (i, j), c in a.items():
                    e = (i + i0, j + j0)
                    ints[e] = ints.get(e, 0) + c * c0
            return _lowest(ints, self.den * other.den)
        return sum_of_products([(1, (self, other))])  # both packed, one bigint multiply

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "Poly2":
        if m < 0:
            raise ValueError("negative power of a polynomial")
        out = None
        base = self
        while m:
            if m & 1:
                out = base if out is None else out * base
            base = base * base if m > 1 else base
            m >>= 1
        return Poly2.const(1) if out is None else out

    def divide(self, f: "Poly2") -> "Poly2 | None":
        """self / f when f divides self in Q[n, k], else None: long division
        in k, or in n when the leading coefficient of f in k is not a
        constant; in that variable it must be.  It runs on the ints, scaling
        the remainder where c, the leading int of f, does not divide a column.
        The remainder is kept by column (power of the division variable), so
        eliminating a column reads only that column."""
        for var, pos in (("k", 1), ("n", 0)):
            m = f.degree(var)
            lead = [e for e in f.ints if e[pos] == m]
            if lead == [(0, m) if pos else (m, 0)]:
                break
        else:
            raise ValueError(f"{f} has no constant leading coefficient in k or n")
        c = f.ints[lead[0]]
        # f's terms below the lead as (power of var, power of the other, int)
        tail = [(e[pos], e[1 - pos], v) for e, v in f.ints.items() if e[pos] < m]
        rest: dict[int, dict[int, int]] = {}
        for e, v in self.ints.items():
            rest.setdefault(e[pos], {})[e[1 - pos]] = v
        quo, scale = {}, 1
        for top in range(self.degree(var), m - 1, -1):
            col = {o: v for o, v in rest.pop(top, {}).items() if v}
            if not col:
                continue
            s = abs(c) // math.gcd(c, *col.values())
            if s > 1:
                rest = {t: {o: v * s for o, v in row.items()} for t, row in rest.items()}
                col = {o: v * s for o, v in col.items()}
                quo = {e: v * s for e, v in quo.items()}
                scale *= s
            for o, v in col.items():
                quo[(o, top - m) if pos else (top - m, o)] = t = v // c
                for fp, fo, fc in tail:
                    row = rest.setdefault(top - m + fp, {})
                    row[o + fo] = row.get(o + fo, 0) - t * fc
        if any(v for row in rest.values() for v in row.values()):
            return None
        return _lowest({e: v * f.den for e, v in quo.items()}, self.den * scale)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.den == other.den and self.ints == other.ints

    def __hash__(self) -> int:
        return hash((self.den, frozenset(self.ints.items())))

    # -- evaluation and substitution -----------------------------------------

    def row(self, var: str, value: Scalar) -> tuple[list[int], int]:
        """The polynomial at var = value = a/b, a polynomial in the other
        variable w, as (ints, den): ints[-1 - j], highest power first, is
        the int coefficient of w^j over den.  A term c*v^i*w^j adds
        c*a^i*b^(top-i) to w^j, over self.den*b^top, top the degree in var."""
        pos = ("n", "k").index(var)
        if not self.ints:
            return [], self.den
        a, b = value.numerator, value.denominator
        degrees = tuple(map(max, zip(*self.ints)))  # in n and in k
        top, out = degrees[pos], [0] * (degrees[1 - pos] + 1)
        for e, c in self.ints.items():
            out[-1 - e[1 - pos]] += c * a ** e[pos] * b ** (top - e[pos])
        return out, self.den * b ** top

    def eval(self, n: Scalar, k: Scalar) -> Rat:
        """Value at a rational point (n, k), k = c/d: Horner's rule at c/d
        on ``row("n", n)``, over its den times d^dk, dk the degree in k."""
        row, den = self.row("n", n)
        return Fraction(_horner(row, k.numerator, k.denominator),
                        den * k.denominator ** max(len(row) - 1, 0))

    def eval_k(self, k: Scalar) -> list[Rat]:
        """Substitute a rational for k: the coefficients of n^0..n^deg of
        ``row("k", k)``, the last nonzero."""
        row, den = self.row("k", k)
        return [Fraction(c, den) for c in _istrip(row[::-1])]

    def shift(self, var: str, delta: Scalar) -> "Poly2":
        """Substitute var -> var + delta for delta = a/b, in ints: c*v^m
        becomes c * sum_t binom(m, t) v^t a^(m-t) b^(top-m+t) over den*b^top,
        where top is the degree in var."""
        if var not in ("n", "k"):
            raise ValueError(f"unknown variable {var!r}")
        delta = Fraction(delta)
        top = self.degree(var)
        if not delta or top <= 0:
            return self
        pos = 0 if var == "n" else 1
        a, b = delta.numerator, delta.denominator
        apow = [a ** t for t in range(top + 1)]
        bpow = [b ** t for t in range(top + 1)]
        # rows[m][t]: the int that c*v^m contributes to v^t, over c
        rows = [[math.comb(m, t) * apow[m - t] * bpow[top - m + t] for t in range(m + 1)]
                for m in range(top + 1)]
        ints: dict[tuple[int, int], int] = {}
        for (i, j), c in self.ints.items():
            m = (i, j)[pos]
            for t, w in enumerate(rows[m]):
                e = (t, j) if pos == 0 else (i, t)
                ints[e] = ints.get(e, 0) + c * w
        return _lowest(ints, self.den * bpow[top])

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        """Canonical text form: graded-lex monomial order (n before k),
        explicit ``*`` everywhere, explicit numeric coefficient whenever the
        sign is negative (the grammar's unary minus binds tighter than ^)."""
        if not self.ints:
            return "0"
        keys = sorted(self.ints, key=lambda e: (-(e[0] + e[1]), -e[0]))
        parts: list[str] = []
        for idx, e in enumerate(keys):
            c = Fraction(self.ints[e], self.den)
            i, j = e
            mono: list[str] = []
            if i:
                mono.append("n" if i == 1 else f"n^{i}")
            if j:
                mono.append("k" if j == 1 else f"k^{j}")
            mag = abs(c)
            if not mono or mag != 1 or (idx == 0 and c < 0):
                mono.insert(0, str(mag))
            body = "*".join(mono)
            sign = "" if (idx == 0 and c > 0) else ("+" if c > 0 else "-")
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly2({str(self)})"


def _lowest(ints: dict[tuple[int, int], int], den: int) -> Poly2:
    """The Poly2 ints/den: zero coefficients dropped, then divided by
    gcd(den, *ints)."""
    ints = {e: c for e, c in ints.items() if c}
    g = math.gcd(den, *ints.values())
    out = Poly2.__new__(Poly2)
    out.ints = {e: c // g for e, c in ints.items()} if g > 1 else ints
    out.den = den // g
    return out


def _horner(row: Sequence[int], u: int, v: int) -> int:
    """v^(len(row) - 1) times the polynomial with coefficients ``row``,
    highest power first, at u/v: Horner's rule in ints."""
    val, vp = 0, 1
    for x in row:
        val, vp = val * u + x * vp, vp * v
    return val


def _unpack(packed: int, width: int, size: int, slots: int) -> dict[tuple[int, int], int]:
    """The nonzero coefficients of a packed int whose slots of ``size``
    bytes each hold a coefficient c with |c| < 2^(8*size - 1): slot
    e = i*width + j holds that of n^i k^j.  Adding 2^(8*size - 1) to every
    slot makes each one hold c + 2^(8*size - 1) in [0, 2^(8*size)), so the
    slots are read apart with no borrow."""
    half = 1 << (8 * size - 1)
    zero = half.to_bytes(size, "little")
    raw = (packed + int.from_bytes(zero * slots, "little")).to_bytes(slots * size, "little")
    ints: dict[tuple[int, int], int] = {}
    for e in range(slots):
        chunk = raw[e * size:(e + 1) * size]
        if chunk != zero:
            ints[divmod(e, width)] = int.from_bytes(chunk, "little") - half
    return ints


class KShifted(tuple):
    """(A,), the Poly2 A at k + 1 unexpanded: a factor of ``sum_of_products``
    and a key of a factored denominator that equals no triple and no Poly2."""

    __slots__ = ()

    def __new__(cls, poly: Poly2) -> "KShifted":
        return super().__new__(cls, (poly,))


def _pack(ints: dict[tuple[int, int], int], width: int, bits: int, delta: int) -> int:
    """The Poly2 with ``ints`` at k = 2^bits + delta, n = 2^(bits*width), delta 1 for a
    ``KShifted``: Horner's rule by shift-and-add on each n-row, the highest first."""
    dn, dk = map(max, zip(*ints))
    rows = [[0] * (dk + 1) for _ in range(dn + 1)]
    for (i, j), c in ints.items():
        rows[dn - i][dk - j] = c
    x = 0
    for row in rows:
        v = 0
        for c in row:
            v = (v << bits) + v * delta + c
        x = (x << bits * width) + v
    return x


def sum_of_products(terms: Iterable[tuple[Scalar, Sequence["Poly2 | Triple | KShifted"]]]) \
        -> Poly2:
    """The sum of scale * prod(factors) over the (scale, factors) pairs,
    expanded as one int.  A factor is a Poly2, an int triple (e, a, c) for
    e*k + a*n + c, or a ``KShifted`` A for A(n, k + 1).

    Over the common denominator D of the terms, each term is an int m times
    the product of its factors' ints.  Every term is evaluated at
    k -> 2^s, n -> 2^(s*w), where w exceeds the k-degree of every term's
    product, so n^i k^j has a slot of s bits of its own at i*w + j.  Since
    |f*g|_inf <= |f|_inf * |g|_1 (each coefficient of f*g sums products
    f_a g_b, one for each term b of g), no coefficient of the sum exceeds
    sum |m| * |f_1|_inf * prod_{i>=2} |f_i|_1 over the terms, and s is
    chosen in bytes with one bit above that bound for the sign.  A triple's
    norms are read off its three ints.  A(n, k + 1) = sum c_ij n^i (k + 1)^j,
    and (k + 1)^j has coefficients binom(j, t) that sum to 2^j, so
    |A(n, k + 1)|_1 <= sum |c_ij| 2^j, which stands for both its norms.  A
    triple, or a Poly2 of at most three terms, goes in by shift-and-add from
    its ints; one packer, ``_pack``, puts any other Poly2 A in by Horner's
    rule on its ints at 2^s + delta, delta = 0 for A and 1 for A(n, k + 1),
    and each packed int is multiplied in once.  Distinct polynomials then
    give distinct ints, so an int of 0 is the zero polynomial and is not
    decoded; any other int is decoded once.  A zero scale or a zero factor
    drops its term, and an empty factor list is the constant scale.
    """
    live = []  # (scale, factors, k-degree, n-degree, denominator, norm product)
    for scale, fs in terms:
        if not scale:
            continue
        dk = dn = 0
        d, norm, top = scale.denominator, 1, (0, 1, 1)  # top: (terms, |f|_inf, |f|_1)
        for f in fs:
            if type(f) is tuple:
                e, a, c = map(abs, f)
                if not (e or a or c):
                    break
                dk, dn, count = dk + (e > 0), dn + (a > 0), (e > 0) + (a > 0) + (c > 0)
                inf, l1 = max(e, a, c), e + a + c
            else:
                g = f[0] if type(f) is KShifted else f
                if not g.ints:
                    break
                fn, fk = map(max, zip(*g.ints))
                dk, dn, d, count = dk + fk, dn + fn, d * g.den, len(g.ints)
                vals = [abs(c) << j * (g is not f) for (_, j), c in g.ints.items()]
                inf, l1 = max(vals) if g is f else sum(vals), sum(vals)
            norm *= l1
            if count > top[0]:
                top = count, inf, l1
        else:  # |f_1|_inf taken on the factor with the most terms
            live.append((scale, fs, dk, dn, d, norm // top[2] * top[1]))
    if not live:
        return Poly2()
    den = math.lcm(*(d for *_, d, _ in live))
    width = 1 + max(dk for _, _, dk, *_ in live)
    bound = sum(abs(scale.numerator) * (den // d) * norm for scale, *_, d, norm in live)
    size = bound.bit_length() // 8 + 1
    bits = 8 * size
    nbits = bits * width
    total = 0
    for scale, fs, *_, d, _ in live:
        x, packed = scale.numerator * (den // d), []
        for f in fs:
            if type(f) is tuple:
                e, a, c = f
                x = (e * x << bits) + (a * x << nbits) + c * x
            elif type(f) is KShifted:
                packed.append(_pack(f[0].ints, width, bits, 1))
            elif len(f.ints) <= 3:
                x = sum(c * x << i * nbits + j * bits for (i, j), c in f.ints.items())
            else:
                packed.append(_pack(f.ints, width, bits, 0))
        for y in packed:
            x *= y
        total += x
    if not total:
        return Poly2()
    slots = (1 + max(dn for _, _, _, dn, *_ in live)) * width
    return _lowest(_unpack(total, width, size, slots), den)


def _coerce(x: "Poly2 | Scalar") -> Poly2:
    return x if isinstance(x, Poly2) else Poly2.const(x)


# -- gcds in Q[n] on ints (primitive pseudo-remainder sequence) -------------------

def _istrip(c: list[int]) -> list[int]:
    while c and not c[-1]:
        c.pop()
    return c


def _iprem(u: list[int], v: list[int]) -> list[int]:
    """Pseudo-remainder of u by v: some lc(v)^s * u reduced mod v."""
    u = list(u)
    n = len(v) - 1
    lcv = v[-1]
    while len(u) - 1 >= n and u:
        d = len(u) - 1 - n
        lcu = u[-1]
        u = [c * lcv for c in u]
        for i, vc in enumerate(v):
            u[i + d] -= lcu * vc
        _istrip(u)
    return u


def _iprimitive(c: Sequence[int]) -> list[int]:
    c = _istrip(list(c))
    g = math.gcd(*c) if c and c[-1] > 0 else -math.gcd(*c)
    return [x // g for x in c]


def _igcd_poly(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two integer polynomials (lc > 0), as ascending
    coefficient lists; the primitive parts keep the remainders small."""
    a = _iprimitive(a)
    b = _iprimitive(b)
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _iprimitive(_iprem(a, b))
        a, b = b, r
    return _iprimitive(a)


def gcd_n(polys: Iterable[Poly2]) -> Poly2:
    """The gcd over Q[n] of the k-columns of every input, primitive: int
    coefficients with content 1 and a positive leading one.  It is zero when
    every input is, and it reads no input after the gcd reaches 1.  A
    denominator is a unit of Q[n], so each column enters as its ints."""
    g: list[int] = []
    for f in polys:
        cols: dict[int, list[int]] = {}
        top = f.degree("n") + 1
        for (i, j), c in f.ints.items():
            cols.setdefault(j, [0] * top)[i] = c
        for col in cols.values():
            if (g := _igcd_poly(g, col)) == [1]:
                return _lowest({(0, 0): 1}, 1)
    return _lowest({(i, 0): c for i, c in enumerate(g)}, 1)


# -- factored denominators: a linear factor e*k + a*n + c is its primitive int
# triple (e, a, c), content 1 and the first nonzero of (e, a) positive

Triple = tuple  # (e, a, c) for e*k + a*n + c
_LINEAR = frozenset({(0, 0), (1, 0), (0, 1)})  # the exponents of e*k + a*n + c


def _scaled(e: int, a: int, c: int, d: int) -> "tuple[Triple, int, int]":
    """(e*k + a*n + c)/d, (e, a) not both 0, as (triple, m, d)."""
    m = math.gcd(e, a, c)
    if e < 0 or not e and a < 0:
        m = -m
    return (e // m, a // m, c // m), m, d


def factor_key(f: "Poly2 | Triple") -> "tuple[Triple | Poly2 | None, int, int]":
    """f, a Poly2 or a triple, as (key, m, d) with f = m*key/d: the
    primitive triple of a linear f; for any other nonconstant f the Poly2
    over 1 with int content 1 and a positive leading int (highest in k, then
    in n), which a k-shift keeps as it is; and None for a constant f = m/d."""
    if type(f) is tuple:
        return (None, f[2], 1) if not (f[0] or f[1]) else _scaled(*f, 1)
    ints = f.ints
    if ints.keys() <= {(0, 0)}:
        return None, ints.get((0, 0), 0), f.den
    if _LINEAR.issuperset(ints):
        return _scaled(ints.get((0, 1), 0), ints.get((1, 0), 0), ints.get((0, 0), 0), f.den)
    m = math.gcd(*ints.values())
    if ints[max(ints, key=lambda e: (e[1], e[0]))] < 0:
        m = -m
    return _lowest({e: c // m for e, c in ints.items()}, 1), m, f.den


class Product:
    """scale * prod(factors) unexpanded and canonical: each factor given, a
    Poly2 or a triple, is stored as its key (``factor_key``), and every
    content and constant is folded into ``scale``, on an int pair with one
    Fraction at the end.  It compares, hashes and prints as its expansion."""

    __slots__ = ("scale", "factors")

    def __init__(self, scale: Scalar, factors: Iterable["Poly2 | Triple"]):
        x, y, keys = scale.numerator, scale.denominator, []
        for key, m, d in map(factor_key, factors):
            x, y = x * m, y * d
            keys += [] if key is None else [key]
        self.scale, self.factors = Fraction(x, y), tuple(keys)

    @classmethod
    def _keyed(cls, scale: Rat, keys: Iterable["Triple | Poly2 | KShifted"]) -> "Product":
        """scale * prod(keys), keys given as keys: none is keyed again."""
        out = cls.__new__(cls)
        out.scale, out.factors = scale, tuple(keys)
        return out

    @property
    def is_zero(self) -> bool:
        return not self.scale

    def expand(self) -> Poly2:
        return sum_of_products([(self.scale, self.factors)])

    def __eq__(self, other: object) -> bool:
        return self.expand() == (other.expand() if isinstance(other, Product) else other)

    def __hash__(self) -> int:
        return hash(self.expand())

    def __str__(self) -> str:
        return str(self.expand())


class RatFunc2:
    """Unreduced quotient of two Poly2: a certificate as printed or as
    synthesized.  A denominator given as a ``Product`` is kept as ``product``
    and expanded into ``den`` when den is first read (else product is None).
    Equality is by cross-multiplication, so it is unhashable; no arithmetic."""

    __slots__ = ("num", "product", "_den")

    def __init__(self, num: Poly2 | Scalar, den: Poly2 | Product | Scalar = 1):
        self.num = _coerce(num)
        self.product = den if isinstance(den, Product) else None
        self._den = None if self.product is not None else _coerce(den)
        if (self.product or self._den).is_zero:
            raise DivisionByZeroFunction("zero denominator polynomial")

    @property
    def den(self) -> Poly2:
        if self._den is None:
            self._den = self.product.expand()
        return self._den

    def __eq__(self, other: object) -> bool:
        """True iff the two quotients agree as rational functions."""
        if not isinstance(other, RatFunc2):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __str__(self) -> str:
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc2({self})"
