"""Exact arithmetic in Q[n, k], and quotients of two such polynomials.

A bivariate polynomial is stored sparsely as a dict mapping exponent pairs
``(i, j)`` (power of n, power of k) to nonzero int coefficients, over one
positive int denominator, in lowest terms: the gcd of the denominator and
every coefficient is 1.  That form is canonical, so equality and hashing
compare the stored pair.  A certificate is a ``RatFunc2``: a numerator and a
denominator kept exactly as constructed (no gcd cancellation), with no
arithmetic; equality is decided by cross-multiplication, which is sound and
complete over an integral domain.

All scalars are ``fractions.Fraction`` (aliased ``Rat``): arbitrary precision,
normalized sign, always in lowest terms.  Polynomial arithmetic runs on
Python ints and ends with one gcd that brings the result to lowest terms.  A
product with a linear factor or another few-term operand is formed term by
term; any other packs both integer coefficient sets into one int each by
Kronecker substitution (k -> x, n -> x^w, x -> 2^s, where w exceeds the
product's degree in k and the s-bit slots hold any signed coefficient), does
one bigint multiply and unpacks the slots with borrow.  A Fraction is
built only for a value handed back: ``eval``, ``eval_k``, ``coeff`` and
the read-only ``terms`` mapping.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union

Rat = Fraction
Scalar = Union[Rat, int]
# on the residual's and synthesis's operands a product is faster term by term
# up to about 9 terms in one operand, and by Kronecker packing from about 11
SCHOOLBOOK_TERMS = 8


class DivisionByZeroFunction(ZeroDivisionError):
    """Raised when a rational function would be built with a zero denominator."""


def _binomial_row(m: int) -> list[int]:
    row = [1]
    for _ in range(m):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


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
        """n_coeff*n + k_coeff*k + const, built on the ints: an int or a
        Fraction in lowest terms reads as numerator/denominator, so over the
        lcm of the denominators the pair is already in lowest terms."""
        terms = (((1, 0), n_coeff), ((0, 1), k_coeff), ((0, 0), const))
        den = math.lcm(n_coeff.denominator, k_coeff.denominator, const.denominator)
        out = cls.__new__(cls)
        out.ints = {e: c.numerator * (den // c.denominator) for e, c in terms if c}
        out.den = den
        return out

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
        # slot (i, j) of the product sits at i*width + j; each coefficient is a
        # sum of at most min(len(a), len(b)) products, so it fits in ``size``
        # bytes with the top bit left for the sign
        width = self.degree("k") + other.degree("k") + 1
        size = (max(map(abs, a.values())).bit_length()
                + max(map(abs, b.values())).bit_length()
                + min(len(a), len(b)).bit_length()) // 8 + 1
        slots = (max(a)[0] + max(b)[0] + 1) * width         # max(a)[0]: degree in n
        packed = (_pack(a, width, size) * _pack(b, width, size)).to_bytes(
            slots * size, "little", signed=True)
        half = 1 << (8 * size - 1)
        ints: dict[tuple[int, int], int] = {}
        blank = bytes(size)
        borrow = 0
        for e in range(slots):
            chunk = packed[e * size:(e + 1) * size]
            if chunk == blank and not borrow:
                continue
            c = int.from_bytes(chunk, "little") + borrow
            borrow = c >= half
            if borrow:
                c -= half << 1
            if c:
                ints[divmod(e, width)] = c
        return _lowest(ints, self.den * other.den)

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

    def eval(self, n: Scalar, k: Scalar) -> Rat:
        """Value at a rational point (n, k) = (a/b, c/d): the ints
        C_ij a^i b^(dn-i) c^j d^(dk-j) summed over den b^dn d^dk, where C are
        the stored ints and dn, dk are the degrees."""
        if not self.ints:
            return Fraction(0)
        n = Fraction(n)
        k = Fraction(k)
        dn = self.degree("n")
        dk = self.degree("k")
        npow = [n.numerator ** i * n.denominator ** (dn - i) for i in range(dn + 1)]
        kpow = [k.numerator ** j * k.denominator ** (dk - j) for j in range(dk + 1)]
        total = 0
        for (i, j), c in self.ints.items():
            total += c * npow[i] * kpow[j]
        return Fraction(total, self.den * n.denominator ** dn * k.denominator ** dk)

    def eval_k(self, k: Scalar) -> list[Rat]:
        """Substitute a rational for k; coefficients of n^0..n^deg remain."""
        k = Fraction(k)
        dk = self.degree("k")
        kpow = [k.numerator ** j * k.denominator ** (dk - j) for j in range(dk + 1)]
        out = [0] * (self.degree("n") + 1)
        for (i, j), c in self.ints.items():
            out[i] += c * kpow[j]
        while out and not out[-1]:
            out.pop()
        den = self.den * k.denominator ** dk
        return [Fraction(c, den) for c in out]

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
        rows = [_binomial_row(m) for m in range(top + 1)]
        ints: dict[tuple[int, int], int] = {}
        for (i, j), c in self.ints.items():
            m = (i, j)[pos]
            for t, binom in enumerate(rows[m]):
                e = (t, j) if pos == 0 else (i, t)
                ints[e] = ints.get(e, 0) + c * binom * apow[m - t] * bpow[top - m + t]
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


def _pack(coeffs: dict[tuple[int, int], int], width: int, size: int) -> int:
    """Sum of c * 2^(8*size*(i*width + j)): positive and negative
    coefficients go into two byte strings, one slot of ``size`` bytes each."""
    slots = (max(coeffs)[0] + 1) * width
    pos = bytearray(slots * size)
    neg = bytearray(slots * size)
    for (i, j), c in coeffs.items():
        at = (i * width + j) * size
        if c > 0:
            pos[at:at + size] = c.to_bytes(size, "little")
        else:
            neg[at:at + size] = (-c).to_bytes(size, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _coerce(x: "Poly2 | Scalar") -> Poly2:
    if isinstance(x, Poly2):
        return x
    return Poly2.const(x)


class RatFunc2:
    """Unreduced quotient of two Poly2: a certificate as printed or as
    synthesized.  Equality is decided by cross-multiplication, so instances
    are unhashable; there is no arithmetic."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly2 | Scalar, den: Poly2 | Scalar = 1):
        num = _coerce(num)
        den = _coerce(den)
        if den.is_zero:
            raise DivisionByZeroFunction("zero denominator polynomial")
        self.num = num
        self.den = den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other: object) -> bool:
        """True iff the two quotients agree as rational functions."""
        if not isinstance(other, RatFunc2):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __str__(self) -> str:
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc2({self})"
