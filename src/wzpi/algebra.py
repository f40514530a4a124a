"""Exact arithmetic in Q[n, k] and Q(n, k).

A bivariate polynomial is stored sparsely as a dict mapping exponent pairs
``(i, j)`` (power of n, power of k) to nonzero ``Fraction`` coefficients.
Rational functions keep their numerator/denominator exactly as constructed
(no gcd cancellation); equality is decided by cross-multiplication, which is
sound and complete over an integral domain.

All scalars are ``fractions.Fraction`` (aliased ``Rat``): arbitrary precision,
normalized sign, always in lowest terms.  The two hot operations run on
Python ints instead.  A product clears each operand's denominators, packs the
integer coefficients into one int by Kronecker substitution (k -> x,
n -> x^w, x -> 2^s, where w exceeds the product's degree in k and the s-bit
slots hold any signed coefficient of the product), does one bigint multiply
and unpacks the slots with borrow; only the final coefficients become
Fractions.  ``eval`` clears the denominators of the coefficients and of the
point, sums in ints and builds one Fraction.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Mapping, Union

Rat = Fraction
Scalar = Union[Rat, int]


class DivisionByZeroFunction(ZeroDivisionError):
    """Raised when a rational function would be built with a zero denominator."""


def _binomial_row(m: int) -> list[int]:
    row = [1]
    for _ in range(m):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


class Poly2:
    """Sparse polynomial in the two variables n and k over Q.

    Instances are treated as immutable; every operation returns a fresh Poly2.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        clean: dict[tuple[int, int], Rat] = {}
        if terms:
            for (i, j), c in terms.items():
                c = Fraction(c)
                if c:
                    clean[(int(i), int(j))] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c: Scalar) -> "Poly2":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def var(cls, name: str) -> "Poly2":
        if name == "n":
            return cls({(1, 0): Fraction(1)})
        if name == "k":
            return cls({(0, 1): Fraction(1)})
        raise ValueError(f"unknown variable {name!r}")

    @classmethod
    def linear(cls, n_coeff: Scalar, k_coeff: Scalar, const: Scalar) -> "Poly2":
        return cls({(1, 0): Fraction(n_coeff), (0, 1): Fraction(k_coeff),
                    (0, 0): Fraction(const)})

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, var: str) -> int:
        """Degree in ``var`` ('n' or 'k'); the zero polynomial has degree -1."""
        if not self.terms:
            return -1
        pos = 0 if var == "n" else 1
        return max(e[pos] for e in self.terms)

    def coeff(self, i: int, j: int) -> Rat:
        return self.terms.get((i, j), Fraction(0))

    def coeffs_in_k(self) -> list[dict[int, Rat]]:
        """Coefficients of k^0..k^deg, each a map {n-power: coefficient}."""
        out: list[dict[int, Rat]] = [{} for _ in range(self.degree("k") + 1)]
        for (i, j), c in self.terms.items():
            out[j][i] = c
        return out

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly2 | Scalar") -> "Poly2":
        other = _coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        out = Poly2.__new__(Poly2)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        out = Poly2.__new__(Poly2)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "Poly2 | Scalar") -> "Poly2":
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "Poly2":
        return _coerce(other) - self

    def __mul__(self, other: "Poly2 | Scalar") -> "Poly2":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            out = Poly2.__new__(Poly2)
            out.terms = {} if not c else {e: a * c for e, a in self.terms.items()}
            return out
        if not self.terms or not other.terms:
            return Poly2()
        a, a_den = _cleared(self)
        b, b_den = _cleared(other)
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
        den = a_den * b_den
        half = 1 << (8 * size - 1)
        terms: dict[tuple[int, int], Rat] = {}
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
                terms[divmod(e, width)] = Fraction(c, den)
        out = Poly2.__new__(Poly2)
        out.terms = terms
        return out

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

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- evaluation and substitution -----------------------------------------

    def eval(self, n: Scalar, k: Scalar) -> Rat:
        """Value at a rational point (n, k) = (a/b, c/d): the ints
        C_ij a^i b^(dn-i) c^j d^(dk-j) summed over L b^dn d^dk, where C = L*coeff
        and dn, dk are the degrees."""
        if not self.terms:
            return Fraction(0)
        n = Fraction(n)
        k = Fraction(k)
        coeffs, den = _cleared(self)
        dn = self.degree("n")
        dk = self.degree("k")
        npow = [n.numerator ** i * n.denominator ** (dn - i) for i in range(dn + 1)]
        kpow = [k.numerator ** j * k.denominator ** (dk - j) for j in range(dk + 1)]
        total = 0
        for (i, j), c in coeffs.items():
            total += c * npow[i] * kpow[j]
        return Fraction(total, den * n.denominator ** dn * k.denominator ** dk)

    def eval_k(self, k: Scalar) -> list[Rat]:
        """Substitute a rational for k; coefficients of n^0..n^deg remain."""
        k = Fraction(k)
        deg = self.degree("n")
        out = [Fraction(0)] * (deg + 1)
        for (i, j), c in self.terms.items():
            out[i] += c * k ** j
        while out and not out[-1]:
            out.pop()
        return out

    def shift(self, var: str, delta: Scalar) -> "Poly2":
        """Substitute var -> var + delta, expanding binomially."""
        delta = Fraction(delta)
        if not delta:
            return self
        pos = 0 if var == "n" else 1
        if var not in ("n", "k"):
            raise ValueError(f"unknown variable {var!r}")
        terms: dict[tuple[int, int], Rat] = {}
        rows: dict[int, list[int]] = {}
        dpow: dict[int, Rat] = {0: Fraction(1)}
        for (i, j), c in self.terms.items():
            m = (i, j)[pos]
            if m not in rows:
                rows[m] = _binomial_row(m)
            row = rows[m]
            for t in range(m + 1):
                if m - t not in dpow:
                    dpow[m - t] = delta ** (m - t)
                e = (t, j) if pos == 0 else (i, t)
                s = terms.get(e, Fraction(0)) + c * row[t] * dpow[m - t]
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        out = Poly2.__new__(Poly2)
        out.terms = terms
        return out

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        """Canonical text form: graded-lex monomial order (n before k),
        explicit ``*`` everywhere, explicit numeric coefficient whenever the
        sign is negative (the grammar's unary minus binds tighter than ^)."""
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (-(e[0] + e[1]), -e[0]))
        parts: list[str] = []
        for idx, e in enumerate(keys):
            c = self.terms[e]
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


def _cleared(p: Poly2) -> tuple[dict[tuple[int, int], int], int]:
    """(integer coefficients, common denominator L) with p = ints / L."""
    den = reduce(math.lcm, [c.denominator for c in p.terms.values()])
    return {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}, den


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
    """Unreduced quotient of two Poly2.  Equality via cross-multiplication,
    so instances are unhashable."""

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

    def __add__(self, other: "RatFunc2 | Poly2 | Scalar") -> "RatFunc2":
        other = _coerce_rf(other)
        return RatFunc2(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc2":
        return RatFunc2(-self.num, self.den)

    def __sub__(self, other: "RatFunc2 | Poly2 | Scalar") -> "RatFunc2":
        return self + (-_coerce_rf(other))

    def __rsub__(self, other: "Poly2 | Scalar") -> "RatFunc2":
        return _coerce_rf(other) - self

    def __mul__(self, other: "RatFunc2 | Poly2 | Scalar") -> "RatFunc2":
        other = _coerce_rf(other)
        return RatFunc2(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatFunc2 | Poly2 | Scalar") -> "RatFunc2":
        other = _coerce_rf(other)
        if other.num.is_zero:
            raise DivisionByZeroFunction("division by the zero function")
        return RatFunc2(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: "Poly2 | Scalar") -> "RatFunc2":
        return _coerce_rf(other) / self

    def __eq__(self, other: object) -> bool:
        """True iff the two quotients agree as rational functions."""
        if not isinstance(other, (RatFunc2, Poly2, int, Fraction)):
            return NotImplemented
        other = _coerce_rf(other)
        return (self.num * other.den - other.num * self.den).is_zero

    def shift(self, var: str, delta: Scalar) -> "RatFunc2":
        return RatFunc2(self.num.shift(var, delta), self.den.shift(var, delta))

    def eval(self, n: Scalar, k: Scalar) -> Rat:
        d = self.den.eval(n, k)
        if not d:
            raise ZeroDivisionError(f"denominator vanishes at (n={n}, k={k})")
        return self.num.eval(n, k) / d

    def __str__(self) -> str:
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc2({self})"


def _coerce_rf(x: "RatFunc2 | Poly2 | Scalar") -> RatFunc2:
    if isinstance(x, RatFunc2):
        return x
    return RatFunc2(_coerce(x), Poly2.const(1))
