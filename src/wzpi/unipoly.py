"""Exact univariate polynomials over Q.

``UniPoly`` stores dense coefficient tuples (ascending powers, trailing zeros
stripped; the zero polynomial is the empty tuple).  Gcds run on integer
primitive parts with a primitive pseudo-remainder sequence, which keeps
intermediate coefficients bounded; the certificate assembly takes its few
Q[n] gcds and exact divisions here.  ``RatFn`` is a bare (num, den) pair
and ``interpolate`` a Lagrange interpolant: only the benchmark's probes of
the normal form read them, and they wait for ROADMAP item 1 to drop them.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd
from typing import Iterable, Sequence, Union

Rat = Fraction
Scalar = Union[Rat, int]


# -- integer-coefficient helpers (primitive PRS) ------------------------------

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


def _icontent(c: Sequence[int]) -> int:
    g = 0
    for x in c:
        g = _igcd(g, abs(x))
        if g == 1:
            break
    return g


def _iprimitive(c: Sequence[int]) -> list[int]:
    c = _istrip(list(c))
    if not c:
        return []
    g = _icontent(c)
    if c[-1] < 0:
        g = -g
    return [x // g for x in c]


def _igcd_poly(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two integer polynomials (lc > 0)."""
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


class UniPoly:
    """Dense polynomial in one variable over Q; instances are immutable."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        c = [Fraction(x) for x in coeffs]
        while c and not c[-1]:
            c.pop()
        self.c = tuple(c)

    @classmethod
    def const(cls, x: Scalar) -> "UniPoly":
        return cls((Fraction(x),))

    @property
    def is_zero(self) -> bool:
        return not self.c

    @property
    def degree(self) -> int:
        return len(self.c) - 1

    @property
    def lc(self) -> Rat:
        return self.c[-1] if self.c else Fraction(0)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        c = list(a)
        for i, x in enumerate(b):
            c[i] += x
        return UniPoly(c)

    def __mul__(self, other: "UniPoly | Scalar") -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return UniPoly()
            return UniPoly(tuple(x * q for x in self.c))
        a, b = self.c, other.c
        if not a or not b:
            return UniPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return UniPoly(out)

    def __divmod__(self, other: "UniPoly") -> "tuple[UniPoly, UniPoly]":
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        r = list(self.c)
        d = other.c
        dd = len(d) - 1
        lcd = d[-1]
        q = [Fraction(0)] * max(0, len(r) - dd)
        while len(r) - 1 >= dd and r:
            t = r[-1] / lcd
            pos = len(r) - 1 - dd
            q[pos] = t
            for i, x in enumerate(d):
                r[pos + i] -= t * x
            while r and not r[-1]:
                r.pop()
        return UniPoly(q), UniPoly(r)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.c == other.c

    def eval(self, x: Scalar) -> Rat:
        x = Fraction(x)
        v = Fraction(0)
        for a in reversed(self.c):
            v = v * x + a
        return v

    def monic(self) -> "UniPoly":
        if self.is_zero or self.lc == 1:
            return self
        inv = 1 / self.lc
        return UniPoly(tuple(x * inv for x in self.c))

    def int_coeffs(self) -> "tuple[list[int], int]":
        """Return (integer coefficient list, common denominator)."""
        den = 1
        for x in self.c:
            den = den * x.denominator // _igcd(den, x.denominator)
        return [int(x * den) for x in self.c], den

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd in Q[x]."""
        if self.is_zero:
            return other.monic()
        if other.is_zero:
            return self.monic()
        a, _ = self.int_coeffs()
        b, _ = other.int_coeffs()
        return UniPoly(_igcd_poly(a, b)).monic()

    def __str__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for i in range(len(self.c) - 1, -1, -1):
            a = self.c[i]
            if not a:
                continue
            mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            coef = str(a) if (i == 0 or abs(a) != 1) else ("-" if a < 0 else "")
            parts.append(coef + ("*" if coef not in ("", "-") and mono else "") + mono)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"UniPoly({str(self)})"


def interpolate(points: Sequence[tuple[Scalar, Scalar]]) -> UniPoly:
    """Lagrange interpolation through distinct sample points."""
    total = UniPoly()
    for i, (xi, yi) in enumerate(points):
        yi = Fraction(yi)
        if not yi:
            continue
        basis = UniPoly.const(1)
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = basis * UniPoly((-Fraction(xj), 1))
            denom *= Fraction(xi) - Fraction(xj)
        total = total + basis * (yi / denom)
    return total


class RatFn:
    """A numerator and a denominator, stored as given: no reduction, no
    arithmetic and no equality."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly):
        self.num = num
        self.den = den
