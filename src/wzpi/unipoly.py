"""Exact univariate polynomial and rational-function arithmetic over Q.

``UniPoly`` stores dense coefficient tuples (ascending powers, trailing zeros
stripped; the zero polynomial is the empty tuple).  Gcds run on integer
primitive parts with a primitive pseudo-remainder sequence, which keeps
intermediate coefficients bounded.  ``RatFn`` is a reduced quotient with a
monic denominator, so equality is structural.
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

    def coeff(self, i: int) -> Rat:
        return self.c[i] if 0 <= i < len(self.c) else Fraction(0)

    def __add__(self, other: "UniPoly | Scalar") -> "UniPoly":
        other = _coerce(other)
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        c = list(a)
        for i, x in enumerate(b):
            c[i] += x
        return UniPoly(c)

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-x for x in self.c))

    def __sub__(self, other: "UniPoly | Scalar") -> "UniPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "UniPoly":
        return _coerce(other) - self

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

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "UniPoly":
        if m < 0:
            raise ValueError("negative power")
        out = UniPoly.const(1)
        base = self
        while m:
            if m & 1:
                out = out * base
            if m > 1:
                base = base * base
            m >>= 1
        return out

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
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.c == other.c

    def eval(self, x: Scalar) -> Rat:
        x = Fraction(x)
        v = Fraction(0)
        for a in reversed(self.c):
            v = v * x + a
        return v

    def shift(self, delta: Scalar) -> "UniPoly":
        """Substitute x -> x + delta."""
        delta = Fraction(delta)
        if not delta or self.is_zero:
            return self
        out = UniPoly()
        for a in reversed(self.c):
            out = out * UniPoly((delta, 1)) + UniPoly.const(a)
        return out

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

    def lcm(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero or other.is_zero:
            return UniPoly()
        return (self * other).exact_div(self.gcd(other))

    def div_linear(self, x0: Scalar) -> "tuple[UniPoly, Rat]":
        """Synthetic division by (x - x0): returns (quotient, remainder)."""
        x0 = Fraction(x0)
        if self.is_zero:
            return UniPoly(), Fraction(0)
        q: list[Rat] = [Fraction(0)] * (len(self.c) - 1)
        acc = Fraction(0)
        for i in range(len(self.c) - 1, 0, -1):
            acc = acc * x0 + self.c[i]
            q[i - 1] = acc
        rem = acc * x0 + self.c[0]
        return UniPoly(q), rem

    def root_multiplicity(self, x0: Scalar) -> "tuple[int, UniPoly]":
        """Order of vanishing at x0 and the fully deflated quotient."""
        mult = 0
        p = self
        while not p.is_zero:
            q, rem = p.div_linear(x0)
            if rem:
                break
            mult += 1
            p = q
        return mult, p

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


def _coerce(x: "UniPoly | Scalar") -> UniPoly:
    if isinstance(x, UniPoly):
        return x
    return UniPoly.const(x)


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
    """Reduced rational function in one variable; denominator kept monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: "UniPoly | Scalar", den: "UniPoly | Scalar" = 1,
                 _reduced: bool = False):
        num = _coerce(num)
        den = _coerce(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if not _reduced:
            if num.is_zero:
                den = UniPoly.const(1)
            else:
                g = num.gcd(den)
                if g.degree > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
            if den.lc != 1:
                inv = 1 / den.lc
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def const(cls, x: Scalar) -> "RatFn":
        return cls(UniPoly.const(x), UniPoly.const(1), _reduced=True)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def as_const(self) -> Rat:
        if not self.is_constant:
            raise ValueError("not a constant")
        return self.num.coeff(0)

    def __add__(self, other: "RatFn | Scalar") -> "RatFn":
        other = _coerce_rf(other)
        if self.den == other.den:
            return RatFn(self.num + other.num, self.den)
        return RatFn(self.num * other.den + other.num * self.den,
                     self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFn":
        return RatFn(-self.num, self.den, _reduced=True)

    def __sub__(self, other: "RatFn | Scalar") -> "RatFn":
        return self + (-_coerce_rf(other))

    def __rsub__(self, other: Scalar) -> "RatFn":
        return _coerce_rf(other) - self

    def __mul__(self, other: "RatFn | Scalar") -> "RatFn":
        other = _coerce_rf(other)
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatFn | Scalar") -> "RatFn":
        other = _coerce_rf(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: Scalar) -> "RatFn":
        return _coerce_rf(other) / self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce_rf(other)
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def eval(self, x: Scalar) -> Rat:
        d = self.den.eval(x)
        if not d:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.eval(x) / d

    def __str__(self) -> str:
        if self.den.degree == 0 and self.den.coeff(0) == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFn({self})"


def _coerce_rf(x: "RatFn | Scalar") -> RatFn:
    if isinstance(x, RatFn):
        return x
    return RatFn.const(x)
