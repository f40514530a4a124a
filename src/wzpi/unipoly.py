"""The benchmark's view of the normal form: univariate polynomials over Q.

No product path computes here.  ``gosper`` wraps the p, q and r of its
normal form in ``UniPolyQn``, a polynomial in k over Q[n] viewed through
one ``Poly2``, and the benchmark's probes read them through ``eval_n`` and
``coeffs``.  ``UniPoly`` stores dense coefficient tuples (ascending powers,
trailing zeros stripped; the zero polynomial is the empty tuple), and its
gcd runs on ``algebra``'s int primitive pseudo-remainder sequence.
``RatFn`` is a bare (num, den) pair and ``interpolate`` a Lagrange
interpolant.  The module waits for ROADMAP item 1 to drop the probes.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd
from typing import Iterable, Sequence

from .algebra import Poly2, Rat, Scalar, _igcd_poly


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


class UniPolyQn:
    """A polynomial in k with coefficients in Q[n], viewed through one Poly2.

    The solve reads ``poly`` and ``shift``; the benchmark's probes read
    ``eval_n`` and ``coeffs`` (and ``gosper._degree_bound`` on it)."""

    __slots__ = ("poly",)

    def __init__(self, poly: Poly2):
        self.poly = poly

    def degree(self) -> int:
        return self.poly.degree("k")

    def coeff(self, i: int) -> Poly2:
        return self.poly.k_coeff(i)

    def _columns(self) -> list[UniPoly]:
        return [UniPoly(self.coeff(j).eval_k(0)) for j in range(self.degree() + 1)]

    @property
    def coeffs(self) -> tuple[RatFn, ...]:
        return tuple(RatFn(c, UniPoly.const(1)) for c in self._columns())

    def shift(self, delta) -> "UniPolyQn":
        """Substitute k -> k + delta for a rational constant delta."""
        return UniPolyQn(self.poly.shift("k", delta))

    def eval_n(self, n0: Rat) -> UniPoly:
        """Specialize n, returning a univariate polynomial in k over Q."""
        return UniPoly([c.eval(n0) for c in self._columns()])
