"""The benchmark's view of the normal form: univariate polynomials over Q.

No product path computes here, and the module has no arithmetic of its own.
``gosper`` wraps its normal form's p, q and r in ``UniPolyQn``, a polynomial
in k over Q[n] viewed through one ``Poly2``; the benchmark's probes read
them through ``eval_n`` and ``coeffs``.  ``UniPoly`` is a view of one
``Poly2`` in k alone, whose ring operations, evaluation and long division
it uses; its gcd is ``algebra``'s int primitive pseudo-remainder sequence.
Its values and ``int_coeffs``, and ``UniPolyQn.eval_n``, read ``Poly2.row``.
``RatFn`` is a bare (num, den) pair and ``interpolate`` a Lagrange
interpolant.  The module waits for ROADMAP item 1 to drop the probes.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .algebra import Poly2, Rat, Scalar, _igcd_poly, _lowest


class UniPoly:
    """A polynomial in one variable over Q, held as a Poly2 in k alone;
    built from ascending coefficients or such a Poly2, and immutable."""

    __slots__ = ("poly",)

    def __init__(self, coeffs: "Iterable[Scalar] | Poly2" = ()):
        if not isinstance(coeffs, Poly2):
            coeffs = Poly2({(0, j): c for j, c in enumerate(coeffs)})
        self.poly = coeffs

    @classmethod
    def const(cls, x: Scalar) -> "UniPoly":
        return cls(Poly2.const(x))

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    @property
    def degree(self) -> int:
        return self.poly.degree("k")

    @property
    def lc(self) -> Rat:
        return self.poly.coeff(0, self.degree)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly(self.poly + other.poly)

    def __mul__(self, other: "UniPoly | Scalar") -> "UniPoly":
        return UniPoly(self.poly * (other.poly if isinstance(other, UniPoly) else other))

    def __divmod__(self, other: "UniPoly") -> "tuple[UniPoly, UniPoly]":
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        d, lcd = other.degree, other.lc
        q, r = Poly2(), self.poly
        while r.degree("k") >= d:
            m = r.degree("k")
            t = Poly2({(0, m - d): r.coeff(0, m) / lcd})
            q, r = q + t, r - t * other.poly
        return UniPoly(q), UniPoly(r)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.poly == other.poly

    def eval(self, x: Scalar) -> Rat:
        return self.poly.eval(0, x)

    def monic(self) -> "UniPoly":
        if self.is_zero or self.lc == 1:
            return self
        return self * (1 / self.lc)

    def int_coeffs(self) -> "tuple[list[int], int]":
        """Return (ascending integer coefficient list, common denominator)."""
        row, den = self.poly.row("n", 0)
        return row[::-1], den

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd in Q[x]."""
        if self.is_zero:
            return other.monic()
        if other.is_zero:
            return self.monic()
        return UniPoly(_igcd_poly(self.int_coeffs()[0], other.int_coeffs()[0])).monic()


def interpolate(points: Sequence[tuple[Scalar, Scalar]]) -> UniPoly:
    """Lagrange interpolation through distinct sample points."""
    total = UniPoly()
    for i, (xi, yi) in enumerate(points):
        if not yi:
            continue
        basis = UniPoly.const(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = basis * UniPoly((-xj, 1))
        total = total + basis * (yi / basis.eval(xi))
    return total


class RatFn:
    """A numerator and a denominator as given: no reduction, arithmetic or ==."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly):
        self.num = num
        self.den = den


class UniPolyQn:
    """A polynomial in k with coefficients in Q[n], viewed through one Poly2:
    the solve reads ``poly`` and ``shift``, the benchmark's probes ``eval_n``
    and ``coeffs`` (and ``gosper._degree_bound`` on it)."""

    __slots__ = ("poly",)

    def __init__(self, poly: Poly2):
        self.poly = poly

    def degree(self) -> int:
        return self.poly.degree("k")

    def coeff(self, i: int) -> Poly2:
        return self.poly.k_coeff(i)

    @property
    def coeffs(self) -> tuple[RatFn, ...]:
        """The k-columns, each a UniPoly in n over denominator 1."""
        return tuple(RatFn(UniPoly(self.coeff(j).eval_k(0)), UniPoly.const(1))
                     for j in range(self.degree() + 1))

    def shift(self, delta) -> "UniPolyQn":
        """Substitute k -> k + delta for a rational constant delta."""
        return UniPolyQn(self.poly.shift("k", delta))

    def eval_n(self, n0: Rat) -> UniPoly:
        """Specialize n, returning a univariate polynomial in k over Q."""
        row, den = self.poly.row("n", n0)
        return UniPoly(_lowest({(0, j): c for j, c in enumerate(reversed(row))}, den))
