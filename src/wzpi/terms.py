"""Hypergeometric summands and their exact shift structure.

A summand F(n, k) is a product of Pochhammer factors (c + b*n)_k to integer
powers, divided by k!^fact_pow, times z^k, a polynomial multiplier p(k), and a
constant prefactor.  Right-hand sides are closed forms base^n * prod (a_i)_n^e_i.

Everything here is exact: lattice values are Fractions, row sums are
quotients of ints, shift quotients are rational functions of (n, k).  The
shift quotients are products of linear factors e*k + a*n + c, built from
the summand as primitive int triples (e, a, c), and each quotient carries
one scale, an int pair into which every factor's own scale is folded
(``shift_quotient_k_triples``, ``shift_quotient_n_triples``).  The triple is
the only form a linear factor takes: ``term_sums`` walks the k-quotient's
triples over the rows of one call, the WZ residual keys them, and synthesis
pairs, moves and expands them.  ``split_factors`` is the one trial division
by linear factors, given as triples or Poly2s: the verifier splits a
certificate denominator given expanded with it, and the certificate
assembly divides its numerator.  ``factor_key``, the key of a factor, lives
in ``algebra`` beside ``Product``, the one canonical factored denominator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .algebra import (Poly2, Rat, RatFunc2, Triple, _horner, _scaled, factor_key,
                      sum_of_products)


class PoleError(ArithmeticError):
    """A denominator factor vanished at the requested lattice point."""


def _rat(x: "Rat | int") -> Rat:
    """x as a Fraction, x itself when it is one."""
    return x if type(x) is Fraction else Fraction(x)


@dataclass(frozen=True)
class PochFactor:
    n_coeff: int   # b in (c + b*n)_k
    offset: Rat    # c
    power: int     # multiplicity; positive = numerator, negative = denominator

    def __post_init__(self):
        if self.power == 0:
            raise ValueError("PochFactor power must be nonzero")
        object.__setattr__(self, "offset", _rat(self.offset))

    def arg_at(self, n: "Rat | int") -> Rat:
        return self.offset + self.n_coeff * Fraction(n)


@dataclass(frozen=True)
class HyperTerm:
    poch: tuple[PochFactor, ...]
    fact_pow: int                      # power of k! in the denominator
    z: Rat                             # geometric base, z^k
    p: tuple[Rat, ...]                 # multiplier polynomial in k, ascending
    prefactor_rational: Rat = Fraction(1)
    prefactor_sqrt: Rat = Fraction(1)  # value under a square root (numeric only)

    def __post_init__(self):
        object.__setattr__(self, "poch", tuple(self.poch))
        object.__setattr__(self, "z", _rat(self.z))
        object.__setattr__(self, "p", tuple(map(_rat, self.p)))
        object.__setattr__(self, "prefactor_rational", _rat(self.prefactor_rational))
        object.__setattr__(self, "prefactor_sqrt", _rat(self.prefactor_sqrt))

    @cached_property
    def k_factors(self) -> "tuple[list, list, tuple[int, int]]":
        """``shift_quotient_k_triples(self)``, built once for the instance
        (the exact sums read it on every row); no caller changes the lists."""
        return shift_quotient_k_triples(self)

    @cached_property
    def p_ints(self) -> "tuple[list[int], int]":
        """p(k) as (ints, den): ints, highest power first, over den."""
        den = math.lcm(*(c.denominator for c in self.p))
        return [c.numerator * (den // c.denominator) for c in reversed(self.p)], den

    @cached_property
    def stops(self) -> "list[tuple[int, int]]":
        """(c, b) of each numerator factor (c + b*n)_k with an integer offset c."""
        return [(f.offset.numerator, f.n_coeff) for f in self.poch
                if f.power > 0 and f.offset.denominator == 1]


@dataclass(frozen=True)
class ClosedForm:
    base: Rat                              # base^n
    poch_n: tuple[tuple[Rat, int], ...]    # (argument, power) pairs, powers nonzero

    def __post_init__(self):
        object.__setattr__(self, "base", _rat(self.base))
        object.__setattr__(self, "poch_n", tuple((_rat(a), int(e)) for (a, e) in self.poch_n))


def _poch_ints(a: int, b: int, count: int) -> tuple[int, int]:
    """(a/b)_count, b > 0, as an int pair (num, den): prod (a + j*b) / b^m
    for count = m >= 0, and b^m / prod (a - j*b) for count = -m, raising
    PoleError on a zero factor."""
    if count >= 0:
        return math.prod(range(a, a + count * b, b)), b ** count
    if not (v := math.prod(range(a - b, a + (count - 1) * b, -b))):
        raise PoleError(f"({Fraction(a, b)})_{count} hits a zero factor")
    return b ** -count, v


def poch_exact(arg: "Rat | int", count: int) -> Rat:
    """Rising factorial (arg)_count, count an int of either sign (``_poch_ints``)."""
    return Fraction(*_poch_ints(*Fraction(arg).as_integer_ratio(), count))


def p_eval(t: HyperTerm, k: "Rat | int") -> Rat:
    k = Fraction(k)
    v = Fraction(0)
    for c in reversed(t.p):
        v = v * k + c
    return v


def term_value(t: HyperTerm, n: int, k: int) -> Rat:
    """Exact summand value at a lattice point (square-root prefactor excluded).

    Numerator factors may vanish (the value is then 0); a vanishing
    denominator factor raises PoleError.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    v = t.prefactor_rational * p_eval(t, k) * t.z ** k
    for f in t.poch:
        pk = poch_exact(f.arg_at(n), k)
        if f.power > 0:
            v *= pk ** f.power
        else:
            if not pk:
                raise PoleError(
                    f"denominator factor ({f.arg_at(n)})_{k} vanishes at n={n}, k={k}")
            v /= pk ** (-f.power)
    if t.fact_pow:
        v /= poch_exact(1, k) ** t.fact_pow
    return v


def _values(start: list, triples: list, n: int, bound: int) -> Iterator[int]:
    """start[:bound] times each triple (e > 0) at row n, k < bound, as C-level ranges."""
    out = start[:bound]
    for e, a, c in triples:
        c += a * n
        out = map(mul, out, range(c, c + e * bound, e))
    return out


def term_sums(t: HyperTerm, rows: "Sequence[tuple[int, int]]") -> Iterator[tuple[int, int]]:
    """For each (n, bound) of rows in turn, the sum of term_value(t, n, k)
    over k = 0..bound as an unreduced quotient of ints (num, den), den > 0,
    each row made when it is asked for: one walk over the rows of one call.

    P(k) = z^k prod (arg)_k^e / k!^fact_pow steps by the k-shift quotient
    (``t.k_factors``), its triples' values at a row multiplied in C
    (``_values``), and p(k) multiplies each P(k) apart.  The triples free of
    n, with the scale, and p(k + 1), a range when p is linear, are built
    once for the largest bound and sliced per row.  One Python loop is left:
    num *= u; total = total*d + p*num.  A row first takes one divmod per
    denominator triple, to raise term_value's PoleError at the first k where
    one vanishes below the bound, the earlier triple on a tie.
    """
    (ints, p_den), pre = t.p_ints, t.prefactor_rational
    num_f, den_f, (const_num, const_den) = t.k_factors
    top = max((bound for _, bound in rows), default=0)
    ups = list(_values([const_num] * top, [g for g in num_f if not g[1]], 0, top))
    downs = list(_values([const_den] * top, [g for g in den_f if not g[1]], 0, top))
    num_n, den_n = [g for g in num_f if g[1]], [g for g in den_f if g[1]]
    if len(ints) == 2 and ints[0]:  # p(k + 1) = u*(k + 1) + v
        steps = range(sum(ints), ints[0] * (top + 1) + ints[1], ints[0])
    else:
        steps = [_horner(ints, k, 1) for k in range(1, top + 1)]
    p0, p_den = ints[-1] if ints else 0, p_den * pre.denominator
    for n, bound in rows:
        zeros = [(k, a * n + c, e) for e, a, c in den_f
                 for k, r in [divmod(-(a * n + c), e)] if not r and 0 <= k < bound]
        if zeros:
            k, c, e = min(zeros, key=lambda z: z[0])
            raise PoleError(f"denominator factor ({Fraction(c, e)})_{k + 1} "
                            f"vanishes at n={n}, k={k + 1}")
        dens = list(_values(downs, den_n, n, bound))
        num, total = 1, p0
        for u, d, p in zip(_values(ups, num_n, n, bound), dens, steps):
            num *= u
            total = total * d + p * num
        total, den = total * pre.numerator, math.prod(dens) * p_den
        yield (total, den) if den > 0 else (-total, -den)


def term_sum(t: HyperTerm, n: int, bound: int) -> Rat:
    """Exact sum of term_value(t, n, k) over k = 0..bound, as one Fraction:
    ``term_sums`` on the one row."""
    return Fraction(*next(term_sums(t, [(n, bound)])))


def termination_bound(t: HyperTerm, n: int) -> Optional[int]:
    """Largest k with a possibly nonzero summand, or None if the series
    does not terminate at this n: min(-v) over the numerator factors whose
    argument v = c + b*n is a nonpositive integer, which at integer n it is
    only for an integer offset c (``t.stops``), so the test runs in ints."""
    return min([-v for c, b in t.stops if (v := c + b * n) <= 0], default=None)


def _termination_rows(t: HyperTerm, n_max: int) -> list[tuple[int, int]]:
    """(n, termination_bound(t, n)) for n = 0..n_max up to the first n where the
    series does not terminate, in one call: the pole scan's and exact sums' rows."""
    rows = []
    for n in range(n_max + 1):
        if not (ends := [-v for c, b in t.stops if (v := c + b * n) <= 0]):
            break
        rows.append((n, min(ends)))
    return rows


def rhs_exact(rhs: ClosedForm, n: int) -> Rat:
    """base^n * prod (arg)_n^e: one int product per factor (``_poch_ints``), one
    Fraction at the end; a PoleError names the first vanishing denominator factor."""
    x, y = rhs.base.numerator, rhs.base.denominator
    x, y = (x ** n, y ** n) if n >= 0 else (y ** -n, x ** -n)
    for arg, e in rhs.poch_n:
        u, v = _poch_ints(arg.numerator, arg.denominator, n)
        if e > 0:
            x, y = x * u ** e, y * v ** e
        elif not u:
            raise PoleError(f"({arg})_{n} vanishes in a denominator")
        else:
            x, y = x * v ** -e, y * u ** -e
    return Fraction(x, y)


# -- shift quotients ----------------------------------------------------------
#
# A linear factor e*k + a*n + c is carried as its primitive int triple
# (e, a, c) (``algebra.factor_key``).  A shift quotient is (numerator
# triples, denominator triples, (x, y)): x/y times the product of the
# numerator triples over that of the denominator triples.  Every triple with
# k in it has e > 0: k + b*n + u/v is (v, b*v, u), its 1/v folded into the scale.


def multiplier(t: HyperTerm) -> Poly2:
    """The multiplier polynomial p(k) as a Poly2."""
    return Poly2({(0, i): c for i, c in enumerate(t.p)})


def _folded(num: list, den: list, x: int, y: int) -> "tuple[list, list, tuple[int, int]]":
    """The triples of the factors (triple, m, d), each m*triple/d, in num
    and den, and x/y times the scales m/d of num over those of den, as an
    int pair."""
    for _, m, d in num:
        x, y = x * m, y * d
    for _, m, d in den:
        x, y = x * d, y * m
    return [f[0] for f in num], [f[0] for f in den], (x, y)


def shift_quotient_k_triples(t: HyperTerm) -> "tuple[list, list, tuple[int, int]]":
    """F(n,k+1)/F(n,k) without the multiplier's p(k+1)/p(k), as (numerator
    triples, denominator triples, scale), z folded into the scale.  A factor
    k + b*n + u/v is (v*k + b*v*n + u)/v, whose triple has content
    gcd(v, u) = 1."""
    num: list = []
    den: list = []
    for f in t.poch:
        v = f.offset.denominator
        x = (v, f.n_coeff * v, f.offset.numerator), 1, v
        (num if f.power > 0 else den).extend([x] * abs(f.power))
    den.extend([((1, 0, 1), 1, 1)] * t.fact_pow)  # k + 1
    return _folded(num, den, t.z.numerator, t.z.denominator)


def split_factors(b: Poly2, candidates: "Iterable[Triple | Poly2]",
                  most: "Optional[Mapping[Triple | Poly2, int]]" = None) -> list:
    """Trial division of b by nonconstant candidates, each a Poly2 or a
    triple (e, a, c) for e*k + a*n + c: each in turn as often as it divides
    (at most most[g] times when most is given), then the cofactor, a Poly2,
    so that b is the product of the list with each triple read as its Poly2.

    A linear candidate is tried only where b vanishes at a point of its zero
    line: g = e*k + a*n + c at n = 1/7, k = -(a + 7c)/(7e), and g = a*n + c
    at n = -c/a, k = 1/7.  b is evaluated there in ints, by Horner's rule
    at u/v on its ``Poly2.row`` at n = 1/7 (or k = 1/7), built once for each
    b.  The divisor Poly2 of a triple is built only when that test passes.
    Any other candidate, such as a nonlinear multiplier p(k), is divided
    plainly.
    """
    fs, rows = [], {}
    for g in candidates:
        left, div, pos = -1 if most is None else most[g], g, None  # -1: no cap
        line = factor_key(g)[0]
        if type(line) is tuple:
            e, a, c = line
            pos, (u, v) = int(e != 0), ((-(a + 7 * c), 7 * e) if e else (-c, a))
        while left:
            if pos is not None:
                if pos not in rows:
                    rows[pos] = b.row("nk"[1 - pos], Fraction(1, 7))[0]
                if _horner(rows[pos], u, v):
                    break
            if type(div) is tuple:
                div = Poly2.linear(a, e, c)
            if (q := b.divide(div)) is None:
                break
            fs.append(g)
            b, rows, left = q, {}, left - 1
    return fs + [b]


def shift_quotient_k(t: HyperTerm) -> RatFunc2:
    """F(n,k+1)/F(n,k) as an explicit rational function of (n, k).

    No product path calls it; the benchmark's algebra probe
    (perfbench/layers.py::_algebra_probe) multiplies and shifts its parts."""
    num, den, scale = t.k_factors
    p = multiplier(t)
    return RatFunc2(sum_of_products([(Fraction(*scale), [*num, p.shift("k", 1)])]),
                    sum_of_products([(1, [*den, p])]))


def shift_quotient_n_triples(t: HyperTerm, rhs: ClosedForm) \
        -> "tuple[list, list, tuple[int, int]]":
    """Fhat(n+1,k)/Fhat(n,k), where Fhat = F / RHS, as (numerator triples,
    denominator triples, scale), 1/base folded into the scale.

    For a factor (c + b*n)_k: shifting n by 1 multiplies the Pochhammer by
      prod_{j=0..b-1} (c+bn+k+j)/(c+bn+j)          when b > 0,
      prod_{j=1..|b|} (c+bn-j)/(c+bn-j+k)          when b < 0,
    all raised to the factor's power.  The RHS contributes (a_i + n) to its
    powers in the denominator.  With c = u/v, c + j = w/v for w = u + j*v.
    """
    num: list = []
    den: list = []
    for f in t.poch:
        b = f.n_coeff
        u, v = f.offset.numerator, f.offset.denominator
        for j in range(b) if b > 0 else range(-1, b - 1, -1):
            w = u + j * v
            top, bottom = ((v, b * v, w), 1, v), _scaled(0, b * v, w, v)  # with k, without
            if (b > 0) != (f.power > 0):
                top, bottom = bottom, top
            num.extend([top] * abs(f.power))
            den.extend([bottom] * abs(f.power))
    for (arg, e) in rhs.poch_n:
        x = (0, arg.denominator, arg.numerator), 1, arg.denominator  # arg + n
        (den if e > 0 else num).extend([x] * abs(e))
    return _folded(num, den, rhs.base.denominator, rhs.base.numerator)


# -- structural reduction at the singular parameter value ----------------------

RAMANUJAN_POCH = {Fraction(1, 2): 3}   # (1/2)_k^3 ...
RAMANUJAN_FACT_POW = 3                 # ... over k!^3
RAMANUJAN_Z = Fraction(-1)
RAMANUJAN_P = (Fraction(1), Fraction(4))


def carlson_substitution(t: HyperTerm, a: int) -> "tuple[dict[Rat, int], int, Rat, tuple[Rat, ...]]":
    """Substitute n = -1/(2a) into the factor list and normalize.

    Factors whose argument becomes 1 are folded into the factorial power
    (since (1)_k = k!).  Returns (argument -> net power, factorial power, z, p).
    """
    if a == 0:
        raise ValueError("a must be a nonzero integer")
    point = Fraction(-1, 2 * a)
    args: dict[Rat, int] = {}
    fact = t.fact_pow
    for f in t.poch:
        v = f.arg_at(point)
        if v == 1:
            fact -= f.power
        else:
            args[v] = args.get(v, 0) + f.power
    return ({v: e for v, e in args.items() if e}, fact, t.z, t.p)


def reduces_to_ramanujan(t: HyperTerm, a: int) -> bool:
    """True iff n = -1/(2a) collapses the summand to the alternating
    (1/2)^3 / k!^3 * (4k+1) * (-1)^k shape."""
    args, fact, z, p = carlson_substitution(t, a)
    return (args == RAMANUJAN_POCH and fact == RAMANUJAN_FACT_POW
            and z == RAMANUJAN_Z and p == RAMANUJAN_P)
