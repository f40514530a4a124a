"""Hypergeometric summands and their exact shift structure.

A summand F(n, k) is a product of Pochhammer factors (c + b*n)_k to integer
powers, divided by k!^fact_pow, times z^k, a polynomial multiplier p(k), and a
constant prefactor.  Right-hand sides are closed forms base^n * prod (a_i)_n^e_i.

Everything here is exact: lattice values are Fractions, row sums are
quotients of ints, shift quotients are rational functions of (n, k).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import Poly2, Rat, RatFunc2


class PoleError(ArithmeticError):
    """A denominator factor vanished at the requested lattice point."""


@dataclass(frozen=True)
class PochFactor:
    n_coeff: int   # b in (c + b*n)_k
    offset: Rat    # c
    power: int     # multiplicity; positive = numerator, negative = denominator

    def __post_init__(self):
        if self.power == 0:
            raise ValueError("PochFactor power must be nonzero")
        object.__setattr__(self, "offset", Fraction(self.offset))

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
        object.__setattr__(self, "z", Fraction(self.z))
        object.__setattr__(self, "p", tuple(Fraction(c) for c in self.p))
        object.__setattr__(self, "prefactor_rational", Fraction(self.prefactor_rational))
        object.__setattr__(self, "prefactor_sqrt", Fraction(self.prefactor_sqrt))


@dataclass(frozen=True)
class ClosedForm:
    base: Rat                              # base^n
    poch_n: tuple[tuple[Rat, int], ...]    # (argument, power) pairs, powers nonzero

    def __post_init__(self):
        object.__setattr__(self, "base", Fraction(self.base))
        object.__setattr__(
            self, "poch_n",
            tuple((Fraction(a), int(e)) for (a, e) in self.poch_n))


def poch_exact(arg: "Rat | int", count: int) -> Rat:
    """Rising factorial (arg)_count for integer count (negative allowed).

    For arg = a/b, (a/b)_m = prod (a + j*b) / b^m and (a/b)_(-m) =
    b^m / prod (a - j*b): the products run in ints and one Fraction is built.
    """
    arg = Fraction(arg)
    a, b = arg.numerator, arg.denominator
    if count >= 0:
        v = 1
        for j in range(count):
            v *= a + j * b
        return Fraction(v, b ** count)
    v = 1
    for j in range(1, -count + 1):
        f = a - j * b
        if not f:
            raise PoleError(f"({arg})_{count} hits a zero factor")
        v *= f
    return Fraction(b ** -count, v)


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


def term_sum_parts(t: HyperTerm, n: int, bound: int) -> tuple[int, int]:
    """The sum of term_value(t, n, k) over k = 0..bound as an unreduced
    quotient of ints (num, den) with den > 0, in one walk over k.

    The Pochhammer part P(k) = z^k prod (arg)_k^e / k!^fact_pow is an
    unreduced quotient of ints, advanced by the term ratio
    z prod (arg + k)^e / (k + 1)^fact_pow; p(k) multiplies each P(k) apart from
    it, so a zero of p(k) does not stop the walk.  The sum is kept over the
    current denominator of P.  A factor argument c + b*n with c = u/v is read
    as the int pair (u + b*n*v, v), which is in lowest terms because u and v
    are; a Fraction is built only for the message of a PoleError, raised at
    the first k where a denominator factor vanishes, as term_value raises it.
    """
    p_den = math.lcm(*(c.denominator for c in t.p))
    p_int = [c.numerator * (p_den // c.denominator) for c in reversed(t.p)]

    def p_at(k: int) -> int:
        v = 0
        for c in p_int:
            v = v * k + c
        return v

    # arg + k = (a + k*d)/d for arg = a/d: the powers of d are the same at
    # every step and fold into the constant part of the ratio
    factors = [(f.offset.numerator + f.n_coeff * n * f.offset.denominator,
                f.offset.denominator, f.power) for f in t.poch]
    const_num, const_den = t.z.numerator, t.z.denominator
    for _, d, e in factors:
        if e > 0:
            const_den *= d ** e
        else:
            const_num *= d ** -e
    num, den = 1, 1
    total = p_at(0)
    for k in range(bound):
        step_num, step_den = const_num, const_den * (k + 1) ** t.fact_pow
        for a, d, e in factors:
            v = a + k * d
            if e > 0:
                step_num *= v ** e
            elif v:
                step_den *= v ** -e
            else:
                raise PoleError(f"denominator factor ({Fraction(a, d)})_{k + 1} "
                                f"vanishes at n={n}, k={k + 1}")
        num *= step_num
        den *= step_den
        total = total * step_den + p_at(k + 1) * num
    pre = t.prefactor_rational
    num, den = total * pre.numerator, den * p_den * pre.denominator
    return (num, den) if den > 0 else (-num, -den)


def term_sum(t: HyperTerm, n: int, bound: int) -> Rat:
    """Exact sum of term_value(t, n, k) over k = 0..bound: term_sum_parts
    reduced to one Fraction."""
    return Fraction(*term_sum_parts(t, n, bound))


def termination_bound(t: HyperTerm, n: int) -> Optional[int]:
    """Largest k with a possibly nonzero summand, or None if the series
    does not terminate at this n.

    A numerator factor with argument v a nonpositive integer kills every
    k > -v, so the bound is min(-v) over such factors.  For integer n,
    v = c + b*n is an integer exactly when the offset c is, so the test runs
    in ints.
    """
    bound: Optional[int] = None
    for f in t.poch:
        if f.power <= 0 or f.offset.denominator != 1:
            continue
        v = f.offset.numerator + f.n_coeff * n
        if v <= 0:
            bound = -v if bound is None else min(bound, -v)
    return bound


def rhs_exact(rhs: ClosedForm, n: int) -> Rat:
    v = rhs.base ** n
    for (arg, e) in rhs.poch_n:
        pk = poch_exact(arg, n)
        if e > 0:
            v *= pk ** e
        else:
            if not pk:
                raise PoleError(f"({arg})_{n} vanishes in a denominator")
            v /= pk ** (-e)
    return v


# -- shift quotients ----------------------------------------------------------

def multiplier(t: HyperTerm) -> Poly2:
    """The multiplier polynomial p(k) as a Poly2."""
    return Poly2({(0, i): c for i, c in enumerate(t.p)})


def shift_quotient_k_parts(t: HyperTerm) -> "tuple[list[Poly2], list[Poly2], Rat]":
    """Factored F(n,k+1)/F(n,k) without the multiplier's p(k+1)/p(k):
    (numerator factors, denominator factors, scalar), each factor k + a(n)."""
    num: list[Poly2] = []
    den: list[Poly2] = []
    for f in t.poch:
        target = num if f.power > 0 else den
        for _ in range(abs(f.power)):
            target.append(Poly2.linear(f.n_coeff, 1, f.offset))
    for _ in range(t.fact_pow):
        den.append(Poly2.linear(0, 1, 1))  # k + 1
    return num, den, t.z


def factor_product(factors: list[Poly2], scale: Rat = 1) -> Poly2:
    """scale times the product of the factors, expanded."""
    out = Poly2.const(scale)
    for f in factors:
        out = out * f
    return out


def shift_quotient_k(t: HyperTerm) -> RatFunc2:
    """F(n,k+1)/F(n,k) as an explicit rational function of (n, k).

    No product path calls it; the benchmark's algebra probe
    (perfbench/layers.py::_algebra_probe) multiplies and shifts its parts."""
    num, den, scal = shift_quotient_k_parts(t)
    p = multiplier(t)
    return RatFunc2(factor_product(num, scal) * p.shift("k", 1), factor_product(den) * p)


def shift_quotient_n_parts(t: HyperTerm, rhs: ClosedForm) \
        -> "tuple[list[Poly2], list[Poly2], Rat]":
    """Factored Fhat(n+1,k)/Fhat(n,k) where Fhat = F / RHS.

    For a factor (c + b*n)_k: shifting n by 1 multiplies the Pochhammer by
      prod_{j=0..b-1} (c+bn+k+j)/(c+bn+j)          when b > 0,
      prod_{j=1..|b|} (c+bn-j)/(c+bn-j+k)          when b < 0,
    all raised to the factor's power.  The RHS contributes base and (a_i + n)
    to its powers in the denominator.
    """
    num: list[Poly2] = []
    den: list[Poly2] = []
    scal = 1 / rhs.base
    for f in t.poch:
        b = f.n_coeff
        if b == 0:
            continue
        pieces: list[tuple[Poly2, Poly2]] = []  # (numerator, denominator) pairs
        if b > 0:
            for j in range(b):
                pieces.append((Poly2.linear(b, 1, f.offset + j),
                               Poly2.linear(b, 0, f.offset + j)))
        else:
            for j in range(1, -b + 1):
                pieces.append((Poly2.linear(b, 0, f.offset - j),
                               Poly2.linear(b, 1, f.offset - j)))
        for (pn, pd) in pieces:
            for _ in range(abs(f.power)):
                if f.power > 0:
                    num.append(pn)
                    den.append(pd)
                else:
                    num.append(pd)
                    den.append(pn)
    for (arg, e) in rhs.poch_n:
        piece = Poly2.linear(1, 0, arg)  # arg + n
        for _ in range(abs(e)):
            (den if e > 0 else num).append(piece)
    return num, den, scal


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
