"""Certificate synthesis for the telescoping identities, built on Gosper's
algorithm over the coefficient field Q(n).

The summand of each identity is hypergeometric in k, so the difference
``H(k) = Fhat(n+1, k) - Fhat(n, k)`` (with ``Fhat`` the summand divided by the
closed form) is hypergeometric as well: ``H(k+1)/H(k)`` is a rational function
of k with coefficients in Q(n).  Gosper's algorithm decides whether H has a
hypergeometric antidifference ``T`` with ``T(k+1) - T(k) = H(k)``; when it
does, ``T(k) = y(k) * H(k)`` for a rational function y, and the telescoping
certificate is ``R = y * (s - 1)`` where ``s`` is the n-shift quotient of the
normalized summand.

Pipeline (names follow the classical presentation):

1. ``h_ratio``        -- assemble ``rho(k) = H(k+1)/H(k)`` from the factored
                         shift quotients, cancelling matching linear factors
                         before anything is expanded.
2. ``gosper_normal_form`` -- write ``rho = (q(k)/r(k)) * (p(k+1)/p(k))`` with
                         ``gcd(q(k), r(k+j)) = 1`` for every integer j >= 0.
                         The shift offsets j that need attention come from a
                         resultant-style probe (see ``dispersion_candidates``)
                         and every candidate is confirmed with an exact gcd
                         over Q(n) before any factor is moved.
3. ``gosper_solve``   -- degree-bound the unknown polynomial x(k) and solve
                         ``q(k) x(k+1) - r(k-1) x(k) = p(k)`` by back-
                         substitution: the system is triangular with at most
                         one zero pivot, whose unknown the rows left over fix.
4. ``synthesize_certificate`` -- reassemble ``R = (r(k-1) x(k) / p(k))(s - 1)``
                         and accept it only after the full verifier passes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, gcd as _igcd, lcm as _ilcm
from typing import Optional, Sequence

from .algebra import Poly2, RatFunc2, Rat
from .terms import (factor_product, shift_quotient_k_parts, shift_quotient_n,
                    shift_quotient_n_parts)
from .unipoly import RatFn, UniPoly, interpolate
from .wz import CertReport, WZIdentity, verify_certificate

__all__ = [
    "DegenerateRatio",
    "GosperResult",
    "UniPolyQn",
    "dispersion_candidates",
    "gosper_normal_form",
    "gosper_solve",
    "h_ratio",
    "synthesize_certificate",
]


class DegenerateRatio(ArithmeticError):
    """The WZ difference vanishes identically, so there is nothing to sum."""


# -- polynomials in k over the field Q(n) -------------------------------------


def _ratfn(x) -> RatFn:
    if isinstance(x, RatFn):
        return x
    return RatFn.const(x)


class UniPolyQn:
    """Dense polynomial in k whose coefficients are rational functions of n."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[RatFn | Rat | int] = ()):
        cs = [_ratfn(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs: tuple[RatFn, ...] = tuple(cs)

    # construction helpers
    @classmethod
    def const(cls, c) -> "UniPolyQn":
        return cls([_ratfn(c)])

    @classmethod
    def from_poly2(cls, p: Poly2) -> "UniPolyQn":
        out = []
        for col in p.coeffs_in_k():
            width = max(col) + 1 if col else 0
            out.append(RatFn(UniPoly([col.get(i, 0) for i in range(width)]), 1))
        return cls(out)

    # structure
    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> RatFn:
        if not self.coeffs:
            return RatFn.const(0)
        return self.coeffs[-1]

    def coeff(self, i: int) -> RatFn:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return RatFn.const(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPolyQn) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPolyQn({list(self.coeffs)!r})"

    # arithmetic
    def __add__(self, other: "UniPolyQn") -> "UniPolyQn":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPolyQn(out)

    def __neg__(self) -> "UniPolyQn":
        return UniPolyQn([-c for c in self.coeffs])

    def __sub__(self, other: "UniPolyQn") -> "UniPolyQn":
        return self + (-other)

    def __mul__(self, other: "UniPolyQn") -> "UniPolyQn":
        if self.is_zero or other.is_zero:
            return UniPolyQn()
        out = [RatFn.const(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero:
                    continue
                out[i + j] = out[i + j] + a * b
        return UniPolyQn(out)

    def shift(self, delta) -> "UniPolyQn":
        """Substitute k -> k + delta for a rational constant delta."""
        delta = Fraction(delta)
        if not self.coeffs or delta == 0:
            return self
        out = [RatFn.const(0)] * len(self.coeffs)
        for i, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            power = Fraction(1)
            for t in range(i, -1, -1):
                out[t] = out[t] + c * (comb(i, t) * power)
                power *= delta
        return UniPolyQn(out)

    def divrem(self, other: "UniPolyQn") -> tuple["UniPolyQn", "UniPolyQn"]:
        """Euclidean division; exact because the coefficients form a field."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree()
        inv_lc = RatFn.const(1) / other.lc
        q = [RatFn.const(0)] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c.is_zero:
                continue
            factor = c * inv_lc
            q[i - d] = factor
            for j, oc in enumerate(other.coeffs):
                rem[i - d + j] = rem[i - d + j] - factor * oc
        return UniPolyQn(q), UniPolyQn(rem)

    def divexact(self, other: "UniPolyQn") -> "UniPolyQn":
        q, r = self.divrem(other)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q

    def eval_n(self, n0: Rat) -> UniPoly:
        """Specialize n, returning a univariate polynomial in k over Q.

        Raises ZeroDivisionError if any coefficient denominator vanishes.
        """
        return UniPoly([c.eval(n0) for c in self.coeffs])

    def clear_denominators(self) -> tuple[list[UniPoly], UniPoly]:
        """Return (coefficients scaled to Q[n], common multiplier L(n))."""
        L = UniPoly.const(1)
        for c in self.coeffs:
            L = L.lcm(c.den)
        return [c.num * L.exact_div(c.den) for c in self.coeffs], L

    def to_ratfunc2(self) -> RatFunc2:
        """Express as a bivariate quotient num(n,k)/den(n)."""
        cleared, L = self.clear_denominators()
        terms: dict[tuple[int, int], Fraction] = {}
        for j, c in enumerate(cleared):
            for i, a in enumerate(c.c):
                if a:
                    terms[(i, j)] = a
        return RatFunc2(Poly2(terms), _unipoly_to_poly2_n(L))


def _unipoly_to_poly2_n(p: UniPoly) -> Poly2:
    return Poly2({(i, 0): c for i, c in enumerate(p.c) if c})


# -- exact gcd over Q(n)[k] via evaluation and interpolation -------------------


def _gcd_uqn(f: UniPolyQn, g: UniPolyQn) -> UniPolyQn:
    """Gcd of two nonzero polynomials in Q(n)[k].

    Strategy: specialize n at sample points, take cheap univariate gcds over
    Q, interpolate the coefficients back to Q[n], and confirm by exact
    division.  Unlucky sample points can only raise the specialized gcd
    degree, so keeping the samples of minimal degree and verifying the
    division makes the result exact.  Returns a constant 1 when coprime.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("gcd of a zero polynomial is not needed here")
    fc, _ = f.clear_denominators()
    gc, _ = g.clear_denominators()
    lcf, lcg = fc[-1], gc[-1]
    gamma = lcf.gcd(lcg)
    deg_bound = gamma.degree + max(
        max(c.degree for c in fc), max(c.degree for c in gc)
    )
    need = deg_bound + 1
    samples: dict[Fraction, UniPoly] = {}
    dstar: Optional[int] = None
    n0 = Fraction(1)
    attempts = 0
    while True:
        n0 += 1
        attempts += 1
        if attempts > 50 * (deg_bound + 4):
            raise RuntimeError("gcd interpolation failed to stabilize")
        if not lcf.eval(n0) or not lcg.eval(n0) or not gamma.eval(n0):
            continue
        fi = UniPoly([c.eval(n0) for c in fc])
        gi = UniPoly([c.eval(n0) for c in gc])
        hi = fi.gcd(gi)
        di = hi.degree
        if di == 0:
            return UniPolyQn.const(1)
        if dstar is None or di < dstar:
            dstar = di
            samples = {}
        if di > dstar:
            continue
        samples[n0] = hi.monic() * gamma.eval(n0)
        if len(samples) < need:
            continue
        cand = _interp_candidate(samples, dstar)
        if cand is not None:
            try:
                f.divexact(cand)
                g.divexact(cand)
                return cand
            except ArithmeticError:
                pass
        need += 4


def _interp_candidate(
    samples: dict[Fraction, UniPoly], deg_k: int
) -> Optional[UniPolyQn]:
    pts = sorted(samples.items())
    coeffs_n: list[UniPoly] = []
    for i in range(deg_k + 1):
        series = [(x, h.coeff(i)) for x, h in pts]
        coeffs_n.append(interpolate(series))
    # strip the content over Q[n] so the factor is primitive
    content = UniPoly()
    for c in coeffs_n:
        if c.is_zero:
            continue
        content = c if content.is_zero else content.gcd(c)
        if content.degree == 0:
            break
    if content.is_zero:
        return None
    if content.degree > 0:
        coeffs_n = [c.exact_div(content) for c in coeffs_n]
    return UniPolyQn([RatFn(c, 1) for c in coeffs_n])


# -- dispersion ----------------------------------------------------------------


_DISP_PRIME = (1 << 61) - 1


def _poly_mod(p: UniPoly, prime: int) -> Optional[list[int]]:
    out = []
    for c in p.c:
        den = c.denominator % prime
        if den == 0:
            return None
        out.append(c.numerator * pow(den, -1, prime) % prime)
    while out and not out[-1]:
        out.pop()
    return out


def _gcd_degree_mod(a: list[int], b: list[int], prime: int) -> int:
    while b:
        inv = pow(b[-1], -1, prime)
        db = len(b) - 1
        r = list(a)
        while len(r) - 1 >= db and r:
            f = r[-1] * inv % prime
            off = len(r) - 1 - db
            for i, bc in enumerate(b):
                r[off + i] = (r[off + i] - f * bc) % prime
            while r and not r[-1]:
                r.pop()
        a, b = b, r
    return len(a) - 1


def _shift_mod(p: list[int], j: int, prime: int) -> list[int]:
    out = [0] * len(p)
    for i, c in enumerate(p):
        if not c:
            continue
        power = 1
        for t in range(i, -1, -1):
            out[t] = (out[t] + c * comb(i, t) % prime * power) % prime
            power = power * j % prime
    while out and not out[-1]:
        out.pop()
    return out


def _root_bound(p: UniPoly) -> int:
    """Integer upper bound on the magnitude of the complex roots of p.

    Fujiwara's bound 2 * max_i |c_{d-i}/c_d|^(1/i) stays within a factor two
    of the largest root, so it is safe to evaluate in floating point with a
    small safety margin (an overestimate only lengthens the candidate scan).
    """
    d = p.degree
    if d <= 0:
        return 0
    lead = abs(p.lc)
    best = 0.0
    for i in range(1, d + 1):
        c = abs(p.coeff(d - i))
        if not c:
            continue
        ratio = c / lead
        # log-space to dodge float overflow on huge rational coefficients
        log_mag = (math.log(ratio.numerator) - math.log(ratio.denominator)) / i
        best = max(best, math.exp(log_mag))
    return int(2.0 * best * 1.001) + 2


def dispersion_candidates(q: UniPolyQn, r: UniPolyQn) -> list[int]:
    """Integers j >= 0 at which gcd(q(k), r(k+j)) might be nontrivial.

    The true dispersion set is the set of nonnegative integer roots of
    Res_k(q(n,k), r(n,k+j)) as a polynomial in j over Q(n).  A resultant that
    vanishes identically vanishes at every specialization of n, so probing a
    single n0 where neither leading coefficient drops degree cannot miss a
    true dispersion; it can only contribute spurious j, and every candidate
    is confirmed with an exact gcd over Q(n) by the caller.  Integer roots of
    the specialized resultant are root differences of the specialized
    polynomials, so they are bounded by the sum of the two Cauchy root
    bounds; each j in that range is tested with a gcd-degree probe modulo a
    large prime (the resultant vanishes mod p iff the reductions share a
    factor), which keeps the scan quadratic in the degrees.
    """
    if q.is_zero or r.is_zero or q.degree() == 0 or r.degree() == 0:
        return []
    qc, _ = q.clear_denominators()
    rc, _ = r.clear_denominators()
    prime = _DISP_PRIME
    n0 = 0
    while True:
        n0 += 1
        if n0 > 10000:
            raise RuntimeError("could not find a good specialization point")
        if not qc[-1].eval(Fraction(n0)) or not rc[-1].eval(Fraction(n0)):
            continue
        q0 = UniPoly([c.eval(Fraction(n0)) for c in qc])
        r0 = UniPoly([c.eval(Fraction(n0)) for c in rc])
        qm = _poly_mod(q0, prime)
        rm = _poly_mod(r0, prime)
        if qm is None or rm is None or len(qm) - 1 != q.degree() or len(rm) - 1 != r.degree():
            continue
        bound = _root_bound(q0) + _root_bound(r0)
        out = []
        for j in range(bound + 1):
            if _gcd_degree_mod(qm, _shift_mod(rm, j, prime), prime) > 0:
                out.append(j)
        return out


# -- normal form ---------------------------------------------------------------


def _normal_form_impl(
    ratio: RatFunc2,
) -> tuple[UniPolyQn, UniPolyQn, UniPolyQn, tuple[int, ...]]:
    f = UniPolyQn.from_poly2(ratio.num)
    g = UniPolyQn.from_poly2(ratio.den)
    if f.is_zero:
        raise DegenerateRatio("zero shift ratio")
    p = UniPolyQn.const(1)
    candidates = sorted(set(dispersion_candidates(f, g)) | {0})
    confirmed: list[int] = []
    for j in candidates:
        if f.degree() == 0 or g.degree() == 0:
            break
        d = _gcd_uqn(f, g.shift(j))
        if d.degree() <= 0:
            continue
        confirmed.append(j)
        f = f.divexact(d)
        g = g.divexact(d.shift(-j))
        for l in range(1, j + 1):
            p = p * d.shift(-l)
    # postcondition: no shifted common factor may survive
    for j in candidates:
        if f.degree() > 0 and g.degree() > 0 and _gcd_uqn(f, g.shift(j)).degree() > 0:
            raise RuntimeError(f"normal form postcondition failed at shift {j}")
    return p, f, g, tuple(confirmed)


def gosper_normal_form(
    ratio: RatFunc2,
) -> tuple[UniPolyQn, UniPolyQn, UniPolyQn]:
    """Write ratio(k) = (q(k)/r(k)) * (p(k+1)/p(k)) in Gosper normal form.

    Returns (p, q, r) with gcd(q(k), r(k+j)) = 1 for all integers j >= 0.
    Constant factors stay inside q, so no separate scalar is returned.
    """
    p, q, r, _ = _normal_form_impl(ratio)
    return p, q, r


# -- polynomial solver ---------------------------------------------------------


def _degree_bound(p: UniPolyQn, q: UniPolyQn, rm1: UniPolyQn) -> int:
    """Upper bound for deg x in q(k) x(k+1) - r(k-1) x(k) = p(k)."""
    N, M, K = q.degree(), rm1.degree(), p.degree()
    if N != M or q.lc != rm1.lc:
        return K - max(N, M)
    if N == 0:
        return max(K - N + 1, 0)
    sigma = (rm1.coeff(N - 1) - q.coeff(N - 1)) / q.lc
    choices = [K - N + 1]
    if sigma.is_constant:
        s = sigma.as_const()
        if s.denominator == 1 and s >= 0:
            choices.append(int(s))
    return max(choices)


def _back_substitute(
    rest: UniPolyQn, images: list[UniPolyQn], pivots: list[RatFn], top: int,
    skip: Optional[int],
) -> tuple[list[RatFn], UniPolyQn]:
    """Solve L(x) = rest for x_d, ..., x_0 in turn, x_i from the coefficient
    of k^(i+top), leaving out the zero-pivot column ``skip``.  Returns x and
    the rows left over."""
    x = [RatFn.const(0)] * len(images)
    for i in range(len(images) - 1, -1, -1):
        if i != skip and not rest.coeff(i + top).is_zero:
            x[i] = rest.coeff(i + top) / pivots[i]
            rest = rest - UniPolyQn([x[i]]) * images[i]
    return x, rest


def gosper_solve(p: UniPolyQn, q: UniPolyQn, r: UniPolyQn) -> Optional[UniPolyQn]:
    """Find polynomial x(k) with q(k) x(k+1) - r(k-1) x(k) = p(k).

    The images L(k^i) = q(k)(k+1)^i - r(k-1)k^i have degree at most i + top,
    so the system is triangular and x_i is read off the coefficient of
    k^(i+top), from x_d down.  That pivot vanishes for at most one i = sigma,
    and only when lc(q) = lc(r(k-1)); x_sigma is then fixed by the rows the
    back-substitution leaves over.  If those rows leave it free, the equation
    has a polynomial kernel (the WZ difference is rational in k), and the
    solution with x(0) = 0 is chosen, so that the certificate vanishes at
    k = 0.  Returns None when no polynomial solution exists within the
    degree bound.
    """
    rm1 = r.shift(-1)
    d = _degree_bound(p, q, rm1)
    if d < 0:
        return None
    top = max(q.degree(), rm1.degree())
    if q.degree() == rm1.degree() and q.lc == rm1.lc:
        top -= 1
    images = [q * UniPolyQn([comb(i, t) for t in range(i + 1)])
              - UniPolyQn([0] * i + list(rm1.coeffs)) for i in range(d + 1)]
    pivots = [f.coeff(i + top) for i, f in enumerate(images)]
    sigma = next((i for i, c in enumerate(pivots) if c.is_zero), None)
    xs, rest = _back_substitute(p, images, pivots, top, sigma)
    if sigma is not None:
        # the direction h = k^sigma + g, with L(g) = -L(k^sigma) on the pivot rows
        hs, rest_h = _back_substitute(-images[sigma], images, pivots, top, sigma)
        hs[sigma] = RatFn.const(1)
        if not rest_h.is_zero:
            t = -rest.coeff(rest_h.degree()) / rest_h.lc
        elif not hs[0].is_zero:
            t = -xs[0] / hs[0]  # h is a kernel element: choose x(0) = 0
        else:
            t = RatFn.const(0)
        xs = [a + t * b for a, b in zip(xs, hs)]
        rest = rest + UniPolyQn([t]) * rest_h
    if not rest.is_zero:
        return None
    x = UniPolyQn(xs)
    # independent confirmation of the recurrence
    if q * x.shift(1) - rm1 * x != p:
        raise RuntimeError("solver produced a non-solution")
    return x


# -- ratio assembly with factored cancellation ----------------------------------


def _canonical_factor(p: Poly2) -> tuple[tuple, Fraction]:
    """Split p = scale * primitive with integer, coprime, sign-fixed primitive."""
    items = sorted(p.terms.items())
    if not items:
        return ((), Fraction(0))
    den_lcm = 1
    for _, c in items:
        den_lcm = _ilcm(den_lcm, c.denominator)
    ints = [c * den_lcm for _, c in items]
    g = 0
    for c in ints:
        g = _igcd(g, int(c))
    lead = max(p.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]))
    sign = -1 if lead[1] < 0 else 1
    scale = Fraction(sign * g, den_lcm)
    key = tuple((mono, c / (sign * g)) for mono, c in items)
    return key, scale


def _cancel_common(
    num: list[Poly2], den: list[Poly2]
) -> tuple[list[Poly2], list[Poly2], Fraction]:
    """Remove factors shared up to a constant; returns the constant ratio."""
    scalar = Fraction(1)
    den_index: dict[tuple, list[int]] = {}
    for i, f in enumerate(den):
        key, _ = _canonical_factor(f)
        den_index.setdefault(key, []).append(i)
    keep_num: list[Poly2] = []
    dropped_den: set[int] = set()
    for f in num:
        key, s_num = _canonical_factor(f)
        slots = den_index.get(key)
        if slots:
            i = slots.pop()
            dropped_den.add(i)
            _, s_den = _canonical_factor(den[i])
            scalar *= s_num / s_den
        else:
            keep_num.append(f)
    keep_den = [f for i, f in enumerate(den) if i not in dropped_den]
    return keep_num, keep_den, scalar


def h_ratio(ident: WZIdentity) -> RatFunc2:
    """Shift quotient H(k+1)/H(k) of the WZ difference, as a reduced-by-
    construction bivariate quotient.

    With s the n-shift quotient and r_k the k-shift quotient of the summand,
    H(k+1)/H(k) = r_k(k) * (s(k+1) - 1)/(s(k) - 1).  Building it from the
    factored parts lets long Pochhammer chains cancel without expansion.
    """
    rk_num, rk_den, z = shift_quotient_k_parts(ident.term)
    _, s_den, _ = shift_quotient_n_parts(ident.term, ident.rhs)
    s = shift_quotient_n(ident.term, ident.rhs)
    w = s.num - s.den
    if w.is_zero:
        raise DegenerateRatio("n-shift quotient is identically 1")
    num_parts = list(rk_num) + list(s_den)
    den_parts = list(rk_den) + [f.shift("k", 1) for f in s_den]
    num_parts, den_parts, scalar = _cancel_common(num_parts, den_parts)
    num = factor_product(num_parts, z * scalar) * w.shift("k", 1)
    den = factor_product(den_parts) * w
    return RatFunc2(num, den)


# -- synthesis -----------------------------------------------------------------


@dataclass(frozen=True)
class GosperResult:
    """Outcome of a certificate synthesis run.

    status is one of
      "Summable"    certificate present and fully verified;
      "NotSummable" no polynomial solution within the degree bound;
      "NotProved"   the synthesized certificate satisfies the WZ relation but
                    fails the boundary column or the base case, so it proves
                    nothing (the closed form is wrong); certificate is None
                    and report says which check failed.
    A degenerate input (WZ difference identically zero) raises DegenerateRatio
    instead of producing a result.
    """

    status: str
    certificate: Optional[RatFunc2]
    degree_bound_used: int
    dispersion_set: tuple[int, ...]
    report: Optional[CertReport] = None


def _certificate_from_solution(
    ident: WZIdentity, x: UniPolyQn, p: UniPolyQn, r: UniPolyQn
) -> RatFunc2:
    """Assemble R = (r(k-1) x(k) / p(k)) * (s - 1)."""
    a = (r.shift(-1) * x).to_ratfunc2()
    b = p.to_ratfunc2()
    s = shift_quotient_n(ident.term, ident.rhs)
    return RatFunc2(a.num * b.den * (s.num - s.den), a.den * b.num * s.den)


def synthesize_certificate(ident: WZIdentity, *, n_scan: int = 12) -> GosperResult:
    """Run the full pipeline and return a verified certificate when one exists.

    The result carries status "Summable" only if the reassembled certificate
    passes the same verifier used for catalog certificates (symbolic residual,
    k=0 column, base case).  A failed boundary or base case gives "NotProved";
    a failed symbolic check can only come from a solver bug and raises
    RuntimeError.
    """
    ratio = h_ratio(ident)
    p, q, r, confirmed = _normal_form_impl(ratio)
    bound = _degree_bound(p, q, r.shift(-1))
    x = gosper_solve(p, q, r)
    if x is None:
        return GosperResult("NotSummable", None, bound, confirmed)
    cert = _certificate_from_solution(ident, x, p, r)
    trial = replace(ident, certificate=cert)
    report = verify_certificate(trial, n_scan=n_scan)
    if not report.symbolic_ok:
        raise RuntimeError(
            f"synthesized certificate failed verification: {report.failure_detail}"
        )
    if not (report.boundary_ok and report.base_case_ok):
        return GosperResult("NotProved", None, bound, confirmed, report)
    return GosperResult("Summable", cert, bound, confirmed, report)
