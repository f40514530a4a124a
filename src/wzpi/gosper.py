"""Certificate synthesis for the telescoping identities, built on Gosper's
algorithm with coefficients that depend on n.

The summand of each identity is hypergeometric in k, so the difference
``H(k) = Fhat(n+1, k) - Fhat(n, k)`` (with ``Fhat`` the summand divided by the
closed form) is hypergeometric as well: ``H(k+1)/H(k)`` is a rational function
of k with coefficients in Q(n).  Gosper's algorithm decides whether H has a
hypergeometric antidifference ``T`` with ``T(k+1) - T(k) = H(k)``; when it
does, ``T(k) = y(k) * H(k)`` for a rational function y, and the telescoping
certificate is ``R = y * (s - 1)`` where ``s`` is the n-shift quotient of the
normalized summand.  Every factor of that ratio is linear in n and k, so the
algorithm runs in Q[n][k] on ``Poly2`` and never divides in Q(n).

Pipeline (names follow the classical presentation):

1. ``h_ratio``        -- factor ``rho(k) = H(k+1)/H(k)`` as
                         ``z * prod(top)/prod(bottom) * w(k+1)/w(k)``, top
                         and bottom lists of primitive int triples (e, a, c)
                         for e*k + a*n + c, e > 0; only w is expanded.
2. ``gosper_normal_form`` -- write ``rho = (q(k)/r(k)) * (p(k+1)/p(k))`` with
                         ``gcd(q(k), r(k+j)) = 1`` for every integer j >= 0.
                         p starts as w and equal triples cancel.  Then each
                         top triple (e, a, c) is paired with a bottom triple
                         (e, a, c') at the smallest positive integer
                         j = (c - c')/e (see ``dispersion_candidates``), whose
                         shifts by 0..j-1 move into p, which keeps w's
                         content in Q[n] (the assembly cancels it).  p, q
                         and r are each one ``algebra.sum_of_products``,
                         wrapped in ``unipoly.UniPolyQn`` for the probes.
3. ``gosper_solve``   -- degree-bound the unknown polynomial x(k) and solve
                         ``q(k) x(k+1) - r(k-1) x(k) = p(k)`` by back-
                         substitution on ``Poly2`` without fractions: the
                         system is triangular with at most one zero pivot,
                         whose unknown the rows left over fix; returns
                         x = X(n,k)/D(n), confirmed by one packed int that
                         must be 0, and the bound d it solved at.
4. ``synthesize_certificate`` -- assemble ``R = (r(k-1) x(k) / p(k))(s - 1)``
                         in lowest terms from the triples,
                         ``terms.split_factors`` and one int gcd in Q[n]
                         (``algebra.gcd_n``; *A = B* ch. 5-7), its
                         denominator left as its factors; accept it only
                         after the full verifier passes.
"""
from __future__ import annotations

import math
from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .algebra import KShifted, Poly2, Product, RatFunc2, Rat, _lowest, gcd_n, sum_of_products
from .terms import Triple, multiplier, split_factors
from .unipoly import UniPolyQn
from .wz import CertReport, WZIdentity, verify_certificate

__all__ = [
    "DegenerateRatio",
    "GosperResult",
    "dispersion_candidates",
    "gosper_normal_form",
    "gosper_solve",
    "h_ratio",
    "synthesize_certificate",
]


class DegenerateRatio(ArithmeticError):
    """The WZ difference vanishes identically, so there is nothing to sum."""


def _k_times(f: Poly2, i: int) -> Poly2:
    """f * k^i, by moving the exponents."""
    return _lowest({(a, b + i): c for (a, b), c in f.ints.items()}, f.den)


def _lc(f: Poly2) -> Poly2:
    """The leading coefficient in k, a polynomial in n."""
    return f.k_coeff(f.degree("k"))


# -- normal form ---------------------------------------------------------------


def dispersion_candidates(
    top: list[Triple], bottom: list[Triple]
) -> list[tuple[Triple, Triple, int]]:
    """Pair top triples with bottom triples shifted by a positive integer j
    in k, smallest j first, each triple used at most once.

    A triple (e, a, c) is e*k + a*n + c, primitive with e > 0, so
    gcd(top(k), bottom(k+j)) is nontrivial exactly when the two share (e, a)
    and j = (c - c')/e: the dispersion computation of Gosper's algorithm,
    done exactly by one divmod.  Returns the pairs as (top, bottom, j); each
    one moves the bottom triple's shifts by 0..j-1 into p.
    """
    gaps = []
    for i, (e, a, c) in enumerate(top):
        for m, (e2, a2, c2) in enumerate(bottom):
            if e == e2 and a == a2:
                j, rest = divmod(c - c2, e)
                if j > 0 and not rest:
                    gaps.append((j, i, m))
    free_top, free_bottom = set(range(len(top))), set(range(len(bottom)))
    pairs = []
    for j, i, m in sorted(gaps):
        if i in free_top and m in free_bottom:
            free_top.remove(i)
            free_bottom.remove(m)
            pairs.append((top[i], bottom[m], j))
    return pairs


# the ratio once its dispersion pairs moved ``moved`` into p = w prod(moved)
FactorLists = namedtuple("FactorLists", "z top bottom w moved shifts")


def _pair_factors(ratio: tuple[Rat, list[Triple], list[Triple], Poly2]) -> FactorLists:
    z, top, bottom, w = ratio
    if not z:
        raise DegenerateRatio("zero shift ratio")
    common = Counter(top) & Counter(bottom)
    top = list((Counter(top) - common).elements())
    bottom = list((Counter(bottom) - common).elements())
    # w(k+1)/w(k) moves all of w into p, at shift 1
    moved = []
    shifts = {1} if w.degree("k") > 0 else set()
    for a, b, j in dispersion_candidates(top, bottom):
        top.remove(a)
        bottom.remove(b)
        moved += [(b[0], b[1], b[2] + l * b[0]) for l in range(j)]
        shifts.add(j)
    return FactorLists(z, top, bottom, w, moved, tuple(sorted(shifts)))


def _normal_form_impl(
    lists: FactorLists,
) -> tuple[UniPolyQn, UniPolyQn, UniPolyQn, tuple[int, ...]]:
    p = UniPolyQn(sum_of_products([(1, [*lists.moved, lists.w])]))
    q = UniPolyQn(sum_of_products([(lists.z, lists.top)]))
    r = UniPolyQn(sum_of_products([(1, lists.bottom)]))
    return p, q, r, lists.shifts


def gosper_normal_form(
    ratio: tuple[Rat, list[Triple], list[Triple], Poly2],
) -> tuple[UniPolyQn, UniPolyQn, UniPolyQn]:
    """Write ratio(k) = (q(k)/r(k)) * (p(k+1)/p(k)) in Gosper normal form.

    ``ratio`` is (z, top, bottom, w), as ``h_ratio`` returns it:
    z * prod(top)/prod(bottom) * w(k+1)/w(k), with top and bottom lists of
    triples (e, a, c) for e*k + a*n + c, e > 0.  Returns (p, q, r) with
    gcd(q(k), r(k+j)) = 1 for all integers j >= 0.  p is w times the triples
    the dispersion pairs moved, with w's content in Q[n] left in it.
    Constant factors stay inside q, so no separate scalar is returned.
    """
    p, q, r, _ = _normal_form_impl(_pair_factors(ratio))
    return p, q, r


# -- polynomial solver ---------------------------------------------------------


def _degree_bound(p: UniPolyQn, q: UniPolyQn, rm1: UniPolyQn) -> int:
    """Upper bound for deg x in q(k) x(k+1) - r(k-1) x(k) = p(k), read off
    the ``poly`` of each argument."""
    P, Q, RM1 = p.poly, q.poly, rm1.poly
    N, M, K = Q.degree("k"), RM1.degree("k"), P.degree("k")
    if N != M or _lc(Q) != _lc(RM1):
        return K - max(N, M)
    if N == 0:
        return max(K - N + 1, 0)
    # sigma = (r(k-1)_{N-1} - q_{N-1}) / lc(q) counts only if it is a constant
    diff, lc = RM1.k_coeff(N - 1) - Q.k_coeff(N - 1), _lc(Q)
    sigma = diff.coeff(lc.degree("n"), 0) / lc.coeff(lc.degree("n"), 0)
    if diff == lc * sigma and sigma.denominator == 1 and sigma >= 0:
        return max(K - N + 1, int(sigma))
    return K - N + 1


def _eliminate(rhs: Poly2, images: list[Poly2], pivots: list[Poly2], top: int,
               skip: Optional[int]) -> tuple[Poly2, Poly2, Poly2]:
    """Back-substitution without fractions: X(n, k), D(n) and rest with
    L(X) + rest = D * rhs, taking x_i from the coefficient of k^(i+top) for
    i = d..0 and leaving out the zero-pivot column ``skip``.  A constant pivot
    divides the step's multiplier; a pivot in n multiplies X, rest and D."""
    X, D, rest = Poly2(), Poly2.const(1), rhs
    for i in range(len(images) - 1, -1, -1):
        a = rest.k_coeff(i + top)
        if i == skip or a.is_zero:
            continue
        if pivots[i].degree("n") > 0:
            X, D, rest = X * pivots[i], D * pivots[i], rest * pivots[i]
        else:
            a = a * (1 / pivots[i].coeff(0, 0))
        X = X + _k_times(a, i)
        rest = rest - a * images[i]
    return X, D, rest


def gosper_solve(p: UniPolyQn, q: UniPolyQn, r: UniPolyQn) -> tuple[Optional[RatFunc2], int]:
    """Find x(k) = X(n, k) / D(n), polynomial in k, with
    q(k) x(k+1) - r(k-1) x(k) = p(k).

    p, q and r are ``UniPolyQn``, as ``gosper_normal_form`` returns them; the
    solve runs in the Poly2 arithmetic of their ``poly``.  The images
    L(k^i) = q(k)(k+1)^i - r(k-1)k^i have degree at most i + top, so the
    system is triangular and x_i is read off the coefficient of k^(i+top),
    from x_d down.  That pivot is free of k; it vanishes for at most one
    i = sigma, and only when lc(q) = lc(r(k-1)); x_sigma is then fixed by
    the rows the back-substitution leaves over.  If those rows leave it free,
    the equation has a polynomial kernel (the WZ difference is rational in
    k), and the solution with x(0) = 0 is chosen, so that the certificate
    vanishes at k = 0.  Returns (x, d) with d the degree bound, x None when
    no polynomial solution exists within it.  The solution is confirmed as one
    ``sum_of_products`` (X(n, k + 1) a ``KShifted``) whose int must be 0.
    """
    rm1 = r.shift(-1)
    d = _degree_bound(p, q, rm1)
    P, Q, RM1 = p.poly, q.poly, rm1.poly
    if d < 0:
        return None, d
    top = max(Q.degree("k"), RM1.degree("k"))
    if Q.degree("k") == RM1.degree("k") and _lc(Q) == _lc(RM1):
        top -= 1
    # Q (k+1)^i by shift-and-add from Q (k+1)^(i-1), RM1 k^i by moving exponents
    ups = accumulate(range(d), lambda f, _: _k_times(f, 1) + f, initial=Q)
    images = [up - _k_times(RM1, i) for i, up in enumerate(ups)]
    pivots = [f.k_coeff(i + top) for i, f in enumerate(images)]
    sigma = next((i for i, c in enumerate(pivots) if c.is_zero), None)
    X, D, rest = _eliminate(P, images, pivots, top, sigma)
    if sigma is not None:
        # the direction h = Dh k^sigma + Xh has L(h) = -rest_h; x becomes
        # (u X - v h) / (u D), with u, v chosen to clear the top row of rest
        Xh, Dh, rest_h = _eliminate(-images[sigma], images, pivots, top, sigma)
        h = _k_times(Dh, sigma) + Xh
        if not rest_h.is_zero:
            u, v = _lc(rest_h), rest.k_coeff(rest_h.degree("k"))
        else:  # h is a kernel element: choose x(0) = 0 if h(0) is not 0
            u, v = h.k_coeff(0), X.k_coeff(0)
        if not u.is_zero:
            X, D, rest = u * X - v * h, u * D, u * rest - v * rest_h
    if not rest.is_zero:
        return None, d
    # independent confirmation of the recurrence: one packed int, which must be 0
    if not sum_of_products([(1, [Q, KShifted(X)]), (-1, [RM1, X]), (-1, [D, P])]).is_zero:
        raise RuntimeError("solver produced a non-solution")
    return RatFunc2(X, D), d


# -- ratio assembly ---------------------------------------------------------------


def h_ratio(ident: WZIdentity) -> tuple[Rat, list[Triple], list[Triple], Poly2]:
    """Shift quotient H(k+1)/H(k) of the WZ difference, in factored form.

    With s the n-shift quotient and r_k the k-shift quotient of the summand,
    H(k+1)/H(k) = r_k(k) * (s(k+1) - 1)/(s(k) - 1).  Returns (z, top,
    bottom, w) with H(k+1)/H(k) = z * prod(top)/prod(bottom) * w(k+1)/w(k):
    z is r_k's scale, top and bottom the triples with k of r_k and of den(s)
    (``ident.quotients``), and w = x * prod(s_num) - y * prod(s_den) for s's
    scale x/y, the numerator of s - 1, times the summand's multiplier p(k).
    """
    s_num, s_den, (x, y), k_num, k_den, z, _ = ident.quotients
    p = multiplier(ident.term)
    w = sum_of_products([(x, [*s_num, p]), (-y, [*s_den, p])])
    if w.is_zero:
        raise DegenerateRatio("n-shift quotient is identically 1")
    # factors of s without k cancel in (s(k+1) - 1)/(s(k) - 1)
    moving = [f for f in s_den if f[0]]
    return Fraction(*z), k_num + moving, k_den + [(e, a, c + e) for e, a, c in moving], w


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
    ident: WZIdentity, x: RatFunc2, lists: FactorLists
) -> RatFunc2:
    """R = r(k-1) x(k) (s - 1) / p(k) in lowest terms.  As p = w prod(moved)
    and s - 1 = w / (y * prod(s_den) * multiplier) for s's scale x/y,
    R = r(k-1) x(k) / (y * prod(s_den) * multiplier * prod(moved)): neither
    w nor p enters.  Equal triples of r(k-1) and the denominator cancel, and
    the denominator's factors with k, the multiplier as it is (4k + 1 stays),
    are divided out of the numerator by ``terms.split_factors``, each at most
    as often as it occurs.  What is left in n, w's content among it, cancels
    through the gcd over Q[n] (``gcd_n``) of the k-free part of the
    denominator and the numerator's k-columns, read off its ints.  One scale
    makes that part monic in n and each triple left below monic in k; the
    denominator goes to ``Product``, which keys it, as that scale and factors."""
    s_den, (_, y) = ident.quotients[1:3]
    p = multiplier(ident.term)
    kfree = [f for f in s_den if not f[0]] + ([p] if p.degree("k") <= 0 else [])
    above = Counter((e, a, c - e) for e, a, c in lists.bottom)
    below = Counter([f for f in lists.moved + s_den if f[0]] + ([p] if p.degree("k") > 0 else []))
    above, below = above - below, below - above
    *out, num = split_factors(sum_of_products([(1, [x.num, *above.elements()])]), below, below)
    left = list((below - Counter(out)).elements())
    d = sum_of_products([(y, [x.den, *kfree])])
    g = gcd_n([d, num])
    d = d.divide(g)
    scale = 1 / (d.coeff(d.degree("n"), 0) * math.prod(f[0] for f in left if type(f) is tuple))
    return RatFunc2(num.divide(g) * scale, Product(scale, [d, *left]))


def synthesize_certificate(ident: WZIdentity) -> GosperResult:
    """Run the full pipeline and return a verified certificate when one exists.

    The result carries status "Summable" only if the reassembled certificate
    passes the same verifier used for catalog certificates (symbolic residual,
    k=0 column, base case).  A failed boundary or base case gives "NotProved";
    a failed symbolic check can only come from a solver bug and raises
    RuntimeError.  ``degree_bound_used`` is the d ``gosper_solve`` returns.
    """
    lists = _pair_factors(h_ratio(ident))
    p, q, r, confirmed = _normal_form_impl(lists)
    x, bound = gosper_solve(p, q, r)
    if x is None:
        return GosperResult("NotSummable", None, bound, confirmed)
    cert = _certificate_from_solution(ident, x, lists)
    trial = ident.with_certificate(cert)
    report = verify_certificate(trial, n_scan=12)
    if not report.symbolic_ok:
        raise RuntimeError(
            f"synthesized certificate failed verification: {report.failure_detail}"
        )
    if not report.ok:
        return GosperResult("NotProved", None, bound, confirmed, report)
    return GosperResult("Summable", cert, bound, confirmed, report)
