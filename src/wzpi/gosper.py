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
                         ``z * prod(k+a_i)/prod(k+b_j) * w(k+1)/w(k)`` with
                         every a_i, b_j linear in n, without expanding it.
2. ``gosper_normal_form`` -- write ``rho = (q(k)/r(k)) * (p(k+1)/p(k))`` with
                         ``gcd(q(k), r(k+j)) = 1`` for every integer j >= 0.
                         p starts as w and equal factors cancel.  Then each
                         top factor k+a is paired with a bottom factor k+b at
                         the smallest positive integer j = a - b (see
                         ``dispersion_candidates``), and (k+b)...(k+b+j-1)
                         moves into p, which keeps w's content in Q[n]
                         (the assembly cancels it).  p, q and r are
                         ``UniPolyQn``, views of one ``Poly2`` each:
                         polynomials in k over Q[n].
3. ``gosper_solve``   -- degree-bound the unknown polynomial x(k) and solve
                         ``q(k) x(k+1) - r(k-1) x(k) = p(k)`` by back-
                         substitution on ``Poly2`` without fractions: the
                         system is triangular with at most one zero pivot,
                         whose unknown the rows left over fix; x = X(n,k)/D(n).
4. ``synthesize_certificate`` -- assemble ``R = (r(k-1) x(k) / p(k))(s - 1)``
                         as a ``Poly2`` quotient in lowest terms from the
                         factor lists (*A = B* ch. 5-7); accept it only after
                         the full verifier passes.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass, replace
from typing import Optional

from .algebra import Poly2, RatFunc2, Rat
from .terms import factor_product, multiplier, shift_quotient_k_parts, shift_quotient_n_parts
from .unipoly import RatFn, UniPoly
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


# -- polynomials in k with coefficients in Q[n] ---------------------------------


class UniPolyQn:
    """A polynomial in k with coefficients in Q[n], viewed through one Poly2.

    The solve reads ``poly`` and ``shift``, and only the tests read ``lc``;
    since the normal form stopped taking p's content, nothing in the package
    reads the columns.  The class stays only because the benchmark's probes read the
    normal form through ``eval_n``, ``coeffs`` and ``shift`` (and
    ``_degree_bound`` on it); it waits for ROADMAP item 1 to drop them."""

    __slots__ = ("poly",)

    def __init__(self, poly: Poly2):
        self.poly = poly

    def degree(self) -> int:
        return self.poly.degree("k")

    @property
    def lc(self) -> Poly2:
        return _lc(self.poly)

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


_K = Poly2.var("k")


def _unipoly_to_poly2_n(p: UniPoly) -> Poly2:
    return Poly2({(i, 0): c for i, c in enumerate(p.c) if c})


def _lc(f: Poly2) -> Poly2:
    """The leading coefficient in k, a polynomial in n."""
    return f.k_coeff(f.degree("k"))


# -- normal form ---------------------------------------------------------------


def dispersion_candidates(
    top: list[Poly2], bottom: list[Poly2]
) -> list[tuple[Poly2, Poly2, int]]:
    """Pair top factors k+a with bottom factors k+b whose difference a - b = j
    is a positive integer, smallest j first, each factor used at most once.

    Every factor is linear in k with unit leading coefficient, so
    gcd(k+a, k+b+j) is nontrivial exactly when a - b = j: this is the
    dispersion computation of Gosper's algorithm, done exactly.  Returns the
    pairs as (k+a, k+b, j); each one moves (k+b)...(k+b+j-1) into p.
    """
    gaps = []
    for i, a in enumerate(top):
        for m, b in enumerate(bottom):
            d = a - b
            j = d.coeff(0, 0)
            if d.degree("n") <= 0 and j > 0 and j.denominator == 1:
                gaps.append((int(j), i, m))
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


def _pair_factors(ratio: tuple[Rat, list[Poly2], list[Poly2], Poly2]) -> FactorLists:
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
        moved += [b + l for l in range(j)]
        shifts.add(j)
    return FactorLists(z, top, bottom, w, moved, tuple(sorted(shifts)))


def _normal_form_impl(
    lists: FactorLists,
) -> tuple[UniPolyQn, UniPolyQn, UniPolyQn, tuple[int, ...]]:
    p = UniPolyQn(factor_product(lists.moved) * lists.w)
    q = UniPolyQn(factor_product(lists.top, lists.z))
    r = UniPolyQn(factor_product(lists.bottom))
    return p, q, r, lists.shifts


def gosper_normal_form(
    ratio: tuple[Rat, list[Poly2], list[Poly2], Poly2],
) -> tuple[UniPolyQn, UniPolyQn, UniPolyQn]:
    """Write ratio(k) = (q(k)/r(k)) * (p(k+1)/p(k)) in Gosper normal form.

    ``ratio`` is (z, top, bottom, w), as ``h_ratio`` returns it:
    z * prod(top)/prod(bottom) * w(k+1)/w(k), with top and bottom lists of
    factors k + a(n).  Returns (p, q, r) with gcd(q(k), r(k+j)) = 1 for all
    integers j >= 0.  p is w times the factors the dispersion pairs moved,
    with w's content in Q[n] left in it: lc_k(p) = lc_k(w).  Constant
    factors stay inside q, so no separate scalar is returned.
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
        X = X + a * _K ** i
        rest = rest - a * images[i]
    return X, D, rest


def gosper_solve(p: UniPolyQn, q: UniPolyQn, r: UniPolyQn) -> Optional[RatFunc2]:
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
    vanishes at k = 0.  Returns None when no polynomial solution exists
    within the degree bound.
    """
    rm1 = r.shift(-1)
    d = _degree_bound(p, q, rm1)
    P, Q, RM1 = p.poly, q.poly, rm1.poly
    if d < 0:
        return None
    top = max(Q.degree("k"), RM1.degree("k"))
    if Q.degree("k") == RM1.degree("k") and _lc(Q) == _lc(RM1):
        top -= 1
    images = [Q * (_K + 1) ** i - RM1 * _K ** i for i in range(d + 1)]
    pivots = [f.k_coeff(i + top) for i, f in enumerate(images)]
    sigma = next((i for i, c in enumerate(pivots) if c.is_zero), None)
    X, D, rest = _eliminate(P, images, pivots, top, sigma)
    if sigma is not None:
        # the direction h = Dh k^sigma + Xh has L(h) = -rest_h; x becomes
        # (u X - v h) / (u D), with u, v chosen to clear the top row of rest
        Xh, Dh, rest_h = _eliminate(-images[sigma], images, pivots, top, sigma)
        h = Dh * _K ** sigma + Xh
        if not rest_h.is_zero:
            u, v = _lc(rest_h), rest.k_coeff(rest_h.degree("k"))
        else:  # h is a kernel element: choose x(0) = 0 if h(0) is not 0
            u, v = h.k_coeff(0), X.k_coeff(0)
        if not u.is_zero:
            X, D, rest = u * X - v * h, u * D, u * rest - v * rest_h
    if not rest.is_zero:
        return None
    # independent confirmation of the recurrence
    if Q * X.shift("k", 1) - RM1 * X != D * P:
        raise RuntimeError("solver produced a non-solution")
    return RatFunc2(X, D)


# -- ratio assembly ---------------------------------------------------------------


def h_ratio(ident: WZIdentity) -> tuple[Rat, list[Poly2], list[Poly2], Poly2]:
    """Shift quotient H(k+1)/H(k) of the WZ difference, in factored form.

    With s the n-shift quotient and r_k the k-shift quotient of the summand,
    H(k+1)/H(k) = r_k(k) * (s(k+1) - 1)/(s(k) - 1).  Returns (z, top,
    bottom, w) with H(k+1)/H(k) = z * prod(top)/prod(bottom) * w(k+1)/w(k):
    top and bottom hold the factors k + a(n) of r_k and of the denominator of
    s, and w is numerator(s - 1) times the summand's multiplier p(k).
    """
    rk_num, rk_den, z = shift_quotient_k_parts(ident.term)
    s_num, s_den, scal = shift_quotient_n_parts(ident.term, ident.rhs)
    w = (factor_product(s_num, scal.numerator)
         - factor_product(s_den, scal.denominator)) * multiplier(ident.term)
    if w.is_zero:
        raise DegenerateRatio("n-shift quotient is identically 1")
    # factors of s without k cancel in (s(k+1) - 1)/(s(k) - 1)
    moving = [f for f in s_den if f.degree("k") > 0]
    return z, rk_num + moving, rk_den + [f.shift("k", 1) for f in moving], w


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
    and s - 1 = w / (den(s) * multiplier), R = r(k-1) x(k) / (den(s) *
    multiplier * prod(moved)) exactly: neither w nor p enters.  The
    factors with k of the denominator are divided out where they divide; Q[n]
    gcds with the columns of k, until one is 1, cancel what is left in n,
    the content of w among it."""
    _, s_den, scal = shift_quotient_n_parts(ident.term, ident.rhs)
    den = lists.moved + s_den + [multiplier(ident.term), Poly2.const(scal.denominator)]
    # equal factors of r(k-1) and the denominator cancel as list items
    above = Counter(b.shift("k", -1) for b in lists.bottom)
    below = Counter(f for f in den if f.degree("k") > 0)
    above, below = above - below, below - above
    num = x.num * factor_product(list(above.elements()))
    left = []
    for f in below.elements():
        quo = num.divide(f)
        if quo is None:
            left.append(f)
        else:
            num = quo
    kfree = factor_product([f for f in den if f.degree("k") <= 0])
    d = UniPoly((x.den * kfree).eval_k(0))
    g = d
    for j in range(num.degree("k") + 1):
        if g.degree == 0:
            break
        g = g.gcd(UniPoly(num.k_coeff(j).eval_k(0)))
    # the denominator d / g, made monic in n
    d = d.exact_div(g)
    num = num.divide(_unipoly_to_poly2_n(g * d.lc))
    return RatFunc2(num, _unipoly_to_poly2_n(d.monic()) * factor_product(left))


def synthesize_certificate(ident: WZIdentity) -> GosperResult:
    """Run the full pipeline and return a verified certificate when one exists.

    The result carries status "Summable" only if the reassembled certificate
    passes the same verifier used for catalog certificates (symbolic residual,
    k=0 column, base case).  A failed boundary or base case gives "NotProved";
    a failed symbolic check can only come from a solver bug and raises
    RuntimeError.
    """
    lists = _pair_factors(h_ratio(ident))
    p, q, r, confirmed = _normal_form_impl(lists)
    bound = _degree_bound(p, q, r.shift(-1))
    x = gosper_solve(p, q, r)
    if x is None:
        return GosperResult("NotSummable", None, bound, confirmed)
    cert = _certificate_from_solution(ident, x, lists)
    trial = replace(ident, certificate=cert)
    report = verify_certificate(trial, n_scan=12)
    if not report.symbolic_ok:
        raise RuntimeError(
            f"synthesized certificate failed verification: {report.failure_detail}"
        )
    if not report.ok:
        return GosperResult("NotProved", None, bound, confirmed, report)
    return GosperResult("Summable", cert, bound, confirmed, report)
