"""WZ-pair verification for terminating hypergeometric identities.

For a summand F(n, k) with row closed form RHS(n), let Fhat = F / RHS.  A
certificate R(n, k) proves the identity when   s - 1 = R(n,k+1) * r - R(n,k)
holds as a rational-function identity, where r = F(n,k+1)/F(n,k) and
s = Fhat(n+1,k)/Fhat(n,k).  That is the WZ relation
Fhat(n+1,k) - Fhat(n,k) = G(n,k+1) - G(n,k) with G = R * Fhat, divided
through by Fhat; cross-multiplication decides it exactly.  ``wz_residual``
builds it over the lcm of the three terms' denominators, on linear factors
carried as primitive int triples (e, a, c) for e*k + a*n + c, so the lcm
and the shift k -> k + 1 are int work on tuple keys.  Its numerator is one
``algebra.sum_of_products``, an int that is 0 exactly when the certificate
holds; its denominator is left unexpanded.  The certificate denominator's
keys (``den_split``) are those of the ``algebra.Product`` it was given as; only
one given expanded is split, by trial division, into a Product, once per
``WZIdentity``.  The boundary check and the scan for zeros on the support
read them.

The exact row sums are checked apart from any certificate, in one walk over
the rows on ints (``terms.term_sums``): each row sum is an unreduced int
quotient, the closed form an int pair moved from row to row by its n-ratio,
and the two are compared by cross-multiplication.  Fractions are built for
the values row_sum hands back and for the message of a mismatch.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .algebra import KShifted, Poly2, Product, Rat, RatFunc2, _horner, factor_key, sum_of_products
from .terms import (ClosedForm, HyperTerm, Triple, _termination_rows, multiplier, rhs_exact,
                    shift_quotient_n_triples, split_factors, term_sum, term_sums,
                    termination_bound)
from .terms import term_value  # noqa: F401  (perfbench/spans.py wraps wz.term_value)


class MissingCertificate(ValueError):
    """The requested check needs a certificate the identity does not carry."""


@dataclass(frozen=True)
class WZIdentity:
    """A summand with its closed form and certificate.  The factored shift
    quotients and the split of the certificate denominator are computed on
    first use and kept on the instance; ``dataclasses.replace`` makes a new
    instance, which computes its own, and ``with_certificate`` one that
    shares the quotients."""
    name: str
    term: HyperTerm
    rhs: Optional[ClosedForm]
    certificate: Optional[RatFunc2]
    carlson_a: Optional[int]
    kind: str  # "wz" (terminating, provable) or "numeric" (summation target only)

    @cached_property
    def quotients(self) -> tuple:
        """(s_num, s_den, s_scale, k_num, k_den, k_scale, p) with
        s = s_scale * prod(s_num)/prod(s_den) and F(n,k+1)/F(n,k) =
        k_scale * prod(k_num)/prod(k_den) * p(k+1)/p(k): the triples and int
        pair scales of ``terms.shift_quotient_n_triples`` and
        ``terms.shift_quotient_k_triples``, and p the key of the multiplier
        (``algebra.factor_key``), None for a constant; residual and synthesis read them."""
        return (*shift_quotient_n_triples(self.term, self.rhs), *self.term.k_factors,
                factor_key(multiplier(self.term))[0])

    @cached_property
    def den_split(self) -> Product:
        """The certificate denominator B as a ``Product``: B itself when given
        as one, read with no division; else the Product of B's split by
        ``terms.split_factors`` into the factors of both shift quotients and
        p that divide it and one cofactor, what is left."""
        if self.certificate.product is not None:
            return self.certificate.product
        s_num, s_den, _, k_num, k_den, _, p = self.quotients
        candidates = dict.fromkeys(s_den + s_num + k_num + k_den + ([] if p is None else [p]))
        return Product(1, split_factors(self.certificate.den, candidates))

    def with_certificate(self, cert: RatFunc2) -> "WZIdentity":
        """This identity with certificate cert and the same ``quotients``, if built."""
        out = replace(self, certificate=cert)
        if "quotients" in self.__dict__:
            out.__dict__["quotients"] = self.quotients
        return out


@dataclass
class CertReport:
    """Outcome of the certificate checks; None marks a check that was not run.

    The overall verdict is the conjunction of the flags that did run.
    """
    identity_name: str
    symbolic_ok: Optional[bool] = None
    boundary_ok: Optional[bool] = None
    base_case_ok: Optional[bool] = None
    exact_sums_ok: Optional[bool] = None
    n_checked: int = 0
    failure_detail: str = ""

    @property
    def ok(self) -> bool:
        flags = (self.symbolic_ok, self.boundary_ok, self.base_case_ok,
                 self.exact_sums_ok)
        ran = [f for f in flags if f is not None]
        return bool(ran) and all(ran)


def _require_wz(ident: WZIdentity) -> None:
    if ident.kind != "wz" or ident.rhs is None:
        raise ValueError(f"{ident.name}: not a terminating identity with a closed form")


def _shift(g: "Triple | Poly2") -> "Triple | Poly2 | KShifted":
    """A key at k + 1: (e, a, c + e) for a triple, a k-free Poly2 itself, else KShifted."""
    if type(g) is tuple:
        e, a, c = g
        return e, a, c + e
    return KShifted(g) if any(j for _, j in g.ints) else g


def wz_residual(ident: WZIdentity) -> RatFunc2:
    """(s - 1) - (R(n,k+1)*r - R(n,k)) as an exact rational function.

    Zero iff ident.certificate proves the identity.  With R = A/B it is built
    over the lcm of the denominators Sd, B(k+1)*den(r) and B as multisets of
    keys: the shift quotients' triples (``ident.quotients``) and B's
    ``Product`` (``ident.den_split``), shifted by ``_shift``.  A KShifted key
    equals no other, so a B with g and g(k + 1), g nonlinear in k, gets a
    multiple one factor above the lcm; the residual is zero over it just as
    well.  No Fraction is built for a factor and no Poly2 is shifted.  The
    numerator is one ``sum_of_products``, an int that is 0 exactly when the
    residual is, decoded only if not; the denominator rest*B =
    m/d * prod(lcm) is a ``Product`` of those keys as they are.
    """
    _require_wz(ident)
    cert = ident.certificate
    if cert is None:
        raise MissingCertificate(f"{ident.name} carries no certificate")
    s_num, s_den, (sn, sd), k_num, k_den, (zn, zd), p = ident.quotients
    B = ident.den_split
    fs, bm, bd = B.factors, B.scale.numerator, B.scale.denominator
    p1 = [] if p is None else [p]
    d1, d3 = Counter(s_den), Counter(fs)
    d2 = Counter(k_den + p1 + [_shift(g) for g in fs])
    lcm = d1 | d2 | d3
    rest = list((lcm - d3).elements())  # rest * B = m/d * prod(lcm), B = m/d * prod(fs)
    num = sum_of_products([
        (Fraction(sn * bm, sd * bd), s_num + list((lcm - d1).elements())),
        (Fraction(-bm, bd), list(lcm.elements())),
        (Fraction(-zn, zd), [KShifted(cert.num), *(lcm - d2).elements(), *k_num,
                             *map(_shift, p1)]),
        (1, [cert.num, *rest])])
    return RatFunc2(num, Product._keyed(B.scale, [*rest, *fs]))


def verify_certificate(ident: WZIdentity, n_scan: int = 20) -> CertReport:
    """Symbolic WZ check plus boundary and base-case checks.

    Also scans the summation support for certificate-denominator zeros up to
    n = n_scan; hits are reported in failure_detail but do not flip any flag.
    The scan reads the split that the residual made (``ident.den_split``):
    the zero of a linear factor e*k + a*n + c on row n is k = -(a*n + c)/e,
    one divmod, or the whole row when e = 0 and a*n + c = 0; only a factor
    that is not linear is evaluated, its ``Poly2.row`` at each n formed once
    and run by Horner's rule in ints (``algebra._horner``) at each k.
    The zeros of a row are merged, each k once, in increasing order.
    The symbolic identity is a statement about rational functions, so it
    holds whatever the lattice values; where the denominator vanishes, G
    has a removable singularity or a pole, and nothing here resolves which.
    """
    report = CertReport(identity_name=ident.name)
    problems = []

    residual = wz_residual(ident)
    report.symbolic_ok = residual.num.is_zero
    if not report.symbolic_ok:
        problems.append(f"WZ residual is a nonzero rational function "
                        f"({len(residual.num.ints)} monomials in the numerator)")

    # at k = 0 a polynomial vanishes iff no monomial is free of k, a triple iff a = c = 0
    fs = ident.den_split.factors
    num0 = any(not j for _, j in ident.certificate.num.ints)
    den0 = not any(g[1:] == (0, 0) if type(g) is tuple else all(j for _, j in g.ints)
                   for g in fs)
    report.boundary_ok = not num0 and den0
    if num0:
        problems.append("certificate does not vanish at k = 0")
    if not den0:
        problems.append("certificate denominator vanishes at k = 0")

    total, expected = row_sum(ident, 0)
    report.base_case_ok = total == expected
    if not report.base_case_ok:
        problems.append("base case n = 0 sum differs")

    lines = {g for g in fs if type(g) is tuple}
    others = [g for g in fs if type(g) is not tuple]
    poles = []
    for n, bound in _termination_rows(ident.term, n_scan):
        zeros = set()
        for e, a, c in lines:
            if e:
                k, r = divmod(-(a * n + c), e)
                if not r and 0 <= k <= bound:
                    zeros.add(k)
            elif not a * n + c:
                zeros.update(range(bound + 1))
        for g in others:
            row = g.row("n", n)[0]  # in k, highest power first
            zeros.update(k for k in range(bound + 1) if not _horner(row, k, 1))
        poles.extend((n, k) for k in sorted(zeros))
    if poles:
        problems.append(f"certificate denominator vanishes on support at {poles[:4]}")
    report.failure_detail = "; ".join(problems)
    return report


def row_sum(ident: WZIdentity, n: int) -> tuple[Rat, Rat]:
    """Exact (sum of row n over its whole support, closed form at n); a
    ValueError where the series does not terminate at n."""
    if (bound := termination_bound(ident.term, n)) is None:
        raise ValueError(f"{ident.name}: series does not terminate at n = {n}")
    return term_sum(ident.term, n, bound), rhs_exact(ident.rhs, n)


def verify_exact_sums(ident: WZIdentity, n_max: int = 20) -> CertReport:
    """Exact row sums against the closed form for n = 0..n_max, in one walk
    over n on ints: one ``terms.term_sums`` call walks the rows up to the
    first that does not terminate, and the closed form is an int pair
    (rn, rd) moved from row to row by its n-ratio base * prod (a_i + n)^e_i.
    They are compared by cross-multiplying, with Fractions only for the
    message of a mismatch.  The errors are row_sum's, row by row: ValueError
    where the series does not terminate, then term_sum's PoleError, then
    rhs_exact's where a denominator factor of the closed form has vanished.
    """
    _require_wz(ident)
    report = CertReport(identity_name=ident.name)
    rhs, t = ident.rhs, ident.term
    # a_i = u/v: a_i + n = (u + n*v)/v
    ratio = [(a.numerator, a.denominator, e) for a, e in rhs.poch_n]
    rows = _termination_rows(t, n_max)
    rn, rd, base_num, base_den = 1, 1, rhs.base.numerator, rhs.base.denominator
    for n, (tn, td) in enumerate(term_sums(t, rows)):
        if not rd:
            rhs_exact(rhs, n)  # raises the PoleError of the vanished factor
        if tn * rd != rn * td:
            report.exact_sums_ok = False
            report.n_checked = n
            report.failure_detail = (f"row sum mismatch at n = {n}: "
                                     f"{Fraction(tn, td)} != {Fraction(rn, rd)}")
            return report
        rn, rd = rn * base_num, rd * base_den
        for u, v, e in ratio:
            if e > 0:
                rn, rd = rn * (u + n * v) ** e, rd * v ** e
            else:
                rn, rd = rn * v ** -e, rd * (u + n * v) ** -e
    if len(rows) <= n_max:
        row_sum(ident, len(rows))  # raises the ValueError of that row
    report.exact_sums_ok = True
    report.n_checked = n_max
    return report
