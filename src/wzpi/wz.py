"""WZ-pair verification for terminating hypergeometric identities.

For a summand F(n, k) with row closed form RHS(n), let Fhat = F / RHS.  A
certificate R(n, k) proves the identity when   s - 1 = R(n,k+1) * r - R(n,k)
holds as a rational-function identity, where r = F(n,k+1)/F(n,k) and
s = Fhat(n+1,k)/Fhat(n,k).  That is the WZ relation
Fhat(n+1,k) - Fhat(n,k) = G(n,k+1) - G(n,k) with G = R * Fhat, divided
through by Fhat; cross-multiplication decides it exactly.  ``wz_residual``
builds it over the least common multiple of the three terms' denominators,
whose linear factors cancel before anything is expanded.  Its numerator and
its denominator are each one sum of products of factors, which
``algebra.sum_of_products`` evaluates as one Kronecker-packed int with a
slot per monomial wide enough for every coefficient; the numerator of a
certificate that holds is the int 0, which is the zero polynomial.

The exact row sums are checked apart from any certificate, in one walk over
n on ints: each row sum is an unreduced int quotient, the closed form an int
pair moved from row to row by its n-ratio, and the two are compared by
cross-multiplication.  Fractions are built for the values row_sum hands back
and for the message of a mismatch.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import Poly2, Rat, RatFunc2, sum_of_products
from .terms import (ClosedForm, HyperTerm, multiplier, rhs_exact,
                    shift_quotient_k_parts, shift_quotient_n_parts, split_factors,
                    term_sum, term_sum_parts, termination_bound)
from .terms import term_value  # noqa: F401  (perfbench/spans.py wraps wz.term_value)


class MissingCertificate(ValueError):
    """The requested check needs a certificate the identity does not carry."""


@dataclass(frozen=True)
class WZIdentity:
    name: str
    term: HyperTerm
    rhs: Optional[ClosedForm]
    certificate: Optional[RatFunc2]
    carlson_a: Optional[int]
    kind: str  # "wz" (terminating, provable) or "numeric" (summation target only)


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


def wz_residual(ident: WZIdentity) -> RatFunc2:
    """(s - 1) - (R(n,k+1)*r - R(n,k)) as an exact rational function.

    Zero iff ident.certificate proves the identity.  With R = A/B it is built
    over the lcm of the denominators Sd, B(k+1)*den(r) and B as multisets of
    monic factors, numbered as first seen (a Counter keyed by Poly2 would
    hash every factor again): B is split by ``terms.split_factors``, trial
    division by the factors of both shift quotients and p(k); the rest is one
    cofactor, whose k-shift serves B(k+1).  Each numerator gains exactly the
    factors its denominator lacks, so it equals the residual over the full
    product Sd*B(k+1)*den(r)*B.

    The four numerator terms and the denominator rest*B go to
    ``sum_of_products`` as lists of factors, and no Poly2 product is formed:
    each sum is one int, the polynomial's value at k = 2^s, n = 2^(s*w), with
    w above every term's k-degree and s-bit slots above the bound
    sum |scale| * |f_1|_inf * prod |f_i|_1 on the coefficients.  Within that
    bound the value determines the polynomial, so an int of 0 is the zero
    polynomial and a proof is decided without decoding its numerator.
    """
    _require_wz(ident)
    cert = ident.certificate
    if cert is None:
        raise MissingCertificate(f"{ident.name} carries no certificate")
    s_num, s_den, scal = shift_quotient_n_parts(ident.term, ident.rhs)
    k_num, k_den, z = shift_quotient_k_parts(ident.term)
    p = multiplier(ident.term)
    index: dict[Poly2, int] = {}  # monic factors, numbered as first seen

    def count(fs: "list[Poly2]", scale: Rat = 1) -> "tuple[Rat, Counter]":
        m: Counter = Counter()  # scale * prod(fs) = c * prod(g^m[g]), g monic
        for f in fs:  # g's leading term, highest in k and then in n, is 1
            lead = Fraction(f.ints[max(f.ints, key=lambda e: (e[1], e[0]))], f.den)
            g, scale = (f if lead == 1 else f * (1 / lead)), scale * lead
            if g.ints != {(0, 0): 1}:
                m[index.setdefault(g, len(index))] += 1
        return scale, m

    c1, d1 = count(s_den, scal.denominator)
    count(s_num + k_num + k_den + [p])  # registers the remaining candidates
    b = split_factors(cert.den, index)
    cb, d3 = count(b)
    c2, d2 = count(k_den + [p] + [g.shift("k", 1) for g in b])
    factors, lcm = list(index), d1 | d2 | d3

    def factors_of(m: Counter) -> "list[Poly2]":
        return [factors[i] for i in m.elements()]

    rest = factors_of(lcm - d3)  # lcm * cb = rest * B; every term below is times cb
    num = sum_of_products([
        (scal.numerator * cb / c1, s_num + factors_of(lcm - d1)),
        (-cb, factors_of(lcm)),
        (-z * cb / c2, [cert.num.shift("k", 1), *factors_of(lcm - d2), *k_num, p.shift("k", 1)]),
        (1, [cert.num, *rest])])
    return RatFunc2(num, sum_of_products([(1, [*rest, cert.den])]))


def verify_certificate(ident: WZIdentity, n_scan: int = 20) -> CertReport:
    """Symbolic WZ check plus boundary and base-case checks.

    Also scans the summation support for certificate-denominator zeros up to
    n = n_scan; hits are reported in failure_detail but do not flip any flag.
    The scan reads the denominator's stored ints, L*den with the same zeros,
    forms each row's coefficients in k once, and evaluates the row by
    Horner's rule in ints.
    The symbolic identity is a statement about rational functions, so it
    holds whatever the lattice values; where the denominator vanishes, G
    has a removable singularity or a pole, and nothing here resolves which.
    """
    report = CertReport(identity_name=ident.name)
    cert = ident.certificate
    problems = []

    residual = wz_residual(ident)
    report.symbolic_ok = residual.num.is_zero
    if not report.symbolic_ok:
        problems.append(f"WZ residual is a nonzero rational function "
                        f"({len(residual.num.terms)} monomials in the numerator)")

    num0, den0 = cert.num.eval_k(0), cert.den.eval_k(0)
    report.boundary_ok = not num0 and bool(den0)
    if num0:
        problems.append("certificate does not vanish at k = 0")
    if not den0:
        problems.append("certificate denominator vanishes at k = 0")

    total, expected = row_sum(ident, 0)
    report.base_case_ok = total == expected
    if not report.base_case_ok:
        problems.append("base case n = 0 sum differs")

    # the (n-power, coefficient) pairs of L*den, grouped by power of k,
    # highest first, for Horner's rule in k
    by_k: list[list[tuple[int, int]]] = [[] for _ in range(cert.den.degree("k") + 1)]
    for (i, j), c in cert.den.ints.items():
        by_k[-1 - j].append((i, c))
    poles = []
    for n in range(n_scan + 1):
        bound = termination_bound(ident.term, n)
        if bound is None:
            break
        row = [sum(c * n ** i for i, c in col) for col in by_k]
        for k in range(bound + 1):
            v = 0
            for c in row:
                v = v * k + c
            if not v:
                poles.append((n, k))
    if poles:
        problems.append(f"certificate denominator vanishes on support at {poles[:4]}")
    report.failure_detail = "; ".join(problems)
    return report


def _row_bound(ident: WZIdentity, n: int) -> int:
    bound = termination_bound(ident.term, n)
    if bound is None:
        raise ValueError(f"{ident.name}: series does not terminate at n = {n}")
    return bound


def row_sum(ident: WZIdentity, n: int) -> tuple[Rat, Rat]:
    """Exact (sum of row n over its whole support, closed form at n).

    Raises ValueError when the series does not terminate at n.
    """
    return term_sum(ident.term, n, _row_bound(ident, n)), rhs_exact(ident.rhs, n)


def verify_exact_sums(ident: WZIdentity, n_max: int = 20) -> CertReport:
    """Exact row sums against the closed form for n = 0..n_max, in one walk
    over n on ints.

    Each row sum is term_sum_parts' unreduced int quotient.  The closed form
    is an int pair (rn, rd), moved from row n to row n + 1 by its n-ratio
    base * prod (a_i + n)^e_i, and the two are compared by cross-multiplying;
    Fractions are built only for the message of a mismatch.  The errors are
    row_sum's, row by row: ValueError where the series does not terminate,
    then term_sum's PoleError, then rhs_exact's where a denominator factor of
    the closed form has vanished (rd = 0) at a row that is checked.
    """
    _require_wz(ident)
    report = CertReport(identity_name=ident.name)
    rhs = ident.rhs
    # a_i = u/v: a_i + n = (u + n*v)/v
    ratio = [(a.numerator, a.denominator, e) for a, e in rhs.poch_n]
    rn, rd = 1, 1
    for n in range(n_max + 1):
        tn, td = term_sum_parts(ident.term, n, _row_bound(ident, n))
        if not rd:
            rhs_exact(rhs, n)  # raises the PoleError of the vanished factor
        if tn * rd != rn * td:
            report.exact_sums_ok = False
            report.n_checked = n
            report.failure_detail = (f"row sum mismatch at n = {n}: "
                                     f"{Fraction(tn, td)} != {Fraction(rn, rd)}")
            return report
        rn, rd = rn * rhs.base.numerator, rd * rhs.base.denominator
        for u, v, e in ratio:
            if e > 0:
                rn, rd = rn * (u + n * v) ** e, rd * v ** e
            else:
                rn, rd = rn * v ** -e, rd * (u + n * v) ** -e
    report.exact_sums_ok = True
    report.n_checked = n_max
    return report
