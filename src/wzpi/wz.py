"""WZ-pair verification for terminating hypergeometric identities.

For a summand F(n, k) with row closed form RHS(n), let Fhat = F / RHS.  A
certificate R(n, k) proves the identity when   s - 1 = R(n,k+1) * r - R(n,k)
holds as a rational-function identity, where r = F(n,k+1)/F(n,k) and
s = Fhat(n+1,k)/Fhat(n,k).  That is the WZ relation
Fhat(n+1,k) - Fhat(n,k) = G(n,k+1) - G(n,k) with G = R * Fhat, divided
through by Fhat; cross-multiplication decides it exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import Rat, RatFunc2
from .terms import (ClosedForm, HyperTerm, p_eval, poch_exact, rhs_exact,
                    shift_quotient_k, shift_quotient_n, term_sum,
                    term_value, termination_bound)
from .unipoly import UniPoly


class MissingCertificate(ValueError):
    """The requested check needs a certificate the identity does not carry."""


class PoleOnLattice(ArithmeticError):
    """A certificate denominator genuinely vanishes at a lattice point."""


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


def wz_residual(ident: WZIdentity, certificate: Optional[RatFunc2] = None) -> RatFunc2:
    """(s - 1) - (R(n,k+1)*r - R(n,k)) as an exact rational function.

    Zero iff the certificate proves the identity.
    """
    _require_wz(ident)
    cert = certificate if certificate is not None else ident.certificate
    if cert is None:
        raise MissingCertificate(f"{ident.name} carries no certificate")
    r = shift_quotient_k(ident.term)
    s = shift_quotient_n(ident.term, ident.rhs)
    return (s - 1) - (cert.shift("k", 1) * r - cert)


def verify_certificate(ident: WZIdentity, n_scan: int = 20) -> CertReport:
    """Symbolic WZ check plus boundary and base-case checks.

    Also scans the summation support for certificate-denominator zeros up to
    n = n_scan; hits are reported in failure_detail but do not flip any flag.
    The scan reads the denominator's stored ints, L*den with the same zeros,
    forms each row's coefficients in k once, and evaluates the row by
    Horner's rule in ints.
    The symbolic identity is a statement about rational functions, so it
    holds whatever the lattice values; g_value resolves G at such a point
    when a caller needs it, but nothing here calls it.
    """
    _require_wz(ident)
    if ident.certificate is None:
        raise MissingCertificate(f"{ident.name} carries no certificate")
    report = CertReport(identity_name=ident.name)
    cert = ident.certificate
    problems = []

    residual = wz_residual(ident)
    report.symbolic_ok = residual.num.is_zero
    if not report.symbolic_ok:
        problems.append(f"WZ residual is a nonzero rational function "
                        f"({len(residual.num.terms)} monomials in the numerator)")

    report.boundary_ok = not cert.num.eval_k(0) and bool(cert.den.eval_k(0))
    if not report.boundary_ok:
        problems.append("certificate does not vanish at k = 0")

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


def row_sum(ident: WZIdentity, n: int) -> tuple[Rat, Rat]:
    """Exact (sum of row n over its whole support, closed form at n).

    Raises ValueError when the series does not terminate at n.
    """
    bound = termination_bound(ident.term, n)
    if bound is None:
        raise ValueError(f"{ident.name}: series does not terminate at n = {n}")
    return term_sum(ident.term, n, bound), rhs_exact(ident.rhs, n)


def verify_exact_sums(ident: WZIdentity, n_max: int = 20) -> CertReport:
    """Exact row sums against the closed form for n = 0..n_max."""
    _require_wz(ident)
    report = CertReport(identity_name=ident.name)
    for n in range(n_max + 1):
        total, expected = row_sum(ident, n)
        if total != expected:
            report.exact_sums_ok = False
            report.n_checked = n
            report.failure_detail = (
                f"row sum mismatch at n = {n}: {total} != {expected}")
            return report
    report.exact_sums_ok = True
    report.n_checked = n_max
    return report


# -- exact values of G on the lattice ------------------------------------------

def _poch_unipoly(n_coeff: int, offset: Rat, k: int) -> UniPoly:
    """(offset + n_coeff*n)_k as a polynomial in n."""
    prod = UniPoly.const(1)
    for j in range(k):
        prod = prod * UniPoly((offset + j, n_coeff))
    return prod


def g_value(ident: WZIdentity, n: int, k: int) -> Rat:
    """Exact G(n, k) = R(n,k) * F(n,k) / RHS(n), resolving removable 0/0.

    When the certificate denominator vanishes at (n, k), G is evaluated as a
    univariate rational function of n at fixed k: every Pochhammer factor is a
    polynomial in n there, so the removable singularity cancels by deflating
    the shared (n - n0) factors.  A genuine pole raises PoleOnLattice.
    """
    _require_wz(ident)
    if ident.certificate is None:
        raise MissingCertificate(f"{ident.name} carries no certificate")
    cert = ident.certificate
    t = ident.term
    rhs_val = rhs_exact(ident.rhs, n)

    den_val = cert.den.eval(n, k)
    if den_val:
        return (cert.num.eval(n, k) / den_val) * term_value(t, n, k) / rhs_val

    # 0/0 candidate: build A(nu)/B(nu) = R(nu,k) * F(nu,k) at fixed k.
    scalar = t.prefactor_rational * p_eval(t, k) * t.z ** k
    if t.fact_pow:
        scalar /= poch_exact(1, k) ** t.fact_pow
    a_poly = UniPoly(cert.num.eval_k(k)) * scalar
    b_poly = UniPoly(cert.den.eval_k(k))
    for f in t.poch:
        piece = _poch_unipoly(f.n_coeff, f.offset, k) ** abs(f.power)
        if f.power > 0:
            a_poly = a_poly * piece
        else:
            b_poly = b_poly * piece
    if a_poly.is_zero:
        return Fraction(0)
    ord_a, a_defl = a_poly.root_multiplicity(n)
    ord_b, b_defl = b_poly.root_multiplicity(n)
    if ord_b > ord_a:
        raise PoleOnLattice(
            f"{ident.name}: G has a pole of order {ord_b - ord_a} at (n={n}, k={k})")
    if ord_b < ord_a:
        return Fraction(0)
    return a_defl.eval(n) / b_defl.eval(n) / rhs_val
