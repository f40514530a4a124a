"""Floating-point evaluation of the catalog: closed forms at real arguments,
series summation (exact where the series terminates; otherwise one walk,
accelerated when z < 0, which the pi estimators share), and the
machine-precision spot checks used by the test suite and CLI.

The closed forms are products of Pochhammer symbols at rational offsets, so
everything reduces to log |Gamma| (math.lgamma) with the sign tracked apart.
Series at the analytic-continuation point converge like k^(-1/2) with
alternating signs, far too slowly to sum directly; the accelerator maps n
terms of an alternating series to roughly 1.76*n digits (error ~
(3 + sqrt(8))^(-n)), so fifty terms give full double precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .algebra import Poly2
from .terms import (ClosedForm, HyperTerm, PoleError, p_eval, rhs_exact, term_sum,
                    termination_bound)
from .wz import WZIdentity

__all__ = [
    "CarlsonCheck",
    "NoConvergence",
    "carlson_point_check",
    "log_gamma",
    "pi_from_series",
    "rhs_numeric",
    "series_numeric",
    "trig_identity_check",
]


class NoConvergence(ArithmeticError):
    """Raised when a series fails to reach the requested tolerance."""


# the most terms a series evaluation uses
MAX_TERMS = 10000


# -- log-gamma ------------------------------------------------------------------


def log_gamma(x: float) -> tuple[float, int]:
    """(log |Gamma(x)|, sign of Gamma(x)); raises PoleError at 0, -1, -2, ...

    |Gamma| comes from math.lgamma.  Left of 0, Gamma(x) is negative on the
    intervals (-1, 0), (-3, -2), ..., where floor(x) is odd.
    """
    x = float(x)
    if x <= 0 and x == math.floor(x):
        raise PoleError(f"gamma pole at {x}")
    return math.lgamma(x), 1 if x > 0 or math.floor(x) % 2 == 0 else -1


# -- closed form and term values at real arguments ------------------------------


def rhs_numeric(rhs: ClosedForm, n: float) -> float:
    """Closed-form value base^n * prod (arg)_n^e at a real argument n.

    At a nonnegative integer n <= MAX_TERMS it rounds rhs_exact's value
    once, raising its PoleError.  Elsewhere the logs n*log(base) and
    e*(log Gamma(arg + n) - log Gamma(arg)) are added, with their signs kept
    apart, and exponentiated once, so that large factors of a small value do
    not overflow on the way.
    """
    if 0 <= n <= MAX_TERMS and float(n).is_integer():
        return float(rhs_exact(rhs, int(n)))
    n = float(n)
    log_abs = n * math.log(float(rhs.base))
    sign = 1
    if n:  # (arg)_0 = 1, also where Gamma(arg) has a pole
        for arg, power in rhs.poch_n:
            la, sa = log_gamma(float(arg) + n)
            lb, sb = log_gamma(float(arg))
            log_abs += power * (la - lb)
            sign *= (sa * sb) ** power
    return sign * math.exp(log_abs)


def _term_ratio(t: HyperTerm, n: float) -> Callable[[int], float]:
    """Returns k -> t(k+1)/t(k) evaluated in floats.

    Raises PoleError where the ratio has no value: a zero of p(k), or a
    denominator factor (b*n + c)_k whose last factor b*n + c + k is zero, so
    that t(k+1) is a pole.
    """
    z = float(t.z)
    pc = [float(c) for c in t.p]

    def ratio(k: int) -> float:
        r = z
        if len(pc) > 1:
            pk = sum(c * k ** i for i, c in enumerate(pc))
            if not pk:
                raise PoleError(f"multiplier p(k) vanishes at k={k}, so the "
                                f"term ratio t(k+1)/t(k) is undefined at n={n}")
            r *= sum(c * (k + 1) ** i for i, c in enumerate(pc)) / pk
        for f in t.poch:
            v = f.n_coeff * n + float(f.offset) + k
            if not v and f.power < 0:
                arg = Poly2.linear(f.n_coeff, 0, f.offset)
                raise PoleError(
                    f"denominator factor ({arg})_k vanishes at n={n}, k={k + 1}")
            r *= v ** f.power
        r /= float(k + 1) ** t.fact_pow
        return r

    return ratio


def _accelerated_alternating(a: list[float]) -> float:
    """Chebyshev-weighted sum of sum_k (-1)^k a_k from the first len(a) terms.

    The weights are c_k/d with d = T_m(3) = ((3 + sqrt 8)^m + (3 - sqrt 8)^m)/2,
    which passes the largest double from m = 403 on.  There c, s and d are
    kept as multiples of 2^-shift and b as a mantissa with its own exponent,
    so that nothing overflows; d is then the integer T_m(3) rounded once.
    Scaling by a power of two rounds nothing, and up to m = 402 shift is 0,
    so there every value is the one the unscaled recurrence gives.
    """
    m = len(a)
    x = 3.0 + math.sqrt(8.0)
    log2_d = m * math.log2(x)
    if log2_d < 1023:
        shift = 0
        d = x ** m
        d = (d + 1.0 / d) / 2.0
    else:
        shift = math.ceil(log2_d) - 1000
        t_prev, t = 1, 3  # T_0(3), T_1(3); T_(j+1) = 6 T_j - T_(j-1)
        for _ in range(m - 1):
            t_prev, t = t, 6 * t - t_prev
        d = t / (1 << shift)
    b_mant, b_exp = -1.0, 0  # b = b_mant * 2^b_exp
    c = -d
    s = 0.0
    for k in range(m):
        c = math.ldexp(b_mant, b_exp - shift) - c
        s += c * a[k]
        b_mant, e = math.frexp(
            b_mant * ((k + m) * (k - m) / ((k + 0.5) * (k + 1.0))))
        b_exp += e
    return s / d


def _series_sum(t: HyperTerm, n: float, tol: float, terms: Optional[int] = None) -> float:
    """Sum over k >= 0 of a series that does not terminate at n.

    One walk over the term ratios collects t(0), t(1), ...  A series with
    z < 0 hands |t(k)| to the accelerator: it uses `terms` terms, or (when
    None or 0) enough for the absolute tolerance tol, and raises ValueError
    unless t(k+1)/t(k) < 0 for every k it uses.  Any other series is summed directly
    (with math.fsum), up to and including the first term t(k+1) that meets
    the tolerance: on an alternating tail, |t(k+1)| below it and no larger
    than |t(k)|; on a tail of one sign, |t(k+1)| <= tol*(1 - rho)/2 with
    rho = max(t(k+1)/t(k), |z|).  A zero term t(k+1) with p(k+1) != 0 also
    ends the direct walk: the Pochhammer part has terminated.  A zero of
    p(k+1) does not; the next ratio raises PoleError there.  `terms`, when
    given, fixes the number of terms instead of the tolerance.  Either walk
    uses at most MAX_TERMS terms, and the direct one raises NoConvergence
    where the tolerance needs more.
    """
    z = float(t.z)
    m = terms or (int(math.log(4.0 / tol) / math.log(3.0 + math.sqrt(8.0))) + 3
                  if z < 0 else MAX_TERMS)
    ratio = _term_ratio(t, n)
    # t(0), prefactors included: every Pochhammer factor, z^0 and 0! are 1
    tk = (float(t.prefactor_rational) * math.sqrt(float(t.prefactor_sqrt))
          * float(p_eval(t, 0)))
    acc = [tk]
    for k in range(min(m, MAX_TERMS) - 1):
        rk = ratio(k)
        prev, tk = tk, tk * rk
        acc.append(tk)
        if z < 0:
            if rk >= 0:
                raise ValueError(f"term ratio {rk:g} at k={k} is not negative: the "
                                 f"alternating accelerator needs terms of alternating sign")
            done = False
        elif tk == 0:
            done = p_eval(t, k + 1) != 0
        elif terms:
            done = False
        elif rk < 0:
            done = abs(tk) <= tol and abs(tk) <= abs(prev)
        else:  # half the tolerance is left for the rounding of the terms
            rho = max(rk, abs(z))
            done = rho < 1 and abs(tk) <= tol * (1 - rho) / 2
        if done:
            return math.fsum(acc)
    if z < 0:
        return math.copysign(1.0, acc[0]) * _accelerated_alternating([abs(a) for a in acc])
    if not terms:
        raise NoConvergence(f"series did not reach {tol:g} "
                            f"within {MAX_TERMS} terms")
    return math.fsum(acc)


def series_numeric(t: HyperTerm, n: float, tol: float = 1e-10) -> float:
    """Sum the series over k >= 0 at a real argument n.

    Where the series terminates, at a nonnegative integer n, its terms are
    summed exactly (term_sum) and the sum is rounded once; NoConvergence is
    raised when that takes more than MAX_TERMS terms.  Otherwise
    _series_sum walks the terms: a series with z < 0 is accelerated, which
    needs only O(digits) terms and raises ValueError unless the terms
    strictly alternate in sign, and any other series is summed directly
    until its tail is below the absolute tolerance tol.
    """
    bound = termination_bound(t, int(n)) if n >= 0 and float(n).is_integer() else None
    if bound is not None:
        if bound >= MAX_TERMS:
            raise NoConvergence(f"series terminates only after {bound + 1} terms, "
                                f"more than {MAX_TERMS}")
        return float(term_sum(t, int(n), bound)) * math.sqrt(float(t.prefactor_sqrt))
    return _series_sum(t, n, tol)


# -- analytic-continuation spot check -------------------------------------------


@dataclass(frozen=True)
class CarlsonCheck:
    """Both sides of an identity evaluated at the off-lattice point n = -1/(2a).

    At that point the closed form must equal 2/pi, and the (no longer
    terminating) series must converge to the same value.  series_vs_rhs is
    the residual between the two computed sides; rhs_error and series_error
    compare each side against 2/pi.
    """

    identity_name: str
    point: Fraction
    rhs_value: float
    series_value: float
    target: float
    rhs_error: float
    series_error: float
    series_vs_rhs: float


def carlson_point_check(ident: WZIdentity, *,
                        point: Optional[Fraction] = None) -> CarlsonCheck:
    """Evaluate closed form and series at n = -1/(2a) (or a supplied point).

    The series is summed to 1e-12.  Every catalog identity with a continuation
    point has z < 0, so series_numeric accelerates its series; at a point
    where the terms do not alternate that raises ValueError.
    """
    if point is None:
        if ident.carlson_a is None:
            raise ValueError(f"{ident.name} has no continuation point")
        point = Fraction(-1, 2 * ident.carlson_a)
    if ident.rhs is None:
        raise ValueError(f"{ident.name} has no closed form")
    target = 2.0 / math.pi
    rhs_value = rhs_numeric(ident.rhs, float(point))
    series_value = series_numeric(ident.term, float(point), 1e-12)
    return CarlsonCheck(
        identity_name=ident.name,
        point=point,
        rhs_value=rhs_value,
        series_value=series_value,
        target=target,
        rhs_error=abs(rhs_value - target),
        series_error=abs(series_value - target),
        series_vs_rhs=abs(series_value - rhs_value),
    )


# -- pi estimators ---------------------------------------------------------------


def pi_from_series(name: str, tol: float = 1e-13, *, terms: Optional[int] = None) -> float:
    """Estimate pi from one of the two numeric-kind catalog series.

    The alternating series sums to 2/pi (accelerated), the positive
    geometric one to 1/pi (summed directly; each term adds roughly eight
    digits).  Both go through series_numeric's walk at n = 0, with its
    stopping rule, or with exactly `terms` terms when that is given (fewer
    where a term of the direct sum underflows to 0.0).
    """
    from .catalog import load_builtin

    t = load_builtin(name).term
    return (2.0 if float(t.z) < 0 else 1.0) / _series_sum(t, 0.0, tol, terms)


# -- trigonometric closed-form helpers -------------------------------------------


def trig_identity_check() -> float:
    """|cos(pi/5) + cos(2 pi/5) - sqrt(5)/2| (exactly zero in real arithmetic)."""
    return abs(math.cos(math.pi / 5) + math.cos(2 * math.pi / 5) - math.sqrt(5) / 2)
