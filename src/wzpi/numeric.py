"""Floating-point evaluation of the catalog: closed forms at real arguments,
series summation (exact where the series terminates; otherwise one walk,
accelerated when z < 0, which the pi estimators share), and the
machine-precision spot checks used by the test suite and CLI.

The closed forms are products of Pochhammer symbols at rational offsets, so
everything reduces to a log-gamma kernel (Lanczos approximation, g = 7, with
reflection for arguments left of 1/2 and explicit sign tracking).  Series at
the analytic-continuation point converge like k^(-1/2) with alternating
signs, far too slowly to sum directly; the accelerator maps n terms of an
alternating series to roughly 1.76*n digits (error ~ (3 + sqrt(8))^(-n)), so
fifty terms give full double precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .algebra import Poly2
from .terms import (ClosedForm, HyperTerm, PoleError, p_eval, term_sum,
                    termination_bound)
from .wz import WZIdentity

__all__ = [
    "CarlsonCheck",
    "NoConvergence",
    "NumericConfig",
    "carlson_point_check",
    "log_gamma",
    "pi_from_series",
    "rhs_numeric",
    "series_numeric",
    "trig_identity_check",
]


class NoConvergence(ArithmeticError):
    """Raised when a series fails to reach the requested tolerance."""


@dataclass(frozen=True)
class NumericConfig:
    """Knobs for series evaluation: the absolute tolerance to reach and the
    most terms to use.  Whether a series is accelerated is not a knob: it
    follows from the sign of z (see series_numeric)."""

    target_abs_tol: float = 1e-10
    max_terms: int = 10000


# -- log-gamma kernel ----------------------------------------------------------

_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _sinpi(x: float) -> float:
    """sin(pi*x) computed from the nearest-integer residual for accuracy."""
    r = x - round(x)
    s = math.sin(math.pi * r)
    return s if round(x) % 2 == 0 else -s


def _lanczos_positive(x: float) -> float:
    """log Gamma(x) for x >= 0.5."""
    xm1 = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (xm1 + i)
    t = xm1 + 7.5
    return _HALF_LOG_2PI + (xm1 + 0.5) * math.log(t) - t + math.log(acc)


def log_gamma(x: float) -> tuple[float, int]:
    """(log |Gamma(x)|, sign of Gamma(x)); raises PoleError at 0, -1, -2, ..."""
    x = float(x)
    if x >= 0.5:
        return _lanczos_positive(x), 1
    if x == math.floor(x):
        raise PoleError(f"gamma pole at {x}")
    # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
    s = _sinpi(x)
    value = math.log(math.pi / abs(s)) - log_gamma(1.0 - x)[0]
    return value, 1 if s > 0 else -1


# -- closed form and term values at real arguments ------------------------------


def rhs_numeric(rhs: ClosedForm, n: float) -> float:
    """Closed-form value base^n * prod (arg)_n^e at a real argument n.

    The logs n*log(base) and e*(log Gamma(arg + n) - log Gamma(arg)) are
    added, with their signs kept apart, and exponentiated once, so that large
    factors of a small value do not overflow on the way.
    """
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


def _first_term(t: HyperTerm) -> float:
    """t(0), prefactors included: every Pochhammer factor, z^0 and 0! are 1."""
    return (float(t.prefactor_rational) * math.sqrt(float(t.prefactor_sqrt))
            * float(p_eval(t, 0)))


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


def _accelerated_sum(
    t: HyperTerm, n: float, cfg: NumericConfig, terms: Optional[int] = None
) -> float:
    """Accelerated sum over k >= 0 of a strictly alternating series.

    Uses `terms` terms, or (when None or 0) enough for cfg.target_abs_tol;
    never more than cfg.max_terms.  Raises ValueError unless t(k+1)/t(k) < 0
    for every k it uses.
    """
    m = terms or (
        int(math.log(4.0 / cfg.target_abs_tol) / math.log(3.0 + math.sqrt(8.0))) + 3
    )
    m = min(m, cfg.max_terms)
    ratio = _term_ratio(t, n)
    t0 = _first_term(t)
    a = [abs(t0)]
    for k in range(m - 1):
        rk = ratio(k)
        if rk >= 0:
            raise ValueError(f"term ratio {rk:g} at k={k} is not negative: the "
                             f"alternating accelerator needs terms of alternating sign")
        a.append(a[-1] * -rk)
    return math.copysign(1.0, t0) * _accelerated_alternating(a)


def _series_sum(
    t: HyperTerm, n: float, cfg: NumericConfig, terms: Optional[int] = None
) -> float:
    """Sum over k >= 0 of a series that does not terminate at n.

    A series with z < 0 goes to the accelerator.  Any other is summed
    directly (with math.fsum), up to and including the first term t(k+1)
    that meets the tolerance: on an alternating tail, |t(k+1)| below it and
    no larger than |t(k)|; on a tail of one sign, |t(k+1)| <= tol*(1 - rho)/2
    with rho = max(t(k+1)/t(k), |z|).  A zero term t(k+1) with p(k+1) != 0
    also ends the walk: the Pochhammer part has terminated.  A zero of
    p(k+1) does not; the next ratio raises PoleError there.  `terms`, when
    given, fixes the number of terms instead of the tolerance; either way
    the walk uses at most cfg.max_terms, and raises NoConvergence where the
    tolerance needs more.
    """
    if float(t.z) < 0:
        return _accelerated_sum(t, n, cfg, terms)
    ratio = _term_ratio(t, n)
    tk = _first_term(t)
    acc = [tk]
    for k in range(min(terms or cfg.max_terms, cfg.max_terms) - 1):
        rk = ratio(k)
        prev, tk = tk, tk * rk
        acc.append(tk)
        if tk == 0:
            done = p_eval(t, k + 1) != 0
        elif terms:
            done = False
        elif rk < 0:
            done = abs(tk) <= cfg.target_abs_tol and abs(tk) <= abs(prev)
        else:  # half the tolerance is left for the rounding of the terms
            rho = max(rk, abs(float(t.z)))
            done = rho < 1 and abs(tk) <= cfg.target_abs_tol * (1 - rho) / 2
        if done:
            return math.fsum(acc)
    if not terms:
        raise NoConvergence(f"series did not reach {cfg.target_abs_tol:g} "
                            f"within {cfg.max_terms} terms")
    return math.fsum(acc)


def series_numeric(
    t: HyperTerm | WZIdentity, n: float, cfg: Optional[NumericConfig] = None
) -> float:
    """Sum the series over k >= 0 at a real argument n.

    Where the series terminates, at a nonnegative integer n, its terms are
    summed exactly (term_sum) and the sum is rounded once; NoConvergence is
    raised when that takes more than cfg.max_terms terms.  Otherwise a
    series with z < 0 goes to the accelerator, which needs only O(digits)
    terms and raises ValueError unless the terms strictly alternate in sign,
    and any other series is summed directly until its tail is below
    cfg.target_abs_tol (_series_sum gives the stopping rule).
    """
    if isinstance(t, WZIdentity):
        t = t.term
    cfg = cfg or NumericConfig()
    bound = termination_bound(t, int(n)) if n >= 0 and float(n).is_integer() else None
    if bound is not None:
        if bound >= cfg.max_terms:
            raise NoConvergence(f"series terminates only after {bound + 1} terms, "
                                f"more than {cfg.max_terms}")
        return float(term_sum(t, int(n), bound)) * math.sqrt(float(t.prefactor_sqrt))
    return _series_sum(t, n, cfg)


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


def carlson_point_check(
    ident: WZIdentity,
    cfg: Optional[NumericConfig] = None,
    *,
    point: Optional[Fraction] = None,
) -> CarlsonCheck:
    """Evaluate closed form and series at n = -1/(2a) (or a supplied point).

    The default tolerance is 1e-12.  Every catalog identity with a
    continuation point has z < 0, so series_numeric accelerates its series;
    at a point where the terms do not alternate that raises ValueError.
    """
    if point is None:
        if ident.carlson_a is None:
            raise ValueError(f"{ident.name} has no continuation point")
        point = Fraction(-1, 2 * ident.carlson_a)
    if ident.rhs is None:
        raise ValueError(f"{ident.name} has no closed form")
    cfg = cfg or NumericConfig(target_abs_tol=1e-12)
    target = 2.0 / math.pi
    rhs_value = rhs_numeric(ident.rhs, float(point))
    series_value = series_numeric(ident.term, float(point), cfg)
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


def pi_from_series(
    name: str,
    cfg: Optional[NumericConfig] = None,
    *,
    terms: Optional[int] = None,
) -> float:
    """Estimate pi from one of the two numeric-kind catalog series.

    The alternating series sums to 2/pi (accelerated), the positive
    geometric one to 1/pi (summed directly; each term adds roughly eight
    digits).  Both go through series_numeric's walk at n = 0, with its
    stopping rule, or with exactly `terms` terms when that is given (fewer
    where a term of the direct sum underflows to 0.0).
    """
    from .catalog import load_builtin

    cfg = cfg or NumericConfig(target_abs_tol=1e-13)
    t = load_builtin(name).term
    return (2.0 if float(t.z) < 0 else 1.0) / _series_sum(t, 0.0, cfg, terms)


# -- trigonometric closed-form helpers -------------------------------------------


def trig_identity_check() -> float:
    """|cos(pi/5) + cos(2 pi/5) - sqrt(5)/2| (exactly zero in real arithmetic)."""
    return abs(math.cos(math.pi / 5) + math.cos(2 * math.pi / 5) - math.sqrt(5) / 2)
