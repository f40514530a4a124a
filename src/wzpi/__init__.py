"""Exact verification, synthesis, and numeric confirmation of a family of
telescoping hypergeometric identities whose closed forms continue to 2/pi.

Layers, bottom up:

- ``algebra``: exact arithmetic in Q[n,k], the int gcd in Q[n] that the
  certificate assembly takes, and certificates as unreduced quotients with
  cross-multiplication equality and no arithmetic.
- ``unipoly``: the surface the benchmark's probes read (the normal form's
  ``UniPolyQn`` view, ``UniPoly``, ``RatFn``, ``interpolate``); both
  polynomial types are views of one ``Poly2``, the module has no arithmetic
  of its own, and no product path computes with it.
- ``terms``: hypergeometric summands (Pochhammer factor lists), closed forms,
  exact values, shift quotients, the trial division by their linear factors
  that verification and synthesis share, and the substitution that collapses
  every catalog identity to the classical alternating series.
- ``wz``: certificate verification (symbolic residual, boundary column, base
  case) and exact finite-sum checks.
- ``gosper``: certificate synthesis in Q[n][k] — the factored shift quotient,
  the normal form from integer shifts between its linear factors,
  fraction-free back-substitution for Gosper's equation, verified
  reassembly in lowest terms.
- ``numeric``: log-gamma kernel, series evaluation (accelerated when the
  terms alternate, z < 0), continuation-point spot checks, pi estimators.
- ``catalog``: the built-in identity database and the identity file format.
- ``cli``: the ``wzpi`` command.
"""

__version__ = "0.1.0"

from .algebra import DivisionByZeroFunction, Poly2, Rat, RatFunc2
from .catalog import (
    BUILTIN_NAMES,
    IdentityFile,
    ParseError,
    SemanticError,
    UnknownIdentity,
    builtin_record,
    load_builtin,
    load_identity_file,
    parse_identity,
    serialize_identity,
)
from .gosper import (
    DegenerateRatio,
    GosperResult,
    gosper_normal_form,
    gosper_solve,
    h_ratio,
    synthesize_certificate,
)
from .numeric import (
    CarlsonCheck,
    NoConvergence,
    carlson_point_check,
    log_gamma,
    pi_from_series,
    rhs_numeric,
    series_numeric,
    trig_identity_check,
)
from .terms import (
    ClosedForm,
    HyperTerm,
    PochFactor,
    PoleError,
    poch_exact,
    reduces_to_ramanujan,
    rhs_exact,
    term_value,
    termination_bound,
)
from .unipoly import UniPoly, UniPolyQn
from .wz import (
    CertReport,
    MissingCertificate,
    WZIdentity,
    verify_certificate,
    verify_exact_sums,
    wz_residual,
)

__all__ = [
    "BUILTIN_NAMES",
    "CarlsonCheck",
    "CertReport",
    "ClosedForm",
    "DegenerateRatio",
    "DivisionByZeroFunction",
    "GosperResult",
    "HyperTerm",
    "IdentityFile",
    "MissingCertificate",
    "NoConvergence",
    "ParseError",
    "PochFactor",
    "PoleError",
    "Poly2",
    "Rat",
    "RatFunc2",
    "SemanticError",
    "UniPoly",
    "UniPolyQn",
    "UnknownIdentity",
    "WZIdentity",
    "builtin_record",
    "carlson_point_check",
    "gosper_normal_form",
    "gosper_solve",
    "h_ratio",
    "load_builtin",
    "load_identity_file",
    "log_gamma",
    "parse_identity",
    "pi_from_series",
    "poch_exact",
    "reduces_to_ramanujan",
    "rhs_exact",
    "rhs_numeric",
    "serialize_identity",
    "series_numeric",
    "synthesize_certificate",
    "term_value",
    "termination_bound",
    "trig_identity_check",
    "verify_certificate",
    "verify_exact_sums",
    "wz_residual",
    "__version__",
]
