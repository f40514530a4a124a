"""The four workloads: their inputs, their operations and the known answer
each operation is checked against.

An operation is one record verified, one synthesis (a parse, exact sums and a
synthesis on ``families``) or one numeric check.  Operations call wzpi through
module attributes (``wz.verify_certificate``, not a name imported here), so
the span recorder in ``spans.py`` sees them when it is installed and costs
nothing when it is not.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from wzpi import catalog, gosper, numeric, wz
from wzpi.catalog import BUILTIN_NAMES, IdentityFile, builtin_record

from families import BLOCK, GROUP, FamilyRecord, draw_records

N_MAX = 20                  # exact sums n = 0..20, as `wzpi verify` does
FAMILY_N_MAX = 10
PRINTED_FAILS = frozenset({"theorem2", "theorem9"})   # misprinted certificates
# Synthesis of theorem4-theorem9 takes 5-12 s each and theorem10/11 about 55 s
# on a 2-core Xeon, too long for a run repeated 22 times; they join the synth
# workload once synthesis is fast enough.
SYNTH_NAMES = ("zeilberger", "theorem1", "theorem2", "theorem3")
PI_SERIES = (("ramanujan", None), ("r1103", 2))       # (record, accelerator terms)
LOG_GAMMA_POINTS = 64
FAMILY_DRAWS = GROUP * BLOCK
PROBE_RECORDS = 3
# Tolerances pinned by tests/test_acceptance.py.
CARLSON_TOL = 1e-9
PI_TOL = 1e-12
LOG_GAMMA_RTOL = 1e-12


# The one error an operation may raise and still count as a failed operation
# rather than a wrong verdict, and only on a record marked ``known_defect``.
KNOWN_DEFECT = "synthesized certificate failed verification"


def is_known_defect(exc: Exception) -> bool:
    return isinstance(exc, RuntimeError) and str(exc).startswith(KNOWN_DEFECT)


def never(exc: Exception) -> bool:
    return False


@dataclass
class Op:
    """One operation; ``check`` maps its result to (problem or None, stats).
    An exception is a wrong verdict unless ``may_raise`` accepts it."""
    label: str
    fn: Callable[[], Any]
    check: Callable[[Any], tuple[Optional[str], dict]]
    may_raise: Callable[[Exception], bool] = never


@dataclass
class Prepared:
    """Everything a run needs, built from the seed before timing starts."""
    ops: list[Op]
    probe_idents: list                    # WZ identities for layer probes
    printed: list                         # identities carrying a printed certificate
    cli_runs: list[tuple[list[str], int]]  # (argv, expected exit code)
    log_gamma_points: list[float]
    files: dict[str, str] = field(default_factory=dict)  # file name -> text for cli


# -- verify ---------------------------------------------------------------------


def verify_op(rec: IdentityFile, printed_ok: bool) -> Op:
    """What `wzpi verify --allow-errata` does for one record."""
    def fn():
        ident = rec.to_identity()
        if ident.kind != "wz":
            return None
        printed = None
        if ident.certificate is not None:
            printed = wz.verify_certificate(ident, n_scan=N_MAX)
        return printed, wz.verify_exact_sums(ident, n_max=N_MAX)

    def check(out):
        if rec.kind != "wz":
            return (None if out is None else "numeric record was checked"), {}
        printed, sums = out
        if not (sums.exact_sums_ok and sums.n_checked == N_MAX):
            return f"exact sums: {sums.failure_detail}", {}
        if (printed is None) != (not rec.has_certificate):
            return "printed certificate not checked", {}
        if printed is not None:
            passed = bool(printed.symbolic_ok and printed.boundary_ok
                          and printed.base_case_ok)
            if printed_ok and not passed:
                return f"printed certificate rejected: {printed.failure_detail}", {}
            if not printed_ok and printed.symbolic_ok is not False:
                return "misprinted certificate passed the symbolic check", {}
        return None, {}

    return Op(rec.name, fn, check)


def _log_gamma_points(rng: random.Random) -> list[float]:
    """Non-pole points: half in [0.01, 30], half in [-10, 10] off the integers."""
    points = []
    while len(points) < LOG_GAMMA_POINTS:
        if len(points) % 2 == 0:
            points.append(rng.uniform(0.01, 30.0))
        else:
            x = rng.uniform(-10.0, 10.0)
            if abs(x - round(x)) >= 1e-3:
                points.append(x)
    return points


def _probe_idents(names) -> list:
    idents = [builtin_record(n).to_identity() for n in names]
    return [i for i in idents if i.kind == "wz"][:PROBE_RECORDS]


def _cli_verify(names) -> list[tuple[list[str], int]]:
    """`wzpi verify` over the records: --all when they are all 14."""
    if tuple(names) == BUILTIN_NAMES:
        return [(["verify", "--all", "--allow-errata", "--json"], 0)]
    return [(["verify", "--id", n, "--allow-errata", "--json"], 0) for n in names]


def prepare_verify(seed: int, names=BUILTIN_NAMES) -> Prepared:
    rng = random.Random(seed)
    order = list(names)
    rng.shuffle(order)
    recs = [builtin_record(n) for n in order]
    wz_names = [n for n in names if builtin_record(n).kind == "wz"]
    return Prepared(
        ops=[verify_op(r, r.name not in PRINTED_FAILS) for r in recs],
        probe_idents=_probe_idents(wz_names),
        printed=[builtin_record(n).to_identity() for n in names
                 if builtin_record(n).has_certificate],
        cli_runs=_cli_verify(names),
        log_gamma_points=_log_gamma_points(rng),
    )


# -- synth ----------------------------------------------------------------------


def cert_size(cert) -> int:
    return len(cert.num.terms) + len(cert.den.terms)


def _summable(res) -> Optional[str]:
    if res.status != "Summable" or res.certificate is None:
        return f"status {res.status}, expected Summable"
    return None


def synth_op(rec: IdentityFile) -> Op:
    def fn():
        return gosper.synthesize_certificate(rec.to_identity())

    def check(res):
        problem = _summable(res)
        return problem, ({} if problem else {"cert_monomials": cert_size(res.certificate)})

    return Op(rec.name, fn, check)


def prepare_synth(seed: int, names=SYNTH_NAMES) -> Prepared:
    rng = random.Random(seed)
    order = list(names)
    rng.shuffle(order)
    return Prepared(
        ops=[synth_op(builtin_record(n)) for n in order],
        probe_idents=_probe_idents(names),
        printed=[builtin_record(n).to_identity() for n in names
                 if builtin_record(n).has_certificate],
        cli_runs=_cli_verify(names),
        log_gamma_points=_log_gamma_points(rng),
    )


# -- families -------------------------------------------------------------------


def family_op(fr: FamilyRecord) -> Op:
    def fn():
        ident = catalog.parse_identity(fr.text).to_identity()
        sums = wz.verify_exact_sums(ident, n_max=FAMILY_N_MAX)
        return sums.exact_sums_ok, gosper.synthesize_certificate(ident)

    def check(out):
        sums_ok, res = out
        if fr.perturbed:
            if sums_ok:
                return "negative control: sums equal the perturbed closed form", {}
            if res.status == "Summable":
                return "negative control was proved", {}
            return None, {}
        if not sums_ok:
            return "row sums differ from a true closed form", {}
        problem = _summable(res)
        return problem, ({} if problem else {"cert_monomials": cert_size(res.certificate)})

    return Op(fr.name, fn, check, is_known_defect if fr.known_defect else never)


def prepare_families(seed: int, draws: int = FAMILY_DRAWS) -> Prepared:
    rng = random.Random(seed)
    recs = draw_records(seed, draws)
    order = list(recs)
    rng.shuffle(order)
    probe = recs[:PROBE_RECORDS]
    return Prepared(
        ops=[family_op(r) for r in order],
        probe_idents=[catalog.parse_identity(r.text).to_identity() for r in probe],
        printed=[],
        cli_runs=[(["verify", "--file", f"{r.name}.identity", "--json"],
                   1 if r.perturbed else 0) for r in probe],
        log_gamma_points=_log_gamma_points(rng),
        files={f"{r.name}.identity": r.text for r in probe},
    )


# -- numeric --------------------------------------------------------------------


def _within(value: float, oracle: float, tol: float) -> tuple[Optional[str], dict]:
    err = abs(value - oracle)
    return (None if err <= tol else f"|{value!r} - {oracle!r}| = {err:.3e} > {tol:g}",
            {"abs_err": err})


def carlson_op(ident, two_over_pi: float) -> Op:
    def check(chk):
        p1, s1 = _within(chk.rhs_value, two_over_pi, CARLSON_TOL)
        p2, s2 = _within(chk.series_value, two_over_pi, CARLSON_TOL)
        return p1 or p2, {"abs_err": max(s1["abs_err"], s2["abs_err"])}

    return Op(f"carlson:{ident.name}", lambda: numeric.carlson_point_check(ident), check)


def pi_op(name: str, terms: Optional[int], pi: float) -> Op:
    return Op(f"pi:{name}", lambda: numeric.pi_from_series(name, terms=terms),
              lambda v: _within(v, pi, PI_TOL))


def log_gamma_op(x: float, oracle: tuple[float, int]) -> Op:
    value, sign = oracle

    def check(out):
        problem, stats = _within(out[0], value, LOG_GAMMA_RTOL * max(1.0, abs(value)))
        if out[1] != sign:
            problem = f"sign {out[1]} != {sign}"
        return problem, stats

    return Op(f"log_gamma:{x!r}", lambda: numeric.log_gamma(x), check)


def numeric_oracle(points: list[float]) -> tuple[float, float, list[tuple[float, int]]]:
    """2/pi, pi and (log|Gamma(x)|, sign) for each point, by mpmath at 30 digits."""
    import mpmath  # only here, so the other workloads' peak memory leaves it out

    with mpmath.workdps(30):
        lg = []
        for x in points:
            g = mpmath.gamma(mpmath.mpf(x))
            lg.append((float(mpmath.log(abs(g))), 1 if g > 0 else -1))
        return float(2 / mpmath.pi), float(mpmath.pi), lg


def prepare_numeric(seed: int, names=BUILTIN_NAMES,
                    log_gamma_points: int = LOG_GAMMA_POINTS) -> Prepared:
    rng = random.Random(seed)
    points = _log_gamma_points(rng)[:log_gamma_points]
    two_over_pi, pi, lg = numeric_oracle(points)
    idents = [builtin_record(n).to_identity() for n in names]
    ops = [carlson_op(i, two_over_pi) for i in idents if i.carlson_a is not None]
    ops += [pi_op(n, t, pi) for n, t in PI_SERIES if n in names]
    ops += [log_gamma_op(x, o) for x, o in zip(points, lg)]
    rng.shuffle(ops)
    return Prepared(
        ops=ops,
        probe_idents=_probe_idents(names),
        printed=[i for i in idents if i.certificate is not None],
        cli_runs=_cli_verify(names),
        log_gamma_points=points,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int], Prepared]
    nominal_pass_s: float   # one pass on a 2-core Xeon; sets passes per run


WORKLOADS = {
    w.name: w for w in (
        Workload("verify", prepare_verify, 6.6),
        Workload("synth", prepare_synth, 3.6),
        Workload("families", prepare_families, 16.0),
        Workload("numeric", prepare_numeric, 0.0034),
    )
}
