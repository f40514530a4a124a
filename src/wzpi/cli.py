"""Command-line front end.

Subcommands: list, verify, sum, synth, numeric, pi.  Every subcommand accepts
--json, which writes a single machine-readable document to stdout (a
RunReport object, or an array of them for --all); human-readable diagnostics
go to stderr.  Exit codes: 0 all checks passed, 1 at least one check failed
(or the engine reported an internal error, a pole or a floating-point
overflow), 2 usage or parse error, 3 a series failed to converge, 141 stdout
was closed before the output was written (a broken pipe, as when piped into
``head``; 128 + SIGPIPE, the status a shell reports for a process that
signal ends).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Optional

from . import __version__
from .catalog import (
    BUILTIN_NAMES,
    IdentityFile,
    ParseError,
    SemanticError,
    UnknownIdentity,
    builtin_record,
    load_identity_file,
    serialize_identity,
)
from .algebra import Poly2, RatFunc2
from .gosper import DegenerateRatio, synthesize_certificate
from .numeric import NoConvergence, carlson_point_check, pi_from_series
from .terms import PoleError
from .wz import row_sum, verify_certificate, verify_exact_sums

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BROKEN_PIPE = 141


@dataclass
class Check:
    name: str
    status: str  # pass | fail | skip
    detail: str = ""
    millis: int = 0


@dataclass
class RunReport:
    tool_version: str
    identity: str
    checks: list[Check] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def add(self, name: str, status: str, detail: str, started: float) -> None:
        self.checks.append(
            Check(name, status, detail, int((time.monotonic() - started) * 1000))
        )


def _new_report(identity: str) -> RunReport:
    return RunReport(tool_version=__version__, identity=identity)


def _print_report(rep: RunReport) -> None:
    for c in rep.checks:
        print(f"{rep.identity}: {c.name}: {c.status}"
              + (f" ({c.detail})" if c.detail else "") + f" [{c.millis} ms]")


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _show(rep: RunReport, as_json: bool) -> None:
    if as_json:
        _emit(asdict(rep))
    else:
        _print_report(rep)


def _load_record(args) -> IdentityFile:
    if getattr(args, "file", None):
        return load_identity_file(args.file)
    return builtin_record(args.id)


# -- list ------------------------------------------------------------------------


def cmd_list(args) -> int:
    rows = []
    for name in BUILTIN_NAMES:
        rec = builtin_record(name)
        rows.append({
            "name": rec.name,
            "kind": rec.kind,
            "carlson_a": rec.carlson_a,
            "has_certificate": rec.has_certificate,
            "erratum": rec.erratum,
        })
    if args.json:
        _emit(rows)
    else:
        for r in rows:
            a = "-" if r["carlson_a"] is None else str(r["carlson_a"])
            print(f"{r['name']:<12} {r['kind']:<8} a={a:<3} "
                  f"certificate={'yes' if r['has_certificate'] else 'no':<4} "
                  f"erratum={'true' if r['erratum'] else 'false'}")
    return EXIT_OK


# -- verify ----------------------------------------------------------------------


def _verify_one(rec: IdentityFile, n_max: int, allow_errata: bool) -> RunReport:
    rep = _new_report(rec.name)
    ident = rec.to_identity()
    if rec.kind != "wz":
        started = time.monotonic()
        rep.add("exact_sums", "skip",
                "non-terminating series; no finite-sum identity to check", started)
        return rep
    started = time.monotonic()
    if ident.certificate is None:
        rep.add("certificate", "skip", "no printed certificate", started)
    else:
        cert_rep = verify_certificate(ident, n_scan=n_max)
        if cert_rep.ok:
            rep.add("certificate", "pass", cert_rep.failure_detail, started)
        elif rec.erratum and allow_errata:
            rep.add("certificate", "skip",
                    "flagged erratum: " + cert_rep.failure_detail, started)
        else:
            rep.add("certificate", "fail", cert_rep.failure_detail, started)
    started = time.monotonic()
    sums = verify_exact_sums(ident, n_max=n_max)
    rep.add("exact_sums",
            "pass" if sums.exact_sums_ok else "fail",
            sums.failure_detail or f"n = 0..{sums.n_checked} all equal",
            started)
    return rep


def cmd_verify(args) -> int:
    n_max = args.n_max
    if n_max < 0:
        print("error: --n-max must be a nonnegative integer", file=sys.stderr)
        return EXIT_USAGE
    reports: list[RunReport] = []
    if args.all:
        for name in BUILTIN_NAMES:
            reports.append(_verify_one(builtin_record(name), n_max, args.allow_errata))
    else:
        reports.append(_verify_one(_load_record(args), n_max, args.allow_errata))
    if args.json:
        payload = [asdict(r) for r in reports]
        _emit(payload if args.all else payload[0])
    else:
        for r in reports:
            _print_report(r)
    return EXIT_CHECK_FAILED if any(r.failed for r in reports) else EXIT_OK


# -- sum -------------------------------------------------------------------------


def cmd_sum(args) -> int:
    rec = _load_record(args)
    ident = rec.to_identity()
    n = args.n
    if n < 0:
        print("error: --n must be a nonnegative integer", file=sys.stderr)
        return EXIT_USAGE
    if ident.rhs is None:
        print(f"error: {rec.name} has no closed form to compare against",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        lhs, rhs = row_sum(ident, n)
    except ValueError:
        print(f"error: the {rec.name} series does not terminate at integer n",
              file=sys.stderr)
        return EXIT_USAGE
    equal = lhs == rhs
    if args.json:
        _emit({"identity": rec.name, "n": n, "lhs": str(lhs), "rhs": str(rhs),
               "equal": equal})
    else:
        print(f"LHS = {lhs}, RHS = {rhs}, {'equal' if equal else 'NOT equal'}")
    return EXIT_OK if equal else EXIT_CHECK_FAILED


# -- synth -----------------------------------------------------------------------


def _difference(printed: RatFunc2, cert: RatFunc2) -> str:
    """How a printed certificate differs from the synthesized one, which is in
    lowest terms: by a constant factor, or in the numerator coefficients that
    differ once both are written over the printed denominator.  Empty when
    the denominators differ by more than a constant."""
    mono = max(cert.den.terms)
    scale = printed.den.coeff(*mono) / cert.den.coeff(*mono)
    if cert.den * scale != printed.den:
        return ""
    num, e = cert.num * scale, max(cert.num.terms)
    ratio = num.coeff(*e) / printed.num.coeff(*e) if printed.num.coeff(*e) else 0
    if ratio and num == printed.num * ratio:
        return f": synthesized = {ratio} * printed"
    diff = sorted(e for e in set(num.terms) | set(printed.num.terms)
                  if num.coeff(*e) != printed.num.coeff(*e))
    if len(diff) > 3:
        return f" in {len(diff)} numerator coefficients"
    return " at " + ", ".join(f"{Poly2({e: 1})} (printed {printed.num.coeff(*e)}, "
                              f"synthesized {num.coeff(*e)})" for e in diff)


def cmd_synth(args) -> int:
    rec = _load_record(args)
    if rec.kind != "wz":
        print(f"error: {rec.name} is not a telescoping identity", file=sys.stderr)
        return EXIT_USAGE
    ident = rec.to_identity()
    rep = _new_report(rec.name)
    started = time.monotonic()
    try:
        result = synthesize_certificate(ident)
    except DegenerateRatio as exc:
        rep.add("synthesis", "fail", f"degenerate ratio: {exc}", started)
        _show(rep, args.json)
        return EXIT_CHECK_FAILED
    if result.status != "Summable":
        detail = f"status {result.status}, degree bound {result.degree_bound_used}"
        if result.report is not None:
            detail += f"; {result.report.failure_detail}"
        rep.add("synthesis", "fail", detail, started)
        _show(rep, args.json)
        return EXIT_CHECK_FAILED
    cert = result.certificate
    detail = (f"degree bound {result.degree_bound_used}, "
              f"dispersion set {list(result.dispersion_set)}")
    if ident.certificate is not None:
        same = ident.certificate == cert
        detail += ("; semantically equal to the printed certificate" if same
                   else "; differs from the printed certificate"
                   + _difference(ident.certificate, cert))
    rep.add("synthesis", "pass", detail, started)
    emitted: Optional[str] = None
    if args.emit is not None:
        repaired = replace(rec, cert_num=cert.num, cert_den=cert.product, erratum=False)
        path = args.emit or f"{rec.name}-repaired.identity"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_identity(repaired))
        emitted = path
    if args.json:
        payload = asdict(rep)
        payload["certificate"] = {"num": str(cert.num), "den": str(cert.den)}
        if emitted:
            payload["emitted"] = emitted
        _emit(payload)
    else:
        _print_report(rep)
        print(f"R_num = {cert.num}")
        print(f"R_den = {cert.den}")
        if emitted:
            print(f"wrote {emitted}", file=sys.stderr)
    return EXIT_OK


# -- numeric ---------------------------------------------------------------------


def cmd_numeric(args) -> int:
    rec = _load_record(args)
    ident = rec.to_identity()
    if ident.rhs is None or (ident.carlson_a is None and args.point is None):
        print(f"error: {rec.name} has no continuation point to check",
              file=sys.stderr)
        return EXIT_USAGE
    tol = args.tol
    try:
        point = Fraction(args.point) if args.point is not None else None
    except ZeroDivisionError:
        print(f"error: --point {args.point} has a zero denominator", file=sys.stderr)
        return EXIT_USAGE
    rep = _new_report(rec.name)
    started = time.monotonic()
    try:
        chk = carlson_point_check(ident, point=point)
    except NoConvergence as exc:
        rep.add("series_convergence", "fail", str(exc), started)
        _show(rep, args.json)
        return EXIT_NO_CONVERGENCE
    at_default = point is None or (
        ident.carlson_a is not None and point == Fraction(-1, 2 * ident.carlson_a)
    )
    rep.add("series_vs_closed_form",
            "pass" if chk.series_vs_rhs <= tol else "fail",
            f"point {chk.point}: |series - rhs| = {chk.series_vs_rhs:.3e}",
            started)
    started = time.monotonic()
    if at_default:
        rep.add("closed_form_vs_2_over_pi",
                "pass" if chk.rhs_error <= tol else "fail",
                f"|rhs - 2/pi| = {chk.rhs_error:.3e}", started)
        if rec.name == "theorem6":
            started = time.monotonic()
            trig = math.sqrt(5) / (
                math.pi * (math.cos(math.pi / 5) + math.cos(2 * math.pi / 5))
            )
            err = abs(chk.rhs_value - trig)
            rep.add("closed_form_vs_sqrt5_over_pi_cos_sum",
                    "pass" if err <= tol else "fail",
                    f"sqrt(5)/(pi*(cos(pi/5)+cos(2pi/5))) = {trig!r}, "
                    f"|rhs - value| = {err:.3e}", started)
    else:
        rep.add("closed_form_vs_2_over_pi", "skip",
                "off the standard continuation point", started)
    _show(rep, args.json)
    return EXIT_CHECK_FAILED if rep.failed else EXIT_OK


# -- pi --------------------------------------------------------------------------


def cmd_pi(args) -> int:
    if args.terms is not None and args.terms < 1:
        print("error: --terms must be a positive integer", file=sys.stderr)
        return EXIT_USAGE
    try:
        est = pi_from_series(args.series, args.tol, terms=args.terms)
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    err = abs(est - math.pi)
    if args.json:
        _emit({"series": args.series, "estimate": est, "abs_error": err,
               "terms": args.terms})
    else:
        print(f"pi ~ {est!r}  |error| = {err:.3e}")
    return EXIT_OK if err <= args.tol else EXIT_CHECK_FAILED


# -- parser ----------------------------------------------------------------------


def positive_float(text: str) -> float:
    """The --tol of numeric and pi: a positive finite float."""
    if not 0 < float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return float(text)


def _id_or_file(sub, required: bool = True):
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--id", help="builtin identity name")
    group.add_argument("--file", help="path to an .identity file")
    return group


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wzpi",
        description="verify, re-prove, and numerically confirm a catalog of "
                    "telescoping hypergeometric identities",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("list", help="catalog contents")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_list)

    p = subs.add_parser("verify", help="certificate and exact-sum checks")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--id")
    group.add_argument("--file")
    group.add_argument("--all", action="store_true")
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--allow-errata", action="store_true",
                   help="report known-bad printed certificates as skipped")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("sum", help="exact finite sum vs closed form")
    _id_or_file(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sum)

    p = subs.add_parser("synth", help="synthesize a telescoping certificate")
    _id_or_file(p)
    p.add_argument("--emit", nargs="?", const="", default=None,
                   metavar="PATH", help="write a repaired .identity file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("numeric", help="continuation-point residuals")
    _id_or_file(p)
    p.add_argument("--point", help="rational evaluation point (default -1/(2a))")
    p.add_argument("--tol", type=positive_float, default=1e-9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_numeric)

    p = subs.add_parser("pi", help="estimate pi from a catalog series")
    p.add_argument("--series", choices=("ramanujan", "r1103"), required=True)
    p.add_argument("--terms", type=int, default=None)
    p.add_argument("--tol", type=positive_float, default=1e-9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pi)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ParseError, SemanticError) as exc:
        print(f"error: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnknownIdentity as exc:
        print(f"error: unknown identity: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a missing file, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PoleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OverflowError as exc:  # args[-1] drops the errno of a float power
        print(f"error: floating-point overflow: {exc.args[-1]}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
