"""Per-layer metrics of a traced run.

A time metric is the busy time of its spans per traced pass.  Where the
workload's operations never enter a function, it is measured instead by one
probe over the workload's own records (the first three WZ records, their
certificates, its log_gamma points), and the metric's ``source`` says so.
``algebra.*`` and ``unipoly.*`` are always probes: their operands are the
workload's certificates and shift quotients, and specialisations of the
normal forms its synthesis computed.  ``cli.verify_all_s`` is always a probe
running `wzpi verify` in process over the workload's records.
"""
from __future__ import annotations

import contextlib
import io
import operator
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from wzpi import cli, gosper, numeric, terms, unipoly, wz
from wzpi.catalog import load_builtin

from spans import Tracer
from workloads import N_MAX, PI_SERIES, Prepared

PROBE_OP = -1
CLI_OP = -2

# metric -> span names whose durations it sums (inclusive of nested spans)
TIME_SPANS = {
    "catalog.parse_s": ("catalog.parse", "catalog.to_identity"),
    "terms.term_value_s": ("terms.term_value", "terms.rhs_exact"),
    "algebra.mul_s": ("algebra.mul",),
    "algebra.shift_s": ("algebra.shift",),
    "unipoly.mul_s": ("unipoly.mul",),
    "unipoly.gcd_s": ("unipoly.gcd",),
    "unipoly.interpolate_s": ("unipoly.interpolate",),
    "gosper.h_ratio_s": ("gosper.h_ratio",),
    "gosper.normal_form_s": ("gosper.normal_form",),
    "gosper.dispersion_s": ("gosper.dispersion",),
    "gosper.solve_s": ("gosper.solve",),
    "gosper.synth_s": ("gosper.synth",),
    "wz.verify_printed_s": ("wz.verify_printed",),
    "wz.verify_synth_s": ("wz.verify_synth",),
    "wz.exact_sums_s": ("wz.exact_sums",),
    "wz.residual_s": ("wz.residual",),
    "numeric.log_gamma_s": ("numeric.log_gamma",),
    "numeric.rhs_s": ("numeric.rhs",),
    "numeric.series_s": ("numeric.series",),
    "numeric.carlson_s": ("numeric.carlson",),
    "numeric.pi_s": ("numeric.pi",),
    "cli.verify_all_s": ("cli.verify_all",),
}
# count metric -> the span whose presence in the passes says it was counted
# there rather than in the probes (default: gosper.synth)
COUNTED_BY = {"catalog.records": "catalog.to_identity",
              "terms.row_terms": "terms.term_value",
              "algebra.residual_monomials": "wz.residual"}


class ProbeError(RuntimeError):
    """A probe computed a wrong answer; the run is not trustworthy."""


def _entered(tracer: Tracer) -> set[str]:
    return {name for name, op in zip(tracer.names, tracer.ops) if op >= 0}


def _kept(tracer: Tracer, name: str, in_pass: bool) -> list[tuple]:
    """(args, result) of the kept calls of ``name`` in the first traced pass
    (``in_pass``) or in the probes."""
    return [(args, out) for n, op, args, out in tracer.kept
            if n == name and (op >= 0) == in_pass]


def run_probes(tracer: Tracer, prep: Prepared, workdir: Path) -> None:
    """Probe every layer the traced passes did not enter, plus the
    always-probed algebra, unipoly and cli layers.  Call with the tracer
    installed, after the traced passes."""
    entered = _entered(tracer)
    tracer.op = PROBE_OP
    tracer.keep = True
    synthesized = [(args[0], res) for args, res in _kept(tracer, "gosper.synth", True)
                   if res.status == "Summable"]

    idents = prep.probe_idents
    if "wz.verify_printed" not in entered:
        with_cert = [i for i in idents if i.certificate is not None]
        if not with_cert:  # records without a printed one: the synthesized one
            with_cert = [replace(i, certificate=r.certificate) for i, r in synthesized]
        for ident in with_cert[:len(idents)]:
            wz.verify_certificate(ident, n_scan=N_MAX)
    if "wz.exact_sums" not in entered:
        for ident in idents:
            wz.verify_exact_sums(ident, n_max=N_MAX)
    if "gosper.synth" not in entered:
        for ident in idents:
            gosper.synthesize_certificate(ident)
    if "numeric.carlson" not in entered:
        chk = [i for i in idents if i.carlson_a is not None] or [load_builtin("theorem1")]
        for ident in chk:
            numeric.carlson_point_check(ident)
    if "numeric.log_gamma" not in entered:
        for x in prep.log_gamma_points:
            numeric.log_gamma(x)
    if "numeric.pi" not in entered:
        for name, n_terms in PI_SERIES:
            numeric.pi_from_series(name, terms=n_terms)

    _algebra_probe(tracer, prep, synthesized)
    _unipoly_probe(tracer)
    _cli_probe(tracer, prep, workdir)


def _algebra_probe(tracer: Tracer, prep: Prepared, synthesized) -> None:
    pairs = [(i, r.certificate) for i, r in synthesized] or \
        [(i, i.certificate) for i in prep.printed]
    for ident, cert in pairs:
        rk = terms.shift_quotient_k(ident.term)
        for a, b in ((cert.num, rk.num), (cert.den, rk.den)):
            prod = tracer.call("algebra.mul", operator.mul, a, b)
            if prod.eval(3, 2) != a.eval(3, 2) * b.eval(3, 2):
                raise ProbeError("Poly2 product disagrees with its factors")
        for p in (cert.num, cert.den, rk.num, rk.den):
            shifted = tracer.call("algebra.shift", p.shift, "k", 1)
            if shifted.eval(3, 2) != p.eval(3, 3):
                raise ProbeError("Poly2 shift disagrees with evaluation")


def _specialise(f, g):
    """q(n0, k) and r(n0, k) at the first n0 >= 2 where both are defined."""
    for n0 in range(2, 64):
        try:
            return f.eval_n(Fraction(n0)), g.eval_n(Fraction(n0))
        except ZeroDivisionError:
            continue
    raise ProbeError("no specialisation point for the normal form")


def _unipoly_probe(tracer: Tracer) -> None:
    forms = _kept(tracer, "gosper.normal_form", True) or \
        _kept(tracer, "gosper.normal_form", False)
    for _, (p, q, r, _) in forms:
        qa, ra = _specialise(q, r)
        prod = tracer.call("unipoly.mul", operator.mul, qa, ra)
        if prod.eval(5) != qa.eval(5) * ra.eval(5):
            raise ProbeError("UniPoly product disagrees with its factors")
        g = tracer.call("unipoly.gcd", qa.gcd, ra)
        if not ((qa % g).is_zero and (ra % g).is_zero):
            raise ProbeError("UniPoly gcd does not divide its arguments")
        for coeff in q.coeffs + r.coeffs + p.coeffs:
            num = coeff.num
            pts = [(x, num.eval(x)) for x in range(2, num.degree + 3)]
            if tracer.call("unipoly.interpolate", unipoly.interpolate, pts) != num:
                raise ProbeError("interpolation missed a normal-form coefficient")


def _cli_probe(tracer: Tracer, prep: Prepared, workdir: Path) -> None:
    tracer.op = CLI_OP
    if prep.files:
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in prep.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
    for argv, expected in prep.cli_runs:
        argv = [str(workdir / a) if a in prep.files else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != expected:
            raise ProbeError(f"wzpi {' '.join(argv)} exited {code}, expected {expected}")
    tracer.op = PROBE_OP


def _counts(tracer: Tracer, ops) -> dict[str, int]:
    tot = tracer.totals(ops)
    return {
        "catalog.records": tot.get("catalog.to_identity", (0, 0))[1],
        "terms.row_terms": tot.get("terms.term_value", (0, 0))[1],
        "algebra.residual_monomials": tracer.summed("wz.residual", ops),
        "gosper.degree_bound": tracer.summed("gosper.synth", ops),
        "gosper.unknowns": tracer.summed("gosper.solve", ops),
        "gosper.dispersion_candidates": tracer.summed("gosper.dispersion", ops),
        "gosper.dispersion_confirmed": tracer.summed("gosper.normal_form", ops),
    }


def per_layer(tracer: Tracer, n_ops: int, traced_passes: int) -> dict[str, dict]:
    """Metric name -> {"value", "unit", "source"}; see the module docstring."""
    pass_ops = range(0, n_ops * traced_passes)
    pass_tot = tracer.totals(pass_ops)
    probe_tot = tracer.totals({PROBE_OP})
    cli_tot = tracer.totals({CLI_OP})
    out: dict[str, dict] = {}
    for metric, names in TIME_SPANS.items():
        if metric == "cli.verify_all_s":
            value, source = sum(cli_tot.get(n, (0.0, 0))[0] for n in names), "probe"
        elif any(n in pass_tot for n in names):
            value = sum(pass_tot.get(n, (0.0, 0))[0] for n in names) / traced_passes
            source = "spans"
        else:
            value = sum(probe_tot.get(n, (0.0, 0))[0] for n in names)
            source = "probe"
        out[metric] = {"value": value, "unit": "s", "source": source}

    per_pass = _counts(tracer, pass_ops)
    probed = _counts(tracer, {PROBE_OP})
    for metric in per_pass:
        if COUNTED_BY.get(metric, "gosper.synth") in pass_tot:
            value, source = per_pass[metric] / traced_passes, "spans"
        else:
            value, source = probed[metric], "probe"
        out[metric] = {"value": int(value) if value == int(value) else value,
                       "unit": "count", "source": source}
    cand = out["gosper.dispersion_candidates"]["value"]
    out["gosper.dispersion_useful_ratio"] = {
        "value": out["gosper.dispersion_confirmed"]["value"] / cand if cand else 0.0,
        "unit": "ratio", "source": out["gosper.dispersion_candidates"]["source"]}
    return out
