"""In-memory span recorder, attached to wzpi from outside by replacing module
attributes for the length of a ``with`` block.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the operation id the benchmark set
when the span opened (probes use negative ids).  Calls made through the
replaced attributes nest naturally, so ``gosper.synth`` holds
``gosper.normal_form``, which holds ``gosper.dispersion``, and so on.
"""
from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter

from wzpi import catalog, cli, gosper, numeric, wz

# (owner, attribute, span name).  Each attribute is replaced where the caller
# looks it up: gosper and wz import verify_certificate separately, so the
# printed-certificate check and the check inside synthesis get distinct spans.
PATCH_POINTS = (
    (catalog, "parse_identity", "catalog.parse"),
    (catalog.IdentityFile, "to_identity", "catalog.to_identity"),
    (wz, "term_value", "terms.term_value"),
    (wz, "rhs_exact", "terms.rhs_exact"),
    (wz, "wz_residual", "wz.residual"),
    (wz, "verify_certificate", "wz.verify_printed"),
    (wz, "verify_exact_sums", "wz.exact_sums"),
    (gosper, "h_ratio", "gosper.h_ratio"),
    (gosper, "_normal_form_impl", "gosper.normal_form"),
    (gosper, "dispersion_candidates", "gosper.dispersion"),
    (gosper, "gosper_solve", "gosper.solve"),
    (gosper, "verify_certificate", "wz.verify_synth"),
    (gosper, "synthesize_certificate", "gosper.synth"),
    (numeric, "log_gamma", "numeric.log_gamma"),
    (numeric, "rhs_numeric", "numeric.rhs"),
    (numeric, "series_numeric", "numeric.series"),
    (numeric, "carlson_point_check", "numeric.carlson"),
    (numeric, "pi_from_series", "numeric.pi"),
    (cli, "main", "cli.verify_all"),
)


def _unknowns(args, out):
    p, q, r = args[:3]
    return max(gosper._degree_bound(p, q, r.shift(-1)) + 1, 0)


# Span name -> summary of (args, result) for the count metrics.  The
# arguments and results of these spans are kept and summarised after the run,
# so that no work of the benchmark's lands inside a span that is still open.
SUMMARIES = {
    "wz.residual": lambda args, out: len(out.num.terms) + len(out.den.terms),
    "gosper.dispersion": lambda args, out: len(out),
    "gosper.solve": _unknowns,
    "gosper.normal_form": lambda args, out: len(out[3]),
    "gosper.synth": lambda args, out: out.degree_bound_used,
}
# Span names whose arguments and result are kept whole while ``keep`` is set,
# as operands for the probes.
KEPT = {"gosper.normal_form", "gosper.synth"}


class Tracer:
    """Spans in parallel arrays, so a long run adds no objects for the
    garbage collector to walk."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.summarised: list[tuple] = []  # (name, op, args, result)
        self.kept: list[tuple] = []        # (name, op, args, result)
        self.keep = False
        self.op = -1
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        try:
            out = fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()
        if name in SUMMARIES:
            self.summarised.append((name, self.op, args, out))
        if self.keep and name in KEPT:
            self.kept.append((name, self.op, args, out))
        return out

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Route every patch point through this tracer inside the block."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in PATCH_POINTS]
        try:
            for (owner, attr, name), (_, _, fn) in zip(PATCH_POINTS, saved):
                setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def totals(self, ops) -> dict[str, tuple[float, int]]:
        """name -> (summed duration, count) over spans whose op is in ``ops``."""
        out: dict[str, list] = {}
        for name, start, end, op in zip(self.names, self.starts, self.ends, self.ops):
            if op in ops:
                acc = out.setdefault(name, [0.0, 0])
                acc[0] += end - start
                acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def summed(self, name: str, ops) -> int:
        summary = SUMMARIES[name]
        return sum(summary(args, out) for n, op, args, out in self.summarised
                   if n == name and op in ops)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(zip(self.names, self.starts, self.ends,
                                        self.parents, self.ops)):
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "op"), (i, *rec)))))
                fh.write("\n")
