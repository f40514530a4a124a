#!/usr/bin/env python3
"""Print deterministic operation counts for one verify pass and one
synthesis pass, as one JSON line.

A verify pass is ``to_identity`` on the 14 bundled records, the printed
certificate check (``n_scan=20``) of the 9 records that carry one and the
exact sums (``n_max=20``) of the 12 ``wz`` records.  A synthesis pass is
``synthesize_certificate`` on the 12 ``wz`` records.  Each pass is run once
first, so that the counts are those of a steady state (the records parsed).

Counted per pass:

- ``products``: ``Poly2 * Poly2`` products (a product with a scalar is not
  counted);
- ``divide``, ``row`` and ``shift``: ``Poly2.divide``, ``Poly2.row`` and
  ``Poly2.shift`` calls;
- ``split_factors`` and ``sum_of_products``: calls of those functions, from
  any module of the package;
- ``fractions``: ``Fraction`` constructions (``Fraction.__new__`` calls), by
  the package and by ``Fraction``'s own arithmetic;
- ``calls``: Python-level function calls (``sys.setprofile`` "call"
  events), in a separate pass run without the counters above.

The counts do not depend on the host or on the hash seed.  ``count_ops``,
``count_calls`` and the two pass functions take no arguments beyond the
pass, so a benchmark can import them.

Usage:  PYTHONPATH=src python3 scripts/op_counts.py
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Iterator

from wzpi import algebra, gosper, terms, wz
from wzpi.algebra import Poly2
from wzpi.catalog import BUILTIN_NAMES, builtin_record

N_MAX = 20
WZ_NAMES = tuple(n for n in BUILTIN_NAMES if builtin_record(n).kind == "wz")
FUNCTIONS = {"split_factors": terms.split_factors, "sum_of_products": algebra.sum_of_products}
METHODS = ("divide", "row", "shift")  # Poly2 methods counted per call


def verify_pass() -> None:
    for name in BUILTIN_NAMES:
        ident = builtin_record(name).to_identity()
        if ident.kind != "wz":
            continue
        if ident.certificate is not None:
            wz.verify_certificate(ident, n_scan=N_MAX)
        wz.verify_exact_sums(ident, n_max=N_MAX)


def synth_pass() -> None:
    for name in WZ_NAMES:
        gosper.synthesize_certificate(builtin_record(name).to_identity())


@contextmanager
def _counters(counts: Counter) -> Iterator[None]:
    """Count products, Fractions and the calls of METHODS inside the block,
    and those of FUNCTIONS wherever a module of the package binds them."""
    mul = Poly2.__mul__
    methods = {name: getattr(Poly2, name) for name in METHODS}
    new = vars(Fraction)["__new__"]  # a staticmethod, put back as it is

    def counted_new(cls, *args, **kwargs):
        counts["fractions"] += 1
        return new.__func__(cls, *args, **kwargs)

    def counted_mul(a, b):
        counts["products"] += isinstance(b, Poly2)
        return mul(a, b)

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    modules = [m for n, m in sys.modules.items() if n == "wzpi" or n.startswith("wzpi.")]
    saved = [(m, name, fn) for m in modules for name, fn in FUNCTIONS.items()
             if getattr(m, name, None) is fn]
    Poly2.__mul__ = counted_mul
    Fraction.__new__ = staticmethod(counted_new)
    for name, fn in methods.items():
        setattr(Poly2, name, counted(name, fn))
    for m, name, fn in saved:
        setattr(m, name, counted(name, fn))
    try:
        yield
    finally:
        Poly2.__mul__ = mul
        Fraction.__new__ = new
        for name, fn in methods.items():
            setattr(Poly2, name, fn)
        for m, name, fn in saved:
            setattr(m, name, fn)


def count_ops(run: Callable[[], None]) -> dict[str, int]:
    """The products, Fractions and METHODS and FUNCTIONS calls of one run of
    ``run``."""
    counts = Counter({"products": 0, "fractions": 0, **dict.fromkeys(METHODS, 0),
                      **dict.fromkeys(FUNCTIONS, 0)})
    with _counters(counts):
        run()
    return dict(counts)


def count_calls(run: Callable[[], None]) -> int:
    """The Python-level calls of one run of ``run``, itself among them."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def main() -> int:
    out = {}
    for name, run in (("verify", verify_pass), ("synth", synth_pass)):
        run()  # warm-up: parse the records
        out[name] = {**count_ops(run), "calls": count_calls(run)}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
