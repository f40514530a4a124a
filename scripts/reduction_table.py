#!/usr/bin/env python3
"""Show how each one-parameter identity collapses at n = -1/(2a).

Prints the numerator factor list of every terminating identity next to the
factor multiset obtained by substituting the continuation point, verifying
structurally that each one collapses to the alternating
(1/2)_k^3 / k!^3 * (4k+1) shape.

Usage:  python3 scripts/reduction_table.py
"""
from __future__ import annotations

from wzpi import BUILTIN_NAMES, builtin_record, reduces_to_ramanujan
from wzpi.terms import carlson_substitution


def factor_blurb(term) -> str:
    def nterm(b: int) -> str:
        if abs(b) == 1:
            return "-n" if b < 0 else "+n"
        return f"{b:+d}n"

    parts = []
    for f in (f for f in term.poch if f.power > 0):
        if f.n_coeff == 0:
            arg = f"{f.offset}"
        elif f.offset:
            arg = f"{f.offset}{nterm(f.n_coeff)}"
        else:
            arg = nterm(f.n_coeff).lstrip("+")
        parts.append(f"({arg})^{f.power}" if f.power != 1 else f"({arg})")
    return " ".join(parts)


def main() -> int:
    print(f"{'identity':<11} {'a':>2} {'z':>8}   numerator factors -> multiset at -1/(2a)")
    print("-" * 96)
    for name in BUILTIN_NAMES:
        rec = builtin_record(name)
        if rec.kind != "wz" or rec.carlson_a is None:
            continue
        term = rec.term
        args, fact, z, p = carlson_substitution(term, rec.carlson_a)
        multiset = " ".join(f"({a})^{e}" for a, e in sorted(args.items()))
        ok = reduces_to_ramanujan(term, rec.carlson_a)
        print(f"{name:<11} {rec.carlson_a:>2} {str(term.z):>8}   "
              f"{factor_blurb(term):<44} -> {multiset} / k!^{fact}, "
              f"z={z}, p={tuple(map(int, p))} {'ok' if ok else 'MISMATCH'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
