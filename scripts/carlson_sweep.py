#!/usr/bin/env python3
"""Evaluate every one-parameter identity at its rational continuation point.

For each terminating identity with a continuation parameter this prints the
closed-form value at n = -1/(2a), the accelerated series value, and their
distances from 2/pi (each series summed to 1e-12).  Ends with the theorem6
special form and machine-precision pi estimates from the two non-terminating
catalog series, summed to --tol.

Usage:  python3 scripts/carlson_sweep.py [--tol 1e-12]
"""
from __future__ import annotations

import argparse
import math

from wzpi import (
    BUILTIN_NAMES,
    builtin_record,
    carlson_point_check,
    load_builtin,
    pi_from_series,
    rhs_numeric,
    trig_identity_check,
)

from fractions import Fraction


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tol", type=float, default=1e-12,
                        help="summation tolerance of the pi estimates")
    args = parser.parse_args()

    names = [n for n in BUILTIN_NAMES
             if builtin_record(n).kind == "wz" and builtin_record(n).carlson_a]
    print(f"target 2/pi = {2 / math.pi!r}\n")
    print(f"{'identity':<11} {'point':>6} {'|rhs - 2/pi|':>14} "
          f"{'|series - 2/pi|':>16} {'|series - rhs|':>15}")
    print("-" * 66)
    worst = 0.0
    for name in names:
        chk = carlson_point_check(load_builtin(name))
        worst = max(worst, chk.rhs_error, chk.series_error)
        print(f"{name:<11} {str(chk.point):>6} {chk.rhs_error:>14.3e} "
              f"{chk.series_error:>16.3e} {chk.series_vs_rhs:>15.3e}")
    print(f"\nworst distance from 2/pi: {worst:.3e}")

    cos_sum = math.cos(math.pi / 5) + math.cos(2 * math.pi / 5)
    special = math.sqrt(5.0) / (math.pi * cos_sum)
    got = rhs_numeric(load_builtin("theorem6").rhs, Fraction(-1, 2))
    print(f"\ntheorem6 closed form at -1/2 vs sqrt(5)/(pi*(cos(pi/5)+cos(2pi/5))):"
          f" |diff| = {abs(got - special):.3e}")
    print(f"cos(pi/5)+cos(2pi/5) vs sqrt(5)/2: |diff| = {trig_identity_check():.3e}")

    print("\npi estimates:")
    for series, terms in (("ramanujan", None), ("r1103", 1), ("r1103", 2)):
        est = pi_from_series(series, args.tol, terms=terms)
        label = f"{series} ({terms if terms else 'auto'} terms)"
        print(f"  {label:<22} {est!r}  |error| = {abs(est - math.pi):.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
