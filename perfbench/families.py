"""Seeded Chu-Vandermonde and Pfaff-Saalschuetz records in the ``.identity``
grammar, for the ``families`` workload.

Chu-Vandermonde:   sum_k (-n)_k (b)_k / ((c)_k k!) = (c-b)_n / (c)_n
Pfaff-Saalschuetz: sum_k (-n)_k (a)_k (b)_k / ((c)_k (1+a+b-c-n)_k k!)
                     = (c-a)_n (c-b)_n / ((c)_n (c-a-b)_n)

A block holds 24 records: for each family, six records with the true closed
form and six negative controls whose closed form has its first numerator
argument raised by 1 (``c-b+1`` or ``c-a+1``).  Negative controls have row
sums that differ from the closed form and must not be proved.

How a parameter is drawn decides what synthesis costs, so the draw is
stratified and the seed only permutes:

- in each group of six, three slots have no integer parameter, and the others
  set one parameter to 2, one to 5, and one to 9 (Chu-Vandermonde b = 9) or
  two to 9 and 2 (Pfaff-Saalschuetz a = 9, b = 2);
- every other parameter is p/d with a denominator d fixed by its position
  (b: 3, c: 7 for Chu-Vandermonde; a: 2, b: 3, c: 7 for Pfaff-Saalschuetz)
  and p from a fixed list of four for that denominator.  Over four
  consecutive blocks each slot and position takes every p of its list once,
  in an order the seed chooses, so the seed changes which parameters meet in
  a record but not the values a slot sees.  Parameters of different positions
  never differ by an integer, except where a slot makes both integers.

Known defect, left in the draw and counted as a failed operation:

    The perturbed Pfaff-Saalschuetz record (a, b, c) = (9, 2, 8/7), closed form
    (c-a+1)_n (c-b)_n / ((c)_n (c-a-b)_n), makes ``synthesize_certificate``
    raise ``RuntimeError: synthesized certificate failed verification:
    certificate does not vanish at k = 0`` instead of returning a verdict.
    Every negative control with an integer numerator parameter (b for
    Chu-Vandermonde, a or b for Pfaff-Saalschuetz) raises the same way: five
    slots of a block, 20 of the 96 records of a group.  Those records carry
    ``known_defect``; the benchmark lets only them raise, and only this
    error.  Reproduce from the repository root with::

        PYTHONPATH=src:perfbench python3 -c "from families import *; reproduce()"
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

__all__ = ["BLOCK", "GROUP", "FamilyRecord", "draw_records", "known_defect_record",
           "reproduce"]

# (family, position of each parameter's denominator, integer slots)
_SHAPES = (
    ("cv", (3, 7), ({}, {}, {}, {0: 2}, {1: 5}, {0: 9})),
    ("ps", (2, 3, 7), ({}, {}, {}, {0: 2}, {1: 5}, {0: 9, 1: 2})),
)
BLOCK = sum(2 * len(slots) for _, _, slots in _SHAPES)
# numerators of the non-integer parameters, by denominator
NUMERATORS = {2: (1, 5, 7, 11), 3: (1, 4, 8, 11), 7: (2, 6, 8, 12)}
GROUP = 4   # blocks over which every slot meets every numerator once


@dataclass(frozen=True)
class FamilyRecord:
    name: str
    family: str          # "cv" or "ps"
    params: tuple        # (b, c) for cv, (a, b, c) for ps
    perturbed: bool      # True: negative control with a wrong closed form
    text: str            # the record in the .identity grammar
    known_defect: bool = False   # synthesis may raise the defect described above


def _bad(x: Fraction) -> bool:
    """A Pochhammer argument that is a non-positive integer."""
    return x.denominator == 1 and x <= 0


def _poch(arg, power: int) -> str:
    return f'"({arg})^{power}"'


def _record_text(name: str, num: list[str], den: list[str], rhs: list[str]) -> str:
    return "\n".join([
        "[identity]",
        f"name = {name}",
        "kind = wz",
        "z = 1",
        "p = [1]",
        "fact_pow = 1",
        "num_poch = [" + ", ".join(num) + "]",
        "den_poch = [" + ", ".join(den) + "]",
        "rhs_base = 1",
        "rhs_poch = [" + ", ".join(rhs) + "]",
    ]) + "\n"


def _cv(name: str, b: Fraction, c: Fraction, perturbed: bool):
    top = c - b + (1 if perturbed else 0)
    if any(_bad(x) for x in (b, c, c - b, top)):
        return None
    text = _record_text(
        name, [_poch("-n", 1), _poch(b, 1)], [_poch(c, 1)],
        [_poch(top, 1), _poch(c, -1)])
    return FamilyRecord(name, "cv", (b, c), perturbed, text)


def _ps(name: str, a: Fraction, b: Fraction, c: Fraction, perturbed: bool):
    top = c - a + (1 if perturbed else 0)
    shift = 1 + a + b - c
    if shift.denominator == 1 or any(
            _bad(x) for x in (a, b, c, c - a, c - b, c - a - b, top)):
        return None
    text = _record_text(
        name, [_poch("-n", 1), _poch(a, 1), _poch(b, 1)],
        [_poch(c, 1), _poch(f"-n+{shift}", 1)],
        [_poch(top, 1), _poch(c - b, 1), _poch(c, -1), _poch(c - a - b, -1)])
    return FamilyRecord(name, "ps", (a, b, c), perturbed, text)


def _make(family: str, name: str, params, perturbed: bool, ints: dict):
    rec = (_cv if family == "cv" else _ps)(name, *params, perturbed)
    # the last parameter, c, is the only one in no numerator
    if rec is not None and perturbed and any(i < len(params) - 1 for i in ints):
        rec = replace(rec, known_defect=True)
    return rec


def draw_records(seed: int, count: int) -> list[FamilyRecord]:
    """The first ``count`` records of the seeded sequence of blocks."""
    rng = random.Random(seed)
    slots = [(family, dens, perturbed, ints) for family, dens, group in _SHAPES
             for perturbed in (False, True) for ints in group]
    out: list[FamilyRecord] = []
    while len(out) < count:
        orders = [[rng.sample(NUMERATORS[d], GROUP) for d in dens]
                  for _, dens, _, _ in slots]
        for block in range(GROUP):
            for (family, dens, perturbed, ints), order in zip(slots, orders):
                params = [Fraction(ints[i]) if i in ints
                          else Fraction(order[i][block], d) for i, d in enumerate(dens)]
                rec = _make(family, f"{family}_{len(out)}", params, perturbed, ints)
                if rec is None:
                    raise AssertionError(f"pole in drawn parameters {params}")
                out.append(rec)
    return out[:count]


def known_defect_record() -> FamilyRecord:
    return _make("ps", "ps_defect", [Fraction(9), Fraction(2), Fraction(8, 7)], True,
                 {0: 9, 1: 2})


def reproduce() -> None:
    from wzpi import parse_identity, synthesize_certificate

    rec = known_defect_record()
    print(rec.text)
    synthesize_certificate(parse_identity(rec.text).to_identity())
