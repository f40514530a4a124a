#!/usr/bin/env python3
"""Write, or check, the golden CLI outputs under tests/data/cli_golden/.

Each file holds one command's exit code, stdout and stderr, run in-process
through ``wzpi.cli.main``, with the timings (``[N ms]`` and ``"millis": N``)
masked so that the text depends on the results alone.  The commands are
``verify --all --allow-errata`` with and without ``--json``, ``synth --id X``
and ``numeric --id X`` for every ``wz`` record, ``sum --id X --n 5`` for every
record, and ``pi`` on both series: at the default tolerance, with ``--json``,
with ``--terms 2``, and with ``--terms 403``, where the accelerator's weights
pass the largest double.

Usage:  PYTHONPATH=src python3 scripts/cli_golden.py [--check]

With ``--check`` nothing is written; each file that differs is named on
stderr, followed by a unified diff of it (at most 40 lines).
"""
from __future__ import annotations

import argparse
import difflib
import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from wzpi import BUILTIN_NAMES, builtin_record
from wzpi.cli import main as cli_main

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "data" / "cli_golden"

_TIMINGS = (re.compile(r"\[\d+ ms\]"), "[N ms]"), (re.compile(r'"millis": \d+'), '"millis": N')
DIFF_LINES = 40


def cases() -> dict[str, list[str]]:
    """File name -> CLI arguments."""
    out = {"verify-all.txt": ["verify", "--all", "--allow-errata"],
           "verify-all-json.txt": ["verify", "--all", "--allow-errata", "--json"]}
    for name in BUILTIN_NAMES:
        if builtin_record(name).kind == "wz":
            out[f"synth-{name}.txt"] = ["synth", "--id", name]
    for name in BUILTIN_NAMES:
        out[f"sum-{name}.txt"] = ["sum", "--id", name, "--n", "5"]
    for name in BUILTIN_NAMES:
        if builtin_record(name).kind == "wz":
            out[f"numeric-{name}.txt"] = ["numeric", "--id", name]
    out.update({
        "pi-ramanujan.txt": ["pi", "--series", "ramanujan"],
        "pi-r1103.txt": ["pi", "--series", "r1103"],
        "pi-r1103-terms-2.txt": ["pi", "--series", "r1103", "--terms", "2"],
        "pi-ramanujan-terms-403.txt": ["pi", "--series", "ramanujan", "--terms", "403"],
        "pi-r1103-json.txt": ["pi", "--series", "r1103", "--json"],
    })
    return out


def render(argv: list[str]) -> str:
    """Exit code, stdout and stderr of one CLI run, timings masked."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    text = (f"$ wzpi {' '.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    for pattern, mask in _TIMINGS:
        text = pattern.sub(mask, text)
    return text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the files instead of writing them")
    args = parser.parse_args()
    stale = []
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for fname, argv in cases().items():
        path = GOLDEN_DIR / fname
        text = render(argv)
        if args.check:
            old = path.read_bytes().decode("utf-8") if path.exists() else ""
            if old != text:
                stale.append((fname, old, text))
        else:
            path.write_bytes(text.encode("utf-8"))
    for fname, old, text in stale:
        print(f"differs: {fname}", file=sys.stderr)
        diff = difflib.unified_diff(old.splitlines(keepends=True), text.splitlines(keepends=True),
                                    f"golden/{fname}", f"now/{fname}")
        for line in list(diff)[:DIFF_LINES]:
            sys.stderr.write(line if line.endswith("\n") else line + "\n")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
