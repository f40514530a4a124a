"""Smoke runs of the scripts: those that read the continuation-point
helpers (trig_identity_check, reduces_to_ramanujan) exit 0 and report no
failure, and the operation counts repeat under another hash seed."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from conftest import WZ_NAMES

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, **extra_env: str) -> str:
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    return done.stdout


def test_carlson_sweep_lands_on_two_over_pi():
    out = run_script("carlson_sweep.py")
    worst = re.search(r"^worst distance from 2/pi: (\S+)$", out, re.M)
    assert worst is not None, out
    assert float(worst.group(1)) < 1e-9
    assert "pi estimates:" in out


def test_every_identity_reduces_in_the_reduction_table():
    out = run_script("reduction_table.py")
    assert "MISMATCH" not in out
    rows = [line for line in out.splitlines() if line.endswith(" ok")]
    assert len(rows) == len(WZ_NAMES)  # every wz record has a continuation point


def test_op_counts_repeat_under_another_hash_seed():
    runs = [run_script("op_counts.py", PYTHONHASHSEED=seed) for seed in ("0", "12345")]
    assert runs[0] == runs[1]
    counts = json.loads(runs[0])
    assert set(counts) == {"verify", "synth"}
    for name in counts:
        assert set(counts[name]) == {"products", "divide", "row", "shift", "split_factors",
                                     "sum_of_products", "calls"}
    # the printed denominators are read as products: nothing is divided, and
    # their factors are all linear, so the scan evaluates no row
    assert counts["verify"]["divide"] == counts["verify"]["split_factors"] == 0
    assert counts["verify"]["row"] == 0 and counts["synth"]["row"] > 0
    assert counts["synth"]["products"] > 0 and counts["verify"]["calls"] > 0
