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
        assert set(counts[name]) == {"products", "fractions", "divide", "row", "shift",
                                     "split_factors", "sum_of_products", "calls"}
    # the printed denominators are read as products: nothing is divided, and
    # their factors are all linear, so the scan evaluates no row; the
    # residual packs A(n, k + 1) from A's ints, so nothing is shifted
    assert counts["verify"]["divide"] == counts["verify"]["split_factors"] == 0
    assert counts["verify"]["row"] == 0 and counts["synth"]["row"] > 0
    assert counts["verify"]["shift"] == 0
    # synthesis shifts r(k - 1) once a record, and nothing else: the
    # solver's confirmation packs X(n, k + 1) from X's ints
    assert counts["synth"]["shift"] == len(WZ_NAMES)
    assert counts["verify"]["fractions"] > 0 and counts["synth"]["fractions"] > 0
    assert counts["synth"]["products"] > 0 and counts["verify"]["calls"] > 0


def test_bench_record_writes_every_key(tmp_path):
    out = tmp_path / "BENCH_0.json"
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the script finds src/ itself
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--pr", "0", "--seeds", "1",
         "--seconds", "1", "--repeat", "1", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    assert set(record) == {"pr", "env", "workloads", "wall_ms", "op_counts"}
    assert set(record["env"]) == {"nproc", "cpu_model", "python", "PYTHONDONTWRITEBYTECODE",
                                  "head", "src_at_head", "src_sha256", "seeds", "seconds"}
    assert record["pr"] == 0 and record["env"]["seeds"] == [1]
    gated = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(record["workloads"]) == {"verify", "synth"}
    for workload in record["workloads"].values():
        assert (workload["runs"], workload["correct"], workload["failed"]) == (1, True, 0)
        assert set(workload["metrics"]) == gated
        for m in workload["metrics"].values():
            assert set(m) == {"unit", "median", "q1", "q3", "values"} and len(m["values"]) == 1
            assert m["q1"] == m["median"] == m["q3"] == m["values"][0]
    assert set(record["wall_ms"]) == {"python3 -c pass", "import wzpi",
                                      "wzpi verify --all --allow-errata",
                                      "wzpi synth --id theorem10"}
    assert all(w["repeat"] == 1 and w["median"] > 0 for w in record["wall_ms"].values())
    assert record["op_counts"]["verify"]["split_factors"] == 0
    assert set(record["op_counts"]) == {"verify", "synth"}
    for counts in record["op_counts"].values():
        assert set(counts) == {"products", "fractions", "divide", "row", "shift",
                               "split_factors", "sum_of_products", "calls"}
