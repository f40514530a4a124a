#!/usr/bin/env python3
"""Write a benchmark record, ``BENCH_<pr>.json``, from one command on one
machine.

The record holds three parts:

- ``workloads``: for each gated workload of ``BENCHMARK.json`` (``verify``
  and ``synth``), one untraced run of ``perfbench/run.py`` per seed, the
  workloads alternating seed by seed.  Each gated metric keeps its median,
  its quartiles and the value of every run, in seed order; ``correct`` is
  true when every run was, and ``failed`` sums the runs' failed operations.
- ``op_counts``: ``scripts/op_counts.py``'s exact counters (``count_ops``
  and ``count_calls``) of one verify pass and one synthesis pass.
- ``wall_ms``: the median wall time, over ``--repeat`` fresh processes, of
  ``python3 -c pass``, ``import wzpi``, ``wzpi verify --all --allow-errata``
  and ``wzpi synth --id theorem10``.

It also records the environment: cpu count and model, Python version,
``PYTHONDONTWRITEBYTECODE``, ``git rev-parse HEAD`` and whether ``src/`` is
as committed there (a record made before its commit names the parent), a
sha256 of ``src/wzpi`` and the seeds.  Two records are compared run by run:
the values of one seed come from the same input on both sides.  Stdlib only.

Usage (from the repository root; about 35 s at the defaults):

    python3 scripts/bench_record.py --pr 41
    python3 scripts/bench_record.py --pr 41 --seeds 1,2,3 --seconds 5 --repeat 3
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("verify", "synth")
WALL = {
    "python3 -c pass": ["-c", "pass"],
    "import wzpi": ["-c", "import wzpi"],
    "wzpi verify --all --allow-errata": ["-m", "wzpi", "verify", "--all", "--allow-errata"],
    "wzpi synth --id theorem10": ["-m", "wzpi", "synth", "--id", "theorem10"],
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    ap.add_argument("--seeds", default=",".join(map(str, range(1, 11))),
                    help="comma-separated seeds, each run on every workload (default 1..10)")
    ap.add_argument("--seconds", type=float, default=50.0, help="--seconds of each run")
    ap.add_argument("--repeat", type=int, default=9, help="processes per wall-time median")
    ap.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the repository root")
    args = ap.parse_args(argv)
    args.seeds = [int(s) for s in args.seeds.split(",")]
    if args.repeat < 1 or args.seconds <= 0 or not args.seeds:
        ap.error("--repeat must be at least 1, --seconds positive and --seeds not empty")
    return args


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the values, and the values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def run_workloads(seeds: list[int], seconds: float) -> dict:
    """One untraced perfbench run per workload and seed, alternating."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for seed in seeds:
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                raise RuntimeError(f"perfbench/run.py {workload} seed {seed} exited "
                                   f"{proc.returncode}: {proc.stderr.strip()}")
            runs[workload].append(json.loads(lines[-1]))
    return {w: {"runs": len(rs),
                "correct": all(r["correct"] for r in rs),
                "failed": sum(r["failed"] for r in rs),
                "metrics": {name: {"unit": unit,
                                   **summary([r["metrics"][name]["value"] for r in rs])}
                            for name, unit in gated.items()}}
            for w, rs in runs.items()}


def wall_medians(repeat: int) -> dict:
    """Median wall time in ms of each WALL command, ``repeat`` fresh processes each."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = {}
    for name, argv in WALL.items():
        times = []
        for _ in range(repeat):
            started = perf_counter()
            subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            times.append(1000 * (perf_counter() - started))
        out[name] = {"median": statistics.median(times), "repeat": repeat}
    return out


def op_counts() -> dict:
    """count_ops and count_calls of one verify and one synthesis pass, each
    run once first so that the records are parsed."""
    sys.path[:0] = [str(SRC), str(ROOT / "scripts")]
    import op_counts as oc
    out = {}
    for name, run in (("verify", oc.verify_pass), ("synth", oc.synth_pass)):
        run()
        out[name] = {**oc.count_ops(run), "calls": oc.count_calls(run)}
    return out


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wzpi").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git(*argv: str):
    """The completed ``git`` command in the repository, or None without git."""
    try:
        return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None


def git_head():
    """HEAD, and whether src/ is as committed there (None outside a checkout)."""
    head, diff = git("rev-parse", "HEAD"), git("diff", "--quiet", "HEAD", "--", "src")
    if head is None or head.returncode:
        return None, None
    return head.stdout.strip(), diff.returncode == 0


def main(argv=None) -> int:
    args = parse_args(argv)
    head, src_at_head = git_head()
    record = {
        "pr": args.pr,
        "env": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                "python": platform.python_version(),
                "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                "head": head, "src_at_head": src_at_head, "src_sha256": src_sha256(),
                "seeds": args.seeds,
                "seconds": args.seconds},
        "workloads": run_workloads(args.seeds, args.seconds),
        "wall_ms": wall_medians(args.repeat),
        "op_counts": op_counts(),
    }
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0 if all(w["correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
