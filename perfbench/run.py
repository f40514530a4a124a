#!/usr/bin/env python3
"""wzpi benchmark: one workload per run, a closed loop with one operation in
flight, every verdict checked against the known answer.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports wzpi from ``src/`` there.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (see ``layers.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record, with the environment, goes to
``.bench_results/``.  Exit codes: 0 every verdict right, 1 a wrong verdict or
a count that changed since an earlier run of the same source and seed, 2 the
program is missing or the arguments are bad.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 11
SETUP_CODE = ("import wzpi\n"
              "for name in wzpi.BUILTIN_NAMES:\n"
              "    wzpi.load_builtin(name)\n")
TAIL_CAP = 99.0          # op_tail_s never reads further out than this percentile:
                         # beyond it, microsecond operations read host noise
MIN_OPS = 30             # operations a run makes at least, so that op_tail_s
                         # reads above the median (p66.7 at 30 samples)
TRACED_PAIRS_CAP = 200   # bounds the spans a traced numeric run keeps in memory


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# -- statistics -------------------------------------------------------------------


def nearest_rank(sorted_values, pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def passes_for(seconds: float, nominal_pass_s: float, ops_per_pass: int) -> int:
    """Passes that fill ``seconds`` at the nominal pass time, and at least
    enough for ``MIN_OPS`` operations."""
    return max(1, int(seconds // nominal_pass_s), math.ceil(MIN_OPS / ops_per_pass))


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it, capped."""
    if n <= 10:
        return 0.0
    return min(TAIL_CAP, 100.0 * (n - 10) / n)


# -- measurement --------------------------------------------------------------------


class Outcome:
    """Verdicts and latencies of the passes of one run."""

    def __init__(self):
        self.latencies = array("d")
        self.pass_times: list[float] = []
        self.attempted = 0
        self.raised = 0     # the known defect, on a record marked for it
        self.wrong = 0      # a wrong verdict or any other exception
        self.problems: list[str] = []
        self.cert_monomials = 0     # first pass only: a per-pass size
        self.max_abs_err = None

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    def note(self, label: str, problem: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(f"{label}: {problem}")


def run_pass(ops, outcome: Outcome, first: bool, tracer=None, op_base: int = 0) -> float:
    """One pass over ``ops``; returns the summed operation time."""
    busy = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = op_base + i
        start = perf_counter()
        try:
            out = op.fn()
        except Exception as exc:  # a raising operation is counted, not fatal
            out = exc
        took = perf_counter() - start
        outcome.latencies.append(took)
        busy += took
        outcome.attempted += 1
        if isinstance(out, Exception):
            if op.may_raise(out):
                outcome.raised += 1
                outcome.note(op.label, f"known defect: {out}")
            else:
                outcome.wrong += 1
                outcome.note(op.label, f"wrong verdict: raised {type(out).__name__}: {out}")
            continue
        problem, stats = op.check(out)
        if problem is not None:
            outcome.wrong += 1
            outcome.note(op.label, "wrong verdict: " + problem)
        if first:
            outcome.cert_monomials += stats.get("cert_monomials", 0)
        if "abs_err" in stats:
            err = stats["abs_err"]
            outcome.max_abs_err = err if outcome.max_abs_err is None \
                else max(outcome.max_abs_err, err)
    return busy


def measure_setup(repeats: int) -> list[float]:
    """Wall time of a fresh interpreter importing wzpi and loading every record."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n" + SETUP_CODE
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def measure(prep, passes: int, trace: bool, workdir: Path, has_certs: bool,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run the passes of one workload and compute its metrics.

    Untraced: set-up samples, then ``passes`` passes.  Traced: pairs of an
    untraced and a traced pass, then the layer probes; the pass metrics come
    from the untraced passes and the per-layer metrics from the rest.
    """
    outcome = Outcome()
    report: dict = {}
    layer = tracer = None
    if trace:
        from layers import ProbeError, per_layer, run_probes
        from spans import Tracer

        pairs = max(1, min(passes // 2, TRACED_PAIRS_CAP))
        tracer = Tracer()
        plain, traced = [], []
        for k in range(pairs):
            plain.append(run_pass(prep.ops, outcome, k == 0))
            seen = Outcome()
            tracer.keep = k == 0
            with tracer.installed():
                traced.append(run_pass(prep.ops, seen, False, tracer,
                                       op_base=k * len(prep.ops)))
            outcome.wrong += seen.wrong
            outcome.problems += seen.problems[:10 - len(outcome.problems)]
        try:
            with tracer.installed():
                run_probes(tracer, prep, workdir)
        except ProbeError as exc:
            outcome.wrong += 1
            outcome.note("probe", str(exc))
        layer = per_layer(tracer, len(prep.ops), pairs)
        overhead = statistics.median(traced) - statistics.median(plain)
        layer["trace.overhead_s"] = {"value": overhead, "unit": "s", "source": "spans"}
        report["traced_pass_s"] = statistics.median(traced)
        report["untraced_pass_s"] = statistics.median(plain)
        outcome.pass_times = plain
        repeats = {"untraced_passes": pairs, "traced_passes": pairs}
    else:
        report["setup_samples_s"] = measure_setup(setup_repeats)
        for k in range(passes):
            outcome.pass_times.append(run_pass(prep.ops, outcome, k == 0))
        repeats = {"passes": passes, "setup": setup_repeats}

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Every pass runs the same operations in the same order, so operation i's
    # latencies are every len(ops)-th sample from i.
    n_ops = len(prep.ops)
    per_op = [statistics.median(outcome.latencies[i::n_ops]) for i in range(n_ops)]
    lat = sorted(outcome.latencies)
    pct = tail_percentile(len(lat))
    e2e = {
        "setup_s": None if trace else (statistics.median(report["setup_samples_s"]), "s"),
        "pass_s": (statistics.median(outcome.pass_times), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_tail_s": (nearest_rank(lat, pct) if pct else lat[-1], "s"),
        "ops_per_s": (len(lat) / sum(outcome.pass_times), "1/s"),
        "failed_frac": (outcome.failed / outcome.attempted, "ratio"),
        "cert_monomials": (outcome.cert_monomials, "count") if has_certs else None,
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "max_abs_err": None if outcome.max_abs_err is None
        else (outcome.max_abs_err, "abs"),
    }
    return {"outcome": outcome, "e2e": e2e, "layer": layer, "report": report,
            "repeats": repeats, "tail_pct": pct, "tracer": tracer}


# -- environment and counts ---------------------------------------------------------------


def source_hash() -> str:
    """Hash of the program and of the benchmark, which together fix the counts."""
    h = hashlib.sha256()
    for top in (SRC / "wzpi", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(path.relative_to(ROOT).as_posix().encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def check_counts(key: str, counts: dict) -> list[str]:
    """Compare with the counts an earlier run of the same source and seed
    recorded; store them if there were none.  Returns the mismatches."""
    path = RESULTS / "counts.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    before = store.get(key)
    if before is None:
        store[key] = counts
        path.write_text(json.dumps(store, indent=1, sort_keys=True))
        return []
    return [f"{k}: {before[k]} before, {v} now" for k, v in counts.items()
            if k in before and before[k] != v]


# -- main -----------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wzpi" / "__init__.py").is_file():
        print(f"error: no wzpi source under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import wzpi
    if Path(wzpi.__file__).resolve().parent != SRC / "wzpi":
        print(f"error: imported wzpi from {wzpi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS or args.seconds <= 0:
        print(f"error: workload must be one of {sorted(WORKLOADS)}; seconds > 0",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    spec = json.loads(SPEC.read_text()) if SPEC.is_file() else {}
    units = {m["name"]: m["unit"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}

    started = perf_counter()
    prep = wl.prepare(args.seed)
    prepare_s = perf_counter() - started
    passes = passes_for(args.seconds, wl.nominal_pass_s, len(prep.ops))
    tag = f"{args.workload}-seed{args.seed}"
    m = measure(prep, passes, bool(args.trace), RESULTS / f"cli-{tag}",
                has_certs=args.workload in ("synth", "families"))
    outcome, e2e, layer, report, repeats, pct = (
        m["outcome"], m["e2e"], m["layer"], m["report"], m["repeats"], m["tail_pct"])
    lat_n = len(outcome.latencies)
    if m["tracer"] is not None:
        spans_file = RESULTS / f"{tag}-trace1.spans.jsonl"
        m["tracer"].write(spans_file)
        report["spans_file"] = spans_file.name
    counts = {"failed_frac": e2e["failed_frac"][0]}
    if e2e["cert_monomials"] is not None:
        counts["cert_monomials"] = e2e["cert_monomials"][0]
    if layer is not None:
        counts.update({k: v["value"] for k, v in layer.items() if v["unit"] == "count"})
    src = source_hash()
    count_problems = check_counts(f"{args.workload}|{args.seed}|{args.trace}|{src}", counts)

    env = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
           "python": platform.python_version(), "git_commit": git_commit(),
           "source_sha256": src, "seed": args.seed, "seconds": args.seconds,
           "repeats": repeats, "traced": bool(args.trace),
           "closed_loop": "1 client, 1 operation in flight, no threads"}
    print(f"# wzpi benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    print(f"# {env['cpu_model']}, {env['nproc']} cpus, Python {env['python']}, "
          f"commit {env['git_commit'] or 'unknown (not a git checkout)'}")
    print(f"# {len(prep.ops)} ops per pass, repeats {repeats}, inputs prepared in "
          f"{prepare_s:.3f} s; op_tail_s is p{pct:.4g} of {lat_n} samples")
    for name, val in e2e.items():
        print(f"{name:<28} " + ("absent (does not apply to this workload)"
                                if val is None else f"{val[0]!r} {val[1]}"))
    if layer is not None:
        for name, m in layer.items():
            print(f"{name:<28} {m['value']!r} {m['unit']} [{m['source']}]")
    for p in outcome.problems:
        print(f"! {p}")
    for p in count_problems:
        print(f"! count changed since an earlier run: {p}")

    if layer is not None:
        wanted = [m["name"] for m in spec.get("per_layer", [])] or list(layer)
        metrics = {k: {"value": layer[k]["value"], "unit": units.get(k, layer[k]["unit"])}
                   for k in wanted}
    else:
        wanted = [m["name"] for m in spec.get("end_to_end", [])] or \
            [k for k, v in e2e.items() if v is not None]
        metrics = {k: {"value": e2e[k][0], "unit": units.get(k, e2e[k][1])} for k in wanted}
    correct = outcome.wrong == 0 and not count_problems
    record = {"workload": args.workload, "env": env, "correct": correct,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "raised": outcome.raised, "wrong": outcome.wrong,
              "problems": outcome.problems + count_problems,
              "op_tail_percentile": pct, "op_samples": lat_n,
              "end_to_end": {k: (None if v is None else {"value": v[0], "unit": v[1]})
                             for k, v in e2e.items()},
              "per_layer": layer, **report}
    out = RESULTS / f"{tag}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
