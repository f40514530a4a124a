"""Fast self-test of the benchmark on tiny inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from families import draw_records, known_defect_record  # noqa: E402
from wzpi import builtin_record, parse_identity  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

TINY = {
    "verify": lambda: workloads.prepare_verify(1, names=("ramanujan", "zeilberger",
                                                         "theorem1")),
    "synth": lambda: workloads.prepare_synth(1, names=("zeilberger",)),
    "families": lambda: workloads.prepare_families(1, draws=4),
    "numeric": lambda: workloads.prepare_numeric(1, names=("zeilberger", "theorem1", "r1103"),
                                                 log_gamma_points=4),
}


def test_tiny_inputs_cover_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS) >= {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_reported_with_its_unit(name, tmp_path):
    plain = run.measure(TINY[name](), 1, False, tmp_path, has_certs=True, setup_repeats=1)
    assert plain["outcome"].wrong == 0 and plain["outcome"].attempted > 0
    for m in SPEC["end_to_end"]:
        value, unit = plain["e2e"][m["name"]]
        assert unit == m["unit"] and value > 0, m["name"]
    traced = run.measure(TINY[name](), 1, True, tmp_path, has_certs=True)
    assert traced["outcome"].wrong == 0
    for m in SPEC["per_layer"]:
        got = traced["layer"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        if m["unit"] == "s" and m["name"] != "trace.overhead_s":
            assert got["value"] > 0, (m["name"], got)


def test_sign_flipped_certificate_is_a_wrong_verdict():
    rec = builtin_record("theorem1")
    flipped = replace(rec, cert_num=-rec.cert_num)
    out = run.Outcome()
    run.run_pass([workloads.verify_op(flipped, printed_ok=True)], out, True)
    assert (out.attempted, out.wrong) == (1, 1)
    # the misprinted theorem2 certificate is expected to fail, so that is right
    out = run.Outcome()
    run.run_pass([workloads.verify_op(builtin_record("theorem2"), printed_ok=False)],
                 out, True)
    assert (out.attempted, out.wrong) == (1, 0)


def test_known_defect_is_counted_and_never_a_wrong_verdict():
    out = run.Outcome()
    run.run_pass([workloads.family_op(known_defect_record())], out, True)
    assert out.attempted == 1 and out.wrong == 0


def _raising(exc):
    def synthesize(ident, **kwargs):
        raise exc
    return synthesize


def test_a_raise_is_a_wrong_verdict_unless_it_is_the_known_defect(monkeypatch):
    defect = RuntimeError(workloads.KNOWN_DEFECT + ": certificate does not vanish")
    monkeypatch.setattr(workloads.gosper, "synthesize_certificate", _raising(defect))
    positive = next(r for r in draw_records(1, 24) if not r.perturbed)
    for op in (workloads.synth_op(builtin_record("zeilberger")),
               workloads.family_op(positive)):
        out = run.Outcome()
        run.run_pass([op], out, True)
        assert (out.attempted, out.raised, out.wrong) == (1, 0, 1), op.label
    out = run.Outcome()
    run.run_pass([workloads.family_op(known_defect_record())], out, True)
    assert (out.raised, out.wrong) == (1, 0)
    monkeypatch.setattr(workloads.gosper, "synthesize_certificate",
                        _raising(ValueError("another error")))
    out = run.Outcome()
    run.run_pass([workloads.family_op(known_defect_record())], out, True)
    assert (out.raised, out.wrong) == (0, 1)


def test_known_defect_marks_five_negative_controls_a_block():
    recs = draw_records(3, 96)
    marked = [r for r in recs if r.known_defect]
    assert len(marked) == 20 and all(r.perturbed for r in marked)
    assert known_defect_record().known_defect


def test_family_draw_is_seeded_and_pole_free():
    recs = draw_records(7, 48)
    assert recs == draw_records(7, 48) and recs != draw_records(8, 48)
    assert sum(r.perturbed for r in recs) == 24
    for r in recs:
        ident = parse_identity(r.text).to_identity()
        for f in ident.term.poch:
            if f.n_coeff == 0:
                assert not (f.offset.denominator == 1 and f.offset <= 0), r


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(28) == pytest.approx(100 * 18 / 28)
    assert run.tail_percentile(10 ** 6) == run.TAIL_CAP
    lat = sorted(float(i) for i in range(1, 29))
    assert run.nearest_rank(lat, run.tail_percentile(28)) == 18.0


@pytest.mark.parametrize("name", sorted(TINY))
def test_op_tail_reads_above_the_median(name):
    wl = workloads.WORKLOADS[name]
    n_ops = len(wl.prepare(1).ops)
    samples = n_ops * run.passes_for(SPEC["run_seconds"], wl.nominal_pass_s, n_ops)
    assert samples >= run.MIN_OPS and run.tail_percentile(samples) > 50


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
