"""Command-line interface: subcommands, exit codes, and the JSON report shape."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from wzpi import (BUILTIN_NAMES, Poly2, RatFunc2, builtin_record, load_identity_file,
                  parse_identity, rhs_exact, serialize_identity, verify_certificate)
from wzpi import cli, wz
from wzpi.algebra import Product
from wzpi.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CHECK_FAILED,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

from conftest import WZ_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# -- list ---------------------------------------------------------------------------

def test_list_shows_every_builtin(capsys):
    code, out, _ = run(capsys, "list")
    assert code == EXIT_OK
    for name in BUILTIN_NAMES:
        assert name in out


def test_list_json_rows(capsys):
    code, rows, _ = run_json(capsys, "list")
    assert code == EXIT_OK
    assert [r["name"] for r in rows] == list(BUILTIN_NAMES)
    by_name = {r["name"]: r for r in rows}
    assert by_name["theorem2"]["erratum"] is True
    assert by_name["theorem9"]["erratum"] is True
    assert by_name["zeilberger"]["has_certificate"] is False
    assert by_name["ramanujan"]["kind"] == "numeric"


# -- verify -------------------------------------------------------------------------

def test_verify_passing_identity(capsys):
    code, out, _ = run(capsys, "verify", "--id", "theorem1")
    assert code == EXIT_OK
    assert "certificate: pass" in out
    assert "exact_sums: pass" in out
    assert "n = 0..20" in out


def test_verify_flagged_identity_fails_by_default(capsys):
    code, out, _ = run(capsys, "verify", "--id", "theorem9", "--n-max", "6")
    assert code == EXIT_CHECK_FAILED
    assert "certificate: fail" in out
    assert "exact_sums: pass" in out


def test_verify_flagged_identity_skips_with_errata_flag(capsys):
    code, out, _ = run(capsys, "verify", "--id", "theorem9", "--n-max", "6",
                       "--allow-errata")
    assert code == EXIT_OK
    assert "certificate: skip" in out


def test_verify_all_with_errata_allowance(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--n-max", "4", "--allow-errata")
    assert code == EXIT_OK
    for name in BUILTIN_NAMES:
        assert name in out


def test_verify_json_report_shape(capsys):
    code, doc, _ = run_json(capsys, "verify", "--id", "theorem3", "--n-max", "4")
    assert code == EXIT_OK
    assert doc["identity"] == "theorem3"
    assert doc["tool_version"]
    names = [c["name"] for c in doc["checks"]]
    assert names == ["certificate", "exact_sums"]
    for chk in doc["checks"]:
        assert chk["status"] in ("pass", "fail", "skip")
        assert isinstance(chk["millis"], int)
        assert isinstance(chk["detail"], str)


def test_verify_all_json_is_an_array(capsys):
    code, docs, _ = run_json(capsys, "verify", "--all", "--n-max", "2",
                             "--allow-errata")
    assert code == EXIT_OK
    assert [d["identity"] for d in docs] == list(BUILTIN_NAMES)


def test_verify_file_round_trip(capsys, tmp_path):
    path = tmp_path / "t4.identity"
    path.write_text(serialize_identity(builtin_record("theorem4")),
                    encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--file", str(path), "--n-max", "3")
    assert code == EXIT_OK
    assert "theorem4" in out


def test_verify_file_saved_with_a_byte_order_mark(capsys, tmp_path):
    # editors on Windows may prefix UTF-8 with an invisible U+FEFF
    path = tmp_path / "t1.identity"
    path.write_text(serialize_identity(builtin_record("theorem1")),
                    encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    code, out, _ = run(capsys, "verify", "--file", str(path))
    assert code == EXIT_OK
    assert "certificate: pass" in out
    assert "exact_sums: pass" in out


def test_verify_file_with_a_zero_certificate_numerator_fails_cleanly(capsys, tmp_path):
    text = serialize_identity(builtin_record("theorem1"))
    line = next(x for x in text.splitlines() if x.startswith("cert_num = "))
    path = tmp_path / "zero.identity"
    path.write_text(text.replace(line, 'cert_num = "0"'), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--file", str(path))
    assert code == EXIT_CHECK_FAILED
    assert "certificate: fail" in out and "(66 monomials in the numerator)" in out
    assert "Traceback" not in out + err


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "--id", "theorem99")
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "unknown identity" in err


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "--file", "/nonexistent/x.identity")
    assert code == EXIT_USAGE
    assert "error" in err


def test_a_directory_path_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--file", str(tmp_path))
    assert code == EXIT_USAGE
    assert out == "" and "error: " in err
    code, out, err = run(capsys, "synth", "--id", "zeilberger", "--emit", str(tmp_path))
    assert code == EXIT_USAGE
    assert "error: " in err


def test_verify_rejects_a_negative_row_bound(capsys):
    # n = 0..-1 would check nothing and still report a pass
    code, out, err = run(capsys, "verify", "--id", "theorem1", "--n-max", "-1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "error: --n-max" in err


def test_verify_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.identity"
    path.write_text("[identity]\nname = broken\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--file", str(path))
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "parse error" in err


# -- sum ----------------------------------------------------------------------------

def test_sum_prints_both_sides(capsys):
    code, out, _ = run(capsys, "sum", "--id", "theorem1", "--n", "1")
    assert code == EXIT_OK
    assert out.strip() == "LHS = 3/5, RHS = 3/5, equal"


def test_sum_of_row_two(capsys):
    code, out, _ = run(capsys, "sum", "--id", "zeilberger", "--n", "2")
    assert code == EXIT_OK
    assert out.strip() == "LHS = 15/8, RHS = 15/8, equal"


def test_sum_rejects_non_terminating_series(capsys):
    code, _, err = run(capsys, "sum", "--id", "ramanujan", "--n", "1")
    assert code == EXIT_USAGE
    assert "no closed form" in err or "terminate" in err


def test_sum_rejects_negative_row(capsys):
    code, _, err = run(capsys, "sum", "--id", "theorem1", "--n", "-2")
    assert code == EXIT_USAGE


# -- synth --------------------------------------------------------------------------

def test_synth_matches_printed_certificate(capsys):
    code, out, _ = run(capsys, "synth", "--id", "theorem1")
    assert code == EXIT_OK
    assert "synthesis: pass" in out
    assert "semantically equal to the printed certificate" in out
    assert "R_num" in out and "R_den" in out


def test_synth_reports_discrepancy_for_flagged_certificate(capsys):
    code, out, _ = run(capsys, "synth", "--id", "theorem2")
    assert code == EXIT_OK
    assert "differs from the printed certificate: synthesized = -1 * printed" in out


def test_synth_names_the_misprinted_coefficient(capsys):
    code, out, _ = run(capsys, "synth", "--id", "theorem9")
    assert code == EXIT_OK
    # over the printed denominator, one of 41 numerator coefficients differs
    assert ("differs from the printed certificate at n^5*k^3 "
            "(printed 46570008, synthesized 465707008)") in out


def test_mismatch_detail_counts_many_coefficients_and_needs_one_denominator():
    k, n = Poly2.var("k"), Poly2.var("n")
    cert = RatFunc2(k * (n + 1), k + n + 1)
    printed = RatFunc2(k ** 3 + k ** 2 + n ** 2 + 1, 2 * (k + n + 1))
    assert cli._difference(printed, cert) == " in 6 numerator coefficients"
    assert cli._difference(RatFunc2(k, k + n), cert) == ""


def test_synth_json_carries_certificate(capsys):
    code, doc, _ = run_json(capsys, "synth", "--id", "zeilberger")
    assert code == EXIT_OK
    assert doc["identity"] == "zeilberger"
    assert doc["certificate"]["num"]
    assert doc["certificate"]["den"]


def test_synth_emit_writes_a_verifiable_record(capsys, tmp_path):
    target = tmp_path / "repaired.identity"
    code, out, _ = run(capsys, "synth", "--id", "theorem9", "--emit", str(target))
    assert code == EXIT_OK
    rec = parse_identity(target.read_text(encoding="utf-8"))
    assert rec.name == "theorem9"
    assert rec.has_certificate
    assert rec.erratum is False
    assert (len(rec.cert_num.terms), len(rec.cert_den.expand().terms)) == (41, 54)

    code, out, _ = run(capsys, "verify", "--file", str(target), "--n-max", "4")
    assert code == EXIT_OK
    assert "certificate: pass" in out


@pytest.mark.parametrize("name", WZ_NAMES)
def test_an_emitted_record_parses_back_to_the_synthesized_factors(capsys, tmp_path, monkeypatch,
                                                                  name, synthesis):
    # --emit writes R_den as its factors; parsed back, it is a Product with
    # the synthesized keys and scale, and checking it neither splits nor divides
    target = tmp_path / f"{name}.identity"
    code, _, _ = run(capsys, "synth", "--id", name, "--emit", str(target))
    assert code == EXIT_OK
    ident = load_identity_file(str(target)).to_identity()
    got, made = ident.certificate.product, synthesis.get(name).certificate.product
    assert isinstance(got, Product)
    assert (Counter(got.factors), got.scale) == (Counter(made.factors), made.scale)
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)
    monkeypatch.setattr(Poly2, "divide", counted("divide", Poly2.divide))
    monkeypatch.setattr(wz, "split_factors", counted("split_factors", wz.split_factors))
    report = verify_certificate(ident)
    monkeypatch.undo()
    assert calls == []
    assert report.ok and report.failure_detail == ""


def test_synth_rejects_non_wz_identities(capsys):
    code, _, err = run(capsys, "synth", "--id", "r1103")
    assert code == EXIT_USAGE


def test_synth_of_a_false_identity_fails_with_the_reason(capsys, tmp_path):
    from test_gosper import PERTURBED_PFAFF_SAALSCHUETZ
    path = tmp_path / "ps_defect.identity"
    path.write_text(PERTURBED_PFAFF_SAALSCHUETZ, encoding="utf-8")
    code, out, _ = run(capsys, "synth", "--file", str(path))
    assert code == EXIT_CHECK_FAILED
    assert "synthesis: fail (status NotProved" in out
    assert "certificate does not vanish at k = 0" in out


# -- numeric ------------------------------------------------------------------------

def test_numeric_standard_point(capsys):
    code, out, _ = run(capsys, "numeric", "--id", "theorem1")
    assert code == EXIT_OK
    assert "series_vs_closed_form: pass" in out
    assert "closed_form_vs_2_over_pi: pass" in out


def test_numeric_special_form_check(capsys):
    code, out, _ = run(capsys, "numeric", "--id", "theorem6")
    assert code == EXIT_OK
    assert "closed_form_vs_sqrt5_over_pi_cos_sum: pass" in out


def test_numeric_custom_point_skips_pi_target(capsys):
    code, out, _ = run(capsys, "numeric", "--id", "theorem1", "--point=-1/4")
    assert code == EXIT_OK
    assert "series_vs_closed_form: pass" in out
    assert "closed_form_vs_2_over_pi: skip" in out


def test_numeric_rejects_a_point_with_a_zero_denominator(capsys):
    code, out, err = run(capsys, "numeric", "--id", "theorem1", "--point", "1/0")
    assert code == EXIT_USAGE
    assert out == ""
    assert "error: --point 1/0 has a zero denominator" in err


def test_numeric_reports_a_pole_of_the_series_without_a_traceback(capsys):
    # theorem9 has (2n + 3/2)_k in the denominator, so its second term is a
    # pole at n = -3/4
    code, out, err = run(capsys, "numeric", "--id", "theorem9", "--point=-3/4")
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err == "error: denominator factor (2*n+3/2)_k vanishes at n=-0.75, k=1\n"


def test_numeric_at_a_terminating_point_sums_the_series_exactly(capsys):
    # at n = 5 the series ends with t(5): its last term ratio is -0
    code, out, _ = run(capsys, "numeric", "--id", "theorem1", "--point=5")
    assert code == EXIT_OK
    assert "series_vs_closed_form: pass" in out
    # the closed form at n = 171 is 2.7e-101, far below the absolute --tol,
    # so only a relative bound shows that the series sums to it
    code, rep, _ = run_json(capsys, "numeric", "--id", "theorem1", "--point=171")
    assert code == EXIT_OK
    detail = rep["checks"][0]["detail"]
    assert detail.startswith("point 171: |series - rhs| = ")
    rhs = float(rhs_exact(builtin_record("theorem1").to_identity().rhs, 171))
    assert float(detail.rsplit("= ", 1)[1]) <= 1e-12 * abs(rhs)


def test_numeric_tolerance_is_enforced(capsys):
    code, out, _ = run(capsys, "numeric", "--id", "theorem1", "--tol", "1e-30")
    assert code == EXIT_CHECK_FAILED


# -- pi -----------------------------------------------------------------------------

def test_pi_two_terms(capsys):
    code, out, _ = run(capsys, "pi", "--series", "r1103", "--terms", "2",
                       "--tol", "1e-12")
    assert code == EXIT_OK
    assert "pi ~ 3.14159265358979" in out


def test_pi_unreachable_tolerance_fails(capsys):
    code, out, _ = run(capsys, "pi", "--series", "r1103", "--terms", "1",
                       "--tol", "1e-12")
    assert code == EXIT_CHECK_FAILED


@pytest.mark.parametrize("series, terms", [("r1103", "0"), ("ramanujan", "-3")])
def test_pi_rejects_a_term_count_below_one(capsys, series, terms):
    code, out, err = run(capsys, "pi", "--series", series, "--terms", terms)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error: --terms" in err


def test_pi_unknown_series():
    with pytest.raises(SystemExit) as info:
        main(["pi", "--series", "leibniz"])
    assert info.value.code == EXIT_USAGE


# -- global behaviour -----------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_usage_error_on_missing_subcommand():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == EXIT_USAGE


def test_engine_runtime_error_is_reported_without_traceback(capsys, monkeypatch):
    def fail(ident):
        raise RuntimeError("solver produced a non-solution")
    monkeypatch.setattr(cli, "synthesize_certificate", fail)
    code, out, err = run(capsys, "synth", "--id", "theorem1")
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err == "error: solver produced a non-solution\n"


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_broken_pipe_exits_quietly_with_its_code(capsys, monkeypatch, tmp_path):
    target = tmp_path / "stdout"
    with open(target, "wb") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        code = main(["list", "--json"])
        os.write(fh.fileno(), b"late output")  # stdout's descriptor is devnull now
    assert code == EXIT_BROKEN_PIPE
    assert capsys.readouterr().err == ""
    assert target.read_bytes() == b""


@pytest.mark.parametrize("argv, expected", [
    pytest.param(argv.split(), code, id=argv) for argv, code in (
        ("pi --series ramanujan --tol 0", EXIT_USAGE),
        ("pi --series ramanujan --tol -1", EXIT_USAGE),
        ("pi --series ramanujan --tol nan", EXIT_USAGE),
        ("numeric --id theorem1 --tol 0", EXIT_USAGE),
        ("numeric --id theorem1 --tol inf", EXIT_USAGE),
        ("numeric --id theorem1 --point=-1000", EXIT_CHECK_FAILED),
        ("numeric --id theorem1 --point=1e400", EXIT_CHECK_FAILED),
        ("numeric --id theorem1 --point 1e308", EXIT_CHECK_FAILED),
    )
])
def test_out_of_range_numbers_end_with_their_code_and_no_traceback(capsys, argv,
                                                                  expected):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse ends usage errors this way
        code = exc.code
    out, err = capsys.readouterr()
    assert code == expected
    assert out == ""
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize("argv, printed", [
    # the closed form at n = 171 is 2.71e-101, a product of factors that
    # overflow one by one
    ("numeric --id theorem1 --point=171", "(point 171: |series - rhs| = "),
    # (3 + sqrt(8))^m passes the largest double from m = 403 on
    ("pi --series ramanujan --terms 410", "pi ~ 3.1415926535897"),
])
def test_values_with_overflowing_intermediates_are_computed(capsys, argv, printed):
    code, out, err = run(capsys, *argv.split())
    assert code == EXIT_OK
    assert printed in out and err == ""


def test_the_package_runs_as_a_module():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-m", "wzpi", "list"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK and done.stderr == ""
    assert done.stdout.split()[0] == BUILTIN_NAMES[0]
    assert len(done.stdout.splitlines()) == len(BUILTIN_NAMES)


def test_conflicting_verify_selectors():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--id", "theorem1", "--all"])
    assert info.value.code == EXIT_USAGE
