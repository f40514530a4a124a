"""CLI output on the bundled records, and synthesis on generated identities,
byte for byte against the golden files that ``scripts/cli_golden.py`` writes
(timings masked)."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_golden.py"
_spec = importlib.util.spec_from_file_location("cli_golden", _SCRIPT)
cli_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_golden)

CASES = cli_golden.cases()


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in cli_golden.GOLDEN_DIR.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("fname", sorted(CASES))
def test_cli_output_matches_golden_file(fname):
    expected = (cli_golden.GOLDEN_DIR / fname).read_bytes()
    assert cli_golden.render(CASES[fname]).encode("utf-8") == expected


def test_synthesis_on_generated_identities_matches_golden_file():
    # status, degree bound, dispersion set and certificate on a fixed grid of
    # Chu-Vandermonde and Pfaff-Saalschuetz records, true and perturbed
    expected = cli_golden.SYNTH_GOLDEN.read_bytes()
    assert cli_golden.render_synthesis().encode("utf-8") == expected
