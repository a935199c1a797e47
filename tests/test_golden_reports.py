"""Pinned coverage CSVs for the bundled scenarios.

A speed-up must leave every coverage report byte-identical, so the sha256 of
``run_scenario(...).to_csv()`` is pinned for every section of
``scenarios/*.ini``.  A change that alters the random streams or the
transforms on purpose updates these hashes and says why.
"""

import hashlib
from pathlib import Path

import pytest

from confdist.cli import _parse_scenarios
from confdist.coverage import run_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

# Recorded under stream contract version 2 (coverage.STREAM_VERSION).
GOLDEN_SHA256 = {
    ("gamma_dominance.ini", "gamma_dominance"):
        "b0a85af9969742b42a93f8b2e9b82f1ff279cc1584bf44a43893939975e31a44",
    ("gamma_dominance.ini", "gamma_regression_precision"):
        "c1f8122113d2d747f9afddb54289db241538156794699b2f19837381bb823f7e",
    ("normal_exact.ini", "normal_exact"):
        "6c161513bfd2ab12b7f16312a2473725d4a725e03bc1384d5f17cd659f3e71c4",
}


def bundled_sections():
    return [(path.name, name, sc)
            for path in sorted(SCENARIO_DIR.glob("*.ini"))
            for name, sc in _parse_scenarios(str(path), None)]


def test_every_bundled_section_is_pinned():
    assert {(f, name) for f, name, _ in bundled_sections()} == set(GOLDEN_SHA256)


@pytest.mark.parametrize("file,name,sc", [pytest.param(f, name, sc, id=f"{f}:{name}")
                                         for f, name, sc in bundled_sections()])
def test_csv_bytes_match_pinned_hash(file, name, sc):
    csv = run_scenario(sc).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN_SHA256[(file, name)]
