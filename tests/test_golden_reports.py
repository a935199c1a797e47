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

GOLDEN_SHA256 = {
    ("gamma_dominance.ini", "gamma_dominance"):
        "d3a3e2760ac0eb1b3d86ea274d3310f443af582f08c0e275dd14e9b7947ee89b",
    ("gamma_dominance.ini", "gamma_regression_precision"):
        "b0550b21d95ece74dcdb993e69ce3d4f99bdd8d88671f22de30e0d9fbe421579",
    ("normal_exact.ini", "normal_exact"):
        "242ef4a40e9b4cfecafbbb17d37ce373f24ddc2a5aba8289f6d8245e7d111de2",
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
