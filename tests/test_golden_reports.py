"""Pinned coverage CSVs for the bundled scenarios.

A speed-up must leave every coverage report byte-identical, so the sha256 of
``run_scenario(...).to_csv()`` is pinned for every section of
``scenarios/*.ini`` and for three 20,000-replication studies.  A change that alters the random streams or the
transforms on purpose updates these hashes and says why.
"""

import hashlib
from pathlib import Path

import pytest

from confdist.cli import _parse_scenarios
from confdist.coverage import Scenario, run_scenario

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

# Studies of 20,000 replications pinned beside the bundled sections: the
# known-mean precision at six levels, gamma regression with all four methods
# (no bundled section runs first_order_beta or skovgaard_beta) and the
# normal exact pivots.  name -> (Scenario keywords, sha256 of the CSV).
_SIX_LEVELS = (0.025, 0.05, 0.10, 0.90, 0.95, 0.975)
PINNED_STUDIES = {
    "gamma_known_mu_n10_seed5": (
        dict(model="gamma_known_mu", n=10, replications=20000, seed=5, levels=_SIX_LEVELS,
             methods=("first_order_z", "fraser_z"), varphi=2.0),
        "a622dd8223ce96015563b5625434fb1afe4d4b4e1cfbf19be3d77ca225386c80"),
    "gamma_regression_n30_seed11": (
        dict(model="gamma_regression", n=30, replications=20000, seed=11,
             levels=(0.05, 0.5, 0.95),
             methods=("first_order_precision", "skovgaard_precision",
                      "first_order_beta", "skovgaard_beta"),
             beta=(0.5, -0.3), varphi=2.0),
        "036dfbf1f45085244bca434e54b84b0bee1d640ba81c994a6bc57fa2bc4cb57a"),
    "normal_regression_n15_seed3": (
        dict(model="normal_regression", n=15, replications=20000, seed=3,
             levels=(0.05, 0.5, 0.95),
             methods=("variance_chisq", "contrast_t", "coefficient_f"),
             beta=(1.0, -0.5, 0.25), phi=2.0),
        "5514f9a5b7cd4bb0c5f04736cccd53ab69b3c6c5b7dfb1357adce6824ffe7ea6"),
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


@pytest.mark.parametrize("name", sorted(PINNED_STUDIES))
def test_pinned_study_csv_bytes(name):
    keywords, want = PINNED_STUDIES[name]
    csv = run_scenario(Scenario(**keywords)).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == want
