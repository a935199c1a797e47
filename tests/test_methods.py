"""The method table is the one place a method is defined.

``confdist.coverage.METHODS`` lists every method of every model.  Scenario
validation, the coverage kernels, the CLI's --target/--method pairs and
statements, and the README all follow it; these tests add a throwaway entry
and check that each of them picks it up with no other edit.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from confdist import cli, coverage
from confdist.coverage import METHODS, Method, Scenario
from confdist.data import Dataset
from confdist.gamma import fit_irls
from confdist.higher_order import fit_known_mean
from confdist.linear import fit_ols
from confdist.pivots import Pivot

README = Path(__file__).parent.parent / "README.md"

TRUTH = {
    "normal_regression": dict(beta=(1.0, -0.5, 0.25), phi=2.0),
    "gamma_known_mu": dict(varphi=2.0),
    "gamma_regression": dict(beta=(0.5, -0.3), varphi=2.0),
}


def scenario(model: str, methods: tuple[str, ...], replications: int = 100) -> Scenario:
    return Scenario(model=model, n=12, replications=replications, seed=3,
                    levels=(0.05, 0.5, 0.95), methods=methods, **TRUTH[model])


@pytest.fixture
def throwaway(monkeypatch):
    """A first-order precision method under new names, added to gamma
    regression in the table only; the CLI parser is built afresh."""
    first_order = next(m for m in METHODS["gamma_regression"] if m.cli == "first_order")
    entry = Method("throwaway_precision", "precision", "throwaway", first_order.build,
                   summary=True)
    monkeypatch.setitem(METHODS, "gamma_regression", METHODS["gamma_regression"] + (entry,))
    monkeypatch.setattr(cli, "_parser", None)
    return entry


def write_gamma_csv(path: Path) -> Path:
    rng = np.random.default_rng(7)
    x = rng.normal(size=30)
    y = np.exp(0.5 + 0.3 * x) * rng.gamma(2.0, 0.5, size=30)
    path.write_text("y,x1\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(y, x)))
    return path


class TestThrowawayEntry:
    def test_scenario_accepts_its_name(self, throwaway):
        assert scenario("gamma_regression", (throwaway.name,)).methods == (throwaway.name,)

    def test_parser_offers_its_method(self, throwaway):
        args = cli.build_parser().parse_args(
            ["interval", "--model", "gamma", "--target", "precision", "--level", "0.9",
             "--method", throwaway.cli])
        assert args.method == throwaway.cli

    def test_pair_list_names_it(self, throwaway, tmp_path, capsys):
        code = cli.main(["interval", "--file", str(write_gamma_csv(tmp_path / "g.csv")),
                         "--model", "gamma", "--known-mu", "--response", "y",
                         "--target", "precision", "--level", "0.9", "--method", throwaway.cli])
        assert code == 2
        err = capsys.readouterr().err
        assert "valid target/method pairs" in err
        assert f"{throwaway.target} with {throwaway.cli}" in err

    def test_cli_states_it(self, throwaway, tmp_path, capsys):
        data = str(write_gamma_csv(tmp_path / "g.csv"))
        fit_json = str(tmp_path / "fit.json")
        common = ["--model", "gamma", "--target", "precision", "--level", "0.9"]
        assert cli.main(["fit", "--file", data, "--model", "gamma", "--response", "y",
                         "--design", "x1", "--out", fit_json]) == 0
        outputs = []
        for method, source in itertools.product(
                ["first_order", throwaway.cli],
                [["--file", data, "--response", "y", "--design", "x1"], ["--fit-json", fit_json]]):
            assert cli.main(["interval", *source, *common, "--method", method]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert [o["method"] for o in outputs] == ["first_order"] * 2 + [throwaway.cli] * 2
        assert len({json.dumps(o["statement"]) for o in outputs}) == 1


@pytest.mark.parametrize("model", list(METHODS))
def test_kernels_return_exactly_the_requested_names(model):
    kernel = {"normal_regression": lambda *a: coverage._normal_block(*a)[0],
              "gamma_known_mu": coverage._gamma_arrays,
              "gamma_regression": coverage._gamma_arrays}[model]
    names = [m.name for m in METHODS[model]]
    for k in range(1, len(names) + 1):
        for methods in itertools.combinations(names, k):
            sc = scenario(model, methods)
            study = coverage._study(sc)
            out = kernel(sc, study, coverage._responses(sc, study, range(sc.replications)))
            assert set(out) == set(methods)


def test_every_cli_method_builds_a_pivot():
    # one statement type: the CLI states every method through a monotone Pivot
    rng = np.random.default_rng(5)
    x = rng.normal(size=30)
    X = np.column_stack([np.ones(30), x])
    gamma = Dataset(y=np.exp(0.5 - 0.3 * x) * rng.gamma(2.0, 0.5, size=30), X=X)
    fits = {"normal_regression": (fit_ols(Dataset(y=1.0 + x + rng.normal(size=30), X=X)),
                                  np.array([0.0, 1.0])),
            "gamma_known_mu": (fit_known_mean(rng.gamma(2.0, 0.5, size=20)), None),
            "gamma_regression": (fit_irls(gamma), gamma)}
    built = 0
    for model, methods in METHODS.items():
        for m in (m for m in methods if m.cli):
            pivot = m.build(*fits[model])
            assert isinstance(pivot, Pivot) and pivot.monotonic == "decreasing", m.name
            assert np.isfinite(pivot.value(sum(pivot.hint))), m.name
            built += 1
    assert built == 6


def test_readme_names_every_method_and_cli_pair():
    text = README.read_text()
    for model, methods in METHODS.items():
        assert f"`{model}`" in text
        for m in methods:
            assert f"`{m.name}`" in text, m.name
            if m.cli:
                assert f"`--target {m.target} --method {m.cli}`" in text, m.name
