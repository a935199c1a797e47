import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdist import higher_order, numerics
from confdist.cli import _fit_from_json, _strict_csv_table, load_csv_table, main
from confdist.data import Dataset
from confdist.errors import DataError
from confdist.higher_order import _precision_pivot, fit_known_mean, fraser_pivot
from confdist.linear import contrast, contrast_pivot, fit_ols, variance_pivot
from confdist.numerics import RngStream, rng_draws
from confdist.pivots import PivotLaw, interval_endpoint

T5_Q95 = 2.0150483733330504


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" for v in row))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def normal_csv(tmp_path):
    rng = np.random.default_rng(42)
    n = 20
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    y = 1.0 + 2.0 * x1 - 0.5 * x2 + rng.normal(size=n)
    path = tmp_path / "normal.csv"
    write_csv(path, ["y", "x1", "x2"], np.column_stack([y, x1, x2]))
    return path, y, x1, x2


@pytest.fixture
def gamma_csv(tmp_path):
    rng = np.random.default_rng(7)
    n = 30
    x1 = rng.normal(size=n)
    mu = np.exp(0.5 + 0.3 * x1)
    y = mu * rng.gamma(2.0, 0.5, size=n)
    path = tmp_path / "gamma.csv"
    write_csv(path, ["y", "x1"], np.column_stack([y, x1]))
    return path, y, x1


class TestCsvLoader:
    def test_parses_and_names_bad_cells(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match="line 3, column 'b'"):
            load_csv_table(p)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "ok.csv"
        p.write_text("a,b\n1,2\n")
        table = load_csv_table(p)
        with pytest.raises(DataError, match="'c' not found"):
            table.column("c")

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv_table(p)


    def test_utf8_bom_is_not_part_of_the_first_name(self, normal_csv, tmp_path, capsys):
        # spreadsheet programs save UTF-8 CSV files with a leading BOM
        path = normal_csv[0]
        bom = tmp_path / "bom.csv"
        bom.write_bytes("\ufeff".encode() + path.read_bytes())
        outs = []
        for p in (path, bom):
            code = main(["fit", "--file", str(p), "--model", "normal",
                         "--response", "y", "--design", "x1,x2"])
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_line_beyond_the_csv_field_limit_keeps_its_error(self, tmp_path):
        # float() reads a 131,073-digit cell; the csv reader refuses it
        p = tmp_path / "long.csv"
        p.write_text("a\n" + "0" * 131072 + "1\n")
        with pytest.raises(DataError, match="field larger than field limit"):
            load_csv_table(p)


# Cells and names for generated texts: numbers float() reads (with
# underscores, padding, Arabic-Indic digits), non-finite and unreadable
# cells, quotes, NUL and a BOM inside a cell.
GOOD_CELLS = st.sampled_from(["1", "-2.5", "3e-2", "-0", "1_0", " 2 ", "\u0661\u0662", "7.25e+300"])
ANY_CELLS = st.sampled_from(["", " ", "x", "1__0", "inf", "nAn", "1e999", '"4"', "5\x00",
                             "\ufeff6", "7 8", "\t9"])
NAMES = st.sampled_from(["y", "x", " x ", "z", "", '"y"', "y\x00"])
LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    """A CSV text: mostly a plain numeric table, with the faults the strict
    reader names mixed in."""
    width = draw(st.integers(1, 3))
    names = st.one_of(st.permutations(["y", " x ", "\u0445"]).map(lambda names: names[:width]),
                      st.lists(NAMES, min_size=width, max_size=width))
    lines = [",".join(draw(names))]
    cell = st.one_of(*[GOOD_CELLS] * 12, ANY_CELLS)
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.sampled_from([width] * 12 + [width - 1, width + 1]))
        line = ",".join(draw(st.lists(cell, min_size=n, max_size=n)))
        lines.append(draw(st.sampled_from([line] * 12 + [line + ",", "", "  "])))
    first = draw(st.sampled_from([""] * 6 + ["\ufeff", "\n", "\ufeff\n"]))
    return first + "".join(line + draw(LINE_ENDS) for line in lines)[:-1] \
        + draw(st.sampled_from(["", "\n", "\n\n"]))


def _table_or_error(loader, path):
    try:
        table = loader(path)
    except DataError as exc:
        return str(exc)
    return table.header, table.rows.shape, table.rows.dtype, table.rows.tobytes()


@settings(max_examples=500, deadline=None)
@given(text=csv_texts())
def test_loader_gives_the_strict_readers_table_or_error(text):
    # the numpy conversion returns a table only when the per-cell reader
    # returns the same one, bit for bit; otherwise the per-cell reader runs
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        strict = _table_or_error(
            lambda p: _strict_csv_table(p, p.read_text(encoding="utf-8-sig")), path)
        assert _table_or_error(load_csv_table, path) == strict


def test_import_and_light_calls_load_no_solver_or_quadrature(tmp_path):
    # scipy.optimize and scipy.integrate are imported on first use: a CLI
    # call that neither solves nor integrates never pays for them
    rng = np.random.default_rng(3)
    write_csv(tmp_path / "g.csv", ["y"], rng.gamma(2.0, 0.5, size=(20, 1)))
    write_csv(tmp_path / "n.csv", ["y", "x"], rng.normal(size=(20, 2)))
    script = f"""
import contextlib, io, sys
import confdist.cli as cli
heavy = ("scipy.optimize", "scipy.integrate")
loaded = [sorted(set(heavy) & set(sys.modules))]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["fit", "--file", {str(tmp_path / "n.csv")!r}, "--model", "normal",
                     "--response", "y", "--design", "x"]) == 0
    loaded.append(sorted(set(heavy) & set(sys.modules)))
    assert cli.main(["confdens", "--file", {str(tmp_path / "g.csv")!r}, "--model", "gamma",
                     "--known-mu", "--response", "y", "--target", "precision",
                     "--method", "fraser", "--grid", "0.3:8:50"]) == 0
    loaded.append(sorted(set(heavy) & set(sys.modules)))
print(loaded)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[[], [], []]"


class TestFitCommand:
    def test_normal_fit_matches_library(self, normal_csv, capsys):
        path, y, x1, x2 = normal_csv
        code = main(["fit", "--file", str(path), "--model", "normal",
                     "--response", "y", "--design", "x1,x2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        X = np.column_stack([np.ones(len(y)), x1, x2])
        fit = fit_ols(Dataset(y=y, X=X))
        np.testing.assert_allclose(payload["beta_hat"], fit.beta_hat, atol=1e-10)
        assert payload["phi_hat_m"] == pytest.approx(fit.phi_hat_m, abs=1e-10)
        assert payload["df"] == fit.df

    def test_noise_free_normal_warns_degenerate(self, tmp_path, capsys):
        x = np.arange(1.0, 9.0)
        y = 2.0 + 3.0 * x
        p = tmp_path / "exact.csv"
        write_csv(p, ["y", "x"], np.column_stack([y, x]))
        code = main(["fit", "--file", str(p), "--model", "normal",
                     "--response", "y", "--design", "x"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        np.testing.assert_allclose(payload["beta_hat"], [2.0, 3.0], atol=1e-10)
        assert payload["degenerate"] is True
        assert "degenerate" in captured.err or "perfect fit" in captured.err

    def test_gamma_zero_response_names_row(self, tmp_path, capsys):
        p = tmp_path / "zero.csv"
        p.write_text("y,x\n1.0,0.1\n0.0,0.2\n2.0,0.3\n1.5,0.1\n2.5,0.9\n")
        code = main(["fit", "--file", str(p), "--model", "gamma",
                     "--response", "y", "--design", "x"])
        assert code == 3
        assert "row index 1" in capsys.readouterr().err

    def test_usage_error_without_response(self, normal_csv, capsys):
        path = normal_csv[0]
        code = main(["fit", "--file", str(path), "--model", "normal"])
        assert code == 2

    def test_rank_deficiency_is_data_error(self, tmp_path, capsys):
        x = np.arange(1.0, 11.0)
        p = tmp_path / "collinear.csv"
        write_csv(p, ["y", "x", "x2"], np.column_stack([x + 1.0, x, 2 * x]))
        code = main(["fit", "--file", str(p), "--model", "normal",
                     "--response", "y", "--design", "x,x2"])
        assert code == 3

    def test_gamma_known_mu_fit(self, tmp_path, capsys):
        y = rng_draws(RngStream(5, 0), "gamma", 12, shape=2.0, scale=0.5)
        p = tmp_path / "km.csv"
        write_csv(p, ["y"], y[:, None])
        code = main(["fit", "--file", str(p), "--model", "gamma",
                     "--response", "y", "--known-mu"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "gamma_known_mu"
        assert payload["varphi_hat"] > 0

    def test_known_mu_extreme_sample_fits(self, tmp_path):
        # mean unit deviance ~3.3e19: the classical precision start cancels to
        # 0 there, so the solve starts from 1/m, next to the root
        p = tmp_path / "extreme.csv"
        p.write_text("y\n1e20\n1\n2\n")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        run = subprocess.run([sys.executable, "-m", "confdist.cli", "fit", "--file", str(p),
                              "--model", "gamma", "--response", "y", "--known-mu"],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        assert "Traceback" not in run.stderr
        m = sum(y - 1.0 - math.log(y) for y in (1e20, 1.0, 2.0)) / 3.0
        assert json.loads(run.stdout)["varphi_hat"] == pytest.approx(1.0 / m, rel=1e-12)

    def test_known_mu_with_normal_model_is_usage_error(self, normal_csv, capsys):
        code = main(["fit", "--file", str(normal_csv[0]), "--model", "normal",
                     "--response", "y", "--design", "x1,x2", "--known-mu"])
        assert code == 2
        assert "--known-mu applies to --model gamma only" in capsys.readouterr().err


class TestTargetsAndKnownMean:
    @pytest.mark.parametrize("command,data,target,method", [
        ("interval", "gamma", "precision:zzz", "first_order"),
        ("interval", "normal", "variance:foo", "exact"),
        ("confdens", "gamma", "precision:1,2", "first_order"),
        ("confdens", "known_mu", "precision:", "fraser"),
    ])
    def test_suffix_on_a_target_without_weights_is_usage_error(
            self, normal_csv, gamma_csv, tmp_path, capsys, command, data, target, method):
        argv = {
            "normal": ["--file", str(normal_csv[0]), "--model", "normal", "--design", "x1,x2"],
            "gamma": ["--file", str(gamma_csv[0]), "--model", "gamma", "--design", "x1"],
            "known_mu": ["--file", str(gamma_csv[0]), "--model", "gamma", "--known-mu"],
        }[data]
        extra = ["--level", "0.9"] if command == "interval" else ["--grid", "0.5:5:41"]
        code = main([command, *argv, "--response", "y", "--target", target,
                     "--method", method, *extra])
        assert code == 2
        err = capsys.readouterr().err
        assert f"target {target!r}" in err and "valid target/method pairs" in err

    @pytest.mark.parametrize("command,extra", [
        ("fit", []),
        ("interval", ["--target", "precision", "--method", "first_order", "--level", "0.9"]),
        ("confdens", ["--target", "precision", "--method", "fraser", "--grid", "0.5:5:41"]),
    ])
    def test_known_mu_with_design_is_usage_error(self, gamma_csv, capsys, command, extra):
        code = main([command, "--file", str(gamma_csv[0]), "--model", "gamma", "--known-mu",
                     "--response", "y", "--design", "nosuchcol", *extra])
        assert code == 2
        assert "--known-mu takes no --design" in capsys.readouterr().err

    @pytest.mark.parametrize("design", ["bogus", "gaussian"])
    def test_design_in_known_mu_scenario_is_schema_error(self, tmp_path, capsys, design):
        ini = tmp_path / "km.ini"
        ini.write_text(
            "[km]\nmodel = gamma_known_mu\nn = 10\nreplications = 100\nseed = 1\n"
            f"levels = 0.5\nmethods = fraser_z\nvarphi = 2.0\ndesign = {design}\n"
        )
        code = main(["coverage", "--scenario", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "design does not apply to gamma_known_mu" in capsys.readouterr().err
        assert not (tmp_path / "o" / "km.json").exists()

    def test_known_mu_report_has_no_design(self, tmp_path):
        ini = tmp_path / "km.ini"
        ini.write_text(
            "[km]\nmodel = gamma_known_mu\nn = 10\nreplications = 100\nseed = 1\n"
            "levels = 0.5\nmethods = fraser_z\nvarphi = 2.0\n"
        )
        assert main(["coverage", "--scenario", str(ini), "--out", str(tmp_path / "o")]) == 0
        assert json.loads((tmp_path / "o" / "km.json").read_text())["scenario"]["design"] is None


class TestConfdensCommand:
    def test_normal_location_style_density(self, tmp_path, capsys):
        # unit-information fixture: single coefficient, X'X = I after scaling
        rng = np.random.default_rng(3)
        n = 26
        x = rng.normal(size=n)
        x = x / np.linalg.norm(x)  # k = 1 exactly
        y = 1.3 * x + rng.normal(size=n) * 0.4
        p = tmp_path / "unit.csv"
        write_csv(p, ["y", "x"], np.column_stack([y, x]))
        code = main(["confdens", "--file", str(p), "--model", "normal",
                     "--response", "y", "--design", "x", "--no-intercept",
                     "--target", "contrast:1", "--grid=-4:6:201",
                     "--method", "exact"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "contrast,confidence_density"
        grid = np.array([float(line.split(",")[0]) for line in out[1:]])
        dens = np.array([float(line.split(",")[1]) for line in out[1:]])

        fit = fit_ols(Dataset(y=y, X=x[:, None]))
        con = contrast(fit, np.array([1.0]))
        pv = contrast_pivot(fit, con)
        se = math.sqrt(con.k * fit.phi_hat_m)
        t = PivotLaw.student_t(fit.df)
        expected = np.array([t.pdf((con.lambda_hat - g) / se) / se for g in grid])
        np.testing.assert_allclose(dens, expected, atol=1e-6)

    def test_variance_density_mode_matches_grid_search(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        n = 13  # df = 10 with three columns
        x1, x2 = rng.normal(size=n), rng.normal(size=n)
        y = 1.0 + x1 - x2 + rng.normal(size=n) * 1.4
        p = tmp_path / "var.csv"
        write_csv(p, ["y", "x1", "x2"], np.column_stack([y, x1, x2]))

        fit = fit_ols(Dataset(y=y, X=np.column_stack([np.ones(n), x1, x2])))
        lo, hi, npts = fit.phi_hat_m * 0.05, fit.phi_hat_m * 6.0, 1201
        code = main(["confdens", "--file", str(p), "--model", "normal",
                     "--response", "y", "--design", "x1,x2",
                     "--target", "variance", "--grid", f"{lo}:{hi}:{npts}",
                     "--method", "exact"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()[1:]
        grid = np.array([float(r.split(",")[0]) for r in out])
        dens = np.array([float(r.split(",")[1]) for r in out])
        # analytic mode of the transformed chi-square density: df*phm/(df+2)
        analytic = fit.df * fit.phi_hat_m / (fit.df + 2.0)
        found = grid[int(np.argmax(dens))]
        assert abs(found - analytic) <= (hi - lo) / (npts - 1)

    def test_grid_missing_mass_warns(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        n = 12
        x = rng.normal(size=n)
        y = 0.5 + x + rng.normal(size=n)
        p = tmp_path / "narrow.csv"
        write_csv(p, ["y", "x"], np.column_stack([y, x]))
        fit = fit_ols(Dataset(y=y, X=np.column_stack([np.ones(n), x])))
        lo, hi = fit.phi_hat_m * 0.8, fit.phi_hat_m * 1.2
        code = main(["confdens", "--file", str(p), "--model", "normal",
                     "--response", "y", "--design", "x",
                     "--target", "variance", "--grid", f"{lo}:{hi}:51",
                     "--method", "exact"])
        assert code == 0
        assert "warning" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0:2.2:4", "0.5:1.7:3"])
    def test_grid_mass_is_the_confidence_between_its_ends(self, tmp_path, capsys, grid):
        # a coarse grid: the warning reads C(hi) - C(lo) from the t law, where
        # a trapezoid over four or three points read 0.52 and 1.25
        rng = np.random.default_rng(3)
        x1, x2 = rng.normal(size=25), rng.normal(size=25)
        y = 1.0 + x1 + rng.normal(size=25)
        p = tmp_path / "coarse.csv"
        write_csv(p, ["y", "x1", "x2"], np.column_stack([y, x1, x2]))
        assert main(["confdens", "--file", str(p), "--model", "normal", "--response", "y",
                     "--design", "x1,x2", "--target", "contrast:0,1,0", "--grid", grid,
                     "--method", "exact"]) == 0
        fit = fit_ols(Dataset(y=y, X=np.column_stack([np.ones(25), x1, x2])))
        con = contrast(fit, np.array([0.0, 1.0, 0.0]))
        se = math.sqrt(con.k * fit.phi_hat_m)
        lo, hi = (float(v) for v in grid.split(":")[:2])
        t = PivotLaw.student_t(fit.df)
        confidence = t.cdf((con.lambda_hat - lo) / se) - t.cdf((con.lambda_hat - hi) / se)
        err = capsys.readouterr().err
        if grid == "0:2.2:4":  # the grid holds the confidence: no warning
            assert confidence == pytest.approx(1.0, abs=1e-4) and err == ""
        else:
            assert float(err.split(" is ")[1].split(";")[0]) == pytest.approx(confidence,
                                                                               abs=2e-6)

    def test_grid_below_zero_takes_the_equals_form(self, normal_csv, capsys):
        # argparse reads "-1:3:5" after a space as an option; --help says so
        argv = ["confdens", "--file", str(normal_csv[0]), "--model", "normal",
                "--response", "y", "--design", "x1,x2", "--target", "contrast:0,1,0",
                "--method", "exact"]
        assert main([*argv, "--grid=-1:3:5"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [float(r.split(",")[0]) for r in rows[1:]] == [-1.0, 0.0, 1.0, 2.0, 3.0]
        assert main([*argv, "--grid", "-1:3:5"]) == 2
        assert "expected one argument" in capsys.readouterr().err
        assert main(["confdens", "--help"]) == 0
        assert "--grid=-1:3:5" in capsys.readouterr().out

    def test_variance_grid_from_zero(self, normal_csv, capsys):
        # phi = 0 is outside the open support: density 0 there, and the
        # rest as on the same grid without that point
        def density(grid):
            code = main(["confdens", "--file", str(normal_csv[0]), "--model", "normal",
                         "--response", "y", "--design", "x1,x2", "--target", "variance",
                         "--grid", grid, "--method", "exact"])
            assert code == 0
            rows = capsys.readouterr().out.strip().splitlines()
            assert rows[0] == "variance,confidence_density"
            return np.array([[float(v) for v in r.split(",")] for r in rows[1:]])

        from_zero, from_step = density("0:8:51"), density("0.16:8:50")
        assert from_zero[0].tolist() == [0.0, 0.0]
        np.testing.assert_allclose(from_zero[1:], from_step, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("grid", ["0:inf:5", "-inf:1:5", "0:nan:5",
                                      "-1e308:1e308:5"])
    def test_non_finite_grid_is_usage_error(self, normal_csv, capsys, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["confdens", "--file", str(normal_csv[0]), "--model", "normal",
                         "--response", "y", "--design", "x1,x2", "--target", "variance",
                         f"--grid={grid}", "--method", "exact"])
        assert code == 2
        assert "--grid needs finite lo < hi" in capsys.readouterr().err

    def test_unallocatable_grid_is_usage_error(self, normal_csv, capsys, monkeypatch):
        # np.linspace stands in for an allocation that fails; no large array
        # is requested
        def linspace(*args, **kwargs):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(np, "linspace", linspace)
        code = main(["confdens", "--file", str(normal_csv[0]), "--model", "normal",
                     "--response", "y", "--design", "x1,x2", "--target", "variance",
                     "--grid", "1:3:100000000000", "--method", "exact"])
        assert code == 2
        assert "too many points" in capsys.readouterr().err

    def test_known_mu_with_normal_model_is_usage_error(self, normal_csv, capsys):
        code = main(["confdens", "--file", str(normal_csv[0]), "--model", "normal",
                     "--response", "y", "--design", "x1,x2", "--known-mu",
                     "--target", "variance", "--grid", "0.2:4:41", "--method", "exact"])
        assert code == 2
        assert "--known-mu applies to --model gamma only" in capsys.readouterr().err

    def test_incompatible_pair_is_usage_error(self, gamma_csv, capsys):
        path = gamma_csv[0]
        code = main(["confdens", "--file", str(path), "--model", "gamma",
                     "--response", "y", "--design", "x1",
                     "--target", "precision", "--grid", "0.5:5:41",
                     "--method", "exact"])
        assert code == 2
        assert "valid target/method pairs" in capsys.readouterr().err

    def test_fraser_density_for_known_mu(self, tmp_path, capsys):
        y = rng_draws(RngStream(9, 0), "gamma", 15, shape=2.0, scale=0.5)
        p = tmp_path / "km.csv"
        write_csv(p, ["y"], y[:, None])
        from confdist.higher_order import fit_known_mean

        vh = fit_known_mean(y).varphi_hat
        code = main(["confdens", "--file", str(p), "--model", "gamma",
                     "--response", "y", "--known-mu", "--target", "precision",
                     "--grid", f"{vh*0.25}:{vh*4.0}:101", "--method", "fraser"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "precision,confidence_density"
        dens = np.array([float(r.split(",")[1]) for r in out[1:]])
        assert np.all(dens >= 0)

    @pytest.mark.parametrize("method", ["fraser", "first_order"])
    def test_known_mu_precision_grid_from_zero(self, tmp_path, capsys, method):
        # precision 0 is outside the support: density 0 there, and the rest
        # as on the grid without that point, up to the finite-difference
        # step, which follows the grid's span
        y = rng_draws(RngStream(9, 0), "gamma", 15, shape=2.0, scale=0.5)
        p = tmp_path / "km.csv"
        write_csv(p, ["y"], y[:, None])

        def density(grid):
            code = main(["confdens", "--file", str(p), "--model", "gamma",
                         "--response", "y", "--known-mu", "--target", "precision",
                         "--grid", grid, "--method", method])
            assert code == 0
            rows = capsys.readouterr().out.strip().splitlines()
            assert rows[0] == "precision,confidence_density"
            return np.array([[float(v) for v in r.split(",")] for r in rows[1:]])

        from_zero, from_step = density("0:8:51"), density("0.16:8:50")
        assert from_zero[0].tolist() == [0.0, 0.0]
        np.testing.assert_allclose(from_zero[1:, 0], from_step[:, 0], rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(from_zero[1:, 1], from_step[:, 1], rtol=1e-3, atol=0.0)

    def test_fraser_density_fits_the_sample_once(self, tmp_path, capsys, monkeypatch):
        import confdist.cli
        import confdist.higher_order

        y = rng_draws(RngStream(9, 0), "gamma", 15, shape=2.0, scale=0.5)
        p = tmp_path / "km.csv"
        write_csv(p, ["y"], y[:, None])
        calls = []
        original = confdist.higher_order.fit_known_mean

        def counted(sample):
            calls.append(1)
            return original(sample)

        monkeypatch.setattr(confdist.higher_order, "fit_known_mean", counted)
        monkeypatch.setattr(confdist.cli, "fit_known_mean", counted)
        code = main(["confdens", "--file", str(p), "--model", "gamma",
                     "--response", "y", "--known-mu", "--target", "precision",
                     "--grid", "0.5:8:201", "--method", "fraser"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 202
        assert len(calls) == 1


class TestIntervalCommand:
    def test_contrast_t_quantile_endpoint(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        n = 7  # df = 5 with two columns
        x = rng.normal(size=n)
        y = 0.3 + 1.1 * x + rng.normal(size=n)
        p = tmp_path / "t5.csv"
        write_csv(p, ["y", "x"], np.column_stack([y, x]))
        code = main(["interval", "--file", str(p), "--model", "normal",
                     "--response", "y", "--design", "x",
                     "--target", "contrast:0,1", "--level", "0.95",
                     "--sides", "one", "--side", "lower", "--method", "exact"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        fit = fit_ols(Dataset(y=y, X=np.column_stack([np.ones(n), x])))
        con = contrast(fit, np.array([0.0, 1.0]))
        expected = con.lambda_hat - T5_Q95 * math.sqrt(con.k * fit.phi_hat_m)
        assert payload["statement"]["lower"] == pytest.approx(expected, abs=1e-8)
        assert payload["statement"]["confidence"] == 0.95

    @pytest.mark.parametrize("weights", ["0,nan", "0,inf", "-inf,1"])
    def test_non_finite_contrast_is_usage_error(self, normal_csv, capsys, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["interval", "--file", str(normal_csv[0]), "--model", "normal",
                         "--response", "y", "--design", "x1", "--target", f"contrast:{weights}",
                         "--level", "0.95", "--method", "exact"])
        assert code == 2
        assert "contrast weights must be finite" in capsys.readouterr().err

    def test_median_level_returns_estimate(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        n = 9
        x = rng.normal(size=n)
        y = 0.3 - 0.7 * x + rng.normal(size=n)
        p = tmp_path / "med.csv"
        write_csv(p, ["y", "x"], np.column_stack([y, x]))
        code = main(["interval", "--file", str(p), "--model", "normal",
                     "--response", "y", "--design", "x",
                     "--target", "contrast:0,1", "--level", "0.5",
                     "--sides", "one", "--method", "exact"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        fit = fit_ols(Dataset(y=y, X=np.column_stack([np.ones(n), x])))
        lam_hat = float(fit.beta_hat[1])
        assert payload["statement"]["lower"] == pytest.approx(lam_hat, abs=1e-8)

    def test_two_sided_agrees_with_one_sided_calls(self, normal_csv, capsys):
        path = normal_csv[0]
        args = ["interval", "--file", str(path), "--model", "normal",
                "--response", "y", "--design", "x1,x2",
                "--target", "contrast:0,1,0", "--method", "exact"]
        code = main(args + ["--level", "0.90", "--sides", "two"])
        assert code == 0
        two = json.loads(capsys.readouterr().out)["statement"]
        code = main(args + ["--level", "0.95", "--sides", "one", "--side", "lower"])
        lo = json.loads(capsys.readouterr().out)["statement"]["lower"]
        code = main(args + ["--level", "0.95", "--sides", "one", "--side", "upper"])
        hi = json.loads(capsys.readouterr().out)["statement"]["upper"]
        assert two["lower"] == pytest.approx(lo, abs=1e-10)
        assert two["upper"] == pytest.approx(hi, abs=1e-10)

    def test_round_trip_via_fit_json(self, normal_csv, tmp_path, capsys):
        path = normal_csv[0]
        fit_path = tmp_path / "fit.json"
        code = main(["fit", "--file", str(path), "--model", "normal",
                     "--response", "y", "--design", "x1,x2",
                     "--out", str(fit_path)])
        assert code == 0
        # a fit from the data takes a contrast's k from the design's SVD, a
        # summary solves with its X'X: the two agree to rounding
        for target, tolerance in (("variance", dict(abs=1e-12)),
                                  ("contrast:0,1,-1", dict(rel=1e-12))):
            args_tail = ["--target", target, "--level", "0.9",
                         "--sides", "one", "--side", "lower", "--method", "exact"]
            code = main(["interval", "--file", str(path), "--model", "normal",
                         "--response", "y", "--design", "x1,x2"] + args_tail)
            assert code == 0
            direct = json.loads(capsys.readouterr().out)["statement"]["lower"]
            code = main(["interval", "--fit-json", str(fit_path), "--model", "normal"]
                        + args_tail)
            assert code == 0
            via_json = json.loads(capsys.readouterr().out)["statement"]["lower"]
            assert via_json == pytest.approx(direct, **tolerance)

    def test_gamma_first_order_round_trip(self, gamma_csv, tmp_path, capsys):
        path = gamma_csv[0]
        fit_path = tmp_path / "gfit.json"
        code = main(["fit", "--file", str(path), "--model", "gamma",
                     "--response", "y", "--design", "x1", "--out", str(fit_path)])
        assert code == 0
        args_tail = ["--target", "precision", "--level", "0.9",
                     "--sides", "one", "--side", "lower", "--method", "first_order"]
        code = main(["interval", "--file", str(path), "--model", "gamma",
                     "--response", "y", "--design", "x1"] + args_tail)
        direct = json.loads(capsys.readouterr().out)["statement"]["lower"]
        code = main(["interval", "--fit-json", str(fit_path), "--model", "gamma"]
                    + args_tail)
        via_json = json.loads(capsys.readouterr().out)["statement"]["lower"]
        assert via_json == pytest.approx(direct, abs=1e-12)

    def test_skovgaard_from_fit_json_is_usage_error(self, gamma_csv, tmp_path, capsys):
        path = gamma_csv[0]
        fit_path = tmp_path / "gfit.json"
        main(["fit", "--file", str(path), "--model", "gamma",
              "--response", "y", "--design", "x1", "--out", str(fit_path)])
        code = main(["interval", "--fit-json", str(fit_path), "--model", "gamma",
                     "--target", "precision", "--level", "0.9",
                     "--method", "skovgaard"])
        assert code == 2

    @pytest.mark.parametrize("sides", [["--sides", "one", "--side", "upper"],
                                       ["--sides", "two"]])
    def test_known_mu_first_order_via_fit_json(self, tmp_path, capsys, sides):
        path = tmp_path / "km.csv"
        write_csv(path, ["y"], rng_draws(RngStream(5, 0), "gamma", 12, shape=2.0,
                                         scale=0.5)[:, None])
        fit_path = tmp_path / "km.json"
        assert main(["fit", "--file", str(path), "--model", "gamma", "--known-mu",
                     "--response", "y", "--out", str(fit_path)]) == 0
        tail = ["--model", "gamma", "--known-mu", "--target", "precision",
                "--level", "0.9", "--method", "first_order"] + sides
        assert main(["interval", "--file", str(path), "--response", "y"] + tail) == 0
        direct = capsys.readouterr().out
        assert main(["interval", "--fit-json", str(fit_path)] + tail) == 0
        assert capsys.readouterr().out == direct

    @pytest.mark.parametrize("fit_args,interval_args", [
        # a regression summary where a known-mean one is asked for, and back
        (["--design", "x1"], ["--model", "gamma", "--known-mu", "--target", "precision",
                              "--method", "first_order"]),
        (["--known-mu"], ["--model", "gamma", "--target", "precision",
                          "--method", "first_order"]),
        (["--design", "x1"], ["--model", "normal", "--target", "variance",
                              "--method", "exact"]),
    ])
    def test_fit_json_model_mismatch_is_usage_error(self, gamma_csv, tmp_path, capsys,
                                                    fit_args, interval_args):
        fit_path = tmp_path / "gfit.json"
        assert main(["fit", "--file", str(gamma_csv[0]), "--model", "gamma",
                     "--response", "y", "--out", str(fit_path)] + fit_args) == 0
        code = main(["interval", "--fit-json", str(fit_path), "--level", "0.9"]
                    + interval_args)
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_known_mu_with_normal_model_is_usage_error(self, normal_csv, capsys):
        code = main(["interval", "--file", str(normal_csv[0]), "--model", "normal",
                     "--response", "y", "--design", "x1", "--known-mu", "--target", "variance",
                     "--level", "0.9", "--method", "exact"])
        assert code == 2
        assert "--known-mu applies to --model gamma only" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["first_order", "fraser"])
    def test_known_mu_extreme_sample_interval(self, tmp_path, capsys, method):
        # varphi_hat ~3e-20: the bracket starts at a half width of 0.75 on the
        # log axis; an absolute floor on the hint's scale made it underflow to 0
        path = tmp_path / "extreme.csv"
        path.write_text("y\n1e20\n1\n2\n")
        assert main(["interval", "--file", str(path), "--model", "gamma", "--known-mu",
                     "--response", "y", "--target", "precision", "--method", method,
                     "--level", "0.95", "--sides", "two"]) == 0
        statement = json.loads(capsys.readouterr().out)["statement"]
        sample = np.array([1e20, 1.0, 2.0])
        fit = fit_known_mean(sample)
        pv = fraser_pivot(sample) if method == "fraser" else _precision_pivot(fit)
        assert 0.0 < statement["lower"] < fit.varphi_hat < statement["upper"]
        q = PivotLaw.normal().quantile(0.975)
        assert pv.value(statement["lower"]) == pytest.approx(q, abs=1e-8)
        assert pv.value(statement["upper"]) == pytest.approx(-q, abs=1e-8)

    def test_matches_library_endpoint(self, normal_csv, capsys):
        path, y, x1, x2 = normal_csv
        code = main(["interval", "--file", str(path), "--model", "normal",
                     "--response", "y", "--design", "x1,x2",
                     "--target", "variance", "--level", "0.95",
                     "--sides", "one", "--side", "lower", "--method", "exact"])
        payload = json.loads(capsys.readouterr().out)
        X = np.column_stack([np.ones(len(y)), x1, x2])
        pv = variance_pivot(fit_ols(Dataset(y=y, X=X)))
        expected = interval_endpoint(pv, 0.95, "lower")
        assert payload["statement"]["lower"] == pytest.approx(expected, abs=1e-10)


class TestCoverageCommand:
    def test_runs_bundled_normal_scenario_shrunk(self, tmp_path, capsys):
        ini = tmp_path / "s.ini"
        ini.write_text(
            "[smoke]\nmodel = normal_regression\nn = 15\nreplications = 2000\n"
            "seed = 3\nlevels = 0.05, 0.95\nmethods = contrast_t\n"
            "beta = 1.0, -0.5, 0.25\nphi = 2.0\n"
        )
        out = tmp_path / "reports"
        code = main(["coverage", "--scenario", str(ini), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "smoke.json").read_text())
        for row in report["results"]:
            assert abs(row["empirical_coverage"] - row["level"]) < 3.0 * math.sqrt(
                row["level"] * (1 - row["level"]) / 2000
            )

    def test_jobs_do_not_change_bytes(self, tmp_path):
        ini = tmp_path / "s.ini"
        ini.write_text(
            "[det]\nmodel = normal_regression\nn = 12\nreplications = 400\n"
            "seed = 5\nlevels = 0.5\nmethods = variance_chisq\n"
            "beta = 0.5, 1.0\nphi = 1.0\n"
        )
        outs = []
        for jobs in ("1", "4", "8"):
            out = tmp_path / f"rep{jobs}"
            assert main(["coverage", "--scenario", str(ini), "--out", str(out),
                         "--jobs", jobs]) == 0
            outs.append((out / "det.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_not_positive_is_usage_error(self, tmp_path, capsys, jobs):
        ini = tmp_path / "s.ini"
        ini.write_text(
            "[det]\nmodel = normal_regression\nn = 12\nreplications = 100\n"
            "seed = 5\nlevels = 0.5\nmethods = variance_chisq\n"
            "beta = 0.5, 1.0\nphi = 1.0\n"
        )
        out = tmp_path / "o"
        code = main(["coverage", "--scenario", str(ini), "--out", str(out), "--jobs", jobs])
        assert code == 2
        assert f"--jobs must be positive, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_is_schema_error(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(
            "[bad]\nmodel = normal_regression\nn = 12\nreplications = 400\n"
            "seed = 5\nlevels = 0.5\nmethods = magic\nbeta = 0.5\nphi = 1.0\n"
        )
        code = main(["coverage", "--scenario", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "magic" in capsys.readouterr().err

    def test_contrast_length_mismatch_is_schema_error(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(
            "[bad]\nmodel = normal_regression\nn = 12\nreplications = 400\n"
            "seed = 5\nlevels = 0.5\nmethods = contrast_t\nbeta = 0.5, 1.0\n"
            "phi = 1.0\ncontrast = 1, 0, 0\n"
        )
        code = main(["coverage", "--scenario", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "contrast has 3 entries" in capsys.readouterr().err

    def test_non_finite_phi_is_schema_error(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(
            "[bad]\nmodel = normal_regression\nn = 12\nreplications = 100\n"
            "seed = 5\nlevels = 0.5\nmethods = variance_chisq\nbeta = 0.5\n"
            "phi = nan\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["coverage", "--scenario", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "phi must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o" / "bad.csv").exists()

    def test_unknown_field_named(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(
            "[bad]\nmodel = normal_regression\nn = 12\nreplications = 400\n"
            "seed = 5\nlevels = 0.5\nmethods = variance_chisq\nbeta = 0.5\n"
            "phi = 1.0\nbananas = 3\n"
        )
        code = main(["coverage", "--scenario", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "bananas" in capsys.readouterr().err

    def test_bundled_scenarios_parse(self):
        from pathlib import Path

        from confdist.cli import _parse_scenarios

        root = Path(__file__).parent.parent / "scenarios"
        names = []
        for ini in sorted(root.glob("*.ini")):
            names.extend(name for name, _ in _parse_scenarios(str(ini), None))
        assert "normal_exact" in names
        assert "gamma_dominance" in names

    def test_seed_override_reproducible(self, tmp_path):
        ini = tmp_path / "s.ini"
        ini.write_text(
            "[det]\nmodel = normal_regression\nn = 12\nreplications = 300\n"
            "seed = 5\nlevels = 0.5\nmethods = variance_chisq\n"
            "beta = 0.5, 1.0\nphi = 1.0\n"
        )
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["coverage", "--scenario", str(ini), "--out", str(a),
                     "--seed", "99"]) == 0
        assert main(["coverage", "--scenario", str(ini), "--out", str(b),
                     "--seed", "99"]) == 0
        assert (a / "det.csv").read_bytes() == (b / "det.csv").read_bytes()


# ---------------------------------------------------------------------------
# Error paths: bad input ends with a message and an exit code, never a traceback
# ---------------------------------------------------------------------------


# A valid fit summary of each model, and summaries that differ from one in a
# single field, holding a number `confdist fit` cannot write.
SUMMARIES = {
    "normal": {"model": "normal", "beta_hat": [1.0, 0.5], "phi_hat_m": 1.0,
               "xtx": [[30.0, 0.0], [0.0, 30.0]], "df": 28, "n": 30, "p": 2},
    "gamma": {"model": "gamma", "n": 30, "varphi_hat": 2.0},
    "gamma_known_mu": {"model": "gamma_known_mu", "n": 30, "varphi_hat": 2.0},
}
BAD_NUMBERS = {
    "normal_df_0": ("normal", {"df": 0}),
    "normal_df_not_n_minus_p": ("normal", {"df": 5}),
    "normal_df_fraction": ("normal", {"df": 2.5}),
    "normal_n_fraction": ("normal", {"n": 2.5}),
    "normal_phi_nan": ("normal", {"phi_hat_m": math.nan}),
    "normal_phi_negative": ("normal", {"phi_hat_m": -1.0}),
    "normal_xtx_nan": ("normal", {"xtx": [[30.0, math.nan], [0.0, 30.0]]}),
    # a Gram matrix X'X is exactly symmetric with a positive diagonal, and
    # positive semidefinite up to rounding; the singular one passes those
    # rules and fails in the contrast solve
    "normal_xtx_zero": ("normal", {"xtx": [[0.0, 0.0], [0.0, 0.0]]}),
    "normal_xtx_singular": ("normal", {"xtx": [[1.0, 1.0], [1.0, 1.0]]}),
    "normal_xtx_asymmetric": ("normal", {"xtx": [[1.0, 2.0], [3.0, -4.0]]}),
    "normal_xtx_indefinite": ("normal", {"xtx": [[1.0, 2.0], [2.0, 1.0]]}),
    "normal_beta_inf": ("normal", {"beta_hat": [math.inf, 1.0]}),
    **{f"{model}_{name}": (model, change) for model in ("gamma", "gamma_known_mu")
       for name, change in (("precision_0", {"varphi_hat": 0.0}),
                            ("precision_negative", {"varphi_hat": -2.0}),
                            ("precision_nan", {"varphi_hat": math.nan}),
                            ("n_1", {"n": 1}),
                            ("n_fraction", {"n": 2.7}))},
}


def _error_files(d):
    """The files the ERROR_CASES templates name, written into directory ``d``."""
    rng = np.random.default_rng(20261019)
    x = rng.normal(size=30)
    write_csv(d / "normal.csv", ["y", "x"], np.column_stack([1.0 + x + rng.normal(size=30), x]))
    write_csv(d / "gamma.csv", ["y", "x"],
              np.column_stack([np.exp(0.5 - 0.3 * x) * rng.gamma(2.0, 0.5, size=30), x]))
    (d / "nonfinite.csv").write_text("y,x\n1,2\ninf,3\n4,5\n")
    (d / "latin1.csv").write_bytes("y,x\n1,2\n3,4\n5,6\n# café\n".encode("latin-1"))
    (d / "empty.csv").write_text("")
    normal_fit = SUMMARIES["normal"]
    summaries = {
        **SUMMARIES,
        **{name: {**SUMMARIES[model], **change} for name, (model, change) in BAD_NUMBERS.items()},
        "gamma_no_n": {"model": "gamma", "varphi_hat": 2.0},
        "gamma_text_precision": {"model": "gamma", "n": 30, "varphi_hat": "x"},
        "normal_no_xtx": {k: v for k, v in normal_fit.items() if k != "xtx"},
        "normal_p3": {**normal_fit, "beta_hat": [1.0, 0.5, 0.0], "p": 3, "df": 27},
        "list": [normal_fit],
    }
    for name, payload in summaries.items():
        (d / f"{name}.json").write_text(json.dumps(payload))
    (d / "latin1.json").write_bytes(b'{"model": "gamma", "n": 30, "varphi_hat": 2.0, "\xe9": 1}')
    ok = ("model = normal_regression\nn = 10\nreplications = 100\nseed = 1\n"
          "levels = 0.5\nmethods = variance_chisq\nbeta = 1.0\nphi = 1.0\n")
    scenarios = {
        "ok": f"[ok]\n{ok}",
        "no_section": ok,
        "repeated_section": f"[a]\n{ok}[a]\n{ok}",
        "repeated_key": f"[a]\n{ok}n = 12\n",
        "no_equals": f"[a]\n{ok}levels\n",
        "missing_fields": "[a]\nmodel = normal_regression\nn = 10\n",
        "only_comment": "# no scenarios here\n",
        "overflow": ("[overflow]\nmodel = gamma_regression\nn = 10\nreplications = 100\n"
                     "seed = 1\nlevels = 0.5\nmethods = first_order_precision\n"
                     "beta = 800, 0\nvarphi = 2\n"),
        "draws_overflow": ("[draws_overflow]\nmodel = gamma_regression\nn = 10\n"
                           "replications = 100\nseed = 1\nlevels = 0.5\n"
                           "methods = first_order_precision\nbeta = 709, 0\nvarphi = 2\n"),
    }
    for name, text in scenarios.items():
        (d / f"{name}.ini").write_text(text)


NORMAL_ARGS = "--file {d}/normal.csv --model normal --response y --design x"
FIT_JSON_PRECISION = "--model gamma --target precision --method first_order --level 0.9"
FIT_JSON_NORMAL = "--model normal --method exact --level 0.9 --target"
FIT_JSON_FLAGS = {"normal": f"{FIT_JSON_NORMAL} contrast:0,1", "gamma": FIT_JSON_PRECISION,
                  "gamma_known_mu": f"{FIT_JSON_PRECISION} --known-mu"}

# name -> (argv template, exit code, a text stderr must hold).  Templates are
# split on whitespace after {d} is replaced by a directory _error_files filled.
# Exit codes: 2 usage or scenario, 3 data, 4 numeric.
ERROR_CASES = {
    "coverage_jobs_0": ("coverage --scenario {d}/ok.ini --out {d}/o --jobs 0", 2, "--jobs"),
    "known_mu_normal_model": (
        "fit --file {d}/normal.csv --model normal --response y --known-mu", 2, "--known-mu"),
    "csv_non_finite_cell": (
        "fit --file {d}/nonfinite.csv --model normal --response y --design x", 3,
        "{d}/nonfinite.csv"),
    "confdens_gamma_skovgaard": (
        "confdens --file {d}/gamma.csv --model gamma --response y --design x "
        "--target precision --method skovgaard --grid 0.3:8:101", 4, "not monotone"),
    "csv_not_utf8": (
        "fit --file {d}/latin1.csv --model normal --response y --design x", 3,
        "{d}/latin1.csv"),
    "fit_json_gamma_no_n": (
        f"interval --fit-json {{d}}/gamma_no_n.json {FIT_JSON_PRECISION}", 3,
        "{d}/gamma_no_n.json"),
    "fit_json_gamma_text_precision": (
        f"interval --fit-json {{d}}/gamma_text_precision.json {FIT_JSON_PRECISION}", 3,
        "{d}/gamma_text_precision.json"),
    "fit_json_list": (
        f"interval --fit-json {{d}}/list.json {FIT_JSON_PRECISION}", 3, "{d}/list.json"),
    "fit_json_not_utf8": (
        f"interval --fit-json {{d}}/latin1.json {FIT_JSON_PRECISION}", 3, "{d}/latin1.json"),
    "fit_json_normal_no_xtx": (
        f"interval --fit-json {{d}}/normal_no_xtx.json {FIT_JSON_NORMAL} variance", 3,
        "{d}/normal_no_xtx.json"),
    "fit_json_normal_p_mismatch_contrast": (
        f"interval --fit-json {{d}}/normal_p3.json {FIT_JSON_NORMAL} contrast:0,1,0", 3,
        "{d}/normal_p3.json"),
    "fit_json_normal_p_mismatch_variance": (
        f"interval --fit-json {{d}}/normal_p3.json {FIT_JSON_NORMAL} variance", 3,
        "{d}/normal_p3.json"),
    **{f"fit_json_normal_xtx_{name}_variance": (
        f"interval --fit-json {{d}}/normal_xtx_{name}.json {FIT_JSON_NORMAL} variance", 3,
        f"{{d}}/normal_xtx_{name}.json: xtx") for name in ("zero", "asymmetric", "indefinite")},
    "fit_json_normal_xtx_indefinite_contrast_1_1": (
        f"interval --fit-json {{d}}/normal_xtx_indefinite.json {FIT_JSON_NORMAL} contrast:1,1", 3,
        "{d}/normal_xtx_indefinite.json: xtx"),
    "scenario_no_section": (
        "coverage --scenario {d}/no_section.ini --out {d}/o", 2, "{d}/no_section.ini"),
    "scenario_repeated_section": (
        "coverage --scenario {d}/repeated_section.ini --out {d}/o", 2,
        "{d}/repeated_section.ini"),
    "scenario_repeated_key": (
        "coverage --scenario {d}/repeated_key.ini --out {d}/o", 2, "{d}/repeated_key.ini"),
    "scenario_line_without_equals": (
        "coverage --scenario {d}/no_equals.ini --out {d}/o", 2, "{d}/no_equals.ini"),
    "fit_out_in_missing_directory": (
        f"fit {NORMAL_ARGS} --out {{d}}/missing/fit.json", 2, "{d}/missing/fit.json"),
    "confdens_out_is_a_directory": (
        f"confdens {NORMAL_ARGS} --target variance --method exact --grid 0.2:3:20 --out {{d}}",
        2, "Is a directory"),
    "coverage_out_is_a_file": (
        "coverage --scenario {d}/ok.ini --out {d}/normal.csv", 2, "{d}/normal.csv"),
    "grid_without_n": (
        f"confdens {NORMAL_ARGS} --target variance --method exact --grid 0.2:3", 2,
        "--grid must be lo:hi:n"),
    "grid_not_numbers": (
        f"confdens {NORMAL_ARGS} --target variance --method exact --grid a:b:c", 2,
        "with numbers"),
    "contrast_without_weights": (
        f"interval {NORMAL_ARGS} --method exact --level 0.9 --target contrast:", 2,
        "contrast target must be"),
    "contrast_weight_not_a_number": (
        f"interval {NORMAL_ARGS} --method exact --level 0.9 --target contrast:0,x", 2,
        "cannot parse contrast weights"),
    "contrast_weights_too_many": (
        f"interval {NORMAL_ARGS} --method exact --level 0.9 --target contrast:0,1,1", 2,
        "contrast has 3 weights"),
    "design_is_the_response": (
        "fit --file {d}/normal.csv --model normal --response y --design y", 2,
        "is the response"),
    "no_design_columns": (
        "fit --file {d}/normal.csv --model normal --response y --no-intercept", 2,
        "no design columns"),
    "confdens_without_file": (
        "confdens --model normal --response y --design x --target variance --method exact "
        "--grid 0.2:3:20", 2, "confdens needs --file"),
    "interval_without_model": (
        "interval --file {d}/normal.csv --response y --design x --target variance "
        "--method exact --level 0.9", 2, "interval needs --model"),
    "interval_without_data": (
        "interval --model normal --target variance --method exact --level 0.9", 2,
        "interval needs --file/--response or --fit-json"),
    "interval_level_above_1": (
        f"interval {NORMAL_ARGS} --target variance --method exact --level 1.5", 2,
        "--level must lie in (0, 1)"),
    "csv_empty": (
        "fit --file {d}/empty.csv --model normal --response y --design x", 3,
        "{d}/empty.csv: empty file"),
    "scenario_missing_fields": (
        "coverage --scenario {d}/missing_fields.ini --out {d}/o", 2, "is missing field(s)"),
    "scenario_only_comment": (
        "coverage --scenario {d}/only_comment.ini --out {d}/o", 2,
        "no scenario sections found"),
    "scenario_file_missing": (
        "coverage --scenario {d}/absent.ini --out {d}/o", 2, "cannot read scenario file"),
    "scenario_true_mean_overflows": (
        "coverage --scenario {d}/overflow.ini --out {d}/o", 2,
        "scenario error: [overflow]: the true mean must be finite and positive, "
        "got beta=(800.0, 0.0)"),
    "scenario_gamma_draws_overflow": (
        "coverage --scenario {d}/draws_overflow.ini --out {d}/o", 2,
        "scenario error: [draws_overflow]: the true mean's draws overflow: its largest value "
        "8.218e+307 times 19.1 (the gamma draw's upper 1e-15 quantile at varphi=2.0) is not "
        "finite, got beta=(709.0, 0.0)"),
    # a data error naming the file and the field
    **{f"fit_json_{name}": (f"interval --fit-json {{d}}/{name}.json {FIT_JSON_FLAGS[model]}", 3,
                            f"{{d}}/{name}.json: {next(iter(change))}")
       for name, (model, change) in BAD_NUMBERS.items()},
}


class TestErrorPaths:
    @pytest.mark.parametrize("name", sorted(ERROR_CASES))
    def test_exits_with_its_code_and_message(self, name, tmp_path, capsys, monkeypatch):
        template, code, message = ERROR_CASES[name]
        _error_files(tmp_path)
        studies = []
        monkeypatch.setattr("confdist.cli.run_scenario", lambda *a, **k: studies.append(a))
        assert main(template.format(d=tmp_path).split()) == code
        captured = capsys.readouterr()
        assert message.format(d=tmp_path) in captured.err
        assert captured.out == "" and not studies  # no study runs, nothing is printed

    def test_window_nodes_that_do_not_settle_exit_5(self, tmp_path, capsys, monkeypatch):
        # one Newton step settles no window node; the grid's middle point is
        # varphi_hat, inside the window
        _error_files(tmp_path)
        vh = fit_known_mean(load_csv_table(tmp_path / "gamma.csv").column("y")).varphi_hat
        monkeypatch.setattr(higher_order, "_NODE_STEPS", 1)
        assert main(f"confdens --file {tmp_path}/gamma.csv --model gamma --known-mu "
                    f"--response y --target precision --method fraser "
                    f"--grid {0.5 * vh}:{1.5 * vh}:11".split()) == 5
        captured = capsys.readouterr()
        assert "window nodes did not settle at varphi_hat=" in captured.err
        assert captured.out == ""

    def test_a_study_with_too_many_failed_fits_exits_5(self, tmp_path, capsys):
        # at n = 2 and varphi 0.002, 73 of the 200 samples hold a draw that
        # underflows to 0, and a sample with a value not positive is a failed fit
        (tmp_path / "km.ini").write_text(
            "[km]\nmodel = gamma_known_mu\nn = 2\nreplications = 200\nseed = 1\n"
            "levels = 0.5\nmethods = first_order_z, fraser_z\nvarphi = 0.002\n")
        assert main(["coverage", "--scenario", str(tmp_path / "km.ini"),
                     "--out", str(tmp_path / "o")]) == 5
        captured = capsys.readouterr()
        assert "73 of 200 replications failed to fit (> 1%)" in captured.err
        assert captured.out == ""

    def test_an_endpoint_without_a_bracket_exits_4(self, tmp_path, capsys, monkeypatch):
        _error_files(tmp_path)
        monkeypatch.setattr(numerics, "_MAX_EXPANSIONS", 0)
        assert main(f"interval {NORMAL_ARGS.format(d=tmp_path)} --target variance "
                    "--method exact --level 0.999999".split()) == 4
        captured = capsys.readouterr()
        assert "endpoint inversion failed for level 0.999999 side lower" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("model", sorted(SUMMARIES))
    def test_valid_summaries_give_an_interval(self, model, tmp_path, capsys):
        # the BAD_NUMBERS summaries fail on their one changed field
        _error_files(tmp_path)
        argv = f"interval --fit-json {tmp_path}/{model}.json {FIT_JSON_FLAGS[model]}"
        assert main(argv.split()) == 0
        assert capsys.readouterr().err == ""

    def test_summary_of_an_ill_conditioned_design_is_accepted(self, tmp_path, capsys):
        # full rank with cond(X) about 1e7: the xtx fit writes passes the
        # summary's rules, and both exact targets give an interval
        rng = np.random.default_rng(11)
        x1 = rng.normal(size=40)
        x2 = x1 + 1e-6 * rng.normal(size=40)
        X = np.column_stack([np.ones(40), x1, x2])
        assert 1e6 < np.linalg.cond(X) < 1e8
        write_csv(tmp_path / "ill.csv", ["y", "x1", "x2"],
                  np.column_stack([1.0 + x1 + rng.normal(size=40), x1, x2]))
        assert main(["fit", "--file", str(tmp_path / "ill.csv"), "--model", "normal",
                     "--response", "y", "--design", "x1,x2",
                     "--out", str(tmp_path / "ill.json")]) == 0
        for target in ("contrast:0,1,-1", "variance"):
            assert main(["interval", "--fit-json", str(tmp_path / "ill.json"),
                         *FIT_JSON_NORMAL.split(), target]) == 0
        assert capsys.readouterr().err == ""

    def test_summary_of_a_design_at_the_rank_limit_is_accepted(self, tmp_path, capsys):
        # s_min / s_max within 10 times fit's rank tolerance eps n: the X'X
        # fit writes has a negative eigenvalue from rounding alone, above the
        # summary's floor -2 n p eps lambda_max
        rng = np.random.default_rng(4)
        x1 = rng.normal(size=40)
        x2 = x1 + 1e-13 * rng.normal(size=40)
        s = np.linalg.svd(np.column_stack([np.ones(40), x1, x2]), compute_uv=False)
        assert s[-1] / s[0] < 10 * np.finfo(float).eps * 40
        write_csv(tmp_path / "edge.csv", ["y", "x1", "x2"],
                  np.column_stack([1.0 + x1 + rng.normal(size=40), x1, x2]))
        assert main(["fit", "--file", str(tmp_path / "edge.csv"), "--model", "normal",
                     "--response", "y", "--design", "x1,x2",
                     "--out", str(tmp_path / "edge.json")]) == 0
        xtx = np.array(json.loads((tmp_path / "edge.json").read_text())["xtx"])
        assert np.linalg.eigvalsh(xtx)[0] < 0.0
        assert _fit_from_json(str(tmp_path / "edge.json"), "normal").p == 3
        assert main(["interval", "--fit-json", str(tmp_path / "edge.json"),
                     *FIT_JSON_NORMAL.split(), "variance"]) == 0
        assert capsys.readouterr().err == ""

    def test_contrast_of_a_design_at_the_rank_limit_is_accepted(self, tmp_path, capsys):
        # the data of the test above: k from the design's SVD stays positive,
        # where a solve with the X'X the fit forms gave k = -9.4e13 (exit 4)
        rng = np.random.default_rng(4)
        x1 = rng.normal(size=40)
        x2 = x1 + 1e-13 * rng.normal(size=40)
        write_csv(tmp_path / "edge.csv", ["y", "x1", "x2"],
                  np.column_stack([1.0 + x1 + rng.normal(size=40), x1, x2]))
        assert main(["interval", "--file", str(tmp_path / "edge.csv"), "--model", "normal",
                     "--response", "y", "--design", "x1,x2", "--method", "exact",
                     "--level", "0.9", "--target", "contrast:0,1,-1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["statement"]["confidence"] == 0.9

    def test_ok_scenario_runs(self, tmp_path, capsys):
        # the scenario the coverage cases name is valid: only their flags fail
        _error_files(tmp_path)
        assert main(["coverage", "--scenario", str(tmp_path / "ok.ini"),
                     "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "ok.csv").exists()
