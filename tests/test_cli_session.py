"""The CLI within one process: a reused parser, interval flags, and the
lower/upper symmetry of the corrected precision intervals."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import confdist.cli as cli
import confdist.higher_order as higher_order
from confdist.cli import main
from confdist.higher_order import (
    ROOT_WINDOW,
    fit_known_mean,
    fraser_curve,
    signed_precision_root,
)
from confdist.pivots import PivotLaw


def _write(path, header, columns):
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("session")
    rng = np.random.default_rng(5)
    x1, x2 = rng.normal(size=20), rng.normal(size=20)
    _write(d / "normal.csv", ["y", "x1", "x2"], [1.0 + x1 - x2 + rng.normal(size=20), x1, x2])
    x = rng.normal(size=30)
    _write(d / "gamma.csv", ["y", "x1"],
           [np.exp(0.5 - 0.3 * x) * rng.gamma(2.0, 0.5, size=30), x])
    y = rng.gamma(2.0, 0.5, size=20)
    _write(d / "known_mu.csv", ["y"], [y])
    return {"normal": ["--file", str(d / "normal.csv"), "--model", "normal", "--response", "y",
                       "--design", "x1,x2"],
            "gamma": ["--file", str(d / "gamma.csv"), "--model", "gamma", "--response", "y",
                      "--design", "x1"],
            "known_mu": ["--file", str(d / "known_mu.csv"), "--model", "gamma", "--known-mu",
                         "--response", "y"],
            "y": y}


def _run(capsys, argv, fresh=False):
    if fresh:
        cli._parser = None
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestParserReuse:
    def test_parser_is_built_once(self, files, capsys, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        for _ in range(3):
            assert _run(capsys, ["fit", *files["normal"]])[0] == 0
        assert len(built) == 1

    def test_usage_error_leaves_the_parser_usable(self, files, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)
        good = ["interval", *files["normal"], "--target", "variance", "--method", "exact",
                "--level", "0.9", "--sides", "two"]
        fresh_bad = _run(capsys, ["interval", *files["normal"], "--level", "x"], fresh=True)
        fresh_good = _run(capsys, good, fresh=True)
        assert fresh_bad[0] == 2 and fresh_good[0] == 0
        assert _run(capsys, ["interval", *files["normal"], "--level", "x"]) == fresh_bad
        assert _run(capsys, good) == fresh_good

    def test_no_intercept_does_not_stick(self, files, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)
        default = _run(capsys, ["fit", *files["normal"]], fresh=True)
        without = _run(capsys, ["fit", *files["normal"], "--no-intercept"], fresh=True)
        assert json.loads(without[1])["intercept"] is False
        assert _run(capsys, ["fit", *files["normal"], "--no-intercept"]) == without
        assert _run(capsys, ["fit", *files["normal"]]) == default
        assert json.loads(default[1])["intercept"] is True


def _interval(capsys, data, method, level, side):
    code, out, _ = _run(capsys, ["interval", *data, "--target", "precision", "--method", method,
                                 "--level", repr(level), "--side", side])
    return code, (json.loads(out) if code == 0 else None)


class TestIntervalFlags:
    def test_window_endpoint_reports_interpolated(self, files, capsys):
        # the level whose endpoint is (about) the estimate: just above 0.5,
        # on the side the modified root's offset at the estimate points to
        km = fit_known_mean(files["y"])
        z0 = fraser_curve(km)(km.varphi_hat).value
        side, level = ("upper" if z0 < 0 else "lower"), round(PivotLaw.normal().cdf(abs(z0)), 3)
        assert 0.5 < level < 0.6
        code, payload = _interval(capsys, files["known_mu"], "fraser", level, side)
        assert code == 0
        endpoint = payload["statement"][side]
        assert abs(signed_precision_root(km.n, km.varphi_hat, endpoint)) < ROOT_WINDOW
        assert payload["flags"] == ["interpolated"]
        assert _interval(capsys, files["known_mu"], "fraser", 0.95, "lower")[1]["flags"] == []

    def test_unavailable_correction_is_reported(self, files, capsys, monkeypatch):
        first = _interval(capsys, files["gamma"], "first_order", 0.9, "lower")[1]
        monkeypatch.setattr(higher_order, "_precision_correction_factor", lambda q, f, v: None)
        code, payload = _interval(capsys, files["gamma"], "skovgaard", 0.9, "lower")
        assert code == 0 and payload["flags"] == ["correction_unavailable"]
        assert payload["statement"]["lower"] == first["statement"]["lower"]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(level=st.floats(0.02, 0.98),
       case=st.sampled_from([("known_mu", "fraser"), ("known_mu", "first_order"),
                             ("gamma", "skovgaard"), ("gamma", "first_order")]))
def test_lower_at_level_equals_upper_at_complement(files, capsys, level, case):
    assume(1.0 - (1.0 - level) == level)  # both sides then invert the same quantile
    kind, method = case
    lower = _interval(capsys, files[kind], method, level, "lower")
    upper = _interval(capsys, files[kind], method, 1.0 - level, "upper")
    assert lower[0] == upper[0]
    if lower[0] == 0:
        assert lower[1]["statement"]["lower"] == upper[1]["statement"]["upper"]
        assert lower[1]["flags"] == upper[1]["flags"]
