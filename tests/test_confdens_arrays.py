"""Array confidence densities against the pointwise construction they replace.

``confdens`` evaluates a whole grid in one array pass of
``parameter_density``.  The oracle here is the per-point construction it
replaced, kept only in this file: the density of a gamma precision pivot
(which has no jacobian) as the finite difference of Phi(root(theta)) through
the pivot's ``value`` at one point, which reads the unchanged scalar
curves, and the exact densities as ``law.pdf(v) * jacobian`` at one point
at a time.  Window points take the curve's cached cubic on both sides, so
their root values and their densities must be the same floats; elsewhere
np.log and math.log may round apart, and the densities must agree to 1e-9
relative.
"""

from __future__ import annotations

import argparse
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdist.cli import CsvTable, _fit
from confdist.coverage import METHODS
from confdist.data import Dataset
from confdist.errors import ContractViolationError, DomainError
from confdist.gamma import cumulant_d2
from confdist.higher_order import fit_known_mean
from confdist.linear import contrast, contrast_pivot, fit_ols, variance_pivot
from confdist.numerics import RealGrid
from confdist.pivots import PivotLaw, parameter_density

RTOL = 1e-9


def pointwise_density(pivot, grid: RealGrid) -> np.ndarray:
    """The per-point density of a decreasing precision pivot with no
    jacobian: monotone check, then a central difference with step span/2048
    (forward within one step of 0)."""
    points = grid.points[grid.points > 0.0]
    values = [pivot.value(float(t)) for t in points]
    for i in range(len(points) - 1):
        step = values[i + 1] - values[i]  # inf - inf is NaN, and passes
        if step >= 0.0 or math.isnan(values[i]) or math.isnan(values[i + 1]):
            raise ContractViolationError(
                f"{pivot.label} is not monotone over the grid near "
                f"[{points[i]:.6g}, {points[i + 1]:.6g}]: declared decreasing, "
                f"its value moved from {values[i]:.6g} to {values[i + 1]:.6g}"
            )
    h = grid.span / 2048.0
    normal = PivotLaw.normal()

    def confidence(theta: float) -> float:
        value = pivot.value(theta)
        if not math.isfinite(value):  # as the array density rejects it
            raise DomainError(f"x must be finite, got {value!r}")
        return normal.cdf(value)

    def density(theta: float) -> float:
        if theta <= 0.0:
            return 0.0
        up = confidence(theta + h)
        if theta <= h:
            return abs(up - confidence(theta)) / h
        down = confidence(theta - h)
        return abs(up - down) / (2.0 * h)

    return np.array([density(float(t)) for t in grid.points])


def _grid(n: int, center: float, kind: str, k: int, u: float) -> RealGrid:
    """Grids spanning the bulk of the confidence mass, as a user asks for.

    ``from0``: 0 to a few estimates; ``near0``: a first point within one
    finite-difference step of 0; ``window``: 2 to 12 standard errors with a
    point just off the estimate, inside the |z_p| < 0.05 window (the points
    below 0 of a small sample carry density 0).  A much narrower grid makes
    the step h = span/2048 so small against the root's rounding near the
    estimate that the pointwise and array densities, each as inaccurate as
    the other, stop agreeing to RTOL.
    """
    if kind == "from0":
        return RealGrid(np.linspace(0.0, center * (1.5 + 4.0 * u), k))
    if kind == "near0":
        hi = center * (1.5 + 4.0 * u)
        return RealGrid(np.linspace(hi * u / (2048.0 + u), hi, k))
    span = (2.0 + 10.0 * u) / math.sqrt(n * cumulant_d2(center))
    offsets = span * (np.arange(k) - k // 2) / (k - 1)
    return RealGrid(center * (1.0 + 1e-4 * (u - 0.5)) + offsets)


GRIDS = st.tuples(st.sampled_from(["from0", "near0", "window"]), st.integers(2, 201),
                  st.floats(0.0, 1.0))


def _check_same_density(pivot, grid: RealGrid, window: bool):
    """The array density of a gamma precision ``pivot`` against its pointwise
    density: the same error (a root not monotone over the grid, or at an
    extreme precision not finite or of the wrong sign), or the same
    difference quotients.  ``value_fn`` on a float is the pointwise curve,
    and on an array the curve's ``values``.

    The roots at every evaluation point theta + h and theta - h (theta where
    theta <= h) agree to RTOL, relative above 1 and absolute below: near the
    estimate the deviance under the root cancels to a few ulps of its terms,
    and a modified root divides that noise by z_p**2.  The densities agree
    to RTOL plus what the roots' rounding difference moves the quotient by
    (Phi' <= 0.4); at window points (with ``window``) the roots and the
    densities are the same floats.
    """
    try:
        want = pointwise_density(pivot, grid)
    except (ContractViolationError, DomainError) as exc:
        with pytest.raises(type(exc)) as got:
            parameter_density(pivot, grid)(grid.points)
        assert str(got.value) == str(exc)
        return
    got = parameter_density(pivot, grid)(grid.points)
    positive = grid.points > 0.0
    assert np.all(got[~positive] == 0.0) and np.all(want[~positive] == 0.0)
    h = grid.span / 2048.0
    t = grid.points[positive]
    ends = np.column_stack([t + h, np.where(t <= h, t, t - h)])
    scalar = [[pivot.value_fn(e) for e in row] for row in ends.tolist()]
    scalar_values = np.array([[float(r) for r in row] for row in scalar])
    array_values = np.column_stack([pivot.value_fn(ends[:, 0]), pivot.value_fn(ends[:, 1])])
    np.testing.assert_allclose(array_values, scalar_values, rtol=RTOL, atol=RTOL)
    slack = 0.4 * np.abs(array_values - scalar_values).sum(axis=1) / (ends[:, 0] - ends[:, 1])
    assert np.all(np.abs(got[positive] - want[positive]) <= RTOL * want[positive] + slack)
    if window:
        both = np.array([all(r.interpolated for r in row) for row in scalar], dtype=bool)
        assert np.array_equal(array_values[both], scalar_values[both])
        assert np.array_equal(got[positive][both], want[positive][both])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 200), grid=GRIDS,
       fraser=st.booleans())
def test_known_mean_density_matches_pointwise(seed, n, grid, fraser):
    y = np.random.default_rng(seed).gamma(2.0, 0.5, size=n)
    km = fit_known_mean(y)
    method = "fraser" if fraser else "first_order"
    build = next(m.build for m in METHODS["gamma_known_mu"] if m.cli == method)
    _check_same_density(build(km, None), _grid(n, km.varphi_hat, *grid), window=fraser)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 200), grid=GRIDS,
       method=st.sampled_from(["skovgaard", "first_order"]))
def test_regression_density_matches_pointwise(seed, n, grid, method):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = np.exp(0.5 - 0.3 * x) * rng.gamma(2.0, 0.5, size=n)
    args = argparse.Namespace(model="gamma", known_mu=False, response="y", design="x1",
                              intercept=True)
    fit, data = _fit(args, CsvTable(("y", "x1"), np.column_stack([y, x])))
    build = next(m.build for m in METHODS["gamma_regression"] if m.cli == method)
    _check_same_density(build(fit, data), _grid(n, fit.varphi_hat, *grid),
                        window=method == "skovgaard")


def _pointwise_exact(pivot, grid: RealGrid) -> np.ndarray:
    lo, hi = pivot.param_support
    out = []
    for t in grid.points.tolist():
        v = pivot.value(t) if lo < t < hi else math.nan
        out.append(pivot.law.pdf(v) * pivot.jacobian(t) if math.isfinite(v) else 0.0)
    return np.array(out)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 200), k=st.integers(2, 201),
       from_zero=st.booleans(), u=st.floats(0.05, 1.0))
def test_exact_densities_match_pointwise(seed, n, k, from_zero, u):
    rng = np.random.default_rng(seed)
    x1, x2 = rng.normal(size=n), rng.normal(size=n)
    y = 1.0 + 2.0 * x1 - 0.5 * x2 + 1.5 * rng.normal(size=n)
    fit = fit_ols(Dataset(y=y, X=np.column_stack([np.ones(n), x1, x2])))
    var_grid = RealGrid(np.linspace(0.0 if from_zero else u * fit.phi_hat_m,
                                    fit.phi_hat_m * (1.0 + 5.0 * u), k))
    con = contrast(fit, np.array([0.0, 1.0, 0.0]))
    half = 6.0 * math.sqrt(con.k * fit.phi_hat_m)
    con_grid = RealGrid(np.linspace(con.lambda_hat - half, con.lambda_hat + u * half, k))
    for pivot, grid in ((variance_pivot(fit), var_grid), (contrast_pivot(fit, con), con_grid)):
        got = parameter_density(pivot, grid)(grid.points)
        np.testing.assert_allclose(got, _pointwise_exact(pivot, grid), rtol=RTOL, atol=0.0)
