"""Per-fit confidence curves: the same floats as the scalar functions.

A curve computes its per-fit constants once and its window cubic at the
first varphi inside the |z_p| < 0.05 window.  These tests evaluate one curve
over a shuffled grid, with the window points first or last, and compare
every result with a fresh curve per point (the scalar functions), so the
cache cannot depend on the order of evaluation.  They also compare the
curve's ``values`` on the whole grid with ``float()`` of its pointwise
results, the pivot values either gives.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdist import Dataset
from confdist.gamma import fit_irls
from confdist.higher_order import (
    ROOT_WINDOW,
    fit_known_mean,
    fraser_curve,
    fraser_root_known_mu,
    signed_precision_root,
    signed_root_curve,
    skovgaard_precision,
    skovgaard_precision_curve,
)


def _same(a, b) -> bool:
    """Field-by-field equality of two results, NaN equal to NaN."""
    return all(x == y or (x != x and y != y)
               for x, y in zip(astuple(a), astuple(b), strict=True))


def _grid(n: int, varphi_hat: float, order: list[int], window_first: bool) -> list[float]:
    """A grid around varphi_hat with points inside the window, in the given
    order except that the window points all come first or all come last."""
    spread = varphi_hat * np.exp(np.linspace(-1.0, 1.0, 13))
    near = varphi_hat * (1.0 + np.array([-3e-3, -1e-3, -2e-4, 0.0, 2e-4, 1e-3, 3e-3]))
    points = np.concatenate([spread, near])[np.asarray(order)].tolist()
    inside = [abs(signed_precision_root(n, varphi_hat, v)) < ROOT_WINDOW for v in points]
    window = [v for v, w in zip(points, inside) if w]
    outside = [v for v, w in zip(points, inside) if not w]
    assert len(window) >= 3 and outside
    return window + outside if window_first else outside + window


def _values_match(curve, points: list[float]) -> None:
    """``curve.values`` on the grid in one call is ``float()`` of each pointwise
    result: the same float where the point takes the window cubic, within
    1e-9 relative elsewhere (array and scalar arithmetic round apart)."""
    values = curve.values(np.array(points))
    for v, got in zip(points, values, strict=True):
        result = curve(v)
        if getattr(result, "interpolated", False):
            assert got == float(result), v
        else:
            assert got == pytest.approx(float(result), rel=1e-9), v


ORDERS = st.permutations(range(20))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 60), order=ORDERS,
       window_first=st.booleans())
def test_known_mean_curves_do_not_depend_on_evaluation_order(seed, n, order, window_first):
    y = np.random.default_rng(seed).gamma(2.0, 0.5, size=n)
    km = fit_known_mean(y)
    fraser, signed_root = fraser_curve(km), signed_root_curve(km.n, km.varphi_hat)
    points = _grid(km.n, km.varphi_hat, order, window_first)
    for v in points:
        assert _same(fraser(v), fraser_root_known_mu(y, v)), v
        assert signed_root(v) == signed_precision_root(km.n, km.varphi_hat, v)
    _values_match(fraser, points)
    _values_match(signed_root, points)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 60), order=ORDERS,
       window_first=st.booleans())
def test_skovgaard_curve_does_not_depend_on_evaluation_order(seed, n, order, window_first):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    data = Dataset(y=np.exp(0.5 - 0.3 * x) * rng.gamma(2.0, 0.5, size=n),
                   X=np.column_stack([np.ones(n), x]))
    fit = fit_irls(data)
    curve = skovgaard_precision_curve(data, fit)
    results = []
    points = _grid(fit.n, fit.varphi_hat, order, window_first)
    for v in points:
        results.append(curve(v))
        assert _same(results[-1], skovgaard_precision(data, fit, v)), v
    assert any(r.interpolated or r.correction_unavailable for r in results)
    _values_match(curve, points)
