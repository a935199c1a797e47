"""Higher-order corrections for first-order deviance and normal pivots.

First-order asymptotics refer the signed root of a profile deviance to a
standard normal law and the deviance itself to a chi-square law.  Two
refinements sharpen those confidence statements in finite samples:

* the modified root  z = z_p + log(m / z_p) / z_p,  referred to the standard
  normal law, with a model-specific correction factor m;
* the corrected deviance  d = d_p + log(m) / (2 d_p),  referred to the
  chi-square law of the same dimension.

Both expressions are numerically indeterminate near the maximum likelihood
point (z_p -> 0).  Inside a small window |z_p| < 0.05 the corrected value is
replaced by a cubic interpolant fitted through nodes placed just outside the
window (on the evaluation ray, for vector parameters), and the result is
flagged.  A nonpositive correction factor makes the logarithm undefined: the
first-order value is returned with ``correction_unavailable`` set instead of
raising, since simulation sweeps legitimately produce such configurations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConvergenceError, DomainError
from .gamma import (
    _DEGENERATE_MEAN_B,
    GammaFit,
    _cumulant_arrays,
    _cumulant_d2_array,
    _precision_deviance_curve,
    _profile_deviance_beta_array,
    _profile_deviance_precision_array,
    _solve_precision_array,
    _solve_rows,
    cumulant_d2,
    fit_known_mean,
    profile_precision_at,
    unit_deviance_terms,
)
from .numerics import _require_positive
from .pivots import Pivot, PivotLaw

__all__ = [
    "ModifiedRoot",
    "CorrectedDeviance",
    "modified_root_value",
    "corrected_deviance_value",
    "fit_known_mean",
    "fraser_curve",
    "fraser_root_known_mu",
    "signed_root_curve",
    "signed_precision_root",
    "skovgaard_precision_curve",
    "skovgaard_precision",
    "skovgaard_beta",
    "signed_root_confidence",
    "ball_confidence",
    "fraser_pivot",
]

# Interpolation window on the signed-root scale (equivalently d_p < 0.0025).
ROOT_WINDOW = 0.05

# Deviances at the nodes of the coefficient-ray interpolation.
_RAY_TARGETS = tuple((k * ROOT_WINDOW) ** 2 for k in (1.0, 2.0, 3.0, 4.0))


@dataclass(frozen=True)
class ModifiedRoot:
    """Signed root, correction factor, corrected root (normal reference), flags;
    ``float()`` of it is the corrected root, as a Pivot's ``value`` reads it."""

    signed_root: float
    correction: float
    value: float
    interpolated: bool = False

    def __float__(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class CorrectedDeviance:
    """First-order deviance, correction factor, and corrected deviance.

    ``sign`` carries the direction sign(estimate - parameter) for scalar
    parameters (None for vector balls).  Flags record interpolation near the
    maximum likelihood point, unavailable corrections (nonpositive factor,
    first-order fallback), and clamping of a negative corrected value.
    ``float()`` of it is the pivot value: the signed root of the corrected
    deviance for a scalar parameter, the corrected deviance for a ball.
    """

    deviance: float
    correction: float
    value: float
    dims: int
    sign: float | None = None
    interpolated: bool = False
    correction_unavailable: bool = False
    clamped: bool = False

    @property
    def flagged(self) -> bool:
        return self.interpolated or self.correction_unavailable or self.clamped

    def __float__(self) -> float:
        if self.sign is None:
            return float(self.value)
        return self.sign * math.sqrt(max(self.value, 0.0))


def modified_root_value(signed_root: float, correction: float) -> float:
    """z = z_p + (1/z_p) * log(m / z_p); exactly z_p when m equals z_p."""
    if signed_root == 0.0:
        raise DomainError("modified root is indeterminate at a zero signed root")
    ratio = correction / signed_root
    if ratio <= 0.0:
        raise DomainError("correction and signed root must share a sign")
    if correction == signed_root:
        return signed_root
    return signed_root + math.log(ratio) / signed_root


def corrected_deviance_value(deviance: float, correction: float) -> tuple[float, bool]:
    """d = d_p + log(m)/(2 d_p), clamped at 0; returns (value, clamped)."""
    if deviance <= 0.0:
        raise DomainError("corrected deviance is indeterminate at zero deviance")
    if correction <= 0.0:
        raise DomainError("correction factor must be positive")
    if correction == 1.0:
        return deviance, False
    raw = deviance + math.log(correction) / (2.0 * deviance)
    if raw < 0.0:
        return 0.0, True
    return raw, False


# ---------------------------------------------------------------------------
# Precision roots of both gamma models (the known-mean sample is p = 0)
# ---------------------------------------------------------------------------


def _curve(pointwise, kernel, name: str):
    """A precision curve from its two forms: a float goes to ``pointwise``;
    an array, and the curve's ``values`` attribute, go to ``kernel`` on one
    row of the points, and the result takes the array's shape.

    Both paths check positivity as :func:`_require_positive` does (the first
    bad element of an array raises, under ``name``).  Arrays are evaluated
    with floating-point warnings off: at extreme precisions the kernel terms
    overflow to inf or NaN silently, as in the scalar float arithmetic of the
    pointwise form, and the checks that follow (a modified root's sign, the
    monotone check, a finite root) decide.
    """
    def values(varphi) -> np.ndarray:
        v = np.asarray(varphi, dtype=float)
        bad = ~(np.isfinite(v) & (v > 0))
        if bad.any():
            _require_positive(name, v[bad][0])
        with np.errstate(all="ignore"):
            return kernel(v.reshape(1, -1)).reshape(v.shape)

    def curve(varphi):
        if isinstance(varphi, np.ndarray):
            return values(varphi)
        return pointwise(_require_positive(name, varphi))

    curve.values = values
    return curve


def _lazy_window(varphi_hat: float, build):
    """A curve's window thunk: ``build()`` gives the (cubic, unavailable)
    window of the curve's one row, built at the first call (the first varphi
    inside the window) and cached.  Raises ConvergenceError, and caches
    nothing, if the nodes did not settle."""
    @functools.cache
    def window():
        cubic, unavailable = build()
        if np.isnan(cubic(varphi_hat)).any():
            raise ConvergenceError(f"window nodes did not settle at varphi_hat={varphi_hat!r}")
        return cubic, unavailable

    return window


def signed_root_curve(n: int, varphi_hat: float):
    """varphi -> :func:`signed_precision_root` for one (n, varphi_hat); the
    cumulant terms at varphi_hat are computed once, not per varphi.

    On an array, and through ``values``, the curve is one call of
    :func:`_signed_roots`, the array kernel coverage uses (see :func:`_curve`).
    """
    if n < 2:
        raise DomainError("need at least two observations")
    vh = _require_positive("varphi_hat", varphi_hat)
    deviance = _precision_deviance_curve(n, vh)
    return _curve(lambda v: math.copysign(math.sqrt(deviance(v)), vh - v),
                  lambda points: _signed_roots(n, vh, points), "varphi")


def signed_precision_root(n: int, varphi_hat: float, varphi: float) -> float:
    """First-order signed root of the precision profile deviance.

    Needs only the sample size and the precision estimate, so intervals can
    be reconstructed from a stored fit summary.  One point of a fresh
    :func:`signed_root_curve`; build the curve to evaluate many varphi.
    """
    return signed_root_curve(n, varphi_hat)(varphi)


def fraser_curve(fit: GammaFit):
    """varphi -> :func:`fraser_root_known_mu` for the known-mean ``fit``
    (p = 0, from :func:`fit_known_mean`).

    Computed once per fit: the signed-root curve, sqrt(n * cumulant_d2(varphi_hat))
    and, at the first varphi inside the window, its cubic: the
    :func:`_fraser_window` the kernel builds for a block's window rows, on
    one row (see :func:`_lazy_window`).  On an array, and through ``values``,
    the curve is one call of :func:`_fraser_roots`, the array kernel coverage
    uses, with this cached cubic; points inside the window take the same
    cubic, so their values are the same floats as the pointwise curve's.  A
    regression fit raises DomainError.
    """
    if fit.p:
        raise DomainError(f"the Fraser root needs a known-mean fit (p = 0), got p={fit.p}")
    n, vh = fit.n, fit.varphi_hat
    zp_fn = signed_root_curve(n, vh)
    info_root = math.sqrt(n * cumulant_d2(vh))
    window = _lazy_window(vh, lambda: (
        _fraser_window(n, np.array([[vh]]), np.array([[info_root]])), None))

    def root(v: float) -> ModifiedRoot:
        zp, m = zp_fn(v), info_root * (vh - v)
        inside = abs(zp) < ROOT_WINDOW
        value = float(window()[0](v)[0, 0]) if inside else modified_root_value(zp, m)
        return ModifiedRoot(signed_root=zp, correction=m, value=value, interpolated=inside)

    def kernel(points: np.ndarray) -> np.ndarray:
        zp = _signed_roots(n, vh, points)
        # where modified_root_value raises
        if np.any(~(np.abs(zp) < ROOT_WINDOW) & (info_root * (vh - points) / zp <= 0.0)):
            raise DomainError("correction and signed root must share a sign")
        return _fraser_roots(n, vh, points, zp, window)[0]

    return _curve(root, kernel, "precision")


def fraser_root_known_mu(sample: np.ndarray, varphi: float) -> ModifiedRoot:
    """Modified root for the precision of a known-mean gamma sample.

    With the mean fixed at 1 the correction factor takes the closed form
    m = sqrt(n * cumulant_d2(varphi_hat)) * (varphi_hat - varphi).  The tail
    confidence of the result is read from the standard normal law.  One
    point of a fresh :func:`fraser_curve`; build the curve for many varphi.
    """
    _require_positive("precision", varphi)
    return fraser_curve(fit_known_mean(sample))(varphi)


# The window: one Newton solver finds the precision nodes of every fit, curve
# or block row, and one stacked solve fits every window cubic.

_WINDOW_TARGETS = np.array([2.0 * ROOT_WINDOW, ROOT_WINDOW, -ROOT_WINDOW, -2.0 * ROOT_WINDOW])

# Newton node solves: the step tolerance of a find_root solve at tol 1e-12
# (brentq adds 8.9e-16 relative) and a step budget.
_NODE_TOL = 1e-12
_NODE_RTOL = 8.9e-16
_NODE_STEPS = 50


def _signed_roots(n: int, varphi_hat: np.ndarray, varphi, hat=None, at=None) -> np.ndarray:
    d = _profile_deviance_precision_array(n, varphi_hat, varphi, hat, at)
    return np.copysign(np.sqrt(d), varphi_hat - varphi)


def _modified_root_values(signed_root: np.ndarray, correction: np.ndarray) -> np.ndarray:
    """:func:`modified_root_value` on arrays; NaN where the scalar raises."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = correction / signed_root
        z = np.where(correction == signed_root, signed_root,
                     signed_root + np.log(ratio) / signed_root)
    return np.where(ratio > 0.0, z, np.nan)


def _newton_nodes(step_fn, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton iterations x <- x - step_fn(x) on every element of ``x`` at once.

    An element stops when its step falls to _NODE_TOL plus _NODE_RTOL
    relative or stops shrinking (the evaluation noise floor).  Returns the
    iterates and a mask of the elements still open after _NODE_STEPS steps;
    a NaN step closes its element at NaN.
    """
    last = np.full(x.shape, np.inf)
    open_ = np.ones(x.shape, dtype=bool)
    for _ in range(_NODE_STEPS):
        step = np.where(open_, step_fn(x), 0.0)
        noise_floor = np.abs(step) >= np.abs(last)
        x = np.where(open_ & ~noise_floor, x - step, x)
        open_ &= ~noise_floor & (np.abs(step) > _NODE_TOL + _NODE_RTOL * np.abs(x))
        last = step
        if not open_.any():
            break
    return x, open_


def _precision_window_nodes(n: int, varphi_hat: np.ndarray, info_root: np.ndarray):
    """Where the precision signed root (of both gamma models) is +-0.10, +-0.05.

    ``varphi_hat`` and ``info_root`` = sqrt(n * cumulant_d2(varphi_hat)) are
    columns; returns the nodes and the profile deviances there, one row per
    fit and one column per target.  Each node is a Newton solve from
    varphi_hat - target/info_root; a node that does not settle, lands on the
    wrong side of the estimate, or misses its target by more than 1e-6 is NaN.
    """
    t = _WINDOW_TARGETS
    hat = _cumulant_arrays(varphi_hat)

    def step(u):
        at = _cumulant_arrays(u)
        zp = _signed_roots(n, varphi_hat, u, hat, at)
        return (zp - t) * zp / (n * (at[1] - hat[1]))

    with np.errstate(divide="ignore", invalid="ignore"):
        u, open_ = _newton_nodes(step, varphi_hat - t / info_root)
        d = _profile_deviance_precision_array(n, varphi_hat, u, hat)
        settled = (~open_ & np.isfinite(u) & ((varphi_hat - u) * t > 0.0)
                   & (np.abs(np.copysign(np.sqrt(d), varphi_hat - u) - t) <= 1e-6))
    return np.where(settled, u, np.nan), np.where(settled, d, np.nan)


def _window_cubics(x_nodes: np.ndarray, y_nodes: np.ndarray):
    """The cubic through the four nodes of each row, as a function of x that
    broadcasts against one column per row: one stacked 4x4 solve in the
    abscissa centred on the nodes' mean and divided by their half range.  A
    row with a NaN node, or a singular system, gives NaN."""
    centre = x_nodes.mean(axis=1, keepdims=True)
    scale = 2.0 / np.ptp(x_nodes, axis=1, keepdims=True)
    s = (x_nodes - centre) * scale
    coef = _solve_rows(s[:, :, None] ** np.arange(4), y_nodes)

    def cubic(x) -> np.ndarray:
        s = (x - centre) * scale
        return ((coef[:, 3:] * s + coef[:, 2:3]) * s + coef[:, 1:2]) * s + coef[:, :1]

    return cubic


def _fraser_window(n: int, varphi_hat: np.ndarray, info_root: np.ndarray):
    """The window cubic of the known-mean modified root, one row per fit
    (columns ``varphi_hat`` and ``info_root``); NaN where a node does not settle."""
    nodes, d = _precision_window_nodes(n, varphi_hat, info_root)
    return _window_cubics(nodes, _modified_root_values(np.copysign(np.sqrt(d), varphi_hat - nodes),
                                                       info_root * (varphi_hat - nodes)))


def _fraser_roots(n: int, varphi_hat, varphi, signed_root, window=None):
    """The value and window flag of :func:`fraser_root_known_mu` for fits
    (rows) x precisions (points) by broadcasting: the column ``varphi_hat``
    (a float for one fit), ``varphi`` a float or a row of points all fits
    share, and ``signed_root`` the signed roots there.  The rows with a point
    inside the window take their :func:`_fraser_window` cubic, built here
    (``window`` None, from coverage), or the cubic of ``window()``, a curve's
    :func:`_lazy_window` thunk for its one row.  NaN where
    :func:`modified_root_value` raises or a cubic's nodes did not settle."""
    info_root = np.sqrt(n * _cumulant_d2_array(varphi_hat))
    value = _modified_root_values(signed_root, info_root * (varphi_hat - varphi))
    inside = np.abs(signed_root) < ROOT_WINDOW
    rows = inside.any(axis=1)
    if rows.any():
        cubic = window()[0] if window else _fraser_window(n, varphi_hat[rows], info_root[rows])
        value[inside] = cubic(varphi)[inside[rows]]
    return value, inside


# ---------------------------------------------------------------------------
# Skovgaard-type corrected deviances for gamma regression
# ---------------------------------------------------------------------------


def _precision_correction_factor(quad: float, fit: GammaFit, varphi: float) -> float | None:
    """m for the precision, an information ratio with a score-form adjustment
    from the fit's :func:`_precision_quads` row; None if m or its denominator is <= 0."""
    n, vh = fit.n, fit.varphi_hat
    denom = n * cumulant_d2(varphi) - quad / varphi
    if denom <= 0.0:
        return None
    m = n * cumulant_d2(vh) / denom
    return m if m > 0.0 else None


def skovgaard_precision_curve(data: Dataset, fit: GammaFit):
    """varphi -> :func:`skovgaard_precision` for one fit.

    Computed once per fit: the cumulant terms at varphi_hat, the score
    quadratic form and, at the first varphi inside the window, its window:
    the :func:`_precision_window` the kernel builds for a block's window
    rows, on one row (see :func:`_lazy_window`).  On an array, and through
    ``values``, the curve gives the signed roots of the corrected deviances
    (``float()`` of the pointwise results) in one call of
    :func:`_skovgaard_roots`, the array kernel coverage uses, with this
    cached window; points inside the window take the same cubic as the
    pointwise curve.  A fit of another (n, p) than ``data`` raises DomainError.
    """
    if (fit.n, fit.p) != (data.n, data.p):
        raise DomainError(f"fit (n, p) = {fit.n, fit.p} differs from the data's {data.n, data.p}")
    n, vh = fit.n, fit.varphi_hat
    deviance = _precision_deviance_curve(n, vh)
    quad = float(_precision_quads(data.X, data.y[None], fit.mu_hat[None])[0])
    col = np.array([[vh]])
    window = _lazy_window(vh, lambda: _precision_window(n, col, _cumulant_d2_array(col),
                                                        np.array([[quad]])))

    def corrected(v: float) -> CorrectedDeviance:
        dp = deviance(v)
        sign = math.copysign(1.0, vh - v) if v != vh else 0.0
        m = _precision_correction_factor(quad, fit, v)
        if m is not None and dp >= ROOT_WINDOW**2:
            value, clamped = corrected_deviance_value(dp, m)
            return CorrectedDeviance(deviance=dp, correction=m, value=value, dims=1,
                                     sign=sign, clamped=clamped)
        # without a factor, or inside the window (then through its cubic)
        cubic, unavailable = (None, True) if m is None else window()
        if unavailable:  # here, or at a node (a one-element array)
            return CorrectedDeviance(deviance=dp, correction=math.nan, value=dp, dims=1,
                                     sign=sign, correction_unavailable=True)
        value = float(cubic(v)[0, 0])
        return CorrectedDeviance(deviance=dp, correction=m, value=max(value, 0.0), dims=1,
                                 sign=sign, interpolated=True, clamped=value < 0.0)

    return _curve(corrected, lambda points: _skovgaard_roots(n, vh, quad, points, window)[0],
                  "precision")


def skovgaard_precision(data: Dataset, fit: GammaFit, varphi: float) -> CorrectedDeviance:
    """Corrected deviance for the gamma precision, chi-square(1) reference.

    One point of a fresh :func:`skovgaard_precision_curve`; build the curve
    to evaluate many varphi.
    """
    return skovgaard_precision_curve(data, fit)(varphi)


def skovgaard_beta(data: Dataset, fit: GammaFit, beta: np.ndarray) -> CorrectedDeviance:
    """Corrected deviance for the coefficient vector, chi-square(p) reference.

    Ball confidence statements use the chi-square(p) lower tail at the
    corrected value.  Near the estimate the correction is interpolated along
    the evaluation ray from the estimate through ``beta``.  One row of
    :func:`_skovgaard_beta_values`; raises ConvergenceError if the ray nodes
    do not settle.
    """
    beta = np.asarray(beta, dtype=float)
    prec = profile_precision_at(data, beta)
    vh = fit.varphi_hat
    dp = float(_profile_deviance_beta_array(fit.n, vh, _cumulant_arrays(vh), prec))
    value, correction, interpolated, unavailable, clamped = _skovgaard_beta_values(
        data.X, data.y[None], fit.beta_hat[None], np.array([vh]), beta,
        np.exp(data.X @ beta)[None], np.array([prec]), np.array([dp]))
    if np.isnan(value[0]):
        raise ConvergenceError(f"ray nodes did not settle at beta={beta!r}")
    return CorrectedDeviance(deviance=dp, correction=float(correction[0]),
                             value=float(value[0]), dims=fit.p,
                             interpolated=bool(interpolated[0]),
                             correction_unavailable=bool(unavailable[0]),
                             clamped=bool(clamped[0]))


# Array forms of the Skovgaard corrections, one row per replication of a
# fixed design.  Products, solves and determinants are stacked per row, so a
# row rounds alike in a block of any size.  Precision window rows build their
# nodes and cubic as the scalar curve does, so they agree with it to the
# rounding of their inputs (observed equal on every window row compared).
# skovgaard_beta is one row of _skovgaard_beta_values.  Its ray nodes are
# Newton iterates placed at the evaluation noise of the deviance; the
# corrected deviance's slope there, log(m) d_p' / (2 d_p^2), magnifies that
# noise, so a bracketing root search for the same nodes gives window values
# that differ by up to about 2e-9 relative.

# A ray node is accepted when its profile deviance is this close to its target.
_RAY_NODE_ACCEPT = 1e-9


def _residual_gram(X: np.ndarray, Y: np.ndarray, mu: np.ndarray):
    """X'(y/mu - 1) as columns and X' diag(y/mu) X, for every row."""
    ratio = Y / mu
    return np.matmul(X.T, (ratio - 1.0)[:, :, None]), np.matmul(X.T, X * ratio[:, :, None])


def _precision_quads(X: np.ndarray, Y: np.ndarray, mu_hat: np.ndarray) -> np.ndarray:
    """The score quadratic form of the precision correction factor for every
    row: r'M^-1 r with r = X'(y/mu - 1) and M = X' diag(y/mu) X.  At the exact
    estimate the score vanishes, so the form is analytically zero there, but
    it is evaluated literally."""
    xr, m_mat = _residual_gram(X, Y, mu_hat)
    return np.matmul(np.swapaxes(xr, 1, 2), np.linalg.solve(m_mat, xr))[:, 0, 0]


def _precision_correction_factors(n: int, c2_hat: np.ndarray, quad: np.ndarray,
                                  varphi) -> np.ndarray:
    """:func:`_precision_correction_factor` from each row's cumulant_d2 at its
    estimate and quadratic form, at one or many precisions; NaN for None."""
    denom = n * _cumulant_d2_array(varphi) - quad / varphi
    with np.errstate(divide="ignore", invalid="ignore"):
        m = n * c2_hat / denom
    return np.where((denom > 0.0) & (m > 0.0), m, np.nan)


def _beta_correction_factors(X: np.ndarray, Y: np.ndarray, mu: np.ndarray,
                             varphi_hat: np.ndarray, profile_prec: np.ndarray) -> np.ndarray:
    """The determinant-ratio m of the coefficient vector for every row at one
    coefficient vector (mean ``mu``); NaN where a determinant is not positive."""
    n = X.shape[0]
    xr, weighted = _residual_gram(X, Y, mu)
    prec = profile_prec[:, None, None]
    denom_mat = prec * weighted - xr * np.swapaxes(xr, 1, 2) / (n * _cumulant_d2_array(prec))
    sign_num, logdet_num = np.linalg.slogdet(varphi_hat[:, None, None] * (X.T @ X))
    sign_den, logdet_den = np.linalg.slogdet(denom_mat)
    return np.where((sign_num > 0.0) & (sign_den > 0.0), np.exp(logdet_num - logdet_den), np.nan)


def _corrected_deviance_values(deviance: np.ndarray, correction: np.ndarray):
    """:func:`corrected_deviance_value` for deviances outside the window.

    A NaN correction (unavailable) keeps the first-order deviance.  Returns
    (value, unavailable, clamped).
    """
    unavailable = np.isnan(correction)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.where(unavailable | (correction == 1.0), deviance,
                       deviance + np.log(correction) / (2.0 * deviance))
    clamped = raw < 0.0
    return np.where(clamped, 0.0, raw), unavailable, clamped


def _precision_window(n: int, varphi_hat: np.ndarray, c2_hat: np.ndarray, quad: np.ndarray):
    """The window of :func:`skovgaard_precision`, one row per fit (columns
    ``varphi_hat``, its cumulant_d2 and ``quad``): the cubic through the
    corrected deviances at the nodes, and whether the factor is unavailable at
    a node (the first-order deviance is kept then).  Unsettled nodes give a NaN cubic."""
    nodes, dp = _precision_window_nodes(n, varphi_hat, np.sqrt(n * c2_hat))
    d_nodes, unavailable, _ = _corrected_deviance_values(
        dp, _precision_correction_factors(n, c2_hat, quad, nodes))
    return _window_cubics(nodes, d_nodes), unavailable.any(axis=1) & ~np.isnan(nodes).any(axis=1)


def _skovgaard_roots(n: int, varphi_hat, quad, varphi, window=None):
    """The signed root of :func:`skovgaard_precision`'s corrected deviance
    (``float()`` of it) and its flag, for fits (rows) x precisions (points)
    by broadcasting: columns ``varphi_hat`` and the :func:`_precision_quads`
    ``quad`` (floats for one fit), and ``varphi`` a float or a row of points
    all fits share.  The rows with an available factor at a point inside the
    window take their :func:`_precision_window`, built here (``window`` None,
    from coverage), or ``window()``, a curve's :func:`_lazy_window` thunk for
    its one row.  NaN where a cubic's nodes did not settle."""
    c2_hat = _cumulant_d2_array(varphi_hat)
    dp = _profile_deviance_precision_array(n, varphi_hat, varphi)
    value, unavailable, clamped = _corrected_deviance_values(
        dp, _precision_correction_factors(n, c2_hat, quad, varphi))
    near = dp < ROOT_WINDOW**2
    inside = near & ~unavailable
    rows = inside.any(axis=1)
    if rows.any():
        cubic, node_unavailable = window() if window else _precision_window(
            n, varphi_hat[rows], c2_hat[rows], quad[rows])
        interpolated = np.where(node_unavailable[:, None], dp[rows], np.maximum(cubic(varphi), 0.0))
        value[inside] = interpolated[inside[rows]]
    return np.sign(varphi_hat - varphi) * np.sqrt(value), unavailable | clamped | near


def _along_rays(X: np.ndarray, Y: np.ndarray, beta_hat: np.ndarray, direction: np.ndarray,
                varphi_hat: np.ndarray, hat: tuple, t: np.ndarray):
    """Means, profile precisions and profile deviances at beta_hat + t * direction.

    One row per data row and one column per node ``t``; ``hat`` is the
    :func:`_cumulant_arrays` of the column ``varphi_hat``.  The precision (and
    so the deviance) is NaN where :func:`profile_precision_at` would raise.
    """
    b = beta_hat[:, None, :] + t[:, :, None] * direction[:, None, :]
    mu = np.exp(np.matmul(X, b[..., None])[..., 0])
    mean_b = unit_deviance_terms(Y[:, None, :], mu).mean(axis=2)
    prec = np.full(t.shape, np.nan)
    ok = np.isfinite(mean_b) & (mean_b >= _DEGENERATE_MEAN_B)
    prec[ok] = _solve_precision_array(mean_b[ok])
    return mu, prec, _profile_deviance_beta_array(X.shape[0], varphi_hat, hat, prec)


def _ray_nodes(X: np.ndarray, Y: np.ndarray, beta_hat: np.ndarray, direction: np.ndarray,
               varphi_hat: np.ndarray, deviance: np.ndarray):
    """The ray nodes of :func:`skovgaard_beta` for many rows at once.

    Node k of a row is where the profile deviance along its ray reaches
    _RAY_TARGETS[k].  Newton in t starts from sqrt(target / deviance), exact
    for a quadratic deviance, with the closed-form slope
    2 * v(t) * sum((1 - y/mu_t) * x'direction), v(t) being the profile
    precision along the ray (see :func:`_newton_nodes`).  Returns (t, mu,
    profile precision, profile deviance) at the nodes; a node that does not
    settle, or whose deviance misses its target by more than
    _RAY_NODE_ACCEPT, is NaN in t.
    """
    target = np.array(_RAY_TARGETS)
    xd = np.matmul(X, direction[:, :, None])[:, None, :, 0]
    vh, hat = varphi_hat[:, None], _cumulant_arrays(varphi_hat[:, None])

    def step(t):
        mu, prec, dp = _along_rays(X, Y, beta_hat, direction, vh, hat, t)
        slope = 2.0 * prec * ((1.0 - Y[:, None, :] / mu) * xd).sum(axis=2)
        return (dp - target) / slope

    with np.errstate(all="ignore"):
        t, open_ = _newton_nodes(step, np.sqrt(target / deviance[:, None]))
        mu, prec, dp = _along_rays(X, Y, beta_hat, direction, vh, hat, t)
    settled = ~open_ & (t > 0.0) & (np.abs(dp - target) <= _RAY_NODE_ACCEPT)
    return np.where(settled, t, np.nan), mu, prec, dp


def _skovgaard_beta_values(X: np.ndarray, Y: np.ndarray, beta_hat: np.ndarray,
                           varphi_hat: np.ndarray, beta: np.ndarray, mu: np.ndarray,
                           profile_prec: np.ndarray, deviance: np.ndarray):
    """The fields of :func:`skovgaard_beta` for every row: value, correction,
    and the flags interpolated, correction_unavailable and clamped.

    ``mu``, ``profile_prec`` and ``deviance`` are the rows' mean, profile
    precision and profile deviance at ``beta``.  A window row at its
    estimate (deviance 0) has value 0 and correction 1; the others find their
    ray nodes together (:func:`_ray_nodes`) and take the correction at the
    first node.  As in :func:`_precision_window`, a window row without the
    factor at a node keeps the first-order deviance and is flagged
    correction_unavailable only; a row whose nodes do not settle holds NaN.
    """
    correction = _beta_correction_factors(X, Y, mu, varphi_hat, profile_prec)
    value, unavailable, clamped = _corrected_deviance_values(deviance, correction)
    interpolated = deviance < ROOT_WINDOW**2
    unavailable &= ~interpolated
    clamped &= ~interpolated
    at_hat = deviance == 0.0
    value[at_hat], correction[at_hat] = 0.0, 1.0
    rows = np.flatnonzero(interpolated & ~at_hat)
    if rows.size:
        t, mu_t, prec_t, dp_t = _ray_nodes(X, Y[rows], beta_hat[rows], beta - beta_hat[rows],
                                           varphi_hat[rows], deviance[rows])
        k = t.shape[1]
        with np.errstate(invalid="ignore"):  # unsettled nodes hold NaN
            m_t = _beta_correction_factors(
                X, np.repeat(Y[rows], k, axis=0), mu_t.reshape(-1, X.shape[0]),
                np.repeat(varphi_hat[rows], k), prec_t.ravel()).reshape(t.shape)
        d_nodes, node_unavailable, _ = _corrected_deviance_values(dp_t, m_t)
        node_unavailable = node_unavailable.any(axis=1) & ~np.isnan(t).any(axis=1)
        cubic = _window_cubics(t, d_nodes)(1.0)[:, 0]
        value[rows] = np.where(node_unavailable, deviance[rows], np.maximum(cubic, 0.0))
        correction[rows] = np.where(node_unavailable, np.nan, m_t[:, 0])
        interpolated[rows] = ~node_unavailable
        unavailable[rows] = node_unavailable
        clamped[rows] = ~node_unavailable & (cubic < 0.0)
    return value, correction, interpolated, unavailable, clamped


# ---------------------------------------------------------------------------
# Tail confidences and pivots of corrected roots
# ---------------------------------------------------------------------------


def signed_root_confidence(corrected: CorrectedDeviance) -> float:
    """One-sided confidence Phi(sign * sqrt(value)) for a scalar parameter."""
    if corrected.sign is None:
        raise DomainError("signed confidence needs a scalar-parameter deviance")
    return PivotLaw.normal().cdf(float(corrected))


def ball_confidence(corrected: CorrectedDeviance) -> float:
    """Confidence of the ball {parameter: corrected deviance <= observed}."""
    return PivotLaw.chisq(corrected.dims).cdf(corrected.value)


def _precision_pivot(fit: GammaFit, curve=None) -> Pivot:
    """A precision curve of ``fit`` (by default its first-order signed root)
    as a decreasing pivot on (0, inf) with the standard normal law, brackets
    starting from varphi_hat +/- 0.75 varphi_hat.  The curve itself is the
    value: :func:`_curve` sends an array to its kernel and a float to the
    pointwise form (a float or a flagged result), which costs a fraction of
    a kernel call."""
    vh = fit.varphi_hat
    return Pivot(law=PivotLaw.normal(), value_fn=curve or signed_root_curve(fit.n, vh),
                 monotonic="decreasing", param_support=(0.0, math.inf), hint=(vh, 0.75 * vh),
                 label="corrected root")


def fraser_pivot(sample: np.ndarray) -> Pivot:
    """The modified root as a pivot: one :func:`fraser_curve` of one fit."""
    fit = fit_known_mean(sample)
    return _precision_pivot(fit, fraser_curve(fit))
