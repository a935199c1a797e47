"""Pivots, their reference laws, and confidence densities on the parameter scale.

A pivot is a function of data and parameter whose sampling law is fully known
and parameter free.  Once data are observed, the realized pivot is a fixed
but unknown number; evaluating the reference law's density at it gives a
likelihood-type weight over pivot values, and transporting that weight to a
scalar parameter scale through the change-of-variables rule yields a
confidence density.  Integrals of that density over one-sided sets are
confidence statements for the observed interval; they coincide numerically
with the coverage of the generating procedure, but they are reported here
as *confidence*, never as probability: after the data are in, nothing about
the parameter is random.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy import special as _sf

from .errors import (
    ContractViolationError,
    DomainError,
    NoEndpointError,
    UnsupportedOperationError,
)
from .numerics import RealGrid, find_root, integrate, log_gamma

__all__ = [
    "PivotLaw",
    "Pivot",
    "ConfidenceDensity",
    "ConfidenceStatement",
    "extended_likelihood",
    "confidence_of",
    "parameter_density",
    "interval_endpoint",
    "pvalue_pivot",
    "location_pivot",
    "reparameterized",
]

_REAL_LINE = (-math.inf, math.inf)
_POSITIVE_HALF_LINE = (0.0, math.inf)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Reference laws
# ---------------------------------------------------------------------------


# Each density takes a float or an array of finite points of its support.
# Per-law constants are Python floats, and each expression keeps its
# evaluation order.  As in scalar float arithmetic, an overflow to inf gives
# density 0 silently.


def _normal_pdf(x):
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * x * x - _LOG_SQRT_2PI)


def _chisq_pdf(x, df: float):
    half = df / 2.0
    with np.errstate(all="ignore"):
        return np.exp((half - 1.0) * np.log(x) - x / 2.0 - half * math.log(2.0) - log_gamma(half))


def _t_pdf(x, df: float):
    lognum = log_gamma((df + 1.0) / 2.0) - log_gamma(df / 2.0)
    logden = 0.5 * math.log(df * math.pi)
    with np.errstate(over="ignore"):
        return np.exp(lognum - logden - 0.5 * (df + 1.0) * np.log1p(x * x / df))


def _f_pdf(x, df1: float, df2: float):
    h1, h2 = df1 / 2.0, df2 / 2.0
    logb = log_gamma(h1) + log_gamma(h2) - log_gamma(h1 + h2)
    with np.errstate(all="ignore"):
        return np.exp(h1 * math.log(df1) + h2 * math.log(df2) + (h1 - 1.0) * np.log(x)
                      - (h1 + h2) * np.log(df2 + df1 * x) - logb)


class _Family(NamedTuple):
    dfs: int  # how many degrees of freedom the law takes
    half_line: bool  # lives on (0, inf): PivotLaw sets cdf and pdf to 0 at x <= 0
    cdf: Callable  # CDF at x (a float or an array), then the degrees of freedom
    pdf: Callable  # density at x, likewise
    inverse: Callable  # inverse CDF at levels a, likewise


# P(k, x) is chisq(2k).cdf(2x): the regularized lower incomplete gamma function.
_LAWS = {
    "normal": _Family(0, False, _sf.ndtr, _normal_pdf, _sf.ndtri),
    "chisq": _Family(1, True, lambda x, df: _sf.gammainc(df / 2.0, x / 2.0), _chisq_pdf,
                     lambda a, df: 2.0 * _sf.gammaincinv(df / 2.0, a)),
    "student_t": _Family(1, False, lambda x, df: _sf.stdtr(df, x), _t_pdf,
                         lambda a, df: _sf.stdtrit(df, a)),
    "f": _Family(2, True, lambda x, df1, df2: _sf.fdtr(df1, df2, x), _f_pdf,
                 lambda a, df1, df2: _sf.fdtri(df1, df2, a)),
}


@dataclass(frozen=True)
class PivotLaw:
    """A fully known reference law for a pivot: a ``_LAWS`` family and its df."""

    family: str
    df: tuple[float, ...] = ()

    def __post_init__(self):
        law = _LAWS.get(self.family)
        if law is None:
            raise DomainError(f"unknown pivot law family {self.family!r}")
        if len(self.df) != law.dfs:
            raise DomainError(
                f"{self.family} law takes {law.dfs} degree-of-freedom value(s), got {self.df!r}"
            )
        for d in self.df:
            if not (math.isfinite(d) and d > 0):
                raise DomainError(f"degrees of freedom must be positive, got {d!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def normal(cls) -> "PivotLaw":
        return cls("normal")

    @classmethod
    def chisq(cls, df: float) -> "PivotLaw":
        return cls("chisq", (float(df),))

    @classmethod
    def student_t(cls, df: float) -> "PivotLaw":
        return cls("student_t", (float(df),))

    @classmethod
    def f(cls, df1: float, df2: float) -> "PivotLaw":
        return cls("f", (float(df1), float(df2)))

    # -- curves --------------------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        return _POSITIVE_HALF_LINE if _LAWS[self.family].half_line else _REAL_LINE

    def in_support(self, v: float) -> bool:
        lo, hi = self.support
        return lo <= v <= hi if lo > -math.inf else v <= hi

    def cdf(self, v):
        """Distribution function at a point (a float back) or at each element
        of an array (an array back): 0 at -inf and 1 at inf, and 0 at or
        below 0 on the half line.  A NaN point raises DomainError; a NaN
        element stays NaN.

        A point stays off numpy's array dispatch: the scalar confidence
        functions call it one point at a time.
        """
        law = _LAWS[self.family]
        if isinstance(v, np.ndarray) and v.ndim > 0:
            c = law.cdf(v, *self.df)
            return np.where(v <= 0.0, 0.0, c) if law.half_line else c
        v = float(v)
        if not math.isfinite(v):
            if math.isnan(v):
                raise DomainError(f"x must be finite, got {v!r}")
            return 0.0 if v < 0 else 1.0
        if law.half_line and v <= 0.0:
            return 0.0
        return float(law.cdf(v, *self.df))

    def pdf(self, v):
        """Density at a point (a float back) or at each element of an array
        (an array back); 0 at non-finite values and off the support."""
        law = _LAWS[self.family]
        v = np.asarray(v, dtype=float)
        keep = np.isfinite(v) & (v > 0.0) if law.half_line else np.isfinite(v)
        f = np.where(keep, law.pdf(np.where(keep, v, 1.0), *self.df), 0.0)
        return f if f.ndim else float(f)

    def quantile(self, p: float) -> float:
        """Inverse CDF at level p in (0, 1), from the family's inverse ufunc
        (``ndtri``, ``gammaincinv``, ``stdtrit``, ``fdtri``) with no search.
        Its CDF is p to a few ulps of rounding, except where scipy's inverse
        is weaker: ``stdtrit`` at 2 < df < 3 and ``fdtri`` at large df lose
        up to about 3e-13 and 5e-14 relative in the quantile."""
        p = float(p)
        if not 0.0 < p < 1.0:
            raise DomainError(f"quantile level must lie in (0, 1), got {p!r}")
        return float(_LAWS[self.family].inverse(p, *self.df))


@functools.lru_cache(maxsize=256)
def level_cuts(law: PivotLaw, levels: tuple[float, ...]) -> np.ndarray:
    """Every level's lower cut, then every level's upper cut (read-only, cached):
    ``law.cdf(v) <= a`` for v <= lo and not for v > hi, so only a v in the band
    (lo, hi] needs the CDF.  The band is the inverse CDF's q +/- 1e-8 max(|q|, 1),
    kept if the CDF puts its ends on either side of a (near q the CDF need not
    be monotone), else (-inf, inf).  The inverse moves the band, never a decision."""
    a = np.array(levels, dtype=float)
    q = _LAWS[law.family].inverse(a, *law.df)
    w = 1e-8 * np.maximum(np.abs(q), 1.0)
    lo, hi = q - w, q + w
    ok = (law.cdf(lo) <= a) & (a < law.cdf(hi))
    cuts = np.concatenate([np.where(ok, lo, -np.inf), np.where(ok, hi, np.inf)])
    cuts.flags.writeable = False
    return cuts


# ---------------------------------------------------------------------------
# Pivots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pivot:
    """A realized pivot: parameter point -> pivot value, with its law.

    Observed data are bound at construction time, so ``value_fn`` maps a
    parameter point (scalar, or a vector for ball-type pivots) to the
    realized pivot value.  For scalar parameters, ``jacobian_fn`` gives
    |dv/dtheta| and ``monotonic`` declares the direction of v in theta,
    which is verified numerically (never silently assumed) whenever a
    density is built on a grid.  A scalar pivot's ``value_fn`` and
    ``jacobian_fn`` also map an array of parameter points to one value per
    point (a constant broadcasts): monotone checks and densities evaluate a
    whole grid in one call.
    """

    law: PivotLaw
    value_fn: Callable[..., float]
    jacobian_fn: Callable[..., float] | None = None
    monotonic: str = "decreasing"  # "decreasing" | "increasing" | "none"
    param_support: tuple[float, float] = _REAL_LINE
    hint: tuple[float, float] = (0.0, 1.0)  # (center, scale) for bracketing
    label: str = "pivot"

    def __post_init__(self):
        if self.monotonic not in ("decreasing", "increasing", "none"):
            raise DomainError(f"monotonic must be decreasing/increasing/none, got {self.monotonic!r}")
        if self.jacobian_fn is not None and self.monotonic == "none":
            raise DomainError("a jacobian requires a declared monotone direction")

    def value(self, theta) -> float:
        return float(self.value_fn(theta))

    def jacobian(self, theta) -> float:
        if self.jacobian_fn is None:
            raise UnsupportedOperationError(
                f"{self.label}: no parameter-scale jacobian is defined"
            )
        j = float(self.jacobian_fn(theta))
        if not (math.isfinite(j) and j > 0):
            raise DomainError(f"{self.label}: jacobian must be positive, got {j!r}")
        return j


@dataclass(frozen=True)
class ConfidenceStatement:
    """A one-sided or pivot-ball confidence assertion for observed data.

    ``level`` is a confidence, not a probability: it equals the reference
    law's CDF at the defining bound and matches the coverage of the
    generating procedure.
    """

    kind: str  # "one_sided_lower" | "one_sided_upper" | "pivot_ball"
    level: float
    endpoint: float | None = None  # parameter-scale endpoint for one-sided sets
    pivot_bound: float | None = None  # bound b of the set {v <= b}

    def __post_init__(self):
        if self.kind not in ("one_sided_lower", "one_sided_upper", "pivot_ball"):
            raise DomainError(f"unknown statement kind {self.kind!r}")
        if not 0.0 < self.level < 1.0:
            raise DomainError(f"level must lie in (0, 1), got {self.level!r}")


@dataclass(frozen=True)
class ConfidenceDensity:
    """An integrable density over one parameter scale, evaluated on arrays.

    ``density_fn`` maps an array of points inside ``support`` to their
    densities in one call.  Calling the density evaluates a point (a float
    back) or a whole grid of points (an array back): 0 outside the support,
    and negative values clipped to 0.
    """

    density_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    support: tuple[float, float] = _REAL_LINE
    label: str = "confidence density"

    def __call__(self, theta):
        t = np.asarray(theta, dtype=float)
        lo, hi = self.support
        inside = (t >= lo) & (t <= hi)
        out = np.zeros(t.shape)
        if inside.any():
            out[inside] = np.maximum(self.density_fn(t[inside]), 0.0)
        return out if out.ndim else float(out)

    def mass(self, lo: float, hi: float, tol: float = 1e-9) -> float:
        """Integrated confidence over [lo, hi] intersected with the support."""
        a = max(lo, self.support[0])
        b = min(hi, self.support[1])
        if a >= b:
            return 0.0
        return integrate(self, (a, b), tol=tol)

    def total_mass(self, tol: float = 1e-9) -> float:
        return self.mass(self.support[0], self.support[1], tol=tol)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def extended_likelihood(pivot: Pivot, theta) -> float:
    """Reference-law density at the realized pivot value.

    Returns 0.0 (not an error) when the realized value falls on or outside
    the law's support boundary (the law's density is 0 there);
    ``pivot.law.in_support`` makes the boundary condition checkable by
    callers, since simulation draws legitimately land in the tails.
    """
    return pivot.law.pdf(pivot.value(theta))


def confidence_of(pivot: Pivot, bound: float, side: str = "<=") -> float:
    """Confidence attached to the pivot set {v <= bound} (or {v >= bound})."""
    if side not in ("<=", ">="):
        raise DomainError(f"side must be '<=' or '>=', got {side!r}")
    c = pivot.law.cdf(bound)
    return c if side == "<=" else 1.0 - c


def _on_points(fn, points: np.ndarray) -> np.ndarray:
    """One call of a scalar pivot's ``fn`` on an array of points: a float per point.

    Floating-point warnings are off, as in the scalar float arithmetic of a
    pointwise call: an overflow gives inf silently, which a law density
    maps to 0 and the jacobian check rejects.
    """
    with np.errstate(all="ignore"):
        return np.broadcast_to(np.asarray(fn(points), dtype=float), points.shape)


def _check_monotone(pivot: Pivot, grid: RealGrid) -> None:
    """Verify the declared direction on the grid points inside the open support.

    Points on or outside the support carry no density and may lie where the
    pivot is undefined (a variance of 0), so they are not evaluated.  The
    others take one call of ``value_fn``; a NaN value has no direction and
    fails the check.
    """
    lo, hi = pivot.param_support
    points = grid.points[(grid.points > lo) & (grid.points < hi)]
    values = _on_points(pivot.value_fn, points)
    with np.errstate(invalid="ignore"):  # inf - inf
        diffs = np.diff(values)
    bad = diffs <= 0 if pivot.monotonic == "increasing" else diffs >= 0
    bad |= np.isnan(values[1:]) | np.isnan(values[:-1])
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ContractViolationError(
            f"{pivot.label} is not monotone over the grid near "
            f"[{points[i]:.6g}, {points[i + 1]:.6g}]: declared {pivot.monotonic}, "
            f"its value moved from {values[i]:.6g} to {values[i + 1]:.6g}"
        )


def parameter_density(pivot: Pivot, grid: RealGrid) -> ConfidenceDensity:
    """Confidence density on the parameter scale of a scalar monotone pivot,
    whose direction is verified on ``grid`` first.  An array of points inside
    the open support takes one call of each function; the boundary carries 0.

    With a jacobian it is the transformation rule law.pdf(v) * |dv/dtheta| on
    the pivot's support (the jacobian is evaluated, and must be positive and
    finite, where the law's density is not 0).  Without one it is the
    derivative of the confidence distribution law.cdf(v), on the grid's
    range: the central difference with step h = span/2048 (forward within h
    of the support's lower end) of finite values, which limits normalization
    accuracy to about 1e-4 over a grid spanning the bulk of the mass.
    """
    if pivot.monotonic == "none":
        raise UnsupportedOperationError(
            f"{pivot.label}: parameter-scale density needs a monotone pivot; "
            "only pivot-ball confidence statements are available"
        )
    _check_monotone(pivot, grid)
    lo, hi = pivot.param_support
    h = grid.span / 2048.0

    def transformed(t: np.ndarray) -> np.ndarray:
        f = pivot.law.pdf(_on_points(pivot.value_fn, t))
        nonzero = f != 0.0
        jac = _on_points(pivot.jacobian_fn, t[nonzero])
        bad = ~(np.isfinite(jac) & (jac > 0))
        if bad.any():
            raise DomainError(f"{pivot.label}: jacobian must be positive, "
                              f"got {float(jac[bad][0])!r}")
        f[nonzero] *= jac
        return f

    def differenced(t: np.ndarray) -> np.ndarray:
        forward = t - h <= lo
        values = np.column_stack([_on_points(pivot.value_fn, t + h),
                                  _on_points(pivot.value_fn, np.where(forward, t, t - h))])
        bad = ~np.isfinite(values)
        if bad.any():  # a value that is not finite: report the first in evaluation order
            raise DomainError(f"x must be finite, got {float(values[bad][0])!r}")
        cdf = pivot.law.cdf(values)
        step = np.abs(cdf[:, 0] - cdf[:, 1])
        return np.where(forward, step / h, step / (2.0 * h))

    inner = differenced if pivot.jacobian_fn is None else transformed

    def density(theta: np.ndarray) -> np.ndarray:
        out = np.zeros(theta.shape)
        inside = (lo < theta) & (theta < hi)
        out[inside] = inner(theta[inside])
        return out

    support = (float(grid.points[0]), float(grid.points[-1])) if inner is differenced \
        else pivot.param_support
    return ConfidenceDensity(density, support=support, label=f"{pivot.label} confidence density")


def _support_transform(support: tuple[float, float]):
    """Map the parameter support onto the real line for bracket searches."""
    lo, hi = support
    if lo == -math.inf and hi == math.inf:
        return (lambda u: u), (lambda t: t)
    if lo == 0.0 and hi == math.inf:
        return (lambda u: math.exp(u)), (lambda t: math.log(t))
    raise UnsupportedOperationError(f"unsupported parameter support {support!r}")


def invert_pivot(pivot: Pivot, target: float, tol: float = 1e-10) -> float:
    """Solve v(theta) = target for theta inside the pivot's support.

    Brackets by geometric expansion on a transformed axis (identity for the
    real line, log for the positive half line), doubling the half width up
    to 60 times from the pivot's hint; raises :class:`NoEndpointError` when
    the schedule never straddles the target.
    """
    to_theta, to_u = _support_transform(pivot.param_support)
    center, scale = pivot.hint
    u0 = to_u(center if pivot.param_support[0] != 0.0 else max(center, 1e-300))
    half = max(abs(scale), 1e-8)
    if pivot.param_support[0] == 0.0:
        half = max(half / max(center, 1e-300), 0.25)

    def g(u: float) -> float:
        return pivot.value(to_theta(u)) - target

    try:
        u = find_root(g, (u0 - half, u0 + half), tol=tol)
    except ArithmeticError as exc:
        raise NoEndpointError(
            f"{pivot.label}: could not bracket pivot value {target:.6g} "
            f"starting from {center:.6g} +/- {scale:.6g}"
        ) from exc
    return to_theta(u)


def interval_endpoint(pivot: Pivot, level: float, side: str, tol: float = 1e-10) -> float:
    """Parameter endpoint of a one-sided statement carrying ``level`` confidence.

    ``side="lower"`` returns t with C(theta >= t; y) = level, ``side="upper"``
    returns t with C(theta <= t; y) = level.  The direction is resolved from
    the pivot's declared monotonicity, so lower(level) and upper(1 - level)
    agree.
    """
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must lie in (0, 1), got {level!r}")
    if side not in ("lower", "upper"):
        raise DomainError(f"side must be 'lower' or 'upper', got {side!r}")
    if pivot.monotonic == "none":
        raise UnsupportedOperationError(
            f"{pivot.label}: endpoints need a scalar monotone pivot"
        )
    wants_cdf_at_level = (side == "lower") == (pivot.monotonic == "decreasing")
    q = pivot.law.quantile(level if wants_cdf_at_level else 1.0 - level)
    return invert_pivot(pivot, q, tol=tol)


def one_sided_statement(pivot: Pivot, level: float, side: str) -> ConfidenceStatement:
    """Bundle an endpoint with its confidence level and the defining bound."""
    endpoint = interval_endpoint(pivot, level, side)
    kind = "one_sided_lower" if side == "lower" else "one_sided_upper"
    return ConfidenceStatement(kind, level, endpoint=endpoint,
                               pivot_bound=pivot.value(endpoint))


def pvalue_pivot(sufficient_cdf: Callable[[float, float], float], s_obs: float,
                 theta: float) -> float:
    """Right-sided P-value pivot 1 - F_theta(s_obs) from a parametric CDF.

    As a function of theta with the statistic fixed this is a confidence
    CDF; its theta-derivative is the classical confidence density, which
    ``parameter_density`` reproduces for the corresponding pivot.
    """
    w = 1.0 - float(sufficient_cdf(s_obs, theta))
    if not 0.0 <= w <= 1.0:
        raise DomainError(f"sufficient_cdf returned a value outside [0, 1] at {theta!r}")
    return w


# ---------------------------------------------------------------------------
# Ready-made pivots and reparameterization
# ---------------------------------------------------------------------------


def location_pivot(estimate: float, scale: float = 1.0) -> Pivot:
    """Normal location pivot v = (estimate - theta)/scale with unit-law N(0,1)."""
    if not (math.isfinite(scale) and scale > 0):
        raise DomainError(f"scale must be positive, got {scale!r}")
    return Pivot(
        law=PivotLaw.normal(),
        value_fn=lambda theta: (estimate - theta) / scale,
        jacobian_fn=lambda theta: 1.0 / scale,
        monotonic="decreasing",
        param_support=_REAL_LINE,
        hint=(estimate, scale),
        label="normal location",
    )


def _pointwise(fn):
    """``fn`` of one float, made to take an array of points: one call per point."""

    def on_points(eta):
        eta = np.asarray(eta, dtype=float)
        return np.array([fn(e) for e in eta.ravel().tolist()], dtype=float).reshape(eta.shape)

    return on_points


def reparameterized(pivot: Pivot, forward, inverse, inverse_deriv,
                    support: tuple[float, float]) -> Pivot:
    """The same pivot expressed on the scale eta = forward(theta).

    ``inverse`` maps eta back to theta, ``inverse_deriv`` is d theta/d eta,
    and ``support`` is the image of the parameter support under ``forward``.
    The jacobian picks up |inverse_deriv| per the chain rule, so confidence
    masses are equivariant under strictly monotone smooth maps.  The maps
    may be scalar-only Python callables, so the new pivot evaluates an
    array of points one point at a time.
    """
    center, scale = pivot.hint
    increasing_map = inverse_deriv(forward(center)) > 0
    direction = pivot.monotonic
    if not increasing_map and direction in ("decreasing", "increasing"):
        direction = "increasing" if direction == "decreasing" else "decreasing"
    new_center = forward(center)
    new_scale = abs(forward(center + 0.5 * scale) - new_center) + 1e-12
    jac = None
    if pivot.jacobian_fn is not None:
        jac = lambda eta: pivot.jacobian(inverse(eta)) * abs(inverse_deriv(eta))
    lo, hi = pivot.param_support

    def value(eta: float) -> float:
        try:
            theta = inverse(eta)
        except OverflowError:
            theta = math.inf if ((eta > new_center) == increasing_map) else -math.inf
        if not lo < theta < hi:
            # the inverse map under/overflowed past the open support; the
            # pivot value diverges there, which any law density maps to 0
            toward_lo = theta <= lo
            diverging_up = (pivot.monotonic == "decreasing") == toward_lo
            return math.inf if diverging_up else -math.inf
        return pivot.value(theta)

    return Pivot(
        law=pivot.law,
        value_fn=_pointwise(value),
        jacobian_fn=None if jac is None else _pointwise(jac),
        monotonic=direction,
        param_support=support,
        hint=(new_center, new_scale),
        label=f"{pivot.label} (reparameterized)",
    )
