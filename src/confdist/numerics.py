"""Special functions, quadrature, root finding, and seedable random streams.

Everything downstream (pivot laws, model fits, corrections, the coverage
harness) builds on this module.  Special-function evaluation is delegated to
scipy.special behind the documented contracts below; quadrature uses a single
finite-interval adaptive kernel, with semi-infinite domains mapped onto [0, 1)
by the substitution x = a + t/(1-t) (and its mirror image for lower tails).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate as _scipy_integrate
from scipy import optimize as _scipy_optimize
from scipy import special as _sf

from .errors import AccuracyError, BracketingError, DomainError

__all__ = [
    "RealGrid",
    "RngStream",
    "normal_cdf",
    "normal_pdf",
    "lower_regularized_gamma",
    "upper_regularized_gamma",
    "log_gamma",
    "digamma",
    "trigamma",
    "chisq_cdf",
    "chisq_pdf",
    "t_cdf",
    "t_pdf",
    "f_cdf",
    "f_pdf",
    "find_root",
    "integrate",
    "rng_draws",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealGrid:
    """Ordered real abscissae with optional quadrature weights.

    Points must be strictly increasing and finite; weights, when present,
    must match the points in length and be finite.
    """

    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise DomainError("grid needs at least two one-dimensional points")
        if not np.all(np.isfinite(pts)):
            raise DomainError("grid points must be finite")
        if not np.all(np.diff(pts) > 0):
            raise DomainError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != pts.shape:
                raise DomainError("weights must match points in length")
            if not np.all(np.isfinite(w)):
                raise DomainError("weights must be finite")
            object.__setattr__(self, "weights", w)

    @property
    def span(self) -> float:
        return float(self.points[-1] - self.points[0])


_MAX_U64 = 2**64


def _require_u64(name: str, v) -> int:
    if not isinstance(v, (int, np.integer)) or not 0 <= v < _MAX_U64:
        raise DomainError(f"{name} must be an unsigned 64-bit integer")
    return int(v)


@dataclass(frozen=True)
class RngStream:
    """Immutable descriptor for a reproducible random stream.

    The same (seed, stream_id, offset) triple always reproduces the same
    draws; distinct stream_ids give statistically independent sequences.
    Coverage studies key one stream per block of replications (see
    :mod:`confdist.coverage`) and draw the whole block in one call.  Drawing
    never mutates the descriptor: to continue a sequence functionally, use
    :meth:`advanced` and draw again from the returned descriptor.
    """

    seed: int
    stream_id: int = 0
    offset: int = 0

    def __post_init__(self):
        _require_u64("seed", self.seed)
        _require_u64("stream_id", self.stream_id)
        if not isinstance(self.offset, (int, np.integer)) or self.offset < 0:
            raise DomainError("offset must be a nonnegative integer")

    def advanced(self, steps: int = 1) -> "RngStream":
        """Descriptor for the draws following ``steps`` completed calls."""
        if steps < 0:
            raise DomainError("steps must be nonnegative")
        return replace(self, offset=self.offset + steps)

    def generator(self) -> np.random.Generator:
        # Philox is counter based; keying the seed sequence on the full
        # descriptor makes every (seed, stream_id, offset) an independent,
        # order-insensitive stream.
        seq = np.random.SeedSequence([self.seed, self.stream_id, self.offset])
        return np.random.Generator(np.random.Philox(seq))


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def normal_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x)."""
    return float(_sf.ndtr(_require_finite("x", x)))


def normal_pdf(x: float) -> float:
    """Standard normal density."""
    return float(_normal_pdf_array(_require_finite("x", x)))


def lower_regularized_gamma(k: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(k, x) in [0, 1]."""
    k = float(k)
    if not (math.isfinite(k) and k > 0):
        raise DomainError(f"shape k must be positive, got {k!r}")
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise DomainError(f"x must be nonnegative, got {x!r}")
    return float(_sf.gammainc(k, x))


def upper_regularized_gamma(k: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(k, x) = 1 - P(k, x)."""
    k = float(k)
    if not (math.isfinite(k) and k > 0):
        raise DomainError(f"shape k must be positive, got {k!r}")
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise DomainError(f"x must be nonnegative, got {x!r}")
    return float(_sf.gammaincc(k, x))


def _require_positive(name: str, x: float) -> float:
    x = float(x)
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"{name} must be positive, got {x!r}")
    return x


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    return float(_sf.gammaln(_require_positive("x", x)))


def digamma(x: float) -> float:
    """First logarithmic derivative of the gamma function, x > 0."""
    return float(_sf.psi(_require_positive("x", x)))


def trigamma(x: float) -> float:
    """Second logarithmic derivative of the gamma function, x > 0.

    Evaluated as the Hurwitz zeta function zeta(2, x), which is how
    scipy.special.polygamma(1, x) computes it, without that function's
    Python-level wrapper.
    """
    return float(_sf.zeta(2.0, _require_positive("x", x)))


def chisq_cdf(x: float, df: float) -> float:
    """Chi-square distribution function with ``df`` degrees of freedom."""
    df = _require_positive("df", df)
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if x <= 0.0:
        return 0.0
    return lower_regularized_gamma(df / 2.0, x / 2.0)


def chisq_pdf(x: float, df: float) -> float:
    """Chi-square density with ``df`` degrees of freedom; 0 at x <= 0."""
    df = _require_positive("df", df)
    return float(_chisq_pdf_array(float(x), df))


def t_cdf(x: float, df: float) -> float:
    """Student t distribution function with ``df`` degrees of freedom."""
    df = _require_positive("df", df)
    return float(_sf.stdtr(df, _require_finite("x", x)))


def t_pdf(x: float, df: float) -> float:
    """Student t density with ``df`` degrees of freedom."""
    df = _require_positive("df", df)
    return float(_t_pdf_array(_require_finite("x", x), df))


def f_cdf(x: float, df1: float, df2: float) -> float:
    """F distribution function with (``df1``, ``df2``) degrees of freedom."""
    df1 = _require_positive("df1", df1)
    df2 = _require_positive("df2", df2)
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if x <= 0.0:
        return 0.0
    return float(_sf.fdtr(df1, df2, x))


def f_pdf(x: float, df1: float, df2: float) -> float:
    """F density with (``df1``, ``df2``) degrees of freedom; 0 at x <= 0."""
    df1 = _require_positive("df1", df1)
    df2 = _require_positive("df2", df2)
    return float(_f_pdf_array(float(x), df1, df2))


# Array definitions of the densities.  The scalar functions above validate
# their arguments and evaluate these at one point; callers with arrays
# validate the (scalar) degrees of freedom themselves.  Per-law constants
# are Python floats, and each expression keeps its evaluation order.  As in
# scalar float arithmetic, an overflow to inf gives density 0 silently, and
# x <= 0 (log of 0 or less) is masked to density 0 for chisq and F.


def _normal_pdf_array(x):
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * x * x - _LOG_SQRT_2PI)


def _chisq_pdf_array(x, df: float):
    half = df / 2.0
    with np.errstate(all="ignore"):
        f = np.exp((half - 1.0) * np.log(x) - x / 2.0 - half * math.log(2.0) - log_gamma(half))
    return np.where(x <= 0.0, 0.0, f)


def _t_pdf_array(x, df: float):
    lognum = log_gamma((df + 1.0) / 2.0) - log_gamma(df / 2.0)
    logden = 0.5 * math.log(df * math.pi)
    with np.errstate(over="ignore"):
        return np.exp(lognum - logden - 0.5 * (df + 1.0) * np.log1p(x * x / df))


def _f_pdf_array(x, df1: float, df2: float):
    h1, h2 = df1 / 2.0, df2 / 2.0
    logb = log_gamma(h1) + log_gamma(h2) - log_gamma(h1 + h2)
    with np.errstate(all="ignore"):
        f = np.exp(h1 * math.log(df1) + h2 * math.log(df2) + (h1 - 1.0) * np.log(x)
                   - (h1 + h2) * np.log(df2 + df1 * x) - logb)
    return np.where(x <= 0.0, 0.0, f)


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


def find_root(
    f,
    bracket: tuple[float, float],
    tol: float = 1e-10,
    limits: tuple[float, float] | None = None,
    max_expansions: int = 60,
) -> float:
    """Root of a continuous monotone function inside (an expansion of) ``bracket``.

    The bracket may be given in either order.  If f has the same sign at both
    ends, the bracket is widened geometrically (doubling the width each step,
    clipped to ``limits``) up to ``max_expansions`` times before giving up
    with :class:`BracketingError`.  The returned abscissa is deterministic
    and satisfies a bracket width <= ``tol`` (or an exact zero of f).
    """
    lo, hi = (float(bracket[0]), float(bracket[1]))
    if lo > hi:
        lo, hi = hi, lo
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo == hi:
        raise DomainError(f"invalid bracket {bracket!r}")
    lo_lim, hi_lim = (-math.inf, math.inf) if limits is None else limits

    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    n_expand = 0
    while flo * fhi > 0.0:
        if n_expand >= max_expansions:
            raise BracketingError(
                f"no sign change in [{lo:g}, {hi:g}] after {max_expansions} expansions"
            )
        width = hi - lo
        new_lo = max(lo - width, lo_lim)
        new_hi = min(hi + width, hi_lim)
        if new_lo == lo and new_hi == hi:
            raise BracketingError(
                f"no sign change in [{lo:g}, {hi:g}] within limits {limits!r}"
            )
        lo, hi = new_lo, new_hi
        flo, fhi = f(lo), f(hi)
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        n_expand += 1
    return float(_scipy_optimize.brentq(f, lo, hi, xtol=tol, rtol=8.9e-16))


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def _quad_finite(f, a: float, b: float, epsabs: float) -> tuple[float, float]:
    out = _scipy_integrate.quad(f, a, b, epsabs=epsabs, epsrel=1e-12, limit=200, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3:  # warning message present: refinement did not converge
        raise AccuracyError(
            f"quadrature on [{a:g}, {b:g}] did not converge: {out[3]}", achieved=abserr
        )
    return value, abserr


def _map_upper_tail(f, a: float):
    # x = a + t/(1-t) maps [0, 1) onto [a, inf); dx = dt/(1-t)^2.
    def g(t: float) -> float:
        om = 1.0 - t
        if om <= 0.0:
            return 0.0
        return f(a + t / om) / (om * om)

    return g


def _map_lower_tail(f, b: float):
    # x = b - t/(1-t) maps [0, 1) onto (-inf, b].
    def g(t: float) -> float:
        om = 1.0 - t
        if om <= 0.0:
            return 0.0
        return f(b - t / om) / (om * om)

    return g


def integrate(f, domain: tuple[float, float], tol: float = 1e-8) -> float:
    """Definite integral of ``f`` over ``domain`` to absolute tolerance ``tol``.

    ``domain`` endpoints may be ``-inf``/``+inf``; infinite tails are folded
    onto [0, 1) by the substitution x = a + t/(1-t), so a single adaptive
    finite-interval kernel serves every case.  Raises :class:`AccuracyError`
    (carrying the achieved error estimate) when refinement cannot certify
    the requested tolerance.
    """
    a, b = float(domain[0]), float(domain[1])
    if math.isnan(a) or math.isnan(b):
        raise DomainError("domain endpoints must not be NaN")
    if a == b:
        return 0.0
    if a > b:
        return -integrate(f, (b, a), tol)

    pieces = []
    if math.isinf(a) and math.isinf(b):
        pieces.append((_map_lower_tail(f, 0.0), 0.0, 1.0))
        pieces.append((_map_upper_tail(f, 0.0), 0.0, 1.0))
    elif math.isinf(b):
        pieces.append((_map_upper_tail(f, a), 0.0, 1.0))
    elif math.isinf(a):
        pieces.append((_map_lower_tail(f, b), 0.0, 1.0))
    else:
        pieces.append((f, a, b))

    epsabs = tol / (2.0 * len(pieces))
    total, err = 0.0, 0.0
    for g, lo, hi in pieces:
        value, abserr = _quad_finite(g, lo, hi, epsabs)
        total += value
        err += abserr
    if err > tol:
        raise AccuracyError(f"requested tol {tol:g}, achieved {err:g}", achieved=err)
    return total


# ---------------------------------------------------------------------------
# Random draws
# ---------------------------------------------------------------------------


def rng_draws(
    stream: RngStream,
    law: str,
    n: int,
    shape: float | None = None,
    scale: float | None = None,
) -> np.ndarray:
    """Draw ``n`` variates from ``law`` using the given stream descriptor.

    Supported laws: ``"uniform"`` on [0, 1), ``"normal"`` (standard), and
    ``"gamma"`` with keyword ``shape``/``scale``.  The call is pure: the same
    descriptor always returns the same vector, and shared state is never
    mutated (continue a sequence via ``stream.advanced()``).  The generator
    fills its output in order, so the first k of ``n`` draws equal a call
    for k draws.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if law == "uniform":
        return stream.generator().random(n)
    if law == "normal":
        return stream.generator().standard_normal(n)
    if law == "gamma":
        if shape is None or scale is None:
            raise DomainError("gamma draws need shape and scale")
        shape = _require_positive("shape", shape)
        scale = _require_positive("scale", scale)
        return stream.generator().gamma(shape, scale, n)
    raise DomainError(f"unknown law {law!r}; expected uniform, normal, or gamma")
