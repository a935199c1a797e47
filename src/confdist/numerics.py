"""Gamma special functions, quadrature, root finding, and seedable random streams.

Everything downstream (pivot laws, model fits, corrections, the coverage
harness) builds on this module; the reference laws themselves are one table
in :mod:`confdist.pivots`.  log Gamma, digamma and trigamma are delegated to
scipy.special behind the documented contracts below; quadrature uses a single
finite-interval adaptive kernel, with semi-infinite domains mapped onto [0, 1)
by the substitution x = a + t/(1-t) (and its mirror image for lower tails).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special as _sf

from .errors import AccuracyError, BracketingError, DomainError

__all__ = [
    "RealGrid",
    "RngStream",
    "log_gamma",
    "digamma",
    "trigamma",
    "find_root",
    "integrate",
    "rng_draws",
]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealGrid:
    """Ordered real abscissae: strictly increasing and finite."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise DomainError("grid needs at least two one-dimensional points")
        if not np.all(np.isfinite(pts)):
            raise DomainError("grid points must be finite")
        if not np.all(np.diff(pts) > 0):
            raise DomainError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

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
# Gamma special functions
# ---------------------------------------------------------------------------


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
    import scipy.optimize  # on first use: a CLI call that solves nothing never loads it

    lo, hi = (float(bracket[0]), float(bracket[1]))
    if lo > hi:
        lo, hi = hi, lo
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo == hi:
        raise DomainError(f"invalid bracket {bracket!r}")
    lo_lim, hi_lim = (-math.inf, math.inf) if limits is None else limits

    n_expand = 0
    while True:
        flo, fhi = f(lo), f(hi)
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if not flo * fhi > 0.0:  # a sign change (a NaN is left to brentq)
            return float(scipy.optimize.brentq(f, lo, hi, xtol=tol, rtol=8.9e-16))
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
        n_expand += 1


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def _quad_finite(f, a: float, b: float, epsabs: float) -> tuple[float, float]:
    import scipy.integrate  # on first use, as scipy.optimize in find_root

    out = scipy.integrate.quad(f, a, b, epsabs=epsabs, epsrel=1e-12, limit=200, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3:  # warning message present: refinement did not converge
        raise AccuracyError(
            f"quadrature on [{a:g}, {b:g}] did not converge: {out[3]}", achieved=abserr
        )
    return value, abserr


def _map_tail(f, a: float, sign: float):
    # x = a + sign * t/(1-t) maps [0, 1) onto [a, inf) (sign 1) or onto
    # (-inf, a] (sign -1); |dx| = dt/(1-t)^2.
    def g(t: float) -> float:
        om = 1.0 - t
        if om <= 0.0:
            return 0.0
        return f(a + sign * (t / om)) / (om * om)

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
        pieces.append((_map_tail(f, 0.0, -1.0), 0.0, 1.0))
        pieces.append((_map_tail(f, 0.0, 1.0), 0.0, 1.0))
    elif math.isinf(b):
        pieces.append((_map_tail(f, a, 1.0), 0.0, 1.0))
    elif math.isinf(a):
        pieces.append((_map_tail(f, b, -1.0), 0.0, 1.0))
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
