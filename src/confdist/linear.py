"""Normal linear regression and its three exact pivots.

For y = X beta + e with spherical normal errors, the residual sum of squares
over the error variance is an exact chi-square pivot, a studentized contrast
is an exact t pivot, and the standardized coefficient quadratic form is an
exact F pivot.  The first two are scalar and monotone, so they carry full
confidence densities; the F pivot supports pivot-ball confidence statements
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DegenerateFitError, DomainError, SingularDesignError
from .pivots import Pivot, PivotLaw

__all__ = ["LinearFit", "Contrast", "fit_ols", "contrast", "variance_pivot",
           "contrast_pivot", "coefficient_ball_pivot", "variance_estimate_density"]


@dataclass(frozen=True)
class LinearFit:
    """Least-squares estimates with the pieces every exact pivot needs.

    ``phi_hat_m`` is the residual variance with divisor n - p (the marginal
    variance estimate), and ``xtx`` the Gram matrix of the design.
    ``inv_root`` is diag(1/s) V' from the design's thin SVD X = U diag(s) V',
    so (X'X)^{-1} = inv_root' inv_root; a fit summary has only ``xtx``.
    """

    beta_hat: np.ndarray
    phi_hat_m: float
    xtx: np.ndarray
    df: int
    n: int
    p: int
    inv_root: np.ndarray | None = None


@dataclass(frozen=True)
class Contrast:
    """A linear combination b'beta with its estimate and quadratic form."""

    b: np.ndarray
    lambda_hat: float
    k: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0):
            raise DomainError(f"contrast quadratic form must be positive, got {self.k!r}")


def _svd_factors(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, s, vt) of the design X, for every fit and the coverage engine;
    a singular value <= eps * max(n, p) * s_max raises SingularDesignError."""
    n, p = X.shape
    u, s, vt = np.linalg.svd(X, full_matrices=False)
    rank_tol = np.finfo(float).eps * max(n, p) * s[0]
    rank = int(np.sum(s > rank_tol))
    if rank < p:
        raise SingularDesignError(
            f"design matrix has rank {rank} < p={p} at singular-value tolerance {rank_tol:.3e}")
    return u, s, vt


def _rss_noise_floor(n: int, p: int, y_norm):
    """Residual sum of squares at or below which a fit counts as perfect.

    A perfect fit leaves only rounding residue; reporting it as exactly zero
    makes the degenerate state detectable downstream.  ``y_norm`` may be an
    array of response norms.
    """
    return (np.finfo(float).eps * max(n, p) * y_norm) ** 2


def fit_ols(data: Dataset) -> LinearFit:
    """Least-squares fit via an orthogonal decomposition of the design.

    A rank-deficient design raises SingularDesignError (see :func:`_svd_factors`).
    """
    X, y = data.X, data.y
    n, p = X.shape
    u, s, vt = _svd_factors(X)
    beta = vt.T @ ((u.T @ y) / s)
    resid = y - X @ beta
    rss = float(resid @ resid)
    if rss <= _rss_noise_floor(n, p, np.linalg.norm(y)):
        rss = 0.0
    df = n - p
    return LinearFit(
        beta_hat=beta,
        phi_hat_m=rss / df,
        xtx=X.T @ X,
        df=df,
        n=n,
        p=p,
        inv_root=vt / s[:, None],
    )


def contrast(fit: LinearFit, b: np.ndarray) -> Contrast:
    """Contrast summary for b'beta: estimate and k = b'(X'X)^{-1} b.

    With the design's SVD at hand k is ||diag(1/s) V'b||^2, which does not
    square the design's condition number; a fit summary solves with X'X.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (fit.p,):
        raise DomainError(f"contrast vector must have length {fit.p}, got shape {b.shape}")
    if not np.any(b):
        raise DomainError("contrast vector must be nonzero")
    if fit.inv_root is None:
        k = float(b @ np.linalg.solve(fit.xtx, b))
    else:
        z = fit.inv_root @ b
        k = float(z @ z)
    return Contrast(b=b, lambda_hat=float(b @ fit.beta_hat), k=k)


def _require_nondegenerate(fit: LinearFit) -> None:
    if fit.phi_hat_m <= 0.0:
        raise DegenerateFitError(
            "residual variance is zero (perfect fit); every variance-scaled "
            "pivot divides by it, so no confidence statement is possible"
        )


def variance_pivot(fit: LinearFit) -> Pivot:
    """Chi-square pivot for the error variance: v(phi) = df * phi_hat_m / phi.

    The jacobian |dv/dphi| = v/phi transports the chi-square density to the
    variance scale.
    """
    _require_nondegenerate(fit)
    rss = fit.df * fit.phi_hat_m

    return Pivot(
        law=PivotLaw.chisq(fit.df),
        value_fn=lambda phi: rss / phi,
        jacobian_fn=lambda phi: rss / (phi * phi),
        monotonic="decreasing",
        param_support=(0.0, math.inf),
        hint=(fit.phi_hat_m, fit.phi_hat_m),
        label="error variance",
    )


def contrast_pivot(fit: LinearFit, con: Contrast) -> Pivot:
    """Student t pivot for a contrast: v = (lambda_hat - lambda)/sqrt(k phi_hat_m)."""
    _require_nondegenerate(fit)
    se = math.sqrt(con.k * fit.phi_hat_m)

    return Pivot(
        law=PivotLaw.student_t(fit.df),
        value_fn=lambda lam: (con.lambda_hat - lam) / se,
        jacobian_fn=lambda lam: 1.0 / se,
        monotonic="decreasing",
        param_support=(-math.inf, math.inf),
        hint=(con.lambda_hat, se),
        label="contrast",
    )


def coefficient_ball_pivot(fit: LinearFit) -> Pivot:
    """Exact F pivot for the whole coefficient vector.

    v(beta) = (beta_hat - beta)' X'X (beta_hat - beta) / (p * phi_hat_m).
    Only pivot-ball confidence statements C(v <= bound) are available: with
    p > 1 there is no scalar monotone map, so requesting a parameter-scale
    density raises, reflecting the classical restriction of confidence sets
    to special forms in higher dimensions.
    """
    _require_nondegenerate(fit)
    denom = fit.p * fit.phi_hat_m
    xtx = fit.xtx
    beta_hat = fit.beta_hat

    def value(beta) -> float:
        d = beta_hat - np.asarray(beta, dtype=float)
        return float(d @ xtx @ d) / denom

    return Pivot(
        law=PivotLaw.f(fit.p, fit.df),
        value_fn=value,
        jacobian_fn=None,
        monotonic="none",
        param_support=(-math.inf, math.inf),
        hint=(0.0, 1.0),
        label="coefficient ball",
    )


def variance_estimate_density(fit: LinearFit, phi: float) -> float:
    """Sampling density of the variance estimate at its observed value, under phi.

    This is the likelihood carried by the variance estimate alone; the
    variance confidence density equals (phi_hat_m / phi) times it, which is
    how the density-likelihood duality shows up for this pivot.
    """
    if phi <= 0:
        raise DomainError(f"phi must be positive, got {phi!r}")
    _require_nondegenerate(fit)
    pv = variance_pivot(fit)
    return (fit.df / phi) * pv.law.pdf(pv.value(phi))
