"""Gamma regression with log link: likelihood, Newton fit, and profile deviances.

The model is y_i ~ Gamma with mean mu_i = exp(x_i' beta) and precision
varphi (variance mu_i^2 / varphi).  Up to a data-only constant the
log-likelihood is

    loglik(beta, varphi) = -varphi * sum_i b_i(beta) - n * cumulant(varphi),

where b_i = (y_i - mu_i)/mu_i - log(y_i/mu_i) >= 0 is the per-observation
unit deviance term and cumulant(varphi) = log Gamma(varphi)
- varphi*log(varphi) + varphi collects the precision-dependent normalizer.
The summed unit deviance, sum_i (y_i exp(-eta_i) + eta_i) up to a constant,
is strictly convex in beta with observed information X' diag(y/mu) X, so
beta is fit by Newton's method with step halving from the least-squares fit
of log(y); the precision then solves a strictly monotone scalar score
equation.  One definition fits a block of responses at once, and the scalar
fit is that block fit on one row.  A sample whose mean is known to be 1 is
this model with p = 0.  Only this family/link pair is supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sf

from .data import Dataset
from .errors import ConvergenceError, DegenerateFitError, DomainError
from .linear import _svd_factors
from .numerics import _require_positive, digamma, log_gamma, trigamma

__all__ = [
    "GammaFit",
    "ProfileDeviance",
    "cumulant",
    "cumulant_d1",
    "cumulant_d2",
    "unit_deviance_terms",
    "gamma_loglik",
    "solve_precision",
    "fit_irls",
    "fit_known_mean",
    "profile_precision_at",
    "profile_deviance_precision",
    "profile_deviance_beta",
]

# Mean unit deviance below this is treated as a perfect fit: the implied
# precision estimate would exceed ~5e12, far outside float-stable territory.
_DEGENERATE_MEAN_B = 1e-13

# Iteration settings shared by the scalar and array precision solves and by
# the coefficient fit.
_PRECISION_TOL = 1e-15
_PRECISION_STEPS = 40
_IRLS_TOL = 1e-12
_IRLS_MAX_ITER = 200

# A coefficient fit stopped short of convergence (its step stalled or its
# steps ran out) is accepted at a score sup-norm at most this.
_ACCEPT_SCORE = 1e-8


# ---------------------------------------------------------------------------
# Precision-side cumulant pieces
# ---------------------------------------------------------------------------


def cumulant(varphi: float) -> float:
    """Normalizing part of the log density as a function of the precision."""
    v = _require_positive("precision", varphi)
    return log_gamma(v) - v * math.log(v) + v


def cumulant_d1(varphi: float) -> float:
    """First derivative: digamma(varphi) - log(varphi), negative and increasing."""
    v = _require_positive("precision", varphi)
    return digamma(v) - math.log(v)


def cumulant_d2(varphi: float) -> float:
    """Second derivative: trigamma(varphi) - 1/varphi, strictly positive."""
    v = _require_positive("precision", varphi)
    return trigamma(v) - 1.0 / v


def _cumulant_arrays(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cumulant and cumulant_d1 of an array of positive precisions."""
    log_v = np.log(v)
    return _sf.gammaln(v) - v * log_v + v, _sf.psi(v) - log_v


def _cumulant_d2_array(v: np.ndarray) -> np.ndarray:
    """cumulant_d2 of an array of positive precisions (zeta(2, v) is trigamma)."""
    return _sf.zeta(2.0, v) - 1.0 / v


def unit_deviance_terms(y: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """b_i = (y_i - mu_i)/mu_i - log(y_i/mu_i); zero exactly when y_i = mu_i."""
    r = y / mu
    return r - 1.0 - np.log(r)


# ---------------------------------------------------------------------------
# Likelihood and fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaFit:
    beta_hat: np.ndarray
    varphi_hat: float
    mu_hat: np.ndarray
    loglik: float
    sum_b: float
    n: int
    p: int


@dataclass(frozen=True)
class ProfileDeviance:
    """Twice the gap between maximized and profile log-likelihoods."""

    value: float
    at: object  # scalar precision or coefficient vector
    dims: int

    def __post_init__(self):
        if self.value < 0.0:
            raise DomainError(f"profile deviance must be nonnegative, got {self.value!r}")


def gamma_loglik(beta: np.ndarray, varphi: float, data: Dataset) -> float:
    """Exact log-likelihood up to an additive function of the data alone."""
    data.require_positive_response()
    v = _require_positive("precision", varphi)
    mu = np.exp(data.X @ np.asarray(beta, dtype=float))
    b = unit_deviance_terms(data.y, mu)
    return float(-v * b.sum() - data.n * cumulant(v))


def solve_precision(mean_b: float) -> float:
    """Precision solving cumulant_d1(varphi) = -mean_b, for mean_b > 0.

    The score function log(varphi) - digamma(varphi) - mean_b is strictly
    decreasing from +inf to 0 and convex, so the root is unique and Newton's
    method, after at most one overshoot, converges to it monotonically.  It
    starts from the classical shape estimate, which cancels to 0 from
    mean_b ~ 1e18 up; there it starts from 1/mean_b (the root is about
    1/(mean_b + log mean_b)).  Steps that would leave the domain are damped.
    The root is polished to the evaluation noise floor of the score: profile
    deviance identities amplify a residual by 2*n*varphi, so 1e-13 is not
    small enough downstream.  Raises ConvergenceError if the root is still
    open after 40 steps.
    """
    m = float(mean_b)
    if not (math.isfinite(m) and m > 0):
        raise DomainError(f"mean unit deviance must be positive, got {mean_b!r}")

    # the start is 0 from m ~ 1e18 up, long before (m - 3)^2 overflows near 1e154
    phi = (3.0 - m + math.sqrt((m - 3.0) ** 2 + 24.0 * m)) / (12.0 * m) if m < 1e150 else 0.0
    if phi == 0.0:
        phi = 1.0 / m
    for _ in range(_PRECISION_STEPS):
        g = math.log(phi) - digamma(phi) - m
        if abs(g) <= max(_PRECISION_TOL, 8e-16 * (1.0 + abs(math.log(phi)) + m)):
            return phi
        gp = 1.0 / phi - trigamma(phi)  # strictly negative
        step = g / gp
        new = phi - step
        while new <= 0.0:  # damp steps that overshoot the domain
            step *= 0.5
            new = phi - step
        if new == phi:
            return phi
        phi = new
    raise ConvergenceError(f"precision solve for mean unit deviance {m!r} "
                           f"still open after {_PRECISION_STEPS} steps")


def _solve_precision_array(mean_b: np.ndarray) -> np.ndarray:
    """:func:`solve_precision` for an array of positive, finite mean unit deviances.

    Each element follows the scalar iteration: the same start, tolerance
    rule, domain damping, stalled-step stop and 40-step budget.  An element
    still open after the budget is NaN.  np.log and math.log can differ in
    the last bit, so an element may differ from the scalar solve by rounding.
    """
    m = np.asarray(mean_b, dtype=float)
    s = np.minimum(m, 1e150)  # (s - 3)^2 stays finite, and the start is 0 from 1e18 up
    phi = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    phi = np.where(phi == 0.0, 1.0 / m, phi)
    open_ = np.arange(m.size)
    for _ in range(_PRECISION_STEPS):
        ph, mo = phi[open_], m[open_]
        log_phi = np.log(ph)
        g = log_phi - _sf.psi(ph) - mo
        moving = np.abs(g) > np.maximum(_PRECISION_TOL, 8e-16 * (1.0 + np.abs(log_phi) + mo))
        open_, ph, g = open_[moving], ph[moving], g[moving]
        if not open_.size:
            break
        step = g / (1.0 / ph - _sf.zeta(2.0, ph))
        new = ph - step
        while (overshoot := new <= 0.0).any():  # damp steps that leave the domain
            step[overshoot] *= 0.5
            new[overshoot] = ph[overshoot] - step[overshoot]
        phi[open_] = new
        open_ = open_[new != ph]
    phi[open_] = np.nan
    return phi


def fit_irls(data: Dataset) -> GammaFit:
    """Maximum likelihood fit: Newton's method on the coefficients, then the precision.

    This is :func:`_fit_irls_block` on one row, at most _IRLS_MAX_ITER
    steps from the least-squares fit of log(y) on X (exact for noise-free
    data).  Each Newton step solves the score against the observed
    information and is halved while it raises the summed unit deviance.
    That deviance is strictly convex in the coefficients, so on a full-rank
    design the iteration converges from any start in exact arithmetic, and
    in about five steps from the least-squares start on sampled data.
    Afterwards the precision solves its own score equation.

    Raises :class:`ConvergenceError` (with the deviance trace attached) when
    the block fit does not accept the row, and :class:`DegenerateFitError`
    on a perfect fit, which leaves the precision estimate unbounded; the
    error carries the converged coefficients in ``beta_hat``.
    """
    data.require_positive_response()
    Y = data.y[None]
    start = _log_least_squares(_svd_factors(data.X), Y)  # SingularDesignError if rank-deficient
    deviances = []
    beta, mu, sum_b, converged = _fit_irls_block(data.X, Y, start, deviances)
    trace = [float(d[0]) for d in deviances]
    beta, mu, dev_sum = beta[0], mu[0], float(sum_b[0])
    if not math.isfinite(dev_sum):
        raise ConvergenceError("starting values give a non-finite deviance", trace=trace)
    if not converged[0]:
        score_inf = float(np.max(np.abs(data.X.T @ (data.y / mu - 1.0))))
        raise ConvergenceError(
            f"IRLS did not converge in {len(trace) - 1} of {_IRLS_MAX_ITER} iterations "
            f"(score sup-norm {score_inf:.3e})",
            trace=trace,
        )
    return _precision_fit(beta, mu, dev_sum, data.n)


def fit_known_mean(sample: np.ndarray) -> GammaFit:
    """The gamma regression with no coefficients (p = 0): a sample whose mean
    is known to be 1.  Only the precision is fitted, as :func:`fit_irls` fits it."""
    y = np.asarray(sample, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise DomainError("sample must be a vector with at least two values")
    if not np.all(np.isfinite(y)) or np.any(y <= 0.0):
        raise DomainError("sample values must be positive and finite")
    mu = np.ones(y.size)
    return _precision_fit(np.empty(0), mu, float(unit_deviance_terms(y, mu).sum()), y.size)


def _precision_fit(beta: np.ndarray, mu: np.ndarray, sum_b: float, n: int) -> GammaFit:
    """The fit at coefficients ``beta`` (means ``mu``, summed unit deviance
    ``sum_b``): the precision solves its score equation.  A perfect fit leaves
    it unbounded and raises DegenerateFitError, with ``beta`` in ``beta_hat``."""
    if sum_b / n < _DEGENERATE_MEAN_B:
        err = DegenerateFitError("summed unit deviance is zero (perfect fit); "
                                 "the precision estimate is unbounded")
        err.beta_hat = beta
        raise err
    varphi = solve_precision(sum_b / n)
    return GammaFit(beta_hat=beta, varphi_hat=varphi, mu_hat=mu,
                    loglik=-varphi * sum_b - n * cumulant(varphi), sum_b=sum_b, n=n, p=beta.size)


def _log_least_squares(svd: tuple[np.ndarray, ...], Y: np.ndarray) -> np.ndarray:
    """pinv(X) log(y) for every row y of ``Y``, with pinv(X) formed from the
    thin SVD (u, s, vt) of a full-rank X as np.linalg.pinv forms it."""
    u, s, vt = svd
    return np.matvec(vt.T @ ((1.0 / s)[:, None] * u.T), np.log(Y))


def _fit_irls_block(X: np.ndarray, Y: np.ndarray, start: np.ndarray,
                    trace: list | None = None) -> tuple[np.ndarray, ...]:
    """Maximum likelihood coefficients of every row of ``Y`` by Newton's method.

    ``X`` must have full column rank and ``Y`` must be positive; rows start
    at ``start``, such as pinv(X) log(y) from :func:`_log_least_squares`.  A
    step solves the score X'(y/mu - 1), kept from the last accepted iterate,
    against the observed information X' diag(y/mu) X.  Every row tries the
    full step; while a row's summed unit deviance would rise by more than its
    rounding slack, its step is halved, and below a 1e-10 fraction the row
    keeps its iterate.  A row converges once its deviance moves by at most
    _IRLS_TOL relatively and its score sup-norm sits at its floating-point
    floor.  A row whose step fell below the floor would repeat that step, so
    it stops unconverged, as it does when _IRLS_MAX_ITER steps run out.
    Products and solves are stacked per row, so a row's result does not
    depend on the other rows of the block: :func:`fit_irls` is this fit on
    one row.  A row that stopped unconverged is still accepted when its
    score sup-norm is at most _ACCEPT_SCORE.

    Returns (beta_hat, mu_hat, sum_b, converged) with each row's last
    iterate; ``converged`` marks the accepted rows, and a row whose start
    gives a non-finite deviance holds NaN.  A ``trace`` list receives the
    summed deviances of the start and, after each step, of the rows still
    iterating.
    """
    rows = len(Y)
    beta_hat, mu_hat = np.full((rows, X.shape[1]), np.nan), np.full(Y.shape, np.nan)
    sum_b, converged = np.full(rows, np.nan), np.zeros(rows, dtype=bool)
    score_tol = 1e-12 * X.shape[0] * max(1.0, float(np.max(np.abs(X))))

    def deviance_parts(B, Yr):
        mu = np.exp(np.matvec(X, B))
        r = Yr / mu
        return mu, r, (r - 1.0 - np.log(r)).sum(axis=1)  # unit_deviance_terms

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m, r, d = deviance_parts(start, Y)
        if trace is not None:
            trace.append(d)
        # state of the rows still iterating, and their row numbers
        idx = np.flatnonzero(np.isfinite(d))
        y, b, m, r, d = Y[idx], start[idx], m[idx], r[idx], d[idx]
        g = np.matvec(X.T, r - 1.0)  # the score
        for _ in range(_IRLS_MAX_ITER):
            if not idx.size:
                break
            delta = _solve_rows(np.matmul(X.T * r[:, None, :], X), g)
            slack = 1e-11 * np.maximum(1.0, np.abs(d))
            nb = b + delta
            nm, nr, nd = deviance_parts(nb, y)
            pending, step = np.flatnonzero(~(np.isfinite(nd) & (nd <= d + slack))), 0.5
            if pending.size:  # these rows keep their iterate and halve the step together
                nb[pending], nm[pending], nr[pending], nd[pending] = (
                    b[pending], m[pending], r[pending], d[pending])
            while pending.size and step >= 1e-10:  # rows pending below the floor keep theirs
                cand = b[pending] + step * delta[pending]
                cm, cr, cd = deviance_parts(cand, y[pending])
                ok = np.isfinite(cd) & (cd <= d[pending] + slack[pending])
                acc = pending[ok]
                nb[acc], nm[acc], nr[acc], nd[acc] = cand[ok], cm[ok], cr[ok], cd[ok]
                pending, step = pending[~ok], step * 0.5
            d_old, b, m, r, d = d, nb, nm, nr, nd
            if trace is not None:
                trace.append(d)
            g = np.matvec(X.T, r - 1.0)
            done = ((np.abs(d_old - d) <= _IRLS_TOL * np.maximum(1.0, np.abs(d)))
                    & (np.abs(g).max(axis=1) <= score_tol))
            converged[idx[done]] = True
            done[pending] = True  # stalled: stop, unconverged
            if done.any():
                fin, keep = idx[done], ~done
                beta_hat[fin], mu_hat[fin], sum_b[fin] = b[done], m[done], d[done]
                idx, y, b, m, r, d, g = (a[keep] for a in (idx, y, b, m, r, d, g))
        beta_hat[idx], mu_hat[idx], sum_b[idx] = b, m, d
        stopped = np.flatnonzero(~converged & np.isfinite(sum_b))
        if stopped.size:
            score_inf = np.abs(np.matvec(X.T, Y[stopped] / mu_hat[stopped] - 1.0)).max(axis=1)
            converged[stopped[score_inf <= _ACCEPT_SCORE]] = True
    return beta_hat, mu_hat, sum_b, converged


def _solve_rows(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x with H[i] x[i] = g[i] for every row i; NaN where H[i] is singular."""
    try:
        return np.linalg.solve(H, g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        x = np.full(g.shape, np.nan)
        for i in range(len(g)):
            try:
                x[i] = np.linalg.solve(H[i:i + 1], g[i:i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return x


# ---------------------------------------------------------------------------
# Profile deviances
# ---------------------------------------------------------------------------


def profile_deviance_precision(fit: GammaFit, varphi: float) -> ProfileDeviance:
    """Closed-form profile deviance for the precision.

    Because the coefficient profile estimate does not move with the
    precision, the profile is available in closed form:

        2n * [(varphi_hat - varphi) * cumulant_d1(varphi_hat)
              + cumulant(varphi) - cumulant(varphi_hat)].

    Values inside the floating-point cancellation floor clamp to 0.
    """
    v = _require_positive("precision", varphi)
    return ProfileDeviance(_precision_deviance_curve(fit.n, fit.varphi_hat)(v), at=v, dims=1)


def _precision_deviance_curve(n: int, varphi_hat: float):
    """varphi -> the value of :func:`profile_deviance_precision` for one fit,
    with the cumulant terms at varphi_hat computed once."""
    c_hat, c1_hat = cumulant(varphi_hat), cumulant_d1(varphi_hat)
    return lambda v: max(2.0 * n * ((varphi_hat - v) * c1_hat + cumulant(v) - c_hat), 0.0)


def profile_precision_at(data: Dataset, beta: np.ndarray) -> float:
    """Precision maximizing the likelihood at a fixed coefficient vector."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (data.p,):
        raise DomainError(f"beta must have length {data.p}, got shape {beta.shape}")
    mu = np.exp(data.X @ beta)
    mean_b = float(unit_deviance_terms(data.y, mu).mean())
    if mean_b < _DEGENERATE_MEAN_B:
        raise DegenerateFitError(
            "unit deviance vanishes at this coefficient vector (perfect fit)"
        )
    return solve_precision(mean_b)


def profile_deviance_beta(data: Dataset, fit: GammaFit, beta: np.ndarray) -> ProfileDeviance:
    """Profile deviance for the coefficient vector.

    With G(v) = v * cumulant_d1(v) - cumulant(v), the profile log-likelihood
    at a coefficient vector is n * G(precision profile there), so

        d = 2n * [G(varphi_hat) - G(profile precision at beta)],

    nonnegative because G is increasing and the profile precision never
    exceeds the maximum likelihood precision.
    """
    beta = np.asarray(beta, dtype=float)
    vh = fit.varphi_hat
    value = _profile_deviance_beta_array(fit.n, vh, _cumulant_arrays(vh),
                                         profile_precision_at(data, beta))
    return ProfileDeviance(value=float(value), at=beta, dims=fit.p)


def _profile_deviance_precision_array(n: int, varphi_hat: np.ndarray, varphi,
                                      hat: tuple | None = None, at: tuple | None = None):
    """:func:`profile_deviance_precision` values for arrays of estimates and
    precisions; ``hat`` and ``at`` are their _cumulant_arrays, where held."""
    c_hat, c1_hat = _cumulant_arrays(varphi_hat) if hat is None else hat
    c = (_cumulant_arrays(varphi) if at is None else at)[0]
    return np.maximum(2.0 * n * ((varphi_hat - varphi) * c1_hat + c - c_hat), 0.0)


def _profile_deviance_beta_array(n: int, varphi_hat: np.ndarray, hat: tuple,
                                 varphi_at_beta: np.ndarray) -> np.ndarray:
    """:func:`profile_deviance_beta` values from the estimates, their
    _cumulant_arrays ``hat`` and the profile precisions at the coefficient vectors."""
    c, c1 = _cumulant_arrays(varphi_at_beta)
    return np.maximum(2.0 * n * ((varphi_hat * hat[1] - hat[0]) - (varphi_at_beta * c1 - c)), 0.0)
