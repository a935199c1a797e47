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
of log(y).  The iteration works in log form, on e = log(y) - X beta with
y/mu = exp(e) and summed unit deviance sum(exp(e) - 1 - e).  The
information is formed from its p(p+1)/2 distinct entries, and for p = 2
each step is solved in closed form (adjugate over determinant), with a
stacked LAPACK solve for a row whose determinant is not finite and
positive and for every other p.  On exit mu_hat = exp(X beta_hat) and the summed
unit deviance are formed again in the classic form of
:func:`unit_deviance_terms`.  The precision then solves a strictly
monotone scalar score equation by Newton's method.  One definition fits a
block of responses at once, and one solves a block's precisions: the fits
of one dataset are those on one row, the precision included.  A sample whose
mean is known to be 1 is this model with p = 0.  Only this family/link pair
is supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sf

from .data import Dataset
from .errors import ConvergenceError, DegenerateFitError, DomainError
from .linear import _svd_factors
from .numerics import _require_positive

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

# Iteration settings of the precision solve and of the coefficient fit.
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

# Each precision quantity (these pieces, and the profile deviance below) is
# one formula of numpy ufuncs: it takes a float or an array, and a float
# rounds as an array element does.  The public functions check their
# argument and apply the formula to a float.


def _cumulants(v):
    """cumulant and cumulant_d1 of positive precisions, a float or an array."""
    log_v = np.log(v)
    return _sf.gammaln(v) - v * log_v + v, _sf.psi(v) - log_v


def _cumulant_d2(v):
    """cumulant_d2 of positive precisions, a float or an array (zeta(2, v) is trigamma)."""
    return _sf.zeta(2.0, v) - 1.0 / v


def cumulant(varphi: float) -> float:
    """Normalizing part of the log density as a function of the precision."""
    return float(_cumulants(_require_positive("precision", varphi))[0])


def cumulant_d1(varphi: float) -> float:
    """First derivative: digamma(varphi) - log(varphi), negative and increasing."""
    return float(_cumulants(_require_positive("precision", varphi))[1])


def cumulant_d2(varphi: float) -> float:
    """Second derivative: trigamma(varphi) - 1/varphi, strictly positive."""
    return float(_cumulant_d2(_require_positive("precision", varphi)))


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

    One element of :func:`_solve_precision_array`, which documents the
    iteration.  Raises DomainError for a mean_b that is not positive and
    finite, and ConvergenceError if the root is still open after
    _PRECISION_STEPS steps.
    """
    m = float(mean_b)
    if not (math.isfinite(m) and m > 0):
        raise DomainError(f"mean unit deviance must be positive, got {mean_b!r}")
    phi = float(_solve_precision_array(np.array([m]))[0])
    if math.isnan(phi):
        raise ConvergenceError(f"precision solve for mean unit deviance {m!r} "
                               f"still open after {_PRECISION_STEPS} steps")
    return phi


def _solve_precision_array(mean_b: np.ndarray) -> np.ndarray:
    """Precisions solving cumulant_d1(varphi) = -mean_b for an array of
    positive, finite mean unit deviances, one Newton iteration per element.

    The score log(varphi) - digamma(varphi) - mean_b is strictly decreasing
    from +inf to 0 and convex, so the root is unique and Newton's method,
    after at most one overshoot, converges to it monotonically.  It starts
    from the classical shape estimate, which cancels to 0 from mean_b ~ 1e18
    up; there it starts from 1/mean_b (the root is about
    1/(mean_b + log mean_b)).  Steps that would leave the domain are halved
    until they stay in it.  An element stops once its score is within the
    score's evaluation noise floor, or once a step leaves it unchanged: the
    profile deviance identities amplify a residual by 2*n*varphi, so 1e-13
    is not small enough downstream.  An element still open after
    _PRECISION_STEPS steps is NaN.  Every operation is elementwise, so an
    element's root does not depend on the other elements, and
    :func:`solve_precision` is this solve on one element.
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
    if not math.isfinite(trace[0]):
        raise ConvergenceError("starting values give a non-finite deviance", trace=trace)
    if not math.isfinite(dev_sum):
        raise ConvergenceError("the fitted means exp(X beta_hat) leave the floating-point range",
                               trace=trace)
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
    at ``start``, such as pinv(X) log(y) from :func:`_log_least_squares`.
    The iteration works in log form: with e = log(y) - X beta (log y taken
    once) and r = exp(e) = y/mu, the summed unit deviance is sum(r - 1 - e)
    and the score is X'(r - 1), kept from the last accepted iterate.  A step
    solves the score against the observed information X' diag(r) X, formed
    from its p(p+1)/2 distinct entries (:func:`_column_products`), and
    :func:`_solve_information` solves it: in closed form for p = 2, the
    adjugate over the determinant, and by :func:`_solve_rows` for a row whose
    determinant is not finite and positive and for every row when p != 2.
    Every row tries the full step; while a row's deviance would rise by more
    than its rounding slack, its step is halved, and below a 1e-10 fraction the row
    keeps its iterate.  A row converges once its deviance moves by at most
    _IRLS_TOL relatively and its score sup-norm sits at its floating-point
    floor.  A row whose step fell below the floor would repeat that step, so
    it stops unconverged, as it does when _IRLS_MAX_ITER steps run out.
    Products and solves are stacked per row, so a row's result does not
    depend on the other rows of the block: :func:`fit_irls` is this fit on
    one row.  A row that stopped unconverged is still accepted when its
    score sup-norm is at most _ACCEPT_SCORE.

    Returns (beta_hat, mu_hat, sum_b, converged) with each row's last
    iterate; mu_hat = exp(X beta_hat) and sum_b, the summed
    :func:`unit_deviance_terms` at mu_hat, are formed from beta_hat on exit,
    so the profile deviances vanish exactly at the estimate.  ``converged``
    marks the accepted rows, none with a sum_b that is not finite (where
    exp(X beta_hat) leaves the float range), and a row whose start gives a
    non-finite deviance holds NaN.  A ``trace`` list receives the summed (log-form)
    deviances of the start and, after each step, of the rows still iterating.
    """
    beta_hat, converged = np.full(start.shape, np.nan), np.zeros(len(Y), dtype=bool)
    score_tol = 1e-12 * X.shape[0] * max(1.0, float(np.max(np.abs(X))))
    products = _column_products(X)

    def deviance_parts(B, log_y):
        e = log_y - np.matvec(X, B)
        r = np.exp(e)
        return r, (r - 1.0 - e).sum(axis=1)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_y = np.log(Y)
        r, d = deviance_parts(start, log_y)
        if trace is not None:
            trace.append(d)
        # state of the rows still iterating, and their row numbers
        idx = np.isfinite(d).nonzero()[0]
        ly, b, r, d = log_y[idx], start[idx], r[idx], d[idx]
        scale, g = np.maximum(1.0, np.abs(d)), np.matvec(X.T, r - 1.0)  # g: the score
        for _ in range(_IRLS_MAX_ITER):
            if not idx.size:
                break
            delta = _solve_information(np.matvec(products, r), g)
            slack = 1e-11 * scale
            nb = b + delta
            nr, nd = deviance_parts(nb, ly)
            pending, step = (~(np.isfinite(nd) & (nd <= d + slack))).nonzero()[0], 0.5
            if pending.size:  # these rows keep their iterate and halve the step together
                nb[pending], nr[pending], nd[pending] = b[pending], r[pending], d[pending]
            while pending.size and step >= 1e-10:  # rows pending below the floor keep theirs
                cand = b[pending] + step * delta[pending]
                cr, cd = deviance_parts(cand, ly[pending])
                ok = np.isfinite(cd) & (cd <= d[pending] + slack[pending])
                acc = pending[ok]
                nb[acc], nr[acc], nd[acc] = cand[ok], cr[ok], cd[ok]
                pending, step = pending[~ok], step * 0.5
            d_old, b, r, d = d, nb, nr, nd
            if trace is not None:
                trace.append(d)
            scale, g = np.maximum(1.0, np.abs(d)), np.matvec(X.T, r - 1.0)
            done = (np.abs(d_old - d) <= _IRLS_TOL * scale) & (np.abs(g).max(axis=1) <= score_tol)
            converged[idx[done]] = True
            done[pending] = True  # stalled: stop, unconverged
            if done.any():
                beta_hat[idx[done]], keep = b[done], ~done
                idx, ly, b, r, d, scale, g = (a[keep] for a in (idx, ly, b, r, d, scale, g))
        beta_hat[idx] = b
        mu_hat = np.exp(np.matvec(X, beta_hat))
        ratio = Y / mu_hat
        sum_b = (ratio - 1.0 - np.log(ratio)).sum(axis=1)  # unit_deviance_terms
        converged &= np.isfinite(sum_b)  # exp(X beta_hat) may leave the float range
        stopped = (~converged & np.isfinite(sum_b)).nonzero()[0]
        if stopped.size:
            score_inf = np.abs(np.matvec(X.T, ratio[stopped] - 1.0)).max(axis=1)
            converged[stopped[score_inf <= _ACCEPT_SCORE]] = True
    return beta_hat, mu_hat, sum_b, converged


# The distinct entries (j, k), j <= k, of a symmetric 2 x 2 matrix, and its
# adjugate from them, u[_ADJ2] * _ADJ2_SIGN, row-major.
_UPPER2 = np.triu_indices(2)
_ADJ2, _ADJ2_SIGN = np.array([2, 1, 1, 0]), np.array([1.0, -1.0, -1.0, 1.0])


def _column_products(X: np.ndarray) -> np.ndarray:
    """The products x_j * x_k (j <= k) of the design's columns, one per row,
    so that np.matvec(products, w) holds the distinct entries of
    X' diag(w) X: a matrix-vector product per row, rounded alike in a block
    of any size."""
    j, k = _UPPER2 if X.shape[1] == 2 else np.triu_indices(X.shape[1])
    return X.T[j, :] * X.T[k, :]


def _solve_information(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x with H[i] x[i] = g[i] for every row i, where H[i] is the symmetric
    matrix with distinct entries h[i] (in :func:`_column_products` order).

    For p = 2, x is the adjugate times g over the determinant.  A row whose
    determinant is not finite and positive, and every row when p != 2, is
    solved by :func:`_solve_rows` (NaN where H[i] is singular)."""
    p = g.shape[1]
    if p != 2:
        return _solve_rows(_symmetric_matrices(h, p), g)
    adj = np.take(h, _ADJ2, axis=1) * _ADJ2_SIGN
    det = np.vecdot(h[:, :2], adj[:, :2])
    x = np.matvec(adj.reshape(-1, 2, 2), g) / det[:, None]
    bad = ~((det > 0.0) & (det < np.inf))
    if bad.any():
        x[bad] = _solve_rows(_symmetric_matrices(h[bad], p), g[bad])
    return x


def _symmetric_matrices(h: np.ndarray, p: int) -> np.ndarray:
    """The symmetric p x p matrices with distinct entries h, one per row."""
    j, k = np.triu_indices(p)
    full = np.empty((p, p), dtype=np.intp)
    full[j, k] = full[k, j] = np.arange(j.size)
    return np.take(h, full, axis=1)


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

    Values inside the floating-point cancellation floor clamp to 0.  The
    value is :func:`_precision_deviance` on the float, so it is the same
    float as the array kernels give at this precision.
    """
    v = _require_positive("precision", varphi)
    return ProfileDeviance(float(_precision_deviance(fit.n, fit.varphi_hat, v)), at=v, dims=1)


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
    value = _profile_deviance_beta_array(fit.n, vh, _cumulants(vh),
                                         profile_precision_at(data, beta))
    return ProfileDeviance(value=float(value), at=beta, dims=fit.p)


def _precision_deviance(n: int, varphi_hat, varphi, hat: tuple | None = None,
                        at: tuple | None = None):
    """:func:`profile_deviance_precision` values for estimates and precisions,
    floats or arrays that broadcast; ``hat`` and ``at`` are their
    :func:`_cumulants`, where held.  The closed form cancels near varphi_hat,
    but a float and an array element round alike."""
    c_hat, c1_hat = _cumulants(varphi_hat) if hat is None else hat
    c = (_cumulants(varphi) if at is None else at)[0]
    d = 2.0 * n * ((varphi_hat - varphi) * c1_hat + c - c_hat)
    return d * (d > 0.0)  # clamped at 0 (-0.0 for d < 0); np.maximum costs 6x more on a float


def _profile_deviance_beta_array(n: int, varphi_hat: np.ndarray, hat: tuple,
                                 varphi_at_beta: np.ndarray) -> np.ndarray:
    """:func:`profile_deviance_beta` values from the estimates, their
    :func:`_cumulants` ``hat`` and the profile precisions at the coefficient vectors."""
    c, c1 = _cumulants(varphi_at_beta)
    return np.maximum(2.0 * n * ((varphi_hat * hat[1] - hat[0]) - (varphi_at_beta * c1 - c)), 0.0)
