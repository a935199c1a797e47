"""Independent reference computations for checking the CLI's outputs.

Written with numpy and scipy only, never with ``confdist``, so a change in
the package cannot move its own yardstick.  Also used to place confidence
density grids around each dataset's estimate.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special


def ols(y: np.ndarray, X: np.ndarray) -> dict:
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    resid = y - X @ beta
    df = len(y) - X.shape[1]
    return {"beta": beta, "rss": float(resid @ resid), "df": df, "xtx": X.T @ X}


def solve_precision(mean_b: float) -> float:
    """Root of log(v) - digamma(v) = mean_b (unique: the left side decreases)."""
    return optimize.brentq(lambda v: math.log(v) - special.psi(v) - mean_b,
                           1e-8, 1e10, xtol=1e-14, rtol=1e-15)


def _mean_unit_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    r = y / mu
    return float(np.mean(r - 1.0 - np.log(r)))


def gamma_fit(y: np.ndarray, X: np.ndarray) -> dict:
    """Log-link gamma maximum likelihood by plain iteratively reweighted LS."""
    beta = np.linalg.lstsq(X, np.log(y), rcond=None)[0]
    dev = _mean_unit_deviance(y, np.exp(X @ beta))
    for _ in range(500):
        eta = X @ beta
        mu = np.exp(eta)
        proposal = np.linalg.lstsq(X, eta + (y - mu) / mu, rcond=None)[0]
        step = 1.0
        while True:
            candidate = beta + step * (proposal - beta)
            new_dev = _mean_unit_deviance(y, np.exp(X @ candidate))
            if new_dev <= dev or step < 1e-12:
                break
            step *= 0.5
        moved = float(np.max(np.abs(candidate - beta)))
        beta, dev = candidate, new_dev
        if moved < 1e-13:
            break
    return {"beta": beta, "n": len(y), "varphi": solve_precision(dev)}


def known_mean_fit(y: np.ndarray) -> dict:
    return {"n": len(y), "varphi": solve_precision(float(np.mean(y - 1.0 - np.log(y))))}


def _cumulant(v: float) -> float:
    return special.gammaln(v) - v * math.log(v) + v


def signed_precision_root(n: int, varphi_hat: float, varphi: float) -> float:
    """First-order signed root of the precision profile deviance."""
    d1 = special.psi(varphi_hat) - math.log(varphi_hat)
    d = 2.0 * n * ((varphi_hat - varphi) * d1 + _cumulant(varphi) - _cumulant(varphi_hat))
    return math.copysign(math.sqrt(max(d, 0.0)), varphi_hat - varphi)


def precision_grid(n: int, varphi_hat: float, z: float = 3.5) -> tuple[float, float]:
    """Precision values where the first-order signed root reaches +z and -z."""
    lo = optimize.brentq(lambda v: signed_precision_root(n, varphi_hat, v) - z,
                         varphi_hat * 1e-6, varphi_hat)
    hi = optimize.brentq(lambda v: signed_precision_root(n, varphi_hat, v) + z,
                         varphi_hat, varphi_hat * 1e6)
    return lo, hi


# Quantiles come from scipy.special rather than scipy.stats: the inputs are
# made during set-up, and importing scipy.stats would add its own import time
# to the measured set-up.


def _chisq_quantile(p: float, df: int) -> float:
    return special.chdtri(df, 1.0 - p)


def variance_grid(rss: float, df: int, tail: float = 5e-4) -> tuple[float, float]:
    return rss / _chisq_quantile(1.0 - tail, df), rss / _chisq_quantile(tail, df)


def variance_endpoint(rss: float, df: int, level: float, side: str) -> float:
    """Endpoint t with C(phi >= t) = level (lower) or C(phi <= t) = level (upper)."""
    return rss / _chisq_quantile(level if side == "lower" else 1.0 - level, df)


def variance_density(rss: float, df: int, phi: np.ndarray) -> np.ndarray:
    """Chi-square(df) density at rss/phi times the jacobian rss/phi**2."""
    x = rss / phi
    k = 0.5 * df
    log_pdf = (k - 1.0) * np.log(x) - 0.5 * x - k * math.log(2.0) - special.gammaln(k)
    return np.exp(log_pdf) * rss / phi**2


def contrast_endpoint(fit: dict, b: np.ndarray, level: float, side: str) -> float:
    se = math.sqrt(float(b @ np.linalg.solve(fit["xtx"], b)) * fit["rss"] / fit["df"])
    q = special.stdtrit(fit["df"], level if side == "lower" else 1.0 - level)
    return float(b @ fit["beta"]) - se * q


def first_order_root_target(level: float, side: str) -> float:
    """Signed-root value a first-order precision endpoint must reach."""
    return special.ndtri(level if side == "lower" else 1.0 - level)
