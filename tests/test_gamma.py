import math

import numpy as np
import pytest
from scipy import optimize
from scipy import special

from confdist import gamma
from confdist.data import Dataset
from confdist.errors import ConvergenceError, DataError, DegenerateFitError, DomainError
from confdist.gamma import (
    cumulant,
    cumulant_d1,
    cumulant_d2,
    fit_irls,
    gamma_loglik,
    profile_deviance_beta,
    profile_deviance_precision,
    profile_precision_at,
    solve_precision,
    unit_deviance_terms,
)
from confdist.numerics import RngStream, rng_draws
from confdist.pivots import PivotLaw

# Oracle values (tests/oracles.py bisection on the series digamma):
# solve log(phi) - digamma(phi) = 0.1
PRECISION_AT_MEAN_B_01 = 5.160875503410134
# y solving y - 1 - log(y) = 0.1 (for crafted unit-deviance samples)
Y_WITH_B_01 = 1.5162211614250487
# c solving log((1+c)/2) - log(c)/2 = 0.1 (two-point response pattern)
C_TWO_POINT = 2.4828477067743666


def simulate(seed, n, beta, varphi, p=2):
    """Gamma responses on a fixed gaussian-plus-intercept design."""
    rng_x = rng_draws(RngStream(seed, 10**6), "normal", n * (p - 1))
    X = np.column_stack([np.ones(n)] + list(rng_x.reshape(p - 1, n)))
    mu = np.exp(X @ np.asarray(beta))
    raw = rng_draws(RngStream(seed, 0), "gamma", n, shape=varphi, scale=1.0 / varphi)
    return Dataset(y=mu * raw, X=X)


class TestCumulant:
    def test_derivatives_by_finite_difference(self):
        h = 1e-6
        for v in [0.3, 1.0, 4.5, 20.0]:
            d1 = (cumulant(v + h) - cumulant(v - h)) / (2 * h)
            assert cumulant_d1(v) == pytest.approx(d1, abs=1e-7)
            d2 = (cumulant_d1(v + h) - cumulant_d1(v - h)) / (2 * h)
            assert cumulant_d2(v) == pytest.approx(d2, abs=1e-7)

    def test_convexity_and_slope_sign(self):
        grid = np.geomspace(0.05, 200.0, 60)
        d1 = np.array([cumulant_d1(float(v)) for v in grid])
        d2 = np.array([cumulant_d2(float(v)) for v in grid])
        assert np.all(d2 > 0)
        assert np.all(d1 < 0)
        assert np.all(np.diff(d1) > 0)  # increasing toward 0

    def test_domain(self):
        for fn in (cumulant, cumulant_d1, cumulant_d2):
            with pytest.raises(DomainError):
                fn(0.0)


class TestLoglik:
    def test_unit_deviance_single_point(self):
        # y = 1, mu = e: b = (1 - e)/e + 1 = 1/e
        b = unit_deviance_terms(np.array([1.0]), np.array([math.e]))
        assert b[0] == pytest.approx(1.0 / math.e, abs=1e-14)

    def test_unit_deviance_nonnegative(self):
        rng = np.random.default_rng(0)
        y = rng.gamma(2.0, 1.0, 50)
        mu = rng.gamma(2.0, 1.0, 50)
        b = unit_deviance_terms(y, mu)
        assert np.all(b >= 0.0)
        assert unit_deviance_terms(np.array([3.3]), np.array([3.3]))[0] == 0.0

    def test_loglik_at_saturated_mean(self):
        y = np.array([1.0, 2.0, 3.0])
        X = np.eye(3)[:, :2]  # arbitrary; we bypass it with mu = y via beta on identity
        ds = Dataset(y=y, X=np.column_stack([np.ones(3), np.array([0.0, 1.0, 0.0])]))
        # choose beta so mu = y is impossible here; instead test the formula directly
        varphi = 2.5
        mu = y.copy()
        total = -varphi * unit_deviance_terms(y, mu).sum() - 3 * cumulant(varphi)
        assert total == pytest.approx(-3.0 * cumulant(varphi), abs=1e-12)

    def test_concave_in_precision(self):
        ds = simulate(3, 30, [0.5, -0.2], 2.0)
        fit = fit_irls(ds)
        grid = np.geomspace(0.3, 20.0, 40)
        vals = [gamma_loglik(fit.beta_hat, float(v), ds) for v in grid]
        second = np.diff(vals, 2)
        assert np.all(second <= 1e-9)

    def test_nonpositive_response_rejected(self):
        ds = Dataset(y=np.array([1.0, -1.0, 2.0]), X=np.ones((3, 1)))
        with pytest.raises(DataError):
            gamma_loglik(np.zeros(1), 1.0, ds)


class TestSolvePrecision:
    def test_frozen_oracle_value(self):
        assert solve_precision(0.1) == pytest.approx(PRECISION_AT_MEAN_B_01, abs=1e-8)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inverts_score_over_range(self):
        # both solvers, from mean unit deviances where the classical start
        # holds to ones where it cancels to 0 (from ~1e18) and its square
        # overflows (~1e154): the score log(phi) - digamma(phi) - m vanishes
        # to its evaluation noise
        m = np.logspace(-13, 300, 2000)
        for phi in (np.array([solve_precision(v) for v in m]), gamma._solve_precision_array(m)):
            assert np.all(phi > 0.0)
            noise = np.maximum(1e-15, 8e-16 * (1.0 + np.abs(np.log(phi)) + m))
            assert np.all(np.abs(np.log(phi) - special.psi(phi) - m) <= 2.0 * noise)
        for v in [1e-4, 0.01, 0.5, 3.0, 20.0]:
            assert cumulant_d1(solve_precision(v)) == pytest.approx(-v, abs=1e-11 * max(1.0, v))

    def test_open_after_the_budget_is_a_named_failure(self, monkeypatch):
        monkeypatch.setattr(gamma, "_PRECISION_STEPS", 1)
        with pytest.raises(ConvergenceError, match="still open after 1 steps"):
            solve_precision(0.1)
        got = gamma._solve_precision_array(np.array([0.1, 1e300]))
        assert np.isnan(got[0]) and got[1] == 1e-300

    def test_invalid_mean(self):
        with pytest.raises(DomainError):
            solve_precision(0.0)


class TestFitIrls:
    def test_intercept_only_matches_mean(self):
        y = np.array([1.0, C_TWO_POINT] * 5)
        fit = fit_irls(Dataset(y=y, X=np.ones((10, 1))))
        assert fit.beta_hat[0] == pytest.approx(math.log(y.mean()), abs=1e-10)
        # crafted so the mean unit deviance is exactly 0.1
        assert fit.varphi_hat == pytest.approx(PRECISION_AT_MEAN_B_01, abs=1e-8)

    def test_score_equations_hold(self):
        ds = simulate(11, 40, [0.3, 0.7], 3.0)
        fit = fit_irls(ds)
        score_beta = ds.X.T @ (ds.y / fit.mu_hat - 1.0)
        assert np.max(np.abs(score_beta)) < 1e-8
        score_prec = fit.n * cumulant_d1(fit.varphi_hat) + fit.sum_b
        assert abs(score_prec) < 1e-8

    def test_noise_free_perfect_fit(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(12), rng.normal(size=12)])
        beta0 = np.array([0.4, -1.1])
        ds = Dataset(y=np.exp(X @ beta0), X=X)
        with pytest.raises(DegenerateFitError) as err:
            fit_irls(ds)
        np.testing.assert_allclose(err.value.beta_hat, beta0, atol=1e-8)

    def test_loglik_consistent(self):
        ds = simulate(8, 25, [0.2, 0.5], 1.5)
        fit = fit_irls(ds)
        assert fit.loglik == pytest.approx(
            gamma_loglik(fit.beta_hat, fit.varphi_hat, ds), abs=1e-10
        )

    def test_row_permutation_equivariance(self):
        ds = simulate(21, 35, [0.1, 0.9], 2.5)
        fit = fit_irls(ds)
        perm = np.random.default_rng(5).permutation(35)
        ds_perm = Dataset(y=ds.y[perm], X=ds.X[perm])
        fit_perm = fit_irls(ds_perm)
        np.testing.assert_allclose(fit_perm.beta_hat, fit.beta_hat, atol=1e-12)
        assert fit_perm.varphi_hat == pytest.approx(fit.varphi_hat, abs=1e-12)
        d1 = profile_deviance_precision(fit, 1.3).value
        d2 = profile_deviance_precision(fit_perm, 1.3).value
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_convergence_error_carries_trace(self):
        # one IRLS pass cannot converge from a cold start on real data
        ds = simulate(2, 30, [0.5, -0.4], 2.0)
        with pytest.raises(ConvergenceError) as err:
            fit_irls(ds, max_iter=1)
        assert len(err.value.trace) >= 1


class TestProfileDeviances:
    def test_zero_at_the_estimates(self):
        ds = simulate(31, 30, [0.5, -0.3], 4.0)
        fit = fit_irls(ds)
        assert profile_deviance_precision(fit, fit.varphi_hat).value == 0.0
        assert profile_deviance_beta(ds, fit, fit.beta_hat).value == 0.0

    def test_nonnegative_on_precision_grid(self):
        ds = simulate(32, 30, [0.5, -0.3], 4.0)
        fit = fit_irls(ds)
        grid = fit.varphi_hat * np.geomspace(0.1, 10.0, 41)
        for v in grid:
            assert profile_deviance_precision(fit, float(v)).value >= 0.0

    def test_precision_closed_form_matches_brute_force(self):
        ds = simulate(33, 45, [0.2, 0.6], 2.0)
        fit = fit_irls(ds)
        base = gamma_loglik(fit.beta_hat, fit.varphi_hat, ds)
        for v in [0.5, 1.1, 3.7, 9.0]:
            brute = 2.0 * (base - gamma_loglik(fit.beta_hat, v, ds))
            closed = profile_deviance_precision(fit, v).value
            assert closed == pytest.approx(brute, abs=1e-10)

    def test_beta_closed_form_matches_brute_force(self):
        ds = simulate(34, 45, [0.2, 0.6], 2.0)
        fit = fit_irls(ds)
        base = gamma_loglik(fit.beta_hat, fit.varphi_hat, ds)
        rng = np.random.default_rng(17)
        for _ in range(5):
            beta = fit.beta_hat + rng.normal(scale=0.3, size=2)
            vt = profile_precision_at(ds, beta)
            brute = 2.0 * (base - gamma_loglik(beta, vt, ds))
            closed = profile_deviance_beta(ds, fit, beta).value
            assert closed == pytest.approx(brute, abs=1e-10)

    def test_beta_profile_against_scalar_maximization_oracle(self):
        # profile precision by independent one-dimensional maximization
        ds = simulate(35, 30, [0.4, -0.2], 3.0)
        fit = fit_irls(ds)
        beta = fit.beta_hat + np.array([0.25, -0.15])
        res = optimize.minimize_scalar(
            lambda v: -gamma_loglik(beta, v, ds), bounds=(1e-3, 100.0), method="bounded",
            options={"xatol": 1e-12},
        )
        base = gamma_loglik(fit.beta_hat, fit.varphi_hat, ds)
        brute = 2.0 * (base + res.fun)
        assert profile_deviance_beta(ds, fit, beta).value == pytest.approx(brute, abs=1e-8)

    def test_monotone_along_rays(self):
        ds = simulate(36, 30, [0.4, -0.2], 3.0)
        fit = fit_irls(ds)
        rng = np.random.default_rng(9)
        for _ in range(4):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            vals = [
                profile_deviance_beta(ds, fit, fit.beta_hat + t * u).value
                for t in np.linspace(0.0, 1.2, 13)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_degenerate_beta_rejected(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(12), rng.normal(size=12)])
        beta0 = np.array([0.4, -1.1])
        y = np.exp(X @ beta0)
        noisy = y * np.exp(rng.normal(scale=0.2, size=12))
        ds = Dataset(y=noisy, X=X)
        fit = fit_irls(ds)
        perfect = Dataset(y=np.exp(X @ beta0), X=X)
        with pytest.raises(DegenerateFitError):
            profile_precision_at(perfect, beta0)


class TestChisqCalibration:
    """First-order deviances at the truth approach their chi-square laws."""

    def test_kolmogorov_distance_at_n200(self):
        n, reps = 200, 10_000
        beta0 = np.array([0.5, -0.3])
        varphi0 = 2.0
        x_draws = rng_draws(RngStream(606, 10**6), "normal", n)
        X = np.column_stack([np.ones(n), x_draws])
        mu = np.exp(X @ beta0)
        dp_prec = np.empty(reps)
        dp_beta = np.empty(reps)
        for r in range(reps):
            raw = rng_draws(RngStream(606, r), "gamma", n, shape=varphi0, scale=1.0 / varphi0)
            ds = Dataset(y=mu * raw, X=X)
            fit = fit_irls(ds)
            dp_prec[r] = profile_deviance_precision(fit, varphi0).value
            dp_beta[r] = profile_deviance_beta(ds, fit, beta0).value

        for sample, df in [(dp_prec, 1.0), (dp_beta, 2.0)]:
            sample = np.sort(sample)
            cdf = np.array([PivotLaw.chisq(df).cdf(float(x)) for x in sample])
            ecdf_hi = np.arange(1, reps + 1) / reps
            ecdf_lo = np.arange(0, reps) / reps
            ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
            assert ks < 0.03
