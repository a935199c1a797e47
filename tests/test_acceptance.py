"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

import oracles
from confdist.coverage import Scenario, compare_methods, mean_absolute_error, run_scenario
from confdist.data import Dataset
from confdist.gamma import (
    cumulant_d1,
    cumulant_d2,
    fit_irls,
    gamma_loglik,
    profile_deviance_beta,
    profile_deviance_precision,
    profile_precision_at,
)
from confdist.higher_order import (
    corrected_deviance_value,
    fit_known_mean,
    fraser_root_known_mu,
    modified_root_value,
    skovgaard_beta,
    skovgaard_precision,
)
from confdist.linear import LinearFit, contrast, contrast_pivot, variance_pivot
from confdist.numerics import (
    RealGrid,
    RngStream,
    digamma,
    find_root,
    integrate,
    rng_draws,
    trigamma,
)
from confdist.pivots import PivotLaw, invert_pivot, location_pivot, parameter_density

from test_higher_order import loops_det, loops_solve


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def gamma_instance(seed: int, n: int, p: int, varphi: float):
    beta = rng_draws(RngStream(seed, 1), "normal", p) * 0.5
    if p == 1:
        X = np.ones((n, 1))
    else:
        xs = rng_draws(RngStream(seed, 2), "normal", n * (p - 1))
        X = np.column_stack([np.ones(n)] + list(xs.reshape(p - 1, n)))
    mu = np.exp(X @ beta)
    raw = rng_draws(RngStream(seed, 0), "gamma", n, shape=varphi, scale=1.0 / varphi)
    return Dataset(y=mu * raw, X=X), beta


def test_criterion_1_exact_confidence_feature():
    """Chi-square/t/F one-sided coverage within 3 binomial sigma at n=15, p=3."""
    start = time.monotonic()
    reps = 10_000
    sc = Scenario(
        model="normal_regression",
        n=15,
        replications=reps,
        seed=20240801,
        levels=(0.05, 0.5, 0.95),
        methods=("variance_chisq", "contrast_t", "coefficient_f"),
        beta=(1.0, -0.5, 0.25),
        phi=2.0,
    )
    rep = run_scenario(sc, jobs=2)
    worst = 0.0
    for method in sc.methods:
        for level in sc.levels:
            bound = 3.0 * math.sqrt(level * (1.0 - level) / reps)
            gap = abs(rep.coverage(method, level) - level)
            worst = max(worst, gap / bound)
            assert gap < bound, (method, level, rep.coverage(method, level))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"expected under a minute, took {elapsed:.1f}s"
    report(1, f"3 exact pivots x 3 levels within 3 sigma "
              f"(worst gap {worst:.2f} of bound, {elapsed:.1f}s)")


def test_criterion_2_density_tail_identity():
    """Integrated confidence density over {v <= b} equals the law CDF at b."""
    fit = LinearFit(beta_hat=np.array([0.7]), phi_hat_m=1.3, xtx=np.eye(1),
                    df=10, n=11, p=1)
    con = contrast(fit, np.array([1.0]))
    cases = [
        ("location", location_pivot(1.5), RealGrid(np.linspace(-4.0, 7.0, 41))),
        ("variance", variance_pivot(fit), RealGrid(np.linspace(0.2, 9.0, 41))),
        ("contrast", contrast_pivot(fit, con), RealGrid(np.linspace(-5.0, 6.0, 41))),
    ]
    worst = 0.0
    for name, pivot, grid in cases:
        dens = parameter_density(pivot, grid)
        lo_q, hi_q = pivot.law.cdf(-math.inf), None
        bounds = [pivot.law.quantile(q) for q in np.linspace(0.02, 0.98, 20)]
        for b in bounds:
            theta_b = invert_pivot(pivot, float(b))
            if pivot.monotonic == "decreasing":
                mass = dens.mass(theta_b, math.inf, tol=1e-10)
            else:
                mass = dens.mass(-math.inf, theta_b, tol=1e-10)
            gap = abs(mass - pivot.law.cdf(float(b)))
            worst = max(worst, gap)
            assert gap <= 1e-6, (name, b, mass)
    report(2, f"3 densities x 20 bounds, max |mass - CDF| = {worst:.2e} <= 1e-6")


def test_criterion_3_gamma_mle_correctness():
    """Score equations to 1e-8 and closed-form deviances to 1e-10, 100 instances."""
    rng = np.random.default_rng(20240803)
    worst_score = worst_dev = 0.0
    for i in range(100):
        n = int(rng.integers(10, 201))
        p = int(rng.integers(1, 5))
        varphi = float(rng.uniform(0.5, 5.0))
        ds, _ = gamma_instance(3000 + i, n, p, varphi)
        fit = fit_irls(ds)

        score_beta = float(np.max(np.abs(ds.X.T @ (ds.y / fit.mu_hat - 1.0))))
        score_prec = abs(fit.n * cumulant_d1(fit.varphi_hat) + fit.sum_b)
        worst_score = max(worst_score, score_beta, score_prec)
        assert score_beta <= 1e-8 and score_prec <= 1e-8, (i, score_beta, score_prec)

        base = gamma_loglik(fit.beta_hat, fit.varphi_hat, ds)
        v = fit.varphi_hat * float(rng.uniform(0.4, 2.5))
        brute_prec = 2.0 * (base - gamma_loglik(fit.beta_hat, v, ds))
        gap_p = abs(profile_deviance_precision(fit, v).value - brute_prec)

        beta_off = fit.beta_hat + rng.normal(scale=0.2, size=p)
        vt = profile_precision_at(ds, beta_off)
        brute_beta = 2.0 * (base - gamma_loglik(beta_off, vt, ds))
        gap_b = abs(profile_deviance_beta(ds, fit, beta_off).value - brute_beta)

        worst_dev = max(worst_dev, gap_p, gap_b)
        assert gap_p <= 1e-10 and gap_b <= 1e-10, (i, gap_p, gap_b)
    report(3, f"100 instances: worst score {worst_score:.2e} <= 1e-8, "
              f"worst deviance gap {worst_dev:.2e} <= 1e-10")


def test_criterion_4_higher_order_formulas_verbatim():
    """Corrected root and deviance match loop-based recomputation to 1e-10."""
    # exact algebraic identities first
    for zp in (-1.7, -0.2, 0.4, 2.2):
        assert modified_root_value(zp, zp) == zp
    for dp in (0.01, 1.0, 7.5):
        assert corrected_deviance_value(dp, 1.0) == (dp, False)

    rng = np.random.default_rng(20240804)
    worst = 0.0

    def close(a, b):
        return abs(a - b) <= 1e-10 * max(1.0, abs(a))

    for i in range(50):
        # modified root on a known-mean sample
        n = int(rng.integers(10, 51))
        varphi = float(rng.uniform(1.0, 4.0))
        y = rng_draws(RngStream(4000 + i, 0), "gamma", n, shape=varphi, scale=1.0 / varphi)
        km = fit_known_mean(y)
        v = km.varphi_hat * (0.45 if i % 2 else 1.9)
        root = fraser_root_known_mu(y, v)
        kp = oracles.digamma_oracle(km.varphi_hat) - math.log(km.varphi_hat)
        dp = 2.0 * n * (
            (km.varphi_hat - v) * kp
            + (math.lgamma(v) - v * math.log(v) + v)
            - (math.lgamma(km.varphi_hat) - km.varphi_hat * math.log(km.varphi_hat)
               + km.varphi_hat)
        )
        zp = math.copysign(math.sqrt(max(dp, 0.0)), km.varphi_hat - v)
        kpp = oracles.trigamma_oracle(km.varphi_hat) - 1.0 / km.varphi_hat
        m = math.sqrt(n * kpp) * (km.varphi_hat - v)
        z = zp + math.log(m / zp) / zp
        assert not root.interpolated
        for lib, loop in ((root.signed_root, zp), (root.correction, m), (root.value, z)):
            worst = max(worst, abs(lib - loop))
            assert close(lib, loop), (i, lib, loop)

        # corrected deviances on a regression instance
        n2 = int(rng.integers(15, 61))
        p = int(rng.integers(1, 4))
        ds, _ = gamma_instance(4500 + i, n2, p, varphi)
        fit = fit_irls(ds)

        v2 = fit.varphi_hat * (0.5 if i % 2 else 2.0)
        cd = skovgaard_precision(ds, fit, v2)
        X = [[float(c) for c in row] for row in ds.X]
        yy = list(map(float, ds.y))
        mu = list(map(float, fit.mu_hat))
        r = [(yy[k] - mu[k]) / mu[k] for k in range(n2)]
        xr = [sum(X[k][j] * r[k] for k in range(n2)) for j in range(p)]
        M = [
            [sum(X[k][a] * (yy[k] / mu[k]) * X[k][b] for k in range(n2)) for b in range(p)]
            for a in range(p)
        ]
        quad = sum(xr[j] * w for j, w in enumerate(loops_solve(M, xr)))

        def kpp_at(u):
            return oracles.trigamma_oracle(u) - 1.0 / u

        m2 = (n2 * kpp_at(fit.varphi_hat)) / (n2 * kpp_at(v2) - quad / v2)
        d2 = cd.deviance + math.log(m2) / (2.0 * cd.deviance)
        assert not cd.interpolated and not cd.correction_unavailable
        worst = max(worst, abs(cd.correction - m2), abs(cd.value - d2))
        assert close(cd.correction, m2) and close(cd.value, d2), i

        # determinant form for the coefficient vector
        shift = rng.normal(scale=0.35, size=p)
        beta_off = fit.beta_hat + shift
        cb = skovgaard_beta(ds, fit, beta_off)
        if cb.interpolated or cb.correction_unavailable:
            continue
        vt = profile_precision_at(ds, beta_off)
        mu_b = [math.exp(sum(X[k][j] * beta_off[j] for j in range(p))) for k in range(n2)]
        rb = [(yy[k] - mu_b[k]) / mu_b[k] for k in range(n2)]
        xrb = [sum(X[k][j] * rb[k] for k in range(n2)) for j in range(p)]
        num = [
            [fit.varphi_hat * sum(X[k][a] * X[k][b] for k in range(n2)) for b in range(p)]
            for a in range(p)
        ]
        den = [
            [
                vt * sum(X[k][a] * (yy[k] / mu_b[k]) * X[k][b] for k in range(n2))
                - xrb[a] * xrb[b] / (n2 * kpp_at(vt))
                for b in range(p)
            ]
            for a in range(p)
        ]
        mb = loops_det(num) / loops_det(den)
        db = cb.deviance + math.log(mb) / (2.0 * cb.deviance)
        worst = max(worst, abs(cb.correction - mb) / max(1.0, abs(mb)),
                    abs(cb.value - db))
        assert close(cb.correction, mb) and close(cb.value, db), i
    report(4, f"50 instances recomputed by loops, worst gap {worst:.2e} <= 1e-10; "
              "m=z_p and m=1 identities exact")


def test_criterion_5_coverage_dominance():
    """Modified-root intervals beat first-order ones at n=10 over 1e5 draws."""
    start = time.monotonic()
    sc = Scenario(
        model="gamma_known_mu",
        n=10,
        replications=100_000,
        seed=20240802,
        levels=(0.025, 0.05, 0.10, 0.90, 0.95, 0.975),
        methods=("first_order_z", "fraser_z"),
        varphi=2.0,
    )
    rep = run_scenario(sc, jobs=2)
    cmp = compare_methods(rep, "first_order_z", "fraser_z")
    if cmp.verdict == "mixed":
        print(cmp.table())
        pytest.fail(
            "mixed verdict: the corrected root improved some levels and hurt "
            "others. The correction formulas are implemented verbatim from "
            "their source (sign convention included); this outcome is "
            "reported rather than silently adjusted. Per-level table above."
        )
    mae_first = mean_absolute_error(rep, "first_order_z")
    mae_fraser = mean_absolute_error(rep, "fraser_z")
    assert mae_fraser < mae_first, (mae_fraser, mae_first)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"expected under five minutes, took {elapsed:.1f}s"
    report(5, f"mean |coverage error| {mae_fraser:.5f} (corrected) < "
              f"{mae_first:.5f} (first-order), verdict {cmp.verdict}, {elapsed:.0f}s")


def test_criterion_6_asymptotic_consistency():
    """Corrected and first-order roots converge: 10x gap drop from n=10 to n=1000."""
    varphi0 = 2.0

    def max_gap(n: int) -> float:
        y = rng_draws(RngStream(20240806, 0), "gamma", n, shape=varphi0,
                      scale=1.0 / varphi0)
        km = fit_known_mean(y)
        scale = 1.0 / math.sqrt(km.n * cumulant_d2(km.varphi_hat))
        gaps = []
        # matched-confidence grid: the signed root spans [-2.5, 2.5], the
        # region one-sided confidence statements actually use
        for zp in np.linspace(-2.5, 2.5, 41):
            if abs(zp) < 0.1:
                continue
            v = km.varphi_hat - zp * scale
            if v <= 0.0:
                continue
            root = fraser_root_known_mu(y, float(v))
            if not root.interpolated:
                gaps.append(abs(root.value - root.signed_root))
        return max(gaps)

    g10, g1000 = max_gap(10), max_gap(1000)
    assert g1000 < 0.1 * g10, (g10, g1000, g1000 / g10)
    report(6, f"max |corrected - first-order| root gap: {g10:.4f} at n=10, "
              f"{g1000:.4f} at n=1000 (ratio {g1000 / g10:.3f} < 0.1)")


def test_criterion_7_special_function_oracles():
    """Every numerics operation matches its brute-force oracle on fixed grids."""
    start = time.monotonic()

    for x in np.linspace(-6.0, 6.0, 25):
        assert abs(PivotLaw.normal().cdf(float(x)) - oracles.normal_cdf_oracle(float(x))) <= 1e-12
    for k, x in [(0.7, 0.4), (1.0, 1.0), (5.0, 5.0), (9.5, 3.0)]:  # P(k, x) = chisq(2k) at 2x
        assert abs(
            PivotLaw.chisq(2.0 * k).cdf(2.0 * x) - oracles.lower_regularized_gamma_oracle(k, x)
        ) <= 1e-10
    for x in [0.3, 1.0, 2.5, 8.0, 40.0]:
        assert abs(digamma(x) - oracles.digamma_oracle(x)) <= 1e-10
        assert abs(trigamma(x) - oracles.trigamma_oracle(x)) <= 1e-10
    for df in (1.0, 4.0, 11.5):
        for x in np.linspace(0.05, 4.0 * df, 50):
            assert abs(PivotLaw.chisq(df).cdf(float(x))
                       - oracles.chisq_cdf_oracle(float(x), df)) <= 1e-9
    for df in (2.0, 5.0, 30.0):
        for x in np.linspace(-6.0, 6.0, 50):
            assert abs(PivotLaw.student_t(df).cdf(float(x))
                       - oracles.t_cdf_oracle(float(x), df)) <= 1e-9
    for df1, df2 in ((2.0, 10.0), (5.0, 7.0)):
        for x in np.linspace(0.05, 12.0, 50):
            assert abs(
                PivotLaw.f(df1, df2).cdf(float(x)) - oracles.f_cdf_oracle(float(x), df1, df2)
            ) <= 1e-9

    # root finding against the bisection oracle
    q95 = find_root(lambda u: PivotLaw.normal().cdf(u) - 0.95, (0.0, 10.0), tol=1e-12)
    assert abs(q95 - oracles.normal_quantile_oracle(0.95)) <= 1e-9
    # quadrature against closed forms and the oracle value
    assert abs(integrate(PivotLaw.normal().pdf, (-math.inf, math.inf), tol=1e-10) - 1.0) <= 1e-10
    chi_mass = integrate(PivotLaw.chisq(10.0).pdf, (0.0, 10.0), tol=1e-10)
    assert abs(chi_mass - oracles.lower_regularized_gamma_oracle(5.0, 5.0)) <= 1e-9

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"expected under ten seconds, took {elapsed:.1f}s"
    report(7, f"special functions, roots, and quadrature match oracles ({elapsed:.1f}s)")


def test_criterion_8_determinism_across_jobs():
    """A coverage scenario emits byte-identical CSV for jobs in {1, 4, 8}."""
    sc = Scenario(
        model="normal_regression",
        n=15,
        replications=2_000,
        seed=20240808,
        levels=(0.05, 0.5, 0.95),
        methods=("variance_chisq", "contrast_t", "coefficient_f"),
        beta=(1.0, -0.5, 0.25),
        phi=2.0,
    )
    outputs = {jobs: run_scenario(sc, jobs=jobs).to_csv().encode() for jobs in (1, 4, 8)}
    assert outputs[1] == outputs[4] == outputs[8]
    report(8, f"byte-identical CSV across job counts 1/4/8 "
              f"({len(outputs[1])} bytes)")
