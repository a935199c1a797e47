import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import digamma

from confdist.coverage import METHODS
from confdist.data import Dataset
from confdist.errors import ContractViolationError, DomainError
from confdist.gamma import (
    GammaFit,
    _cumulant_d2_array,
    _profile_deviance_precision_array,
    cumulant,
    cumulant_d2,
    fit_irls,
)
from confdist.higher_order import (
    ROOT_WINDOW,
    CorrectedDeviance,
    _precision_window_nodes,
    _window_cubics,
    ball_confidence,
    corrected_deviance_value,
    fit_known_mean,
    fraser_curve,
    fraser_pivot,
    fraser_root_known_mu,
    modified_root_value,
    signed_precision_root,
    signed_root_confidence,
    skovgaard_beta,
    skovgaard_precision,
)
from confdist.numerics import RealGrid, RngStream, rng_draws
from confdist.pivots import Pivot, PivotLaw, interval_endpoint, parameter_density

NORMAL_Q95 = 1.6448536269514946
# y* solving y - 1 - log(y) = 0.1; a sample of copies has mean unit deviance 0.1
Y_WITH_B_01 = 1.5162211614250487
PRECISION_AT_MEAN_B_01 = 5.160875503410134


# ---------------------------------------------------------------------------
# Loop-based recomputation helpers (no numpy linear algebra, no shared paths)
# ---------------------------------------------------------------------------


def loops_solve(M, v):
    """Gaussian elimination with partial pivoting on plain lists."""
    p = len(v)
    A = [row[:] + [v[i]] for i, row in enumerate(M)]
    for col in range(p):
        piv = max(range(col, p), key=lambda r: abs(A[r][col]))
        A[col], A[piv] = A[piv], A[col]
        for r in range(col + 1, p):
            f = A[r][col] / A[col][col]
            for c in range(col, p + 1):
                A[r][c] -= f * A[col][c]
    x = [0.0] * p
    for r in range(p - 1, -1, -1):
        s = A[r][p] - sum(A[r][c] * x[c] for c in range(r + 1, p))
        x[r] = s / A[r][r]
    return x


def loops_det(M):
    """Determinant by cofactor expansion along the first row."""
    p = len(M)
    if p == 1:
        return M[0][0]
    total = 0.0
    for j in range(p):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1.0) ** j * M[0][j] * loops_det(minor)
    return total


def loops_cumulant(v):
    return math.lgamma(v) - v * math.log(v) + v


def loops_signed_root(n, vh, v, kp_at_vh):
    dp = 2.0 * n * ((vh - v) * kp_at_vh + loops_cumulant(v) - loops_cumulant(vh))
    dp = max(dp, 0.0)
    return math.copysign(math.sqrt(dp), vh - v), dp


def known_mean_sample(n=10, mean_b=0.1):
    return np.full(n, Y_WITH_B_01 if mean_b == 0.1 else mean_b)


def simulate_gamma(seed, n, beta, varphi):
    p = len(beta)
    xs = rng_draws(RngStream(seed, 10**6), "normal", n * (p - 1))
    X = np.column_stack([np.ones(n)] + list(xs.reshape(p - 1, n)))
    mu = np.exp(X @ np.asarray(beta))
    raw = rng_draws(RngStream(seed, 0), "gamma", n, shape=varphi, scale=1.0 / varphi)
    return Dataset(y=mu * raw, X=X)


class TestRawFormulas:
    def test_root_is_exact_when_correction_equals_root(self):
        for zp in [-2.0, -0.3, 0.4, 1.7]:
            assert modified_root_value(zp, zp) == zp

    def test_deviance_is_exact_when_correction_is_one(self):
        for dp in [0.01, 0.8, 4.0]:
            value, clamped = corrected_deviance_value(dp, 1.0)
            assert value == dp and not clamped

    def test_root_formula_arithmetic(self):
        zp, m = 1.3, 1.5
        assert modified_root_value(zp, m) == pytest.approx(
            zp + math.log(m / zp) / zp, abs=1e-16
        )

    def test_deviance_clamped_when_correction_tiny(self):
        value, clamped = corrected_deviance_value(0.2, 1e-9)
        assert value == 0.0 and clamped

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            modified_root_value(0.0, 1.0)
        with pytest.raises(DomainError):
            modified_root_value(1.0, -1.0)
        with pytest.raises(DomainError):
            corrected_deviance_value(0.0, 1.0)


class TestFraserRoot:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 300), shape=st.floats(0.3, 50.0), seed=st.integers(0, 2**32 - 1))
    def test_fit_is_gamma_regression_with_no_coefficients(self, n, shape, seed):
        y = np.random.default_rng(seed).gamma(shape, 1.0 / shape, size=n)
        fit = fit_known_mean(y)
        assert fit.p == 0 and fit.beta_hat.shape == (0,) and np.array_equal(fit.mu_hat, np.ones(n))
        # the mean unit deviance the known-mean fit always had, bit for bit
        assert fit.sum_b / n == float((y - 1 - np.log(y)).mean())
        assert fit.loglik == -fit.varphi_hat * fit.sum_b - n * cumulant(fit.varphi_hat)

    def test_at_the_estimate_interpolated(self):
        # the corrected root has a finite O(1/sqrt(n)) limit at the estimate;
        # the interpolated value must stay inside the window-node range
        y = rng_draws(RngStream(50, 0), "gamma", 10, shape=2.0, scale=0.5)
        vh = fit_known_mean(y).varphi_hat
        root = fraser_root_known_mu(y, vh)
        assert root.signed_root == 0.0
        assert root.interpolated
        assert math.isfinite(root.value)
        near = [fraser_root_known_mu(y, vh * (1 + s)).value for s in (-0.02, 0.02)]
        assert min(near) - 0.05 <= root.value <= max(near) + 0.05

    def test_at_the_estimate_vanishes_for_large_samples(self):
        y = rng_draws(RngStream(50, 1), "gamma", 4000, shape=2.0, scale=0.5)
        vh = fit_known_mean(y).varphi_hat
        root = fraser_root_known_mu(y, vh)
        assert root.interpolated
        assert abs(root.value) < 0.02

    def test_known_sample_formula_recomputation(self):
        # constant sample with unit deviance 0.1 each: vh ~ 5.1609
        y = known_mean_sample(10)
        km = fit_known_mean(y)
        assert km.varphi_hat == pytest.approx(PRECISION_AT_MEAN_B_01, abs=1e-8)
        v = km.varphi_hat / 2.0
        root = fraser_root_known_mu(y, v)

        # independent recomputation from (vh, n) with stdlib math only
        n, vh = km.n, km.varphi_hat
        # digamma via series with Euler-Maclaurin tail (see oracles module)
        import oracles

        kp = oracles.digamma_oracle(vh) - math.log(vh)
        zp, _ = loops_signed_root(n, vh, v, kp)
        kpp = oracles.trigamma_oracle(vh) - 1.0 / vh
        m = math.sqrt(n * kpp) * (vh - v)
        z = zp + math.log(m / zp) / zp
        assert root.signed_root == pytest.approx(zp, abs=1e-10)
        assert root.correction == pytest.approx(m, abs=1e-10)
        assert root.value == pytest.approx(z, abs=1e-10)
        assert not root.interpolated

    def test_sign_matches_side(self):
        y = rng_draws(RngStream(51, 0), "gamma", 12, shape=3.0, scale=1 / 3.0)
        vh = fit_known_mean(y).varphi_hat
        below = fraser_root_known_mu(y, vh * 0.5)
        above = fraser_root_known_mu(y, vh * 2.0)
        assert below.signed_root > 0 > above.signed_root
        assert below.value > 0 > above.value

    def test_interpolation_continuity_at_window_boundary(self):
        from confdist.numerics import find_root

        y = rng_draws(RngStream(52, 0), "gamma", 10, shape=2.0, scale=0.5)
        km = fit_known_mean(y)
        scale = 1.0 / math.sqrt(km.n * cumulant_d2(km.varphi_hat))
        for target in (0.05, -0.05):
            edge = find_root(
                lambda v: fraser_root_known_mu(y, v).signed_root - target,
                (km.varphi_hat - 4 * abs(target) * scale, km.varphi_hat + 4 * abs(target) * scale),
                tol=1e-14,
                limits=(1e-6, math.inf),
            )
            eps = 1e-9 * max(1.0, km.varphi_hat)
            inside = fraser_root_known_mu(y, edge + math.copysign(eps, target)).value
            outside = fraser_root_known_mu(y, edge - math.copysign(eps, target)).value
            assert abs(inside - outside) < 1e-6

    def test_pivot_wrapper_is_monotone_decreasing(self):
        y = rng_draws(RngStream(53, 0), "gamma", 15, shape=2.0, scale=0.5)
        pv = fraser_pivot(y)
        vh = fit_known_mean(y).varphi_hat
        grid = vh * np.geomspace(0.4, 2.5, 21)
        vals = [pv.value(float(v)) for v in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_pivot_is_the_cli_fraser_pivot(self):
        # one constructor: the library pivot has the CLI method's hint and
        # label, so it states the same endpoints
        y = rng_draws(RngStream(54, 0), "gamma", 15, shape=2.0, scale=0.5)
        fit = fit_known_mean(y)
        method = next(m for m in METHODS["gamma_known_mu"] if m.cli == "fraser")
        pv, cli_pv = fraser_pivot(y), method.build(fit, None)
        assert pv.hint == cli_pv.hint == (fit.varphi_hat, 0.75 * fit.varphi_hat)
        assert pv.label == cli_pv.label == "corrected root"
        for side in ("lower", "upper"):
            assert interval_endpoint(pv, 0.95, side) == interval_endpoint(cli_pv, 0.95, side)


class TestWindowConstruction:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 200), varphi_hat=st.floats(0.3, 20.0))
    def test_precision_nodes_match_brentq(self, n, varphi_hat):
        # the Newton nodes against brentq on the scalar closed-form signed
        # root; both stop at its evaluation noise (worst seen: 5.1e-12
        # relative over 12,000 nodes)
        info_root = math.sqrt(n * cumulant_d2(varphi_hat))
        nodes, _ = _precision_window_nodes(n, np.array([[varphi_hat]]), np.array([[info_root]]))
        for node, target in zip(nodes[0], (2 * ROOT_WINDOW, ROOT_WINDOW,
                                           -ROOT_WINDOW, -2 * ROOT_WINDOW)):
            bracket = ((varphi_hat * 1e-3, varphi_hat) if target > 0
                       else (varphi_hat, varphi_hat * 1e3))
            want = brentq(lambda u: signed_precision_root(n, varphi_hat, u) - target,
                          *bracket, xtol=1e-15, maxiter=200)
            assert node == pytest.approx(want, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 1000),
           log_hats=st.lists(st.floats(-13.0, 16.0), min_size=1, max_size=6))
    @example(n=2, log_hats=[-12.0, 0.5, 13.0])  # 2, 0 and 4 of 4 nodes unsettled
    def test_node_deviances_are_the_profile_deviance_there(self, n, log_hats):
        # precisions from 1e-13 to 1e16 include rows whose nodes do not all
        # settle; their deviances are NaN exactly where their nodes are
        varphi_hat = 10.0 ** np.array(log_hats)[:, None]
        with np.errstate(all="ignore"):
            info_root = np.sqrt(n * _cumulant_d2_array(varphi_hat))
            nodes, deviances = _precision_window_nodes(n, varphi_hat, info_root)
            want = _profile_deviance_precision_array(n, varphi_hat, nodes)
        assert np.array_equal(np.isnan(deviances), np.isnan(nodes))
        assert np.array_equal(deviances, want, equal_nan=True)

    def test_cubics_reproduce_cubics_row_by_row(self):
        # against np.polyval of known cubics, on nodes like the window's
        # (clustered about an abscissa far from 0); a row with a NaN node and
        # a singular row (a repeated node) are NaN without touching the others
        rng = np.random.default_rng(7)
        coef = rng.normal(size=(6, 4))
        centre = rng.uniform(0.5, 50.0, size=(6, 1))
        x_nodes = centre + np.sort(rng.uniform(-1.0, 1.0, size=(6, 4)), axis=1) * 0.01 * centre
        y_nodes = np.array([np.polyval(c, x) for c, x in zip(coef, x_nodes)])
        x_nodes[4, 2] = np.nan
        x_nodes[5, 1] = x_nodes[5, 0]
        x = centre + np.linspace(-0.02, 0.02, 9) * centre
        got = _window_cubics(x_nodes, y_nodes)(x)
        for i in range(4):
            want = np.polyval(coef[i], x[i])
            assert np.allclose(got[i], want, rtol=1e-9, atol=1e-9 * np.abs(want).max())
        assert np.isnan(got[4:]).all()
        # one column per row, or one abscissa for every row
        assert np.array_equal(_window_cubics(x_nodes[:1], y_nodes[:1])(x[0]), got[:1])
        assert _window_cubics(x_nodes, y_nodes)(1.0).shape == (6, 1)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 200), varphi_hat=st.floats(0.3, 20.0))
    def test_fraser_values_monotone_across_the_window(self, n, varphi_hat):
        # a fine grid through the window, its nodes and beyond: the cubic
        # inside and the formula outside join into one decreasing curve
        sum_b = n * (math.log(varphi_hat) - digamma(varphi_hat))
        fit = GammaFit(beta_hat=np.empty(0), varphi_hat=varphi_hat, mu_hat=np.ones(n),
                       loglik=-varphi_hat * sum_b - n * cumulant(varphi_hat), sum_b=sum_b,
                       n=n, p=0)
        scale = 1.0 / math.sqrt(n * cumulant_d2(varphi_hat))
        grid = varphi_hat + np.linspace(-3.0, 3.0, 601) * ROOT_WINDOW * scale
        assert np.all(np.diff(fraser_curve(fit).values(grid)) < 0.0)


class TestSkovgaardPrecision:
    def test_at_the_estimate_flagged(self):
        # the correction term log(m)/(2 d_p) diverges as d_p -> 0 because
        # log(m) is linear in (estimate - parameter); the interpolated value
        # is therefore only guaranteed finite and flagged, not small
        ds = simulate_gamma(60, 25, [0.4, -0.3], 2.0)
        fit = fit_irls(ds)
        cd = skovgaard_precision(ds, fit, fit.varphi_hat)
        assert cd.deviance == 0.0
        assert cd.interpolated
        assert math.isfinite(cd.value) and cd.value >= 0.0

    def test_correction_factor_loop_recomputation(self):
        ds = simulate_gamma(61, 20, [0.5, -0.2], 2.0)
        fit = fit_irls(ds)
        v = fit.varphi_hat * 1.7
        cd = skovgaard_precision(ds, fit, v)

        X = [[float(x) for x in row] for row in ds.X]
        y = list(map(float, ds.y))
        mu = list(map(float, fit.mu_hat))
        n, p = len(y), len(X[0])
        r = [(y[i] - mu[i]) / mu[i] for i in range(n)]
        xr = [sum(X[i][j] * r[i] for i in range(n)) for j in range(p)]
        M = [
            [sum(X[i][a] * (y[i] / mu[i]) * X[i][b] for i in range(n)) for b in range(p)]
            for a in range(p)
        ]
        w = loops_solve(M, xr)
        quad = sum(xr[j] * w[j] for j in range(p))

        import oracles

        def kpp(u):
            return oracles.trigamma_oracle(u) - 1.0 / u

        m_loops = (n * kpp(fit.varphi_hat)) / (n * kpp(v) - quad / v)
        assert cd.correction == pytest.approx(m_loops, abs=1e-10)
        d_loops = cd.deviance + math.log(m_loops) / (2.0 * cd.deviance)
        assert cd.value == pytest.approx(d_loops, abs=1e-10)

    def test_score_term_vanishes_at_the_fit(self):
        # at the coefficient estimate the score contracts to zero, so the
        # correction reduces to the bare information ratio
        ds = simulate_gamma(62, 30, [0.3, 0.2], 3.0)
        fit = fit_irls(ds)
        v = fit.varphi_hat * 0.6
        cd = skovgaard_precision(ds, fit, v)
        bare = cumulant_d2(fit.varphi_hat) / cumulant_d2(v)
        assert cd.correction == pytest.approx(bare, rel=1e-6)

    def test_confidence_direction(self):
        ds = simulate_gamma(63, 25, [0.4, -0.3], 2.0)
        fit = fit_irls(ds)
        low = signed_root_confidence(skovgaard_precision(ds, fit, fit.varphi_hat * 3.0))
        high = signed_root_confidence(skovgaard_precision(ds, fit, fit.varphi_hat / 3.0))
        assert low < 0.5 < high

    def test_float_is_the_pivot_value(self):
        # float() of a scalar result is its signed corrected root, the value
        # its pivot refers to N(0, 1); of a ball result, the corrected deviance
        ds = simulate_gamma(63, 25, [0.4, -0.3], 2.0)
        fit = fit_irls(ds)
        vh = fit.varphi_hat
        for v in (vh / 3.0, vh, vh * 3.0):
            cd = skovgaard_precision(ds, fit, v)
            assert float(cd) == (math.copysign(math.sqrt(cd.value), vh - v) if v != vh else 0.0)
        assert float(CorrectedDeviance(deviance=3.0, correction=1.1, value=3.1, dims=2)) == 3.1


class TestSkovgaardBeta:
    def test_at_the_estimate(self):
        ds = simulate_gamma(70, 25, [0.4, -0.3], 2.0)
        fit = fit_irls(ds)
        cd = skovgaard_beta(ds, fit, fit.beta_hat)
        assert cd.value == 0.0
        assert cd.interpolated

    def test_determinant_loop_recomputation(self):
        ds = simulate_gamma(71, 20, [0.5, -0.2], 2.0)
        fit = fit_irls(ds)
        beta = fit.beta_hat + np.array([0.3, -0.2])
        cd = skovgaard_beta(ds, fit, beta)

        from confdist.gamma import profile_precision_at

        vt = profile_precision_at(ds, beta)
        X = [[float(x) for x in row] for row in ds.X]
        y = list(map(float, ds.y))
        n, p = len(y), len(X[0])
        mu = [math.exp(sum(X[i][j] * beta[j] for j in range(p))) for i in range(n)]
        r = [(y[i] - mu[i]) / mu[i] for i in range(n)]
        xr = [sum(X[i][j] * r[i] for i in range(n)) for j in range(p)]

        import oracles

        kpp_vt = oracles.trigamma_oracle(vt) - 1.0 / vt
        num = [
            [fit.varphi_hat * sum(X[i][a] * X[i][b] for i in range(n)) for b in range(p)]
            for a in range(p)
        ]
        den = [
            [
                vt * sum(X[i][a] * (y[i] / mu[i]) * X[i][b] for i in range(n))
                - xr[a] * xr[b] / (n * kpp_vt)
                for b in range(p)
            ]
            for a in range(p)
        ]
        m_loops = loops_det(num) / loops_det(den)
        assert cd.correction == pytest.approx(m_loops, rel=1e-10)
        d_loops = cd.deviance + math.log(m_loops) / (2.0 * cd.deviance)
        assert cd.value == pytest.approx(d_loops, rel=1e-10)

    def test_p1_tail_reduces_to_normal(self):
        # upper chi-square(1) tail at d equals 2 * (1 - Phi(sqrt(d)))
        for d in np.linspace(0.05, 9.0, 25):
            upper = 1.0 - PivotLaw.chisq(1.0).cdf(d)
            assert upper == pytest.approx(2.0 * (1.0 - PivotLaw.normal().cdf(math.sqrt(d))),
                                          abs=1e-9)

    def test_ball_confidence_uses_chisq_lower_tail(self):
        cd = CorrectedDeviance(deviance=3.0, correction=1.1, value=3.1, dims=2)
        assert ball_confidence(cd) == pytest.approx(PivotLaw.chisq(2.0).cdf(3.1), abs=1e-14)


class TestCorrectedDensity:
    """parameter_density differences the confidence distribution of a
    precision pivot with no jacobian."""

    @staticmethod
    def precision_pivot(value_fn):
        return Pivot(law=PivotLaw.normal(), value_fn=value_fn, param_support=(0.0, math.inf))

    def test_exact_normal_case(self):
        import oracles

        grid = RealGrid(np.linspace(-1.0, 5.0, 61))
        dens = parameter_density(self.precision_pivot(lambda v: 2.0 - v), grid)
        for v in [0.5, 1.5, 2.0, 3.3]:
            assert dens(v) == pytest.approx(oracles.normal_density(2.0 - v), abs=1e-6)

    def test_density_nonnegative_on_grid(self):
        y = known_mean_sample(12)
        vh = fit_known_mean(y).varphi_hat
        grid = RealGrid(np.array(vh * np.geomspace(0.5, 2.0, 31)))
        dens = parameter_density(fraser_pivot(y), grid)
        assert all(dens(float(v)) >= 0.0 for v in grid.points)

    def test_mass_below_quantile_is_ninety_five(self):
        from confdist.numerics import find_root

        y = known_mean_sample(12)
        vh = fit_known_mean(y).varphi_hat
        rf = lambda v: fraser_root_known_mu(y, v)
        grid = RealGrid(np.array(vh * np.geomspace(0.35, 3.5, 41)))
        dens = parameter_density(fraser_pivot(y), grid)
        # {v : root <= q95} = [v_q, infinity); integrate over it within the grid
        v_q = find_root(lambda v: rf(v).value - NORMAL_Q95, (vh * 0.4, vh), tol=1e-12,
                        limits=(1e-6, math.inf))
        mass = dens.mass(v_q, float(grid.points[-1]), tol=1e-8)
        assert mass == pytest.approx(0.95, abs=1e-3)

    def test_normalizes_within_loose_tolerance(self):
        from confdist.numerics import find_root

        y = known_mean_sample(12)
        vh = fit_known_mean(y).varphi_hat
        rf = lambda v: fraser_root_known_mu(y, v).value
        # grid spanning essentially all the mass: root from +4.5 down to -4.5
        lo = find_root(lambda v: rf(v) - 4.5, (vh * 0.1, vh), tol=1e-10,
                       limits=(1e-9, math.inf))
        hi = find_root(lambda v: rf(v) + 4.5, (vh, vh * 20.0), tol=1e-10,
                       limits=(1e-9, math.inf))
        grid = RealGrid(np.geomspace(lo, hi, 41))
        dens = parameter_density(fraser_pivot(y), grid)
        assert dens.total_mass(tol=1e-8) == pytest.approx(1.0, abs=1e-4)

    def test_nonmonotone_root_rejected(self):
        def bad(v):
            return (v - 1.0) ** 2

        with pytest.raises(ContractViolationError):
            parameter_density(self.precision_pivot(bad), RealGrid(np.linspace(0.0, 2.0, 11)))


class TestLimitConsistency:
    def test_corrections_shrink_with_sample_size(self):
        varphi0 = 2.0
        max_gap_root, max_gap_dev = {}, {}
        for n in (10, 50, 200, 1000):
            y = rng_draws(RngStream(80, n), "gamma", n, shape=varphi0, scale=1.0 / varphi0)
            km = fit_known_mean(y)
            scale = 1.0 / math.sqrt(km.n * cumulant_d2(km.varphi_hat))
            gaps = []
            for zp in np.linspace(-2.5, 2.5, 41):
                if abs(zp) < 0.1:
                    continue
                v = km.varphi_hat - zp * scale
                if v <= 0:
                    continue
                root = fraser_root_known_mu(y, float(v))
                if not root.interpolated:
                    gaps.append(abs(root.value - root.signed_root))
            max_gap_root[n] = max(gaps)

            ds = simulate_gamma(80 + n, n, [0.4, -0.3], varphi0)
            fit = fit_irls(ds)
            fscale = 1.0 / math.sqrt(fit.n * cumulant_d2(fit.varphi_hat))
            dgaps = []
            for zp in np.linspace(-2.5, 2.5, 21):
                if abs(zp) < 0.2:
                    continue
                v = fit.varphi_hat - zp * fscale
                if v <= 0:
                    continue
                cd = skovgaard_precision(ds, fit, float(v))
                if not cd.flagged:
                    dgaps.append(abs(cd.value - cd.deviance))
            max_gap_dev[n] = max(dgaps)

        ns = (10, 50, 200, 1000)
        assert all(max_gap_root[a] > max_gap_root[b] for a, b in zip(ns, ns[1:]))
        assert all(max_gap_dev[a] > max_gap_dev[b] for a, b in zip(ns, ns[1:]))

    def test_corrected_root_confidence_feature(self):
        # empirical P(root(varphi_true) <= q) tracks Phi(q) within MC noise
        n, reps, varphi0 = 10, 10_000, 2.0
        qs = np.array([-1.2815515655446004, 0.0, 1.6448536269514946])
        hits = np.zeros(len(qs))
        for r in range(reps):
            y = rng_draws(RngStream(81, r), "gamma", n, shape=varphi0, scale=1.0 / varphi0)
            z = fraser_root_known_mu(y, varphi0).value
            hits += z <= qs
        targets = np.array([PivotLaw.normal().cdf(float(q)) for q in qs])
        stderr = np.sqrt(targets * (1 - targets) / reps)
        assert np.all(np.abs(hits / reps - targets) < 3.5 * stderr + 0.004)
