import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from confdist.errors import AccuracyError, BracketingError, DomainError
from confdist.numerics import (
    RealGrid,
    RngStream,
    digamma,
    find_root,
    integrate,
    log_gamma,
    rng_draws,
    trigamma,
)
from confdist.pivots import PivotLaw

# Frozen from the brute-force oracles in oracles.py (quadrature + bisection,
# series with asymptotic tails).  See that module for the exact recipes.
NORMAL_Q95 = 1.6448536269514946  # bisection on adaptive-Simpson CDF
GAMMA_P_5_5 = 0.5595067149347875  # chunked quadrature of t^4 e^-t / Gamma(5)
DIGAMMA_1 = -0.5772156649015329  # series limit; matches -Euler-Mascheroni
TRIGAMMA_1 = 1.6449340668482264  # sum 1/(1+k)^2 with tail; equals pi^2/6
T5_Q95 = 2.0150483733330504
CHI2_10_Q95 = 18.30703805327523
F_2_10_Q95 = 4.102821015133365


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert PivotLaw.normal().cdf(0.0) == 0.5

    def test_saturation(self):
        assert PivotLaw.normal().cdf(40.0) == 1.0
        assert PivotLaw.normal().cdf(-40.0) == 0.0

    def test_quantile_against_oracle(self):
        assert PivotLaw.normal().cdf(NORMAL_Q95) == pytest.approx(0.95, abs=1e-12)

    def test_oracle_agreement_on_grid(self):
        for x in np.linspace(-6.0, 6.0, 25):
            assert PivotLaw.normal().cdf(float(x)) == pytest.approx(
                oracles.normal_cdf_oracle(float(x)), abs=1e-12
            )

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            PivotLaw.normal().cdf(math.nan)


class TestIncompleteGamma:
    """P(k, x) is the chi-square law's CDF: chisq(2k).cdf(2x)."""

    def test_empty_integral(self):
        assert PivotLaw.chisq(2.0).cdf(0.0) == 0.0

    def test_exponential_closed_form(self):
        assert PivotLaw.chisq(2.0).cdf(2.0) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-14
        )

    def test_k5_x5_oracle(self):
        assert PivotLaw.chisq(10.0).cdf(10.0) == pytest.approx(GAMMA_P_5_5, abs=1e-12)

    def test_upper_complements_lower(self):
        from scipy import special

        for k, x in [(0.5, 0.2), (2.0, 3.0), (7.5, 4.0)]:
            assert float(special.gammaincc(k, x)) == pytest.approx(
                1.0 - PivotLaw.chisq(2.0 * k).cdf(2.0 * x), abs=1e-14
            )

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 30.0, 200)
        vals = [PivotLaw.chisq(6.6).cdf(2.0 * float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        # a shape k <= 0 is a chi-square law with df = 2k <= 0
        with pytest.raises(DomainError):
            PivotLaw.chisq(0.0)
        with pytest.raises(DomainError):
            PivotLaw.chisq(-4.0)


class TestGammaDerivatives:
    def test_log_gamma_at_one(self):
        assert log_gamma(1.0) == 0.0

    def test_log_gamma_against_quadrature_oracle(self):
        for x in [0.5, 1.7, 4.2, 11.0]:
            assert log_gamma(x) == pytest.approx(oracles.log_gamma_oracle(x), abs=1e-10)

    def test_digamma_series_oracle(self):
        assert digamma(1.0) == pytest.approx(DIGAMMA_1, abs=1e-12)
        for x in [0.3, 1.0, 2.5, 8.0, 40.0]:
            assert digamma(x) == pytest.approx(oracles.digamma_oracle(x), abs=1e-10)

    def test_trigamma_series_oracle(self):
        assert trigamma(1.0) == pytest.approx(TRIGAMMA_1, abs=1e-12)
        for x in [0.3, 1.0, 2.5, 8.0, 40.0]:
            assert trigamma(x) == pytest.approx(oracles.trigamma_oracle(x), abs=1e-10)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 10.0, 100.0])
    def test_recurrences(self, x):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-10)
        assert trigamma(x + 1.0) - trigamma(x) == pytest.approx(-1.0 / x**2, abs=1e-10)

    def test_trigamma_positive_digamma_increasing(self):
        xs = np.linspace(0.05, 50.0, 120)
        dg = [digamma(float(x)) for x in xs]
        assert all(b > a for a, b in zip(dg, dg[1:]))
        assert all(trigamma(float(x)) > 0 for x in xs)

    def test_trigamma_is_polygamma_bit_for_bit(self):
        from scipy import special

        rng = np.random.default_rng(2)
        xs = np.concatenate([rng.lognormal(0.0, 3.0, 2000), np.logspace(-300, 300, 601)])
        for x in xs:
            assert trigamma(float(x)) == float(special.polygamma(1, x))

    def test_domain_errors(self):
        for fn in (log_gamma, digamma, trigamma):
            with pytest.raises(DomainError):
                fn(0.0)
            with pytest.raises(DomainError):
                fn(-1.0)


class TestDistributionCdfs:
    def test_t_symmetry(self):
        assert PivotLaw.student_t(5.0).cdf(0.0) == 0.5

    def test_chisq_equals_incomplete_gamma(self):
        from scipy import special

        assert PivotLaw.chisq(10.0).cdf(10.0) == float(special.gammainc(5.0, 5.0))

    def test_t_quantile_oracle(self):
        assert PivotLaw.student_t(5.0).cdf(T5_Q95) == pytest.approx(0.95, abs=1e-12)

    def test_chisq_quantile_oracle(self):
        assert PivotLaw.chisq(10.0).cdf(CHI2_10_Q95) == pytest.approx(0.95, abs=1e-11)

    def test_f_quantile_oracle(self):
        assert PivotLaw.f(2.0, 10.0).cdf(F_2_10_Q95) == pytest.approx(0.95, abs=1e-11)

    @pytest.mark.parametrize("df", [1.0, 4.0, 11.5])
    def test_chisq_matches_quadrature_grid(self, df):
        for x in np.linspace(0.05, 4.0 * df, 50):
            assert PivotLaw.chisq(df).cdf(float(x)) == pytest.approx(
                oracles.chisq_cdf_oracle(float(x), df), abs=1e-9
            )

    @pytest.mark.parametrize("df", [2.0, 5.0, 30.0])
    def test_t_matches_quadrature_grid(self, df):
        for x in np.linspace(-6.0, 6.0, 50):
            assert PivotLaw.student_t(df).cdf(float(x)) == pytest.approx(
                oracles.t_cdf_oracle(float(x), df), abs=1e-9
            )

    @pytest.mark.parametrize("df1,df2", [(2.0, 10.0), (5.0, 7.0)])
    def test_f_matches_quadrature_grid(self, df1, df2):
        for x in np.linspace(0.05, 12.0, 50):
            assert PivotLaw.f(df1, df2).cdf(float(x)) == pytest.approx(
                oracles.f_cdf_oracle(float(x), df1, df2), abs=1e-9
            )

    @given(
        x=st.floats(-50.0, 400.0),
        df=st.floats(0.5, 80.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_cdfs_are_valid(self, x, df):
        chisq, t = PivotLaw.chisq(df), PivotLaw.student_t(df)
        for val in (chisq.cdf(x) if x >= 0 else 0.0, t.cdf(x)):
            assert 0.0 <= val <= 1.0
        assert chisq.cdf(max(x, 0.0) + 0.5) >= chisq.cdf(max(x, 0.0))
        assert t.cdf(x + 0.5) >= t.cdf(x)

    def test_invalid_df(self):
        with pytest.raises(DomainError):
            PivotLaw.chisq(0.0)
        with pytest.raises(DomainError):
            PivotLaw.student_t(-3.0)
        with pytest.raises(DomainError):
            PivotLaw.f(2.0, 0.0)

    def test_pdfs_match_oracle_forms(self):
        assert PivotLaw.normal().pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)
        assert PivotLaw.chisq(10.0).pdf(10.0) == pytest.approx(
            oracles.chisq_density(10.0, 10.0), rel=1e-13)
        assert PivotLaw.student_t(5.0).pdf(0.3) == pytest.approx(
            oracles.t_density(0.3, 5.0), rel=1e-13)
        assert PivotLaw.f(2.0, 10.0).pdf(1.2) == pytest.approx(
            oracles.f_density(1.2, 2.0, 10.0), rel=1e-13)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 1.0, (0.0, 2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_normal_quantile(self):
        root = find_root(lambda x: PivotLaw.normal().cdf(x) - 0.95, (0.0, 10.0))
        assert root == pytest.approx(NORMAL_Q95, abs=1e-9)

    def test_same_sign_raises(self):
        with pytest.raises(BracketingError):
            find_root(lambda x: x + 5.0, (0.0, 2.0), limits=(0.0, 2.0))
        with pytest.raises(BracketingError):
            find_root(lambda x: 1.0 + x * x, (-1.0, 1.0))

    def test_bracket_order_invariance(self):
        f = lambda x: math.tanh(x - 0.7)
        a = find_root(f, (-3.0, 3.0))
        b = find_root(f, (3.0, -3.0))
        assert a == b

    def test_bracket_widening_invariance(self):
        f = lambda x: x**3 - 2.0
        tight = find_root(f, (1.0, 1.5), tol=1e-12)
        wide = find_root(f, (-50.0, 50.0), tol=1e-12)
        assert tight == pytest.approx(wide, abs=1e-11)
        # starting with no sign change also lands on the same root
        expanded = find_root(f, (5.0, 6.0), tol=1e-12)
        assert expanded == pytest.approx(tight, abs=1e-11)

    @given(target=st.floats(-20.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_recovers_shifted_roots(self, target):
        root = find_root(lambda x: x - target, (-1.0, 1.0), tol=1e-12)
        assert root == pytest.approx(target, abs=1e-9)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: 1.0, (0.0, 1.0)) == pytest.approx(1.0, abs=1e-13)

    def test_normal_mass_over_real_line(self):
        total = integrate(PivotLaw.normal().pdf, (-math.inf, math.inf), tol=1e-10)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_chisq_partial_mass(self):
        val = integrate(PivotLaw.chisq(10.0).pdf, (0.0, 10.0), tol=1e-10)
        assert val == pytest.approx(GAMMA_P_5_5, abs=1e-9)

    def test_semi_infinite_upper(self):
        val = integrate(lambda x: math.exp(-x), (0.0, math.inf), tol=1e-10)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_semi_infinite_lower(self):
        val = integrate(lambda x: math.exp(x), (-math.inf, 0.0), tol=1e-10)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_linearity(self):
        f = lambda x: math.sin(x) + 0.3
        g = lambda x: x * x
        lhs = integrate(lambda x: 2.0 * f(x) + 3.0 * g(x), (0.0, 2.0))
        rhs = 2.0 * integrate(f, (0.0, 2.0)) + 3.0 * integrate(g, (0.0, 2.0))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_orientation(self):
        assert integrate(lambda x: 1.0, (1.0, 0.0)) == pytest.approx(-1.0, abs=1e-13)

    def test_nonconvergent_reports_achieved(self):
        with pytest.raises(AccuracyError) as err:
            integrate(lambda x: math.cos(1.0 / x) / x, (1e-12, 1.0), tol=1e-12)
        assert err.value.achieved is None or err.value.achieved > 0.0


class TestRngStreams:
    def test_determinism(self):
        s = RngStream(seed=123, stream_id=7)
        a = rng_draws(s, "normal", 100)
        b = rng_draws(s, "normal", 100)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        s = RngStream(seed=123, stream_id=7)
        t = RngStream(seed=123, stream_id=8)
        assert not np.array_equal(rng_draws(s, "uniform", 50), rng_draws(t, "uniform", 50))

    def test_advanced_descriptor_differs(self):
        s = RngStream(seed=9, stream_id=0)
        a = rng_draws(s, "uniform", 50)
        b = rng_draws(s.advanced(), "uniform", 50)
        assert not np.array_equal(a, b)
        assert s.advanced().offset == 1

    def test_uniform_mean_clt_bound(self):
        draws = rng_draws(RngStream(seed=2024, stream_id=0), "uniform", 10**6)
        # 3 sigma with sigma = (1/sqrt(12))/1e3
        assert abs(draws.mean() - 0.5) < 0.002

    def test_gamma_moments_clt_bound(self):
        draws = rng_draws(RngStream(seed=2024, stream_id=1), "gamma", 10**6, shape=2.0, scale=1.0)
        assert abs(draws.mean() - 2.0) < 0.005

    def test_invalid_law_and_params(self):
        s = RngStream(seed=1)
        with pytest.raises(DomainError):
            rng_draws(s, "poisson", 10)
        with pytest.raises(DomainError):
            rng_draws(s, "gamma", 10, shape=-1.0, scale=1.0)
        with pytest.raises(DomainError):
            rng_draws(s, "gamma", 10)
        with pytest.raises(DomainError):
            rng_draws(s, "uniform", 0)

    def test_stream_validation(self):
        with pytest.raises(DomainError):
            RngStream(seed=-1)
        with pytest.raises(DomainError):
            RngStream(seed=2**64)


class TestRealGrid:
    def test_valid_grid(self):
        g = RealGrid(np.array([0.0, 1.0, 3.0]))
        assert g.span == 3.0

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            RealGrid(np.array([0.0, 2.0, 1.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            RealGrid(np.array([0.0, np.inf]))


def test_every_public_name_resolves():
    import importlib
    import pkgutil

    import confdist

    for info in pkgutil.iter_modules(confdist.__path__):
        module = importlib.import_module(f"confdist.{info.name}")
        for owner in (module, confdist):
            missing = [name for name in getattr(owner, "__all__", ()) if not hasattr(owner, name)]
            assert not missing, (owner.__name__, missing)
