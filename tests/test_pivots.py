import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

import oracles
from confdist.errors import (
    ContractViolationError,
    DomainError,
    NoEndpointError,
    UnsupportedOperationError,
)
from confdist.numerics import RealGrid, find_root
from confdist.pivots import (
    _LAWS,
    ConfidenceDensity,
    ConfidenceStatement,
    Pivot,
    PivotLaw,
    confidence_of,
    extended_likelihood,
    interval_endpoint,
    invert_pivot,
    location_pivot,
    one_sided_statement,
    parameter_density,
    pvalue_pivot,
    reparameterized,
)

NORMAL_Q95 = 1.6448536269514946
INV_SQRT_2PI = 0.3989422804014327
F_HALF_NORMAL = 0.3520653267642995  # exp(-0.125)/sqrt(2 pi), oracle arithmetic
CHISQ10_PDF_AT_10 = 0.0877336848839255  # quadrature-oracle density form
T5_PDF_AT_0 = 0.3796066898224941
PHI_AT_1 = 0.841344746068543


# Negatives, 0 of both signs, tiny and huge values and the infinities.
CDF_POINTS = np.array([-np.inf, -1e300, -40.0, -3.5, -1e-300, -0.0, 0.0, 5e-324, 1e-300, 1e-8,
                       0.3, 1.0, 2.7, 40.0, 1e8, 1e300, np.inf, 0.05])
# Each law with the array CDF the coverage engine called for it before the law
# table, except the t law at df = 1 (Cauchy), whose closed form replaced scipy's
# stdtr there.
LAW_TABLE_CASES = [(PivotLaw.normal(), special.ndtr)]
for _df in (1.0, 3.0, 11.5):
    LAW_TABLE_CASES.append((PivotLaw.chisq(_df), lambda x, df=_df: np.where(
        x <= 0.0, 0.0, special.gammainc(df / 2.0, x / 2.0))))
    LAW_TABLE_CASES.append((PivotLaw.student_t(_df), lambda x, df=_df: (
        np.arctan2(1.0, -x) / np.pi if df == 1.0 else special.stdtr(df, x))))
for _d1, _d2 in ((2.0, 7.0), (5.0, 1.5)):
    LAW_TABLE_CASES.append((PivotLaw.f(_d1, _d2), lambda x, d1=_d1, d2=_d2: np.where(
        x > 0.0, special.fdtr(d1, d2, x), 0.0)))


def chisq_pivot(df=10.0, scale=10.0):
    """Variance-style pivot v(theta) = scale/theta with a chi-square law."""
    return Pivot(
        law=PivotLaw.chisq(df),
        value_fn=lambda t: scale / t,
        jacobian_fn=lambda t: scale / t**2,
        monotonic="decreasing",
        param_support=(0.0, math.inf),
        hint=(1.0, 1.0),
        label="chisq test pivot",
    )


class TestPivotLaw:
    def test_densities_normalize(self):
        from confdist.numerics import integrate

        laws = [
            PivotLaw.normal(),
            PivotLaw.chisq(10.0),
            PivotLaw.student_t(5.0),
            PivotLaw.f(2.0, 10.0),
        ]
        for law in laws:
            mass = integrate(law.pdf, law.support, tol=1e-9)
            assert mass == pytest.approx(1.0, abs=1e-8), law.family

    def test_cdf_limits(self):
        law = PivotLaw.student_t(4.0)
        assert law.cdf(-math.inf) == 0.0
        assert law.cdf(math.inf) == 1.0

    def test_quantile_inverts_cdf(self):
        for law, p in [
            (PivotLaw.normal(), 0.95),
            (PivotLaw.chisq(7.0), 0.25),
            (PivotLaw.student_t(5.0), 0.6),
            (PivotLaw.f(3.0, 9.0), 0.9),
        ]:
            q = law.quantile(p)
            assert law.cdf(q) == pytest.approx(p, abs=1e-10)

    @pytest.mark.parametrize("law, engine", LAW_TABLE_CASES,
                             ids=[f"{law.family}{law.df}" for law, _ in LAW_TABLE_CASES])
    def test_cdf_on_an_array_is_its_float_branch(self, law, engine):
        # bit for bit, and the values of the engine's former array CDF
        on_array = law.cdf(CDF_POINTS)
        on_floats = np.array([law.cdf(float(x)) for x in CDF_POINTS])
        assert on_array.tobytes() == on_floats.tobytes()
        assert on_array.tobytes() == engine(CDF_POINTS).tobytes()
        grid = CDF_POINTS.reshape(2, -1)
        assert law.cdf(grid).tobytes() == engine(grid).tobytes()

    @pytest.mark.parametrize("law", [law for law, _ in LAW_TABLE_CASES],
                             ids=[f"{law.family}{law.df}" for law, _ in LAW_TABLE_CASES])
    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(allow_nan=False) | st.sampled_from(
        [0.0, -0.0, -1.0, -1e-300, 5e-324, math.inf, -math.inf]))
    def test_cdf_of_a_float_is_the_one_element_arrays(self, law, x):
        # a float takes the law's scalar function, never a 0-d array, and
        # gives the array's value bit for bit, at 0 and off the half line too
        got = law.cdf(x)
        assert type(got) is float
        assert np.array([got]).tobytes() == law.cdf(np.array([x])).tobytes()
        if x.is_integer() and abs(x) < 2**53:
            assert law.cdf(int(x)) == got

    def test_t_cdf_at_one_df_is_the_cauchy_form(self):
        # scipy's stdtr at df = 1 is 1.6e-9 off at x = 1e-8, where the CDF is
        # 1/2 + x/pi up to x^3/(3 pi)
        law = PivotLaw.student_t(1.0)
        assert law.cdf(1e-8) == 0.5 + 1e-8 / math.pi
        assert law.cdf(-1.0) == 0.25 and law.cdf(-0.0) == law.cdf(0.0) == 0.5

    @pytest.mark.parametrize("law", [law for law, _ in LAW_TABLE_CASES])
    def test_nan_element_stays_nan_and_nan_point_raises(self, law):
        got = law.cdf(np.array([np.nan, 0.7, np.nan]))
        assert np.isnan(got[[0, 2]]).all() and got[1] == law.cdf(0.7)
        with pytest.raises(DomainError, match="x must be finite"):
            law.cdf(math.nan)
        with pytest.raises(DomainError, match="x must be finite"):
            law.cdf(np.float64("nan"))

    def test_bad_family_or_df(self):
        with pytest.raises(DomainError):
            PivotLaw("cauchy")
        with pytest.raises(DomainError):
            PivotLaw.chisq(0.0)
        with pytest.raises(DomainError):
            PivotLaw("normal", (3.0,))


# ---------------------------------------------------------------------------
# Exact quantiles: the inverse CDF ufuncs
# ---------------------------------------------------------------------------


EPS = np.finfo(float).eps
# Largest |cdf(quantile(p)) - p| in units of _rounding_scale, with margin over
# what 300,000 random (df, p) per family measured (2.7, 24, 7.9 and 358).
# scipy's fdtri loses ~5e-14 relative at large df, and its stdtrit loses up
# to ~3e-13 relative for df in (2, 3): about 1,500 units there.
ULPS = {"normal": 4.0, "chisq": 32.0, "student_t": 16.0, "f": 512.0}
STDTRIT_DF_2_TO_3_ULPS = 2048.0


def _law(family, df):
    return PivotLaw(family, df[:_LAWS[family].dfs])


def _rounding_scale(law, p, q):
    """eps times the CDF error that rounding can leave at q: eps p from the CDF
    value itself, and pdf(q) |q| kappa eps from the rounding of q, where kappa
    is 1 except for F, whose fdtr rounds w = df1 q / (df2 + df1 q) and so
    multiplies it by 1 + df1 q / df2."""
    kappa = 1.0 + law.df[0] * q / law.df[1] if law.family == "f" else 1.0
    return EPS * (p + law.pdf(q) * abs(q) * kappa)


def _ulps(law):
    if law.family == "student_t" and 2.0 < law.df[0] < 3.0:
        return STDTRIT_DF_2_TO_3_ULPS
    return ULPS[law.family]


def _bracket_quantile(law, p, tol=1e-12):
    """The bracket search quantile used before the inverse ufuncs: brentq on
    the CDF to an absolute bracket width ``tol`` (and 8.9e-16 relative)."""
    if law.support[0] == 0.0:
        bracket = (1e-12, max(4.0 * law.df[0], 10.0) if law.family != "f" else 10.0)
        return find_root(lambda v: law.cdf(v) - p, bracket, tol=tol, limits=(0.0, math.inf))
    return find_root(lambda v: law.cdf(v) - p, (-2.0, 2.0), tol=tol)


LEVELS = st.one_of(st.floats(1e-9, 1.0 - 1e-9),
                   st.floats(math.log(1e-9), math.log(0.5)).map(math.exp),
                   st.floats(math.log(1e-9), math.log(0.5)).map(lambda t: 1.0 - math.exp(t)))
DFS = st.lists(st.one_of(st.floats(1.0, 1000.0), st.sampled_from([1.0, 2.0, 3.0, 1000.0]),
                         st.integers(1, 1000).map(float)), min_size=2, max_size=2)
FAMILIES = st.sampled_from(["normal", "chisq", "student_t", "f"])


class TestExactQuantiles:
    @settings(max_examples=400, deadline=None)
    @given(family=FAMILIES, df=DFS, p=LEVELS)
    # stdtr(1, q) is 161 ulps below the Cauchy CDF at this quantile, 9.0e-15 from p
    @example(family="student_t", df=[1.0, 1.0], p=0.49931308468890356)
    def test_cdf_of_quantile_is_the_level(self, family, df, p):
        law = _law(family, tuple(df))
        q = law.quantile(p)
        assert law.in_support(q) and math.isfinite(q)
        assert abs(law.cdf(q) - p) <= _ulps(law) * _rounding_scale(law, p, q)

    @settings(max_examples=150, deadline=None)
    @given(family=FAMILIES, df=DFS, p=LEVELS)
    def test_agrees_with_the_bracket_search(self, family, df, p):
        # to the search's tolerance: its bracket width, plus the distance
        # over which the CDF it searches is only known to rounding
        law = _law(family, tuple(df))
        q = law.quantile(p)
        slack = _ulps(law) * _rounding_scale(law, p, q) / law.pdf(q)
        assert abs(_bracket_quantile(law, p) - q) <= 2.0 * (1e-12 + 8.9e-16 * abs(q) + slack)

    def test_is_the_inverse_ufunc(self):
        assert PivotLaw.normal().quantile(0.975) == float(special.ndtri(0.975))
        assert PivotLaw.chisq(9.0).quantile(0.025) == 2.0 * float(special.gammaincinv(4.5, 0.025))
        assert PivotLaw.student_t(7.0).quantile(0.9) == float(special.stdtrit(7.0, 0.9))
        assert PivotLaw.f(2.0, 30.0).quantile(0.025) == float(special.fdtri(2.0, 30.0, 0.025))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_level_outside_the_open_unit_interval(self, p):
        with pytest.raises(DomainError, match="quantile level"):
            PivotLaw.normal().quantile(p)


class TestExtendedLikelihood:
    def test_standard_normal_mode(self):
        pv = location_pivot(estimate=0.0)
        assert extended_likelihood(pv, 0.0) == pytest.approx(INV_SQRT_2PI, abs=1e-14)

    def test_normal_location_shift(self):
        # estimate 1.5, parameter 1 -> realized pivot 0.5
        pv = location_pivot(estimate=1.5)
        assert extended_likelihood(pv, 1.0) == pytest.approx(F_HALF_NORMAL, abs=1e-12)

    def test_chisq_law_density(self):
        pv = chisq_pivot()
        assert extended_likelihood(pv, 1.0) == pytest.approx(CHISQ10_PDF_AT_10, abs=1e-12)

    def test_outside_support_is_zero_and_flaggable(self):
        pv = Pivot(
            law=PivotLaw.chisq(3.0),
            value_fn=lambda t: t,  # lets us push v negative
            jacobian_fn=lambda t: 1.0,
            monotonic="increasing",
            label="raw",
        )
        assert extended_likelihood(pv, -2.0) == 0.0
        assert not pv.law.in_support(-2.0)

    def test_invariant_under_reparameterization(self):
        pv = chisq_pivot()
        logscale = reparameterized(
            pv, math.log, math.exp, math.exp, support=(-math.inf, math.inf)
        )
        squared = reparameterized(
            pv, lambda t: t * t, math.sqrt,
            lambda e: 0.5 / math.sqrt(e), support=(0.0, math.inf),
        )
        for theta in [0.4, 1.0, 2.7]:
            direct = extended_likelihood(pv, theta)
            assert extended_likelihood(logscale, math.log(theta)) == pytest.approx(
                direct, rel=1e-12
            )
            assert extended_likelihood(squared, theta * theta) == pytest.approx(
                direct, rel=1e-12
            )


class TestConfidenceOf:
    def test_total_confidence(self):
        assert confidence_of(chisq_pivot(), math.inf) == 1.0

    def test_normal_quantile(self):
        pv = location_pivot(0.0)
        assert confidence_of(pv, NORMAL_Q95) == pytest.approx(0.95, abs=1e-12)

    def test_one_sided_location_statement(self):
        # C(theta >= estimate - b; y) equals Phi(b); here b = 1
        pv = location_pivot(estimate=0.0)
        assert confidence_of(pv, 1.0) == pytest.approx(PHI_AT_1, abs=1e-12)

    def test_matches_density_integral(self):
        from confdist.numerics import integrate

        law = PivotLaw.student_t(6.0)
        pv = Pivot(law=law, value_fn=lambda t: -t, jacobian_fn=lambda t: 1.0,
                   monotonic="decreasing")
        for b in [-1.3, 0.0, 0.8, 2.5]:
            direct = confidence_of(pv, b)
            quad = integrate(law.pdf, (-math.inf, b), tol=1e-9)
            assert direct == pytest.approx(quad, abs=1e-8)

    def test_sides_complement(self):
        pv = chisq_pivot()
        assert confidence_of(pv, 4.2, "<=") + confidence_of(pv, 4.2, ">=") == pytest.approx(
            1.0, abs=1e-14
        )


class TestParameterDensity:
    def test_location_recovers_normal_curve(self):
        pv = location_pivot(estimate=1.5)
        grid = RealGrid(np.linspace(-3.0, 6.0, 41))
        dens = parameter_density(pv, grid)
        for theta in [-1.0, 1.0, 1.5, 3.2]:
            assert dens(theta) == pytest.approx(
                oracles.normal_density(1.5 - theta), abs=1e-12
            )

    def test_variance_style_value(self):
        # v = 10/phi (df*phi_hat_m = 10): at phi = 1, c = 10 * chisq10 pdf(10)
        pv = chisq_pivot()
        dens = parameter_density(pv, RealGrid(np.linspace(0.2, 5.0, 31)))
        assert dens(1.0) == pytest.approx(10.0 * CHISQ10_PDF_AT_10, rel=1e-12)

    def test_t_contrast_value_at_estimate(self):
        # v = (0 - lam)/1 with t5 law: density at the estimate is the t5 mode
        pv = Pivot(
            law=PivotLaw.student_t(5.0),
            value_fn=lambda lam: -lam,
            jacobian_fn=lambda lam: 1.0,
            monotonic="decreasing",
            hint=(0.0, 1.0),
        )
        dens = parameter_density(pv, RealGrid(np.linspace(-4.0, 4.0, 33)))
        assert dens(0.0) == pytest.approx(T5_PDF_AT_0, abs=1e-14)

    def test_density_integrates_to_one(self):
        dens = parameter_density(chisq_pivot(), RealGrid(np.linspace(0.1, 8.0, 25)))
        assert dens.total_mass(tol=1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_confidence_feature_on_bound_grid(self):
        # mass of {theta : v(theta) <= b} equals the law CDF at b
        pv = chisq_pivot()
        dens = parameter_density(pv, RealGrid(np.linspace(0.1, 8.0, 25)))
        for b in np.linspace(2.0, 25.0, 20):
            theta_b = invert_pivot(pv, float(b))
            mass = dens.mass(theta_b, math.inf, tol=1e-9)
            assert mass == pytest.approx(pv.law.cdf(float(b)), abs=1e-6)

    def test_missing_jacobian_unsupported(self):
        pv = Pivot(law=PivotLaw.f(2.0, 8.0), value_fn=lambda b: 1.0, monotonic="none")
        with pytest.raises(UnsupportedOperationError):
            parameter_density(pv, RealGrid(np.array([0.0, 1.0])))

    def test_nonmonotone_detected(self):
        pv = Pivot(
            law=PivotLaw.normal(),
            value_fn=lambda t: t * t,  # not monotone through 0
            jacobian_fn=lambda t: max(abs(2 * t), 1e-9),
            monotonic="increasing",
        )
        with pytest.raises(ContractViolationError):
            parameter_density(pv, RealGrid(np.linspace(-1.0, 1.0, 9)))

    def test_nan_value_detected(self):
        # a NaN has no direction: the check rejects it wherever it falls
        pv = Pivot(law=PivotLaw.normal(), value_fn=lambda t: np.where(t > 0.5, np.nan, -t))
        with pytest.raises(ContractViolationError, match=r"near \[0.5, 0.75\]"):
            parameter_density(pv, RealGrid(np.linspace(-1.0, 1.0, 9)))

    @settings(max_examples=60, deadline=None)
    @given(estimate=st.floats(-50.0, 50.0), scale=st.floats(0.01, 100.0),
           width=st.floats(2.0, 8.0), k=st.integers(2, 201))
    def test_location_without_jacobian_is_differenced(self, estimate, scale, width, k):
        # the central difference of the law's CDF, step h = span/2048: off by
        # h^2/6 max|phi''| / scale^3, where max|phi''| = phi(0), with 1% for
        # the higher orders; plus the rounding of the two CDFs and of
        # theta +/- h, divided by 2h
        pv = replace(location_pivot(estimate, scale), jacobian_fn=None)
        grid = RealGrid(np.linspace(estimate - width * scale, estimate + width * scale, k))
        dens = parameter_density(pv, grid)
        assert dens.support == (grid.points[0], grid.points[-1])
        h = grid.span / 2048.0
        want = INV_SQRT_2PI * np.exp(-0.5 * ((estimate - grid.points) / scale) ** 2) / scale
        eps = np.finfo(float).eps
        bound = 1.01 * INV_SQRT_2PI * h * h / (6.0 * scale**3) \
            + 2.0 * eps * (1.0 + (np.abs(grid.points) + abs(estimate) + h) / scale) / h
        assert np.all(np.abs(dens(grid.points) - want) <= bound)

    def test_reparameterization_equivariance(self):
        pv = chisq_pivot()
        dens_theta = parameter_density(pv, RealGrid(np.linspace(0.1, 8.0, 25)))
        log_pivot = reparameterized(
            pv, math.log, math.exp, math.exp, support=(-math.inf, math.inf)
        )
        dens_eta = parameter_density(log_pivot, RealGrid(np.linspace(-2.0, 2.0, 25)))
        for eta in np.linspace(-1.5, 1.8, 12):
            theta = math.exp(eta)
            # c_eta(eta) = c_theta(theta) * |dtheta/deta| = c_theta * exp(eta)
            assert dens_eta(float(eta)) == pytest.approx(
                dens_theta(theta) * theta, rel=1e-6
            )
        assert dens_eta.total_mass(tol=1e-9) == pytest.approx(1.0, abs=1e-6)


class TestIntervalEndpoint:
    def test_location_lower_bound(self):
        pv = location_pivot(estimate=2.0)
        low = interval_endpoint(pv, 0.95, "lower")
        assert low == pytest.approx(2.0 - NORMAL_Q95, abs=1e-9)

    def test_variance_lower_bound(self):
        pv = chisq_pivot()  # v = 10/phi, chisq_10
        low = interval_endpoint(pv, 0.95, "lower")
        assert low == pytest.approx(10.0 / 18.30703805327523, abs=1e-9)

    def test_median_level_of_symmetric_pivot(self):
        pv = Pivot(
            law=PivotLaw.student_t(5.0),
            value_fn=lambda lam: (3.0 - lam) / 2.0,
            jacobian_fn=lambda lam: 0.5,
            monotonic="decreasing",
            hint=(3.0, 2.0),
        )
        assert interval_endpoint(pv, 0.5, "lower") == pytest.approx(3.0, abs=1e-9)
        assert interval_endpoint(pv, 0.5, "upper") == pytest.approx(3.0, abs=1e-9)

    def test_one_sided_levels_complement(self):
        pv = chisq_pivot()
        for alpha in [0.05, 0.2, 0.77]:
            lo = interval_endpoint(pv, alpha, "lower")
            up = interval_endpoint(pv, 1.0 - alpha, "upper")
            assert lo == pytest.approx(up, abs=1e-8)

    def test_statement_records_level_and_bound(self):
        pv = location_pivot(0.0)
        st = one_sided_statement(pv, 0.9, "lower")
        assert isinstance(st, ConfidenceStatement)
        assert st.kind == "one_sided_lower"
        assert pv.law.cdf(st.pivot_bound) == pytest.approx(0.9, abs=1e-9)

    def test_unbracketable_endpoint(self):
        pv = Pivot(
            law=PivotLaw.normal(),
            value_fn=lambda t: math.tanh(t),  # bounded: cannot reach 1.6448
            jacobian_fn=lambda t: 1.0 / math.cosh(t) ** 2,
            monotonic="increasing",
        )
        with pytest.raises(NoEndpointError):
            interval_endpoint(pv, 0.99, "upper")

    def test_nan_pivot_value_is_a_domain_error(self):
        # NaN at a bracket end and inside the bracket, where brentq would
        # stop with a bare ValueError; overflows on the way stay silent
        for value_fn in (lambda t: math.nan if t < -1.0 else -t,
                         lambda t: math.nan if 0.5 < t < 3.0 else 2.0 - t):
            pv = Pivot(law=PivotLaw.normal(), value_fn=value_fn, hint=(0.0, 2.0), label="v")
            with pytest.raises(DomainError, match=r"^v is NaN at "):
                interval_endpoint(pv, 0.95, "lower")
        # the bracket grows from 1e10 to beyond 1e23, where t * 1e300 overflows
        pv = Pivot(law=PivotLaw.normal(), hint=(1e10, 1.0), param_support=(0.0, math.inf),
                   value_fn=lambda t: 1e300 - np.float64(t) * 1e300)
        assert interval_endpoint(pv, 0.5, "lower") == pytest.approx(1.0, rel=1e-9)

    def test_invalid_arguments(self):
        pv = location_pivot(0.0)
        with pytest.raises(DomainError):
            interval_endpoint(pv, 1.5, "lower")
        with pytest.raises(DomainError):
            interval_endpoint(pv, 0.5, "sideways")


class TestPvaluePivot:
    @staticmethod
    def shifted_normal_cdf(s, theta):
        return PivotLaw.normal().cdf(s - theta)

    def test_at_the_parameter(self):
        assert pvalue_pivot(self.shifted_normal_cdf, 1.0, 1.0) == pytest.approx(0.5)

    def test_at_upper_quantile(self):
        s = 0.3 + NORMAL_Q95
        assert pvalue_pivot(self.shifted_normal_cdf, s, 0.3) == pytest.approx(
            0.05, abs=1e-12
        )

    def test_theta_derivative_matches_parameter_density(self):
        # d/dtheta of the right-sided P-value is the location confidence density
        estimate = 1.5
        pv = location_pivot(estimate)
        dens = parameter_density(pv, RealGrid(np.linspace(-3.0, 6.0, 41)))
        h = 1e-6
        for theta in [-0.5, 1.0, 2.4]:
            num = (
                pvalue_pivot(self.shifted_normal_cdf, estimate, theta + h)
                - pvalue_pivot(self.shifted_normal_cdf, estimate, theta - h)
            ) / (2.0 * h)
            assert num == pytest.approx(dens(theta), abs=1e-6)


class TestConfidenceDensityType:
    def test_nonnegative_and_clipped_outside_support(self):
        dens = ConfidenceDensity(lambda t: t, support=(0.0, 1.0))
        assert dens(-0.5) == 0.0
        assert dens(2.0) == 0.0
        assert dens(0.5) == 0.5
