"""The gamma block paths against per-replication oracles.

Both gamma models fit and transform a block of replications as arrays,
window rows included; a row whose fit is not accepted, or whose transforms
are not all finite, is a failed replication.  Hit, used, flagged and
failure counts must equal those of fitting one replication at a time with
the public scalar API.

The block coefficient fit is :func:`~confdist.gamma.fit_irls` row by row,
bit for bit, so a regression row fails exactly when its scalar fit raises.
The array transforms are not the scalar ones' floats.  They agree to
rounding (the precision solve uses np.log).  Known-mean and precision
window rows build their nodes (one Newton solver, accepted within 1e-6 of
their target roots) and cubics (one stacked solve) exactly as the scalar
curves do, so they agree to rounding too.  :func:`skovgaard_beta` is one
row of the block kernel, bit for bit, so its coefficient-ray window rows are
checked against :func:`ray_search_oracle` instead: a doubling bracket and a
brentq solve per node, with the determinant-ratio factor by slogdet.  They
agree to the accuracy of their node solves: Newton iterations stopped at
brentq's tolerance, accepted within 1e-9 of their target deviances.  A hit
can therefore differ from a scalar oracle's only for a transform within that
distance of a level; the counts have been equal on every study compared.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from confdist import coverage, gamma, higher_order, pivots
from confdist.coverage import Scenario, design_matrix, run_scenario
from confdist.data import Dataset
from confdist.errors import (
    ConfdistError,
    ConvergenceError,
    DegenerateFitError,
    DomainError,
    ScenarioError,
)
from confdist.gamma import (
    _DEGENERATE_MEAN_B,
    GammaFit,
    _fit_irls_block,
    _log_least_squares,
    _profile_deviance_precision_array,
    _solve_precision_array,
    cumulant_d2,
    fit_irls,
    profile_deviance_beta,
    profile_deviance_precision,
    profile_precision_at,
    solve_precision,
)
from confdist.higher_order import (
    ROOT_WINDOW,
    _fraser_roots,
    _precision_quads,
    _skovgaard_beta_values,
    _skovgaard_roots,
    ball_confidence,
    corrected_deviance_value,
    fraser_curve,
    fraser_root_known_mu,
    signed_root_confidence,
    signed_root_curve,
    skovgaard_beta,
    skovgaard_precision,
    skovgaard_precision_curve,
)
from confdist.numerics import RngStream, rng_draws
from confdist.pivots import PivotLaw
from streams import replication_responses, stream_blocks

KNOWN_MU_METHODS = ("first_order_z", "fraser_z")
REGRESSION_METHODS = ("first_order_precision", "skovgaard_precision",
                      "first_order_beta", "skovgaard_beta")


def block_fit(X, Y):
    """_fit_irls_block from the log least-squares start, as the coverage engine calls it."""
    return _fit_irls_block(X, Y, _log_least_squares(np.linalg.svd(X, full_matrices=False), Y))


def oracle_transforms(sc: Scenario, X, y) -> dict:
    """(transform, flagged) of each method for one replication."""
    if sc.model == "gamma_known_mu":
        root = fraser_root_known_mu(y, sc.varphi)
        out = {"first_order_z": (PivotLaw.normal().cdf(root.signed_root), False),
               "fraser_z": (PivotLaw.normal().cdf(root.value), root.interpolated)}
        return {m: out[m] for m in sc.methods}
    data = Dataset(y=y, X=X)
    fit = fit_irls(data)
    beta = np.array(sc.beta)
    out = {}
    for method in sc.methods:
        if method == "first_order_precision":
            dp = profile_deviance_precision(fit, sc.varphi).value
            root = math.copysign(math.sqrt(dp), fit.varphi_hat - sc.varphi)
            out[method] = (PivotLaw.normal().cdf(root), False)
        elif method == "skovgaard_precision":
            cd = skovgaard_precision(data, fit, sc.varphi)
            out[method] = (signed_root_confidence(cd), cd.flagged)
        elif method == "first_order_beta":
            dp = profile_deviance_beta(data, fit, beta)
            out[method] = (PivotLaw.chisq(dp.dims).cdf(dp.value), False)
        else:
            cd = skovgaard_beta(data, fit, beta)
            out[method] = (ball_confidence(cd), cd.flagged)
    return out


def oracle_counts(sc: Scenario):
    """Hits, flagged, used and failures from one scalar fit per replication."""
    X = design_matrix(sc)
    mean = None if X is None else np.exp(X @ np.array(sc.beta))
    levels = np.array(sc.levels)
    hits = np.zeros((len(sc.methods), len(levels)), dtype=np.int64)
    flagged = np.zeros(len(sc.methods), dtype=np.int64)
    used = np.zeros(len(sc.methods), dtype=np.int64)
    failures = 0
    for r in range(sc.replications):
        y = replication_responses(sc, mean, r)
        try:
            transforms = oracle_transforms(sc, X, y)
        except (ConvergenceError, DegenerateFitError, DomainError):  # DomainError: a y <= 0
            failures += 1
            continue
        for i, method in enumerate(sc.methods):
            u, flag = transforms[method]
            hits[i] += u <= levels
            flagged[i] += bool(flag)
            used[i] += 1
    return hits, flagged, used, failures


def assert_counts_equal(sc: Scenario, stream_block: int | None = None):
    with stream_blocks(sc, stream_block):
        got = coverage._run_chunk(sc, coverage._study(sc), range(sc.replications))
        want = oracle_counts(sc)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    return want


seeds = st.integers(0, 2**64 - 1)
levels = st.lists(st.floats(0.01, 0.99).map(lambda v: round(v, 3)),
                  min_size=1, max_size=4, unique=True).map(lambda v: tuple(sorted(v)))


def methods_from(allowed):
    return st.lists(st.sampled_from(allowed), min_size=1, max_size=len(allowed),
                    unique=True).map(tuple)


@st.composite
def known_mu_scenarios(draw):
    return Scenario(
        model="gamma_known_mu", n=draw(st.integers(2, 40)),
        replications=draw(st.integers(100, 250)), seed=draw(seeds),
        levels=draw(levels), methods=draw(methods_from(KNOWN_MU_METHODS)),
        varphi=draw(st.floats(0.3, 20.0)),
    )


@st.composite
def regression_scenarios(draw):
    design = draw(st.sampled_from(["intercept", "gaussian"]))
    p = 1 if design == "intercept" else draw(st.integers(1, 3))
    coef = st.floats(-2.0, 2.0).map(lambda v: round(v, 3))
    return Scenario(
        model="gamma_regression", n=draw(st.integers(p + 6, 40)),
        replications=draw(st.integers(100, 130)), seed=draw(seeds),
        levels=draw(levels), methods=draw(methods_from(REGRESSION_METHODS)),
        beta=tuple(draw(st.lists(coef, min_size=p, max_size=p))),
        varphi=draw(st.floats(0.3, 20.0)), design=design,
    )


class TestKnownMeanBlock:
    @settings(max_examples=25, deadline=None)
    @given(sc=known_mu_scenarios(), stream_block=st.integers(1, 60))
    def test_counts_equal_per_replication_oracle(self, sc, stream_block):
        assert_counts_equal(sc, stream_block)

    @pytest.mark.parametrize("n,varphi", [(2, 0.3), (10, 2.0), (40, 20.0)])
    def test_window_rows_match(self, n, varphi):
        sc = Scenario(model="gamma_known_mu", n=n, replications=400, seed=n,
                      levels=(0.05, 0.5, 0.95), methods=KNOWN_MU_METHODS, varphi=varphi)
        hits, flagged, used, failures = assert_counts_equal(sc)
        assert flagged[1] > 0  # interpolated rows
        # every row, window rows included, is settled by the array path and
        # agrees with the scalar root up to rounding and node-solve noise
        Y = coverage._responses(sc, coverage._study(sc), range(sc.replications))
        vh = _solve_precision_array((Y - 1.0 - np.log(Y)).mean(axis=1))
        zp = np.sign(vh - varphi) * np.sqrt(_profile_deviance_precision_array(n, vh, varphi))
        value, interpolated = (a[:, 0] for a in _fraser_roots(n, vh[:, None], varphi,
                                                              zp[:, None]))
        roots = [fraser_root_known_mu(y, varphi) for y in Y]
        assert np.isfinite(value).all()
        assert interpolated.tolist() == [r.interpolated for r in roots]
        np.testing.assert_allclose(zp, [r.signed_root for r in roots], rtol=0, atol=1e-10)
        np.testing.assert_allclose(value, [r.value for r in roots], rtol=0, atol=1e-7)

    @pytest.mark.parametrize("varphi,n,seed", [(0.01, 3, 2), (0.005, 5, 2), (0.002, 2, 1)])
    def test_underflowed_draws_are_the_failures(self, varphi, n, seed):
        # at precisions this low some gamma draws underflow to 0.0: those
        # replications, and only those, fail
        sc = Scenario(model="gamma_known_mu", n=n, replications=1000, seed=seed,
                      levels=(0.05, 0.5, 0.95), methods=KNOWN_MU_METHODS, varphi=varphi)
        Y = coverage._responses(sc, coverage._study(sc), range(sc.replications))
        nonpositive = int(np.any(Y <= 0.0, axis=1).sum())
        hits, flagged, used, failures = assert_counts_equal(sc)
        assert failures == nonpositive > 0
        assert np.all(used == sc.replications - failures)

    def test_precision_solve_matches_scalar(self):
        m = np.exp(np.random.default_rng(0).uniform(math.log(1e-12), math.log(1e3), 3000))
        got = _solve_precision_array(m)
        want = np.array([solve_precision(v) for v in m])
        # the score flattens as the precision grows, so a last-bit difference
        # in its logarithm moves the root by about eps * varphi, relatively
        assert np.all(np.abs(got - want) <= 1e-14 * want * np.maximum(1.0, want))


class TestRegressionBlock:
    @settings(max_examples=10, deadline=None)
    @given(sc=regression_scenarios(), stream_block=st.integers(1, 60))
    def test_counts_equal_per_replication_oracle(self, sc, stream_block):
        assert_counts_equal(sc, stream_block)

    def test_block_irls_matches_fit_irls(self):
        sc = Scenario(model="gamma_regression", n=30, replications=300, seed=3,
                      levels=(0.5,), methods=("first_order_precision",),
                      beta=(0.5, -0.3, 0.2), varphi=0.5)
        study = coverage._study(sc)
        Y = coverage._responses(sc, study, range(sc.replications))
        beta, mu, sum_b, converged = block_fit(study.X, Y)
        assert converged.mean() > 0.9
        for i in np.flatnonzero(converged):
            fit = fit_irls(Dataset(y=Y[i], X=study.X))
            assert np.array_equal(beta[i], fit.beta_hat)
            assert sum_b[i] == fit.sum_b
        # five steps leave rows unconverged: each keeps the last iterate of
        # its one-row fit, and fit_irls raises for exactly those rows
        with mock.patch.object(gamma, "_IRLS_MAX_ITER", 5):
            short = block_fit(study.X, Y)
            assert 0 < short[3].sum() < len(Y)
            for i in range(len(Y)):
                one = block_fit(study.X, Y[i:i + 1])
                for got, want in zip(short, one):
                    assert np.array_equal(got[i], want[0])
                if short[3][i]:
                    assert fit_irls(Dataset(y=Y[i], X=study.X)).sum_b == short[2][i]
                else:
                    with pytest.raises(ConvergenceError, match="did not converge in 5 of 5"):
                        fit_irls(Dataset(y=Y[i], X=study.X))
        # with a tolerance of -1 no row meets the convergence test; the block
        # accepts the rows whose score sup-norm is at most 1e-8, and fit_irls
        # returns them without raising
        with mock.patch.object(gamma, "_IRLS_TOL", -1.0):
            beta, mu, sum_b, converged = block_fit(study.X, Y)
            score = np.abs(np.matvec(study.X.T, Y / mu - 1.0)).max(axis=1)
            assert converged.all() and (score <= 1e-8).all()
            for i in range(0, len(Y), 10):
                fit = fit_irls(Dataset(y=Y[i], X=study.X))
                assert np.array_equal(fit.beta_hat, beta[i]) and fit.sum_b == sum_b[i]

    def test_random_blocks_are_one_row_fits(self):
        # random designs and blocks, with and without a step budget, from the
        # log least-squares start, on every other row shifted to means e or
        # e**3 times too large: each accepted row is fit_irls on that row from
        # the same start, bit for bit, and a row is unaccepted exactly when fit_irls
        # raises ConvergenceError.  The first Newton step, read off
        # _solve_rows, shows that the examples reach both the block where
        # every row takes the full step and the block where some row halves it.
        first_steps = set()

        @settings(max_examples=60, deadline=None)
        @given(rows=st.integers(1, 50), n=st.integers(3, 60), p=st.integers(1, 3),
               log_varphi=st.floats(math.log(0.05), math.log(30.0)), seed=st.integers(0, 2**32),
               max_iter=st.sampled_from([1, 2, 3, 5, 8, 200, 200, 200]),
               shift=st.sampled_from([0.0, 0.0, 0.0, 1.0, 3.0]))
        @example(rows=3, n=20, p=2, log_varphi=math.log(2.0), seed=0, max_iter=200, shift=0.0)
        @example(rows=3, n=20, p=2, log_varphi=math.log(2.0), seed=0, max_iter=200, shift=3.0)
        def check(rows, n, p, log_varphi, seed, max_iter, shift):
            p = min(p, n - 1)
            rng = np.random.default_rng(seed)
            X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
            varphi = math.exp(log_varphi)
            Y = np.exp(X @ rng.uniform(-2.0, 2.0, size=p)) * rng.gamma(
                varphi, 1.0 / varphi, size=(rows, n))
            Y = Y[np.all(np.isfinite(Y) & (Y > 0.0), axis=1)]
            start = _log_least_squares(np.linalg.svd(X, full_matrices=False), Y)
            start[::2] += shift
            with mock.patch.object(gamma, "_IRLS_MAX_ITER", max_iter):
                beta, mu, sum_b, converged = _fit_irls_block(X, Y, start)
            for i, y in enumerate(Y):
                try:
                    with (mock.patch.object(gamma, "_IRLS_MAX_ITER", max_iter),
                          mock.patch.object(gamma, "_log_least_squares",
                                            lambda svd, Y: start[i:i + 1])):
                        fit = fit_irls(Dataset(y=y, X=X))
                except ConvergenceError:
                    assert not converged[i]
                    continue
                except DegenerateFitError as err:
                    fit = err  # a perfect fit: compare its coefficients only
                assert converged[i] and np.array_equal(beta[i], fit.beta_hat)
                if not isinstance(fit, DegenerateFitError):
                    assert np.array_equal(mu[i], fit.mu_hat) and sum_b[i] == fit.sum_b
            steps = []

            def recorded(H, g):
                steps.append(solve(H, g))
                return steps[-1]

            with (mock.patch.object(gamma, "_solve_rows", recorded),
                  mock.patch.object(gamma, "_IRLS_MAX_ITER", 1)):
                one = _fit_irls_block(X, Y, start)[0]
            if steps:  # the rows whose start has a finite deviance took a step
                taken = np.isfinite(one).all(axis=1)
                first_steps.add(bool(np.all(one[taken] == start[taken] + steps[0])))

        solve = gamma._solve_rows
        check()
        assert first_steps == {True, False}

    def test_window_and_unconverged_rows_match(self):
        # the benchmark's gamma_regression shape at the seed whose replication
        # 34 once ran out its Fisher-scoring budget far from the optimum;
        # Newton's method fits every row.  One row per stream block keys
        # replication r on RngStream(seed, r), the data of that study.
        sc = Scenario(model="gamma_regression", n=30, replications=100,
                      seed=7149797385448953174, levels=(0.05, 0.5, 0.95),
                      methods=REGRESSION_METHODS, beta=(0.5, -0.3), varphi=2.0)
        hits, flagged, used, failures = assert_counts_equal(sc, stream_block=1)
        assert failures == 0
        assert flagged[1] > 0 and flagged[3] > 0  # Skovgaard window rows
        with stream_blocks(sc, 1):
            assert run_scenario(sc).failures == 0
        assert run_scenario(sc).failures == 0

    def test_formerly_failing_row_fits(self):
        # replication 34 of the seed above stopped with ConvergenceError at a
        # score sup-norm of 1.31 under Fisher scoring
        sc = Scenario(model="gamma_regression", n=30, replications=100,
                      seed=7149797385448953174, levels=(0.5,),
                      methods=("first_order_precision",), beta=(0.5, -0.3), varphi=2.0)
        study = coverage._study(sc)
        y = study.mean * rng_draws(RngStream(sc.seed, 34), "gamma", sc.n,
                                   shape=sc.varphi, scale=1.0 / sc.varphi)
        fit = fit_irls(Dataset(y=y, X=study.X))
        score_tol = 1e-12 * sc.n * max(1.0, float(np.max(np.abs(study.X))))
        assert np.max(np.abs(study.X.T @ (y / fit.mu_hat - 1.0))) <= score_tol

    def test_singular_information_row_stops_alone(self):
        # responses spanning 1e-207 to 1e285 make X' diag(y/mu) X singular in
        # floating point at the start; the row stops unconverged, its block
        # neighbours fit as they would alone
        X = np.array([[1.0, 0.0], [1.0, 2.0], [1.0, -1.0]])
        y = np.array([4.70171123472481e-207, 5.253145285862088e+285, 5887043564.1832])
        with pytest.raises(ConvergenceError):
            fit_irls(Dataset(y=y, X=X))
        other = np.array([0.7, 2.9, 0.4])
        beta, mu, sum_b, converged = block_fit(X, np.array([y, other]))
        assert converged.tolist() == [False, True]
        assert np.array_equal(beta[1], fit_irls(Dataset(y=other, X=X)).beta_hat)

    @settings(max_examples=40, deadline=None)
    @given(design=st.sampled_from(["intercept", "gaussian"]), p=st.integers(1, 3),
           extra=st.integers(2, 40), varphi=st.floats(0.3, 20.0), seed=seeds,
           coef=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
    def test_block_rows_are_one_row_fits(self, design, p, extra, varphi, seed, coef):
        p = 1 if design == "intercept" else p
        sc = Scenario(model="gamma_regression", n=min(p + extra, 40), replications=100,
                      seed=seed, levels=(0.5,), methods=("first_order_precision",),
                      beta=tuple(coef[:p]), varphi=varphi, design=design)
        study = coverage._study(sc)
        Y = coverage._responses(sc, study, range(20))
        Y = Y[np.all(np.isfinite(Y) & (Y > 0.0), axis=1)]
        want = []
        for y in Y:
            fit = fit_irls(Dataset(y=y, X=study.X))
            want.append((fit.beta_hat, fit.mu_hat, fit.sum_b))
        for size in (1, 3, 7, len(Y)):
            for start in range(0, len(Y), max(size, 1)):
                beta, mu, sum_b, converged = block_fit(study.X, Y[start:start + size])
                assert converged.all()
                for i, (b, m, s) in enumerate(want[start:start + size]):
                    assert np.array_equal(beta[i], b) and np.array_equal(mu[i], m)
                    assert sum_b[i] == s

    def test_low_precision_study_leaks_no_warnings(self):
        # at n=5, varphi=0.3 fitted means overflow and underflow; the study
        # whose replication r drew RngStream(seed, r) (one row per stream
        # block) took log(0) inside fit_irls at replication 99
        sc = Scenario(model="gamma_regression", n=5, replications=100, seed=5,
                      levels=(0.5,), methods=("first_order_precision",),
                      beta=(0.5, -0.3), varphi=0.3)
        X = design_matrix(sc)
        y = np.exp(X @ np.array(sc.beta)) * rng_draws(
            RngStream(sc.seed, 99), "gamma", sc.n, shape=sc.varphi, scale=1.0 / sc.varphi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_irls(Dataset(y=y, X=X))
            with stream_blocks(sc, 1):
                assert run_scenario(sc).failures == 0
            assert run_scenario(sc).failures == 0


@pytest.mark.parametrize("model", ["gamma_known_mu", "gamma_regression"])
def test_jobs_give_identical_bytes(model):
    if model == "gamma_known_mu":
        sc = Scenario(model=model, n=10, replications=3 * 3276 + 5, seed=23,
                      levels=(0.05, 0.5, 0.95), methods=KNOWN_MU_METHODS, varphi=2.0)
    else:
        sc = Scenario(model=model, n=30, replications=301, seed=24,
                      levels=(0.05, 0.5, 0.95), methods=REGRESSION_METHODS,
                      beta=(0.5, -0.3), varphi=2.0)
    csv1 = run_scenario(sc, jobs=1).to_csv()
    assert run_scenario(sc, jobs=2).to_csv() == csv1
    assert run_scenario(sc, jobs=3).to_csv() == csv1


# Skovgaard window rows: the array values against skovgaard_precision and
# skovgaard_beta, from the same scalar fits, so only the node solves differ.

def scalar_fits(sc: Scenario):
    """The design and the (data, fit) of every replication fit_irls fits."""
    study = coverage._study(sc)
    rows = []
    for y in coverage._responses(sc, study, range(sc.replications)):
        data = Dataset(y=y, X=study.X)
        try:
            rows.append((data, fit_irls(data)))
        except ConfdistError:
            pass
    return study.X, rows


def array_window_values(X, rows, varphi: float, beta: np.ndarray):
    """Both array Skovgaard paths for every row, from the rows' scalar fits:
    (signed root, flagged, deviance) of the precision, and (value, correction,
    interpolated, correction_unavailable, clamped, deviance) of the
    coefficient vector."""
    y = np.array([data.y for data, _ in rows])
    vh = np.array([fit.varphi_hat for _, fit in rows])
    dp_prec = np.array([profile_deviance_precision(fit, varphi).value for _, fit in rows])
    mu_hat = np.array([fit.mu_hat for _, fit in rows])
    prec = (a[:, 0] for a in _skovgaard_roots(
        X.shape[0], vh[:, None], _precision_quads(X, y, mu_hat)[:, None], varphi))
    vt = np.array([profile_precision_at(data, beta) for data, _ in rows])
    dp_beta = np.array([profile_deviance_beta(data, fit, beta).value for data, fit in rows])
    beta_hat = np.array([fit.beta_hat for _, fit in rows])
    mean = np.tile(np.exp(X @ beta), (len(rows), 1))
    coef = _skovgaard_beta_values(X, y, beta_hat, vh, beta, mean, vt, dp_beta)
    return (*prec, dp_prec), (*coef, dp_beta)


def determinant_factor(data: Dataset, fit, beta: np.ndarray) -> float | None:
    """The determinant-ratio correction factor of the coefficient vector at
    ``beta``, by slogdet of the p x p matrices; None if a determinant is not positive."""
    prec = profile_precision_at(data, beta)
    mu = np.exp(data.X @ beta)
    xr = data.X.T @ (data.y / mu - 1.0)
    weighted = data.X.T @ (data.X * (data.y / mu)[:, None])
    sign_num, logdet_num = np.linalg.slogdet(fit.varphi_hat * (data.X.T @ data.X))
    sign_den, logdet_den = np.linalg.slogdet(
        prec * weighted - np.outer(xr, xr) / (data.n * cumulant_d2(prec)))
    return math.exp(logdet_num - logdet_den) if sign_num > 0.0 and sign_den > 0.0 else None


def ray_search_oracle(data: Dataset, fit, beta: np.ndarray):
    """(value, correction, interpolated, correction_unavailable, clamped) of a
    coefficient-ray window row (0 < d_p < ROOT_WINDOW**2) by a bracketing search.

    Node k lies on the ray beta_hat + t (beta - beta_hat) where the profile
    deviance reaches (k ROOT_WINDOW)^2, k = 1..4: t is bracketed by doubling
    from 1, then solved by brentq at xtol 1e-12.  The corrected deviances at
    the nodes are interpolated at t = 1 by Lagrange's formula.
    """
    direction = beta - fit.beta_hat

    def dp_at(t: float) -> float:
        return profile_deviance_beta(data, fit, fit.beta_hat + t * direction).value

    t_nodes, d_nodes, factors = [], [], []
    t_hi = 1.0
    for k in (1, 2, 3, 4):
        target = (k * ROOT_WINDOW) ** 2
        while dp_at(t_hi) < target:
            t_hi *= 2.0
        t = brentq(lambda t: dp_at(t) - target, 0.0, t_hi, xtol=1e-12, rtol=8.9e-16)
        m = determinant_factor(data, fit, fit.beta_hat + t * direction)
        if m is None:
            dp = profile_deviance_beta(data, fit, beta).value
            return dp, math.nan, False, True, False
        t_nodes.append(t)
        d_nodes.append(corrected_deviance_value(dp_at(t), m)[0])
        factors.append(m)
    value = sum(d * math.prod((1.0 - s) / (t - s) for s in t_nodes if s != t)
                for t, d in zip(t_nodes, d_nodes))
    return max(value, 0.0), factors[0], True, False, value < 0.0


def window_point(data: Dataset, fit, direction: np.ndarray, scale: float) -> np.ndarray:
    """beta_hat plus ``direction``, scaled to a quadratic profile deviance of
    (scale * ROOT_WINDOW)^2 under the observed information at the fit."""
    xd = data.X @ direction
    return fit.beta_hat + direction * scale * ROOT_WINDOW / math.sqrt(
        fit.varphi_hat * np.sum(data.y / fit.mu_hat * xd**2))


WINDOW_STUDIES = [
    dict(n=30, beta=(0.5, -0.3), varphi=2.0, design="gaussian"),  # the benchmark's shape
    dict(n=8, beta=(1.0,), varphi=0.4, design="intercept"),
    dict(n=40, beta=(0.2, 0.4, -0.6), varphi=15.0, design="gaussian"),
]


class TestSkovgaardWindowRows:
    @pytest.mark.parametrize("shape", WINDOW_STUDIES)
    def test_window_values_match_scalar(self, shape):
        sc = Scenario(model="gamma_regression", replications=400, seed=shape["n"],
                      levels=(0.5,), methods=REGRESSION_METHODS, **shape)
        X, rows = scalar_fits(sc)
        beta = np.array(sc.beta)
        (root, flagged, dp), b_fields = array_window_values(X, rows, sc.varphi, beta)
        # both sides place their nodes at the evaluation noise of the
        # deviance, which at large precisions is ~1e-9 of the precision
        # deviance; the corrected value's slope at the nodes,
        # log(m) d_p'/(2 d_p^2), magnifies that, hence the looser bound
        windows = 0
        for i in np.flatnonzero(dp < ROOT_WINDOW**2):
            cd = skovgaard_precision(*rows[i], sc.varphi)
            assert flagged[i] == cd.flagged
            assert abs(root[i] ** 2 - cd.value) <= 1e-8 * max(1.0, abs(cd.value))
            array_confidence = PivotLaw.normal().cdf(root[i])
            assert abs(array_confidence - signed_root_confidence(cd)) <= 1e-9
            windows += 1
        assert windows >= 5
        # coefficient-ray window rows: at the truth (rare unless p = 1), and
        # next to each of the first estimates in a block of five rows
        checks = [(rows[i], beta, [f[i] for f in b_fields])
                  for i in np.flatnonzero(b_fields[-1] < ROOT_WINDOW**2)]
        for i, row in enumerate(rows[:5]):
            point = window_point(*row, np.ones(len(beta)), 0.5)
            fields = array_window_values(X, rows[:5], sc.varphi, point)[1]
            checks.append((row, point, [f[i] for f in fields]))
        chisq = PivotLaw.chisq(len(beta))
        for row, point, (got, correction, *flags, dp) in checks:
            assert 0.0 < dp < ROOT_WINDOW**2
            want, want_correction, *want_flags = ray_search_oracle(*row, point)
            assert [bool(f) for f in flags] == want_flags
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
            assert abs(correction - want_correction) <= 1e-9 * want_correction
            assert abs(chisq.cdf(got) - chisq.cdf(want)) <= 1e-9
        if len(beta) == 1:
            assert len(checks) >= 10

    def test_zero_deviance_rows(self):
        sc = Scenario(model="gamma_regression", n=30, replications=100, seed=3,
                      levels=(0.5,), methods=REGRESSION_METHODS, beta=(0.5, -0.3), varphi=2.0)
        X, rows = scalar_fits(sc)
        for data, fit in rows[:5]:
            # at the estimate itself both deviances vanish
            (pv, pf, pdp), (*fields, bdp) = array_window_values(
                X, [(data, fit)], fit.varphi_hat, fit.beta_hat)
            assert pdp[0] == bdp[0] == 0.0
            cd = skovgaard_beta(data, fit, fit.beta_hat)
            assert [f[0] for f in fields] == [0.0, 1.0, True, False, False] == [
                cd.value, cd.correction, cd.interpolated, cd.correction_unavailable, cd.clamped]
            # the signed root is 0 there, whatever the window cubic gives
            cd = skovgaard_precision(data, fit, fit.varphi_hat)
            assert pf[0] and cd.flagged
            assert pv[0] == float(cd) == 0.0

    def test_factor_unavailable_at_a_node(self, monkeypatch):
        # declare the corrections unavailable away from the truth, that is
        # at the window nodes: window rows keep the first-order deviance
        sc = Scenario(model="gamma_regression", n=30, replications=400, seed=30,
                      levels=(0.5,), methods=REGRESSION_METHODS, beta=(0.5, -0.3), varphi=2.0)
        X, rows = scalar_fits(sc)
        beta = np.array(sc.beta)
        real_p, real_ps = (higher_order._precision_correction_factor,
                           higher_order._precision_correction_factors)
        monkeypatch.setattr(higher_order, "_precision_correction_factor",
                            lambda d, f, v: real_p(d, f, v) if v == sc.varphi else None)
        monkeypatch.setattr(higher_order, "_precision_correction_factors",
                            lambda n, vh, q, v: real_ps(n, vh, q, v) + np.where(
                                np.equal(v, sc.varphi), 0.0, np.nan))
        monkeypatch.setattr(higher_order, "_beta_correction_factors",
                            lambda *a: np.full(len(a[1]), np.nan))
        (root, flagged, dp), _ = array_window_values(X, rows, sc.varphi, beta)
        windows = 0
        for i in np.flatnonzero((dp < ROOT_WINDOW**2) & (dp > 0.0)):
            cd = skovgaard_precision(*rows[i], sc.varphi)
            assert cd.correction_unavailable and flagged[i]
            assert not (cd.interpolated or cd.clamped)
            assert cd.value == dp[i]
            assert root[i] == float(cd) == cd.sign * math.sqrt(dp[i])
            windows += 1
        assert windows >= 5
        # the truth is rarely a window row of the coefficient vector at p = 2:
        # take a point next to each of the first estimates instead
        for i, (data, fit) in enumerate(rows[:5]):
            point = window_point(data, fit, np.array([1.0, -1.0]), 0.5)
            _, (value, _, interpolated, unavailable, clamped, dp) = array_window_values(
                X, rows[:5], sc.varphi, point)
            cd = skovgaard_beta(data, fit, point)
            assert cd.correction_unavailable and unavailable[i]
            assert not (cd.interpolated or cd.clamped or interpolated[i] or clamped[i])
            assert 0.0 < dp[i] < ROOT_WINDOW**2
            assert value[i] == cd.value == dp[i]

    @settings(max_examples=8, deadline=None)
    @given(sc=regression_scenarios(), replications=st.integers(300, 400),
           stream_block=st.integers(1, 60))
    def test_many_window_rows_count_as_oracle(self, sc, replications, stream_block):
        sc = Scenario(**{**sc.to_dict(), "replications": replications,
                         "methods": REGRESSION_METHODS, "levels": tuple(sc.levels)})
        hits, flagged, used, failures = assert_counts_equal(sc, stream_block)
        assert flagged[1] > 0

    def test_window_rows_settle_in_the_array_path(self):
        # a window row whose nodes do not settle would be a failed
        # replication, so every row fit_irls fits must be used
        sc = Scenario(model="gamma_regression", n=30, replications=400, seed=5,
                      levels=(0.05, 0.5, 0.95), methods=REGRESSION_METHODS,
                      beta=(0.5, -0.3), varphi=2.0)
        report = run_scenario(sc)
        assert report.row("skovgaard_precision", 0.5).flagged_count >= 5
        X, rows = scalar_fits(sc)
        assert report.failures == sc.replications - len(rows) == 0

    def test_unsettled_nodes_are_failed_replications(self, monkeypatch):
        # one Newton step settles no node: every window row is a failed
        # replication, and the other rows count as the oracle does
        sc = Scenario(model="gamma_regression", n=30, replications=300, seed=6,
                      levels=(0.05, 0.5, 0.95), methods=REGRESSION_METHODS,
                      beta=(0.5, -0.3), varphi=2.0)
        monkeypatch.setattr(higher_order, "_NODE_STEPS", 1)
        got = coverage._run_chunk(sc, coverage._study(sc), range(sc.replications))
        X, rows = scalar_fits(sc)
        beta, levels = np.array(sc.beta), np.array(sc.levels)
        hits = np.zeros((len(sc.methods), len(levels)), dtype=np.int64)
        flagged = np.zeros(len(sc.methods), dtype=np.int64)
        kept = 0
        for data, fit in rows:
            # window rows by their deviances: the scalar precision curve
            # solves its nodes under the same patched budget and raises
            dp_prec = profile_deviance_precision(fit, sc.varphi).value
            dp_beta = profile_deviance_beta(data, fit, beta).value
            if dp_prec < ROOT_WINDOW**2 or 0.0 < dp_beta < ROOT_WINDOW**2:
                continue
            kept += 1
            for i, (u, flag) in enumerate(oracle_transforms(sc, X, data.y).values()):
                hits[i] += u <= levels
                flagged[i] += flag
        assert len(rows) - kept >= 5
        want = hits, flagged, np.full(len(sc.methods), kept), sc.replications - kept
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestOneRowOfTheKernel:
    """skovgaard_beta is one row of _skovgaard_beta_values: every field on one
    row equals that row of a call on several rows, bit for bit."""

    @settings(max_examples=10, deadline=None)
    @given(sc=regression_scenarios(), scale=st.floats(0.1, 0.9), seed=seeds)
    def test_one_row_equals_a_block_row(self, sc, scale, seed):
        X, rows = scalar_fits(sc)
        rows = rows[:6]
        direction = np.random.default_rng(seed).normal(size=X.shape[1])
        window = window_point(*rows[0], direction, scale)
        assert 0.0 < profile_deviance_beta(*rows[0], window).value < ROOT_WINDOW**2
        estimate = rows[1][1].beta_hat
        assert profile_deviance_beta(*rows[1], estimate).value == 0.0
        for beta in (np.array(sc.beta), window, estimate):
            value, correction, *flags, dp = array_window_values(X, rows, sc.varphi, beta)[1]
            for i, (data, fit) in enumerate(rows):
                try:
                    cd = skovgaard_beta(data, fit, beta)
                except ConvergenceError:
                    assert np.isnan(value[i])
                    continue
                assert np.array_equal([cd.deviance, cd.value, cd.correction],
                                      [dp[i], value[i], correction[i]], equal_nan=True)
                assert [cd.interpolated, cd.correction_unavailable, cd.clamped] == [
                    bool(f[i]) for f in flags]

    def test_unsettled_ray_nodes_raise(self, monkeypatch):
        sc = Scenario(model="gamma_regression", n=30, replications=100, seed=3,
                      levels=(0.5,), methods=REGRESSION_METHODS, beta=(0.5, -0.3), varphi=2.0)
        _, rows = scalar_fits(sc)
        data, fit = rows[0]
        beta = window_point(data, fit, np.array([1.0, -1.0]), 0.5)
        assert 0.0 < profile_deviance_beta(data, fit, beta).value < ROOT_WINDOW**2
        assert skovgaard_beta(data, fit, beta).interpolated
        monkeypatch.setattr(higher_order, "_NODE_STEPS", 1)  # one Newton step settles no node
        with pytest.raises(ConvergenceError, match="ray nodes did not settle"):
            skovgaard_beta(data, fit, beta)
        assert not skovgaard_beta(data, fit, np.array(sc.beta)).interpolated


class TestBlockRowsAreCurveValues:
    """A row of the coverage kernel is the ``values`` of that fit's curve at
    the true precision, bit for bit, window rows included: both call one
    array kernel per method, the curve on one row."""

    @pytest.mark.parametrize("sc", [
        Scenario(model="gamma_known_mu", n=10, replications=2000, seed=5, levels=(0.5,),
                 methods=KNOWN_MU_METHODS, varphi=2.0),
        Scenario(model="gamma_regression", n=30, replications=1500, seed=11, levels=(0.5,),
                 methods=("first_order_precision", "skovgaard_precision"),
                 beta=(0.5, -0.3), varphi=2.0),
    ], ids=["known_mu", "regression"])
    def test_block_row_is_the_curve_at_the_truth(self, sc):
        study = coverage._study(sc)
        X, v = study.X, np.array([sc.varphi])
        n, p = X.shape
        Y = coverage._responses(sc, study, range(sc.replications))
        values = coverage._gamma_arrays(sc, study, Y)
        # the rows the kernel keeps, and their estimates, as it forms them
        Y = Y[np.all(np.isfinite(Y) & (Y > 0.0), axis=1)]
        if p:
            beta_hat, mu_hat, sum_b, converged = _fit_irls_block(
                X, Y, _log_least_squares(study.svd, Y))
        else:
            sum_b, converged = gamma.unit_deviance_terms(Y, study.mean).sum(axis=1), True
            beta_hat, mu_hat = np.empty((len(Y), 0)), np.ones(Y.shape)
        fitted = converged & (sum_b / n >= _DEGENERATE_MEAN_B)
        vh = _solve_precision_array(sum_b[fitted] / n)
        curves = {m: [] for m in sc.methods}
        for y, b, mu, varphi_hat, s in zip(Y[fitted], beta_hat[fitted], mu_hat[fitted], vh,
                                           sum_b[fitted]):
            fit = GammaFit(beta_hat=b, varphi_hat=float(varphi_hat), mu_hat=mu,
                           loglik=math.nan, sum_b=float(s), n=n, p=p)
            for m, curve in zip(sc.methods, (
                    signed_root_curve(n, fit.varphi_hat),
                    fraser_curve(fit) if p == 0 else skovgaard_precision_curve(
                        Dataset(y=y, X=X), fit))):
                curves[m].append(curve.values(v)[0])
        corrected = sc.methods[1]
        assert values[corrected][2].sum() >= 50  # window rows
        for m in sc.methods:
            assert np.array(curves[m]).tobytes() == values[m][0].tobytes()


class TestRowFailures:
    SC = Scenario(model="gamma_regression", n=30, replications=100, seed=11,
                  levels=(0.05, 0.5, 0.95), methods=REGRESSION_METHODS,
                  beta=(0.5, -0.3), varphi=2.0)
    KNOWN_MU = Scenario(model="gamma_known_mu", n=10, replications=100, seed=11,
                        levels=(0.05, 0.5, 0.95), methods=KNOWN_MU_METHODS, varphi=2.0)

    def force_nan(self, monkeypatch, rows, method):
        """Make ``method``'s transform NaN on ``rows`` of every block."""
        real = coverage._gamma_arrays

        def arrays(sc, study, Y):
            transforms = real(sc, study, Y)
            transforms[method][0][rows] = np.nan
            return transforms

        monkeypatch.setattr(coverage, "_gamma_arrays", arrays)

    @pytest.mark.parametrize("method", ["first_order_precision", "skovgaard_beta", "fraser_z"])
    def test_nan_transform_is_a_failed_replication(self, monkeypatch, method):
        sc = self.KNOWN_MU if method == "fraser_z" else self.SC
        base = run_scenario(sc)
        self.force_nan(monkeypatch, [3], method)
        report = run_scenario(sc)
        assert report.failures == base.failures + 1
        for got, want in zip(report.rows, base.rows):
            assert got.replications_used == want.replications_used - 1

    def test_values_at_the_cuts_count_as_the_cdf(self, monkeypatch):
        # values on, next to and inside each level's cuts, the infinities and
        # a NaN on the first rows: -inf is a hit at every level, inf a miss,
        # and a NaN row a failed replication; every count is the CDF's
        real, seen = coverage._gamma_arrays, []

        def arrays(sc, study, Y):
            values = real(sc, study, Y)
            for m in ("first_order_precision", "first_order_beta"):  # normal and chisq(2) laws
                v, law, _ = values[m]
                edges = [-np.inf, np.inf, 0.0]
                cuts, k = pivots.level_cuts(law, sc.levels), len(sc.levels)
                for lo, hi in zip(cuts[:k], cuts[k:]):
                    edges += [np.nextafter(lo, -np.inf), lo, np.nextafter(lo, np.inf),
                              0.5 * (lo + hi), np.nextafter(hi, -np.inf), hi,
                              np.nextafter(hi, np.inf)]
                v[:len(edges)] = edges
            values["skovgaard_beta"][0][len(edges)] = np.nan
            seen.append({m: tuple(np.copy(x) for x in values[m]) for m in sc.methods})
            return values

        monkeypatch.setattr(coverage, "_gamma_arrays", arrays)
        sc = self.SC
        got = coverage._run_chunk(sc, coverage._study(sc), range(sc.replications))
        (values,) = seen
        used = np.logical_and.reduce([~np.isnan(v) for v, _, _ in values.values()])
        laws = dict(zip(REGRESSION_METHODS, [PivotLaw.normal()] * 2 + [PivotLaw.chisq(2)] * 2))
        hits = [(laws[m].cdf(values[m][0][used])[:, None] <= np.array(sc.levels)).sum(0)
                for m in sc.methods]
        want = (np.array(hits), np.array([np.count_nonzero(values[m][2][used]) for m in sc.methods]),
                np.full(len(sc.methods), used.sum()), sc.replications - used.sum())
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert got[3] >= 1
        for m in ("first_order_precision", "first_order_beta"):
            assert values[m][0][0] == -np.inf and values[m][0][1] == np.inf and used[:2].all()
            assert np.array_equal(coverage._hits(values[m][0][:2], laws[m], sc.levels), [1, 1, 1])

    def test_more_than_one_percent_still_aborts(self, monkeypatch):
        self.force_nan(monkeypatch, [3, 40], "skovgaard_beta")
        with pytest.raises(ScenarioError, match="2 of 100 replications failed"):
            run_scenario(self.SC)
