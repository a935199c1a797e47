"""The block replication engine against per-replication oracles.

Block draws must reproduce every replication's own stream bit for bit, and
the normal-regression block transforms must give the hit, used and failure
counts that fitting one replication at a time with the public API gives.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confdist.numerics
from confdist import coverage
from confdist.coverage import Scenario, design_matrix, run_scenario
from confdist.data import Dataset
from confdist.errors import (
    ContractViolationError,
    DegenerateFitError,
    DomainError,
    SingularDesignError,
)
from confdist.linear import (
    coefficient_ball_pivot,
    contrast,
    contrast_pivot,
    fit_ols,
    variance_pivot,
)
from confdist.numerics import RngStream, rng_block_draws, rng_draws

EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))


class TestBlockDraws:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, start=st.integers(0, 2**32 - 64), n=st.integers(1200, 4000),
           law=st.sampled_from(["normal", "gamma"]))
    def test_rows_equal_per_stream_draws_across_block_edges(self, seed, start, n, law):
        kw = {"shape": 1.7, "scale": 0.6} if law == "gamma" else {}
        step = len(next(coverage._blocks(range(start, 2**32), n)))
        ids = range(start, start + step + 3)
        blocks = list(coverage._blocks(ids, n))
        assert len(blocks) == 2
        got = np.vstack([rng_block_draws(seed, b, law, n, **kw) for b in blocks])
        want = np.array([rng_draws(RngStream(seed, r), law, n, **kw) for r in ids])
        assert np.array_equal(got, want)

    def test_largest_stream_id(self):
        got = rng_block_draws(2**64 - 1, [2**32 - 1, 0], "normal", 5)
        assert np.array_equal(got[0], rng_draws(RngStream(2**64 - 1, 2**32 - 1), "normal", 5))
        assert np.array_equal(got[1], rng_draws(RngStream(2**64 - 1, 0), "normal", 5))

    @pytest.mark.parametrize("ids", [[2**32], [-1], [[0, 1]]])
    def test_stream_ids_outside_u32_rejected(self, ids):
        with pytest.raises(DomainError):
            rng_block_draws(1, ids, "normal", 3)

    def test_key_mismatch_with_seed_sequence_is_caught(self, monkeypatch):
        real = confdist.numerics._stream_keys
        monkeypatch.setattr(confdist.numerics, "_stream_keys",
                            lambda seed, ids: real(seed, ids) ^ np.uint64(1))
        with pytest.raises(ContractViolationError):
            rng_block_draws(7, range(3), "normal", 4)


def oracle_counts(sc: Scenario):
    """Hits, used and failures from one fit_ols per replication."""
    X = design_matrix(sc)
    beta = np.array(sc.beta)
    b = np.array(sc.contrast_vector) if sc.contrast_vector else np.eye(len(beta))[0]
    levels = np.array(sc.levels)
    hits = np.zeros((len(sc.methods), len(levels)), dtype=np.int64)
    used = np.zeros(len(sc.methods), dtype=np.int64)
    failures = 0
    for r in range(sc.replications):
        y = X @ beta + math.sqrt(sc.phi) * rng_draws(RngStream(sc.seed, r), "normal", sc.n)
        fit = fit_ols(Dataset(y=y, X=X))
        try:
            pivots = {
                "variance_chisq": (variance_pivot(fit), sc.phi),
                "contrast_t": (contrast_pivot(fit, contrast(fit, b)), float(b @ beta)),
                "coefficient_f": (coefficient_ball_pivot(fit), beta),
            }
        except DegenerateFitError:
            failures += 1
            continue
        for i, method in enumerate(sc.methods):
            pv, truth = pivots[method]
            hits[i] += pv.law.cdf(pv.value(truth)) <= levels
            used[i] += 1
    return hits, used, failures


def engine_counts(sc: Scenario):
    hits, flagged, used, failures = coverage._run_chunk(
        sc, coverage._study(sc), range(sc.replications))
    assert not flagged.any()
    return hits, used, failures


@st.composite
def normal_scenarios(draw):
    n = draw(st.integers(3, 40))
    design = draw(st.sampled_from(["intercept", "gaussian"]))
    p = 1 if design == "intercept" else draw(st.integers(1, min(4, n - 1)))
    coef = st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 3))
    beta = tuple(draw(st.lists(coef, min_size=p, max_size=p)))
    contrast_vector = draw(st.one_of(
        st.none(),
        st.lists(coef, min_size=p, max_size=p).filter(any).map(tuple)))
    methods = draw(st.lists(st.sampled_from(["variance_chisq", "contrast_t", "coefficient_f"]),
                            min_size=1, max_size=3, unique=True))
    levels = draw(st.lists(st.floats(0.01, 0.99).map(lambda v: round(v, 3)),
                           min_size=1, max_size=4, unique=True))
    return Scenario(
        model="normal_regression", n=n, replications=draw(st.integers(100, 160)),
        seed=draw(seeds), levels=tuple(sorted(levels)), methods=tuple(methods),
        beta=beta, phi=draw(st.floats(0.05, 20.0)), design=design,
        contrast_vector=contrast_vector,
    )


class TestNormalBlockTransforms:
    @settings(max_examples=25, deadline=None)
    @given(sc=normal_scenarios())
    def test_counts_equal_per_replication_oracle(self, sc):
        # a small block budget makes the engine cross block edges here too
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coverage, "_BLOCK_VALUES", 7 * sc.n)
            hits, used, failures = engine_counts(sc)
        want_hits, want_used, want_failures = oracle_counts(sc)
        assert np.array_equal(hits, want_hits)
        assert np.array_equal(used, want_used)
        assert failures == want_failures == 0

    def test_noise_free_replications_are_failures(self):
        # sqrt(phi) * noise vanishes against the mean response: every fit is
        # perfect, so every replication fails as DegenerateFitError would
        sc = Scenario(model="normal_regression", n=12, replications=100, seed=4,
                      levels=(0.5,), methods=("variance_chisq", "contrast_t"),
                      beta=(1.0, 2.0), phi=1e-60)
        for hits, used, failures in (engine_counts(sc), oracle_counts(sc)):
            assert not hits.any() and not used.any() and failures == 100

    def test_rank_deficient_design_raises_like_fit_ols(self, monkeypatch):
        sc = Scenario(model="normal_regression", n=10, replications=100, seed=3,
                      levels=(0.5,), methods=("variance_chisq", "contrast_t"),
                      beta=(1.0, 0.5, 0.5), phi=1.0)
        X = design_matrix(sc)
        X[:, 2] = X[:, 1]
        monkeypatch.setattr(coverage, "design_matrix", lambda _: X)
        with pytest.raises(SingularDesignError) as raised:
            run_scenario(sc)
        with pytest.raises(SingularDesignError) as direct:
            fit_ols(Dataset(y=np.ones(10), X=X))
        assert str(raised.value) == str(direct.value)


def test_jobs_give_identical_bytes_off_block_multiples():
    sc = Scenario(model="normal_regression", n=15, replications=2 * 2184 + 7, seed=21,
                  levels=(0.05, 0.5, 0.95),
                  methods=("variance_chisq", "contrast_t", "coefficient_f"),
                  beta=(1.0, -0.5, 0.25), phi=2.0, contrast_vector=(0.0, 1.0, -1.0))
    assert len(list(coverage._blocks(range(sc.replications), sc.n))) == 3
    csv1 = run_scenario(sc, jobs=1).to_csv()
    assert run_scenario(sc, jobs=2).to_csv() == csv1
    assert run_scenario(sc, jobs=3).to_csv() == csv1


@pytest.mark.parametrize("n,beta", [(15, (1.0, -0.5, 0.25)), (8, (2.0,)), (30, (0.3, 1.0, -2.0, 0.5))])
def test_normal_transforms_do_not_depend_on_block_size(monkeypatch, n, beta):
    # every row rounds as fit_ols and the scalar pivots do, so blocks of any
    # size (as in the tail block of a --jobs chunk) give the same bits
    p = len(beta)
    sc = Scenario(model="normal_regression", n=n, replications=150, seed=n, levels=(0.5,),
                  methods=("variance_chisq", "contrast_t", "coefficient_f"), beta=beta, phi=2.0,
                  contrast_vector=tuple(float(k % 3 - 1) or 1.0 for k in range(p)))
    study = coverage._study(sc)
    reps = range(sc.replications)

    def transforms(rows_per_block):
        monkeypatch.setattr(coverage, "_BLOCK_VALUES", rows_per_block * sc.n)
        parts = [coverage._normal_block(sc, study, coverage._responses(sc, study, ids))[0]
                 for ids in coverage._blocks(reps, sc.n)]
        return {m: np.concatenate([part[m][0] for part in parts]) for m in sc.methods}

    whole = transforms(sc.replications)
    for rows_per_block in (1, 3, 7):
        got = transforms(rows_per_block)
        for m in sc.methods:
            assert np.array_equal(got[m], whole[m])
    X, b, truth = design_matrix(sc), np.array(sc.contrast_vector), np.array(beta)
    for r in reps:
        y = X @ truth + math.sqrt(sc.phi) * rng_draws(RngStream(sc.seed, r), "normal", sc.n)
        fit = fit_ols(Dataset(y=y, X=X))
        pivots = {"variance_chisq": (variance_pivot(fit), sc.phi),
                  "contrast_t": (contrast_pivot(fit, contrast(fit, b)), float(b @ truth)),
                  "coefficient_f": (coefficient_ball_pivot(fit), truth)}
        for m, (pv, at) in pivots.items():
            assert pv.law.cdf(pv.value(at)) == whole[m][r]
