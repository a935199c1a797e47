"""The block replication engine against the stream contract and oracles.

Block draws must follow the stream contract (version 2, see
``tests/streams.py``) whatever the study's size, compute block or worker
count, and the normal-regression block transforms must give the hit, used
and failure counts that fitting one replication at a time with the public
API gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdist import coverage
from confdist.coverage import Scenario, design_matrix, run_scenario
from confdist.data import Dataset
from confdist.errors import DegenerateFitError, SingularDesignError
from confdist.gamma import fit_irls
from confdist.linear import (
    coefficient_ball_pivot,
    contrast,
    contrast_pivot,
    fit_ols,
    variance_pivot,
)
from confdist.pivots import PivotLaw
from streams import replication_responses, stream_blocks

EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))

# (model, varphi): normal draws, and gamma draws of a small and a large shape
LAWS = [("normal_regression", None), ("gamma_known_mu", 0.3), ("gamma_known_mu", 20.0)]


def draw_scenario(law, seed: int, replications: int = 100, n: int = 6) -> Scenario:
    model, varphi = law
    if model == "normal_regression":
        return Scenario(model=model, n=n, replications=replications, seed=seed,
                        levels=(0.05, 0.5, 0.95), methods=("variance_chisq", "contrast_t"),
                        beta=(1.0, -0.5), phi=2.0)
    return Scenario(model=model, n=n, replications=replications, seed=seed,
                    levels=(0.05, 0.5, 0.95), methods=("first_order_z", "fraser_z"),
                    varphi=varphi)


def contract_rows(sc: Scenario, ids) -> np.ndarray:
    mean = coverage._study(sc).mean
    return np.array([replication_responses(sc, mean, r) for r in ids])


contract_cases = pytest.mark.parametrize(
    "law,seed", [(law, seed) for law in LAWS for seed in EDGE_SEEDS])


class TestBlockDraws:
    @settings(max_examples=10, deadline=None)
    @given(seed=seeds, start=st.integers(0, 2**32 - 1024), n=st.integers(3, 40),
           law=st.sampled_from(LAWS), per_compute=st.integers(1, 3))
    def test_rows_equal_per_stream_draws_across_block_edges(self, seed, start, n, law,
                                                            per_compute):
        # compute blocks of one to three stream blocks, over a range that
        # starts and ends inside a stream block
        ids = range(start, start + 3 * coverage._STREAM_BLOCK + 5)
        for s in [*EDGE_SEEDS, seed]:
            sc = draw_scenario(law, s, n=n)
            study = coverage._study(sc)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(coverage, "_BLOCK_VALUES", per_compute * coverage._STREAM_BLOCK * n)
                got = np.vstack([coverage._responses(sc, study, b)
                                 for b in coverage._blocks(ids, n)])
            assert np.array_equal(got, contract_rows(sc, ids))

    def test_largest_stream_id(self):
        last = coverage._MAX_REPLICATIONS - 1
        assert last // coverage._STREAM_BLOCK == 2**24 - 1 < coverage._DESIGN_STREAM
        for law in LAWS:
            for seed in EDGE_SEEDS:
                sc = draw_scenario(law, seed, replications=coverage._MAX_REPLICATIONS)
                ids = range(last - 1, last + 1)
                got = coverage._responses(sc, coverage._study(sc), ids)
                assert np.array_equal(got, contract_rows(sc, ids))

    @contract_cases
    def test_partial_block_is_leading_rows_of_full_block(self, law, seed):
        sc = draw_scenario(law, seed)
        study = coverage._study(sc)
        size = coverage._STREAM_BLOCK
        for first in (0, size):
            full = coverage._responses(sc, study, range(first, first + size))
            assert np.array_equal(full, contract_rows(sc, range(first, first + size)))
            for rows in (1, 37, size - 1):
                part = coverage._responses(sc, study, range(first, first + rows))
                assert np.array_equal(part, full[:rows])

    @contract_cases
    def test_replication_rows_do_not_depend_on_study_size(self, law, seed, monkeypatch):
        # record what the engine fits; 300 and 700 replications end in
        # different stream blocks, and inside them
        fitted = {}
        name = "_normal_block" if law[0] == "normal_regression" else "_gamma_block"
        real = getattr(coverage, name)

        def recording(sc, study, Y):
            fitted.setdefault(sc.replications, []).append(Y.copy())
            return real(sc, study, Y)

        monkeypatch.setattr(coverage, name, recording)
        for replications in (300, 700):
            run_scenario(draw_scenario(law, seed, replications))
        small, large = (np.vstack(fitted[r]) for r in (300, 700))
        assert np.array_equal(small, large[:300])

    @contract_cases
    def test_block_values_change_no_csv_byte(self, law, seed, monkeypatch):
        sc = draw_scenario(law, seed, replications=3 * coverage._STREAM_BLOCK + 7)
        csv = run_scenario(sc).to_csv()
        for values in (1, 2 * coverage._STREAM_BLOCK * sc.n, 2**40):
            monkeypatch.setattr(coverage, "_BLOCK_VALUES", values)
            assert run_scenario(sc).to_csv() == csv


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
        fit = fit_ols(Dataset(y=replication_responses(sc, X @ beta, r), X=X))
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
    assert not any(flagged)
    return np.array(hits), np.array(used), failures


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
    @given(sc=normal_scenarios(), stream_block=st.integers(1, 40))
    def test_counts_equal_per_replication_oracle(self, sc, stream_block):
        with stream_blocks(sc, stream_block):
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
        # each regression model's study raises before any replication runs,
        # with the text of its own fit; the scenario keeps the design it
        # validated, so the rank-deficient design is patched in before it is built
        normal = dict(model="normal_regression", n=10, replications=100, seed=3,
                      levels=(0.5,), methods=("variance_chisq", "contrast_t"),
                      beta=(1.0, 0.5, 0.5), phi=1.0)
        gamma = dict(model="gamma_regression", n=10, replications=100, seed=3,
                     levels=(0.5,), methods=("first_order_precision", "skovgaard_beta"),
                     beta=(0.5, -0.3, 0.2), varphi=2.0)
        for keywords, fit in ((normal, fit_ols), (gamma, fit_irls)):
            X = design_matrix(Scenario(**keywords))
            X[:, 2] = X[:, 1]
            monkeypatch.setattr(coverage, "design_matrix", lambda _: X)
            sc = Scenario(**keywords)
            with pytest.raises(SingularDesignError) as raised:
                run_scenario(sc)
            with pytest.raises(SingularDesignError) as direct:
                fit(Dataset(y=np.ones(10), X=X))
            assert str(raised.value) == str(direct.value)
            assert str(raised.value).startswith("design matrix has rank 2 < p=3 at singular-value")


def test_jobs_give_identical_bytes_off_block_multiples():
    sc = Scenario(model="normal_regression", n=15, replications=2 * 2184 + 7, seed=21,
                  levels=(0.05, 0.5, 0.95),
                  methods=("variance_chisq", "contrast_t", "coefficient_f"),
                  beta=(1.0, -0.5, 0.25), phi=2.0, contrast_vector=(0.0, 1.0, -1.0))
    assert len(list(coverage._blocks(range(sc.replications), sc.n))) == 3
    csv1 = run_scenario(sc, jobs=1).to_csv()
    assert run_scenario(sc, jobs=2).to_csv() == csv1
    assert run_scenario(sc, jobs=3).to_csv() == csv1


def test_jobs_split_on_stream_blocks():
    # four stream blocks, the last of 7 rows: two chunks of two blocks, or
    # three chunks of one, one and two blocks
    sc = Scenario(model="normal_regression", n=15, replications=3 * 256 + 7, seed=22,
                  levels=(0.05, 0.5, 0.95),
                  methods=("variance_chisq", "contrast_t", "coefficient_f"),
                  beta=(1.0, -0.5, 0.25), phi=2.0)
    csv1 = run_scenario(sc, jobs=1).to_csv()
    assert run_scenario(sc, jobs=2).to_csv() == csv1
    assert run_scenario(sc, jobs=3).to_csv() == csv1


def test_one_block_study_starts_no_workers(monkeypatch):
    sc = Scenario(model="normal_regression", n=15, replications=200, seed=23,
                  levels=(0.05, 0.5, 0.95), methods=("variance_chisq", "contrast_t"),
                  beta=(1.0, -0.5, 0.25), phi=2.0)
    csv1 = run_scenario(sc, jobs=1).to_csv()

    def no_pool(*args, **kwargs):
        raise AssertionError("a single chunk must run in-process")

    monkeypatch.setattr(coverage, "ProcessPoolExecutor", no_pool)
    assert run_scenario(sc, jobs=4).to_csv() == csv1


@pytest.mark.parametrize("n,beta", [(15, (1.0, -0.5, 0.25)), (8, (2.0,)), (30, (0.3, 1.0, -2.0, 0.5))])
def test_normal_transforms_do_not_depend_on_block_size(monkeypatch, n, beta):
    # every row rounds as fit_ols and the scalar pivots do, so blocks of any
    # size (as in the tail block of a --jobs chunk) give the same bits; one
    # row per stream block lets compute blocks take any size
    monkeypatch.setattr(coverage, "_STREAM_BLOCK", 1)
    p = len(beta)
    sc = Scenario(model="normal_regression", n=n, replications=150, seed=n, levels=(0.5,),
                  methods=("variance_chisq", "contrast_t", "coefficient_f"), beta=beta, phi=2.0,
                  contrast_vector=tuple(float(k % 3 - 1) or 1.0 for k in range(p)))
    study = coverage._study(sc)
    reps = range(sc.replications)

    def values(rows_per_block):
        monkeypatch.setattr(coverage, "_BLOCK_VALUES", rows_per_block * sc.n)
        parts = [coverage._normal_block(sc, study, coverage._responses(sc, study, ids))[0]
                 for ids in coverage._blocks(reps, sc.n)]
        for part in parts:
            assert {m: part[m][1] for m in sc.methods} == laws
        return {m: np.concatenate([part[m][0] for part in parts]) for m in sc.methods}

    df = sc.n - p
    laws = {"variance_chisq": PivotLaw.chisq(df), "contrast_t": PivotLaw.student_t(df),
            "coefficient_f": PivotLaw.f(p, df)}
    whole = values(sc.replications)
    for rows_per_block in (1, 3, 7):
        got = values(rows_per_block)
        for m in sc.methods:
            assert np.array_equal(got[m], whole[m])
    X, b, truth = design_matrix(sc), np.array(sc.contrast_vector), np.array(beta)
    for r in reps:
        fit = fit_ols(Dataset(y=replication_responses(sc, X @ truth, r), X=X))
        pivots = {"variance_chisq": (variance_pivot(fit), sc.phi),
                  "contrast_t": (contrast_pivot(fit, contrast(fit, b)), float(b @ truth)),
                  "coefficient_f": (coefficient_ball_pivot(fit), truth)}
        for m, (pv, at) in pivots.items():
            # the same value bit for bit under the same law: the same confidence
            assert pv.law == laws[m]
            assert pv.value(at) == whole[m][r]
