"""Hit counting against cached level cuts decides every value as the CDF does.

The coverage engine counts a pivot value v as a hit at level a by comparing
it with a's cuts of the law (``pivots.level_cuts``) and sends only values in
the band between the cuts to the CDF.  Every decision must equal
``law.cdf(v) <= a``.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from confdist import coverage, pivots
from confdist.cli import _parse_scenarios
from confdist.coverage import Scenario
from confdist.pivots import PivotLaw, level_cuts

SCENARIOS = Path(__file__).parent.parent / "scenarios"

# the three study shapes of perfbench's coverage workloads
BENCHMARK_SHAPES = [
    dict(model="normal_regression", n=15, replications=100, seed=1, levels=(0.05, 0.5, 0.95),
         methods=("variance_chisq", "contrast_t", "coefficient_f"), beta=(1.0, -0.5, 0.25),
         phi=2.0, contrast_vector=(0.0, 1.0, -1.0)),
    dict(model="gamma_known_mu", n=10, replications=100, seed=1,
         levels=(0.025, 0.05, 0.10, 0.90, 0.95, 0.975), methods=("first_order_z", "fraser_z"),
         varphi=2.0),
    dict(model="gamma_regression", n=30, replications=100, seed=1, levels=(0.05, 0.5, 0.95),
         methods=("first_order_precision", "skovgaard_precision", "first_order_beta",
                  "skovgaard_beta"), beta=(0.5, -0.3), varphi=2.0),
]


def floats_from(x: float, count: int, up: bool) -> np.ndarray:
    """``count`` consecutive floats starting at x, upward or downward."""
    bits = np.array([x]).view(np.int64)[0]
    key = bits if bits >= 0 else -(bits & np.int64(0x7FFFFFFFFFFFFFFF))  # ordered like x
    keys = key + (np.arange(count) if up else -np.arange(count))
    return np.where(keys >= 0, keys, -keys | np.int64(-(2**63))).view(np.float64)


def decisions(v: np.ndarray, law: PivotLaw, levels: tuple) -> np.ndarray:
    """The engine's hit decision for each value alone, one row per value."""
    return np.array([coverage._hits(v[i:i + 1], law, levels) for i in range(len(v))])


def study_laws():
    """Each (law, levels) the kernels use for the bundled scenarios and the benchmark."""
    shapes = [sc.to_dict() for ini in sorted(SCENARIOS.glob("*.ini"))
              for _, sc in _parse_scenarios(str(ini), None)]
    out = set()
    for shape in shapes + BENCHMARK_SHAPES:
        sc = Scenario(**{**shape, "replications": 100, "levels": tuple(shape["levels"])})
        study = coverage._study(sc)
        block = coverage._normal_block if sc.model == "normal_regression" else coverage._gamma_block
        values, _ = block(sc, study, coverage._responses(sc, study, range(100)))
        out.update((law, sc.levels) for _, law, _ in values.values())
    return sorted(out, key=repr)


laws = st.one_of(
    st.just(PivotLaw.normal()),
    st.integers(1, 1000).map(PivotLaw.chisq),
    st.integers(1, 1000).map(PivotLaw.student_t),
    st.tuples(st.integers(1, 1000), st.integers(1, 1000)).map(lambda d: PivotLaw.f(*d)),
)
far = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-np.inf, np.inf, 0.0, -0.0, 1e-300]))


class TestLevelCuts:
    @settings(max_examples=300, deadline=None)
    @given(law=laws, levels=st.lists(st.floats(1e-9, 1 - 1e-9), min_size=1, max_size=4,
                                     unique=True).map(tuple),
           inside=st.lists(st.floats(0.0, 1.0), max_size=3), far=st.lists(far, max_size=4))
    def test_decisions_equal_the_cdf(self, law, levels, inside, far):
        cuts, k = level_cuts(law, levels), len(levels)
        values = [-np.inf, 0.0, np.inf, *far]
        for lo, hi in zip(cuts[:k], cuts[k:]):
            for cut in (lo, hi):
                if np.isfinite(cut):  # the cut and 3 floats on each side
                    values += [*floats_from(cut, 4, False), *floats_from(cut, 4, True)[1:]]
            if np.isfinite(lo):
                values += [lo + t * (hi - lo) for t in inside]
        v = np.array(values)
        want = law.cdf(v)[:, None] <= np.array(levels)
        assert np.array_equal(decisions(v, law, levels), want)
        assert np.array_equal(coverage._hits(v, law, levels), want.sum(0))

    @pytest.mark.parametrize("law,levels", study_laws(), ids=repr)
    def test_floats_beyond_each_cut_of_the_bundled_laws(self, law, levels):
        # every law the bundled scenarios and the benchmark count against has
        # a band at each level, and the CDF puts the 2**12 floats at and below
        # each lower cut at or below the level, and those above the upper cut
        # above it
        cuts, k = level_cuts(law, levels), len(levels)
        assert np.isfinite(cuts).all()
        for a, lo, hi in zip(levels, cuts[:k], cuts[k:]):
            assert (law.cdf(floats_from(lo, 2**12, False)) <= a).all()
            assert (law.cdf(floats_from(hi, 2**12 + 1, True)[1:]) > a).all()

    def test_cuts_are_cached_and_read_only(self):
        law = PivotLaw.student_t(12.0)
        cuts = level_cuts(law, (0.05, 0.5, 0.95))
        assert level_cuts(PivotLaw.student_t(12), (0.05, 0.5, 0.95)) is cuts
        assert cuts.shape == (6,) and (cuts[:3] < cuts[3:]).all()
        with pytest.raises(ValueError):
            cuts[0] = 0.0

    @pytest.mark.parametrize("wrong", [lambda a: np.nan * a, lambda a: 1.001 * special.ndtri(a)])
    def test_a_wrong_inverse_changes_no_decision(self, monkeypatch, wrong):
        # a band that misses the quantile fails the CDF check at its ends:
        # that level's cuts are (-inf, inf), and every value goes through the CDF
        levels = (0.05, 0.5, 0.95)
        monkeypatch.setitem(pivots._LAWS, "normal",
                            pivots._LAWS["normal"]._replace(inverse=wrong))
        level_cuts.cache_clear()
        try:
            cuts = level_cuts(PivotLaw.normal(), levels)
            assert np.isinf(cuts[[0, 2, 3, 5]]).all()
            v = np.array([-np.inf, -3.0, -1.6448536269514946, 0.0, 1.6448536269514942,
                          1.6448536269514946, 2.0, np.inf])
            want = PivotLaw.normal().cdf(v)[:, None] <= np.array(levels)
            assert np.array_equal(decisions(v, PivotLaw.normal(), levels), want)
        finally:
            level_cuts.cache_clear()
