import math

import numpy as np
import pytest

from confdist.coverage import (
    Scenario,
    compare_methods,
    design_matrix,
    mean_absolute_error,
    run_scenario,
)
from confdist.errors import ScenarioError


def normal_scenario(**overrides):
    base = dict(
        model="normal_regression",
        n=15,
        replications=2000,
        seed=101,
        levels=(0.05, 0.5, 0.95),
        methods=("variance_chisq", "contrast_t", "coefficient_f"),
        beta=(1.0, -0.5, 0.25),
        phi=2.0,
    )
    base.update(overrides)
    return Scenario(**base)


# Overrides that turn normal_scenario into a valid scenario of a gamma model.
KNOWN_MU = dict(model="gamma_known_mu", methods=("fraser_z",), varphi=2.0, beta=None, phi=None)
REGRESSION = dict(model="gamma_regression", methods=("skovgaard_beta",), varphi=2.0,
                  beta=(0.5, -0.3), phi=None)


class TestScenarioValidation:
    def test_zero_replications_rejected(self):
        with pytest.raises(ScenarioError):
            normal_scenario(replications=0)

    def test_levels_range(self):
        with pytest.raises(ScenarioError):
            normal_scenario(levels=(0.0, 0.5))

    def test_unknown_method(self):
        with pytest.raises(ScenarioError):
            normal_scenario(methods=("variance_chisq", "bootstrap"))

    def test_method_model_mismatch(self):
        with pytest.raises(ScenarioError):
            normal_scenario(methods=("fraser_z",))

    def test_missing_truth(self):
        with pytest.raises(ScenarioError):
            Scenario(
                model="gamma_known_mu", n=10, replications=1000, seed=1,
                levels=(0.5,), methods=("fraser_z",),
            )

    def test_unknown_model(self):
        with pytest.raises(ScenarioError):
            normal_scenario(model="poisson_regression")

    def test_contrast_length_must_match_beta(self):
        with pytest.raises(ScenarioError, match="contrast has 2 entries"):
            normal_scenario(contrast_vector=(1.0, 0.0))

    def test_zero_contrast_rejected(self):
        with pytest.raises(ScenarioError, match="nonzero"):
            normal_scenario(contrast_vector=(0.0, 0.0, 0.0))

    def test_replications_beyond_stream_ids_rejected(self):
        # a bound on the study size; stream block ids r // 256 stay far below
        # the design stream id 2**63
        with pytest.raises(ScenarioError, match="at most"):
            normal_scenario(replications=2**32 + 1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_u64_rejected(self, seed):
        with pytest.raises(ScenarioError, match="seed"):
            normal_scenario(seed=seed)

    @pytest.mark.parametrize("overrides", [
        dict(phi=math.nan),
        dict(phi=math.inf),
        dict(beta=(1.0, math.nan, 0.25)),
        dict(methods=("contrast_t",), contrast_vector=(math.nan, 1.0, 0.0)),
        dict(n=10.5),
        dict(replications=2000.0),
        dict(methods=("variance_chisq", "variance_chisq")),
        dict(levels=(0.5, 0.5)),
        dict(varphi=2.0),
        dict(KNOWN_MU, phi=2.0),
        dict(KNOWN_MU, beta=(1.0,)),
        dict(KNOWN_MU, p=1),
        dict(KNOWN_MU, contrast_vector=(1.0,)),
        dict(KNOWN_MU, design="gaussian"),
        dict(KNOWN_MU, design="bogus"),
        dict(REGRESSION, phi=2.0),
        dict(REGRESSION, contrast_vector=(1.0, 0.0)),
        dict(REGRESSION, beta=()),
        dict(beta=()),
    ], ids=["phi_nan", "phi_inf", "beta_nan", "contrast_nan", "n_fractional",
            "replications_float", "methods_repeated", "levels_repeated",
            "normal_varphi", "known_mu_phi", "known_mu_beta", "known_mu_p",
            "known_mu_contrast", "known_mu_design", "known_mu_bogus_design",
            "regression_phi", "regression_contrast", "regression_empty_beta",
            "normal_empty_beta"])
    def test_bad_input_rejected(self, overrides):
        with pytest.raises(ScenarioError):
            normal_scenario(**overrides)

    @pytest.mark.parametrize("overrides", [KNOWN_MU, REGRESSION], ids=["known_mu", "regression"])
    def test_gamma_overrides_are_valid(self, overrides):
        # the base of the foreign-field cases above is itself accepted
        normal_scenario(**overrides)

    @pytest.mark.parametrize("model,method,beta", [
        ("gamma_known_mu", "fraser_z", None),
        ("gamma_regression", "first_order_precision", (0.5, -0.3)),
    ])
    @pytest.mark.parametrize("varphi", [math.inf, math.nan])
    def test_non_finite_varphi_rejected(self, model, method, beta, varphi):
        with pytest.raises(ScenarioError, match="varphi must be finite"):
            Scenario(model=model, n=10, replications=100, seed=1, levels=(0.5,),
                     methods=(method,), beta=beta, varphi=varphi)

    def test_unset_design_is_gaussian_for_regression_and_none_for_known_mu(self):
        assert normal_scenario().design == "gaussian"
        assert normal_scenario(**REGRESSION).design == "gaussian"
        known_mu = normal_scenario(**KNOWN_MU)
        assert known_mu.design is None
        assert Scenario(**known_mu.to_dict()).to_dict() == known_mu.to_dict()

    def test_known_mu_needs_two_observations(self):
        with pytest.raises(ScenarioError, match="n >= 2"):
            Scenario(
                model="gamma_known_mu", n=1, replications=1000, seed=1,
                levels=(0.5,), methods=("fraser_z",), varphi=2.0,
            )


class TestDesignMatrix:
    def test_deterministic_given_seed(self):
        sc = normal_scenario()
        X1 = design_matrix(sc)
        X2 = design_matrix(sc)
        np.testing.assert_array_equal(X1, X2)
        assert X1.shape == (15, 3)
        np.testing.assert_array_equal(X1[:, 0], np.ones(15))

    def test_known_mu_has_no_design(self):
        sc = Scenario(
            model="gamma_known_mu", n=10, replications=1000, seed=1,
            levels=(0.5,), methods=("fraser_z",), varphi=2.0,
        )
        assert design_matrix(sc) is None


class TestRunScenario:
    def test_exact_pivots_cover_within_binomial_bounds(self):
        sc = normal_scenario(replications=4000)
        report = run_scenario(sc)
        for method in sc.methods:
            for level in sc.levels:
                cov = report.coverage(method, level)
                bound = 3.0 * math.sqrt(level * (1 - level) / sc.replications)
                assert abs(cov - level) < bound, (method, level, cov)

    def test_same_seed_reproduces_report(self):
        sc = normal_scenario(replications=500)
        r1 = run_scenario(sc)
        r2 = run_scenario(sc)
        assert r1.to_csv() == r2.to_csv()
        assert r1.rows == r2.rows

    def test_jobs_do_not_change_results(self):
        sc = normal_scenario(replications=600)
        csv1 = run_scenario(sc, jobs=1).to_csv()
        csv3 = run_scenario(sc, jobs=3).to_csv()
        assert csv1 == csv3

    def test_coverage_monotone_in_level(self):
        sc = normal_scenario(replications=1500, levels=(0.05, 0.25, 0.5, 0.75, 0.95))
        report = run_scenario(sc)
        for method in sc.methods:
            covs = [report.coverage(method, lv) for lv in sc.levels]
            assert all(b >= a for a, b in zip(covs, covs[1:]))

    def test_levels_given_as_a_list_run(self):
        # the engine's cut cache is keyed on a tuple of the levels
        as_list = run_scenario(normal_scenario(replications=300, levels=[0.05, 0.5, 0.95]))
        as_tuple = run_scenario(normal_scenario(replications=300))
        assert as_list.to_csv() == as_tuple.to_csv()

    def test_hit_counts_exact(self):
        sc = normal_scenario(replications=500)
        report = run_scenario(sc)
        for row in report.rows:
            assert row.empirical_coverage == row.hit_count / row.replications_used
            assert row.hit_count <= row.replications_used

    def test_split_seeds_pool_to_full_run(self):
        # two half-sized runs under different seeds pool to the full-run
        # coverage within twice the pooled binomial error
        full = run_scenario(normal_scenario(replications=4000, seed=300))
        half_a = run_scenario(normal_scenario(replications=2000, seed=301))
        half_b = run_scenario(normal_scenario(replications=2000, seed=302))
        for level in (0.05, 0.5, 0.95):
            pooled = 0.5 * (
                half_a.coverage("contrast_t", level) + half_b.coverage("contrast_t", level)
            )
            se = math.sqrt(level * (1 - level) / 4000)
            assert abs(pooled - full.coverage("contrast_t", level)) < 2.0 * 2.0 * se

    def test_gamma_regression_methods_run(self):
        sc = Scenario(
            model="gamma_regression", n=30, replications=300, seed=55,
            levels=(0.1, 0.9), methods=("first_order_precision", "skovgaard_precision",
                                        "first_order_beta", "skovgaard_beta"),
            beta=(0.5, -0.3), varphi=2.0,
        )
        report = run_scenario(sc)
        assert report.failures <= 3
        for row in report.rows:
            assert 0.0 <= row.empirical_coverage <= 1.0

    def test_json_report_shape(self):
        import json

        sc = normal_scenario(replications=200)
        report = run_scenario(sc)
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == 1
        assert payload["scenario"]["model"] == "normal_regression"
        assert len(payload["results"]) == len(sc.methods) * len(sc.levels)
        for entry in payload["results"]:
            assert set(entry) == {
                "method", "level", "hit_count", "replications_used",
                "empirical_coverage", "mc_stderr", "flagged_count",
            }

    def test_json_report_names_the_stream_contract(self):
        import json

        sc = normal_scenario(replications=200)
        payload = json.loads(run_scenario(sc).to_json())
        assert payload["stream_version"] == 2
        # the scenario dict stays a Scenario's constructor arguments
        assert "stream_version" not in payload["scenario"]
        assert Scenario(**payload["scenario"]).to_dict() == payload["scenario"]

    def test_meta_exactness_over_random_scenarios(self):
        # randomized scenario sweep: exact pivots stay within 4 mc_stderr of
        # nominal in at least 99% of (scenario, method, level) checks
        rng = np.random.default_rng(2025)
        reps = 1200
        checks = failures = 0
        for i in range(50):
            n = int(rng.integers(8, 40))
            p = int(rng.integers(1, min(4, n - 4) + 1))
            beta = tuple(rng.normal(size=p).round(3))
            sc = Scenario(
                model="normal_regression",
                n=n,
                replications=reps,
                seed=9000 + i,
                levels=(0.05, 0.5, 0.95),
                methods=("variance_chisq", "contrast_t", "coefficient_f"),
                beta=beta,
                phi=float(rng.uniform(0.3, 4.0)),
            )
            report = run_scenario(sc)
            for method in sc.methods:
                for level in sc.levels:
                    checks += 1
                    gap = abs(report.coverage(method, level) - level)
                    failures += gap >= 4.0 * math.sqrt(level * (1 - level) / reps)
        assert failures <= max(1, int(0.01 * checks))


class TestCompareMethods:
    def test_identical_methods_indistinguishable(self):
        sc = Scenario(
            model="gamma_known_mu", n=10, replications=2000, seed=77,
            levels=(0.05, 0.95), methods=("first_order_z", "fraser_z"), varphi=2.0,
        )
        report = run_scenario(sc)
        same = compare_methods(report, "fraser_z", "fraser_z")
        assert same.verdict == "indistinguishable"

    def test_fraser_beats_first_order_smoke(self):
        sc = Scenario(
            model="gamma_known_mu", n=10, replications=20000, seed=78,
            levels=(0.025, 0.05, 0.10, 0.90, 0.95, 0.975),
            methods=("first_order_z", "fraser_z"), varphi=2.0,
        )
        report = run_scenario(sc)
        cmp = compare_methods(report, "first_order_z", "fraser_z")
        assert cmp.verdict == "dominates", "\n" + cmp.table()
        assert mean_absolute_error(report, "fraser_z") < mean_absolute_error(
            report, "first_order_z"
        )

    def test_missing_method_lookup(self):
        report = run_scenario(normal_scenario(replications=200))
        with pytest.raises(KeyError):
            compare_methods(report, "variance_chisq", "fraser_z")

    def test_table_renders(self):
        report = run_scenario(normal_scenario(replications=200))
        cmp = compare_methods(report, "variance_chisq", "contrast_t")
        assert "level" in cmp.table()
