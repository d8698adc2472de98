import numpy as np
import pytest

from lrhist.decomp import FitOptions
from lrhist.experiment import (
    ExperimentConfig,
    _argmin_lex,
    _make_folds,
    cross_validate,
    cv_risk_table,
    default_grid,
    run_experiment,
)
from lrhist.models import random_tucker_spec

LIGHT = FitOptions(max_iters=25, rel_tol=1e-5, restarts=2)


def tiny_config(**overrides):
    base = dict(
        model_spec=random_tucker_spec(2, 2, 4, 99),
        synth_n_total=300,
        n_train=100,
        n_cv_validation=20,
        cv_folds=5,
        repetitions=2,
        b_max=3,
        k_max=2,
        estimators=("standard", "tucker"),
        cv_fit_options=LIGHT,
        fit_options=FitOptions(max_iters=60, restarts=2),
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_requires_one_input(self):
        with pytest.raises(ValueError):
            ExperimentConfig()
        with pytest.raises(ValueError):
            ExperimentConfig(csv_path="x.csv",
                             model_spec=random_tucker_spec(2, 2, 4, 0))

    def test_validation_size(self):
        with pytest.raises(ValueError):
            tiny_config(n_cv_validation=100)

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            tiny_config(estimators=("standard", "spline"))

    @pytest.mark.parametrize("grid", [{"b_max": 0}, {"k_max": 0}, {"b_max": -2}])
    def test_empty_grid(self, grid):
        with pytest.raises(ValueError, match="must be positive"):
            tiny_config(**grid)

    def test_default_grids(self):
        assert default_grid(2) == (15, 10)
        assert default_grid(3) == (15, 10)
        assert default_grid(4) == (12, 8)
        assert default_grid(5) == (8, 6)


class TestFolds:
    def test_disjoint_and_sized(self):
        rng = np.random.default_rng(0)
        val_sets, fit_mask = _make_folds(rng, 50, 10, 8)
        assert val_sets.shape == (8, 10)
        for f in range(8):
            assert len(set(val_sets[f])) == 10
            assert not fit_mask[f, val_sets[f]].any()
            assert fit_mask[f].sum() == 40


class TestArgminLex:
    def test_plain_minimum(self):
        cells = [(1, 1), (2, 1), (2, 2)]
        assert _argmin_lex(cells, [3.0, 1.0, 2.0]) == (2, 1)

    def test_tie_takes_lexicographically_smaller(self):
        cells = [(1, 1), (2, 1), (2, 2)]
        assert _argmin_lex(cells, [5.0, 2.0, 2.0]) == (2, 1)
        assert _argmin_lex(cells, [2.0, 2.0, 2.0]) == (1, 1)


class TestCrossValidate:
    def test_grid_of_size_one(self):
        rng = np.random.default_rng(1)
        X = rng.random((40, 2))
        assert cross_validate(X, "tucker", 1, 1, 3, 8, LIGHT, 0) == (1, 1)
        assert cross_validate(X, "standard", 1, 1, 3, 8, LIGHT, 0) == (1, 0)

    @pytest.mark.parametrize("estimator", ["standard", "tucker"])
    def test_empty_grid_is_value_error(self, estimator):
        X = np.random.default_rng(1).random((40, 2))
        with pytest.raises(ValueError, match="b_max"):
            cv_risk_table(X, estimator, 0, 2, 3, 8, LIGHT, 0)
        with pytest.raises(ValueError, match="k_max"):
            cross_validate(X, estimator, 2, 0, 3, 8, LIGHT, 0)

    def test_standard_cells_have_no_k(self):
        rng = np.random.default_rng(2)
        X = rng.random((40, 2))
        cells, scores = cv_risk_table(X, "standard", 3, 5, 3, 8, LIGHT, 0)
        assert cells == [(1, 0), (2, 0), (3, 0)]
        assert len(scores) == 3

    def test_k_capped_by_b(self):
        rng = np.random.default_rng(3)
        X = rng.random((40, 2))
        cells, _ = cv_risk_table(X, "tucker", 3, 5, 2, 8, LIGHT, 0)
        assert all(k <= b for b, k in cells)
        assert (3, 4) not in cells

    def test_uniform_product_density_prefers_small_k(self):
        small_k = 0
        for s in range(5):
            X = np.random.default_rng(s).random((150, 2))
            _, k = cross_validate(X, "tucker", 6, 4, 20, 30, LIGHT, [s, 1])
            small_k += k <= 2
        assert small_k >= 3

    def test_validation_too_large(self):
        with pytest.raises(ValueError):
            cross_validate(np.random.default_rng(4).random((10, 2)),
                           "standard", 2, 1, 3, 10, LIGHT, 0)

    def test_full_rank_tucker_matches_standard_histogram(self):
        # with k = b the factorized class contains the fold histogram, so a
        # pushed solver drives its validation risk onto the standard one
        rng = np.random.default_rng(5)
        X = rng.random((60, 2))
        deep = FitOptions(max_iters=30000, rel_tol=1e-15, restarts=2)
        cells_t, scores_t = cv_risk_table(X, "tucker", 3, 3, 6, 15, deep, 0)
        cells_s, scores_s = cv_risk_table(X, "standard", 3, 3, 6, 15, deep, 0)
        for b in (1, 2, 3):
            t_score = scores_t[cells_t.index((b, b))]
            s_score = scores_s[cells_s.index((b, 0))]
            assert t_score <= s_score + 1e-6


class TestRunExperiment:
    def test_report_shape_and_determinism(self):
        config = tiny_config()
        r1 = run_experiment(config)
        r2 = run_experiment(config)
        assert r1 == r2
        assert len(r1.runs) == 2 * 2
        tucker = next(s for s in r1.summaries if s.estimator == "tucker")
        standard = next(s for s in r1.summaries if s.estimator == "standard")
        assert tucker.p_value is not None
        assert standard.p_value is None
        for run in r1.runs:
            assert run.b <= 3
            assert run.k <= 2

    def test_jobs_do_not_change_results(self):
        config = tiny_config()
        serial = run_experiment(config)
        parallel = run_experiment(tiny_config(jobs=2))
        assert serial.runs == parallel.runs

    def test_standard_only_has_no_pvalue(self):
        report = run_experiment(tiny_config(estimators=("standard",)))
        assert all(s.p_value is None for s in report.summaries)

    def test_cp_estimator_runs(self):
        report = run_experiment(
            tiny_config(estimators=("standard", "cp"), repetitions=1)
        )
        cp = next(s for s in report.summaries if s.estimator == "cp")
        assert np.isfinite(cp.mean_risk)
        assert cp.p_value is not None

    def test_insufficient_rows(self):
        with pytest.raises(ValueError):
            run_experiment(tiny_config(synth_n_total=90))

    def test_aggregates_match_runs(self):
        report = run_experiment(tiny_config())
        for s in report.summaries:
            risks = np.array(
                [r.risk for r in report.runs if r.estimator == s.estimator]
            )
            assert s.mean_risk == float(risks.mean())
            assert s.std_risk == float(risks.std())
