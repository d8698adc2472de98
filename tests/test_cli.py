import numpy as np
import pytest

from lrhist.cli import main
from lrhist.fileio import DataError, load_csv, read_density, write_csv
from lrhist.models import (
    MarginalBank,
    TuckerSpec,
    random_tucker_spec,
    write_spec,
)


class TestLoadCsv:
    def test_plain(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,4\n")
        assert np.array_equal(load_csv(p), np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n")
        assert np.array_equal(load_csv(p), np.array([[1.0, 2.0]]))

    def test_ragged_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(p)

    def test_non_numeric_mid_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(p)

    def test_empty(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DataError):
            load_csv(p)

    def test_round_trip(self, tmp_path):
        p = tmp_path / "d.csv"
        X = np.random.default_rng(0).random((7, 3))
        write_csv(p, X)
        assert np.array_equal(load_csv(p), X)


class TestSynthCommand:
    def test_generates_samples_and_spec(self, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        spec = tmp_path / "model.spec"
        code = main([
            "synth", "--model", "tucker", "--dims", "3", "--components", "2",
            "--marginal-bins", "4", "--n", "50", "--seed", "1",
            "--out-csv", str(csv), "--out-spec", str(spec),
        ])
        assert code == 0
        X = load_csv(csv)
        assert X.shape == (50, 3)
        assert X.min() >= 0.0 and X.max() < 1.0
        assert spec.exists()

    def test_one_hot_mixing_stays_in_component_bins(self, tmp_path):
        bins = np.zeros((2, 2, 2))
        bins[:, 0] = [1.0, 0.0]
        bins[:, 1] = [0.0, 1.0]
        mixing = np.zeros((2, 2))
        mixing[0, 1] = 1.0
        spec_path = tmp_path / "model.spec"
        write_spec(TuckerSpec(mixing, MarginalBank(bins)), spec_path)
        csv = tmp_path / "out.csv"
        code = main(["synth", "--spec", str(spec_path), "--n", "200",
                     "--seed", "2", "--out-csv", str(csv)])
        assert code == 0
        X = load_csv(csv)
        assert np.all(X[:, 0] < 0.5)
        assert np.all(X[:, 1] >= 0.5)

    def test_zero_samples_is_usage_error(self, tmp_path):
        code = main(["synth", "--n", "0", "--out-csv", str(tmp_path / "x.csv")])
        assert code == 1


class TestReduceCommand:
    def test_pca_round_trip(self, tmp_path):
        src = tmp_path / "src.csv"
        write_csv(src, np.random.default_rng(3).normal(size=(40, 5)))
        out = tmp_path / "red.csv"
        code = main(["reduce", "--input", str(src), "--method", "pca",
                     "--dim", "2", "--output", str(out)])
        assert code == 0
        X = load_csv(out)
        assert X.shape == (40, 2)
        assert X.min() >= 0.0 and X.max() <= 1.0

    def test_missing_input_is_data_error(self, tmp_path):
        code = main(["reduce", "--input", str(tmp_path / "nope.csv"),
                     "--method", "pca", "--dim", "2",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2


class TestFitEvaluateCommands:
    def test_fit_and_evaluate(self, tmp_path, capsys):
        spec = random_tucker_spec(2, 2, 4, 5)
        spec_path = tmp_path / "model.spec"
        write_spec(spec, spec_path)
        csv = tmp_path / "data.csv"
        main(["synth", "--spec", str(spec_path), "--n", "400", "--seed", "4",
              "--out-csv", str(csv)])
        dens = tmp_path / "fit.density"
        code = main(["fit", "--input", str(csv), "--estimator", "tucker",
                     "--bins", "4", "--components", "2", "--seed", "0",
                     "--output", str(dens)])
        assert code == 0
        h = read_density(dens)
        assert h.b == 4 and h.d == 2
        capsys.readouterr()
        code = main(["evaluate", "--density", str(dens), "--data", str(csv),
                     "--truth-spec", str(spec_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "empirical_l2_risk" in out
        assert "exact_l1_error" in out


class TestExperimentCommand:
    def _write_config(self, tmp_path):
        spec_path = tmp_path / "model.spec"
        write_spec(random_tucker_spec(2, 2, 4, 6), spec_path)
        cfg = tmp_path / "exp.conf"
        cfg.write_text(
            "# tiny experiment\n"
            f"synth_spec = {spec_path.name}\n"
            "synth_n_total = 300\n"
            "n_train = 100\n"
            "n_cv_validation = 20\n"
            "cv_folds = 4\n"
            "repetitions = 2\n"
            "b_max = 3\n"
            "k_max = 2\n"
            "estimators = standard,tucker\n"
            "cv_fit_max_iters = 20\n"
            "fit_max_iters = 50\n"
            "fit_restarts = 2\n"
            "seed = 3\n"
        )
        return cfg

    def test_runs_and_writes_reports(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out_dir = tmp_path / "results"
        code = main(["experiment", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        table = capsys.readouterr().out
        assert "standard" in table and "tucker" in table
        runs = (out_dir / "runs.tsv").read_text().strip().splitlines()
        report = (out_dir / "report.tsv").read_text().strip().splitlines()
        assert len(runs) == 1 + 4  # header + 2 reps x 2 estimators
        assert len(report) == 1 + 2

    def test_report_aggregates_recompute_exactly(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out_dir = tmp_path / "results"
        main(["experiment", "--config", str(cfg), "--out", str(out_dir)])
        runs_lines = (out_dir / "runs.tsv").read_text().strip().splitlines()
        header = runs_lines[0].split("\t")
        rows = [dict(zip(header, l.split("\t"))) for l in runs_lines[1:]]
        rep_lines = (out_dir / "report.tsv").read_text().strip().splitlines()
        rep_header = rep_lines[0].split("\t")
        for line in rep_lines[1:]:
            rec = dict(zip(rep_header, line.split("\t")))
            risks = np.array([
                float(r["risk"]) for r in rows if r["estimator"] == rec["estimator"]
            ])
            assert float(rec["mean_risk"]) == float(risks.mean())
            assert float(rec["std_risk"]) == float(risks.std())

    def test_deterministic_outputs(self, tmp_path):
        cfg = self._write_config(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        main(["experiment", "--config", str(cfg), "--out", str(d1)])
        main(["experiment", "--config", str(cfg), "--out", str(d2)])
        assert (d1 / "runs.tsv").read_bytes() == (d2 / "runs.tsv").read_bytes()
        assert (d1 / "report.tsv").read_bytes() == (d2 / "report.tsv").read_bytes()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("frobnicate = 1\n")
        assert main(["experiment", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("key", ["b_max", "k_max"])
    def test_empty_grid_is_usage_error(self, tmp_path, capsys, key):
        cfg = self._write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace(f"{key} = ", f"{key} = 0\n# "))
        assert main(["experiment", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {key} must be positive, got 0\n"

    def test_duplicate_spec_key_is_data_error(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        spec = tmp_path / "model.spec"
        spec.write_text(spec.read_text() + "dims = 2\n")
        assert main(["experiment", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "duplicate key 'dims'" in err

    def test_bad_flag_is_usage_error(self):
        assert main(["experiment", "--no-such-flag"]) == 1

    def test_missing_data_file(self, tmp_path):
        assert main(["experiment", "--data", str(tmp_path / "nope.csv")]) == 2
