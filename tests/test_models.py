import itertools

import numpy as np
import pytest
from scipy import stats as sps

from lrhist.fileio import DataError

from lrhist.histogram import bin_indices_flat, histogram_from_data, l1_distance, u_map
from lrhist.models import (
    MarginalBank,
    MultiViewSpec,
    TuckerSpec,
    exact_l1_error,
    random_multiview_spec,
    random_tucker_spec,
    read_spec,
    sample_multiview,
    sample_tucker,
    true_histogram,
    true_weight_tensor,
    write_spec,
)
from lrhist.tensor import outer_product


def chi2_gof_pvalue(counts, probs):
    n = counts.sum()
    expected = n * probs
    keep = expected > 0
    stat = float(((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    return sps.chi2.sf(stat, keep.sum() - 1)


def weight_tensor_by_integration(spec, b):
    """Evaluate the model density at each bin center and multiply by the bin
    volume; exact because all marginals are constant on the fine bins."""
    bank = spec.bank
    d, k, bt = bank.d, bank.k, bank.b_true
    out = np.zeros((b,) * d)
    for A in itertools.product(range(b), repeat=d):
        center = (np.array(A) + 0.5) / b
        dens = 0.0
        if isinstance(spec, MultiViewSpec):
            for i in range(k):
                term = spec.weights[i]
                for j in range(d):
                    cell = min(int(center[j] * bt), bt - 1)
                    term *= bt * bank.bins[j, i, cell]
                dens += term
        else:
            for S in itertools.product(range(k), repeat=d):
                term = spec.mixing[S]
                for j in range(d):
                    cell = min(int(center[j] * bt), bt - 1)
                    term *= bt * bank.bins[j, S[j], cell]
                dens += term
        out[A] = dens / b**d
    return out


class TestSpecs:
    def test_bank_validation(self):
        with pytest.raises(ValueError):
            MarginalBank(np.full((2, 2, 3), 0.5))

    def test_multiview_weight_length(self):
        bank = MarginalBank(np.full((2, 2, 4), 0.25))
        with pytest.raises(ValueError):
            MultiViewSpec(np.array([1.0]), bank)

    def test_tucker_mixing_shape(self):
        bank = MarginalBank(np.full((2, 2, 4), 0.25))
        with pytest.raises(ValueError):
            TuckerSpec(np.full((2, 3), 1.0 / 6), bank)

    def test_random_specs_are_valid(self):
        mv = random_multiview_spec(3, 2, 8, 0)
        tk = random_tucker_spec(3, 2, 8, 0)
        assert mv.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert tk.mixing.sum() == pytest.approx(1.0, abs=1e-9)


class TestSampling:
    def test_shapes_and_determinism(self):
        spec = random_tucker_spec(2, 2, 4, 1)
        X1 = sample_tucker(spec, 200, seed=3)
        X2 = sample_tucker(spec, 200, seed=3)
        assert X1.shape == (200, 2)
        assert np.array_equal(X1, X2)
        assert X1.min() >= 0.0 and X1.max() < 1.0

    def test_one_hot_weights_marginal_gof(self):
        # all mass on component 0: each axis must follow that marginal
        rng = np.random.default_rng(2)
        bank = MarginalBank(rng.dirichlet(np.ones(4), size=(2, 2)))
        spec = MultiViewSpec(np.array([1.0, 0.0]), bank)
        X = sample_multiview(spec, 50000, seed=4)
        for j in range(2):
            bins = np.minimum((X[:, j] * 4).astype(int), 3)
            counts = np.bincount(bins, minlength=4)
            assert chi2_gof_pvalue(counts, bank.bins[j, 0]) > 0.001

    def test_disjoint_components_proportions(self):
        # component 0 lives in [0, .5), component 1 in [.5, 1)
        bins = np.zeros((1, 2, 2))
        bins[0, 0] = [1.0, 0.0]
        bins[0, 1] = [0.0, 1.0]
        spec = MultiViewSpec(np.array([0.3, 0.7]), MarginalBank(bins))
        n = 20000
        X = sample_multiview(spec, n, seed=5)
        frac0 = float((X[:, 0] < 0.5).mean())
        sigma = np.sqrt(0.3 * 0.7 / n)
        assert abs(frac0 - 0.3) < 4 * sigma

    def test_tucker_one_hot_mixing_is_product(self):
        rng = np.random.default_rng(6)
        bank = MarginalBank(rng.dirichlet(np.ones(4), size=(2, 2)))
        mixing = np.zeros((2, 2))
        mixing[1, 0] = 1.0
        spec = TuckerSpec(mixing, bank)
        X = sample_tucker(spec, 50000, seed=7)
        for j, comp in enumerate((1, 0)):
            bins = np.minimum((X[:, j] * 4).astype(int), 3)
            counts = np.bincount(bins, minlength=4)
            assert chi2_gof_pvalue(counts, bank.bins[j, comp]) > 0.001

    def test_tucker_bin_frequencies_match_tensor(self):
        spec = random_tucker_spec(2, 2, 2, 8)
        n = 50000
        X = sample_tucker(spec, n, seed=9)
        b = 2
        flat = bin_indices_flat(X, b, 2)
        counts = np.bincount(flat, minlength=b**2)
        probs = true_weight_tensor(spec, b).ravel()
        sigma = np.sqrt(n * probs * (1 - probs))
        assert np.all(np.abs(counts - n * probs) < 4 * sigma + 1e-9)


class TestTrueWeightTensor:
    def test_single_component_outer_product(self):
        rng = np.random.default_rng(10)
        bank = MarginalBank(rng.dirichlet(np.ones(4), size=(3, 1)))
        spec = MultiViewSpec(np.array([1.0]), bank)
        t = true_weight_tensor(spec, 4)
        assert np.allclose(
            t, outer_product([bank.bins[j, 0] for j in range(3)]), atol=1e-12
        )

    def test_uniform_marginals_any_mixing(self):
        bank = MarginalBank(np.full((2, 2, 4), 0.25))
        spec = random_tucker_spec(2, 2, 4, 11)
        spec = TuckerSpec(spec.mixing, bank)
        t = true_weight_tensor(spec, 4)
        assert np.allclose(t, np.full((4, 4), 1.0 / 16), atol=1e-12)

    def test_against_integration_oracle(self):
        mv = random_multiview_spec(2, 2, 2, 12)
        tk = random_tucker_spec(2, 2, 2, 13)
        for spec in (mv, tk):
            for b in (2, 4):
                t = true_weight_tensor(spec, b)
                oracle = weight_tensor_by_integration(spec, b)
                assert np.allclose(t, oracle, atol=1e-9)

    def test_divisibility_error(self):
        spec = random_multiview_spec(2, 2, 4, 14)
        with pytest.raises(ValueError):
            true_weight_tensor(spec, 6)

    def test_diagonal_mixing_equals_multiview(self):
        rng = np.random.default_rng(15)
        bank = MarginalBank(rng.dirichlet(np.ones(4), size=(3, 2)))
        w = rng.dirichlet(np.ones(2))
        mixing = np.zeros((2, 2, 2))
        for i in range(2):
            mixing[i, i, i] = w[i]
        mv = MultiViewSpec(w, bank)
        tk = TuckerSpec(mixing, bank)
        assert np.allclose(
            true_weight_tensor(mv, 8), true_weight_tensor(tk, 8), atol=1e-12
        )

    def test_histogram_consistency_smoke(self):
        spec = random_tucker_spec(2, 2, 4, 16)
        truth = true_histogram(spec, 4)
        errs = []
        for n in (500, 50000):
            err = np.mean([
                l1_distance(histogram_from_data(sample_tucker(spec, n, s), 4), truth)
                for s in range(3)
            ])
            errs.append(err)
        assert errs[1] < errs[0]


class TestExactL1Error:
    def test_zero_for_truth(self):
        spec = random_tucker_spec(2, 2, 4, 17)
        assert exact_l1_error(spec, true_histogram(spec, 4)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_known_perturbation(self):
        spec = random_multiview_spec(1, 1, 2, 18)
        w = true_weight_tensor(spec, 2).copy()
        delta = min(0.1, w[0])
        w[0] -= delta
        w[1] += delta
        assert exact_l1_error(spec, u_map(w)) == pytest.approx(2 * delta, abs=1e-12)

    def test_coarser_estimate_refined(self):
        spec = random_multiview_spec(2, 1, 4, 19)
        err = exact_l1_error(spec, u_map(np.full((2, 2), 0.25)))
        manual = np.abs(
            true_weight_tensor(spec, 4)
            - np.full((4, 4), 1.0 / 16)
        ).sum()
        assert err == pytest.approx(manual, abs=1e-12)


class TestSpecSerialization:
    def test_round_trip(self, tmp_path):
        for spec in (random_multiview_spec(2, 3, 4, 20),
                     random_tucker_spec(3, 2, 4, 21)):
            path = tmp_path / "model.spec"
            write_spec(spec, path)
            back = read_spec(path)
            assert type(back) is type(spec)
            assert np.array_equal(back.bank.bins, spec.bank.bins)
            if isinstance(spec, MultiViewSpec):
                assert np.array_equal(back.weights, spec.weights)
            else:
                assert np.array_equal(back.mixing, spec.mixing)

    def test_unknown_key_rejected(self, tmp_path):
        spec = random_multiview_spec(1, 1, 2, 22)
        path = tmp_path / "model.spec"
        write_spec(spec, path)
        path.write_text(path.read_text() + "extra = 1\n")
        with pytest.raises(ValueError):
            read_spec(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "model.spec"
        write_spec(random_tucker_spec(2, 2, 3, 23), path)
        path.write_text(path.read_text() + "dims = 2\n")
        with pytest.raises(DataError, match="duplicate key 'dims'"):
            read_spec(path)

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace("dims = 2", "dims = two"),
        lambda t: t.replace("model = tucker", "model = spline"),
        lambda t: t.replace("mixing = ", "mixing = 1.0,"),
        lambda t: "\n".join(l for l in t.splitlines() if "marginal_1_0" not in l),
        lambda t: t + "no equals sign\n",
    ])
    def test_malformed_spec_is_data_error(self, tmp_path, edit):
        path = tmp_path / "model.spec"
        write_spec(random_tucker_spec(2, 2, 3, 24), path)
        path.write_text(edit(path.read_text()))
        with pytest.raises(DataError):
            read_spec(path)
