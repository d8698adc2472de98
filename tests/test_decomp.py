from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lrhist import decomp
from lrhist.decomp import (
    FitOptions,
    _bmttkrp,
    _cp_recon_batch,
    _ncp_sweep,
    _ntd_sweep,
    fit_prob_tensor,
    mu_fit_batch,
    ncp_fit,
    ntd_fit,
)
from lrhist.models import random_multiview_spec, random_tucker_spec, true_weight_tensor
from lrhist.tensor import cp_reconstruct, outer_product, tucker_reconstruct


def assert_monotone(trace, slack=1e-10):
    assert np.all(trace[1:] <= trace[:-1] * (1.0 + slack))


class TestFitOptions:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FitOptions(max_iters=0)
        with pytest.raises(ValueError):
            FitOptions(rel_tol=0.0)
        with pytest.raises(ValueError):
            FitOptions(restarts=0)

    @pytest.mark.parametrize("name", ["rel_tol", "epsilon_guard"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, name, value):
        with pytest.raises(ValueError, match=name):
            FitOptions(**{name: value})


class TestInputValidation:
    def test_negative_entries(self):
        with pytest.raises(ValueError):
            ntd_fit(np.array([[1.0, -0.1], [0.2, 0.3]]), 1)

    def test_rank_too_large(self):
        with pytest.raises(ValueError):
            ntd_fit(np.ones((2, 3)), 3)
        with pytest.raises(ValueError):
            ncp_fit(np.ones((2, 3)), 3)


class TestMonotonicity:
    def test_ntd_traces(self):
        rng = np.random.default_rng(0)
        for i in range(10):
            t = rng.random((6, 6, 6))
            k = 1 + i % 3
            f = ntd_fit(t, k, FitOptions(restarts=1, seed=i))
            assert_monotone(f.objective_trace)

    def test_ncp_traces(self):
        rng = np.random.default_rng(1)
        for i in range(10):
            t = rng.random((6, 6, 6))
            k = 1 + i % 3
            f = ncp_fit(t, k, FitOptions(restarts=1, seed=i))
            assert_monotone(f.objective_trace)

    def test_entries_stay_nonnegative_through_sweeps(self):
        rng = np.random.default_rng(2)
        X = rng.random((2, 5, 5, 5))
        arrays = [rng.uniform(0.1, 1.0, (2, 3, 3, 3))] + [
            rng.uniform(0.1, 1.0, (2, 5, 3)) for _ in range(3)
        ]
        for _ in range(10):
            arrays, _ = _ntd_sweep(X, arrays, 1e-12)
            assert all(a.min() >= 0.0 for a in arrays)
        warr = [rng.uniform(0.1, 1.0, (2, 3))] + [
            rng.uniform(0.1, 1.0, (2, 5, 3)) for _ in range(3)
        ]
        for _ in range(10):
            warr, _ = _ncp_sweep(X, warr, 1e-12)
            assert all(a.min() >= 0.0 for a in warr)


class TestNtdFit:
    def test_exact_rank_recovery(self):
        hits = 0
        for s in range(20):
            spec = random_tucker_spec(3, 2, 8, 100 + s)
            t = true_weight_tensor(spec, 8)
            f = ntd_fit(t, 2, FitOptions(max_iters=1500, rel_tol=1e-12,
                                         restarts=5, seed=s))
            recon = tucker_reconstruct(f.core, f.factors)
            rel = np.linalg.norm(t - recon) / np.linalg.norm(t)
            hits += rel < 1e-2
        assert hits >= 18

    def test_full_rank_reaches_zero(self):
        rng = np.random.default_rng(3)
        t = rng.dirichlet(np.ones(16)).reshape(4, 4)
        f = ntd_fit(t, 4, FitOptions(max_iters=20000, rel_tol=1e-15,
                                     restarts=3, seed=0))
        assert f.objective_trace[-1] < 1e-6 * float((t**2).sum())

    def test_zero_tensor(self):
        f = ntd_fit(np.zeros((3, 3)), 2, FitOptions(restarts=1))
        assert np.array_equal(f.core, np.zeros((2, 2)))
        assert f.objective_trace[1] == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        t = rng.random((4, 4, 4))
        opts = FitOptions(max_iters=50, restarts=3, seed=9)
        f1 = ntd_fit(t, 2, opts)
        f2 = ntd_fit(t, 2, opts)
        assert np.array_equal(f1.core, f2.core)
        assert all(np.array_equal(a, b) for a, b in zip(f1.factors, f2.factors))
        assert np.array_equal(f1.objective_trace, f2.objective_trace)


class TestNcpFit:
    def test_exact_rank_one(self):
        rng = np.random.default_rng(5)
        t = outer_product([rng.dirichlet(np.ones(5)) for _ in range(3)])
        f = ncp_fit(t, 1, FitOptions(restarts=3, seed=0))
        rel = np.linalg.norm(t - cp_reconstruct(f.weights, f.factors)) / np.linalg.norm(t)
        assert rel < 1e-3

    def test_zero_tensor(self):
        f = ncp_fit(np.zeros((3, 3, 3)), 2, FitOptions(restarts=1))
        assert np.array_equal(f.weights, np.zeros(2))

    def test_exact_rank_two_recovery(self):
        hits = 0
        for s in range(20):
            spec = random_multiview_spec(3, 2, 6, 200 + s)
            t = true_weight_tensor(spec, 6)
            f = ncp_fit(t, 2, FitOptions(max_iters=1500, rel_tol=1e-12,
                                         restarts=5, seed=s))
            rel = np.linalg.norm(t - cp_reconstruct(f.weights, f.factors)) / np.linalg.norm(t)
            hits += rel < 1e-2
        assert hits >= 16


class TestFitProbTensor:
    def test_tucker_ground_truth(self):
        spec = random_tucker_spec(3, 2, 8, 7)
        t = true_weight_tensor(spec, 8)
        out = fit_prob_tensor(t, 2, "tucker", FitOptions(restarts=5, seed=0))
        assert np.abs(out - t).sum() <= 0.05

    def test_cp_product_tensor(self):
        rng = np.random.default_rng(6)
        t = outer_product([rng.dirichlet(np.ones(4)) for _ in range(3)])
        out = fit_prob_tensor(t, 1, "cp", FitOptions(restarts=3, seed=0))
        assert np.abs(out - t).sum() <= 1e-3

    def test_uniform_fixed_point(self):
        u = np.full((4, 4), 1.0 / 16)
        deep = FitOptions(max_iters=30000, rel_tol=1e-16, restarts=2, seed=0)
        for k in (1, 2, 3):
            out = fit_prob_tensor(u, k, "tucker", deep)
            assert np.abs(out - u).sum() <= 1e-6
        out = fit_prob_tensor(u, 1, "cp", deep)
        assert np.abs(out - u).sum() <= 1e-6

    def test_output_is_prob_tensor_even_unconverged(self):
        rng = np.random.default_rng(7)
        t = rng.dirichlet(np.ones(64)).reshape(4, 4, 4)
        out = fit_prob_tensor(t, 2, "tucker",
                              FitOptions(max_iters=1, restarts=1, seed=0))
        assert out.min() >= 0.0
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            fit_prob_tensor(np.full((2, 2), 0.25), 1, "hals")


class TestBatchedFit:
    def test_matches_shapes_and_selects_best(self):
        rng = np.random.default_rng(8)
        X = np.stack([rng.dirichlet(np.ones(27)).reshape(3, 3, 3)
                      for _ in range(4)])
        head, factors, obj = mu_fit_batch(
            X, 2, "tucker", FitOptions(max_iters=40, restarts=3),
            np.random.default_rng(0),
        )
        assert head.shape == (4, 2, 2, 2)
        assert all(f.shape == (4, 3, 2) for f in factors)
        assert obj.shape == (4,)
        assert obj.min() >= 0.0 or np.all(np.isfinite(obj))

    def test_deterministic_given_rng_state(self):
        rng = np.random.default_rng(9)
        X = np.stack([rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
                      for _ in range(3)])
        opts = FitOptions(max_iters=25, restarts=2)
        h1, f1, o1 = mu_fit_batch(X, 2, "cp", opts, np.random.default_rng(5))
        h2, f2, o2 = mu_fit_batch(X, 2, "cp", opts, np.random.default_rng(5))
        assert np.array_equal(h1, h2)
        assert np.array_equal(o1, o2)


class TestCachedEinsumPath:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equals_optimize_true_bit_for_bit(self, d):
        rng = np.random.default_rng(10 + d)
        nb, k = 3, 2
        shape = (4, 3, 5, 2)[:d]
        X = rng.random((nb,) + shape)
        w = rng.random((nb, k))
        A = [rng.random((nb, e, k)) for e in shape]
        letters = "abcd"[:d]
        spec = "sz," + ",".join(f"s{c}z" for c in letters) + "->s" + letters
        for _ in range(2):  # second round reads the cached path
            assert np.array_equal(
                _cp_recon_batch(w, A),
                np.einsum(spec, w, *A, optimize=True),
            )
            for n in range(d):
                others = [j for j in range(d) if j != n]
                mspec = ("s" + letters + "".join(f",s{letters[j]}z" for j in others)
                         + f"->s{letters[n]}z")
                ref = (np.einsum(mspec, X, *(A[j] for j in others), optimize=True)
                       if d > 1 else np.broadcast_to(X[:, :, None], X.shape + (k,)))
                assert np.array_equal(_bmttkrp(X, A, n), ref)


def _fit_in_blocks(X, k, method, opts, block_bytes):
    """mu_fit_batch with the given block size; also returns the block sizes."""
    sizes = []
    inner = decomp._mu_minimize

    def recording(Xb, *args, **kwargs):
        sizes.append(Xb.shape[0])
        return inner(Xb, *args, **kwargs)

    with mock.patch.object(decomp, "_BLOCK_BYTES", block_bytes), \
            mock.patch.object(decomp, "_mu_minimize", recording):
        out = mu_fit_batch(X, k, method, opts, np.random.default_rng(11))
    return out, sizes


def _assert_same_fit(a, b):
    (ha, fa, oa), (hb, fb, ob) = a, b
    assert np.array_equal(ha, hb)
    assert len(fa) == len(fb)
    assert all(np.array_equal(x, y) for x, y in zip(fa, fb))
    assert np.array_equal(oa, ob)


def _assert_close_fit(a, b):
    (ha, fa, oa), (hb, fb, ob) = a, b
    np.testing.assert_allclose(ha, hb, rtol=1e-12)
    for x, y in zip(fa, fb):
        np.testing.assert_allclose(x, y, rtol=1e-12)
    np.testing.assert_allclose(oa, ob, rtol=1e-12)


class TestBlockedBatch:
    @pytest.mark.parametrize("method", ["tucker", "cp"])
    @pytest.mark.parametrize("d,b", [(2, 5), (3, 4), (4, 3)])
    def test_split_does_not_change_results(self, method, d, b):
        rng = np.random.default_rng(d)
        nb, r, k = 7, 2, 2
        X = rng.dirichlet(np.full(b**d, 0.3), size=nb).reshape((nb,) + (b,) * d)
        # every fit runs to max_iters, so no block shrinks by compaction
        opts = FitOptions(max_iters=8, rel_tol=1e-14, restarts=r)
        row_bytes = b**d * 8
        single, sizes = _fit_in_blocks(X, k, method, opts, 4 * 2**20)
        assert sizes == [14]
        uneven, sizes = _fit_in_blocks(X, k, method, opts, 5 * row_bytes)
        assert sizes == [5, 5, 4]
        _assert_same_fit(uneven, single)
        one_row, sizes = _fit_in_blocks(X, k, method, opts, 1)
        assert sizes == [1] * 14
        if method == "cp" and d >= 3:
            # np.einsum orders intermediate axes by extent, so a batch of
            # at most k elements takes another contraction layout
            _assert_close_fit(one_row, single)
        else:
            _assert_same_fit(one_row, single)

    @settings(max_examples=40, deadline=None)
    @given(
        method=st.sampled_from(["tucker", "cp"]),
        d=st.integers(1, 3),
        b=st.integers(1, 4),
        k_frac=st.floats(0.0, 1.0),
        nb=st.integers(1, 4),
        restarts=st.integers(1, 3),
        rows_per_block=st.integers(1, 12),
        max_iters=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_split_matches_one_block(self, method, d, b, k_frac, nb,
                                          restarts, rows_per_block, max_iters,
                                          seed):
        assume(method == "tucker" or d <= 2)  # see the test above
        k = 1 + int(k_frac * (b - 1))
        rng = np.random.default_rng(seed)
        X = rng.random((nb,) + (b,) * d) * (rng.random((nb,) + (b,) * d) < 0.5)
        opts = FitOptions(max_iters=max_iters, rel_tol=1e-2, restarts=restarts)
        whole, _ = _fit_in_blocks(X, k, method, opts, 2**40)
        split, sizes = _fit_in_blocks(
            X, k, method, opts, rows_per_block * b**d * 8
        )
        assert sum(sizes) == nb * restarts
        assert max(sizes) <= rows_per_block
        _assert_same_fit(split, whole)
