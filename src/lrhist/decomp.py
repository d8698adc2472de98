"""Nonnegative Tucker and CP decompositions by multiplicative updates.

Both solvers minimize the squared error between a nonnegative input tensor
and its low-rank reconstruction.  Multiplicative updates keep every factor
entry nonnegative and make the objective non-increasing from one sweep to
the next, which the tests rely on.  All state carries a leading batch axis
so that many independent problems of the same shape (e.g. one per
cross-validation fold and restart) run through the same numpy calls.
`mu_fit_batch` runs such a batch in consecutive blocks of at most 4 MiB of
input, so that a block stays in cache across all of its sweeps.  The
results do not depend on how the batch is split: a Tucker sweep acts on
one batch element at a time (one BLAS call per matrix, elementwise
arithmetic, sums along rows), and so does a CP sweep on a batch of more
than k elements.  np.einsum lays out the intermediates of a CP contraction
by extent, so on a batch of at most k elements (d >= 3) the last bits can
differ; this already happens when converged elements leave the batch.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    cp_reconstruct,
    project_simplex,
    tucker_reconstruct,
    validate_nonnegative,
    validate_prob_tensor,
)

_AXIS_LETTERS = "abcdefghijklmnopqr"
# most input bytes in one block of mu_fit_batch: a block and its sweep
# temporaries then stay within a shared L3 cache
_BLOCK_BYTES = 4 * 2**20


@dataclass(frozen=True)
class FitOptions:
    max_iters: int = 200
    rel_tol: float = 1e-6
    restarts: int = 5
    seed: int = 0
    epsilon_guard: float = 1e-12

    def __post_init__(self):
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be positive")
        for name in ("rel_tol", "epsilon_guard"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass
class TuckerFactors:
    core: np.ndarray
    factors: list
    objective_trace: np.ndarray = None
    n_iters: int = 0

    def __post_init__(self):
        if self.core.ndim != len(self.factors):
            raise ValueError("core order must match the number of factors")
        if np.min(self.core) < 0 or any(np.min(f) < 0 for f in self.factors):
            raise ValueError("factorization entries must be nonnegative")


@dataclass
class CPFactors:
    weights: np.ndarray
    factors: list
    objective_trace: np.ndarray = None
    n_iters: int = 0

    def __post_init__(self):
        if np.min(self.weights) < 0 or any(np.min(f) < 0 for f in self.factors):
            raise ValueError("factorization entries must be nonnegative")


def _seed_path(seed):
    if isinstance(seed, (tuple, list)):
        return [int(s) for s in seed]
    return [int(seed)]


def _bmode(T, M, axis):
    """Batched mode product: T (B, *shape), M (B, r, e_axis).

    Contractions over the first or last tensor axis run on reshaped views
    of a C-contiguous input; only middle axes pay for a rearrangement.
    """
    nb = T.shape[0]
    last = T.ndim - 2
    shape = T.shape[1:]
    r = M.shape[1]
    if axis == 0:
        out = M @ T.reshape(nb, shape[0], -1)
        return out.reshape((nb, r) + shape[1:])
    if axis == last:
        out = T.reshape(nb, -1, shape[-1]) @ np.swapaxes(M, 1, 2)
        return out.reshape((nb,) + shape[:-1] + (r,))
    Tm = np.moveaxis(T, axis + 1, T.ndim - 1)
    lead = Tm.shape[1:-1]
    flat = Tm.reshape(nb, -1, shape[axis])
    out = flat @ np.swapaxes(M, 1, 2)
    out = out.reshape((nb,) + lead + (r,))
    return np.moveaxis(out, T.ndim - 1, axis + 1)


def _contract_order(d, n):
    """Order in which to contract the modes other than n.

    Leading axis first, trailing axis second: both contract as views of a
    contiguous array, so any middle-axis copies happen on tensors already
    shrunk by earlier contractions.
    """
    order = []
    if n != 0:
        order.append(0)
    if d - 1 != n and d - 1 != 0:
        order.append(d - 1)
    order.extend(j for j in range(1, d - 1) if j != n)
    return order


def _tucker_recon_batch(G, A):
    R = G
    for j, a in enumerate(A):
        R = _bmode(R, a, j)
    return R


@functools.lru_cache(maxsize=1024)
def _einsum_path(spec, shapes):
    # the greedy search reads only the operand shapes
    dummies = [np.broadcast_to(0.0, s) for s in shapes]
    return tuple(np.einsum_path(spec, *dummies, optimize=True)[0])


def _einsum(spec, *operands):
    """np.einsum(optimize=True), searching the path once per spec and shapes."""
    path = _einsum_path(spec, tuple(o.shape for o in operands))
    return np.einsum(spec, *operands, optimize=path)


def _cp_recon_batch(w, A):
    d = len(A)
    letters = _AXIS_LETTERS[:d]
    spec = "sz," + ",".join(f"s{c}z" for c in letters) + "->s" + letters
    return _einsum(spec, w, *A)


def _bmttkrp(X, A, n):
    """Contract X against all factors except mode n, keeping the component axis."""
    d = X.ndim - 1
    if d == 1:
        # nothing to contract; every component sees X itself
        return np.broadcast_to(X[:, :, None], X.shape + (A[0].shape[2],))
    letters = _AXIS_LETTERS[:d]
    operands = [X]
    spec = "s" + letters
    for j in range(d):
        if j == n:
            continue
        spec += f",s{letters[j]}z"
        operands.append(A[j])
    spec += f"->s{letters[n]}z"
    return _einsum(spec, *operands)


def _unfold(T, axis):
    """Mode-axis matricization of a batched tensor: (B, e_axis, rest)."""
    nb = T.shape[0]
    return np.moveaxis(T, axis + 1, 1).reshape(nb, T.shape[axis + 1], -1)


def _ntd_sweep(X, arrays, eps, exact_obj=True, norm_x2=None):
    """One full multiplicative-update sweep (all factors, then the core).

    Factor-n quantities are computed by shrinking X against the transposed
    factors of the other modes (never expanding the core to full size), and
    the factor gram passes through the core-sized identity
    W_(n) W_(n)^T = G_(n) (G x_{j!=n} gram_j)_(n)^T, which keeps all heavy
    products in batched BLAS calls.  With exact_obj the objective is the
    explicitly formed residual (stable arbitrarily close to zero);
    otherwise it comes from the cheaper gram expansion of ||X - R||^2.
    """
    G, A = arrays[0], list(arrays[1:])
    nb = X.shape[0]
    d = X.ndim - 1
    grams = [np.swapaxes(a, 1, 2) @ a for a in A]
    Y = None
    for n in range(d):
        Y = X
        for j in _contract_order(d, n):
            Y = _bmode(Y, np.swapaxes(A[j], 1, 2), j)
        Gm = _unfold(G, n)
        num = _unfold(Y, n) @ np.swapaxes(Gm, 1, 2)
        Z = G
        for j in _contract_order(d, n):
            Z = _bmode(Z, grams[j], j)
        den = A[n] @ (Gm @ np.swapaxes(_unfold(Z, n), 1, 2))
        A[n] = A[n] * (num / np.maximum(den, eps))
        grams[n] = np.swapaxes(A[n], 1, 2) @ A[n]
    # Y above never involves mode d-1's factor, so one more contraction
    # yields the core numerator X x_j A_j^T with all factors current.
    num = _bmode(Y, np.swapaxes(A[d - 1], 1, 2), d - 1)
    den = G
    for j in range(d):
        den = _bmode(den, grams[j], j)
    G = G * (num / np.maximum(den, eps))
    if exact_obj:
        R = _tucker_recon_batch(G, A)
        obj = ((X - R) ** 2).reshape(nb, -1).sum(axis=1)
    else:
        # ||X||^2 - 2 <X x A^T, G> + <G x gram, G>
        ZG = G
        for j in range(d):
            ZG = _bmode(ZG, grams[j], j)
        obj = (
            norm_x2
            - 2.0 * (num * G).reshape(nb, -1).sum(axis=1)
            + (ZG * G).reshape(nb, -1).sum(axis=1)
        )
    return [G] + A, obj


def _ncp_sweep(X, arrays, eps, exact_obj=True, norm_x2=None):
    """One multiplicative-update sweep over all factors plus the weights."""
    w, A = arrays[0], list(arrays[1:])
    nb = X.shape[0]
    d = X.ndim - 1
    grams = [np.swapaxes(a, 1, 2) @ a for a in A]
    for n in range(d):
        num = _bmttkrp(X, A, n) * w[:, None, :]
        gm = np.ones_like(grams[n])
        for j in range(d):
            if j != n:
                gm = gm * grams[j]
        den = A[n] @ ((w[:, :, None] * w[:, None, :]) * gm)
        A[n] = A[n] * (num / np.maximum(den, eps))
        grams[n] = np.swapaxes(A[n], 1, 2) @ A[n]
    g = (A[0] * _bmttkrp(X, A, 0)).sum(axis=1)
    H = grams[0]
    for j in range(1, d):
        H = H * grams[j]
    den_w = (H @ w[:, :, None])[:, :, 0]
    w = w * (g / np.maximum(den_w, eps))
    if exact_obj:
        R = _cp_recon_batch(w, A)
        obj = ((X - R) ** 2).reshape(nb, -1).sum(axis=1)
    else:
        obj = (
            norm_x2
            - 2.0 * (w * g).sum(axis=1)
            + (w * (H @ w[:, :, None])[:, :, 0]).sum(axis=1)
        )
    return [w] + A, obj


def _mu_minimize(X, arrays, sweep, recon, max_iters, rel_tol, eps,
                 record_trace=False, exact_obj=True):
    """Run sweeps until the relative objective decrease falls below rel_tol.

    Each batch element stops independently; converged elements are removed
    from the working set so late stragglers do not pay for early finishers.
    Returns (final arrays, final objective, iterations used, traces).
    """
    nb = X.shape[0]
    prev = ((X - recon(arrays[0], list(arrays[1:]))) ** 2).reshape(nb, -1).sum(axis=1)
    finals = [np.empty_like(a) for a in arrays]
    final_obj = np.empty(nb)
    iters_used = np.zeros(nb, dtype=int)
    traces = [[p] for p in prev] if record_trace else None
    alive = np.arange(nb)
    norm_x2 = None
    if not exact_obj:
        norm_x2 = (X**2).reshape(nb, -1).sum(axis=1)
    for it in range(1, max_iters + 1):
        arrays, obj = sweep(X, arrays, eps, exact_obj=exact_obj,
                            norm_x2=norm_x2)
        if record_trace:
            for orig, val in zip(alive, obj):
                traces[orig].append(val)
        done = (prev <= 0.0) | ((prev - obj) < rel_tol * prev)
        if it == max_iters:
            done = np.ones_like(done)
        if done.any():
            idx = alive[done]
            for f, a in zip(finals, arrays):
                f[idx] = a[done]
            final_obj[idx] = obj[done]
            iters_used[idx] = it
            keep = ~done
            if not keep.any():
                break
            alive = alive[keep]
            X = X[keep]
            arrays = [a[keep] for a in arrays]
            prev = obj[keep]
            if norm_x2 is not None:
                norm_x2 = norm_x2[keep]
        else:
            prev = obj
    if record_trace:
        traces = [np.array(t[: iters_used[i] + 1]) for i, t in enumerate(traces)]
    return finals, final_obj, iters_used, traces


def _check_fit_input(t, k):
    t = validate_nonnegative(t, name="input tensor")
    if not np.all(np.isfinite(t)):
        raise ValueError("input tensor has non-finite entries")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > min(t.shape):
        raise ValueError(f"k={k} exceeds the smallest extent {min(t.shape)}")
    return t


def _stacked_inits(rngs, shape, k, cp):
    d = len(shape)
    factors = [
        np.stack([r.uniform(0.1, 1.0, size=(shape[j], k)) for r in rngs])
        for j in range(d)
    ]
    if cp:
        head = np.stack([r.uniform(0.1, 1.0, size=k) for r in rngs])
    else:
        head = np.stack([r.uniform(0.1, 1.0, size=(k,) * d) for r in rngs])
    return [head] + factors


def ntd_fit(t, k, opts=FitOptions()):
    """Nonnegative Tucker decomposition with rank k on every mode.

    Runs opts.restarts seeded starts and keeps the one with the lowest
    final squared error (ties go to the lowest restart index).  The
    returned objective_trace holds the squared error before any update and
    after each sweep of the winning restart.
    """
    t = _check_fit_input(t, k)
    rngs = [
        np.random.default_rng(_seed_path(opts.seed) + [r])
        for r in range(opts.restarts)
    ]
    arrays = _stacked_inits(rngs, t.shape, k, cp=False)
    X = np.repeat(t[None], opts.restarts, axis=0)
    finals, obj, iters, traces = _mu_minimize(
        X, arrays, _ntd_sweep, _tucker_recon_batch, opts.max_iters,
        opts.rel_tol, opts.epsilon_guard, record_trace=True,
    )
    best = int(np.argmin(obj))
    return TuckerFactors(
        core=finals[0][best],
        factors=[f[best] for f in finals[1:]],
        objective_trace=traces[best],
        n_iters=int(iters[best]),
    )


def ncp_fit(t, k, opts=FitOptions()):
    """Nonnegative CP decomposition: k weighted rank-one components."""
    t = _check_fit_input(t, k)
    rngs = [
        np.random.default_rng(_seed_path(opts.seed) + [r])
        for r in range(opts.restarts)
    ]
    arrays = _stacked_inits(rngs, t.shape, k, cp=True)
    X = np.repeat(t[None], opts.restarts, axis=0)
    finals, obj, iters, traces = _mu_minimize(
        X, arrays, _ncp_sweep, _cp_recon_batch, opts.max_iters,
        opts.rel_tol, opts.epsilon_guard, record_trace=True,
    )
    best = int(np.argmin(obj))
    return CPFactors(
        weights=finals[0][best],
        factors=[f[best] for f in finals[1:]],
        objective_trace=traces[best],
        n_iters=int(iters[best]),
    )


def fit_prob_tensor(h, k, method, opts=FitOptions()):
    """Best low-rank probability tensor near h: decompose, rebuild, project.

    The reconstruction is projected (as a flat vector) onto the probability
    simplex, so the output is a valid probability tensor no matter how well
    the solver converged.
    """
    h = validate_prob_tensor(h, name="input tensor")
    if method == "tucker":
        f = ntd_fit(h, k, opts)
        recon = tucker_reconstruct(f.core, f.factors)
    elif method == "cp":
        f = ncp_fit(h, k, opts)
        recon = cp_reconstruct(f.weights, f.factors)
    else:
        raise ValueError(f"unknown method {method!r} (use 'tucker' or 'cp')")
    flat = project_simplex(recon.ravel(), 1.0)
    return validate_prob_tensor(flat.reshape(h.shape), name="fitted tensor")


def mu_fit_batch(X, k, method, opts, rng):
    """Fit every tensor in a (batch, *shape) stack, restarts included.

    Initial values for all (element, restart) pairs are drawn from the
    supplied generator in one canonical order, so results depend only on
    the generator state, not on scheduling.  The (element, restart) rows
    are then fitted in consecutive blocks of equal size holding at most
    _BLOCK_BYTES of input each (the last block may be smaller); each block
    gathers its rows of X, so the restart-expanded stack is never built.
    Returns the per-element best restart as (head, factors, objective)
    where head is the core stack for 'tucker' and the weight stack for 'cp'.
    """
    nb = X.shape[0]
    shape = X.shape[1:]
    d = len(shape)
    r = opts.restarts
    cp = method == "cp"
    total = nb * r
    factors = [
        rng.uniform(0.1, 1.0, size=(total, shape[j], k)) for j in range(d)
    ]
    if cp:
        head = rng.uniform(0.1, 1.0, size=(total, k))
    else:
        head = rng.uniform(0.1, 1.0, size=(total,) + (k,) * d)
    arrays = [head] + factors
    sweep = _ncp_sweep if cp else _ntd_sweep
    recon = _cp_recon_batch if cp else _tucker_recon_batch
    n_blocks = -(-r * X.nbytes // _BLOCK_BYTES)
    size = -(-total // max(1, n_blocks))
    parts = []
    for start in range(0, total, size):
        rows = np.arange(start, min(start + size, total))
        parts.append(_mu_minimize(
            X[rows // r], [a[rows] for a in arrays], sweep, recon,
            opts.max_iters, opts.rel_tol, opts.epsilon_guard, exact_obj=False,
        ))
    finals = [np.concatenate(f) for f in zip(*(p[0] for p in parts))]
    obj = np.concatenate([p[1] for p in parts])
    groups = obj.reshape(nb, r)
    best = groups.argmin(axis=1) + np.arange(nb) * r
    return (
        finals[0][best],
        [f[best] for f in finals[1:]],
        obj[best],
    )
