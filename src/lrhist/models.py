"""Synthetic ground-truth densities with low-rank structure.

Two families: a mixture of k product densities (one shared weight vector),
and a richer variant where each axis picks its marginal independently
according to a k**d mixing tensor.  Marginals are 1-d histograms, so the
model's bin-weight tensor at any compatible resolution is computable in
closed form and sampling is exact.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .fileio import DataError, parse_keyvalue
from .histogram import HistogramDensity
from .tensor import cp_reconstruct, tucker_reconstruct, validate_prob_tensor


@dataclass(frozen=True)
class MarginalBank:
    """Per-axis collections of 1-d bin-weight vectors, shape (d, k, b_true)."""

    bins: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = np.asarray(self.bins, dtype=float)
        if b.ndim != 3:
            raise ValueError("bins must have shape (d, k, b_true)")
        if np.min(b) < 0 or np.max(np.abs(b.sum(axis=2) - 1.0)) > 1e-9:
            raise ValueError("every marginal must be a probability vector")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "bins", b)

    @property
    def d(self):
        return self.bins.shape[0]

    @property
    def k(self):
        return self.bins.shape[1]

    @property
    def b_true(self):
        return self.bins.shape[2]

    def marginal(self, axis, i):
        return HistogramDensity(1, self.b_true, self.bins[axis, i])


@dataclass(frozen=True)
class MultiViewSpec:
    """Mixture of k product densities; component i uses bank.bins[j, i] on axis j."""

    weights: np.ndarray
    bank: MarginalBank

    def __post_init__(self):
        w = validate_prob_tensor(self.weights, name="weights")
        if w.ndim != 1 or w.shape[0] != self.bank.k:
            raise ValueError("weights length must match the bank's k")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def d(self):
        return self.bank.d


@dataclass(frozen=True)
class TuckerSpec:
    """Axis j draws marginal i_j; the joint choice has probability mixing[i_1..i_d]."""

    mixing: np.ndarray
    bank: MarginalBank

    def __post_init__(self):
        m = validate_prob_tensor(self.mixing, name="mixing")
        if m.shape != (self.bank.k,) * self.bank.d:
            raise ValueError(
                f"mixing shape {m.shape} != {(self.bank.k,) * self.bank.d}"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "mixing", m)

    @property
    def d(self):
        return self.bank.d


def random_bank(d, k, b_true, rng):
    return MarginalBank(rng.dirichlet(np.ones(b_true), size=(d, k)))


def random_multiview_spec(d, k, b_true, seed):
    """Generic full-support instance: Dirichlet(1) weights and marginals."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(k))
    return MultiViewSpec(weights, random_bank(d, k, b_true, rng))


def random_tucker_spec(d, k, b_true, seed):
    rng = np.random.default_rng(seed)
    mixing = rng.dirichlet(np.ones(k**d)).reshape((k,) * d)
    return TuckerSpec(mixing, random_bank(d, k, b_true, rng))


def _sample_marginal_bins(bank, axis, choices, rng):
    """Bin draws for one axis, each row using the marginal named by choices."""
    cdfs = np.cumsum(bank.bins[axis], axis=1)[choices]
    u = rng.random(choices.shape[0])
    return np.minimum((cdfs <= u[:, None]).sum(axis=1), bank.b_true - 1)


def _coords_from_bins(bins, b_true, rng):
    return (bins + rng.random(bins.shape[0])) / b_true


def sample_multiview(spec, n, seed):
    """Draw a component per point, then each coordinate from its marginal."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    comps = rng.choice(spec.bank.k, size=n, p=spec.weights)
    X = np.empty((n, spec.d))
    for j in range(spec.d):
        bins = _sample_marginal_bins(spec.bank, j, comps, rng)
        X[:, j] = _coords_from_bins(bins, spec.bank.b_true, rng)
    return X


def sample_tucker(spec, n, seed):
    """Draw a marginal index per axis from the mixing tensor, then sample."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    k, d = spec.bank.k, spec.d
    flat = rng.choice(k**d, size=n, p=spec.mixing.ravel())
    S = np.column_stack(np.unravel_index(flat, (k,) * d))
    X = np.empty((n, d))
    for j in range(d):
        bins = _sample_marginal_bins(spec.bank, j, S[:, j], rng)
        X[:, j] = _coords_from_bins(bins, spec.bank.b_true, rng)
    return X


def _factor_matrices(bank, b):
    """Marginal bin vectors refined to resolution b, as (b, k) per axis."""
    if b % bank.b_true != 0:
        raise ValueError(
            f"resolution {b} is not a multiple of the marginal bins {bank.b_true}"
        )
    f = b // bank.b_true
    return [
        np.repeat(bank.bins[j], f, axis=1).T / f for j in range(bank.d)
    ]


def true_weight_tensor(spec, b):
    """Exact bin-probability tensor of the model density at resolution b."""
    mats = _factor_matrices(spec.bank, b)
    if isinstance(spec, MultiViewSpec):
        t = cp_reconstruct(spec.weights, mats)
    elif isinstance(spec, TuckerSpec):
        t = tucker_reconstruct(spec.mixing, mats)
    else:
        raise TypeError(f"unsupported spec type {type(spec).__name__}")
    return validate_prob_tensor(t, name="model weight tensor")


def true_histogram(spec, b):
    return HistogramDensity(spec.d, b, true_weight_tensor(spec, b))


def exact_l1_error(spec, h):
    """L1 distance between a fitted histogram and the model density.

    Both sides are piecewise constant, so refining each to the least common
    bin resolution makes the distance an exact finite sum.
    """
    m = math.lcm(h.b, spec.bank.b_true)
    truth = true_weight_tensor(spec, m)
    f = m // h.b
    est = h.weights
    for axis in range(h.d):
        est = np.repeat(est, f, axis=axis)
    return float(np.abs(truth - est / f**h.d).sum())


def write_spec(spec, path):
    """Serialize a model spec as `key = value` lines."""
    bank = spec.bank
    lines = ["# density model specification"]
    if isinstance(spec, MultiViewSpec):
        lines.append("model = multiview")
    else:
        lines.append("model = tucker")
    lines.append(f"dims = {bank.d}")
    lines.append(f"components = {bank.k}")
    lines.append(f"marginal_bins = {bank.b_true}")
    if isinstance(spec, MultiViewSpec):
        lines.append("weights = " + _fmt(spec.weights))
    else:
        lines.append("mixing = " + _fmt(spec.mixing.ravel()))
    for j in range(bank.d):
        for i in range(bank.k):
            lines.append(f"marginal_{j}_{i} = " + _fmt(bank.bins[j, i]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_spec(path):
    """Parse a spec file written by write_spec."""
    entries = parse_keyvalue(path)
    try:
        model = entries.pop("model")
        d = int(entries.pop("dims"))
        k = int(entries.pop("components"))
        b_true = int(entries.pop("marginal_bins"))
        bins = np.empty((d, k, b_true))
        for j in range(d):
            for i in range(k):
                bins[j, i] = _parse_vec(entries.pop(f"marginal_{j}_{i}"), b_true)
        bank = MarginalBank(bins)
        if model == "multiview":
            weights = _parse_vec(entries.pop("weights"), k)
            spec = MultiViewSpec(weights, bank)
        elif model == "tucker":
            mixing = _parse_vec(entries.pop("mixing"), k**d).reshape((k,) * d)
            spec = TuckerSpec(mixing, bank)
        else:
            raise ValueError(f"unknown model type {model!r}")
    except KeyError as exc:
        raise DataError(f"{path}: missing spec key {exc}") from None
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    if entries:
        raise DataError(f"{path}: unknown spec keys {sorted(entries)}")
    return spec


def _fmt(arr):
    return ",".join(repr(float(v)) for v in np.asarray(arr).ravel())


def _parse_vec(text, expected):
    vals = np.array([float(v) for v in text.split(",")])
    if vals.size != expected:
        raise ValueError(f"expected {expected} values, got {vals.size}")
    return vals
