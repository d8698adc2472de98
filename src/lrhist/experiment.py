"""Cross-validated comparison of standard and low-rank histogram estimators.

The protocol per repetition: split off a training set, choose bins (and
components for the factorized estimators) by random-subset cross
validation, refit on the full training set, and score on the held-out
rest with the empirical L2 risk.  Risks of the factorized estimators are
compared against the standard histogram with the Wilcoxon signed-rank
test across repetitions.

Every random draw derives from (master seed, purpose tag, indices), so
results are a pure function of the configuration and are unaffected by
fold or repetition scheduling.
"""

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import models
from .decomp import (
    FitOptions,
    _cp_recon_batch,
    _tucker_recon_batch,
    fit_prob_tensor,
    mu_fit_batch,
)
from .fileio import load_csv
from .histogram import (
    bin_indices_flat,
    empirical_l2_risk,
    histogram_from_data,
    u_map,
    validate_sample,
)
from .reduce import apply_unit_cube, fit_unit_cube, pca_reduce, random_reduce
from .stats import wilcoxon_signed_rank
from .tensor import project_simplex_rows

TAG_SYNTH = 0
TAG_SPLIT = 1
TAG_FOLDS = 2
TAG_FIT = 3
TAG_REFIT = 4
TAG_REDUCE = 5

ESTIMATORS = ("standard", "tucker", "cp")
_METHOD_ID = {"tucker": 0, "cp": 1}

DEFAULT_GRIDS = {2: (15, 10), 3: (15, 10), 4: (12, 8), 5: (8, 6)}


def default_grid(d):
    """(b_max, k_max) for a given data dimension."""
    if d <= 3:
        return (15, 10)
    return DEFAULT_GRIDS.get(d, (8, 6))


@dataclass(frozen=True)
class ExperimentConfig:
    csv_path: str = None
    model_spec: object = None
    synth_n_total: int = 2000
    reduce_method: str = "none"
    reduce_dim: int = None
    rescale: str = "auto"
    n_train: int = 200
    n_cv_validation: int = 40
    cv_folds: int = 80
    repetitions: int = 32
    b_max: int = None
    k_max: int = None
    estimators: tuple = ("standard", "tucker")
    fit_options: FitOptions = field(default_factory=FitOptions)
    # grid-search fits only need to rank (b, k) cells, so they run on a
    # lighter budget than the final refits
    cv_fit_options: FitOptions = field(
        default_factory=lambda: FitOptions(max_iters=30, rel_tol=1e-5, restarts=2)
    )
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if (self.csv_path is None) == (self.model_spec is None):
            raise ValueError("provide exactly one of csv_path or model_spec")
        if self.n_cv_validation >= self.n_train:
            raise ValueError("n_cv_validation must be smaller than n_train")
        for name in ("n_train", "n_cv_validation", "cv_folds", "repetitions",
                     "jobs", "synth_n_total"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.reduce_method not in ("none", "pca", "random"):
            raise ValueError(f"unknown reduction {self.reduce_method!r}")
        if self.reduce_method != "none" and self.reduce_dim is None:
            raise ValueError("reduce_dim required with a reduction method")
        if self.rescale not in ("auto", "on", "off"):
            raise ValueError("rescale must be auto, on, or off")
        if not self.estimators:
            raise ValueError("estimator set is empty")
        for e in self.estimators:
            if e not in ESTIMATORS:
                raise ValueError(f"unknown estimator {e!r}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        _check_grid(self.b_max, self.k_max)


def _check_grid(b_max, k_max):
    for name, value in (("b_max", b_max), ("k_max", k_max)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class RunResult:
    repetition: int
    estimator: str
    risk: float
    b: int
    k: int


@dataclass(frozen=True)
class EstimatorSummary:
    estimator: str
    mean_risk: float
    std_risk: float
    mean_b: float
    std_b: float
    mean_k: float
    std_k: float
    p_value: float = None


@dataclass(frozen=True)
class ExperimentReport:
    summaries: tuple
    runs: tuple


def _risk_rows(w, val_flat, m):
    """Empirical L2 risk per row of a (F, m) weight stack."""
    picked = np.take_along_axis(w, val_flat, axis=1)
    return m * ((w**2).sum(axis=1) - 2.0 * picked.mean(axis=1))


def _make_folds(rng, n, n_val, n_folds):
    """Random validation subsets and the complementary fit masks."""
    val_sets = np.stack(
        [rng.choice(n, size=n_val, replace=False) for _ in range(n_folds)]
    )
    fit_mask = np.ones((n_folds, n), dtype=bool)
    for f in range(n_folds):
        fit_mask[f, val_sets[f]] = False
    return val_sets, fit_mask


def cv_risk_table(X_train, estimator, b_max, k_max, n_folds, n_val,
                  fit_options, seed):
    """Mean held-out risk of every grid cell over random-subset folds.

    Each fold holds out n_val points and fits on the rest.  The standard
    histogram searches b only (its cells carry k = 0); the factorized
    estimators search all cells with k <= min(k_max, b).  Returns the cell
    list in lexicographic order, with their mean validation risks.
    """
    _check_grid(b_max, k_max)
    X_train = validate_sample(X_train)
    n, d = X_train.shape
    if n <= n_val:
        raise ValueError("training set not larger than the validation size")
    rng = np.random.default_rng(seed)
    val_sets, fit_mask = _make_folds(rng, n, n_val, n_folds)
    cells = []
    scores = []
    for b in range(1, b_max + 1):
        m = b**d
        flat = bin_indices_flat(X_train, b, d)
        fit_w = np.stack([
            np.bincount(flat[fit_mask[f]], minlength=m) / (n - n_val)
            for f in range(n_folds)
        ])
        val_flat = flat[val_sets]
        if estimator == "standard":
            cells.append((b, 0))
            scores.append(_risk_rows(fit_w, val_flat, m).mean())
            continue
        for k in range(1, min(k_max, b) + 1):
            fit_rng = np.random.default_rng(
                _as_seed_list(seed) + [TAG_FIT, _METHOD_ID[estimator], b, k]
            )
            head, factors, _ = mu_fit_batch(
                fit_w.reshape((n_folds,) + (b,) * d), k, estimator,
                fit_options, fit_rng,
            )
            if estimator == "cp":
                recon = _cp_recon_batch(head, factors)
            else:
                recon = _tucker_recon_batch(head, factors)
            w_hat = project_simplex_rows(recon.reshape(n_folds, m))
            cells.append((b, k))
            scores.append(_risk_rows(w_hat, val_flat, m).mean())
    return cells, scores


def cross_validate(X_train, estimator, b_max, k_max, n_folds, n_val,
                   fit_options, seed):
    """Pick the (b, k) cell minimizing mean held-out risk.

    Ties break toward the lexicographically smaller (b, k).
    """
    cells, scores = cv_risk_table(
        X_train, estimator, b_max, k_max, n_folds, n_val, fit_options, seed
    )
    return _argmin_lex(cells, scores)


def _argmin_lex(cells, scores):
    """Cell with the smallest score; exact ties keep the earliest cell.

    Cells are generated in lexicographic (b, k) order, so the earliest
    minimal cell is the lexicographically smallest one.
    """
    best_idx = 0
    for i in range(1, len(scores)):
        if scores[i] < scores[best_idx]:
            best_idx = i
    return cells[best_idx]


def _as_seed_list(seed):
    if isinstance(seed, (tuple, list)):
        return [int(s) for s in seed]
    return [int(seed)]


def _prepare_data(config):
    """Load or sample the dataset, then reduce and scale per the config."""
    if config.csv_path is not None:
        X = load_csv(config.csv_path)
    else:
        spec = config.model_spec
        if isinstance(spec, str):
            spec = models.read_spec(spec)
        sampler = (
            models.sample_multiview
            if isinstance(spec, models.MultiViewSpec)
            else models.sample_tucker
        )
        X = sampler(spec, config.synth_n_total, [config.seed, TAG_SYNTH])
    if config.reduce_method == "pca":
        X, _ = pca_reduce(X, config.reduce_dim)
    elif config.reduce_method == "random":
        X, _ = random_reduce(X, config.reduce_dim, [config.seed, TAG_REDUCE])
    rescale = config.rescale
    if rescale == "auto":
        needs = config.csv_path is not None or config.reduce_method != "none"
        rescale = "on" if needs else "off"
    if rescale == "on":
        X = apply_unit_cube(X, fit_unit_cube(X))
    if X.min() < 0.0 or X.max() > 1.0:
        raise ValueError(
            "data outside the unit cube; enable rescaling or scale it first"
        )
    return X


def _refit_and_score(estimator, train, test, b, k, config, rep):
    if estimator == "standard":
        h = histogram_from_data(train, b)
        return empirical_l2_risk(h, test)
    w = histogram_from_data(train, b).weights
    opts = dataclasses.replace(
        config.fit_options,
        seed=(config.seed, TAG_REFIT, rep, _METHOD_ID[estimator]),
    )
    t_hat = fit_prob_tensor(w, k, estimator, opts)
    return empirical_l2_risk(u_map(t_hat), test)


def _run_repetition(args):
    config, X, b_max, k_max, rep = args
    n_total = X.shape[0]
    rng = np.random.default_rng([config.seed, TAG_SPLIT, rep])
    perm = rng.permutation(n_total)
    train = X[perm[: config.n_train]]
    test = X[perm[config.n_train :]]
    cv_seed = [config.seed, TAG_FOLDS, rep]
    out = []
    for est in config.estimators:
        b, k = cross_validate(
            train, est, b_max, k_max, config.cv_folds,
            config.n_cv_validation, config.cv_fit_options, cv_seed,
        )
        risk = _refit_and_score(est, train, test, b, k, config, rep)
        out.append(RunResult(rep, est, float(risk), b, k))
    return out


def run_experiment(config):
    """Run all repetitions and aggregate them into an ExperimentReport."""
    X = _prepare_data(config)
    n_total, d = X.shape
    if n_total <= config.n_train:
        raise ValueError(
            f"dataset has {n_total} rows; need more than n_train={config.n_train}"
        )
    gb, gk = default_grid(d)
    b_max = config.b_max if config.b_max is not None else gb
    k_max = config.k_max if config.k_max is not None else gk
    tasks = [(config, X, b_max, k_max, r) for r in range(config.repetitions)]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            per_rep = list(pool.map(_run_repetition, tasks))
    else:
        per_rep = [_run_repetition(t) for t in tasks]
    runs = tuple(r for rep in per_rep for r in rep)
    return ExperimentReport(summaries=_summarize(config, runs), runs=runs)


def _summarize(config, runs):
    by_est = {
        est: sorted(
            (r for r in runs if r.estimator == est), key=lambda r: r.repetition
        )
        for est in config.estimators
    }
    std_risks = None
    if "standard" in by_est:
        std_risks = np.array([r.risk for r in by_est["standard"]])
    summaries = []
    for est, rows in by_est.items():
        risks = np.array([r.risk for r in rows])
        bs = np.array([float(r.b) for r in rows])
        ks = np.array([float(r.k) for r in rows])
        p = None
        if est != "standard" and std_risks is not None:
            p = wilcoxon_signed_rank(risks, std_risks).p_value
        summaries.append(
            EstimatorSummary(
                estimator=est,
                mean_risk=float(risks.mean()),
                std_risk=float(risks.std()),
                mean_b=float(bs.mean()),
                std_b=float(bs.std()),
                mean_k=float(ks.mean()),
                std_k=float(ks.std()),
                p_value=p,
            )
        )
    return tuple(summaries)
