"""lrhist benchmark: cross-validated experiment throughput, memory and risk.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ./src).  With
--trace 0 the workload runs untraced in a closed loop of calls for about S
seconds and the last stdout line reports the end-to-end metrics; with
--trace 1 one jobs=1 call runs under the span tracer (after an untraced
reference call of the same seeds) and the last line reports the per-layer
metrics.  Every call's outputs are checked; a failed check counts toward
`failed` instead of aborting.  Full results, machine and workload facts
(and spans, when traced) go to perfbench/results/.  See README.md in this
directory for what each workload and metric is for.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(HERE, "results")
WORK_DIR = os.path.join(HERE, "work")

SETUP_PROBES = 5
N_TOTAL = 2000
N_TRAIN = 200
N_VAL = 40
CV_FOLDS = 80
TINY_GRID = (3, 2)
# iteration counts come from ntd_fit/ncp_fit on this many folds of every
# (b >= ITERS_B_MIN, k) cell of the traced call
ITERS_B_MIN = 10
ITERS_FOLDS = 2
FILL_SUBSETS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    # the model: ("tucker" | "multiview", random_*_spec arguments)
    model: tuple
    # dimension the estimators see (after PCA for the CLI workload)
    d: int
    estimators: tuple
    jobs: int
    reps_per_call: int
    # calls whose results give the risk metrics; every timed run makes at
    # least these, and later calls cycle through the same configurations
    risk_calls: int
    via_cli: bool
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "cv_tucker_d3", ("tucker", (3, 2, 8, 20240401)), 3,
        ("standard", "tucker"), 1, 1, 8, False,
        "the paper's headline experiment (acceptance criterion 5 model): "
        "105 Tucker cells of small dense stacks, so per-call overhead and "
        "Tucker MU sweeps dominate",
    ),
    Workload(
        "cv_tucker_d4_jobs2", ("tucker", (4, 2, 6, 20240402)), 4,
        ("standard", "tucker"), 2, 4, 1, False,
        "d=4 fold stacks of up to 160x20736 entries at under 1% fill: the "
        "memory-bound workload, and the only one on the process-pool path",
    ),
    Workload(
        "cli_cp_pca", ("multiview", (6, 3, 8, 20240403)), 3,
        ("standard", "cp"), 1, 1, 8, True,
        "CP branch of decomp plus CSV load, PCA, unit-cube scaling, config "
        "parsing and TSV writes through lrhist.cli.main",
    ),
)}

END_TO_END_UNITS = {
    "setup_s": "s",
    "reps_per_s": "1/s",
    "cpu_s_per_rep": "s",
    "peak_rss_mb": "MB",
}

# reported with the end-to-end metrics, but not in the last line: the risks
# are deterministic per seed but spread 5-20% across seeds at these
# repetition counts, so they are compared per seed (compare.py), and
# failed_frac is 0 on a healthy run (the line carries failed/attempted)
QUALITY_UNITS = {
    "neg_risk_lowrank": "1",
    "neg_risk_standard": "1",
    "failed_frac": "1",
}

PER_LAYER_UNITS = {
    "decomp.mu_fit_batch.s": "s/rep",
    "decomp.mu_fit_batch.calls": "count/rep",
    "decomp.mu_fit_batch.s.b_le7": "s/rep",
    "decomp.mu_fit_batch.s.b_ge8": "s/rep",
    "decomp.mu_fit_batch.in_mb": "computed-MB/rep",
    "decomp.mu_fit_batch.fill": "1",
    "decomp.iters_mean": "iters",
    "decomp.cap_hit_frac": "1",
    "decomp.fit_prob_tensor.s": "s/rep",
    "tensor.project_simplex_rows.s": "s/rep",
    "experiment.cv_risk_table.s.standard": "s/rep",
    "experiment.cv_risk_table.s.lowrank": "s/rep",
    "experiment.cv_risk_table.self_s": "s/rep",
    "experiment.pool.busy_frac": "1",
    "histogram.bin_indices_flat.s": "s/rep",
    "histogram.histogram_from_data.s": "s/rep",
    "histogram.empirical_l2_risk.s": "s/rep",
    "stats.wilcoxon_signed_rank.s": "s/rep",
    "layer.decomp.self_s": "s/rep",
    "layer.experiment.self_s": "s/rep",
    "layer.histogram.self_s": "s/rep",
    "layer.tensor.self_s": "s/rep",
    "trace.overhead_frac": "1",
    "trace.unspanned_s": "s/rep",
}

# reported in the result files and on stdout, but not in the last line:
# each is zero on at least one workload
TRACE_DETAIL_UNITS = {
    "models.sample.s": "s/rep",
    "reduce.pca_reduce.s": "s/rep",
    "reduce.apply_unit_cube.s": "s/rep",
    "fileio.load_csv.s": "s/rep",
    "fileio.write_tsv.s": "s/rep",
    "cli.main.self_s": "s/rep",
    "layer.models.self_s": "s/rep",
    "layer.reduce.self_s": "s/rep",
    "layer.fileio.self_s": "s/rep",
    "layer.cli.self_s": "s/rep",
    "layer.stats.self_s": "s/rep",
}


class CheckFailed(Exception):
    """A call returned but its outputs are wrong."""


def import_lrhist():
    """Import the package from this checkout's src/ and return its modules."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import numpy
    import lrhist
    import lrhist.cli
    import lrhist.experiment
    names = ("cli", "decomp", "experiment", "fileio", "histogram", "models",
             "reduce", "select", "stats", "tensor")
    mods = {n: getattr(lrhist, n) for n in names}
    mods["lrhist"] = lrhist
    mods["numpy"] = numpy
    return mods


class Bench:
    """One workload at one seed: its inputs, its calls and their checks."""

    def __init__(self, wl, seed, workdir, tiny=False):
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.reps_per_call = 1 if tiny else wl.reps_per_call
        self.risk_calls = 1 if tiny else wl.risk_calls

    def setup(self):
        """Import, build the inputs and make one warm-up call; returns seconds."""
        t0 = time.perf_counter()
        self.m = import_lrhist()
        models = self.m["models"]
        kind, args = self.wl.model
        self.spec = getattr(models, f"random_{kind}_spec")(*args)
        grid = self.m["experiment"].default_grid(self.wl.d)
        self.b_max, self.k_max = TINY_GRID if self.tiny else grid
        os.makedirs(self.workdir, exist_ok=True)
        if self.wl.via_cli:
            # one data set per configuration, so that the risk metrics
            # average over data sets, not only over splits of one
            for i in range(self.risk_calls):
                X = models.sample_multiview(self.spec, N_TOTAL, [self.seed, 1, i])
                self.m["fileio"].write_csv(self.csv_path(i), X)
            self.config_paths = [self._write_config(f"{i}.conf", i, self.tiny)
                                 for i in range(self.risk_calls)]
            self.warmup_path = self._write_config("warmup.conf", 0, True)
        self.call(0, reps=1, warmup=True)
        return time.perf_counter() - t0

    def csv_path(self, i):
        return os.path.join(self.workdir, f"data{i}.csv")

    def call_seed(self, i):
        return self.seed * 1000 + i

    def _kwargs(self, i, reps, jobs, tiny):
        kw = dict(
            n_train=N_TRAIN, n_cv_validation=N_VAL, cv_folds=CV_FOLDS,
            repetitions=reps, estimators=self.wl.estimators,
            seed=self.call_seed(i), jobs=jobs,
        )
        if tiny:
            kw["b_max"], kw["k_max"] = TINY_GRID
        return kw

    def _write_config(self, filename, i, tiny):
        kw = self._kwargs(i, self.reps_per_call, self.wl.jobs, tiny)
        kw["estimators"] = ",".join(kw["estimators"])
        path = os.path.join(self.workdir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"data_csv = data{i}.csv\nreduce_method = pca\nreduce_dim = 3\n")
            for key, value in kw.items():
                fh.write(f"{key} = {value}\n")
        return path

    def call(self, i, reps=None, jobs=None, warmup=False):
        """Run configuration i; returns (rows, p_values) after checking them.

        rows are (repetition, estimator, risk, b, k) tuples in output order.
        Raises CheckFailed when the outputs are wrong.
        """
        reps = self.reps_per_call if reps is None else reps
        jobs = self.wl.jobs if jobs is None else jobs
        if self.wl.via_cli:
            rows, p_values = self._call_cli(i, reps, jobs, warmup)
        else:
            cfg = self.m["experiment"].ExperimentConfig(
                model_spec=self.spec, synth_n_total=N_TOTAL,
                **self._kwargs(i, reps, jobs, warmup or self.tiny),
            )
            report = self.m["experiment"].run_experiment(cfg)
            rows = [(r.repetition, r.estimator, r.risk, r.b, r.k)
                    for r in report.runs]
            p_values = [s.p_value for s in report.summaries]
        b_max, k_max = TINY_GRID if warmup else (self.b_max, self.k_max)
        self.check(rows, p_values, reps, b_max, k_max)
        return rows, p_values

    def _call_cli(self, i, reps, jobs, warmup):
        path = self.warmup_path if warmup else self.config_paths[i]
        out_dir = os.path.join(self.workdir, f"out{i}")
        argv = ["experiment", "--config", path, "--out", out_dir,
                "--repetitions", str(reps), "--jobs", str(jobs)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.m["cli"].main(argv)
        if code != 0:
            raise CheckFailed(f"lrhist experiment exited with {code}")
        runs = _read_tsv(os.path.join(out_dir, "runs.tsv"))
        rows = [(int(r["repetition"]), r["estimator"], float(r["risk"]),
                 int(r["b"]), int(r["k"])) for r in runs]
        report = _read_tsv(os.path.join(out_dir, "report.tsv"))
        p_values = [None if r["p_value_vs_standard"] == ""
                    else float(r["p_value_vs_standard"]) for r in report]
        return rows, p_values

    def check(self, rows, p_values, reps, b_max, k_max):
        expected = sorted((r, e) for r in range(reps) for e in self.wl.estimators)
        got = sorted((row[0], row[1]) for row in rows)
        if got != expected:
            raise CheckFailed(
                f"expected {len(expected)} (repetition, estimator) rows, got {got}"
            )
        for rep, est, risk, b, k in rows:
            if not math.isfinite(risk):
                raise CheckFailed(f"repetition {rep} {est}: risk {risk}")
            k_hi = 0 if est == "standard" else min(k_max, b)
            k_lo = 0 if est == "standard" else 1
            if not (1 <= b <= b_max and k_lo <= k <= k_hi):
                raise CheckFailed(f"repetition {rep} {est}: (b, k)=({b}, {k}) off grid")
        for p in p_values:
            if p is not None and not 0.0 <= p <= 1.0:
                raise CheckFailed(f"p-value {p} outside [0, 1]")

    # -- workload facts ---------------------------------------------------

    def facts(self):
        np = self.m["numpy"]
        d = self.wl.d
        if self.wl.via_cli:
            red = self.m["reduce"]
            X, _ = red.pca_reduce(self.m["fileio"].load_csv(self.csv_path(0)), 3)
            X = red.apply_unit_cube(X, red.fit_unit_cube(X))
        else:
            X = self.m["models"].sample_tucker(self.spec, N_TOTAL, [self.seed, 2])
        rng = np.random.default_rng([self.seed, 3])
        subsets = [rng.choice(N_TOTAL, size=N_TRAIN - N_VAL, replace=False)
                   for _ in range(FILL_SUBSETS)]
        fill = {}
        for b in range(1, self.b_max + 1):
            occupied = [
                np.unique(self.m["histogram"].bin_indices_flat(X[s], b, d)).size
                for s in subsets
            ]
            fill[b] = float(np.mean(occupied)) / b**d
        return {
            "workload": self.wl.name,
            "why": self.wl.why,
            "seed": self.seed,
            "call_seeds": [self.call_seed(i) for i in range(self.risk_calls)],
            "reps_per_call": self.reps_per_call,
            "jobs": self.wl.jobs,
            "grid": {"b_max": self.b_max, "k_max": self.k_max},
            "fold_fill_by_b": fill,
            "fold_fill_note": (
                f"share of bins holding a point, mean over {FILL_SUBSETS} random "
                f"{N_TRAIN - N_VAL}-point subsets (the size of a CV fit fold)"
            ),
            "largest_stack_mb": CV_FOLDS * self.b_max**d * 8 / 1e6,
            "largest_stack_note": "computed: cv_folds x b_max^d float64 entries",
        }


def _read_tsv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def _cpu_s(before, after):
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def _rusage():
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


def machine_facts(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    blas["threads_env"] = {
        k: os.environ.get(k)
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git": git_facts(),
    }


def git_facts():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None, "note": "not a git checkout"}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        return {"commit": None, "dirty": None, "note": f"git failed: {exc}"}
    return {"commit": commit, "dirty": bool(status.strip())}


# -- untraced run ----------------------------------------------------------

def setup_probe_times(wl, seed, tiny):
    """Set-up seconds of SETUP_PROBES fresh interpreters, each timing itself."""
    times = []
    for n in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", wl.name, "--seed", str(seed)]
        if tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe {n} failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def timed_run(bench, seconds):
    """Closed loop of calls for about `seconds`.

    Returns (metrics, detail, attempted repetitions, failed repetitions).
    """
    wl = bench.wl
    reps = bench.reps_per_call
    walls, cpus = [], []
    first_rows = {}
    risks = {}
    attempted = failed = 0
    t_begin = time.perf_counter()
    i = 0
    while True:
        idx = i % bench.risk_calls
        before = _rusage()
        t0 = time.perf_counter()
        try:
            rows, _ = bench.call(idx)
            if idx in first_rows and rows != first_rows[idx]:
                raise CheckFailed(f"configuration {idx} gave different results")
        except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            rows = None
        wall = time.perf_counter() - t0
        after = _rusage()
        attempted += reps
        if rows is None:
            failed += reps
        else:
            walls.append(wall)
            cpus.append(_cpu_s(before[0], after[0]) + _cpu_s(before[1], after[1]))
            if idx not in first_rows:
                first_rows[idx] = rows
                for _, est, risk, _, _ in rows:
                    risks.setdefault(est, []).append(risk)
        i += 1
        elapsed = time.perf_counter() - t_begin
        typical = statistics.median(walls) if walls else 0.0
        if i >= bench.risk_calls and elapsed + typical > seconds:
            break
    self_ru, child_ru = _rusage()
    peak_mb = self_ru.ru_maxrss / 1024.0
    if wl.jobs > 1:
        peak_mb += child_ru.ru_maxrss / 1024.0
    lowrank = [e for e in wl.estimators if e != "standard"][0]

    def neg_mean(xs):
        return -statistics.fmean(xs) if xs else None

    metrics = {
        "reps_per_s": statistics.median(reps / w for w in walls) if walls else None,
        "cpu_s_per_rep": statistics.median(c / reps for c in cpus) if cpus else None,
        "peak_rss_mb": peak_mb,
        "neg_risk_lowrank": neg_mean(risks.get(lowrank)),
        "neg_risk_standard": neg_mean(risks.get("standard")),
        "failed_frac": failed / attempted,
    }
    detail = {
        "calls": i,
        "call_walls_s": walls,
        "call_cpu_s": cpus,
        "timed_phase_s": time.perf_counter() - t_begin,
        "peak_rss_note": (
            "ru_maxrss of this process plus, when jobs > 1, the largest "
            "ru_maxrss among reaped children (the pool workers); the set-up "
            "probes run after this reading"
        ),
        "risk_reps": {e: len(v) for e, v in risks.items()},
    }
    return metrics, detail, attempted, failed


# -- traced run ------------------------------------------------------------

def traced_run(bench, out_stem):
    """Untraced then traced jobs=1 call of configuration 0.

    Returns (metrics, detail, attempted repetitions, failed repetitions).
    """
    m = bench.m
    np = m["numpy"]
    wl = bench.wl
    reps = 1
    attempted = failed = 0

    before = _rusage()
    t0 = time.perf_counter()
    ref_rows, _ = bench.call(0, reps=reps, jobs=1)
    wall_ref = time.perf_counter() - t0
    cpu_ref = _cpu_s(before[0], _rusage()[0])

    captured = []

    def mu_probe(X, k, method, opts, *rest, **kw):
        b = X.shape[1]
        if b >= min(ITERS_B_MIN, bench.b_max):
            captured.append((X[:ITERS_FOLDS].copy(), k, method, opts))
        return {"b": b, "k": k, "entries": int(X.size),
                "nnz": int(np.count_nonzero(X)), "bytes": int(X.nbytes)}

    def cv_probe(X_train, estimator, *rest, **kw):
        return {"estimator": estimator}

    tracer = tracing.Tracer({
        "decomp.mu_fit_batch": mu_probe,
        "experiment.cv_risk_table": cv_probe,
    })
    tracer.install([mod for name, mod in m.items() if name != "numpy"])
    try:
        t0 = time.perf_counter()
        rows, _ = bench.call(0, reps=reps, jobs=1)
        wall_tr = time.perf_counter() - t0
    finally:
        tracer.remove()
    tracer.write(out_stem + "-spans.json")
    attempted += reps
    if rows != ref_rows:
        print("traced results differ from the untraced reference", file=sys.stderr)
        failed += reps

    if wl.jobs > 1:
        before = _rusage()
        t0 = time.perf_counter()
        # one repetition per worker keeps every worker busy for one task
        pool_rows, _ = bench.call(0, reps=wl.jobs, jobs=wl.jobs)
        wall_pool = time.perf_counter() - t0
        busy = _cpu_s(before[1], _rusage()[1]) / (wall_pool * wl.jobs)
        attempted += wl.jobs
        if [r for r in pool_rows if r[0] < reps] != ref_rows:
            print("jobs>1 results differ from the jobs=1 reference", file=sys.stderr)
            failed += wl.jobs
    else:
        busy = cpu_ref / wall_ref

    iters = []
    for stack, k, method, opts in captured:
        fit = m["decomp"].ntd_fit if method == "tucker" else m["decomp"].ncp_fit
        for f in range(stack.shape[0]):
            iters.append(fit(stack[f], k, dataclasses.replace(opts, seed=f)).n_iters)
    cap = captured[0][3].max_iters if captured else None

    spans = tracer.spans
    selfs = tracing.self_times(spans)
    total_self = sum(selfs.values())
    roots = sum(s.end - s.start for s in spans if s.parent is None)
    if abs(total_self - roots) > 1e-6:
        raise RuntimeError(f"self times sum to {total_self}, root spans to {roots}")

    def dur(name, pred=lambda s: True):
        return sum(s.end - s.start for s in spans if s.name == name and pred(s)) / reps

    def self_of(pred):
        return sum(selfs[s.id] for s in spans if pred(s)) / reps

    mu = [s for s in spans if s.name == "decomp.mu_fit_batch"]
    metrics = {
        "decomp.mu_fit_batch.s": dur("decomp.mu_fit_batch"),
        "decomp.mu_fit_batch.calls": len(mu) / reps,
        "decomp.mu_fit_batch.s.b_le7": dur("decomp.mu_fit_batch", lambda s: s.attrs["b"] <= 7),
        "decomp.mu_fit_batch.s.b_ge8": dur("decomp.mu_fit_batch", lambda s: s.attrs["b"] >= 8),
        "decomp.mu_fit_batch.in_mb": sum(s.attrs["bytes"] for s in mu) / 1e6 / reps,
        "decomp.mu_fit_batch.fill": (
            sum(s.attrs["nnz"] for s in mu) / sum(s.attrs["entries"] for s in mu)
        ),
        "decomp.iters_mean": statistics.fmean(iters),
        "decomp.cap_hit_frac": sum(n >= cap for n in iters) / len(iters),
        "decomp.fit_prob_tensor.s": dur("decomp.fit_prob_tensor"),
        "tensor.project_simplex_rows.s": dur("tensor.project_simplex_rows"),
        "experiment.cv_risk_table.s.standard": dur(
            "experiment.cv_risk_table", lambda s: s.attrs["estimator"] == "standard"),
        "experiment.cv_risk_table.s.lowrank": dur(
            "experiment.cv_risk_table", lambda s: s.attrs["estimator"] != "standard"),
        "experiment.cv_risk_table.self_s": self_of(
            lambda s: s.name == "experiment.cv_risk_table"),
        "experiment.pool.busy_frac": busy,
        "histogram.bin_indices_flat.s": dur("histogram.bin_indices_flat"),
        "histogram.histogram_from_data.s": dur("histogram.histogram_from_data"),
        "histogram.empirical_l2_risk.s": dur("histogram.empirical_l2_risk"),
        "stats.wilcoxon_signed_rank.s": dur("stats.wilcoxon_signed_rank"),
        "trace.overhead_frac": wall_tr / wall_ref - 1.0,
        "trace.unspanned_s": (wall_tr - total_self) / reps,
        "models.sample.s": dur("models.sample_tucker") + dur("models.sample_multiview"),
        "reduce.pca_reduce.s": dur("reduce.pca_reduce"),
        "reduce.apply_unit_cube.s": dur("reduce.apply_unit_cube"),
        "fileio.load_csv.s": dur("fileio.load_csv"),
        "fileio.write_tsv.s": dur("fileio.write_tsv"),
        "cli.main.self_s": self_of(lambda s: s.name == "cli.main"),
    }
    for layer in ("decomp", "experiment", "histogram", "tensor", "models",
                  "reduce", "fileio", "cli", "stats"):
        metrics[f"layer.{layer}.self_s"] = self_of(
            lambda s, p=layer + ".": s.name.startswith(p))
    by_name = {}
    for s in spans:
        row = by_name.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += selfs[s.id]
    detail = {
        "reps": reps,
        "wall_untraced_s": wall_ref,
        "wall_traced_s": wall_tr,
        "span_self_sum_s": total_self,
        "unspanned_s": wall_tr - total_self,
        "spans": len(spans),
        "iters_fits": len(iters),
        "iters_cap": cap,
        "by_span_name": by_name,
    }
    return metrics, detail, attempted, failed


# -- entry point -----------------------------------------------------------

def run_benchmark(workload, seed, seconds, trace, tiny=False):
    """Run one benchmark invocation; returns the full result record."""
    wl = WORKLOADS[workload]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    workdir = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
    out_dir = os.path.join(RESULTS_DIR, workload)
    os.makedirs(out_dir, exist_ok=True)
    out_stem = os.path.join(
        out_dir, f"trace{int(trace)}-seed{seed}-{stamp}-{os.getpid()}")
    bench = Bench(wl, seed, workdir, tiny=tiny)
    try:
        main_setup_s = bench.setup()
        if trace:
            metrics, detail, attempted, failed = traced_run(bench, out_stem)
            units = {**PER_LAYER_UNITS, **TRACE_DETAIL_UNITS}
            reported = PER_LAYER_UNITS
        else:
            metrics, detail, attempted, failed = timed_run(bench, seconds)
            probes = setup_probe_times(wl, seed, tiny)
            metrics["setup_s"] = statistics.median(probes)
            detail["setup_probe_s"] = probes
            units = {**END_TO_END_UNITS, **QUALITY_UNITS}
            reported = END_TO_END_UNITS
        detail["main_setup_s"] = main_setup_s
        facts = {"machine": machine_facts(bench.m["numpy"]), "workload": bench.facts()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in reported.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "tiny": tiny, "facts": facts,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "detail": detail, "result": line,
    }
    with open(out_stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def _print_record(record):
    facts = record["facts"]
    mach, work = facts["machine"], facts["workload"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}")
    print(f"machine: {mach['nproc']} cpus, python {mach['python']}, numpy "
          f"{mach['numpy']}, blas {mach['blas']['name']} {mach['blas']['version']}"
          f" threads {mach['blas']['threads_env']}, git {mach['git']}")
    fill = ", ".join(f"b{b}={v:.3g}" for b, v in work["fold_fill_by_b"].items())
    print(f"fold fill: {fill}; largest stack {work['largest_stack_mb']:.3g} MB")
    for name, mv in record["metrics"].items():
        value = mv["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {mv['unit']}")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="1 repetition per call on a 3x2 grid (the benchmark's own tests)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lrhist", "__init__.py")):
        print(f"error: no lrhist package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workdir = os.path.join(WORK_DIR, f"probe-{args.workload}-{os.getpid()}")
        try:
            setup_s = Bench(WORKLOADS[args.workload], args.seed, workdir,
                            tiny=args.tiny).setup()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    record = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace), tiny=args.tiny)
    _print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
