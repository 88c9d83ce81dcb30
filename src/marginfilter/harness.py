"""Model selection, evaluation metrics and the synthetic benchmark sweeps.

A "pipeline" here bundles everything needed to go from a raw signal to a
label sequence: the filter bank, the multiclass SVM banks, the per-class
sigmoid calibrations and the transition matrix.  Methods are identified by
name: 'svm' (no filtering), 'avg_svm' (fixed moving average), 'kf_svm'
(learned filter, energy penalty) and 'skf_svm' (learned filter,
channel-selecting penalty).

Each pipeline's SVM banks take no more SMO work than the mathematics
needs.  With two classes one-vs-all is the pairwise machine in its two
label orientations, solved warm from the pair's solution, so a binary
svm/avg_svm bank is one SMO solve.  A learned-filter pipeline starts each
pair at the fit's committed solve, which is optimal at the returned
filter, so after the fit only the c one-vs-rest scorers of a c >= 3 bank
take SMO steps.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import rankdata

from .decoding import TransitionMatrix, decode_offline, decode_online, estimate_transitions
from .filter_learning import LearnerConfig, RegularizerSpec, committed_bank, fit_shared_filter
from .signals import (
    ToyParams,
    apply_filter,
    as_labels,
    as_signal,
    generate_toy,
    make_average_filter,
    make_delta_filter,
)
from .svm import (
    KernelParams,
    MulticlassModel,
    PlattParams,
    bank_scores,
    platt_fit,
    train_multiclass,
)

METHODS = ("svm", "avg_svm", "kf_svm", "skf_svm")
DECODE_MODES = ("online", "viterbi")

# default sweep axes; chosen to bracket the benchmark operating points and
# overridable from the CLI
DEFAULT_AXIS_VALUES = {
    "noise": (0.25, 0.5, 1.0, 2.0),
    "size": (2, 4, 8, 16),
    "lag": (0, 2, 5, 10),
    "f": (1, 5, 11, 21),
    "sigma_k": (0.5, 1.0, 2.0, 4.0, 8.0),
}

# seeds for the "run ten times" protocol
DEFAULT_SEEDS = tuple(range(10))


def error_rate(pred, truth) -> float:
    """Fraction of mismatched labels."""
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if len(pred) != len(truth):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(truth)}")
    return float(np.mean(pred != truth))


# ---------------------------------------------------------------------------
# training pipelines
# ---------------------------------------------------------------------------

@dataclass
class Pipeline:
    """A trained end-to-end labeling pipeline."""

    method: str
    filter: object  # FilterBank
    model: MulticlassModel
    transitions: TransitionMatrix
    platt: list[PlattParams] | None = None
    history: list[float] = field(default_factory=list)
    filter_norms: list[float] = field(default_factory=list)

    def filtered(self, X) -> np.ndarray:
        return apply_filter(as_signal(X), self.filter)

    def predict(self, X, decode: str = "online") -> np.ndarray:
        Xf = self.filtered(X)
        if decode == "online":
            return decode_online(self.model, Xf)
        if decode == "viterbi":
            if self.platt is None:
                raise ValueError("pipeline is not calibrated; fit Platt params first")
            return decode_offline(self.model, self.platt, self.transitions, Xf)
        raise ValueError(f"unknown decode mode {decode!r}")


def build_learner_config(method: str, C: float, lam: float, sigma_k: float,
                         f: int, n0: int, **overrides) -> LearnerConfig:
    reg_kind = "mixed_norm" if method == "skf_svm" else "frobenius"
    return LearnerConfig(
        C=C, kernel=KernelParams(sigma_k),
        reg=RegularizerSpec(reg_kind, lam),
        f=f, n0=n0, **overrides)


def train_pipeline(X, y, method: str, *, C: float, sigma_k: float,
                   lam: float = 0.0, f: int = 1, n0: int = 0,
                   learner_kwargs: dict | None = None) -> Pipeline:
    """Train one method end to end on labeled data (any class count)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    X = as_signal(X)
    y = as_labels(y, X.shape[0])
    kw = dict(learner_kwargs or {})
    history: list[float] = []
    filter_norms: list[float] = []

    if method in ("svm", "avg_svm"):
        bank = make_delta_filter(X.shape[1]) if method == "svm" \
            else make_average_filter(f, n0, X.shape[1])
        svm_tol = kw.get("svm_tol", 1e-3)
        mc = train_multiclass(apply_filter(X, bank), y, C, KernelParams(sigma_k),
                              tol=svm_tol)
    else:
        cfg = build_learner_config(method, C, lam, sigma_k, f, n0, **kw)
        fit = fit_shared_filter(X, y, cfg)
        bank = fit.bank
        history = fit.history
        filter_norms = fit.filter_norms
        mc = committed_bank(fit, X, y, cfg)

    classes = mc.classes
    y_idx = np.searchsorted(classes, y) + 1
    transitions = estimate_transitions(y_idx, len(classes))
    return Pipeline(method=method, filter=bank, model=mc,
                    transitions=transitions, history=history,
                    filter_norms=filter_norms)


def calibrate_pipeline(pipe: Pipeline, Xval, yval) -> Pipeline:
    """Fit per-class sigmoid calibration on held-out validation scores."""
    Xf = pipe.filtered(Xval)
    yval = as_labels(yval)
    scores = bank_scores(pipe.model.one_vs_all, Xf)
    platt = []
    for k, cls in enumerate(pipe.model.classes):
        labels = np.where(yval == cls, 1, -1)
        platt.append(platt_fit(scores[:, k], labels))
    pipe.platt = platt
    return pipe


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter grid for one method.

    Selection minimizes validation error under the given decode mode;
    exact ties prefer the more regularized model (larger lambda, then
    smaller C, then larger sigma_k, then larger f, larger n0).
    """

    method: str
    C: tuple = (1.0,)
    lam: tuple = (0.0,)
    sigma_k: tuple = (1.0,)
    f: tuple = (1,)
    n0: tuple = (0,)
    decode: str = "online"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.decode not in DECODE_MODES:
            raise ValueError(f"unknown decode mode {self.decode!r}")
        for name in ("C", "lam", "sigma_k", "f", "n0"):
            vals = tuple(getattr(self, name))
            if not vals:
                raise ValueError(f"grid axis {name} is empty")
            object.__setattr__(self, name, vals)
        if any(c <= 0 for c in self.C) or any(s <= 0 for s in self.sigma_k):
            raise ValueError("C and sigma_k must be > 0")
        if any(l < 0 for l in self.lam):
            raise ValueError("lambda must be >= 0")

    def cells(self) -> list[dict]:
        """Unique hyperparameter combinations, irrelevant axes collapsed."""
        lam = (0.0,) if self.method in ("svm", "avg_svm") else self.lam
        f = (1,) if self.method == "svm" else self.f
        n0 = (0,) if self.method == "svm" else self.n0
        seen, out = set(), []
        for C, l, s, fi, ni in itertools.product(self.C, lam, self.sigma_k, f, n0):
            if ni > fi - 1:  # delay outside the filter support
                continue
            key = (C, l, s, fi, ni)
            if key not in seen:
                seen.add(key)
                out.append(dict(C=C, lam=l, sigma_k=s, f=fi, n0=ni))
        if not out:
            raise ValueError("grid contains no valid cells (check f/n0 pairs)")
        return out


@dataclass
class GridSearchResult:
    method: str
    best: dict
    best_error: float
    table: list[tuple[dict, float]]
    failures: list[tuple[dict, str]] = field(default_factory=list)
    pipeline: Pipeline | None = None


def grid_search(train, validation, grid: GridSpec, *,
                learner_kwargs: dict | None = None,
                keep_pipeline: bool = False) -> GridSearchResult:
    """Exhaustive validation search over the grid.

    ``train`` and ``validation`` are (X, y) pairs.  Cells that fail with a
    numerical error (ValueError, including LinAlgError, or
    ArithmeticError) are recorded and skipped; if every cell fails an
    error is raised.  Any other exception propagates.
    """
    Xtr, ytr = train
    Xval, yval = validation
    table, failures = [], []
    pipelines = {}
    for idx, cell in enumerate(grid.cells()):
        try:
            pipe = train_pipeline(Xtr, ytr, grid.method, learner_kwargs=learner_kwargs,
                                  **cell)
            if grid.decode == "viterbi":
                calibrate_pipeline(pipe, Xval, yval)
            err = error_rate(pipe.predict(Xval, decode=grid.decode), yval)
        except (ValueError, ArithmeticError) as exc:  # numerical failures are data
            failures.append((cell, f"{type(exc).__name__}: {exc}"))
            continue
        table.append((idx, cell, err))
        if keep_pipeline:
            pipelines[idx] = pipe
    if not table:
        raise RuntimeError(f"every grid cell failed: {failures}")

    def rank(entry):
        _, cell, err = entry
        return (err, -cell["lam"], cell["C"], -cell["sigma_k"], -cell["f"], -cell["n0"])

    best_idx, best_cell, best_err = min(table, key=rank)
    return GridSearchResult(
        method=grid.method, best=dict(best_cell), best_error=best_err,
        table=[(cell, err) for _, cell, err in table], failures=failures,
        pipeline=pipelines.get(best_idx))


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test
# ---------------------------------------------------------------------------

EXACT_ENUMERATION_LIMIT = 12


def wilcoxon_signed_rank(errs_a, errs_b) -> float:
    """Two-sided Wilcoxon signed-rank p-value for paired samples.

    Zero differences are dropped; ties get average ranks.  Up to 12
    non-zero differences the null distribution is enumerated exactly over
    all sign assignments; above that a tie-corrected normal approximation
    is used.  All differences zero gives p = 1.
    """
    a = np.asarray(errs_a, dtype=np.float64).ravel()
    b = np.asarray(errs_b, dtype=np.float64).ravel()
    if len(a) != len(b):
        raise ValueError("paired samples must have equal length")
    if len(a) < 5:
        raise ValueError("need at least 5 pairs")
    diffs = a - b
    diffs = diffs[diffs != 0.0]
    m = len(diffs)
    if m == 0:
        return 1.0
    ranks = rankdata(np.abs(diffs))
    w_pos = float(ranks[diffs > 0].sum())

    if m <= EXACT_ENUMERATION_LIMIT:
        totals = np.zeros(1)
        for r in ranks:
            totals = np.concatenate([totals, totals + r])
        p_le = np.mean(totals <= w_pos + 1e-12)
        p_ge = np.mean(totals >= w_pos - 1e-12)
        return float(min(1.0, 2.0 * min(p_le, p_ge)))

    mu = m * (m + 1) / 4.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = np.sum(tie_counts**3 - tie_counts) / 48.0
    sigma = math.sqrt(m * (m + 1) * (2 * m + 1) / 24.0 - tie_term)
    z = max(0.0, abs(w_pos - mu) - 0.5) / sigma  # continuity-corrected
    p = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(z / math.sqrt(2.0))))
    return float(min(1.0, p))


# ---------------------------------------------------------------------------
# the synthetic benchmark
# ---------------------------------------------------------------------------

def default_grid(method: str, decode: str = "online") -> GridSpec:
    """Benchmark validation grids; tuned to be small enough to run in
    minutes while covering the useful regularization range per method."""
    if method == "svm":
        return GridSpec(method, C=(1.0, 10.0, 100.0), decode=decode)
    if method == "avg_svm":
        return GridSpec(method, C=(1.0, 10.0, 100.0), f=(11,), n0=(6,), decode=decode)
    if method == "kf_svm":
        return GridSpec(method, C=(10.0, 100.0), lam=(0.1, 1.0, 10.0),
                        f=(11,), n0=(6,), decode=decode)
    if method == "skf_svm":
        return GridSpec(method, C=(100.0,), lam=(2.0, 8.0, 32.0),
                        f=(11,), n0=(6,), decode=decode)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Generation and selection settings for one benchmark run."""

    base: ToyParams = ToyParams(n=1000, sigma_n=1.0, lag=5, nbtot=2)
    n_train: int = 1000
    n_val: int = 1000
    n_test: int = 10000
    seeds: tuple = DEFAULT_SEEDS
    learner_kwargs: dict | None = None


def toy_split(params: ToyParams, seed: int, n_train: int, n_val: int, n_test: int):
    """Train/validation/test split for one benchmark seed.

    One long signal is generated and sliced so the three sets share the
    same per-channel lag realization: the lag models a fixed acquisition
    property of each channel, which is exactly what the learned filter is
    supposed to compensate.
    """
    X, y = generate_toy(replace(params, n=n_train + n_val + n_test, seed=seed))
    tr = (X[:n_train], y[:n_train])
    va = (X[n_train : n_train + n_val], y[n_train : n_train + n_val])
    te = (X[n_train + n_val :], y[n_train + n_val :])
    return tr, va, te


def evaluate_method_on_seed(params: ToyParams, seed: int, method: str,
                            grid: GridSpec, *, n_train: int = 1000,
                            n_val: int = 1000, n_test: int = 10000,
                            learner_kwargs: dict | None = None) -> dict:
    """Grid-search one method on one seed; test error for both decoders.

    Returns a dict with per-decode test errors, the selected cell and the
    validation error.
    """
    (Xtr, ytr), (Xval, yval), (Xte, yte) = toy_split(
        params, seed, n_train, n_val, n_test)
    gs = grid_search((Xtr, ytr), (Xval, yval), grid,
                     learner_kwargs=learner_kwargs, keep_pipeline=True)
    pipe = gs.pipeline
    if pipe is None:
        pipe = train_pipeline(Xtr, ytr, method, learner_kwargs=learner_kwargs,
                              **gs.best)
    calibrate_pipeline(pipe, Xval, yval)
    online = error_rate(pipe.predict(Xte, decode="online"), yte)
    vit = error_rate(pipe.predict(Xte, decode="viterbi"), yte)
    return {
        "method": method, "seed": seed, "cell": gs.best,
        "val_error": gs.best_error,
        "online": online, "viterbi": vit,
    }


def run_benchmark(config: ExperimentConfig, methods, grids: dict | None = None):
    """Run the multi-seed benchmark for several methods.

    Returns {method: {"online": errors, "viterbi": errors}} with one test
    error per seed in each array.
    """
    grids = grids or {}
    out = {m: {"online": [], "viterbi": []} for m in methods}
    for seed in config.seeds:
        for method in methods:
            r = evaluate_method_on_seed(
                config.base, seed, method, grids.get(method, default_grid(method)),
                n_train=config.n_train, n_val=config.n_val, n_test=config.n_test,
                learner_kwargs=config.learner_kwargs)
            out[method]["online"].append(r["online"])
            out[method]["viterbi"].append(r["viterbi"])
    return {m: {k: np.array(v) for k, v in d.items()} for m, d in out.items()}


def _axis_apply(axis: str, value, params: ToyParams, grid: GridSpec):
    """Bind one sweep-axis value into the generator params or the grid."""
    if axis == "noise":
        return replace(params, sigma_n=float(value)), grid
    if axis == "size":
        return replace(params, nbtot=int(value)), grid
    if axis == "lag":
        return replace(params, lag=int(value)), grid
    if axis == "f":
        f = int(value)
        n0 = tuple(min(n, f - 1) for n in grid.n0)
        return params, replace(grid, f=(f,), n0=n0)
    if axis == "sigma_k":
        return params, replace(grid, sigma_k=(float(value),))
    raise ValueError(f"unknown sweep axis {axis!r}")


def _sweep_task(args):
    axis, value, seed, method, params, grid, sizes, learner_kwargs = args
    params, grid = _axis_apply(axis, value, params, grid)
    try:
        res = evaluate_method_on_seed(
            params, seed, method, grid,
            n_train=sizes[0], n_val=sizes[1], n_test=sizes[2],
            learner_kwargs=learner_kwargs)
    except (ValueError, ArithmeticError) as exc:  # recorded, not fatal
        return (value, method, seed), None, f"{type(exc).__name__}: {exc}"
    return (value, method, seed), res, None


@dataclass
class SweepResult:
    """Per-seed test errors over one sweep axis, plus aggregate means."""

    axis: str
    rows: list[dict]
    failures: list[tuple]
    seeds: tuple

    def mean_error(self, value, method: str, decode: str) -> float:
        errs = [r["test_error"] for r in self.rows
                if r["axis_value"] == value and r["method"] == method
                and r["decode"] == decode]
        if not errs:
            raise KeyError(f"no rows for ({value}, {method}, {decode})")
        return float(np.mean(errs))

    def seed_errors(self, value, method: str, decode: str) -> np.ndarray:
        rows = [r for r in self.rows
                if r["axis_value"] == value and r["method"] == method
                and r["decode"] == decode]
        rows.sort(key=lambda r: r["seed"])
        return np.array([r["test_error"] for r in rows])


def max_workers_from_env() -> int:
    """Parallelism cap from MARGIN_FILTER_THREADS (default 1), at most the
    number of CPUs."""
    try:
        requested = int(os.environ.get("MARGIN_FILTER_THREADS", "1"))
    except ValueError:
        return 1
    return max(1, min(requested, os.cpu_count() or 1))


def run_toy_sweep(axis: str, values, methods, *, seeds=DEFAULT_SEEDS,
                  base: ToyParams | None = None, grids: dict | None = None,
                  n_train: int = 1000, n_val: int = 1000, n_test: int = 10000,
                  learner_kwargs: dict | None = None,
                  max_workers: int | None = None) -> SweepResult:
    """Benchmark the given methods along one generator or model axis.

    For each (axis value, seed, method): draw train/validation/test sets,
    select hyperparameters on validation, and record the test error of
    both the online and the Viterbi decoder.  Deterministic given seeds;
    tasks are independent and may run in parallel (MARGIN_FILTER_THREADS
    or ``max_workers``), with results merged in a fixed order.
    """
    if axis not in DEFAULT_AXIS_VALUES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    base = base or ToyParams(n=n_train, sigma_n=1.0, lag=5, nbtot=2)
    grids = grids or {}
    sizes = (n_train, n_val, n_test)
    tasks = [
        (axis, value, seed, method, base,
         grids.get(method, default_grid(method)), sizes, learner_kwargs)
        for value in values for method in methods for seed in seeds
    ]
    workers = max_workers if max_workers is not None else max_workers_from_env()
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_task, tasks))
    else:
        outcomes = [_sweep_task(t) for t in tasks]

    rows, failures = [], []
    for (value, method, seed), res, err in outcomes:
        if err is not None:
            failures.append(((value, method, seed), err))
            continue
        for decode in DECODE_MODES:
            rows.append({
                "axis_value": value, "method": method, "decode": decode,
                "seed": seed, "test_error": res[decode],
            })
    return SweepResult(axis=axis, rows=rows, failures=failures, seeds=tuple(seeds))


def sweep_rows_csv(result: SweepResult) -> str:
    """Stable-ordered per-seed CSV: axis_value,method,decode,seed,test_error."""
    lines = ["axis_value,method,decode,seed,test_error"]
    for r in sorted(result.rows,
                    key=lambda r: (str(r["axis_value"]), r["method"],
                                   r["decode"], r["seed"])):
        lines.append(f'{r["axis_value"]!r},{r["method"]},{r["decode"]},'
                     f'{r["seed"]},{r["test_error"]!r}')
    return "\n".join(lines) + "\n"


def sweep_summary_csv(result: SweepResult) -> str:
    """Stable-ordered mean-error CSV: axis_value,method,decode,mean_test_error."""
    keys = sorted({(str(r["axis_value"]), r["axis_value"], r["method"], r["decode"])
                   for r in result.rows})
    lines = ["axis_value,method,decode,mean_test_error"]
    for _, value, method, decode in keys:
        lines.append(f"{value!r},{method},{decode},"
                     f"{result.mean_error(value, method, decode)!r}")
    return "\n".join(lines) + "\n"
