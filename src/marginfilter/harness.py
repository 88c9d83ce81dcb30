"""Model selection, evaluation metrics and the synthetic benchmark sweeps.

A "pipeline" here bundles everything needed to go from a raw signal to a
label sequence: the filter bank, the multiclass SVM banks, the per-class
sigmoid calibrations and the transition matrix.  Methods are identified by
name: 'svm' (no filtering), 'avg_svm' (fixed moving average), 'kf_svm'
(learned filter, energy penalty) and 'skf_svm' (learned filter,
channel-selecting penalty).

Every method trains by one path (``train_pipeline``): a filter fit and
the banks at its filter (``fit_shared_filter``, ``committed_bank``).  A
fixed filter is a fit of zero steps at the average filter, svm's of one
tap (the identity).  The banks take no more SMO work than the
mathematics needs: the pairwise bank is the fit's committed solves, and
with two classes one-vs-all is the pair in its two label orientations,
solved warm from its solution and its running product, so a binary
svm/avg_svm pipeline is one SMO solve and its banks compute no kernel
entry.  After the fit only the c one-vs-rest scorers of a c >= 3 bank
take SMO steps.

A pipeline labels a signal by both decoders from one test kernel
(``Pipeline``): a calibrated pipeline scores its pairwise and one-vs-all
banks together and keeps the last signal's scores, so labeling a test set
online and then by Viterbi, as ``evaluate_method_on_seed`` does, scores
it once.

The synthetic experiments have one runner, ``run_toy_sweep``: per axis
value, method and seed it draws a split, selects hyperparameters on
validation and records the test error of both decoders.  The headline
table is its one-point noise sweep at the base parameters.

A grid search fits a learned filter's cells as regularization paths:
the cells that share C, sigma_k, f and n0 form one chain, run from the
largest lambda down, each cell starting from whichever of the previous
cell's filter and the average filter has the lower objective, at the
solves already committed there, so it solves nothing before its first
trial step (``grid_search``).  A fixed-filter grid runs as paths in C:
the cells that share sigma_k, f and n0 form one chain, run from the
largest C down, each cell's solves starting from the previous cell's
alphas and running products scaled by the ratio of the Cs, so the
default svm and avg_svm grids are one task each, run in the calling
process.  Both kinds of chain hand each cell the previous cell's
pipeline as its ``start``.  Grid chains and sweep tasks are independent, so both run
through one process map: at most min(#tasks, usable CPUs,
MARGIN_FILTER_THREADS) worker processes, opened and closed inside the
call, with results merged in task order, so a parallel run returns the
same bits as a serial one.
MARGIN_FILTER_THREADS is the one worker setting: it defaults to the
usable CPU count and is capped there, and by the same rule
(``svm._worker_count``) it caps the threads that score a bank in
``svm.joint_bank_scores``.  A task already running in a worker runs its
own inner map and its scoring serially, so a sweep parallelizes over its
tasks and starts no grandchildren.  The workers of one map
share one kernel-cache budget, each keeping at most
``svm.KERNEL_CACHE_BYTES // workers`` of rows; a smaller cache only
computes rows again, the same doubles, so the results keep their bits.
Every worker runs its BLAS on one thread, as the calling process does
inside a fit, a bank or a scoring call (``blas``), so the workers do not
oversubscribe the cores and the results do not depend on the BLAS
thread count either.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import multiprocessing
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import blas, svm
from .decoding import TransitionMatrix, decode_offline, estimate_transitions
from .filter_learning import (
    FilterFit,
    LearnerConfig,
    RegularizerSpec,
    committed_bank,
    fit_shared_filter,
)
from .signals import ToyParams, apply_filter, as_labels, as_signal, generate_toy
from .svm import (
    KernelParams,
    MulticlassModel,
    PlattParams,
    _worker_count,
    bank_scores,
    joint_bank_scores,
    oao_vote,
    platt_fit,
)

METHODS = ("svm", "avg_svm", "kf_svm", "skf_svm")
FIXED_FILTER_METHODS = ("svm", "avg_svm")
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
    """A trained end-to-end labeling pipeline.

    ``fit`` is the filter fit the pipeline was trained by, of zero steps
    for a fixed filter; it is None only for a pipeline loaded from a file.

    ``predict`` scores a signal once for both decoders: one
    ``svm.joint_bank_scores`` call over the pairwise bank and, when the
    pipeline is calibrated (``platt`` set), the one-vs-all bank too.  That
    is one test kernel against the union of both banks' support rows,
    which is the one-vs-all set when every pairwise support vector is also
    a one-vs-all one (always so with two classes); each bank then takes
    its own product with it.  Voting reads the pairwise scores, Viterbi
    the one-vs-all scores.  An uncalibrated pipeline cannot decode by
    Viterbi and scores the pairwise bank alone.

    The pipeline keeps the scores of the last signal it scored, a
    one-entry memo keyed by a digest of the signal's float64 bytes, its
    shape, and the ``model`` and ``filter`` objects the scores came from.
    A second ``predict`` of the same signal, by either decoder, reads
    them.  Any other signal, the same array changed in place, a
    reassigned ``model`` or ``filter``, or a pipeline calibrated since the
    memo was made, scores again and replaces the memo; a model or filter
    changed in place is not noticed.  A caller that decodes a calibrated
    pipeline one way only pays for the other bank: its product, and the
    kernel columns of support rows only it has.  Scoring a calibrated
    3-class model's 60000 samples for both banks took 0.126 s against
    0.101 s for the pairwise bank alone (2 cores).
    """

    method: str
    filter: object  # FilterBank
    model: MulticlassModel
    transitions: TransitionMatrix
    platt: list[PlattParams] | None = None
    fit: FilterFit | None = None
    # (key, model, filter, pairwise scores, one-vs-all scores or None)
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def history(self) -> list[float]:
        """The fit's objective per accepted step (empty without a fit)."""
        return self.fit.history if self.fit is not None else []

    @property
    def filter_norms(self) -> list[float]:
        """The fit's filter norm per accepted step (empty without a fit)."""
        return self.fit.filter_norms if self.fit is not None else []

    def filtered(self, X) -> np.ndarray:
        return apply_filter(as_signal(X), self.filter)

    def _scores(self, X) -> tuple[np.ndarray, np.ndarray | None]:
        """The pairwise and, when calibrated, the one-vs-all bank scores
        of signal ``X`` (else None), read from the memo where it holds them."""
        X = as_signal(X)
        key = (hashlib.blake2b(np.ascontiguousarray(X)).digest(), X.shape)
        calibrated = self.platt is not None
        memo = self._memo
        if (memo is not None and memo[0] == key and memo[1] is self.model
                and memo[2] is self.filter and (memo[4] is not None or not calibrated)):
            return memo[3], memo[4]
        banks = [self.model.pairwise.values()]
        if calibrated:
            banks.append(self.model.one_vs_all)
        pair_scores, *rest = joint_bank_scores(banks, apply_filter(X, self.filter))
        ova_scores = rest[0] if rest else None
        self._memo = (key, self.model, self.filter, pair_scores, ova_scores)
        return pair_scores, ova_scores

    def predict(self, X, decode: str = "online") -> np.ndarray:
        if decode not in DECODE_MODES:
            raise ValueError(f"unknown decode mode {decode!r}")
        if decode == "viterbi" and self.platt is None:
            raise ValueError("pipeline is not calibrated; fit Platt params first")
        pair_scores, ova_scores = self._scores(X)
        if decode == "online":
            return oao_vote(self.model, scores=pair_scores)
        return decode_offline(self.model, self.platt, self.transitions, scores=ova_scores)


def train_pipeline(X, y, method: str, *, C: float, sigma_k: float,
                   lam: float = 0.0, f: int = 1, n0: int = 0,
                   learner_kwargs: dict | None = None,
                   start: Pipeline | None = None) -> Pipeline:
    """Train one method end to end on labeled data (any class count).

    Every method is one filter fit (``fit_shared_filter``) and the banks
    at its filter (``committed_bank``).  A learned filter descends from
    the average filter; a fixed filter is a fit of zero steps there,
    without a penalty, whatever ``lam`` and ``max_cg_iters`` say, at f = 1
    and n0 = 0 for svm (one coefficient of 1.0: the identity).  Its fit's
    history is the one objective value.

    ``start``, the pipeline of the same method trained here on the same
    samples, labels, sigma_k, f and n0 at another C or lambda (the
    previous cell of a grid chain), starts each solve from its
    counterpart's alpha and running product times C / C_start, and a
    learned filter at the lower of the start's filter and the average
    filter, with the solves committed there (``fit_shared_filter``).  At
    another C a solve ends at the optimum within the solver's tolerance,
    not at the cold solve's bits.  Any other start is a ValueError.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if start is not None and not (isinstance(start, Pipeline) and start.method == method
                                  and start.fit is not None):
        raise ValueError(f"{method} takes a start only from a {method} pipeline trained "
                         "on the same samples, labels, sigma_k, f and n0")
    X = as_signal(X)
    y = as_labels(y, X.shape[0])
    if method == "svm":
        f, n0 = 1, 0
    reg = RegularizerSpec("mixed_norm" if method == "skf_svm" else "frobenius", lam)
    cfg = LearnerConfig(C=C, kernel=KernelParams(sigma_k), reg=reg, f=f, n0=n0,
                        **(learner_kwargs or {}))
    if method in FIXED_FILTER_METHODS:
        cfg = replace(cfg, reg=RegularizerSpec(), max_cg_iters=0)
    fit = fit_shared_filter(X, y, cfg, start=None if start is None else start.fit)
    mc = committed_bank(fit, y, cfg, start=None if start is None else start.model)
    transitions = estimate_transitions(np.searchsorted(mc.classes, y) + 1, len(mc.classes))
    return Pipeline(method=method, filter=fit.bank, model=mc,
                    transitions=transitions, fit=fit)


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
            kind, what = ((numbers.Integral, "integers") if name in ("f", "n0")
                          else (numbers.Real, "numbers"))
            bad = [v for v in vals if isinstance(v, bool) or not isinstance(v, kind)]
            if bad:
                raise ValueError(f"grid axis {name} takes {what}, got {bad}")
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"grid axis {name} must be finite")
            object.__setattr__(self, name, vals)
        if any(c <= 0 for c in self.C) or any(s <= 0 for s in self.sigma_k):
            raise ValueError("C and sigma_k must be > 0")
        if any(f < 1 for f in self.f) or any(n < 0 for n in self.n0):
            raise ValueError("f must be >= 1 and n0 >= 0")
        if any(l < 0 for l in self.lam):
            raise ValueError("lambda must be >= 0")

    def cells(self) -> list[dict]:
        """Unique hyperparameter combinations, irrelevant axes collapsed."""
        lam = (0.0,) if self.method in FIXED_FILTER_METHODS else self.lam
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


def _grid_chains(cells: list[dict], method: str) -> list[list[int]]:
    """The grid's cells as regularization paths, in order of first
    appearance, each ordered by its path's parameter, largest first: for a
    learned filter the indices of the cells that share C, sigma_k, f and
    n0, by lambda; for a fixed filter, whose grid has one lambda, those
    that share sigma_k, f and n0, by C."""
    along = "C" if method in FIXED_FILTER_METHODS else "lam"
    chains: dict[tuple, list[int]] = {}
    for idx, cell in enumerate(cells):
        key = tuple(cell[k] for k in ("C", "sigma_k", "f", "n0") if k != along)
        chains.setdefault(key, []).append(idx)
    return [sorted(chain, key=lambda idx: cells[idx][along], reverse=True)
            for chain in chains.values()]


def _rank(cell: dict, err: float) -> tuple:
    """Selection order: validation error, then the more regularized cell
    (larger lambda, smaller C, larger sigma_k, f and n0).  A grid's cells
    are distinct, so no two of its ranks tie."""
    return (err, -cell["lam"], cell["C"], -cell["sigma_k"], -cell["f"], -cell["n0"])


def _grid_chain(task):
    """Train and validate one chain of grid cells, in the chain's order.

    Each cell starts from the previous cell's pipeline (``train_pipeline``):
    its alphas and running products scaled to the cell's C, and for a
    learned filter its filter or the average filter, whichever has the
    lower objective at the cell's lambda, with the solves and the step
    memory committed there.  The first cell, and a cell after one that
    failed numerically, solve cold at the average filter.  Returns one
    (error, pipeline or None, None), or (None, None, reason) for a
    numerical failure, per cell.  A pipeline comes back only when it is
    kept, and only for the chain's best-ranked cell: the grid's best cell
    is the best of its chains' best.
    """
    train, validation, method, cells, decode, learner_kwargs, keep = task
    outcomes, pipes, start = [], {}, None
    for k, cell in enumerate(cells):
        try:
            pipe = train_pipeline(*train, method, learner_kwargs=learner_kwargs,
                                  start=start, **cell)
            if decode == "viterbi":
                calibrate_pipeline(pipe, *validation)
            err = error_rate(pipe.predict(validation[0], decode=decode), validation[1])
        except (ValueError, ArithmeticError) as exc:  # numerical failures are data
            outcomes.append((None, None, f"{type(exc).__name__}: {exc}"))
            start = None
            continue
        outcomes.append((err, None, None))
        if keep:
            pipes[k] = pipe
        start = pipe
    if pipes:
        k = min(pipes, key=lambda k: _rank(cells[k], outcomes[k][0]))
        outcomes[k] = (outcomes[k][0], pipes[k], None)
    return outcomes


def grid_search(train, validation, grid: GridSpec, *,
                learner_kwargs: dict | None = None,
                keep_pipeline: bool = False) -> GridSearchResult:
    """Exhaustive validation search over the grid.

    ``train`` and ``validation`` are (X, y) pairs.  The cells of a learned
    filter that differ only in lambda form one chain, a regularization
    path fitted from the largest lambda down, each cell warm from the
    previous one's fit (Friedman, Hastie & Tibshirani, J. Stat. Softw.
    2010; for the non-convex filter objective a heuristic: a continued
    cell may end in another local optimum than a fit from the average
    filter).  A continued cell begins at the previous cell's filter or
    at the average filter, whichever has the lower objective at its
    lambda, so a path does not stay where a large lambda collapsed the
    filter to about 0; both objectives come from solves already
    committed, and a cell that goes on from the previous filter keeps its
    L-BFGS memory.  The cells of a fixed filter that differ only in
    C form one chain, a path in C (Hastie, Rosset, Tibshirani & Zhu,
    JMLR 2004) solved from the largest C down, each cell's solves
    starting from the previous cell's alphas and running products times
    C'/C; each cell ends at its optimum within the solver's tolerance.
    So only a chain's first cell is the fit ``train_pipeline`` gives for
    that cell, bit for bit; a fixed filter's later cells match it within
    the solver's tolerance, a learned filter's may end elsewhere.  The chains run
    through the process map (see the module docstring); the table, the
    failures and the tie-break keep the grid's cell order, whatever the
    worker count.
    Cells that fail with a numerical error (ValueError, including
    LinAlgError, or ArithmeticError) are recorded and skipped; if every
    cell fails an error is raised.  Any other exception propagates, and
    so does a ValueError of ``learner_kwargs``, which no cell could use.
    """
    LearnerConfig(**(learner_kwargs or {}))  # the caller's error, not a cell's
    Xtr, ytr = train
    Xval, yval = validation
    cells = grid.cells()
    chains = _grid_chains(cells, grid.method)
    outcomes = [None] * len(cells)
    for chain, results in zip(chains, _parallel_map(_grid_chain, [
            ((Xtr, ytr), (Xval, yval), grid.method, [cells[idx] for idx in chain],
             grid.decode, learner_kwargs, keep_pipeline)
            for chain in chains])):
        for idx, outcome in zip(chain, results):
            outcomes[idx] = outcome
    table, failures = [], []
    for idx, (cell, (err, _, reason)) in enumerate(zip(cells, outcomes)):
        if reason is not None:
            failures.append((cell, reason))
            continue
        table.append((idx, cell, err))
    if not table:
        raise RuntimeError(f"every grid cell failed: {failures}")

    best_idx, best_cell, best_err = min(table, key=lambda entry: _rank(*entry[1:]))
    return GridSearchResult(
        method=grid.method, best=dict(best_cell), best_error=best_err,
        table=[(cell, err) for _, cell, err in table], failures=failures,
        pipeline=outcomes[best_idx][1])


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test
# ---------------------------------------------------------------------------

EXACT_ENUMERATION_LIMIT = 12


def _average_ranks(values) -> np.ndarray:
    """Ranks 1..m of ``values``, each run of ties given the mean of the
    ranks it spans (scipy.stats.rankdata's default): exact half-integers."""
    values = np.asarray(values, dtype=np.float64).ravel()
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def wilcoxon_signed_rank(errs_a, errs_b) -> float:
    """Two-sided Wilcoxon signed-rank p-value for paired samples.

    Zero differences are dropped; ties get average ranks.  Up to 12
    non-zero differences the null distribution is enumerated exactly over
    all sign assignments; above that a tie-corrected normal approximation
    is used.  All differences zero gives p = 1.  A NaN or infinite error
    is rejected: it has no rank.
    """
    a = np.asarray(errs_a, dtype=np.float64).ravel()
    b = np.asarray(errs_b, dtype=np.float64).ravel()
    if len(a) != len(b):
        raise ValueError("paired samples must have equal length")
    if len(a) < 5:
        raise ValueError("need at least 5 pairs")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("paired errors must be finite")
    diffs = a - b
    diffs = diffs[diffs != 0.0]
    m = len(diffs)
    if m == 0:
        return 1.0
    ranks = _average_ranks(np.abs(diffs))
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
    calibrate_pipeline(pipe, Xval, yval)
    online = error_rate(pipe.predict(Xte, decode="online"), yte)
    vit = error_rate(pipe.predict(Xte, decode="viterbi"), yte)
    return {
        "method": method, "seed": seed, "cell": gs.best,
        "val_error": gs.best_error,
        "online": online, "viterbi": vit,
    }


# sweep axes whose values are counts
INTEGER_AXES = ("size", "lag", "f")


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

    def errors(self, value, method: str, decode: str) -> np.ndarray:
        """Test errors of one (value, method, decode), one per seed in the
        order of the sweep's seeds; a failed task has none."""
        errs = [r["test_error"] for r in self.rows
                if r["axis_value"] == value and r["method"] == method
                and r["decode"] == decode]
        if not errs:
            raise KeyError(f"no rows for ({value}, {method}, {decode})")
        return np.array(errs)

    def mean_error(self, value, method: str, decode: str) -> float:
        return float(np.mean(self.errors(value, method, decode)))


def _init_worker(workers: int):
    """Initializer of a process map's workers: each keeps 1/workers of
    the kernel-cache budget and runs its BLAS on one thread
    (``blas``), so the workers do not oversubscribe the cores."""
    svm.KERNEL_CACHE_BYTES //= workers
    blas.set_threads(1)


def _parallel_map(fn, tasks) -> list:
    """``[fn(t) for t in tasks]`` on up to min(len(tasks),
    MARGIN_FILTER_THREADS, usable CPUs) worker processes.

    Runs in the calling process when that comes to one worker, or when the
    caller is itself a worker process.  Results are in task order.  An
    exception from ``fn`` propagates; the pool is shut down, pending tasks
    cancelled, before this returns or raises, so no worker outlives the
    call.  Workers are forked where the platform can: on a 2-core machine
    a forked pool of two starts in about 20 ms, a spawned one, which
    imports numpy and this package afresh, in 0.25-0.45 s, longer than a
    whole grid search of the benchmark.  Forking is safe here: the
    package's only threads, ``svm.joint_bank_scores``'s, are joined before
    that function returns, so none is alive at a fork, and OpenBLAS resets its
    own thread pool in a fork handler.
    """
    tasks = list(tasks)
    workers = _worker_count(len(tasks))
    if workers == 1:
        return [fn(t) for t in tasks]
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
    with ProcessPoolExecutor(workers, mp_context=context,
                             initializer=_init_worker, initargs=(workers,)) as pool:
        try:
            return list(pool.map(fn, tasks))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def run_toy_sweep(axis: str, values, methods, *, seeds=DEFAULT_SEEDS,
                  base: ToyParams | None = None, grids: dict | None = None,
                  n_train: int = 1000, n_val: int = 1000, n_test: int = 10000,
                  learner_kwargs: dict | None = None) -> SweepResult:
    """Benchmark the given methods along one generator or model axis.

    For each (axis value, method, seed): draw train/validation/test sets,
    select hyperparameters on validation, and record the test error of
    both the online and the Viterbi decoder.  Deterministic given seeds;
    the tasks are independent and run through the process map, with
    results merged in task order.  A task that fails numerically is
    recorded in ``failures`` and leaves no rows.  What no task could use
    raises a ValueError before any task runs: an empty list of values,
    methods or seeds, ``learner_kwargs`` that make no ``LearnerConfig``,
    and an axis value that is not a finite number or makes no valid
    ``ToyParams`` or ``GridSpec`` with ``base`` and a method's grid.  The
    axes in INTEGER_AXES take integers (an integral float, as a command
    line gives, counts as its integer, and its rows are recorded under
    that integer).

    The headline table is the one-point sweep
    ``run_toy_sweep("noise", [base.sigma_n], methods, base=base, ...)``:
    that value binds ``base`` unchanged.
    """
    if axis not in DEFAULT_AXIS_VALUES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    values, methods, seeds = list(values), list(methods), list(seeds)
    for name, given in (("values", values), ("methods", methods), ("seeds", seeds)):
        if not given:  # no task would run
            raise ValueError(f"empty sweep: no {name}")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    LearnerConfig(**(learner_kwargs or {}))  # the caller's error, not a task's
    base = base or ToyParams(n=n_train, sigma_n=1.0, lag=5, nbtot=2)
    grids = grids or {}
    sizes = (n_train, n_val, n_test)
    integer = axis in INTEGER_AXES
    bad = [v for v in values if isinstance(v, bool) or not isinstance(v, numbers.Real)
           or not math.isfinite(v) or (integer and not float(v).is_integer())]
    if bad:
        raise ValueError(f"sweep axis {axis} takes "
                         f"{'integer values' if integer else 'finite numbers'}, got {bad}")
    if integer:
        values = [int(v) for v in values]
    for value in values:  # the caller's error too: every value binds, or none runs
        for method in methods:
            _axis_apply(axis, value, base, grids.get(method, default_grid(method)))
    tasks = [
        (axis, value, seed, method, base,
         grids.get(method, default_grid(method)), sizes, learner_kwargs)
        for value in values for method in methods for seed in seeds
    ]
    rows, failures = [], []
    for (value, method, seed), res, err in _parallel_map(_sweep_task, tasks):
        if err is not None:
            failures.append(((value, method, seed), err))
            continue
        for decode in DECODE_MODES:
            rows.append({
                "axis_value": value, "method": method, "decode": decode,
                "seed": seed, "test_error": res[decode],
            })
    return SweepResult(axis=axis, rows=rows, failures=failures)


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
