"""Joint learning of the per-channel FIR filters and the kernel SVM.

The training objective is the optimal value of the SVM problem on the
filtered samples, seen as a function of the filter coefficients, plus a
filter regularizer.  Because the SVM optimum is differentiable in the
filter (the optimal dual variables act as constants when differentiating),
the filter is learned by limited-memory BFGS (L-BFGS, Liu & Nocedal 1989;
Nocedal & Wright 2006, Alg. 7.4) over the last LBFGS_MEMORY steps, with a
backtracking Armijo line search, re-solving the SVM (warm-started) at
every trial point.

A rejected trial point need not be solved to optimality: it only has
to be shown to miss the Armijo threshold.
Every dual optimum is >= 0, and the warm-started SMO solver ascends the
dual monotonically, so the running dual of each subproblem, added to the
optima already summed and the penalty, is a lower bound on the trial's
objective.  A trial stops once that bound clears the threshold by a
relative slack of 1e-9, far above the solver's ~1e-12 rounding: the
solver tests it first on the dual at the warm start, from the product's
rows of the start's support set, and then after every step.  An accepted
trial never reaches the bound, so it is solved exactly as without it:
the accepted steps, filters and models are the same bits.

A trial computes only the kernel it reads (``svm.SupportKernel``).  A
warm one computes the columns K[:, S] of its start's support set S, a
block of rows at a time and the rows of S first, which give the start
K @ (alpha * y) (a trial lost at its start stops after the rows of S),
and the rows its SMO steps touch; the fit's first, cold evaluation
computes the rows its steps touch.  No evaluation builds a subproblem's
whole kernel.  The gradient at a committed filter computes the kernel
K[S', S'] among the committed support set S', holds it for that one
subproblem's term, and drops it: no |S|^2 block outlives the gradient.

Channel selection uses a sum-of-column-norms penalty, handled by
majorization-minimization: each outer step replaces the column norms by a
tight quadratic upper bound, which turns the subproblem back into a
weighted-Frobenius one that the L-BFGS descent handles.  Each outer step
runs a fresh descent, so its curvature memory starts empty whenever the
weights change.

The fit ends with every pairwise subproblem solved at the returned
filter: the last committed solves.  ``fit_shared_filter`` is the one
learner, for any class count and either penalty, and ``committed_bank``
builds the pipeline's banks from its solves: each pair's final solve
starts at its committed solution, which is optimal already, so no SMO step
is taken after a fit except in the c one-vs-rest solves of a c >= 3 bank.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .signals import (
    FilterBank,
    apply_filter,
    as_labels,
    as_signal,
    make_average_filter,
    shift_signal,
)
from .svm import (
    KernelParams,
    MulticlassModel,
    SupportKernel,
    _row_chunks,
    class_pairs,
    kernel_matrix,
    solve_svm_dual,
    train_multiclass,
)


@dataclass(frozen=True)
class RegularizerSpec:
    """Filter penalty: 'frobenius', 'weighted_frobenius' or 'mixed_norm'.

    weighted_frobenius scales each channel's squared column norm by its
    entry in ``weights``; mixed_norm is the sum of column norms (zeroes
    whole channels) and is only reachable through the MM solver.
    """

    kind: str = "frobenius"
    lam: float = 0.0
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("frobenius", "weighted_frobenius", "mixed_norm"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lambda must be finite and >= 0")
        if self.kind == "weighted_frobenius":
            if self.weights is None:
                raise ValueError("weighted_frobenius needs per-channel weights")
            w = np.asarray(self.weights, dtype=np.float64)
            if np.any(~np.isfinite(w)) or np.any(w <= 0):
                raise ValueError("weights must be finite and > 0")
            object.__setattr__(self, "weights", w)


def frobenius_reg(F: np.ndarray):
    """Sum of squared coefficients and its gradient 2F."""
    F = np.asarray(F, dtype=np.float64)
    return float(np.sum(F * F)), 2.0 * F


def weighted_frobenius_reg(F: np.ndarray, weights: np.ndarray):
    """Per-channel weighted filter energy sum_v w_v ||F_col_v||^2."""
    F = np.asarray(F, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    return float(np.sum(w * np.sum(F * F, axis=0))), 2.0 * F * w[None, :]


def mixed_norm(F: np.ndarray) -> float:
    """Sum of column norms sum_v ||F_col_v||_2 (group penalty over channels)."""
    F = np.asarray(F, dtype=np.float64)
    return float(np.sum(np.linalg.norm(F, axis=0)))


def _penalty(F: np.ndarray, reg: RegularizerSpec):
    """Unscaled value and gradient of reg's penalty kind; the mixed norm,
    not differentiable where a column vanishes, has gradient None."""
    if reg.kind == "frobenius":
        return frobenius_reg(F)
    if reg.kind == "weighted_frobenius":
        return weighted_frobenius_reg(F, reg.weights)
    return mixed_norm(F), None


def regularizer_value(F: np.ndarray, reg: RegularizerSpec) -> float:
    """lambda-scaled penalty value, for every kind."""
    return reg.lam * _penalty(F, reg)[0]


def regularizer_value_grad(F: np.ndarray, reg: RegularizerSpec):
    """lambda-scaled penalty value and gradient for the differentiable kinds."""
    val, grad = _penalty(F, reg)
    if grad is None:
        raise ValueError("mixed_norm is not differentiable; fit_shared_filter "
                         "handles it by majorization-minimization")
    return reg.lam * val, reg.lam * grad


# Descent, line-search and majorization constants, the same for every
# fit: the descent stops when the objective changes by less than
# TOL_REL_J relatively; L-BFGS keeps the last LBFGS_MEMORY curvature
# pairs; a trial step passes Armijo's test with ARMIJO_C1, else it shrinks
# by BACKTRACK, at most MAX_HALVINGS times; MM_EPS clamps a column norm in
# the majorization weights.
TOL_REL_J = 1e-5
LBFGS_MEMORY = 5
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_HALVINGS = 30
MM_EPS = 1e-8
_CURVATURE_EPS = 1e-12


@dataclass(frozen=True)
class LearnerConfig:
    """Everything the filter learner needs besides the data.

    f and n0 fix the filter geometry; C and kernel parametrize the inner
    SVM; reg the filter penalty.  max_cg_iters and tol_dF bound the
    L-BFGS descent (its accepted steps, and the step norm that stops it),
    mm_max_outer the majorization-minimization outer loop, and svm_tol is
    the inner solver's KKT tolerance.  The descent, the line search and
    the MM clamp use the module constants TOL_REL_J, LBFGS_MEMORY,
    ARMIJO_C1, BACKTRACK, MAX_HALVINGS and MM_EPS, fixed because every fit
    uses the same values; the inner solver keeps ``solve_svm_dual``'s
    iteration cap.
    """

    C: float = 100.0
    kernel: KernelParams = KernelParams(1.0)
    reg: RegularizerSpec = RegularizerSpec("frobenius", 0.0)
    f: int = 1
    n0: int = 0
    max_cg_iters: int = 200
    tol_dF: float = 1e-6
    mm_max_outer: int = 20
    svm_tol: float = 1e-3

    def __post_init__(self):
        if self.f < 1 or not 0 <= self.n0 <= self.f - 1:
            raise ValueError("need f >= 1 and 0 <= n0 <= f-1")
        for name in ("C", "tol_dF", "svm_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0")


# ---------------------------------------------------------------------------
# gradient at fixed dual variables
# ---------------------------------------------------------------------------

def _inner_gradient(F: np.ndarray, X: np.ndarray, Xf: np.ndarray,
                    rows: np.ndarray, y_pm: np.ndarray, alpha: np.ndarray,
                    cfg: LearnerConfig) -> np.ndarray:
    """Gradient of the SVM optimum wrt the filter, at fixed optimal alpha.

    ``Xf`` is the whole signal filtered by F; ``rows`` selects the
    subproblem's samples within it.  Only support-vector pairs contribute,
    so only the kernel among the rows with alpha > 0 is computed, and it
    is freed on return.  The pair weights alpha_i y_i alpha_j y_j are
    multiplied into it by row blocks, so it is the one |S'|^2 array held.
    Uses the Laplacian identity
    sum_ij w_ij (a_i - a_j)(b_i - b_j) = 2 a' (diag(W 1) - W) b to avoid
    materializing pair differences.
    """
    sv = np.flatnonzero(alpha > 0)
    grad = np.zeros(F.shape)
    if len(sv) == 0:
        return grad
    r = rows[sv]

    Xf_s = Xf[r]
    ay = alpha[sv] * y_pm[sv]
    W = kernel_matrix(Xf_s, Xf_s, cfg.kernel)
    for lo, hi in _row_chunks(len(ay)):
        W[lo:hi] *= np.outer(ay[lo:hi], ay)
    # T = (diag(row sums) - W) @ Xf_s, so grad[u, v] = T[:, v] . shifted_X[r, v]
    T = Xf_s * W.sum(axis=1)[:, None] - W @ Xf_s
    scale = 1.0 / cfg.kernel.sigma_k**2
    for u in range(F.shape[0]):
        Su = shift_signal(X, u - cfg.n0)
        grad[u] = scale * np.einsum("ij,ij->j", T, Su[r])
    return grad


# ---------------------------------------------------------------------------
# L-BFGS descent over the filter
# ---------------------------------------------------------------------------

class _Subproblem:
    """One binary SVM subproblem over a row subset of the training signal:
    the class-index pair ``pair`` of the one-against-one bank.

    Trial solves warm-start from the last committed solution; committing
    promotes the most recent trial to the warm-start state, together with
    the filtered signal it was solved on (all the gradient at the
    committed filter needs besides alpha).
    """

    def __init__(self, pair: tuple[int, int], rows: np.ndarray, y_pm: np.ndarray):
        self.pair = pair
        self.rows = rows
        self.y_pm = y_pm
        self.alpha = None  # committed warm-start state
        self.model = None
        self.Xf = None
        self._last = None

    def solve(self, Xf: np.ndarray, cfg: LearnerConfig, *,
              stop_above: float = np.inf) -> float:
        """Dual optimum on the filtered signal ``Xf``.

        Once a lower bound on the optimum exceeds ``stop_above``, returns
        that bound instead and leaves nothing to commit.  One solve through
        one ``SupportKernel``, warm from the committed alpha where there is
        one; a warm start whose own dual exceeds ``stop_above`` computes
        K[:, S] only up to the block of rows that completes the rows of S,
        and takes no step.
        """
        self._last = None
        model = solve_svm_dual(
            SupportKernel(Xf[self.rows], cfg.kernel), self.y_pm, cfg.C, kernel=cfg.kernel,
            tol=cfg.svm_tol, warm_alpha=self.alpha, stop_above=stop_above)
        if model.objective <= stop_above:
            self._last = (model, Xf)
        return model.objective

    def commit(self):
        self.model, self.Xf = self._last
        self.alpha = self.model.alpha


# Relative margin by which a trial's lower bound must clear the Armijo
# threshold before the trial is cut short; the running dual tracks the
# solver's objective to ~1e-12, so a trial within the margin is solved
# to the end and decided on its exact objective.
_REJECT_SLACK = 1e-9


def _evaluate(problems, F, X, cfg, *, reject_above: float = np.inf) -> float:
    """Objective at F: the sum of the subproblem optima, plus the penalty
    (any kind, the mixed norm too).

    Once a lower bound on it exceeds ``reject_above`` (each optimum is
    >= 0, so a partial sum bounds the whole), the remaining work is
    skipped and the value returned is a lower bound above it.
    """
    Xf = apply_filter(X, FilterBank(F, n0=cfg.n0))
    reg_val = regularizer_value(F, cfg.reg)
    total = 0.0
    for p in problems:
        if total > reject_above - reg_val:
            break
        total += p.solve(Xf, cfg, stop_above=reject_above - reg_val - total)
    # summed as without a bound: the optima first, then the penalty
    return total + reg_val


def _commit_all(problems):
    for p in problems:
        p.commit()


def _gradient(problems, F, X, cfg) -> np.ndarray:
    """Gradient at the committed filter F, from the committed solves."""
    grad = np.zeros_like(F)
    for p in problems:
        grad += _inner_gradient(F, X, p.Xf, p.rows, p.y_pm, p.alpha, cfg)
    _, reg_grad = regularizer_value_grad(F, cfg.reg)
    return grad + reg_grad


def _lbfgs_direction(G: np.ndarray, pairs) -> tuple[np.ndarray, float]:
    """L-BFGS direction -H G and its slope G . D (Nocedal & Wright 2006,
    Alg. 7.4).

    H is the inverse-Hessian approximation of the two-loop recursion over
    ``pairs``, the (s, y) pairs of flattened filter steps and gradient
    changes, oldest first, started from H0 = (s'y / y'y) I of the newest
    pair (N&W eq. 7.20); without pairs the direction is -G.  If that
    direction is not a descent direction, ``pairs`` is cleared and the
    direction is -G.
    """
    q = G.ravel().copy()
    rhos = [1.0 / float(s @ y) for s, y in pairs]
    coefs = []
    for (s, y), rho in zip(reversed(pairs), reversed(rhos)):
        a = rho * float(s @ q)
        q -= a * y
        coefs.append(a)
    if pairs:
        s, y = pairs[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y), rho, a in zip(pairs, rhos, reversed(coefs)):
        q += (a - rho * float(y @ q)) * s
    D = -q.reshape(G.shape)
    slope = float(np.sum(G * D))
    if not slope < 0.0:
        pairs.clear()
        D, slope = -G, -float(np.sum(G * G))
    return D, slope


def _remember(pairs, s: np.ndarray, y: np.ndarray):
    """Store the pair (s, y) if its curvature s'y > _CURVATURE_EPS ||s|| ||y||.

    The line search tests Armijo's condition only and the objective is not
    convex, so s'y can be <= 0; such a pair would make H indefinite.  The
    memory keeps the newest LBFGS_MEMORY pairs.
    """
    if float(s @ y) > _CURVATURE_EPS * float(np.linalg.norm(s) * np.linalg.norm(y)):
        pairs.append((s, y))
        del pairs[:-LBFGS_MEMORY]


def _lbfgs_descent(problems, X, cfg: LearnerConfig, F0: np.ndarray):
    """L-BFGS descent over the filter with Armijo backtracking.

    Every line-search evaluation re-solves each SVM subproblem warm-started
    from the last accepted solution, but stops as soon as a lower bound on
    the trial's objective exceeds the Armijo threshold by the relative
    slack ``_REJECT_SLACK``: such a trial would be rejected anyway.  A
    trial that meets the threshold never reaches that bound, so accepted
    steps are computed exactly as by a full solve of every trial.  The
    direction comes from the last LBFGS_MEMORY curvature pairs
    (``_lbfgs_direction``); the trial step is 1 once the memory holds a
    pair, and twice the last accepted step before.

    Returns (F, history, norms, converged).
    """
    F = F0.copy()
    J = _evaluate(problems, F, X, cfg)
    _commit_all(problems)
    history = [J]
    norms = [float(np.linalg.norm(F))]
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    G_prev = s = None
    step = 1.0
    converged = False

    for _ in range(cfg.max_cg_iters):
        G = _gradient(problems, F, X, cfg)
        if s is not None:
            _remember(pairs, s, (G - G_prev).ravel())
        if not np.any(G):
            converged = True
            break
        D, slope = _lbfgs_direction(G, pairs)
        G_prev = G

        # Armijo backtracking; without curvature pairs the trial step
        # carries over between iterations (doubled) so the search adapts
        # to the local scale
        t = 1.0 if pairs else min(step * 2.0, 1e6)
        accepted = False
        for _ in range(MAX_HALVINGS):
            bound = J + ARMIJO_C1 * t * slope
            J_try = _evaluate(problems, F + t * D, X, cfg,
                              reject_above=bound + _REJECT_SLACK * max(abs(bound), 1.0))
            if J_try <= bound:
                accepted = True
                break
            t *= BACKTRACK
        if not accepted:
            break  # no descent at line-search resolution: not converged

        _commit_all(problems)  # promote the accepted trial's solutions
        F_new = F + t * D
        s = (F_new - F).ravel()
        dF = float(np.linalg.norm(s))
        rel = abs(J - J_try) / max(abs(J), 1.0)
        F, J, step = F_new, J_try, t
        history.append(J)
        norms.append(float(np.linalg.norm(F)))
        if rel < TOL_REL_J or dF < cfg.tol_dF:
            converged = True
            break

    return F, history, norms, converged


def mm_weight_update(F: np.ndarray) -> np.ndarray:
    """Per-channel majorization weights 1 / max(||column||, MM_EPS).

    The clamp saturates the weight of a vanished column, freezing it at
    zero instead of dividing by zero.
    """
    return 1.0 / np.maximum(np.linalg.norm(np.asarray(F), axis=0), MM_EPS)


def _mm_loop(problems, X: np.ndarray, cfg: LearnerConfig, F0: np.ndarray):
    """Majorization-minimization over the column-norm penalty.

    The bound ||col|| <= ||col_0||/2 + ||col||^2 / (2 ||col_0||) is tight
    at the previous iterate, so the inner weighted problem uses weight
    lambda * d_v / 2 per channel with d_v = 1 / max(||col_0||, MM_EPS);
    warm-starting the inner solver at the previous filter makes the true
    mixed-norm objective non-increasing across outer iterations.

    Returns (F, history, norms, converged) with one history entry (the
    mixed-norm objective) per outer iteration.
    """
    d = F0.shape[1]
    weights = np.ones(d)
    F = F0.copy()
    history: list[float] = []
    norms: list[float] = []
    converged = False
    for _ in range(cfg.mm_max_outer):
        inner_reg = RegularizerSpec("weighted_frobenius", cfg.reg.lam,
                                    weights=0.5 * weights)
        inner_cfg = replace(cfg, reg=inner_reg)
        F_new, _, _, _ = _lbfgs_descent(problems, X, inner_cfg, F)
        # the committed solves sit at F_new: the true group-sparse objective
        history.append(sum(p.model.objective for p in problems)
                       + regularizer_value(F_new, cfg.reg))
        norms.append(float(np.linalg.norm(F_new)))
        dF = float(np.linalg.norm(F_new - F))
        F = F_new
        weights = mm_weight_update(F)
        if dF < cfg.tol_dF:
            converged = True
            break
    return F, history, norms, converged


def _make_problems(y: np.ndarray) -> list[_Subproblem]:
    """Pairwise one-against-one subproblems; a single one when c == 2."""
    return [_Subproblem(*pair) for pair in class_pairs(y, np.unique(y))]


@dataclass
class FilterFit:
    """Outcome of fitting a shared filter bank over pairwise subproblems."""

    bank: FilterBank
    history: list[float]
    filter_norms: list[float]
    converged: bool
    problems: list


def _lower_start(problems, X, cfg: LearnerConfig, F_start: np.ndarray,
                 F_avg: np.ndarray) -> np.ndarray:
    """Of the start filter and the average filter, the one with the lower
    objective under ``cfg.reg`` (ties keep the start), with every
    subproblem committed there.

    The subproblems hold the start fit's alphas, so the start filter's
    evaluation takes no SMO step where they converged.  The average
    filter is solved warm from them and stops early once a lower bound on
    its objective clears the start's by ``_REJECT_SLACK``.
    """
    J_start = _evaluate(problems, F_start, X, cfg)
    _commit_all(problems)
    J_avg = _evaluate(problems, F_avg, X, cfg,
                      reject_above=J_start + _REJECT_SLACK * max(abs(J_start), 1.0))
    if J_avg < J_start:
        _commit_all(problems)
        return F_avg
    return F_start


def fit_shared_filter(X, y, cfg: LearnerConfig, *,
                      start: FilterFit | None = None) -> FilterFit:
    """Learn one filter bank shared by all pairwise class subproblems.

    The objective is the sum of the pairwise SVM optima plus the penalty;
    gradients add over subproblems.  With two classes this is the plain
    joint filter/SVM problem.  The filter starts as the average filter, so
    with max_cg_iters=0 the fit is the fixed-average-filter baseline.  The
    mixed-norm penalty runs the majorization-minimization outer loop.

    ``start``, a fit on the same data at the same C, kernel, f and n0
    (typically another lambda: a regularization path), offers a second
    start: the descent begins at whichever of its filter and the average
    filter has the lower objective at this fit's penalty (for the mixed
    norm, the mixed-norm objective), each subproblem warm from the start's
    committed alphas.  Those alphas are feasible, as the box C/n and the
    subproblems are the same, and were solved on the same filtered signal,
    so the evaluation at the start's filter takes no SMO step where they
    converged.  The comparison keeps a path from staying where a large
    lambda collapsed the filter to about 0, where the gradient vanishes.
    """
    X = as_signal(X)
    y = as_labels(y, X.shape[0])
    if len(np.unique(y)) < 2:
        raise ValueError("need at least 2 classes")
    problems = _make_problems(y)
    F0 = make_average_filter(cfg.f, cfg.n0, X.shape[1]).coeffs
    if start is not None:
        F_start = start.bank.coeffs
        same = (F_start.shape == F0.shape and start.bank.n0 == cfg.n0
                and len(start.problems) == len(problems)
                and all(q.model.C == cfg.C and q.model.kernel == cfg.kernel
                        and np.array_equal(q.rows, p.rows)
                        for p, q in zip(problems, start.problems)))
        if not same:
            raise ValueError("start fit differs in its samples, C, kernel, f or n0")
        for p, q in zip(problems, start.problems):
            p.alpha = q.alpha
        F0 = _lower_start(problems, X, cfg, F_start, F0)
    if cfg.reg.kind == "mixed_norm":
        F, history, norms, converged = _mm_loop(problems, X, cfg, F0)
    else:
        F, history, norms, converged = _lbfgs_descent(problems, X, cfg, F0)
    return FilterFit(bank=FilterBank(F, n0=cfg.n0), history=history,
                     filter_norms=norms, converged=converged, problems=problems)


def committed_bank(fit: FilterFit, X, y, cfg: LearnerConfig) -> MulticlassModel:
    """The multiclass banks at the fit's filter, warm from the fit's solves.

    Each subproblem's committed solve was made on the signal filtered by
    the returned bank (the accepted trial's filter ``F + t*D`` is the same
    expression as the returned one, so the filtered signal is the same
    bits).  ``train_multiclass`` starts each pair there, so the pairs and
    the two one-vs-all scorers of a binary bank take no SMO step; only the
    c one-vs-rest scorers of a c >= 3 bank are solved from scratch.
    """
    return train_multiclass(apply_filter(X, fit.bank), y, cfg.C, cfg.kernel,
                            tol=cfg.svm_tol, warm={p.pair: p.alpha for p in fit.problems})

