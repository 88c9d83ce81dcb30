"""Joint learning of the per-channel FIR filters and the kernel SVM.

The training objective is the optimal value of the SVM problem on the
filtered samples, seen as a function of the filter coefficients, plus a
filter regularizer.  Because the SVM optimum is differentiable in the
filter (the optimal dual variables act as constants when differentiating),
the filter is learned by nonlinear conjugate gradient with Fletcher-Reeves
updates and a backtracking line search, re-solving the SVM (warm-started)
at every trial point.

Most trial points are rejected, and a rejected trial need not be solved
to optimality: it only has to be shown to miss the Armijo threshold.
Every dual optimum is >= 0, and the warm-started SMO solver ascends the
dual monotonically, so the running dual of each subproblem, added to the
optima already summed and the penalty, is a lower bound on the trial's
objective.  A trial stops (before the kernel build, when the support-
vector block of the warm start already proves it lost, else inside the
solver) once that bound clears the threshold by a relative slack of
1e-9, far above the solver's ~1e-12 rounding.  An accepted trial never
reaches the bound, so it is solved exactly as without it: the accepted
steps, filters and models are the same bits.

Channel selection uses a sum-of-column-norms penalty, handled by
majorization-minimization: each outer step replaces the column norms by a
tight quadratic upper bound, which turns the subproblem back into a
weighted-Frobenius one that the conjugate-gradient solver handles.

The fit ends with every pairwise subproblem solved at the returned
filter: the last committed solves.  Every learner builds its banks from
them (``committed_bank``): each pair's final solve starts at its committed
solution, which is optimal already, so no SMO step is taken after a fit
except in the c one-vs-rest solves of a c >= 3 bank.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    SvmModel,
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


def regularizer_value(F: np.ndarray, reg: RegularizerSpec) -> float:
    """lambda-scaled penalty value (any kind)."""
    if reg.kind == "frobenius":
        return reg.lam * frobenius_reg(F)[0]
    if reg.kind == "weighted_frobenius":
        return reg.lam * weighted_frobenius_reg(F, reg.weights)[0]
    return reg.lam * mixed_norm(F)


def regularizer_value_grad(F: np.ndarray, reg: RegularizerSpec):
    """lambda-scaled penalty value and gradient for the differentiable kinds."""
    if reg.kind == "frobenius":
        val, grad = frobenius_reg(F)
    elif reg.kind == "weighted_frobenius":
        val, grad = weighted_frobenius_reg(F, reg.weights)
    else:
        raise ValueError("mixed_norm is not differentiable; solve it via learn_skf_svm")
    return reg.lam * val, reg.lam * grad


@dataclass(frozen=True)
class LearnerConfig:
    """Everything the filter learner needs besides the data.

    f and n0 fix the filter geometry; C and kernel parametrize the inner
    SVM; reg the filter penalty.  The remaining fields control the
    conjugate-gradient loop, the Armijo backtracking line search, the
    majorization-minimization outer loop, and the inner SVM solver.
    """

    C: float = 100.0
    kernel: KernelParams = KernelParams(1.0)
    reg: RegularizerSpec = RegularizerSpec("frobenius", 0.0)
    f: int = 1
    n0: int = 0
    max_cg_iters: int = 200
    tol_rel_J: float = 1e-5
    tol_dF: float = 1e-6
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    max_halvings: int = 30
    mm_max_outer: int = 20
    mm_eps: float = 1e-8
    svm_tol: float = 1e-3
    svm_max_iter: int = 2_000_000

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("C must be > 0")
        if self.f < 1 or not 0 <= self.n0 <= self.f - 1:
            raise ValueError("need f >= 1 and 0 <= n0 <= f-1")
        for name in ("tol_rel_J", "tol_dF", "armijo_c1", "mm_eps", "svm_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not 0 < self.backtrack < 1:
            raise ValueError("backtrack factor must be in (0, 1)")


@dataclass
class TrainedFilterModel:
    """Learned filter bank, the SVM trained on the filtered data, and the
    objective trajectory over accepted descent steps (outer MM iterations
    for the channel-selecting variant)."""

    filter: FilterBank
    svm: SvmModel | MulticlassModel
    history: list[float] = field(default_factory=list)
    filter_norms: list[float] = field(default_factory=list)
    converged: bool = True


# ---------------------------------------------------------------------------
# objective and gradient
# ---------------------------------------------------------------------------

def _binary_labels(y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64).ravel()
    vals = np.unique(y)
    if set(vals) == {-1.0, 1.0}:
        return y
    if len(vals) == 2:
        return np.where(y == vals[0], -1.0, 1.0)
    raise ValueError("binary labels required; use learn_multiclass_filter for c > 2")


def filter_objective(F, X, y, cfg: LearnerConfig, *, warm_alpha=None):
    """Penalized SVM optimum at filter F.

    Filters X, solves the dual (optionally warm-started), and returns
    (value, model) where value = dual optimum + lambda * penalty.
    """
    X = as_signal(X)
    y_pm = _binary_labels(y)
    if isinstance(F, FilterBank):
        if F.n0 != cfg.n0:
            raise ValueError(f"filter delay {F.n0} conflicts with config n0={cfg.n0}")
        bank = F
    else:
        bank = FilterBank(F, n0=cfg.n0)
    Xf = apply_filter(X, bank)
    K = kernel_matrix(Xf, Xf, cfg.kernel)
    model = solve_svm_dual(K, y_pm, cfg.C, rows=Xf, kernel=cfg.kernel,
                           tol=cfg.svm_tol, max_iter=cfg.svm_max_iter,
                           warm_alpha=warm_alpha)
    return model.objective + regularizer_value(bank.coeffs, cfg.reg), model


def _inner_gradient(F: np.ndarray, X: np.ndarray, Xf: np.ndarray,
                    rows: np.ndarray, y_pm: np.ndarray, alpha: np.ndarray,
                    K_ss: np.ndarray, cfg: LearnerConfig) -> np.ndarray:
    """Gradient of the SVM optimum wrt the filter, at fixed optimal alpha.

    ``Xf`` is the whole signal filtered by F; ``rows`` selects the
    subproblem's samples within it.  Only support-vector pairs contribute:
    ``K_ss`` is the kernel among the rows with alpha > 0, in row order.
    Uses the Laplacian identity sum_ij w_ij (a_i - a_j)(b_i - b_j) =
    2 a' (diag(W 1) - W) b to avoid materializing pair differences.
    """
    sv = np.flatnonzero(alpha > 0)
    grad = np.zeros(F.shape)
    if len(sv) == 0:
        return grad
    r = rows[sv]

    Xf_s = Xf[r]
    ay = alpha[sv] * y_pm[sv]
    W = K_ss * np.outer(ay, ay)
    # T = (diag(row sums) - W) @ Xf_s, so grad[u, v] = T[:, v] . shifted_X[r, v]
    T = Xf_s * W.sum(axis=1)[:, None] - W @ Xf_s
    scale = 1.0 / cfg.kernel.sigma_k**2
    for u in range(F.shape[0]):
        Su = shift_signal(X, u - cfg.n0)
        grad[u] = scale * np.einsum("ij,ij->j", T, Su[r])
    return grad


def filter_objective_gradient(F, X, y, alpha, cfg: LearnerConfig) -> np.ndarray:
    """Gradient of the penalized objective at F, treating the supplied
    optimal dual variables as constants."""
    X = as_signal(X)
    y_pm = _binary_labels(y)
    F = np.asarray(F, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64).ravel()
    if len(alpha) != X.shape[0]:
        raise ValueError(f"alpha length {len(alpha)} does not match n={X.shape[0]}")
    Xf = apply_filter(X, FilterBank(F, n0=cfg.n0))
    Xf_s = Xf[alpha > 0]
    K_ss = kernel_matrix(Xf_s, Xf_s, cfg.kernel)
    grad = _inner_gradient(F, X, Xf, np.arange(X.shape[0]), y_pm, alpha, K_ss, cfg)
    _, reg_grad = regularizer_value_grad(F, cfg.reg)
    return grad + reg_grad


# ---------------------------------------------------------------------------
# conjugate-gradient descent over the filter
# ---------------------------------------------------------------------------

class _Subproblem:
    """One binary SVM subproblem over a row subset of the training signal:
    the class-index pair ``pair`` of the one-against-one bank.

    Trial solves warm-start from the last committed solution; committing
    promotes the most recent trial to the warm-start state, together with
    the filtered signal it was solved on and its kernel among the rows
    with alpha > 0 (all the gradient at the committed filter needs).
    """

    def __init__(self, pair: tuple[int, int], rows: np.ndarray, y_pm: np.ndarray):
        self.pair = pair
        self.rows = rows
        self.y_pm = y_pm
        self.alpha = None  # committed warm-start state
        self.model = None
        self.Xf = None
        self.K_ss = None
        self._last = None

    def solve(self, Xf: np.ndarray, cfg: LearnerConfig, *,
              stop_above: float = np.inf) -> float:
        """Dual optimum on the filtered signal ``Xf``.

        Once a lower bound on the optimum exceeds ``stop_above``, returns
        that bound instead and leaves nothing to commit.
        """
        self._last = None
        Xsub = Xf[self.rows]
        if self.alpha is not None and stop_above < np.inf:
            # the dual at the warm start lower-bounds the optimum, and only
            # the support rows enter it: an |S| x |S| kernel, not n x n
            sv = np.flatnonzero(self.alpha > 0)
            Xs = Xsub[sv]
            w = self.alpha[sv] * self.y_pm[sv]
            warm = float(self.alpha.sum() - 0.5 * (w @ kernel_matrix(Xs, Xs, cfg.kernel) @ w))
            if warm > stop_above:
                return warm
        K = kernel_matrix(Xsub, Xsub, cfg.kernel)
        model = solve_svm_dual(
            K, self.y_pm, cfg.C, kernel=cfg.kernel,
            tol=cfg.svm_tol, max_iter=cfg.svm_max_iter, warm_alpha=self.alpha,
            stop_above=stop_above)
        if model.objective <= stop_above:
            sv = np.flatnonzero(model.alpha > 0)
            self._last = (model, Xf, K[np.ix_(sv, sv)])
        return model.objective

    def commit(self):
        self.model, self.Xf, self.K_ss = self._last
        self.alpha = self.model.alpha


# Relative margin by which a trial's lower bound must clear the Armijo
# threshold before the trial is cut short; the running dual tracks the
# solver's objective to ~1e-12, so a trial within the margin is solved
# to the end and decided on its exact objective.
_REJECT_SLACK = 1e-9


def _evaluate(problems, F, X, cfg, *, reject_above: float = np.inf) -> float:
    """Objective at F: the sum of the subproblem optima, plus the penalty.

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
    """Gradient at the committed filter F, from the committed solves.

    Each committed kernel block serves this one gradient, so it is
    released here rather than held through the next line search.
    """
    grad = np.zeros_like(F)
    for p in problems:
        grad += _inner_gradient(F, X, p.Xf, p.rows, p.y_pm, p.alpha, p.K_ss, cfg)
        p.K_ss = None
    _, reg_grad = regularizer_value_grad(F, cfg.reg)
    return grad + reg_grad


def _cg_descent(problems, X, cfg: LearnerConfig, F0: np.ndarray):
    """Fletcher-Reeves conjugate gradient with Armijo backtracking.

    Every line-search evaluation re-solves each SVM subproblem warm-started
    from the last accepted solution, but stops as soon as a lower bound on
    the trial's objective exceeds the Armijo threshold by the relative
    slack ``_REJECT_SLACK``: such a trial would be rejected anyway.  A
    trial that meets the threshold never reaches that bound, so accepted
    steps are computed exactly as by a full solve of every trial.  The
    direction resets to steepest descent when it stops being a descent
    direction or every f*d steps.

    Returns (F, history, norms, converged).
    """
    F = F0.copy()
    J = _evaluate(problems, F, X, cfg)
    _commit_all(problems)
    history = [J]
    norms = [float(np.linalg.norm(F))]
    G_prev = None
    D = np.zeros_like(F)
    step = 1.0
    converged = False
    restart_every = max(F.size, 1)

    for it in range(cfg.max_cg_iters):
        G = _gradient(problems, F, X, cfg)
        gnorm2 = float(np.sum(G * G))
        if gnorm2 == 0.0:
            converged = True
            break
        if G_prev is None or it % restart_every == 0:
            beta = 0.0
        else:
            beta = gnorm2 / float(np.sum(G_prev * G_prev))
        D = -G + beta * D
        slope = float(np.sum(G * D))
        if slope >= 0.0:
            D = -G
            slope = -gnorm2
        G_prev = G

        # Armijo backtracking; the trial step carries over between
        # iterations (doubled) so the search adapts to the local scale
        t = min(step * 2.0, 1e6)
        accepted = False
        for _ in range(cfg.max_halvings):
            bound = J + cfg.armijo_c1 * t * slope
            J_try = _evaluate(problems, F + t * D, X, cfg,
                              reject_above=bound + _REJECT_SLACK * max(abs(bound), 1.0))
            if J_try <= bound:
                accepted = True
                break
            t *= cfg.backtrack
        if not accepted:
            break  # no descent at line-search resolution: not converged

        _commit_all(problems)  # promote the accepted trial's solutions
        F_new = F + t * D
        dF = float(np.linalg.norm(F_new - F))
        rel = abs(J - J_try) / max(abs(J), 1.0)
        F, J, step = F_new, J_try, t
        history.append(J)
        norms.append(float(np.linalg.norm(F)))
        if rel < cfg.tol_rel_J or dF < cfg.tol_dF:
            converged = True
            break

    return F, history, norms, converged


def mm_weight_update(F: np.ndarray, mm_eps: float) -> np.ndarray:
    """Per-channel majorization weights 1 / max(||column||, mm_eps).

    The clamp saturates the weight of a vanished column, freezing it at
    zero instead of dividing by zero.
    """
    return 1.0 / np.maximum(np.linalg.norm(np.asarray(F), axis=0), mm_eps)


def _mm_loop(problems, X: np.ndarray, cfg: LearnerConfig, F0: np.ndarray):
    """Majorization-minimization over the column-norm penalty.

    The bound ||col|| <= ||col_0||/2 + ||col||^2 / (2 ||col_0||) is tight
    at the previous iterate, so the inner weighted problem uses weight
    lambda * d_v / 2 per channel with d_v = 1 / max(||col_0||, mm_eps);
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
        F_new, _, _, _ = _cg_descent(problems, X, inner_cfg, F)
        # the committed solves sit at F_new: the true group-sparse objective
        history.append(sum(p.model.objective for p in problems)
                       + cfg.reg.lam * mixed_norm(F_new))
        norms.append(float(np.linalg.norm(F_new)))
        dF = float(np.linalg.norm(F_new - F))
        F = F_new
        weights = mm_weight_update(F, cfg.mm_eps)
        if dF < cfg.tol_dF:
            converged = True
            break
    return F, history, norms, converged


def _make_problems(X: np.ndarray, y: np.ndarray):
    """Pairwise one-against-one subproblems; a single one when c == 2."""
    classes = np.unique(y)
    return classes, [_Subproblem(*pair) for pair in class_pairs(y, classes)]


@dataclass
class FilterFit:
    """Outcome of fitting a shared filter bank over pairwise subproblems."""

    bank: FilterBank
    history: list[float]
    filter_norms: list[float]
    converged: bool
    problems: list


def fit_shared_filter(X, y, cfg: LearnerConfig) -> FilterFit:
    """Learn one filter bank shared by all pairwise class subproblems.

    The objective is the sum of the pairwise SVM optima plus the penalty;
    gradients add over subproblems.  With two classes this is the plain
    joint filter/SVM problem.  The filter starts as the average filter.
    """
    X = as_signal(X)
    y = np.asarray(y).ravel()
    if len(np.unique(y)) < 2:
        raise ValueError("need at least 2 classes")
    _, problems = _make_problems(X, y)
    F0 = make_average_filter(cfg.f, cfg.n0, X.shape[1]).coeffs
    if cfg.reg.kind == "mixed_norm":
        F, history, norms, converged = _mm_loop(problems, X, cfg, F0)
    else:
        F, history, norms, converged = _cg_descent(problems, X, cfg, F0)
    return FilterFit(bank=FilterBank(F, n0=cfg.n0), history=history,
                     filter_norms=norms, converged=converged, problems=problems)


def committed_bank(fit: FilterFit, X, y, cfg: LearnerConfig, *,
                   with_one_vs_all: bool = True) -> MulticlassModel:
    """The multiclass banks at the fit's filter, warm from the fit's solves.

    Each subproblem's committed solve was made on the signal filtered by
    the returned bank (the accepted trial's filter ``F + t*D`` is the same
    expression as the returned one, so the filtered signal is the same
    bits).  ``train_multiclass`` starts each pair there, so the pairs and
    the two one-vs-all scorers of a binary bank take no SMO step; only the
    c one-vs-rest scorers of a c >= 3 bank are solved from scratch.
    """
    return train_multiclass(apply_filter(X, fit.bank), y, cfg.C, cfg.kernel,
                            tol=cfg.svm_tol, with_one_vs_all=with_one_vs_all,
                            warm={p.pair: p.alpha for p in fit.problems})


def _finalize_binary(fit: FilterFit, X, y, cfg: LearnerConfig) -> TrainedFilterModel:
    mc = committed_bank(fit, X, y, cfg, with_one_vs_all=False)
    return TrainedFilterModel(filter=fit.bank, svm=mc.pairwise[(0, 1)],
                              history=fit.history, filter_norms=fit.filter_norms,
                              converged=fit.converged)


def learn_kf_svm(X, y, cfg: LearnerConfig) -> TrainedFilterModel:
    """Jointly learn the filter bank and the SVM on binary data.

    The filter starts as the plain average filter, so with
    max_cg_iters=0 this reproduces the fixed-average-filter baseline
    exactly.
    """
    X = as_signal(X)
    y = np.asarray(y).ravel()
    if len(np.unique(y)) != 2:
        raise ValueError("learn_kf_svm expects binary labels")
    if cfg.reg.kind == "mixed_norm":
        raise ValueError("use learn_skf_svm for the mixed-norm penalty")
    fit = fit_shared_filter(X, y, cfg)
    return _finalize_binary(fit, X, y, cfg)


def learn_skf_svm(X, y, cfg: LearnerConfig) -> TrainedFilterModel:
    """Channel-selecting variant: mixed-norm penalty via the MM outer loop.

    Each outer iteration solves a weighted-Frobenius subproblem whose
    weights majorize the column norms at the previous iterate, then
    re-derives the weights; columns whose norm collapses get a saturated
    weight and stay at zero.  The history holds the mixed-norm objective
    per outer iteration.
    """
    X = as_signal(X)
    y = np.asarray(y).ravel()
    if cfg.reg.kind != "mixed_norm":
        raise ValueError("learn_skf_svm requires reg.kind == 'mixed_norm'")
    if len(np.unique(y)) != 2:
        raise ValueError("learn_skf_svm expects binary labels")
    fit = fit_shared_filter(X, y, cfg)
    return _finalize_binary(fit, X, y, cfg)


def learn_multiclass_filter(X, y, cfg: LearnerConfig):
    """Learn one shared filter bank for any number of classes.

    For two classes this is exactly the binary learner.  For more, the
    pairwise one-against-one SVM optima are summed into a single objective
    (their gradients add) and the same conjugate-gradient descent runs on
    the shared filter.  Both banks are then trained on the final filtered
    data, each pair warm from the fit's committed solve (``committed_bank``).

    Returns:
        (FilterBank, MulticlassModel)
    """
    X = as_signal(X)
    y = as_labels(y, X.shape[0])
    fit = fit_shared_filter(X, y, cfg)
    return fit.bank, committed_bank(fit, X, y, cfg)
