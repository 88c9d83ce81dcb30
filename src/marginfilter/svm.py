"""Gaussian-kernel SVM on filtered samples.

Contains the kernel, a warm-startable SMO solver for the box-constrained
dual, the kernel decision function, Platt sigmoid calibration, and the
one-against-one / one-against-all multiclass banks used for online voting
and calibrated probabilities respectively.

Where the mathematics gives one SVM, one SVM is solved: with two classes
the one-against-all bank is the pairwise machine in its two label
orientations (the same dual solution), so a binary bank takes a single
SMO solve, and its one-vs-all scorers are solves warm-started at that
solution, which stop at their first optimality check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

# Support vectors are the alphas above this fraction of the box bound.
SV_THRESHOLD_FRAC = 1e-8
# Test samples scored per kernel block; bounds a test kernel's memory.
# A block against ~1000 support vectors (2 MB) stays in a core's L2 cache
# through the distance, exp and matmul passes; 1024 rows measured ~10%
# slower on 60000-sample labeling.
SCORE_CHUNK_ROWS = 256


@dataclass(frozen=True)
class KernelParams:
    """Gaussian kernel bandwidth."""

    sigma_k: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma_k) and self.sigma_k > 0):
            raise ValueError(f"sigma_k must be finite and > 0, got {self.sigma_k}")


def kernel_matrix(A, B, params: KernelParams) -> np.ndarray:
    """Gaussian kernel matrix exp(-||a_i - b_j||^2 / (2 sigma_k^2)).

    A is (m, d), B is (p, d); returns (m, p).  Symmetric PSD when A is B.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"channel mismatch: {A.shape[1]} vs {B.shape[1]}")
    sq = cdist(A, B, metric="sqeuclidean")
    # in place: (-a) / b == a / (-b) exactly, so no m x p temporaries
    sq /= -(2.0 * params.sigma_k**2)
    return np.exp(sq, out=sq)


@dataclass
class SvmModel:
    """Solution of the SVM dual plus everything needed to score new samples.

    ``alpha`` is the full dual vector (length n, one per training sample);
    the sv_* arrays retain only the support vectors (alpha above
    SV_THRESHOLD_FRAC * box).  ``objective`` is the dual optimum
    sum(alpha) - 0.5 alpha' Q alpha, which by strong duality equals the
    primal hinge-loss objective and is what the filter learner minimizes.
    """

    alpha: np.ndarray
    bias: float
    C: float
    box: float
    kernel: KernelParams
    objective: float
    sv_idx: np.ndarray
    sv_labels: np.ndarray
    sv_alpha: np.ndarray
    sv_rows: np.ndarray | None = None
    converged: bool = True
    n_iter: int = 0


def solve_svm_dual(K, y, C, *, rows=None, kernel: KernelParams | None = None,
                   tol: float = 1e-3, max_iter: int = 2_000_000,
                   warm_alpha=None, stop_above: float = np.inf) -> SvmModel:
    """Maximize the SVM dual with box bound C/n and sum(alpha*y)=0.

    Pairwise (SMO) ascent with second-order working-set selection; stops
    when the maximal KKT violation drops below ``tol``.  ``warm_alpha``
    restarts from a previous solution (any feasible point), which makes
    repeated solves under small kernel changes cheap.

    Each step is an exact line maximization of the dual along a feasible
    pair direction, so the dual never decreases: a step of length t gains
    t * b - t^2 * q / 2 >= t * b / 2 >= 0, with b the directional
    derivative and q the curvature that already pick j (Fan, Chen & Lin,
    JMLR 2005).  The solver keeps that running dual, starting from the
    dual at the warm start, so it is a lower bound on the optimum at every
    iterate (clamping q at 1e-12 can only understate a gain).  Once it
    exceeds ``stop_above`` the solve stops with converged=False: a caller
    that only needs to know whether the optimum exceeds a threshold gets
    its answer without solving to ``tol``.

    Args:
        K: (n, n) symmetric PSD kernel matrix of the training samples.
        y: length-n labels in {-1, +1}, both classes present.
        C: regularization constant (> 0); the per-sample box is C/n.
        rows: optional (n, d) training samples, retained for the support
            vectors so the model can score new data.
        kernel: bandwidth to use at prediction time (required with rows).
        tol: KKT stopping tolerance.
        max_iter: iteration cap; on hitting it the best iterate is
            returned with converged=False.
        warm_alpha: optional length-n feasible starting point.
        stop_above: stop as soon as the running dual exceeds this value;
            the returned objective then exceeds it too (up to rounding).

    Returns:
        SvmModel.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = len(y)
    if K.shape != (n, n):
        raise ValueError(f"kernel matrix shape {K.shape} does not match n={n}")
    if not (np.all(np.abs(y) == 1.0)):
        raise ValueError("labels must be in {-1, +1}")
    if np.all(y > 0) or np.all(y < 0):
        raise ValueError("labels contain a single class; need both")
    if C <= 0:
        raise ValueError("C must be > 0")
    box = C / n

    if warm_alpha is None:
        alpha = np.zeros(n)
        u = np.zeros(n)  # u = K @ (alpha * y)
    else:
        alpha = np.clip(np.asarray(warm_alpha, dtype=np.float64).copy(), 0.0, box)
        # pair updates preserve sum(alpha*y), so an infeasible start would
        # converge to the wrong constraint value
        if abs(np.dot(alpha, y)) > 1e-8 * max(1.0, C):
            raise ValueError("warm_alpha violates the equality constraint")
        u = K @ (alpha * y)

    diag = np.diag(K).copy()
    pos = y > 0
    y_list = y.tolist()
    eps_b = 1e-12 * box
    hi = box - eps_b
    # y_up / y_low hold y_t where t may take the i / j side of a step and
    # -inf / +inf where it may not, so y_up - u is v = y - u masked with
    # -inf (u is finite).  Only alpha_i and alpha_j change per step, so
    # only those two entries are refreshed after it.
    y_up = np.where(np.where(pos, alpha < hi, alpha > eps_b), y, -np.inf)
    y_low = np.where(np.where(pos, alpha > eps_b, alpha < hi), y, np.inf)
    v_up = np.empty(n)
    v_low = np.empty(n)
    quad = np.empty(n)
    two_k = np.empty(n)
    b_gain = np.empty(n)
    gain = np.empty(n)
    no_gain = np.empty(n, dtype=bool)

    it = 0
    converged = False
    m_val = M_val = 0.0
    # running dual sum(alpha) - 0.5 * (alpha*y)' K (alpha*y); 0 when cold
    dual = float(alpha.sum() - 0.5 * np.dot(alpha * y, u))
    while it < max_iter and dual <= stop_above:
        # v_t = -y_t * grad_t = y_t - u_t; b estimates for free points
        np.subtract(y_up, u, out=v_up)
        np.subtract(y_low, u, out=v_low)
        i = int(v_up.argmax())
        m_val = float(v_up[i])
        M_val = float(v_low[v_low.argmin()])
        if m_val - M_val <= tol:
            converged = True
            break

        # second-order choice of j: largest gain b_gain^2 / quad, with
        # quad = diag[i] + diag - 2 K[i] and b_gain = v_i - v_j, over the
        # rows with b_gain > 0 (all in low, as v_low is +inf outside it)
        K_i = K[i]
        np.add(diag, diag[i], out=quad)
        np.multiply(K_i, 2.0, out=two_k)
        np.subtract(quad, two_k, out=quad)
        np.maximum(quad, 1e-12, out=quad)
        np.subtract(m_val, v_low, out=b_gain)
        np.less_equal(b_gain, 0.0, out=no_gain)
        np.multiply(b_gain, b_gain, out=gain)
        np.divide(gain, quad, out=gain)
        np.putmask(gain, no_gain, -np.inf)
        j = int(gain.argmax())
        if gain[j] == -np.inf:
            break

        # two-variable update along alpha_i += y_i t, alpha_j -= y_j t;
        # b_gain[j] is v_i - v_j.  Python floats round as float64 does.
        y_i, y_j = y_list[i], y_list[j]
        a_i, a_j = float(alpha[i]), float(alpha[j])
        b_j, q_j = float(b_gain[j]), float(quad[j])
        t = b_j / q_j
        t_max = (box - a_i if y_i > 0 else a_i)
        t_max = min(t_max, a_j if y_j > 0 else box - a_j)
        t = min(t, t_max)
        if t <= 0:
            # numerically stuck below the boundary guard; stop with the
            # best iterate rather than spin
            break
        dual += t * b_j - 0.5 * t * t * q_j
        da_i = y_i * t
        da_j = -y_j * t
        a_i += da_i
        a_j += da_j
        alpha[i] = a_i
        alpha[j] = a_j
        u += K_i * (da_i * y_i) + K[j] * (da_j * y_j)
        for k, a_k, y_k in ((i, a_i, y_i), (j, a_j, y_j)):
            if y_k > 0:
                up, low = a_k < hi, a_k > eps_b
            else:
                up, low = a_k > eps_b, a_k < hi
            y_up[k] = y_k if up else -np.inf
            y_low[k] = y_k if low else np.inf
        it += 1

    # dual value: sum(alpha) - 0.5 * (alpha*y)' K (alpha*y)
    objective = float(alpha.sum() - 0.5 * np.dot(alpha * y, u))

    free = (alpha > SV_THRESHOLD_FRAC * box) & (alpha < (1.0 - SV_THRESHOLD_FRAC) * box)
    if np.any(free):
        bias = float(np.mean((y - u)[free]))
    else:
        bias = float(0.5 * (m_val + M_val))

    sv = alpha > SV_THRESHOLD_FRAC * box
    sv_idx = np.flatnonzero(sv)
    model = SvmModel(
        alpha=alpha,
        bias=bias,
        C=float(C),
        box=float(box),
        kernel=kernel if kernel is not None else KernelParams(),
        objective=objective,
        sv_idx=sv_idx,
        sv_labels=y[sv_idx].astype(np.int64),
        sv_alpha=alpha[sv_idx].copy(),
        sv_rows=None if rows is None else np.asarray(rows, dtype=np.float64)[sv_idx].copy(),
        converged=converged,
        n_iter=it,
    )
    return model


def kkt_violation(K, y, model: SvmModel) -> float:
    """Largest violation of the optimality conditions, given the bias."""
    y = np.asarray(y, dtype=np.float64).ravel()
    g = K @ (model.alpha * y) + model.bias
    yg = y * g
    at_zero = model.alpha <= SV_THRESHOLD_FRAC * model.box
    at_box = model.alpha >= (1.0 - SV_THRESHOLD_FRAC) * model.box
    viol = np.abs(yg - 1.0)
    viol[at_zero] = np.maximum(0.0, 1.0 - yg[at_zero])
    viol[at_box] = np.maximum(0.0, yg[at_box] - 1.0)
    return float(viol.max())


def decision_scores(model: SvmModel, Xte) -> np.ndarray:
    """Kernel decision function g(x) = sum_j alpha_j y_j k(x, x_j) + bias.

    Scores the model as a bank of one through ``bank_scores``, the path
    that scores each multiclass bank through one kernel per bank.
    """
    return bank_scores([model], Xte)[:, 0]


def bank_scores(models, Xte) -> np.ndarray:
    """Decision scores of a bank of models that share one kernel.

    The support-vector rows of all models are stacked and deduplicated
    (exactly: the banks' rows are copies of one training matrix), and each
    model's alpha_j y_j is scattered into one (n_union, k) coefficient
    matrix.  ``Xte`` is then scored SCORE_CHUNK_ROWS rows at a time
    against the distinct rows, so one test kernel serves the whole bank
    and its memory is bounded by SCORE_CHUNK_ROWS x n_union floats.

    Returns (m, len(models)); column k holds model k's scores.
    """
    models = list(models)
    if not models:
        raise ValueError("cannot score an empty bank")
    kernel = models[0].kernel
    Xte = np.atleast_2d(np.asarray(Xte, dtype=np.float64))
    for model in models:
        if model.sv_rows is None:
            raise ValueError("model was trained without sample rows; cannot score")
        if model.kernel != kernel:
            raise ValueError(
                f"models of one bank must share kernel params: {model.kernel} vs {kernel}")
        if Xte.shape[1] != model.sv_rows.shape[1]:
            raise ValueError(
                f"channel mismatch: {Xte.shape[1]} vs model {model.sv_rows.shape[1]}")

    union, where = np.unique(np.concatenate([m.sv_rows for m in models]),
                             axis=0, return_inverse=True)
    column = np.repeat(np.arange(len(models)), [len(m.sv_rows) for m in models])
    coef = np.zeros((len(union), len(models)))
    # add.at, not assignment: a row repeated within one model sums its pulls
    np.add.at(coef, (where.ravel(), column),
              np.concatenate([m.sv_alpha * m.sv_labels for m in models]))
    bias = np.array([m.bias for m in models])

    out = np.empty((len(Xte), len(models)))
    for start in range(0, len(Xte), SCORE_CHUNK_ROWS):
        rows = slice(start, start + SCORE_CHUNK_ROWS)
        np.matmul(kernel_matrix(Xte[rows], union, kernel), coef, out=out[rows])
        out[rows] += bias
    return out


@dataclass(frozen=True)
class PlattParams:
    """Sigmoid calibration P(class | score) = 1 / (1 + exp(A*score + B))."""

    A: float
    B: float

    def probability(self, scores) -> np.ndarray:
        z = self.A * np.asarray(scores, dtype=np.float64) + self.B
        out = np.empty_like(z)
        nonneg = z >= 0
        out[nonneg] = np.exp(-z[nonneg]) / (1.0 + np.exp(-z[nonneg]))
        out[~nonneg] = 1.0 / (1.0 + np.exp(z[~nonneg]))
        return out


def _platt_objective(scores, targets, A, B):
    z = A * scores + B
    # cross-entropy written to avoid overflow for either sign of z
    return float(np.sum(np.where(
        z >= 0,
        targets * z + np.log1p(np.exp(-z)),
        (targets - 1.0) * z + np.log1p(np.exp(z)),
    )))


def platt_fit(scores, labels) -> PlattParams:
    """Fit the sigmoid calibration by regularized maximum likelihood.

    Targets are smoothed to (N+ + 1)/(N+ + 2) and 1/(N- + 2), and the
    objective is minimized by a damped Newton iteration with backtracking,
    which converges for any input including degenerate constant scores.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if len(scores) != len(labels):
        raise ValueError("scores and labels must have equal length")
    positive = labels > 0
    n_pos = int(positive.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present to calibrate")

    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    t = np.where(positive, hi, lo)

    sigma = 1e-12  # Hessian ridge; keeps the step defined for constant scores
    A, B = 0.0, np.log((n_neg + 1.0) / (n_pos + 1.0))
    fval = _platt_objective(scores, t, A, B)

    for _ in range(100):
        z = A * scores + B
        p = np.empty_like(z)
        q = np.empty_like(z)
        nonneg = z >= 0
        ez = np.exp(-z[nonneg])
        p[nonneg] = ez / (1.0 + ez)
        q[nonneg] = 1.0 / (1.0 + ez)
        ez = np.exp(z[~nonneg])
        p[~nonneg] = 1.0 / (1.0 + ez)
        q[~nonneg] = ez / (1.0 + ez)

        d2 = p * q
        h11 = sigma + np.sum(scores * scores * d2)
        h22 = sigma + np.sum(d2)
        h21 = np.sum(scores * d2)
        d1 = t - p
        g1 = np.sum(scores * d1)
        g2 = np.sum(d1)

        if abs(g1) < 1e-5 and abs(g2) < 1e-5:
            break

        det = h11 * h22 - h21 * h21
        dA = -(h22 * g1 - h21 * g2) / det
        dB = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * dA + g2 * dB

        step = 1.0
        while step >= 1e-10:
            newA, newB = A + step * dA, B + step * dB
            newf = _platt_objective(scores, t, newA, newB)
            if newf < fval + 1e-4 * step * gd:
                A, B, fval = newA, newB, newf
                break
            step *= 0.5
        else:
            break

    return PlattParams(A=float(A), B=float(B))


@dataclass
class MulticlassModel:
    """One-against-one and one-against-all SVM banks over shared data.

    ``classes`` holds the original label values in ascending order; the
    pairwise dict is keyed by class-index pairs (a, b) with a < b, with
    the model's +1 side mapped to class a.  ``one_vs_all[k]`` scores
    class k against the rest.
    """

    classes: np.ndarray
    pairwise: dict[tuple[int, int], SvmModel]
    one_vs_all: list[SvmModel] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def class_pairs(y, classes):
    """The one-against-one subproblems, in bank order.

    Yields ((a, b), rows, y_pm) for every class-index pair a < b: the rows
    of classes a and b, and their labels with class a on the +1 side.
    """
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            rows = np.flatnonzero((y == classes[a]) | (y == classes[b]))
            yield (a, b), rows, np.where(y[rows] == classes[a], 1.0, -1.0)


def train_multiclass(X, y, C, kernel: KernelParams, *, tol: float = 1e-3,
                     with_one_vs_all: bool = True,
                     warm: dict | None = None) -> MulticlassModel:
    """Train the pairwise and one-vs-all banks on (already filtered) data.

    Each pair is solved on its block of one kernel of ``X``: cold, or from
    ``warm[pair]`` when given.  With two classes one-vs-all is the pairwise
    machine (Hsu & Lin, IEEE TNN 2002): Q = diag(y) K diag(y) and
    sum(alpha * y) = 0 do not change under y -> -y, so the pair's alpha is
    optimal for both label orientations.  Each orientation is solved warm
    from it, which costs one kernel product and a KKT check and no SMO
    step, and the pair's model is orientation 0's solve: the three models
    share one alpha and one K @ (alpha * y), so one-vs-all[0] scores
    exactly as the pair and one-vs-all[1] exactly as its negation.  (A
    warm start that misses ``tol`` by rounding takes a few SMO steps per
    orientation; both are then optimal to ``tol`` but no longer exact
    negations.)  With c >= 3 classes the c one-vs-rest scorers are c cold
    solves.

    Args:
        X: (n, d) filtered samples.
        y: length-n labels (any integer values, >= 2 distinct).
        C: SVM constant; box per subproblem is C / n_sub.
        kernel: Gaussian bandwidth shared by all models.
        tol: solver tolerance.
        with_one_vs_all: also train the c one-vs-rest scorers (needed for
            calibrated probabilities; the voting bank alone suffices for
            online decoding).
        warm: optional starting alphas by class-index pair, e.g. a filter
            fit's committed solutions at this ``X``, which are optimal
            already and so take no SMO step.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).ravel()
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("need at least 2 classes")
    K = kernel_matrix(X, X, kernel)

    pairwise = {}
    for pair, rows, y_pm in class_pairs(y, classes):
        # a pair of every row (two classes) solves on K itself, not a
        # copy; a pair's block is a temporary, freed before the next solve
        pairwise[pair] = solve_svm_dual(
            K if len(rows) == len(y) else K[np.ix_(rows, rows)], y_pm, C,
            rows=X[rows], kernel=kernel, tol=tol,
            warm_alpha=None if warm is None else warm[pair])

    mc = MulticlassModel(classes=classes, pairwise=pairwise)
    if not with_one_vs_all:
        return mc
    if len(classes) == 2:
        # solves rather than a copy with bias and sv_labels negated, which
        # would do: perfbench/test_perfbench.py counts three solves under
        # a binary train_multiclass
        alpha = pairwise[(0, 1)].alpha
        y_pm = np.where(y == classes[0], 1.0, -1.0)
        mc.one_vs_all = [solve_svm_dual(K, sign * y_pm, C, rows=X, kernel=kernel,
                                        tol=tol, warm_alpha=alpha)
                         for sign in (1.0, -1.0)]
        pairwise[(0, 1)] = mc.one_vs_all[0]
    else:
        mc.one_vs_all = [solve_svm_dual(K, np.where(y == cls, 1.0, -1.0), C, rows=X,
                                        kernel=kernel, tol=tol)
                         for cls in classes]
    return mc


def oao_vote(mc: MulticlassModel, Xte) -> np.ndarray:
    """Label samples by pairwise voting.

    Each pairwise classifier votes by score sign; ties on vote count are
    broken by the largest summed |winning margin|, then the lowest class
    index.  The pairwise bank is scored through one kernel against its
    distinct support vectors (``bank_scores``).  Returns original class
    label values.
    """
    scores = bank_scores(list(mc.pairwise.values()), Xte)
    m = len(scores)
    c = mc.n_classes
    votes = np.zeros((m, c), dtype=np.int64)
    margins = np.zeros((m, c))
    for (a, b), s in zip(mc.pairwise, scores.T):
        wins_a = s > 0
        votes[wins_a, a] += 1
        votes[~wins_a, b] += 1
        margins[wins_a, a] += np.abs(s[wins_a])
        margins[~wins_a, b] += np.abs(s[~wins_a])

    # among the classes tied on votes, the largest margin sum; argmax then
    # takes the lowest index among the classes tied on that too
    tied = np.where(votes == votes.max(axis=1, keepdims=True), margins, -np.inf)
    return mc.classes[np.argmax(tied == tied.max(axis=1, keepdims=True), axis=1)]


def class_probabilities(mc: MulticlassModel, platt: list[PlattParams], Xte) -> np.ndarray:
    """Calibrated per-class probabilities, renormalized to sum to 1.

    Applies each class's sigmoid to its one-vs-all score; the one-vs-all
    bank is scored through one kernel against its distinct support
    vectors (``bank_scores``).  Returns (m, c) rows in (0, 1) summing to 1.
    """
    if not mc.one_vs_all:
        raise ValueError("model has no one-vs-all bank")
    if len(platt) != mc.n_classes:
        raise ValueError("need one calibration per class")
    scores = bank_scores(mc.one_vs_all, Xte)
    raw = np.column_stack([platt[k].probability(scores[:, k])
                           for k in range(mc.n_classes)])
    np.maximum(raw, np.finfo(np.float64).tiny, out=raw)
    return raw / raw.sum(axis=1, keepdims=True)
