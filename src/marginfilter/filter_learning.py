"""Joint learning of the per-channel FIR filters and the kernel SVM.

The training objective is the optimal value of the SVM problem on the
filtered samples, seen as a function of the filter coefficients, plus a
filter regularizer.  Because the SVM optimum is differentiable in the
filter (the optimal dual variables act as constants when differentiating),
the filter is learned by one backtracking descent that re-solves the SVM
(warm-started) at every trial point.  Its step depends on the penalty:
for the Frobenius penalty a limited-memory BFGS step (L-BFGS, Liu &
Nocedal 1989; Nocedal & Wright 2006, Alg. 7.4) over the last LBFGS_MEMORY
steps with Armijo's test, for the channel-selecting sum of column norms a
proximal-gradient step (Beck & Teboulle 2009; Wright, Nowak & Figueiredo
2009), whose group soft-threshold sets a dropped channel to exactly 0.

A rejected trial point need not be solved to optimality: it only has
to be shown to miss its acceptance threshold.
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
K @ (alpha * y) (a trial lost at its start stops after the rows of S)
and, in the same blocks, K @ (alpha * y o Xf), and the rows its SMO
steps touch; the fit's first, cold evaluation computes the rows its
steps touch.  No evaluation builds a subproblem's whole kernel.  Each
solve hands back its running products u = K (alpha * y) and V =
K (alpha * y o Xf) (``svm.DualProducts``), V brought up to date at the
end from the rows of the alphas that moved, and the gradient at a
committed filter reads K a and K (a o Xf_s) off them: it computes no
kernel entry.  V is kept only in the solves of a fit that takes a step.

The pair solves of one evaluation read one kernel source of the filtered
signal through ``subset(rows)``.  The fit ends with every pairwise
subproblem solved at the returned filter: the last committed solves.
``fit_shared_filter`` is the one learner, for any class count and either
penalty, a fixed filter being a fit of zero steps, and ``committed_bank``
builds the pipeline's banks from its solves, their products and their
kernel, so after a fit no kernel entry is computed and no SMO step taken
except in the c one-vs-rest solves of a c >= 3 bank.  A fit from another
(``start``, the previous cell of a grid's path) begins where that one
ended: at the start's C its committed solves, and the path's first solves
at the average filter, are this fit's solves there, so it solves nothing
before its first trial and keeps the start's step memory; at another C
each solve starts from the start's alphas and products scaled.
"""

from __future__ import annotations

import numbers
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
    DualProducts,
    KernelParams,
    MulticlassModel,
    SupportKernel,
    class_pairs,
    solve_svm_dual,
    train_multiclass,
)


@dataclass(frozen=True)
class RegularizerSpec:
    """Filter penalty: 'frobenius' (sum of squares) or 'mixed_norm' (sum of
    column norms, which zeroes whole channels)."""

    kind: str = "frobenius"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in ("frobenius", "mixed_norm"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lambda must be finite and >= 0")


def frobenius_reg(F: np.ndarray):
    """Sum of squared coefficients and its gradient 2F."""
    F = np.asarray(F, dtype=np.float64)
    return float(np.sum(F * F)), 2.0 * F


def mixed_norm(F: np.ndarray) -> float:
    """Sum of column norms sum_v ||F_col_v||_2 (group penalty over channels)."""
    F = np.asarray(F, dtype=np.float64)
    return float(np.sum(np.linalg.norm(F, axis=0)))


def group_shrink(F: np.ndarray, tau: float) -> np.ndarray:
    """Proximal map of tau * mixed_norm, the group soft-threshold: a
    column whose norm is <= tau becomes exactly 0, and every other column
    is scaled by 1 - tau / ||column||."""
    norms = np.linalg.norm(F, axis=0)
    keep = norms > tau
    scale = np.zeros_like(norms)
    scale[keep] = 1.0 - tau / norms[keep]
    return F * scale


def regularizer_value(F: np.ndarray, reg: RegularizerSpec) -> float:
    """lambda-scaled penalty value, for either kind."""
    return reg.lam * (frobenius_reg(F)[0] if reg.kind == "frobenius" else mixed_norm(F))


def regularizer_value_grad(F: np.ndarray, reg: RegularizerSpec):
    """lambda-scaled penalty value and gradient of the differentiable kind."""
    if reg.kind == "mixed_norm":
        raise ValueError("mixed_norm is not differentiable; fit_shared_filter "
                         "handles it by proximal steps")
    val, grad = frobenius_reg(F)
    return reg.lam * val, reg.lam * grad


# Descent and line-search constants, the same for every fit: the
# descent stops when the objective changes by less than TOL_REL_J
# relatively; L-BFGS keeps the last LBFGS_MEMORY curvature pairs; an
# L-BFGS trial step passes Armijo's test with ARMIJO_C1; a rejected trial
# step of either kind shrinks by BACKTRACK, at most MAX_HALVINGS times.
TOL_REL_J = 1e-5
LBFGS_MEMORY = 5
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_HALVINGS = 30
_CURVATURE_EPS = 1e-12


@dataclass(frozen=True)
class LearnerConfig:
    """Everything the filter learner needs besides the data.

    f and n0 fix the filter geometry; C and kernel parametrize the inner
    SVM; reg the filter penalty.  max_cg_iters and tol_dF bound the
    descent, whose steps are L-BFGS or proximal by penalty (its accepted
    steps, an integer >= 0, and the step norm that stops it), and svm_tol
    is the inner solver's KKT tolerance.  The descent and its line search
    use the module constants TOL_REL_J, LBFGS_MEMORY, ARMIJO_C1, BACKTRACK
    and MAX_HALVINGS, fixed because every fit uses the same values; the
    inner solver keeps ``solve_svm_dual``'s iteration cap.

    mm_max_outer is read by nothing: it capped the majorization-minimization
    loop that the proximal steps replaced, and stays because
    ``SKF_KWARGS`` in ``perfbench/workloads.py`` still passes it.
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
        steps = self.max_cg_iters
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 0:
            raise ValueError(f"max_cg_iters must be an integer >= 0, got {steps!r}")
        for name in ("C", "tol_dF", "svm_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0")


# ---------------------------------------------------------------------------
# gradient at fixed dual variables
# ---------------------------------------------------------------------------

def _inner_gradient(F: np.ndarray, X: np.ndarray, Xf: np.ndarray,
                    rows: np.ndarray, y_pm: np.ndarray, alpha: np.ndarray,
                    u: np.ndarray, V: np.ndarray, cfg: LearnerConfig) -> np.ndarray:
    """Gradient of the SVM optimum wrt the filter, at fixed optimal alpha.

    ``Xf`` is the whole signal filtered by F; ``rows`` selects the
    subproblem's samples within it.  ``u`` = K (alpha * y) and ``V`` =
    K (alpha * y o Xf[rows]) are the running products of the solve that
    gave alpha (``svm.DualProducts``), over the subproblem's kernel K.
    Only support-vector pairs contribute (the rows S' with alpha > 0).
    With pair weights W = K o a a', a = alpha * y on S', the Laplacian
    identity sum_ij w_ij (x_i - x_j)(z_i - z_j) = 2 x' (diag(W 1) - W) z
    avoids materializing pair differences, and (diag(W 1) - W) Xf_s =
    a o (Xf_s o (K a) - K (a o Xf_s)), whose K a and K (a o Xf_s) are the
    rows S' of u and V: K's columns outside S' meet alpha = 0.  So the
    gradient computes no kernel entry and no product, and holds no array
    larger than |S'| x d besides the shifted signal.
    """
    sv = np.flatnonzero(alpha > 0)
    grad = np.zeros(F.shape)
    if len(sv) == 0:
        return grad
    r = rows[sv]
    a = alpha[sv] * y_pm[sv]
    # T = (diag(W 1) - W) @ Xf_s, so grad[tap, v] = T[:, v] . shifted_X[r, v]
    T = a[:, None] * (Xf[r] * u[sv, None] - V[sv])
    scale = 1.0 / cfg.kernel.sigma_k**2
    for tap in range(F.shape[0]):
        S = shift_signal(X, tap - cfg.n0)
        grad[tap] = scale * np.einsum("ij,ij->j", T, S[r])
    return grad


# ---------------------------------------------------------------------------
# descent over the filter
# ---------------------------------------------------------------------------

class _Subproblem:
    """One binary SVM subproblem over a row subset of the training signal:
    the class-index pair ``pair`` of the one-against-one bank.

    Trial solves warm-start from the last committed solution; committing
    promotes the most recent trial to the warm-start state, together with
    the kernel source it read, that source's filtered signal and the
    solve's running products u = K (alpha * y) and V = K (alpha * y o Xf)
    (all the gradient and ``committed_bank`` need at the committed filter
    besides alpha; V only where the solve was asked to keep it).  The
    kernel, with its cached rows, is kept only while the fit may still end
    at that commit: ``_descent`` drops it before the next gradient, and
    ``committed_bank`` once the banks are built.  ``state`` and ``restore``
    carry the committed solve, without its kernel, from one fit to the
    next (``FilterFit.first``).
    """

    def __init__(self, pair: tuple[int, int], rows: np.ndarray, y_pm: np.ndarray):
        self.pair = pair
        self.rows = rows
        self.y_pm = y_pm
        self.alpha = None  # committed warm-start state
        self.model = None
        self.Xf = self.kernel = None
        self.u = self.V = None
        self._last = None

    def solve(self, K: SupportKernel, cfg: LearnerConfig, *,
              stop_above: float = np.inf, track: bool = True,
              seeded: bool = False) -> float:
        """Dual optimum on the filtered signal of the kernel source ``K``.

        Once a lower bound on the optimum exceeds ``stop_above``, returns
        that bound instead and leaves nothing to commit.  One solve through
        ``K.subset(rows)`` (``K`` itself when the pair has every row), warm
        from the committed alpha where there is one, keeping V where
        ``track``; a warm start whose own dual exceeds ``stop_above``
        computes K[:, S] only up to the block of rows that completes the
        rows of S, and takes no step.  ``seeded``: K is of the committed
        signal, and the solve starts at the committed products (scaled
        with alpha by ``restore``), so it computes none, unless ``track``
        asks for a V the committed solve did not keep.
        """
        self._last = None
        sub = K if len(self.rows) == K.shape[0] else K.subset(self.rows)
        products = DualProducts(Z=sub.samples if track else None)
        if seeded:
            products.u, products.V = self.u, self.V
        model = solve_svm_dual(sub, self.y_pm, cfg.C, kernel=cfg.kernel, tol=cfg.svm_tol,
                               warm_alpha=self.alpha, products=products,
                               stop_above=stop_above)
        if model.objective <= stop_above:
            self._last = (model, K, products)
        return model.objective

    def commit(self):
        (self.model, self.kernel, products), self._last = self._last, None
        self.alpha = self.model.alpha
        self.Xf = self.kernel.samples
        self.u, self.V = products.u, products.V

    def state(self) -> tuple:
        """The committed solve: (model, filtered signal, u, V)."""
        return self.model, self.Xf, self.u, self.V

    def restore(self, state: tuple, scale: float = 1.0):
        """Commit ``state`` (of ``state()``), its alpha and products times
        ``scale``: the start of a solve at C * scale (alpha seeding), the
        box C/n and K (alpha * y) scaling alike."""
        self.model, self.Xf, self.u, self.V = state
        self.alpha, self.kernel, self._last = self.model.alpha, None, None
        if scale != 1.0:
            self.alpha, self.u = self.alpha * scale, self.u * scale
            self.V = None if self.V is None else self.V * scale


# Relative margin by which a trial's lower bound must clear the acceptance
# threshold before the trial is cut short; the running dual tracks the
# solver's objective to ~1e-12, so a trial within the margin is solved
# to the end and decided on its exact objective.
_REJECT_SLACK = 1e-9


def _evaluate(problems, F, X, cfg, *, reject_above: float = np.inf,
              track: bool = True) -> float:
    """Objective at F: the sum of the subproblem optima, plus the penalty
    (any kind, the mixed norm too).

    Once a lower bound on it exceeds ``reject_above`` (each optimum is
    >= 0, so a partial sum bounds the whole), the remaining work is
    skipped and the value returned is a lower bound above it.  ``track``
    has each solve keep V for a gradient at F.
    """
    K = SupportKernel(apply_filter(X, FilterBank(F, n0=cfg.n0)), cfg.kernel)
    reg_val = regularizer_value(F, cfg.reg)
    total = 0.0
    for p in problems:
        if total > reject_above - reg_val:
            p._last = None  # skipped: keeps no trial of an earlier evaluation
        else:
            total += p.solve(K, cfg, stop_above=reject_above - reg_val - total, track=track)
    # summed as without a bound: the optima first, then the penalty
    return total + reg_val


def _committed_value(problems, F, cfg) -> float:
    """``_evaluate``'s value at F from the committed optima, summed in
    problem order, and the penalty: no solve."""
    total = 0.0
    for p in problems:
        total += p.model.objective
    return total + regularizer_value(F, cfg.reg)


def _commit_all(problems):
    for p in problems:
        p.commit()


def _gradient(problems, F, X, cfg) -> np.ndarray:
    """Gradient at the committed filter F, from the committed solves."""
    grad = np.zeros_like(F)
    for p in problems:
        grad += _inner_gradient(F, X, p.Xf, p.rows, p.y_pm, p.alpha, p.u, p.V, cfg)
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


def _has_curvature(s: np.ndarray, y: np.ndarray) -> bool:
    """s'y > _CURVATURE_EPS ||s|| ||y||.  The line search tests a sufficient
    decrease only and the objective is not convex, so s'y can be <= 0,
    which would make the L-BFGS H indefinite and the Barzilai-Borwein t < 0."""
    return float(s @ y) > _CURVATURE_EPS * float(np.linalg.norm(s) * np.linalg.norm(y))


def _remember(pairs, s: np.ndarray, y: np.ndarray):
    """Store the pair (s, y) if it has curvature (``_has_curvature``); the
    memory keeps the newest LBFGS_MEMORY pairs."""
    if _has_curvature(s, y):
        pairs.append((s, y))
        del pairs[:-LBFGS_MEMORY]


def _unit_length(G: np.ndarray) -> float:
    """1 / ||G||, the length that makes the step -t G of norm 1 (1 at G = 0):
    the first trial length of either step rule."""
    return 1.0 / np.linalg.norm(G) if np.any(G) else 1.0


class _LbfgsStep:
    """The L-BFGS step, for the Frobenius penalty lam ||F||^2 (h = 0, all of
    it in f).

    The direction comes from the last LBFGS_MEMORY curvature pairs
    (``_lbfgs_direction``); the first trial length is 1 once the memory
    holds a pair.  Before, the descent's first step tries 1/||G||, a step
    of norm 1 along -G as ``_ProxStep``'s first, and a later step twice
    the last accepted length, so the search adapts to the local scale.  A
    trial F + tD passes Armijo's test f + ARMIJO_C1 t G . D.

    The rule is the descent's memory: its pairs, the last accepted step
    with the gradient it began at (``last``, whose pair the next gradient
    completes) and that step's length.  ``at_lambda`` carries it to
    another penalty weight.
    """

    def __init__(self, lam: float):
        self.lam = lam
        self.pairs: list[tuple[np.ndarray, np.ndarray]] = []
        self.last = None  # (s, G) of the last accepted step
        self.t = 1.0

    def penalty(self, F) -> float:
        return 0.0

    def first_t(self, G) -> float:
        last, self.last = self.last, None
        if last is not None:
            s, G_prev = last
            _remember(self.pairs, s, (G - G_prev).ravel())
        self.D, self.slope = _lbfgs_direction(G, self.pairs)
        if self.pairs:
            return 1.0
        return _unit_length(G) if last is None else min(self.t * 2.0, 1e6)

    def trial(self, F, G, f, t):
        return F + t * self.D, f + ARMIJO_C1 * t * self.slope

    def accept(self, s, G, t):
        self.last, self.t = (s, G), t

    def at_lambda(self, lam: float, F: np.ndarray) -> _LbfgsStep:
        """This memory, left by a descent that ended at F, for the penalty
        weight lam.  The penalty's Hessian is 2 lam I, so each y moves by
        2 (lam - self.lam) s (a structured secant update: Dennis, Martinez
        & Tapia, JOTA 1989); a pair that loses its curvature is dropped.
        The last step's gradient, taken at F - s, moves by the penalty's
        gradient change there."""
        shift = 2.0 * (lam - self.lam)
        rule = _LbfgsStep(lam)
        for s, y in self.pairs:
            _remember(rule.pairs, s, y + shift * s)
        if self.last is not None:
            s, G = self.last
            rule.last = (s, G + shift * (F - s.reshape(F.shape)))
        rule.t = self.t
        return rule


class _ProxStep:
    """The proximal-gradient step, for the mixed norm h = lam sum_v ||F_v||
    (Beck & Teboulle 2009; Wright, Nowak & Figueiredo 2009).

    A trial is F+ = group_shrink(F - t G, t lam), which sets a dropped
    channel to exactly 0.  t is Barzilai-Borwein's s's / s'y (1/||G|| at
    first, the last accepted t where s'y shows no curvature), from the
    last accepted step s and the change y of the smooth part's gradient
    over it.  The trial passes f(F+) <= f(F) + G . D + ||D||^2 / (2t),
    D = F+ - F, which lowers f + h by ||D||^2 / (2t) at least.
    """

    def __init__(self, lam: float):
        self.lam = lam
        self.last = None  # (s, G) of the last accepted step
        self.t = 1.0

    def penalty(self, F) -> float:
        return self.lam * mixed_norm(F)

    def first_t(self, G) -> float:
        last, self.last = self.last, None
        if last is None:
            return _unit_length(G)
        s, G_prev = last
        y = (G - G_prev).ravel()
        return float(s @ s) / float(s @ y) if _has_curvature(s, y) else self.t

    def trial(self, F, G, f, t):
        F_try = group_shrink(F - t * G, t * self.lam)
        D = F_try - F
        return F_try, f + float(np.sum(G * D)) + float(np.sum(D * D)) / (2.0 * t)

    def accept(self, s, G, t):
        self.last, self.t = (s, G), t

    def at_lambda(self, lam: float, F: np.ndarray) -> _ProxStep:
        """This memory for the weight lam: f holds no penalty, so the last
        step and its length carry over as they are."""
        rule = _ProxStep(lam)
        rule.last, rule.t = self.last, self.t
        return rule


def _split(cfg: LearnerConfig):
    """(cfg of the smooth part f, a fresh step rule): the Frobenius penalty
    stays in f with L-BFGS steps; the mixed norm leaves f for proximal
    steps."""
    if cfg.reg.kind == "mixed_norm":
        return replace(cfg, reg=RegularizerSpec()), _ProxStep(cfg.reg.lam)
    return cfg, _LbfgsStep(cfg.reg.lam)


def _descent(problems, X, cfg: LearnerConfig, F0: np.ndarray, f0: float, rule):
    """Backtracking descent over the filter on J = f + h, from F0, where
    every subproblem is committed and f is ``f0``.

    f, the sum of the SVM optima plus the Frobenius penalty when that is
    the penalty, goes through ``_evaluate`` and ``_gradient``; h, the
    mixed norm (0 for the Frobenius penalty), enters only through the
    step and the recorded J.  The step rule, ``_LbfgsStep`` or
    ``_ProxStep`` by penalty (``_split``), fresh or carried from another
    fit, gives the first trial length, and a trial point with the
    threshold f must meet there; a rejected trial shrinks t by BACKTRACK,
    at most MAX_HALVINGS times, and is cut short once it is shown to miss
    the threshold (``_REJECT_SLACK``).  A trial point equal to F is
    stationary and ends the fit as converged.  ``rule`` is left holding
    the memory at the returned F.

    Returns (F, history, norms, converged).
    """
    smooth = _split(cfg)[0]
    F, f = F0.copy(), f0
    J = f + rule.penalty(F)
    history = [J]
    norms = [float(np.linalg.norm(F))]

    for _ in range(cfg.max_cg_iters):
        # the committed rows serve committed_bank only if the fit ends at
        # this commit; free them before the line search's kernels
        for p in problems:
            p.kernel = None
        G = _gradient(problems, F, X, smooth)
        t = rule.first_t(G)

        for _ in range(MAX_HALVINGS):
            F_try, bound = rule.trial(F, G, f, t)
            s = (F_try - F).ravel()
            if not np.any(s):
                return F, history, norms, True  # stationary
            f_try = _evaluate(problems, F_try, X, smooth,
                              reject_above=bound + _REJECT_SLACK * max(abs(bound), 1.0))
            if f_try <= bound:
                break
            t *= BACKTRACK
        else:
            break  # no descent at line-search resolution: not converged

        _commit_all(problems)  # promote the accepted trial's solutions
        rule.accept(s, G, t)
        J_try = f_try + rule.penalty(F_try)
        rel = abs(J - J_try) / max(abs(J), 1.0)
        F, f, J = F_try, f_try, J_try
        history.append(J)
        norms.append(float(np.linalg.norm(F)))
        if rel < TOL_REL_J or np.linalg.norm(s) < cfg.tol_dF:
            return F, history, norms, True

    return F, history, norms, False


def _make_problems(y: np.ndarray) -> list[_Subproblem]:
    """Pairwise one-against-one subproblems; a single one when c == 2."""
    return [_Subproblem(*pair) for pair in class_pairs(y, np.unique(y))]


@dataclass
class FilterFit:
    """Outcome of fitting a shared filter bank over pairwise subproblems.

    ``history`` and ``filter_norms`` hold J and ||F|| at the start and
    after each accepted step.  ``converged`` is True when the descent's
    own test stopped it, False when the step cap or the line search did:
    a fit of zero steps, such as a fixed filter's, reads False.

    What a later fit from this one (``start``) reuses rides along:
    ``problems`` hold the committed solves at the returned filter, each
    with its running products u and V; ``first`` the solves at the
    average filter at this fit's C (``_Subproblem.state``), the chain's
    first evaluation; ``rule`` the step rule's memory at the returned
    filter.  None of it holds a kernel.
    """

    bank: FilterBank
    history: list[float]
    filter_norms: list[float]
    converged: bool
    problems: list
    first: list
    rule: object


def _lower_start(problems, X, cfg: LearnerConfig, start: FilterFit, F_avg: np.ndarray):
    """Of the start's filter and the average filter, the one with the lower
    objective J = f + h under ``cfg`` (ties keep the start), with every
    subproblem committed there.  Returns (F0, f0, rule, first): f at F0,
    the step rule the descent goes on with, and the solves at the average
    filter (``FilterFit.first``).

    Each filter comes with its committed solves: the start's at its
    filter, and ``start.first`` at the average filter.  At the start's C
    they are this fit's solves there, so each J is their optima, summed in
    problem order, plus this fit's penalty, and the choice compares two
    known numbers.  At another C each filter's solves start from those
    alphas and products times C / C_start and solve nothing but the
    steps.  A descent that goes on from the start's filter at the start's
    C keeps the start's memory, moved to this penalty weight
    (``at_lambda``); any other begins with a fresh one.  A start at the
    average filter needs no comparison.
    """
    smooth, fresh = _split(cfg)
    ratio = cfg.C / start.problems[0].model.C
    track = cfg.max_cg_iters > 0

    def commit(states, F):
        """(f at F, the committed states) from ``states``, scaled."""
        for p, state in zip(problems, states):
            p.restore(state, ratio)
        if ratio == 1.0 and not (track and any(p.V is None for p in problems)):
            return _committed_value(problems, F, smooth), states
        K = SupportKernel(problems[0].Xf, cfg.kernel)
        total = 0.0
        for p in problems:
            total += p.solve(K, cfg, track=track, seeded=True)
        _commit_all(problems)
        return total + regularizer_value(F, smooth.reg), [p.state() for p in problems]

    F_start = start.bank.coeffs
    f_start, at_start = commit([q.state() for q in start.problems], F_start)
    rule = start.rule.at_lambda(cfg.reg.lam, F_start) if (
        ratio == 1.0 and type(start.rule) is type(fresh)) else fresh
    if np.array_equal(F_start, F_avg):
        return F_start, f_start, rule, at_start
    f_avg, first = commit(start.first, F_avg)
    if f_avg + fresh.penalty(F_avg) < f_start + fresh.penalty(F_start):
        return F_avg, f_avg, fresh, first
    for p, state in zip(problems, at_start):
        p.restore(state)
    return F_start, f_start, rule, first


def fit_shared_filter(X, y, cfg: LearnerConfig, *,
                      start: FilterFit | None = None) -> FilterFit:
    """Learn one filter bank shared by all pairwise class subproblems.

    The objective is the sum of the pairwise SVM optima plus the penalty;
    gradients add over subproblems.  With two classes this is the plain
    joint filter/SVM problem.  The filter starts as the average filter, so
    with max_cg_iters=0 the fit is the fixed-average-filter baseline (at
    f = 1, n0 = 0 the identity).  One descent (``_descent``) fits either
    penalty, with L-BFGS steps for the Frobenius penalty and proximal
    steps for the mixed norm.  Its solves keep V for the gradient only
    where one will read it: in every solve of a fit of one step or more,
    and in none of a fit of zero steps.

    ``start``, a fit on the same samples and labels at the same kernel, f
    and n0, starts each subproblem from its committed alpha and running
    products times C / C_start (alpha seeding, DeCoste & Wagstaff, KDD
    2000): the box C/n scales by the same factor, so the start is
    feasible.  At the start's C (another lambda: a regularization path)
    the start's committed solves are this fit's solves at the start's
    filter, and the chain's first evaluation (``FilterFit.first``) its
    solves at the average filter, so the fit solves nothing before its
    first trial step; at another C each start ends at the optimum within
    the solver's tolerance, computing no product.  The descent begins at
    whichever of the start's filter and the average filter has the lower
    objective at this fit's penalty (for the mixed norm, the mixed-norm
    objective), which keeps a path from staying where a large lambda
    collapsed the filter to about 0 (``_lower_start``); from the start's
    filter at the start's C it keeps the start's step memory, moved to
    this lambda.  Any other start is a ValueError.
    """
    X = as_signal(X)
    y = as_labels(y, X.shape[0])
    if len(np.unique(y)) < 2:
        raise ValueError("need at least 2 classes")
    problems = _make_problems(y)
    F0 = make_average_filter(cfg.f, cfg.n0, X.shape[1]).coeffs
    if start is None:
        smooth, rule = _split(cfg)
        f0 = _evaluate(problems, F0, X, smooth, track=cfg.max_cg_iters > 0)
        _commit_all(problems)
        first = [p.state() for p in problems]
    else:
        same = (isinstance(start, FilterFit) and start.bank.coeffs.shape == F0.shape
                and start.bank.n0 == cfg.n0 and len(start.problems) == len(problems)
                and all(q.model.kernel == cfg.kernel and np.array_equal(q.rows, p.rows)
                        and np.array_equal(q.y_pm, p.y_pm)
                        for p, q in zip(problems, start.problems))
                and np.array_equal(start.problems[0].Xf, apply_filter(X, start.bank)))
        if not same:
            raise ValueError("a fit takes a start only from a fit on the same samples, "
                             "labels, kernel, f and n0")
        F0, f0, rule, first = _lower_start(problems, X, cfg, start, F0)
    F, history, norms, converged = _descent(problems, X, cfg, F0, f0, rule)
    return FilterFit(bank=FilterBank(F, n0=cfg.n0), history=history,
                     filter_norms=norms, converged=converged, problems=problems,
                     first=first, rule=rule)


def committed_bank(fit: FilterFit, y, cfg: LearnerConfig, *,
                   start: MulticlassModel | None = None) -> MulticlassModel:
    """The multiclass banks at the fit's filter, from the fit's solves.

    ``train_multiclass`` reads the kernel source of the committed solves
    where the fit ended at them, as a fit of zero steps does, so their
    rows are not computed again, and the fit then drops it, keeping the
    filtered array alone.  A c >= 3 bank takes the committed solves as its
    pairwise models; a binary bank starts its pair and the two one-vs-all
    scorers at the committed solution and its running product, optimal
    already, so they take no SMO step and compute no kernel entry.  The c
    one-vs-rest scorers of a c >= 3 bank solve cold or, given ``start``
    (the bank of the fit's start), from its alphas times C / C_start.
    """
    first = fit.problems[0]
    warm_ova = None if start is None else [m.alpha * (cfg.C / m.C) for m in start.one_vs_all]
    mc = train_multiclass(first.Xf if first.kernel is None else first.kernel, y, cfg.C,
                          cfg.kernel, tol=cfg.svm_tol,
                          pairwise={p.pair: p.model for p in fit.problems},
                          pair_products={p.pair: p.u for p in fit.problems},
                          warm_ova=warm_ova)
    for p in fit.problems:
        p.kernel = p._last = None
    return mc
