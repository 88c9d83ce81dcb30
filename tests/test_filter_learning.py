import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from marginfilter import filter_learning, svm
from marginfilter.filter_learning import (
    LearnerConfig,
    RegularizerSpec,
    _commit_all,
    _descent,
    _evaluate,
    _gradient,
    _inner_gradient,
    _lbfgs_direction,
    _make_problems,
    _remember,
    committed_bank,
    fit_shared_filter,
    frobenius_reg,
    group_shrink,
    mixed_norm,
    regularizer_value,
    regularizer_value_grad,
)
from marginfilter.harness import train_pipeline
from marginfilter.persistence import load_model, save_model
from marginfilter.signals import (
    FilterBank,
    ToyParams,
    apply_filter,
    generate_toy,
    make_average_filter,
    shift_signal,
)
from marginfilter.svm import (
    STOP_BOUND,
    DualProducts,
    KernelParams,
    SupportKernel,
    decision_scores,
    kernel_matrix,
    solve_svm_dual,
)


def fixed_alpha_objective(F, X, y, alpha, cfg):
    """Reference objective with the dual variables frozen: the explicit
    function whose finite differences the analytic gradient must match."""
    Xf = apply_filter(X, FilterBank(F, n0=cfg.n0))
    K = kernel_matrix(Xf, Xf, cfg.kernel)
    ay = alpha * y
    reg, _ = regularizer_value_grad(F, cfg.reg)
    return float(alpha.sum() - 0.5 * ay @ K @ ay) + reg


def fd_gradient(F, X, y, alpha, cfg, h=1e-6):
    G = np.zeros_like(F)
    for u in range(F.shape[0]):
        for v in range(F.shape[1]):
            E = np.zeros_like(F)
            E[u, v] = h
            G[u, v] = (fixed_alpha_objective(F + E, X, y, alpha, cfg)
                       - fixed_alpha_objective(F - E, X, y, alpha, cfg)) / (2 * h)
    return G


class ReferenceProblem:
    """A subproblem whose every trial is solved to the KKT tolerance.

    Warm trials are solved through the same kernel source as the fit's:
    its start K @ (alpha * y) sums over the support set only, so it
    differs from the dense product by rounding, and the comparison with
    the bounded line search is exact.  Every solve keeps its running
    products, which the gradient reads, as the fit's do.
    """

    def __init__(self, rows, y_pm):
        self.rows, self.y_pm = rows, y_pm
        self.alpha = self.model = self.last = self.u = self.V = None

    def solve(self, Xf, cfg):
        Xsub = Xf[self.rows]
        if self.alpha is None:
            K = kernel_matrix(Xsub, Xsub, cfg.kernel)
        else:
            K = SupportKernel(Xsub, cfg.kernel)
        self.products = DualProducts(Z=Xsub)
        self.last = solve_svm_dual(K, self.y_pm, cfg.C, kernel=cfg.kernel, tol=cfg.svm_tol,
                                   warm_alpha=self.alpha, products=self.products)
        return self.last.objective

    def commit(self):
        self.model, self.alpha = self.last, self.last.alpha
        self.u, self.V = self.products.u, self.products.V

    def take(self, state):
        """Commit a fit's committed solve (``_Subproblem.state``)."""
        self.model, _, self.u, self.V = state
        self.alpha = self.model.alpha


def reference_evaluate(problems, F, X, cfg):
    Xf = apply_filter(X, FilterBank(F, n0=cfg.n0))
    total = 0.0
    for p in problems:
        total += p.solve(Xf, cfg)
    return total + regularizer_value_grad(F, cfg.reg)[0]


def reference_gradient(problems, F, X, cfg):
    """Filters X again at F for each subproblem's term."""
    Xf = apply_filter(X, FilterBank(F, n0=cfg.n0))
    grad = np.zeros_like(F)
    for p in problems:
        grad += _inner_gradient(F, X, Xf, p.rows, p.y_pm, p.alpha, p.u, p.V, cfg)
    return grad + regularizer_value_grad(F, cfg.reg)[1]


def reference_lbfgs(problems, X, cfg, F0, trials, f0=None, memory=None):
    """The L-BFGS descent with an unbounded line search; each trial appends
    (J, t * slope, J_try) to ``trials``.  The direction and the curvature
    memory are the fit's own helpers, tested on their own against the
    dense BFGS update (``TestLbfgsDirection``); the line-search constants
    are read from ``filter_learning`` at each use, so a patched value
    reaches this descent and the fit alike.  Given ``f0``, the problems
    are committed at F0 already and f0 is J there; ``memory`` is
    (pairs, s, G_prev, step), the pairs and the last accepted step (with
    the gradient where it began and its length) the descent goes on
    with."""
    F = F0.copy()
    if f0 is None:
        J = reference_evaluate(problems, F, X, cfg)
        for p in problems:
            p.commit()
    else:
        J = f0
    pairs, s, G_prev, step = memory or ([], None, None, 1.0)
    history, converged = [J], False
    for _ in range(cfg.max_cg_iters):
        G = reference_gradient(problems, F, X, cfg)
        last, s = s, None
        if last is not None:
            _remember(pairs, last, (G - G_prev).ravel())
        if not np.any(G):
            converged = True
            break
        D, slope = _lbfgs_direction(G, pairs)
        G_prev = G
        if pairs:
            t = 1.0
        elif last is None:  # the descent's first step: norm 1 along -G
            t = 1.0 / np.linalg.norm(G)
        else:
            t = min(step * 2.0, 1e6)
        for _ in range(filter_learning.MAX_HALVINGS):
            J_try = reference_evaluate(problems, F + t * D, X, cfg)
            trials.append((J, t * slope, J_try))
            if J_try <= J + filter_learning.ARMIJO_C1 * t * slope:
                break
            t *= filter_learning.BACKTRACK
        else:
            break
        for p in problems:
            p.commit()
        F_new = F + t * D
        s = (F_new - F).ravel()
        dF = float(np.linalg.norm(s))
        rel = abs(J - J_try) / max(abs(J), 1.0)
        F, J, step = F_new, J_try, t
        history.append(J)
        if rel < filter_learning.TOL_REL_J or dF < cfg.tol_dF:
            converged = True
            break
    return F, history, converged


def reference_prox(problems, X, cfg, F0, trials, f0=None, memory=None):
    """The proximal descent with every trial solved to the end; each trial
    appends (f, bound, f_try) to ``trials``.  The step is the fit's
    ``group_shrink`` (tested on its own), with the Barzilai-Borwein length
    and the sufficient-decrease test written out again here; the
    constants are read from ``filter_learning`` at each use.  ``f0``, the
    smooth part's value, and ``memory`` (s, G_prev, t) as for
    ``reference_lbfgs``."""
    smooth = replace(cfg, reg=RegularizerSpec())
    lam = cfg.reg.lam
    F = F0.copy()
    if f0 is None:
        f = reference_evaluate(problems, F, X, smooth)
        for p in problems:
            p.commit()
    else:
        f = f0
    J = f + lam * mixed_norm(F)
    s, G_prev, t = memory or (None, None, 1.0)
    history, converged = [J], False
    for _ in range(cfg.max_cg_iters):
        G = reference_gradient(problems, F, X, smooth)
        if s is None:
            t = 1.0 / np.linalg.norm(G) if np.any(G) else 1.0
        else:
            y = (G - G_prev).ravel()
            if s @ y > filter_learning._CURVATURE_EPS * np.linalg.norm(s) * np.linalg.norm(y):
                t = (s @ s) / (s @ y)
        G_prev = G
        for _ in range(filter_learning.MAX_HALVINGS):
            F_try = group_shrink(F - t * G, t * lam)
            D = F_try - F
            if not np.any(D):
                break
            bound = f + np.sum(G * D) + np.sum(D * D) / (2.0 * t)
            f_try = reference_evaluate(problems, F_try, X, smooth)
            trials.append((f, bound, f_try))
            if f_try <= bound:
                break
            t *= filter_learning.BACKTRACK
        else:
            break
        if not np.any(D):
            converged = True
            break
        for p in problems:
            p.commit()
        s = D.ravel()
        J_try = f_try + lam * mixed_norm(F_try)
        rel = abs(J - J_try) / max(abs(J), 1.0)
        F, f, J = F_try, f_try, J_try
        history.append(J)
        if rel < filter_learning.TOL_REL_J or np.linalg.norm(s) < cfg.tol_dF:
            converged = True
            break
    return F, history, converged


def reference_continued_start(start, cfg, problems, F_avg):
    """(F0, f0, memory) of a fit at ``start``'s C from ``start``, with
    ``problems`` committed at F0: f at the start's filter and at the
    average filter are the committed optima, summed in problem order,
    plus the smooth penalty, J adds the mixed norm; the lower J wins,
    ties keeping the start.  From the
    start's filter the memory is the start's, each curvature pair's y
    moved by 2 (lam - lam_start) s and the last gradient by the Frobenius
    penalty's gradient change (pairs without curvature dropped); from the
    average filter it is empty."""
    prox = cfg.reg.kind == "mixed_norm"
    smooth = replace(cfg, reg=RegularizerSpec()) if prox else cfg

    def f(states, F):
        total = 0.0
        for model, *_ in states:
            total += model.objective
        return total + regularizer_value(F, smooth.reg)

    def J(f, F):
        return f + cfg.reg.lam * mixed_norm(F) if prox else f

    F_start = start.bank.coeffs
    states = [q.state() for q in start.problems]
    f_start, f_avg = f(states, F_start), f(start.first, F_avg)
    if not np.array_equal(F_start, F_avg) and J(f_avg, F_avg) < J(f_start, F_start):
        for p, state in zip(problems, start.first):
            p.take(state)
        return F_avg, f_avg, None
    for p, state in zip(problems, states):
        p.take(state)
    rule = start.rule
    last = rule.last
    if prox:
        return F_start, f_start, (None, None, 1.0) if last is None else (*last, rule.t)
    shift = 2.0 * (cfg.reg.lam - rule.lam)
    pairs = []
    for s, y in rule.pairs:
        y = y + shift * s
        if s @ y > filter_learning._CURVATURE_EPS * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y))
    if last is None:
        return F_start, f_start, (pairs, None, None, rule.t)
    s, G = last
    return F_start, f_start, (pairs, s, G + shift * (F_start - s.reshape(F_start.shape)),
                              rule.t)


def reference_fit(X, y, cfg, trials=None, start=None):
    """(F, history, converged, problems) of ``fit_shared_filter`` with every
    line-search trial solved to the end; from ``start`` (a fit at the same
    C), by the start and memory rules of ``reference_continued_start``."""
    trials = [] if trials is None else trials
    problems = [ReferenceProblem(p.rows, p.y_pm) for p in _make_problems(y)]
    F = make_average_filter(cfg.f, cfg.n0, X.shape[1]).coeffs
    descent = reference_prox if cfg.reg.kind == "mixed_norm" else reference_lbfgs
    if start is None:
        return (*descent(problems, X, cfg, F, trials), problems)
    F0, f0, memory = reference_continued_start(start, cfg, problems, F)
    return (*descent(problems, X, cfg, F0, trials, f0, memory), problems)


def counted_evaluations():
    """Patch ``filter_learning._evaluate`` with a wrapper that counts its calls."""
    return mock.patch.object(filter_learning, "_evaluate", wraps=filter_learning._evaluate)


def assert_same_fit(X, y, cfg, start=None):
    """The fit equals ``reference_fit``'s, bit for bit, and evaluates the
    objective at the start (none from ``start``) and at each of the
    reference's trials, no more."""
    trials = []
    F, history, converged, ref_problems = reference_fit(X, y, cfg, trials, start)
    with counted_evaluations() as evaluate:
        fit = fit_shared_filter(X, y, cfg, start=start)
    assert evaluate.call_count == (start is None) + len(trials)
    assert_array_equal(fit.bank.coeffs, F)
    assert fit.history == history
    assert fit.converged == converged
    for p, ref in zip(fit.problems, ref_problems, strict=True):
        assert_array_equal(p.alpha, ref.alpha)
        assert (p.model.n_iter, p.model.stop) == (ref.model.n_iter, ref.model.stop)
    return fit


def binary_labels(y):
    return np.where(np.asarray(y) == 1, 1.0, -1.0)


def class_labels(y_pm):
    """Class labels {1, 2} whose subproblem labels are ``y_pm``: class 1,
    the lower one, takes the +1 side."""
    return np.where(np.asarray(y_pm) > 0, 1, 2)


def small_problem(rng, n=40, d=2, sep=2.0):
    """Two shifted blobs; the labels are {1, 2}."""
    X = rng.normal(size=(n, d))
    y = class_labels(np.concatenate([np.ones(n // 2), -np.ones(n - n // 2)]))
    X[: n // 2, 0] += sep
    order = rng.permutation(n)
    return X[order], y[order]


def objective(F, X, y, cfg, warm_from=None):
    """(value, subproblem) of the fit's objective at F: the penalized SVM
    optimum of the single pair, warm from ``warm_from``'s committed solve."""
    problems = _make_problems(y)
    if warm_from is not None:
        problems[0].alpha = warm_from.alpha
    J = _evaluate(problems, F, X, cfg)
    _commit_all(problems)
    return J, problems[0]


def dense_products(Xf, y_pm, alpha, cfg):
    """u = K (alpha * y) and V = K (alpha * y o Xf) from the dense kernel."""
    K = kernel_matrix(Xf, Xf, cfg.kernel)
    w = alpha * y_pm
    return K @ w, K @ (w[:, None] * Xf)


def inner_gradient(F, X, y_pm, alpha, cfg):
    """The SVM term's gradient at F for the given dual variables, over all
    rows, from the dense kernel's products."""
    Xf = apply_filter(X, FilterBank(F, n0=cfg.n0))
    u, V = dense_products(Xf, y_pm, alpha, cfg)
    return _inner_gradient(F, X, Xf, np.arange(len(y_pm)), y_pm, alpha, u, V, cfg)


def support_kernel_gradient(F, X, Xf, rows, y_pm, alpha, cfg):
    """The gradient as the fit computed it before it read the solves'
    products: the kernel K among the rows S' with alpha > 0 built afresh,
    and T = a o (Xf_s o (K a) - K (a o Xf_s)), a = alpha * y on S'."""
    sv = np.flatnonzero(alpha > 0)
    grad = np.zeros(F.shape)
    if len(sv) == 0:
        return grad
    r = rows[sv]
    Xf_s = Xf[r]
    a = alpha[sv] * y_pm[sv]
    K = kernel_matrix(Xf_s, Xf_s, cfg.kernel)
    T = a[:, None] * (Xf_s * np.einsum("ij,j->i", K, a)[:, None] - K @ (a[:, None] * Xf_s))
    for tap in range(F.shape[0]):
        grad[tap] = np.einsum("ij,ij->j", T, shift_signal(X, tap - cfg.n0)[r])
    return grad / cfg.kernel.sigma_k**2


class TestRegularizers:
    def test_frobenius_zero(self):
        val, grad = frobenius_reg(np.zeros((3, 2)))
        assert val == 0.0
        assert_array_equal(grad, np.zeros((3, 2)))

    def test_frobenius_average_filter_value(self):
        val, _ = frobenius_reg(make_average_filter(4, 0, 1).coeffs)
        assert_allclose(val, 0.25)

    def test_frobenius_gradient_matches_fd(self, rng):
        F = rng.normal(size=(4, 3))
        _, grad = frobenius_reg(F)
        h = 1e-8
        for u in range(4):
            for v in range(3):
                E = np.zeros_like(F)
                E[u, v] = h
                fd = (frobenius_reg(F + E)[0] - frobenius_reg(F - E)[0]) / (2 * h)
                assert abs(grad[u, v] - fd) < 1e-6

    def test_mixed_norm_zero(self):
        assert mixed_norm(np.zeros((5, 3))) == 0.0

    def test_mixed_norm_single_column(self):
        F = np.zeros((2, 3))
        F[:, 1] = [3.0, 4.0]
        assert_allclose(mixed_norm(F), 5.0)

    def test_mixed_norm_positive_homogeneity(self, rng):
        F = rng.normal(size=(4, 3))
        for t in (0.0, 0.5, 2.0):
            assert_allclose(mixed_norm(t * F), t * mixed_norm(F), rtol=1e-12)

    def test_mixed_norm_gradient_unavailable(self):
        with pytest.raises(ValueError, match="differentiable"):
            regularizer_value_grad(np.ones((2, 2)), RegularizerSpec("mixed_norm", 1.0))

    @pytest.mark.parametrize("kind, lam, message", [
        ("weighted_frobenius", 1.0, "unknown regularizer kind"),
        ("frobenius", -1.0, "lambda must be finite"),
        ("mixed_norm", np.nan, "lambda must be finite"),
    ])
    def test_invalid_spec_is_rejected(self, kind, lam, message):
        with pytest.raises(ValueError, match=message):
            RegularizerSpec(kind, lam)

    def test_group_shrink(self):
        """Columns below and at tau become exactly 0, a column above it
        shrinks by tau in norm, and an all-zero column stays 0 (no NaN)."""
        F = np.zeros((2, 4))
        F[:, 0] = [0.6, 0.8]  # norm 1 < tau
        F[:, 1] = [0.0, 2.0]  # norm 2 == tau
        F[:, 2] = [3.0, 4.0]  # norm 5 > tau
        with np.errstate(all="raise"):
            out = group_shrink(F, 2.0)
            assert_array_equal(group_shrink(F, 0.0), F)
        assert_array_equal(out[:, [0, 1, 3]], 0.0)
        assert_allclose(out[:, 2], 0.6 * F[:, 2], rtol=1e-15)


def dense_bfgs_direction(G, pairs):
    """-H G with H from the dense BFGS inverse-Hessian update (Nocedal &
    Wright 2006, eq. 6.17), H <- (I - rho s y') H (I - rho y s') + rho s s',
    over ``pairs`` oldest first, from H0 = (s'y / y'y) I of the newest."""
    n = G.size
    s, y = pairs[-1]
    H = (s @ y) / (y @ y) * np.eye(n)
    for s, y in pairs:
        rho = 1.0 / (s @ y)
        V = np.eye(n) - rho * np.outer(y, s)
        H = V.T @ H @ V + rho * np.outer(s, s)
    return -(H @ G.ravel()).reshape(G.shape)


class TestLbfgsDirection:
    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_matches_the_dense_bfgs_update(self, rng, m):
        G = rng.normal(size=(4, 3))
        M = rng.normal(size=(G.size, G.size))
        A = M @ M.T + G.size * np.eye(G.size)  # positive definite: s'As > 0
        steps = [rng.normal(size=G.size) for _ in range(m)]
        pairs = []
        for s in steps:
            _remember(pairs, s, A @ s)
        kept = steps[-filter_learning.LBFGS_MEMORY:]
        assert [s for s, _ in pairs] == kept
        D, slope = _lbfgs_direction(G, pairs)
        assert_allclose(D, dense_bfgs_direction(G, [(s, A @ s) for s in kept]),
                        rtol=1e-10, atol=1e-12)
        assert slope == pytest.approx(float(np.sum(G * D)), rel=1e-14) and slope < 0
        assert len(pairs) == len(kept)

    def test_no_pairs_is_steepest_descent(self, rng):
        G = rng.normal(size=(3, 2))
        D, slope = _lbfgs_direction(G, [])
        assert_array_equal(D, -G)
        assert slope == -float(np.sum(G * G))

    @pytest.mark.parametrize("y, stored", [
        ([-1.0, 0.0], False),    # negative curvature
        ([0.0, 1.0], False),     # s'y = 0
        ([1e-14, 1.0], False),   # s'y below 1e-12 ||s|| ||y||
        ([1e-11, 1.0], True),
    ])
    def test_a_pair_without_curvature_is_not_stored(self, y, stored):
        pairs = []
        _remember(pairs, np.array([1.0, 0.0]), np.array(y))
        assert len(pairs) == stored

    def test_a_non_descent_direction_resets_to_steepest_descent(self, rng):
        G = rng.normal(size=(3, 2))
        s = rng.normal(size=G.size)
        pairs = [(s, -s)]  # negative curvature, as _remember would not store
        D, slope = _lbfgs_direction(G, pairs)
        assert_array_equal(D, -G)
        assert slope == -float(np.sum(G * G))
        assert pairs == []


class TestObjective:
    """The fit's objective (``_evaluate``): the SVM optima at F plus the penalty."""

    def test_average_filter_equals_baseline_objective(self, rng):
        """With no penalty, the joint objective at the average filter is
        exactly the fixed-average-filter SVM optimum."""
        X, y = small_problem(rng)
        cfg = LearnerConfig(C=5.0, kernel=KernelParams(1.0),
                            reg=RegularizerSpec("frobenius", 0.0),
                            f=4, n0=2, svm_tol=1e-8, max_cg_iters=0)
        fit = fit_shared_filter(X, y, cfg)
        bank = make_average_filter(4, 2, 2)
        assert_array_equal(fit.bank.coeffs, bank.coeffs)
        Xf = apply_filter(X, bank)
        K = kernel_matrix(Xf, Xf, cfg.kernel)
        ref = solve_svm_dual(K, binary_labels(y), 5.0, tol=1e-8)
        assert len(fit.history) == 1
        assert_allclose(fit.history[0], ref.objective, atol=1e-9)

    def test_zero_filter_collapses_features(self, rng):
        X, y = small_problem(rng)
        cfg = LearnerConfig(C=5.0, f=3, n0=0, svm_tol=1e-8)
        J, _ = objective(np.zeros((3, 2)), X, y, cfg)
        K = np.ones((len(y), len(y)))  # identical samples
        ref = solve_svm_dual(K, binary_labels(y), 5.0, tol=1e-8)
        assert_allclose(J, ref.objective, atol=1e-8)

    def test_warm_start_matches_cold(self, rng):
        X, y = small_problem(rng)
        cfg = LearnerConfig(C=8.0, f=3, n0=1,
                            reg=RegularizerSpec("frobenius", 0.3), svm_tol=1e-9)
        F1 = rng.normal(size=(3, 2))
        F2 = F1 + 0.05 * rng.normal(size=(3, 2))
        _, p1 = objective(F1, X, y, cfg)
        J_warm, p2 = objective(F2, X, y, cfg, warm_from=p1)
        J_cold, _ = objective(F2, X, y, cfg)
        assert abs(J_warm - J_cold) < 1e-6

    def test_mixed_norm_objective_value_supported(self, rng):
        """The proximal descent records the SVM optima plus lambda times the
        mixed norm; with no descent step, at the starting average filter."""
        X, y = small_problem(rng)
        lam = 2.5
        cfg_mixed = LearnerConfig(C=5.0, f=3, n0=1, reg=RegularizerSpec("mixed_norm", lam),
                                  max_cg_iters=0)
        cfg_plain = LearnerConfig(C=5.0, f=3, n0=1, reg=RegularizerSpec("frobenius", 0.0))
        F = make_average_filter(3, 1, 2).coeffs
        J_plain, _ = objective(F, X, y, cfg_plain)
        fit = fit_shared_filter(X, y, cfg_mixed)
        assert_array_equal(fit.bank.coeffs, F)
        assert_allclose(fit.history, [J_plain + lam * mixed_norm(F)], atol=1e-9)


class TestGradient:
    def test_zero_alpha_gives_zero_inner_gradient(self, rng):
        X, y = small_problem(rng)
        cfg = LearnerConfig(C=5.0, f=3, n0=1, reg=RegularizerSpec("frobenius", 0.0))
        G = inner_gradient(rng.normal(size=(3, 2)), X, binary_labels(y),
                           np.zeros(len(y)), cfg)
        assert_array_equal(G, np.zeros((3, 2)))

    def test_constant_channel_column_is_zero(self, rng):
        """A channel with identical samples contributes nothing: all its
        filtered differences vanish (dual weight kept off the zero-padded
        edges where the constancy breaks)."""
        n, f, n0 = 30, 3, 1
        X = rng.normal(size=(n, 2))
        X[:, 1] = 4.2
        y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
        alpha = np.zeros(n)
        interior = np.arange(f, n - f)
        alpha[interior] = rng.uniform(0.1, 1.0, size=len(interior))
        cfg = LearnerConfig(C=5.0, f=f, n0=n0, reg=RegularizerSpec("frobenius", 0.0))
        G = inner_gradient(rng.normal(size=(f, 2)), X, y, alpha, cfg)
        assert_allclose(G[:, 1], 0.0, atol=1e-12)
        assert np.abs(G[:, 0]).max() > 0

    @staticmethod
    def support_case(rng, n, d, n_sv, f=11, n0=6):
        """(F, X, Xf, y_pm, alpha, cfg) with ``n_sv`` of ``n`` alphas > 0."""
        X = rng.normal(size=(n, d))
        y_pm = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        alpha = np.zeros(n)
        alpha[rng.choice(n, size=n_sv, replace=False)] = rng.uniform(0.1, 10.0, size=n_sv)
        cfg = LearnerConfig(C=10.0, f=f, n0=n0, reg=RegularizerSpec("frobenius", 1.0))
        F = rng.normal(size=(f, d))
        return F, X, apply_filter(X, FilterBank(F, n0=n0)), y_pm, alpha, cfg

    @staticmethod
    def taps(T, X, r, cfg, f):
        return np.stack([(1.0 / cfg.kernel.sigma_k**2) * np.einsum(
            "ij,ij->j", T, shift_signal(X, u - cfg.n0)[r]) for u in range(f)])

    def test_computes_no_kernel_entry(self, rng, monkeypatch):
        """The gradient reads the solve's products u = K a and V = K (a o
        Xf), a = alpha * y: it computes no kernel entry and makes no
        kernel_matrix call, and has the bits of T = a o (Xf_s o u_s - V_s)
        on the rows S' with alpha > 0 (|S'| = 1620 of n = 2000, as at
        C = 10)."""
        n, f = 2000, 11
        F, X, Xf, y_pm, alpha, cfg = self.support_case(rng, n, 2, 1620, f)
        u, V = rng.normal(size=n), rng.normal(size=(n, 2))
        r = np.flatnonzero(alpha > 0)
        a = alpha[r] * y_pm[r]
        want = self.taps(a[:, None] * (Xf[r] * u[r, None] - V[r]), X, r, cfg, f)

        def no_kernel(*args, **kwargs):
            raise AssertionError("the gradient computed a kernel entry")

        monkeypatch.setattr(svm, "_gaussian", no_kernel)
        monkeypatch.setattr(svm, "kernel_matrix", no_kernel)
        got = _inner_gradient(F, X, Xf, np.arange(n), y_pm, alpha, u, V, cfg)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [2, 6, 96])
    def test_the_products_match_the_pair_weight_matrix(self, rng, d):
        """T = a o (Xf_s o (K a) - K (a o Xf_s)) is the Laplacian form
        (diag(W 1) - W) Xf_s of the pair weights W = K o a a', to 1e-12
        relative in each gradient entry's scale."""
        n, f = 300, 5
        F, X, Xf, y_pm, alpha, cfg = self.support_case(rng, n, d, 240, f, n0=2)
        r = np.flatnonzero(alpha > 0)
        Xf_s, ay = Xf[r], alpha[r] * y_pm[r]
        W = kernel_matrix(Xf_s, Xf_s, cfg.kernel) * np.outer(ay, ay)
        want = self.taps(Xf_s * W.sum(axis=1)[:, None] - W @ Xf_s, X, r, cfg, f)
        u, V = dense_products(Xf, y_pm, alpha, cfg)
        got = _inner_gradient(F, X, Xf, np.arange(n), y_pm, alpha, u, V, cfg)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("d", [2, 6, 96])
    def test_the_solves_products_give_the_support_kernel_gradient(self, d, n_classes):
        """The gradient from a committed solve's running products matches
        the one from the kernel among its support vectors built afresh
        (``support_kernel_gradient``), to 1e-12 relative in the gradient's
        scale, after a cold solve and after a warm one."""
        X, y = generate_toy(ToyParams(n=150, sigma_n=0.8, lag=2, nbtot=d,
                                      n_classes=n_classes, seed=31))
        cfg = LearnerConfig(C=20.0, f=3, n0=1, reg=RegularizerSpec("frobenius", 0.0))
        rng = np.random.default_rng(d)
        F = make_average_filter(3, 1, d).coeffs
        problems = _make_problems(y)
        for _ in ("cold", "warm"):
            _evaluate(problems, F, X, cfg)
            _commit_all(problems)
            Xf = apply_filter(X, FilterBank(F, n0=cfg.n0))
            for p in problems:
                got = _inner_gradient(F, X, p.Xf, p.rows, p.y_pm, p.alpha, p.u, p.V, cfg)
                want = support_kernel_gradient(F, X, Xf, p.rows, p.y_pm, p.alpha, cfg)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            F = F + 0.05 * rng.normal(size=F.shape)

    def test_matches_finite_differences(self, rng):
        """The descent's gradient (``_gradient`` on the committed solves)
        against finite differences of the objective with alpha frozen."""
        for d, f in [(1, 1), (2, 3), (3, 5)]:
            n = 50
            X = rng.normal(size=(n, d))
            y = class_labels(np.concatenate([np.ones(n // 2), -np.ones(n // 2)]))
            cfg = LearnerConfig(C=float(rng.uniform(1, 10)),
                                kernel=KernelParams(float(rng.uniform(0.5, 2.0))),
                                reg=RegularizerSpec("frobenius", float(rng.uniform(0, 1))),
                                f=f, n0=int(rng.integers(0, f)), svm_tol=1e-8)
            F = rng.normal(size=(f, d))
            problems = _make_problems(y)
            _evaluate(problems, F, X, cfg)
            _commit_all(problems)
            G = _gradient(problems, F, X, cfg)
            p = problems[0]
            G_fd = fd_gradient(F, X, p.y_pm, p.alpha, cfg)
            denom = max(np.abs(G_fd).max(), 1e-12)
            assert np.abs(G - G_fd).max() / denom < 1e-4


def toy_case(seed, n=220, sigma_n=0.6, lag=2, nbtot=2):
    X, y = generate_toy(ToyParams(n=n, sigma_n=sigma_n, lag=lag, nbtot=nbtot,
                                  seed=seed))
    return X, y


class TestLearnKfSvm:
    """The binary kf-svm fit: Frobenius penalty, L-BFGS descent."""

    def test_zero_iterations_is_average_filter_baseline(self):
        X, y = toy_case(seed=4)
        pipe = train_pipeline(X, y, "kf_svm", C=50.0, sigma_k=1.0, lam=0.5, f=5, n0=2,
                              learner_kwargs={"max_cg_iters": 0})
        assert_array_equal(pipe.filter.coeffs, make_average_filter(5, 2, 2).coeffs)

        bank = make_average_filter(5, 2, 2)
        Xf = apply_filter(X, bank)
        kernel = KernelParams(1.0)
        ref = solve_svm_dual(kernel_matrix(Xf, Xf, kernel), binary_labels(y), 50.0,
                             rows=Xf, kernel=kernel, tol=1e-3)
        Xte, _ = toy_case(seed=5)
        Xte_f = apply_filter(Xte, bank)
        assert_array_equal(np.sign(decision_scores(pipe.model.pairwise[(0, 1)], Xte_f)),
                           np.sign(decision_scores(ref, Xte_f)))

    def test_history_non_increasing(self):
        X, y = toy_case(seed=6)
        cfg = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec("frobenius", 0.5),
                            max_cg_iters=15)
        fit = fit_shared_filter(X, y, cfg)
        hist = np.array(fit.history)
        assert len(hist) >= 2
        assert np.all(np.diff(hist) <= 1e-10)

    def test_final_objective_not_worse_than_start(self):
        X, y = toy_case(seed=7)
        cfg = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec("frobenius", 0.5),
                            max_cg_iters=10)
        fit = fit_shared_filter(X, y, cfg)
        assert fit.history[-1] <= fit.history[0] + 1e-10

    def test_frobenius_shrinkage_with_lambda(self):
        X, y = toy_case(seed=8)
        norms = []
        for lam in (0.1, 30.0):
            cfg = LearnerConfig(C=50.0, f=5, n0=2,
                                reg=RegularizerSpec("frobenius", lam),
                                max_cg_iters=25)
            fit = fit_shared_filter(X, y, cfg)
            norms.append(np.linalg.norm(fit.bank.coeffs))
        assert norms[1] <= norms[0] + 1e-6

    def test_learned_filter_keeps_kernel_psd(self):
        X, y = toy_case(seed=9)
        cfg = LearnerConfig(C=50.0, f=4, n0=1, reg=RegularizerSpec("frobenius", 0.2),
                            max_cg_iters=8)
        fit = fit_shared_filter(X, y, cfg)
        Xf = apply_filter(X, fit.bank)
        K = kernel_matrix(Xf, Xf, cfg.kernel)
        assert np.linalg.eigvalsh(K).min() >= -1e-8


class TestFitSharedFilter:
    def test_filter_longer_than_signal(self):
        # taps u > n delay every sample out of the signal: their gradient
        # rows are zero, not a shape error
        X = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5],
                      [2.0, 1.0], [1.0, 2.0], [1.5, 1.5]])
        y = np.array([1, 1, 1, 2, 2, 2])
        cfg = LearnerConfig(C=10.0, f=11, n0=0, max_cg_iters=3)
        fit = fit_shared_filter(X, y, cfg)
        assert fit.bank.coeffs.shape == (11, 2)
        assert np.all(np.isfinite(fit.bank.coeffs))

    def test_failed_line_search_is_not_converged(self, monkeypatch):
        X, y = toy_case(seed=6)
        monkeypatch.setattr(filter_learning, "MAX_HALVINGS", 1)
        cfg = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec("frobenius", 0.5),
                            max_cg_iters=15)
        fit = fit_shared_filter(X, y, cfg)
        assert len(fit.history) == 1  # the first trial step already failed
        assert not fit.converged

    @pytest.mark.parametrize("kind", ["frobenius", "mixed_norm"])
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_a_start_continues_where_its_fit_ended(self, monkeypatch, n_classes, kind):
        X, y = generate_toy(ToyParams(n=240, sigma_n=0.6, lag=2, n_classes=n_classes,
                                      seed=12))
        cfg = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec(kind, 2.0),
                            max_cg_iters=5)
        first = fit_shared_filter(X, y, cfg)
        # no descent step: the start's filter, each pair at its committed
        # solve, optimal on the same filtered signal, so nothing is solved
        solves = []
        solve = filter_learning.solve_svm_dual

        def recording(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(filter_learning, "solve_svm_dual", recording)
        again = fit_shared_filter(X, y, replace(cfg, max_cg_iters=0), start=first)
        assert solves == []
        assert_array_equal(again.bank.coeffs, first.bank.coeffs)
        assert again.history == first.history[-1:]
        for p, q in zip(again.problems, first.problems, strict=True):
            assert p.model is q.model and p.u is q.u and p.V is q.V
        # a smaller lambda descends from there
        path = fit_shared_filter(X, y, replace(cfg, reg=RegularizerSpec(kind, 0.2)),
                                 start=first)
        assert path.problems[0].model is not first.problems[0].model
        assert np.all(np.diff(path.history) <= 1e-10)

    @pytest.mark.parametrize("change", [
        {"kernel": KernelParams(0.5)}, {"f": 4}, {"n0": 1}, "fewer samples",
        "other samples", "labels"])
    def test_a_start_must_match_the_fit(self, change):
        X, y = toy_case(seed=6)
        cfg = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec("frobenius", 1.0),
                            max_cg_iters=1)
        start = fit_shared_filter(X, y, cfg)
        if change == "fewer samples":
            X, y = X[1:], y[1:]
        elif change == "other samples":  # the same class layout
            X = X + 1e-3
        elif change == "labels":
            y = y[::-1]
        else:
            cfg = replace(cfg, **change)
        with pytest.raises(ValueError, match="a fit takes a start only from a fit on the "
                                             "same samples, labels, kernel, f and n0"):
            fit_shared_filter(X, y, cfg, start=start)

    @pytest.mark.parametrize("max_cg_iters", [0, 2])
    def test_a_start_at_another_C_seeds_its_alphas_scaled(self, monkeypatch, max_cg_iters):
        """Alpha seeding: each pair starts from the start's committed alpha
        times C / C_start; at the average filter it ends within the
        solver's tolerance of the cold fit's objective."""
        X, y = toy_case(seed=6)
        cfg = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec("frobenius", 1.0),
                            max_cg_iters=max_cg_iters)
        start = fit_shared_filter(X, y, cfg)
        seeds = []
        solve = filter_learning.solve_svm_dual

        def recording(*args, warm_alpha=None, **kwargs):
            seeds.append(warm_alpha)
            return solve(*args, warm_alpha=warm_alpha, **kwargs)

        monkeypatch.setattr(filter_learning, "solve_svm_dual", recording)
        fit = fit_shared_filter(X, y, replace(cfg, C=5.0), start=start)
        assert_array_equal(seeds[0], start.problems[0].alpha * (5.0 / 50.0))
        assert fit.problems[0].model.C == 5.0 and fit.problems[0].model.converged
        if max_cg_iters == 0:  # both at the average filter
            cold = fit_shared_filter(X, y, replace(cfg, C=5.0))
            assert fit.history == pytest.approx(cold.history, rel=1e-5)

    @pytest.mark.parametrize("method", ["svm", "avg_svm"])
    def test_a_fixed_filter_starts_from_its_pipeline_at_another_C(self, method):
        X, y = toy_case(seed=6)
        start = train_pipeline(X, y, method, C=50.0, sigma_k=1.0, f=5, n0=2)
        pipe = train_pipeline(X, y, method, C=5.0, sigma_k=1.0, f=5, n0=2, start=start)
        cold = train_pipeline(X, y, method, C=5.0, sigma_k=1.0, f=5, n0=2)
        assert pipe.model.pairwise[(0, 1)].converged
        assert pipe.model.pairwise[(0, 1)].objective == pytest.approx(
            cold.model.pairwise[(0, 1)].objective, rel=1e-5)

    @staticmethod
    def mismatched_start(method, change, cell, X, y, tmp_path):
        """A start that differs from ``cell`` (train_pipeline keywords) of
        ``method`` by ``change``."""
        other = {"svm": "avg_svm", "avg_svm": "svm", "kf_svm": "skf_svm",
                 "skf_svm": "kf_svm"}[method]
        if change == "filter fit":
            return fit_shared_filter(X, y, LearnerConfig(C=50.0, f=5, n0=2, max_cg_iters=1))
        if change == "other method":
            return train_pipeline(X, y, other, **cell)
        if change == "sigma_k":
            return train_pipeline(X, y, method, **{**cell, "sigma_k": 0.5})
        if change == "samples":
            return train_pipeline(X + 1e-3, y, method, **cell)
        if change == "labels":
            return train_pipeline(X, y[::-1], method, **cell)
        if change == "geometry":  # svm ignores f and n0: another channel count
            return (train_pipeline(np.hstack([X, X]), y, method, **cell) if method == "svm"
                    else train_pipeline(X, y, method, **{**cell, "f": 4, "n0": 1}))
        # a pipeline read from a file: no fit and no alphas
        pipe = train_pipeline(X, y, method, **cell)
        save_model(tmp_path / "model.json", pipe)
        return load_model(tmp_path / "model.json", pipe.filter)

    STARTS = ["filter fit", "other method", "sigma_k", "samples", "labels", "geometry",
              "loaded"]

    @pytest.mark.parametrize("method", ["svm", "avg_svm"])
    @pytest.mark.parametrize("change", STARTS)
    def test_a_fixed_filter_start_must_match_the_cell(self, method, change, tmp_path):
        """A fixed filter starts only from a pipeline of its own method on
        the same samples, labels, sigma_k, f and n0 that holds its fit."""
        X, y = toy_case(seed=6)
        cell = dict(C=50.0, sigma_k=1.0, f=5, n0=2)
        start = self.mismatched_start(method, change, cell, X, y, tmp_path)
        with pytest.raises(ValueError, match="takes a start only from a"):
            train_pipeline(X, y, method, **{**cell, "C": 5.0}, start=start)

    @pytest.mark.parametrize("method", ["kf_svm", "skf_svm"])
    @pytest.mark.parametrize("change", STARTS)
    def test_a_learned_filter_start_must_match_the_cell(self, method, change, tmp_path):
        """The same start check as a fixed filter's: a start on other
        samples with the same class layout, or on other labels, is
        refused too."""
        X, y = toy_case(seed=6)
        cell = dict(C=50.0, sigma_k=1.0, lam=1.0, f=5, n0=2,
                    learner_kwargs={"max_cg_iters": 1})
        start = self.mismatched_start(method, change, cell, X, y, tmp_path)
        with pytest.raises(ValueError, match="takes a start only from a"):
            train_pipeline(X, y, method, **{**cell, "lam": 0.5}, start=start)

    @pytest.mark.parametrize("method", ["kf_svm", "skf_svm"])
    def test_a_learned_filter_starts_from_its_pipeline(self, method):
        X, y = toy_case(seed=6)
        cell = dict(C=50.0, sigma_k=1.0, f=5, n0=2, learner_kwargs={"max_cg_iters": 2})
        start = train_pipeline(X, y, method, lam=1.0, **cell)
        pipe = train_pipeline(X, y, method, lam=0.5, start=start, **cell)
        kind = "mixed_norm" if method == "skf_svm" else "frobenius"
        cfg = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec(kind, 0.5), max_cg_iters=2)
        fit = fit_shared_filter(X, y, cfg, start=start.fit)
        assert_array_equal(pipe.filter.coeffs, fit.bank.coeffs)
        assert pipe.history == fit.history

    @pytest.mark.parametrize("n_labels", [150, 210])
    def test_label_count_must_match_samples(self, n_labels):
        X, y = toy_case(seed=6, n=200)
        y = np.resize(y, n_labels)
        with pytest.raises(ValueError, match=f"label length {n_labels} does not match"):
            fit_shared_filter(X, y, LearnerConfig(C=50.0, f=5, n0=2, max_cg_iters=2))


class TestLearnerConfig:
    @pytest.mark.parametrize("name", ["C", "tol_dF", "svm_tol"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_positive_finite_fields(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            LearnerConfig(**{name: value})


    @pytest.mark.parametrize("value", [-3, -1, 2.5, True, "3", None])
    def test_max_cg_iters_is_a_count(self, value):
        with pytest.raises(ValueError, match=f"max_cg_iters must be an integer >= 0, "
                                             f"got {re.escape(repr(value))}"):
            LearnerConfig(max_cg_iters=value)

    @pytest.mark.parametrize("value", [0, 1, np.int64(7)])
    def test_max_cg_iters_takes_zero_and_numpy_integers(self, value):
        assert LearnerConfig(max_cg_iters=value).max_cg_iters == value


class TestEarlyRejection:
    """Line-search trials cut short by a lower bound: the fit must be the
    one an unbounded line search gives, to the bit."""

    def test_binary_frobenius_fit(self):
        X, y = toy_case(seed=6)
        cfg = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec("frobenius", 0.5),
                            max_cg_iters=15)
        fit = assert_same_fit(X, y, cfg)
        assert len(fit.history) > 5

    def test_three_class_fit(self):
        X, y = generate_toy(ToyParams(n=240, sigma_n=0.8, lag=3, nbtot=2,
                                      n_classes=3, seed=21))
        cfg = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec("frobenius", 1.0),
                            max_cg_iters=12)
        fit = assert_same_fit(X, y, cfg)
        assert len(fit.problems) == 3 and len(fit.history) > 3

    def test_mixed_norm_proximal_fit(self):
        X, y = toy_case(seed=12, n=200, sigma_n=0.5, lag=0, nbtot=6)
        cfg = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec("mixed_norm", 8.0),
                            max_cg_iters=12)
        fit = assert_same_fit(X, y, cfg)
        assert len(fit.history) > 1

    def test_trial_at_the_threshold_survives_a_bound_off_by_rounding(self, monkeypatch):
        """A trial whose objective equals the Armijo threshold is accepted,
        even when the solver's running dual overstates by 1e-12."""
        X, y = toy_case(seed=6)
        base = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec("frobenius", 0.5),
                             max_cg_iters=1)
        trials = []
        reference_fit(X, y, base, trials)
        J, t_slope, J_try = next(trial for trial in trials if trial[2]
                                 <= trial[0] + filter_learning.ARMIJO_C1 * trial[1])
        # the c1 whose threshold J + c1 * t * slope is the smallest one >= J_try;
        # it is stricter than the module's, so the trials before stay rejected
        c1 = (J_try - J) / t_slope
        while J + c1 * t_slope < J_try:
            c1 = np.nextafter(c1, 0.0)
        while J + np.nextafter(c1, np.inf) * t_slope >= J_try:
            c1 = np.nextafter(c1, np.inf)
        monkeypatch.setattr(filter_learning, "ARMIJO_C1", float(c1))

        solve = filter_learning.solve_svm_dual

        def overstating(*args, stop_above=np.inf, **kwargs):
            if np.isfinite(stop_above):
                stop_above -= 1e-12 * max(1.0, abs(stop_above))
            return solve(*args, stop_above=stop_above, **kwargs)

        monkeypatch.setattr(filter_learning, "solve_svm_dual", overstating)
        fit = assert_same_fit(X, y, base)
        assert len(fit.history) == 2  # the trial at the threshold was taken

    def test_lost_warm_start_stops_after_the_support_rows(self, monkeypatch):
        """A trial whose warm start already exceeds the bound computes the
        rows of K[:, S] up to the block that completes S's rows, takes no
        SMO step, and returns the start's dual."""
        X, y = toy_case(seed=6, n=1000)
        cfg = LearnerConfig(C=50.0, f=5, n0=2)
        p = _make_problems(y)[0]
        Xf = apply_filter(X, make_average_filter(5, 2, 2))
        J = p.solve(SupportKernel(Xf, cfg.kernel), cfg)
        p.commit()
        n_sv = int(np.sum(p.alpha > 0))
        assert 0 < n_sv and n_sv + svm.PRODUCT_CHUNK_ROWS < len(p.rows)

        shapes = TestKernelOnDemand.recorded_shapes(monkeypatch)
        solve = filter_learning.solve_svm_dual
        models = []

        def recording_solve(*args, **kwargs):
            models.append(solve(*args, **kwargs))
            return models[-1]

        monkeypatch.setattr(filter_learning, "solve_svm_dual", recording_solve)
        stop_above = 0.5 * J
        bound = p.solve(SupportKernel(Xf, cfg.kernel), cfg, stop_above=stop_above)
        assert {b for _, b in shapes} == {n_sv}  # columns of S only
        assert n_sv <= sum(a for a, _ in shapes) <= n_sv + svm.PRODUCT_CHUNK_ROWS
        [model] = models
        assert (model.n_iter, model.stop) == (0, STOP_BOUND)
        assert_array_equal(model.alpha, p.alpha)

        Xsub = Xf[p.rows]
        w = p.alpha * p.y_pm
        start = p.alpha.sum() - 0.5 * w @ kernel_matrix(Xsub, Xsub, cfg.kernel) @ w
        assert bound == model.objective > stop_above
        assert abs(bound - start) <= 1e-12 * abs(start)
        with pytest.raises(TypeError):
            p.commit()  # nothing to commit from a lost trial


class TestKernelOnDemand:
    """Every solve reads its kernel through a SupportKernel: a cold solve
    computes the rows its steps touch, a warm trial the support columns
    of its start and the rows its steps touch, and no fit, bank or
    pipeline builds the kernel of a whole subproblem."""

    @staticmethod
    def recorded_shapes(monkeypatch):
        shapes = []

        gaussian = svm._gaussian

        def recording(A, B, scale, out=None):
            shapes.append((len(A), len(B)))
            return gaussian(A, B, scale, out=out)

        # every kernel entry, a kernel_matrix block or a cached row, comes from here
        monkeypatch.setattr(svm, "_gaussian", recording)
        return shapes

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_no_full_kernel_after_the_cold_start(self, monkeypatch, n_classes):
        X, y = generate_toy(ToyParams(n=240, sigma_n=0.8, lag=3, nbtot=2,
                                      n_classes=n_classes, seed=21))
        cfg = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec("frobenius", 1.0),
                            max_cg_iters=8)
        shapes = self.recorded_shapes(monkeypatch)
        fit = fit_shared_filter(X, y, cfg)
        sizes = [len(p.rows) for p in fit.problems]
        # the cold start reads rows of the evaluation's one kernel, each
        # pair through its subset, not the kernel of a subproblem
        assert shapes[0] == (1, len(y))
        assert len(fit.history) > 3 and len(shapes) > 10 * len(sizes)
        assert not {(m, m) for m in [*sizes, len(y)]} & set(shapes)
        assert all(len(p.model.sv_idx) < m for p, m in zip(fit.problems, sizes))

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("method", ["svm", "avg_svm", "kf_svm", "skf_svm"])
    def test_no_full_kernel_in_a_pipeline(self, monkeypatch, method, n_classes):
        X, y = generate_toy(ToyParams(n=180, sigma_n=0.8, lag=3, nbtot=3,
                                      n_classes=n_classes, seed=22))
        shapes = self.recorded_shapes(monkeypatch)
        pipe = train_pipeline(X, y, method, C=50.0, sigma_k=1.0, lam=1.0, f=5, n0=2,
                              learner_kwargs={"max_cg_iters": 4})
        classes = pipe.model.classes
        sizes = {len(y)} | {int(np.sum((y == classes[a]) | (y == classes[b])))
                            for a, b in pipe.model.pairwise}
        assert shapes and not {(m, m) for m in sizes} & set(shapes)
        # a solve reads rows; a warm one also blocks of its support columns
        assert (1, len(y)) in shapes or (1, min(sizes)) in shapes

    def test_peak_memory_below_one_full_kernel(self, monkeypatch):
        import tracemalloc

        n = 3000
        X, y = generate_toy(ToyParams(n=n, sigma_n=1.0, lag=5, nbtot=2, seed=23))
        monkeypatch.setattr(svm, "KERNEL_CACHE_BYTES", 2**20)
        tracemalloc.start()
        try:
            pipe = train_pipeline(X, y, "kf_svm", C=100.0, sigma_k=1.0, lam=1.0, f=5,
                                  n0=2, learner_kwargs={"max_cg_iters": 2})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pipe.history) > 1
        assert peak < 8 * n * n


class TestLearnSkfSvm:
    """The channel-selecting skf-svm fit: mixed-norm penalty by proximal
    descent."""

    def test_mixed_norm_objective_non_increasing(self):
        X, y = toy_case(seed=11, n=200, nbtot=4)
        cfg = LearnerConfig(C=30.0, f=5, n0=2,
                            reg=RegularizerSpec("mixed_norm", 3.0),
                            max_cg_iters=12)
        fit = fit_shared_filter(X, y, cfg)
        hist = np.array(fit.history)
        assert len(hist) >= 2
        assert np.all(np.diff(hist) <= 1e-6)

    def test_noise_channels_suppressed(self):
        X, y = toy_case(seed=12, n=400, sigma_n=0.5, lag=0, nbtot=4)
        cfg = LearnerConfig(C=50.0, f=5, n0=2,
                            reg=RegularizerSpec("mixed_norm", 8.0),
                            max_cg_iters=20)
        fit = fit_shared_filter(X, y, cfg)
        norms = np.linalg.norm(fit.bank.coeffs, axis=0)
        assert_array_equal(norms[2:], 0.0)
        assert np.all(norms[:2] > 0.1)

    def test_a_filter_shrunk_to_zero_is_stationary(self):
        """A lambda that drops every channel ends at F = 0, where the SVM
        gradient vanishes and the proximal step stays put: the fit stops
        there, converged, after that one step."""
        X, y = toy_case(seed=5, n=200, nbtot=4)
        cfg = LearnerConfig(C=10.0, f=3, n0=1, reg=RegularizerSpec("mixed_norm", 1000.0),
                            max_cg_iters=5)
        fit = fit_shared_filter(X, y, cfg)
        assert_array_equal(fit.bank.coeffs, 0.0)
        assert fit.converged and len(fit.history) == 2


class TestDescent:
    """The one descent loop, with either step rule."""

    @pytest.mark.parametrize("kind", ["frobenius", "mixed_norm"])
    def test_a_zero_filter_is_stationary(self, kind):
        """At F = 0 every filtered sample is 0, so the gradient vanishes and
        the L-BFGS and the proximal trial points are both F: the descent,
        given F0 committed and its value, ends converged without an
        evaluation."""
        X, y = toy_case(seed=5, n=200)
        cfg = LearnerConfig(C=10.0, f=3, n0=1, reg=RegularizerSpec(kind, 1.0),
                            max_cg_iters=5)
        F0 = np.zeros((3, 2))
        problems = _make_problems(y)
        smooth, rule = filter_learning._split(cfg)
        f0 = _evaluate(problems, F0, X, smooth)
        _commit_all(problems)
        with counted_evaluations() as evaluate:
            F, history, norms, converged = _descent(problems, X, cfg, F0, f0, rule)
        assert converged and history == [f0] and norms == [0.0]
        assert_array_equal(F, F0)
        assert evaluate.call_count == 0


class TestContinuedFit:
    """A fit from a start at the start's C solves nothing before its first
    trial step and keeps the start's step memory."""

    @staticmethod
    def chain(kind, n_classes, lams, max_cg_iters=6):
        X, y = generate_toy(ToyParams(n=220, sigma_n=0.7, lag=2, nbtot=4 if kind ==
                                      "mixed_norm" else 2, n_classes=n_classes, seed=9))
        cfg = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec(kind, lams[0]),
                            max_cg_iters=max_cg_iters)
        return X, y, cfg, fit_shared_filter(X, y, cfg)

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("kind, lams", [("frobenius", (1.0, 0.5)),
                                            ("frobenius", (1000.0, 0.5)),
                                            ("mixed_norm", (8.0, 2.0)),
                                            ("mixed_norm", (1000.0, 2.0))])
    def test_no_solve_before_the_first_trial(self, monkeypatch, kind, lams, n_classes):
        """Both starting filters are valued from committed optima, so the
        first solve is the first trial's, inside the first evaluation."""
        X, y, cfg, start = self.chain(kind, n_classes, lams)
        events = []
        solve, evaluate = filter_learning.solve_svm_dual, filter_learning._evaluate

        def recording_solve(*args, **kwargs):
            events.append("solve")
            return solve(*args, **kwargs)

        def recording_evaluate(*args, **kwargs):
            events.append("evaluate")
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(filter_learning, "solve_svm_dual", recording_solve)
        monkeypatch.setattr(filter_learning, "_evaluate", recording_evaluate)
        fit = fit_shared_filter(X, y, replace(cfg, reg=RegularizerSpec(kind, lams[1])),
                                start=start)
        assert events[0] == "evaluate" and "solve" in events
        assert len(fit.history) > 1
        # a start collapsed to about 0 loses to the average filter
        F_avg = make_average_filter(5, 2, X.shape[1]).coeffs
        assert (fit.filter_norms[0] == np.linalg.norm(F_avg)) == (lams[0] == 1000.0)

    @pytest.mark.parametrize("kind, lams", [("frobenius", (1.0, 0.5)),
                                            ("frobenius", (1000.0, 0.5)),
                                            ("mixed_norm", (8.0, 2.0)),
                                            ("mixed_norm", (1000.0, 2.0))])
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_a_continued_fit_is_the_reference_descent(self, kind, lams, n_classes):
        """Bit for bit the descent of ``reference_fit`` from the same start,
        with the start and memory rules written out there again, and no
        evaluation but its trials."""
        X, y, cfg, start = self.chain(kind, n_classes, lams)
        fit = assert_same_fit(X, y, replace(cfg, reg=RegularizerSpec(kind, lams[1])),
                              start=start)
        assert len(fit.history) > 1

    def test_a_continued_fit_keeps_the_start_memory(self):
        """From the start's filter the first direction is the start's
        L-BFGS direction, the start's pairs moved to the new lambda: the
        first trial length is 1, not the 1/||G|| of a fresh memory."""
        X, y, cfg, start = self.chain("frobenius", 2, (1.0, 0.5), max_cg_iters=4)
        assert not start.converged and start.rule.pairs and start.rule.last is not None
        rule = start.rule.at_lambda(0.5, start.bank.coeffs)
        assert len(rule.pairs) == len(start.rule.pairs)
        for (s, y_new), (s0, y0) in zip(rule.pairs, start.rule.pairs):
            assert s is s0
            assert_array_equal(y_new, y0 + 2.0 * (0.5 - 1.0) * s0)
        lengths = []
        first_t = filter_learning._LbfgsStep.first_t

        def recording(self, G):
            lengths.append(first_t(self, G))
            return lengths[-1]

        with mock.patch.object(filter_learning._LbfgsStep, "first_t", recording):
            fit_shared_filter(X, y, replace(cfg, reg=RegularizerSpec("frobenius", 0.5)),
                              start=start)
        assert lengths[0] == 1.0


class TestZeroStepStart:
    def test_a_stepping_fit_solves_a_zero_step_start_again_for_its_products(self):
        """A fit of zero steps keeps no V; a fit from it that takes steps
        solves its start again, from the committed alpha, for the
        products its gradient reads."""
        X, y, cfg, start = TestContinuedFit.chain("frobenius", 3, (1.0,), max_cg_iters=0)
        assert all(p.V is None for p in start.problems)
        fit = fit_shared_filter(X, y, replace(cfg, max_cg_iters=4), start=start)
        assert all(p.V is not None for p in fit.problems)
        assert all(V is not None for *_, V in fit.first)
        assert len(fit.history) > 1 and np.all(np.diff(fit.history) <= 0)
        assert fit.history[0] == pytest.approx(start.history[0], rel=1e-12)


class TestCarriedMemory:
    """The step memory moved to another lambda (``at_lambda``)."""

    @staticmethod
    def quadratic(rng, m=6):
        """Gradient of 0.5 F'AF + b'F + lam ||F||^2, A symmetric positive
        definite, F of shape (3, 2)."""
        B = rng.normal(size=(m, m))
        A, b = B @ B.T + m * np.eye(m), rng.normal(size=m)
        return lambda F, lam: (A @ F.ravel() + b + 2.0 * lam * F.ravel()).reshape(3, 2)

    @staticmethod
    def walk(grad, lam, steps):
        """An L-BFGS memory over the given steps at lam: each step
        accepted after the gradient at its start."""
        rule = filter_learning._LbfgsStep(lam)
        F = np.zeros((3, 2))
        for s in steps:
            G = grad(F, lam)
            rule.first_t(G)
            rule.accept(s.ravel(), G, 0.5)
            F = F + s
        return rule, F

    @pytest.mark.parametrize("lams", [(4.0, 0.25), (0.25, 4.0), (1.0, 0.0)])
    def test_shifted_pairs_equal_pairs_taken_at_the_new_lambda(self, rng, lams):
        grad = self.quadratic(rng)
        steps = [0.3 * rng.normal(size=(3, 2)) for _ in range(7)]
        carried, F = self.walk(grad, lams[0], steps)
        carried = carried.at_lambda(lams[1], F)
        direct, F_direct = self.walk(grad, lams[1], steps)
        assert_array_equal(F, F_direct)
        assert len(carried.pairs) == len(direct.pairs) == filter_learning.LBFGS_MEMORY
        for (s, y), (s_d, y_d) in zip(carried.pairs, direct.pairs):
            assert_array_equal(s, s_d)
            assert_allclose(y, y_d, rtol=1e-12, atol=1e-12)
        # the pending step: the next gradient completes the same pair
        G = grad(F, lams[1])
        carried.first_t(G)
        direct.first_t(G)
        assert_allclose(carried.pairs[-1][1], direct.pairs[-1][1], rtol=1e-12, atol=1e-12)
        assert_allclose(carried.D, direct.D, rtol=1e-10)

    def test_a_pair_that_loses_its_curvature_is_dropped(self):
        s = np.array([1.0, 0.0])
        rule = filter_learning._LbfgsStep(2.0)
        rule.pairs = [(s, np.array([1.0, 0.0])), (s, np.array([5.0, 0.0]))]
        # y + 2 (0 - 2) s = y - 4 s: the first pair's s'y turns negative
        moved = rule.at_lambda(0.0, np.zeros(2))
        assert len(moved.pairs) == 1
        assert_array_equal(moved.pairs[0][1], [1.0, 0.0])
        assert len(rule.pairs) == 2  # the start's memory is left as it was

    def test_the_proximal_memory_carries_over_unchanged(self, rng):
        rule = filter_learning._ProxStep(8.0)
        s, G = rng.normal(size=6), rng.normal(size=(3, 2))
        rule.accept(s, G, 0.125)
        moved = rule.at_lambda(2.0, rng.normal(size=(3, 2)))
        assert moved.lam == 2.0 and moved.last[0] is s and moved.last[1] is G
        assert moved.t == 0.125


class TestMulticlassFilter:
    """One filter shared by the pairwise subproblems of any class count."""

    def test_two_classes_reduces_to_binary_learner(self):
        """The two-class pipeline is the binary fit and its one pair."""
        X, y = toy_case(seed=13, n=150)
        cfg = LearnerConfig(C=20.0, f=3, n0=1, reg=RegularizerSpec("frobenius", 0.5),
                            max_cg_iters=6)
        pipe = train_pipeline(X, y, "kf_svm", C=20.0, sigma_k=1.0, lam=0.5, f=3, n0=1,
                              learner_kwargs={"max_cg_iters": 6})
        binary = fit_shared_filter(X, y, cfg)
        assert len(binary.problems) == 1
        assert_allclose(pipe.filter.coeffs, binary.bank.coeffs, atol=1e-12)
        assert set(pipe.model.pairwise) == {(0, 1)}
        assert len(pipe.model.one_vs_all) == 2

    def test_duplicated_class_distribution_completes(self, rng):
        # classes 2 and 3 drawn from the same distribution: the (2,3)
        # pair is undiscriminable but training must still finish
        X = rng.normal(size=(90, 2))
        X[:30, 0] += 3.0
        y = np.array([1] * 30 + [2] * 30 + [3] * 30)
        cfg = LearnerConfig(C=5.0, f=2, n0=0, reg=RegularizerSpec("frobenius", 0.5),
                            max_cg_iters=3)
        fit = fit_shared_filter(X, y, cfg)
        mc = committed_bank(fit, y, cfg)
        assert len(mc.pairwise) == 3
        assert np.all(np.isfinite(fit.bank.coeffs))

    def test_three_class_toy_improves_on_unfiltered(self):
        """Learned filtering must beat the raw-sample multiclass SVM on
        the lagged 3-class signal (online voting on a held-out slice)."""
        from marginfilter.harness import error_rate, toy_split

        params = ToyParams(n=1, sigma_n=0.8, lag=3, nbtot=2, n_classes=3)
        wins = 0
        for seed in range(3):
            (Xtr, ytr), _, (Xte, yte) = toy_split(params, seed, 400, 1, 800)
            raw = train_pipeline(Xtr, ytr, "svm", C=50.0, sigma_k=1.0)
            kf = train_pipeline(Xtr, ytr, "kf_svm", C=50.0, sigma_k=1.0,
                                lam=1.0, f=7, n0=3,
                                learner_kwargs={"max_cg_iters": 15})
            e_raw = error_rate(raw.predict(Xte), yte)
            e_kf = error_rate(kf.predict(Xte), yte)
            if e_kf < e_raw:
                wins += 1
        assert wins >= 2

    def test_single_class_rejected(self, rng):
        X = rng.normal(size=(20, 2))
        with pytest.raises(ValueError, match="2 classes"):
            fit_shared_filter(X, np.ones(20, dtype=int), LearnerConfig())
