from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from marginfilter import filter_learning
from marginfilter.filter_learning import (
    LearnerConfig,
    RegularizerSpec,
    _inner_gradient,
    _make_problems,
    filter_objective,
    filter_objective_gradient,
    fit_shared_filter,
    frobenius_reg,
    learn_kf_svm,
    learn_multiclass_filter,
    learn_skf_svm,
    mixed_norm,
    mm_weight_update,
    regularizer_value_grad,
    weighted_frobenius_reg,
)
from marginfilter.signals import (
    FilterBank,
    ToyParams,
    apply_filter,
    generate_toy,
    make_average_filter,
)
from marginfilter.svm import KernelParams, decision_scores, kernel_matrix, solve_svm_dual


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
    """A subproblem whose every trial is solved to the KKT tolerance."""

    def __init__(self, rows, y_pm):
        self.rows, self.y_pm = rows, y_pm
        self.alpha = self.model = self.last = None

    def solve(self, Xf, cfg):
        Xsub = Xf[self.rows]
        self.last = solve_svm_dual(kernel_matrix(Xsub, Xsub, cfg.kernel), self.y_pm, cfg.C,
                                   kernel=cfg.kernel, tol=cfg.svm_tol,
                                   max_iter=cfg.svm_max_iter, warm_alpha=self.alpha)
        return self.last.objective

    def commit(self):
        self.model, self.alpha = self.last, self.last.alpha


def reference_evaluate(problems, F, X, cfg):
    Xf = apply_filter(X, FilterBank(F, n0=cfg.n0))
    total = 0.0
    for p in problems:
        total += p.solve(Xf, cfg)
    return total + regularizer_value_grad(F, cfg.reg)[0]


def reference_gradient(problems, F, X, cfg):
    """Filters X again and rebuilds each support-vector kernel at F."""
    Xf = apply_filter(X, FilterBank(F, n0=cfg.n0))
    grad = np.zeros_like(F)
    for p in problems:
        Xs = Xf[p.rows[p.alpha > 0]]
        grad += _inner_gradient(F, X, Xf, p.rows, p.y_pm, p.alpha,
                                kernel_matrix(Xs, Xs, cfg.kernel), cfg)
    return grad + regularizer_value_grad(F, cfg.reg)[1]


def reference_cg(problems, X, cfg, F0, trials):
    """The conjugate-gradient descent with an unbounded line search; each
    trial appends (J, t * slope, J_try) to ``trials``."""
    F = F0.copy()
    J = reference_evaluate(problems, F, X, cfg)
    for p in problems:
        p.commit()
    history, G_prev, D, step, converged = [J], None, np.zeros_like(F), 1.0, False
    for it in range(cfg.max_cg_iters):
        G = reference_gradient(problems, F, X, cfg)
        gnorm2 = float(np.sum(G * G))
        if gnorm2 == 0.0:
            converged = True
            break
        beta = 0.0 if G_prev is None or it % max(F.size, 1) == 0 \
            else gnorm2 / float(np.sum(G_prev * G_prev))
        D = -G + beta * D
        slope = float(np.sum(G * D))
        if slope >= 0.0:
            D, slope = -G, -gnorm2
        G_prev = G
        t = min(step * 2.0, 1e6)
        for _ in range(cfg.max_halvings):
            J_try = reference_evaluate(problems, F + t * D, X, cfg)
            trials.append((J, t * slope, J_try))
            if J_try <= J + cfg.armijo_c1 * t * slope:
                break
            t *= cfg.backtrack
        else:
            break
        for p in problems:
            p.commit()
        F_new = F + t * D
        dF = float(np.linalg.norm(F_new - F))
        rel = abs(J - J_try) / max(abs(J), 1.0)
        F, J, step = F_new, J_try, t
        history.append(J)
        if rel < cfg.tol_rel_J or dF < cfg.tol_dF:
            converged = True
            break
    return F, history, converged


def reference_fit(X, y, cfg, trials=None):
    """(F, history, converged, problems) of ``fit_shared_filter`` with every
    line-search trial solved to the end."""
    trials = [] if trials is None else trials
    problems = [ReferenceProblem(p.rows, p.y_pm) for p in _make_problems(X, y)[1]]
    F = make_average_filter(cfg.f, cfg.n0, X.shape[1]).coeffs
    if cfg.reg.kind != "mixed_norm":
        return (*reference_cg(problems, X, cfg, F, trials), problems)
    weights, history, converged = np.ones(X.shape[1]), [], False
    for _ in range(cfg.mm_max_outer):
        inner = replace(cfg, reg=RegularizerSpec("weighted_frobenius", cfg.reg.lam,
                                                 weights=0.5 * weights))
        F_new, _, _ = reference_cg(problems, X, inner, F, trials)
        history.append(sum(p.model.objective for p in problems)
                       + cfg.reg.lam * mixed_norm(F_new))
        dF = float(np.linalg.norm(F_new - F))
        F = F_new
        weights = mm_weight_update(F, cfg.mm_eps)
        if dF < cfg.tol_dF:
            converged = True
            break
    return F, history, converged, problems


def assert_same_fit(X, y, cfg):
    F, history, converged, ref_problems = reference_fit(X, y, cfg)
    fit = fit_shared_filter(X, y, cfg)
    assert_array_equal(fit.bank.coeffs, F)
    assert fit.history == history
    assert fit.converged == converged
    for p, ref in zip(fit.problems, ref_problems, strict=True):
        assert_array_equal(p.alpha, ref.alpha)
        assert (p.model.n_iter, p.model.converged) == (ref.model.n_iter, ref.model.converged)
    return fit


def binary_labels(y):
    return np.where(np.asarray(y) == 1, 1.0, -1.0)


def small_problem(rng, n=40, d=2, sep=2.0):
    X = rng.normal(size=(n, d))
    y = np.concatenate([np.ones(n // 2), -np.ones(n - n // 2)])
    X[: n // 2, 0] += sep
    order = rng.permutation(n)
    return X[order], y[order]


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

    def test_weighted_frobenius(self, rng):
        F = rng.normal(size=(3, 2))
        w = np.array([2.0, 0.5])
        val, grad = weighted_frobenius_reg(F, w)
        assert_allclose(val, 2.0 * np.sum(F[:, 0] ** 2) + 0.5 * np.sum(F[:, 1] ** 2))
        assert_allclose(grad, 2.0 * F * w)

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

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="weights"):
            RegularizerSpec("weighted_frobenius", 1.0, weights=np.array([1.0, 0.0]))


class TestObjective:
    def test_average_filter_equals_baseline_objective(self, rng):
        """With no penalty, the joint objective at the average filter is
        exactly the fixed-average-filter SVM optimum."""
        X, y = small_problem(rng)
        cfg = LearnerConfig(C=5.0, kernel=KernelParams(1.0),
                            reg=RegularizerSpec("frobenius", 0.0),
                            f=4, n0=2, svm_tol=1e-8)
        bank = make_average_filter(4, 2, 2)
        J, _ = filter_objective(bank.coeffs, X, y, cfg)
        Xf = apply_filter(X, bank)
        K = kernel_matrix(Xf, Xf, cfg.kernel)
        ref = solve_svm_dual(K, y, 5.0, tol=1e-8)
        assert_allclose(J, ref.objective, atol=1e-9)

    def test_zero_filter_collapses_features(self, rng):
        X, y = small_problem(rng)
        cfg = LearnerConfig(C=5.0, f=3, n0=0, svm_tol=1e-8)
        J, model = filter_objective(np.zeros((3, 2)), X, y, cfg)
        K = np.ones((len(y), len(y)))  # identical samples
        ref = solve_svm_dual(K, y, 5.0, tol=1e-8)
        assert_allclose(J, ref.objective, atol=1e-8)

    def test_warm_start_matches_cold(self, rng):
        X, y = small_problem(rng)
        cfg = LearnerConfig(C=8.0, f=3, n0=1,
                            reg=RegularizerSpec("frobenius", 0.3), svm_tol=1e-9)
        F1 = rng.normal(size=(3, 2))
        F2 = F1 + 0.05 * rng.normal(size=(3, 2))
        _, m1 = filter_objective(F1, X, y, cfg)
        J_warm, _ = filter_objective(F2, X, y, cfg, warm_alpha=m1.alpha)
        J_cold, _ = filter_objective(F2, X, y, cfg)
        assert abs(J_warm - J_cold) < 1e-6

    def test_mismatched_delay_rejected(self, rng):
        X, y = small_problem(rng)
        cfg = LearnerConfig(f=3, n0=1)
        with pytest.raises(ValueError, match="delay"):
            filter_objective(FilterBank(np.ones((3, 2)), n0=0), X, y, cfg)

    def test_mixed_norm_objective_value_supported(self, rng):
        X, y = small_problem(rng)
        F = rng.normal(size=(3, 2))
        lam = 2.5
        cfg_mixed = LearnerConfig(C=5.0, f=3, n0=1,
                                  reg=RegularizerSpec("mixed_norm", lam))
        cfg_plain = LearnerConfig(C=5.0, f=3, n0=1,
                                  reg=RegularizerSpec("frobenius", 0.0))
        J_mixed, _ = filter_objective(F, X, y, cfg_mixed)
        J_plain, _ = filter_objective(F, X, y, cfg_plain)
        assert_allclose(J_mixed - J_plain, lam * mixed_norm(F), atol=1e-9)


class TestGradient:
    def test_zero_alpha_gives_zero_inner_gradient(self, rng):
        X, y = small_problem(rng)
        cfg = LearnerConfig(C=5.0, f=3, n0=1, reg=RegularizerSpec("frobenius", 0.0))
        G = filter_objective_gradient(rng.normal(size=(3, 2)), X, y,
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
        G = filter_objective_gradient(rng.normal(size=(f, 2)), X, y, alpha, cfg)
        assert_allclose(G[:, 1], 0.0, atol=1e-12)
        assert np.abs(G[:, 0]).max() > 0

    def test_matches_finite_differences(self, rng):
        for d, f in [(1, 1), (2, 3), (3, 5)]:
            n = 50
            X = rng.normal(size=(n, d))
            y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
            cfg = LearnerConfig(C=float(rng.uniform(1, 10)),
                                kernel=KernelParams(float(rng.uniform(0.5, 2.0))),
                                reg=RegularizerSpec("frobenius", float(rng.uniform(0, 1))),
                                f=f, n0=int(rng.integers(0, f)), svm_tol=1e-8)
            F = rng.normal(size=(f, d))
            _, model = filter_objective(F, X, y, cfg)
            G = filter_objective_gradient(F, X, y, model.alpha, cfg)
            G_fd = fd_gradient(F, X, y, model.alpha, cfg)
            denom = max(np.abs(G_fd).max(), 1e-12)
            assert np.abs(G - G_fd).max() / denom < 1e-4

    def test_alpha_length_checked(self, rng):
        X, y = small_problem(rng)
        cfg = LearnerConfig(f=2, n0=0)
        with pytest.raises(ValueError, match="alpha length"):
            filter_objective_gradient(np.ones((2, 2)), X, y, np.zeros(5), cfg)


def toy_case(seed, n=220, sigma_n=0.6, lag=2, nbtot=2):
    X, y = generate_toy(ToyParams(n=n, sigma_n=sigma_n, lag=lag, nbtot=nbtot,
                                  seed=seed))
    return X, y


class TestLearnKfSvm:
    def test_zero_iterations_is_average_filter_baseline(self):
        X, y = toy_case(seed=4)
        cfg = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec("frobenius", 0.5),
                            max_cg_iters=0)
        model = learn_kf_svm(X, y, cfg)
        assert_array_equal(model.filter.coeffs, make_average_filter(5, 2, 2).coeffs)

        bank = make_average_filter(5, 2, 2)
        Xf = apply_filter(X, bank)
        ref = solve_svm_dual(kernel_matrix(Xf, Xf, cfg.kernel),
                             binary_labels(y), 50.0, rows=Xf,
                             kernel=cfg.kernel, tol=cfg.svm_tol)
        Xte, _ = toy_case(seed=5)
        Xte_f = apply_filter(Xte, bank)
        assert_array_equal(np.sign(decision_scores(model.svm, Xte_f)),
                           np.sign(decision_scores(ref, Xte_f)))

    def test_history_non_increasing(self):
        X, y = toy_case(seed=6)
        cfg = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec("frobenius", 0.5),
                            max_cg_iters=15)
        model = learn_kf_svm(X, y, cfg)
        hist = np.array(model.history)
        assert len(hist) >= 2
        assert np.all(np.diff(hist) <= 1e-10)

    def test_final_objective_not_worse_than_start(self):
        X, y = toy_case(seed=7)
        cfg = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec("frobenius", 0.5),
                            max_cg_iters=10)
        model = learn_kf_svm(X, y, cfg)
        assert model.history[-1] <= model.history[0] + 1e-10

    def test_frobenius_shrinkage_with_lambda(self):
        X, y = toy_case(seed=8)
        norms = []
        for lam in (0.1, 30.0):
            cfg = LearnerConfig(C=50.0, f=5, n0=2,
                                reg=RegularizerSpec("frobenius", lam),
                                max_cg_iters=25)
            model = learn_kf_svm(X, y, cfg)
            norms.append(np.linalg.norm(model.filter.coeffs))
        assert norms[1] <= norms[0] + 1e-6

    def test_learned_filter_keeps_kernel_psd(self):
        X, y = toy_case(seed=9)
        cfg = LearnerConfig(C=50.0, f=4, n0=1, reg=RegularizerSpec("frobenius", 0.2),
                            max_cg_iters=8)
        model = learn_kf_svm(X, y, cfg)
        Xf = apply_filter(X, model.filter)
        K = kernel_matrix(Xf, Xf, cfg.kernel)
        assert np.linalg.eigvalsh(K).min() >= -1e-8

    def test_multiclass_labels_rejected(self, rng):
        X = rng.normal(size=(30, 2))
        y = rng.integers(1, 4, size=30)
        with pytest.raises(ValueError, match="binary"):
            learn_kf_svm(X, y, LearnerConfig(f=2, n0=0))

    def test_mixed_norm_config_rejected(self, rng):
        X, y = toy_case(seed=3, n=80)
        cfg = LearnerConfig(f=2, n0=0, reg=RegularizerSpec("mixed_norm", 1.0))
        with pytest.raises(ValueError, match="learn_skf_svm"):
            learn_kf_svm(X, y, cfg)


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

    def test_failed_line_search_is_not_converged(self):
        X, y = toy_case(seed=6)
        cfg = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec("frobenius", 0.5),
                            max_cg_iters=15, max_halvings=1)
        fit = fit_shared_filter(X, y, cfg)
        assert len(fit.history) == 1  # the first trial step already failed
        assert not fit.converged


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

    def test_mixed_norm_mm_fit(self):
        X, y = toy_case(seed=12, n=200, sigma_n=0.5, lag=0, nbtot=6)
        cfg = LearnerConfig(C=50.0, f=5, n0=2, reg=RegularizerSpec("mixed_norm", 8.0),
                            max_cg_iters=12, mm_max_outer=4)
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
        J, t_slope, J_try = next(trial for trial in trials
                                 if trial[2] <= trial[0] + base.armijo_c1 * trial[1])
        # the c1 whose threshold J + c1 * t * slope is the smallest one >= J_try;
        # it is stricter than base's, so the trials before stay rejected
        c1 = (J_try - J) / t_slope
        while J + c1 * t_slope < J_try:
            c1 = np.nextafter(c1, 0.0)
        while J + np.nextafter(c1, np.inf) * t_slope >= J_try:
            c1 = np.nextafter(c1, np.inf)
        cfg = replace(base, armijo_c1=float(c1))

        solve = filter_learning.solve_svm_dual

        def overstating(*args, stop_above=np.inf, **kwargs):
            if np.isfinite(stop_above):
                stop_above -= 1e-12 * max(1.0, abs(stop_above))
            return solve(*args, stop_above=stop_above, **kwargs)

        monkeypatch.setattr(filter_learning, "solve_svm_dual", overstating)
        fit = assert_same_fit(X, y, cfg)
        assert len(fit.history) == 2  # the trial at the threshold was taken

    def test_lost_warm_start_builds_only_the_support_block(self, monkeypatch):
        X, y = toy_case(seed=6)
        cfg = LearnerConfig(C=50.0, f=5, n0=2)
        p = _make_problems(X, y)[1][0]
        Xf = apply_filter(X, make_average_filter(5, 2, 2))
        J = p.solve(Xf, cfg)
        p.commit()
        n_sv = int(np.sum(p.alpha > 0))
        assert 0 < n_sv < len(p.rows)

        shapes = []

        def recording(A, B, params):
            shapes.append((len(A), len(B)))
            return kernel_matrix(A, B, params)

        def no_solve(*args, **kwargs):
            raise AssertionError("a lost warm start must not reach the solver")

        monkeypatch.setattr(filter_learning, "kernel_matrix", recording)
        monkeypatch.setattr(filter_learning, "solve_svm_dual", no_solve)
        bound = p.solve(Xf, cfg, stop_above=0.5 * J)
        assert shapes == [(n_sv, n_sv)]
        assert abs(bound - J) <= 1e-12 * J
        with pytest.raises(TypeError):
            p.commit()  # nothing to commit from a lost trial


class TestLearnSkfSvm:
    def test_majorization_touches_at_expansion_point(self):
        # sqrt(x) == sqrt(x0) + (x - x0) / (2 sqrt(x0)) at x == x0
        for x0 in (0.25, 1.0, 7.5):
            assert_allclose(np.sqrt(x0), x0**0.5 + 0.5 * x0**-0.5 * (x0 - x0))

    def test_first_outer_iteration_uses_unit_weights(self):
        """One MM outer step must equal a single weighted-Frobenius solve
        with uniform weights (the documented exact-majorization halving
        folded in)."""
        X, y = toy_case(seed=10, n=150)
        lam = 2.0
        cfg = LearnerConfig(C=20.0, f=3, n0=1,
                            reg=RegularizerSpec("mixed_norm", lam),
                            max_cg_iters=10, mm_max_outer=1)
        skf = learn_skf_svm(X, y, cfg)
        cfg_w = LearnerConfig(C=20.0, f=3, n0=1,
                              reg=RegularizerSpec("weighted_frobenius", lam,
                                                  weights=np.full(2, 0.5)),
                              max_cg_iters=10)
        ref = fit_shared_filter(X, y, cfg_w)
        assert_allclose(skf.filter.coeffs, ref.bank.coeffs, atol=1e-12)

    def test_weight_update_clamps_vanished_columns(self):
        F = np.zeros((3, 2))
        F[:, 0] = [0.0, 3.0, 4.0]
        w = mm_weight_update(F, 1e-8)
        assert_allclose(w[0], 0.2)
        assert_allclose(w[1], 1e8)

    def test_mixed_norm_objective_non_increasing(self):
        X, y = toy_case(seed=11, n=200, nbtot=4)
        cfg = LearnerConfig(C=30.0, f=5, n0=2,
                            reg=RegularizerSpec("mixed_norm", 3.0),
                            max_cg_iters=12, mm_max_outer=8)
        model = learn_skf_svm(X, y, cfg)
        hist = np.array(model.history)
        assert len(hist) >= 2
        assert np.all(np.diff(hist) <= 1e-6)

    def test_noise_channels_suppressed(self):
        X, y = toy_case(seed=12, n=400, sigma_n=0.5, lag=0, nbtot=4)
        cfg = LearnerConfig(C=50.0, f=5, n0=2,
                            reg=RegularizerSpec("mixed_norm", 8.0),
                            max_cg_iters=20, mm_max_outer=10)
        model = learn_skf_svm(X, y, cfg)
        norms = model.filter.column_norms()
        assert np.all(norms[:2] > 10 * norms[2:].max())

    def test_requires_mixed_norm(self):
        X, y = toy_case(seed=3, n=80)
        with pytest.raises(ValueError, match="mixed_norm"):
            learn_skf_svm(X, y, LearnerConfig(f=2, n0=0))


class TestMulticlassFilter:
    def test_two_classes_reduces_to_binary_learner(self):
        X, y = toy_case(seed=13, n=150)
        cfg = LearnerConfig(C=20.0, f=3, n0=1, reg=RegularizerSpec("frobenius", 0.5),
                            max_cg_iters=6)
        bank, mc = learn_multiclass_filter(X, y, cfg)
        binary = learn_kf_svm(X, y, cfg)
        assert_allclose(bank.coeffs, binary.filter.coeffs, atol=1e-12)
        assert set(mc.pairwise) == {(0, 1)}
        assert len(mc.one_vs_all) == 2

    def test_learners_reuse_the_fit_solves(self, monkeypatch):
        """Neither entry point takes an SMO step outside the filter fit."""
        from marginfilter import svm

        X, y = toy_case(seed=13, n=150)
        cfg = LearnerConfig(C=20.0, f=3, n0=1, reg=RegularizerSpec("frobenius", 0.5),
                            max_cg_iters=6)
        fits, outside_fit = [], []
        fit_shared = filter_learning.fit_shared_filter

        def recording_fit(*args, **kwargs):
            fits.append(None)
            fits[-1] = fit_shared(*args, **kwargs)
            return fits[-1]

        def counting(solve):
            def counted(*args, **kwargs):
                model = solve(*args, **kwargs)
                if fits and fits[-1] is not None:
                    outside_fit.append(model.n_iter)
                return model
            return counted

        monkeypatch.setattr(filter_learning, "fit_shared_filter", recording_fit)
        for module in (svm, filter_learning):
            monkeypatch.setattr(module, "solve_svm_dual", counting(module.solve_svm_dual))
        _, mc = learn_multiclass_filter(X, y, cfg)
        binary = learn_kf_svm(X, y, cfg)
        # the pair and its two orientations, then the pair alone
        assert len(fits) == 2 and outside_fit == [0] * 4
        assert_array_equal(mc.pairwise[(0, 1)].alpha, fits[0].problems[0].model.alpha)
        assert_array_equal(binary.svm.alpha, fits[1].problems[0].model.alpha)
        Xf = apply_filter(X, binary.filter)
        assert_array_equal(binary.svm.sv_rows, Xf[binary.svm.sv_idx])

    def test_duplicated_class_distribution_completes(self, rng):
        # classes 2 and 3 drawn from the same distribution: the (2,3)
        # pair is undiscriminable but training must still finish
        X = rng.normal(size=(90, 2))
        X[:30, 0] += 3.0
        y = np.array([1] * 30 + [2] * 30 + [3] * 30)
        cfg = LearnerConfig(C=5.0, f=2, n0=0, reg=RegularizerSpec("frobenius", 0.5),
                            max_cg_iters=3)
        bank, mc = learn_multiclass_filter(X, y, cfg)
        assert len(mc.pairwise) == 3
        assert np.all(np.isfinite(bank.coeffs))

    def test_three_class_toy_improves_on_unfiltered(self):
        """Learned filtering must beat the raw-sample multiclass SVM on
        the lagged 3-class signal (online voting on a held-out slice)."""
        from marginfilter.harness import error_rate, train_pipeline, toy_split

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
            learn_multiclass_filter(X, np.ones(20, dtype=int), LearnerConfig())
