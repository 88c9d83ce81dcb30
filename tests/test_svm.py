import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.spatial.distance import cdist

from marginfilter.svm import (
    SV_THRESHOLD_FRAC,
    KernelParams,
    MulticlassModel,
    PlattParams,
    SupportKernel,
    SvmModel,
    _logistic,
    _platt_objective,
    class_probabilities,
    decision_scores,
    kernel_matrix,
    oao_vote,
    platt_fit,
    solve_svm_dual,
    train_multiclass,
)


EPS = np.finfo(np.float64).eps


def reference_kernel(A, B, sigma_k):
    """The difference form of the Gaussian kernel: each squared distance
    summed over a - b on its own (cdist), then divided by -2 sigma_k^2."""
    return np.exp(cdist(A, B, metric="sqeuclidean") / -(2.0 * sigma_k**2))


def assert_kernel_close(got, A, B, sigma_k):
    """``got`` is the kernel of A and B within the package's stated
    tolerance: each entry within 16 eps (1 + s_a + s_b) of the difference
    form, relative, where s = ||x - m||^2 / (2 sigma_k^2) and m is the
    mean of the rows of A and B together (the rounding of the product
    form grows with the squared norms it cancels)."""
    A, B = np.atleast_2d(A), np.atleast_2d(B)
    want = reference_kernel(A, B, sigma_k)
    m = (A.sum(axis=0) + B.sum(axis=0)) / (len(A) + len(B))
    s_a, s_b = (np.sum((X - m) ** 2, axis=1) / (2.0 * sigma_k**2) for X in (A, B))
    bound = 16 * EPS * (1.0 + s_a[:, None] + s_b[None, :]) * want
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= bound + 1e-300)


def random_problem(rng, n_max=20):
    n = int(rng.integers(6, n_max + 1))
    d = int(rng.integers(1, 4))
    X = rng.normal(size=(n, d))
    y = np.concatenate([np.ones(n // 2 + 1), -np.ones(n - n // 2 - 1)])
    rng.shuffle(y)
    C = float(rng.uniform(0.5, 20.0))
    K = kernel_matrix(X, X, KernelParams(float(rng.uniform(0.5, 3.0))))
    return K, y, C


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


class TestKernelMatrix:
    def test_self_kernel_diagonal_is_one(self, rng):
        A = rng.normal(size=(15, 3))
        K = kernel_matrix(A, A, KernelParams(1.3))
        assert_allclose(np.diag(K), 1.0)

    def test_unit_distance_pair(self):
        K = kernel_matrix([[0.0, 0.0]], [[1.0, 1.0]], KernelParams(1.0))
        assert_allclose(K[0, 0], np.exp(-1.0))
        assert abs(K[0, 0] - 0.36788) < 1e-5

    def test_wide_bandwidth_limit(self, rng):
        A = rng.normal(size=(8, 2))
        K = kernel_matrix(A, A, KernelParams(1e8))
        assert_allclose(K, 1.0, atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            kernel_matrix(np.ones((3, 2)), np.ones((3, 4)), KernelParams(1.0))

    def test_positive_bandwidth_required(self):
        with pytest.raises(ValueError):
            KernelParams(0.0)

    @pytest.mark.parametrize("sigma, error, word", [
        (1e-300, ValueError, "underflows"), (1e-162, ValueError, "underflows"),
        (1e154, OverflowError, "overflows"), (1e200, OverflowError, "overflows"),
        (np.float64(1e200), OverflowError, "overflows")])
    def test_bandwidth_with_no_finite_positive_divisor_rejected(self, sigma, error, word):
        match = re.escape(f"2 sigma_k^2 {word} for sigma_k=") + ".*" + re.escape(repr(float(sigma)))
        with pytest.raises(error, match=match):
            KernelParams(sigma)

    @pytest.mark.parametrize("sigma", [1e-160, 2.0**-516, 1e150])  # 2 sigma^2 subnormal, huge
    def test_extreme_bandwidth_with_finite_divisor_accepted(self, sigma):
        # samples at the bandwidth's scale: the kernel of sigma * c is the
        # kernel of c at sigma_k = 1
        c = np.array([[0.0], [1.0], [2.5]])
        K = kernel_matrix(sigma * c, sigma * c, KernelParams(sigma))
        assert np.all(np.isfinite(K))
        assert_kernel_close(K, c, c, 1.0)

    @pytest.mark.parametrize("A, sigma", [
        (np.array([[0.0], [1.0]]), 1e-160),  # ||x - mean||^2 / (2 sigma^2) = inf
        (np.array([[-1e200, 0.0], [1e200, 0.0]]), 1.0),  # ||x - mean||^2 = inf
        (np.array([[0.0], [np.nan]]), 1.0),
        (np.array([[0.0], [np.inf]]), 1.0)])
    def test_samples_whose_norms_overflow_raise(self, A, sigma):
        with pytest.raises(ValueError, match="overflows the kernel"):
            kernel_matrix(A, A, KernelParams(sigma))
        with pytest.raises(ValueError, match="overflows the kernel"):
            SupportKernel(A, KernelParams(sigma))

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("d", [2, 6, 96])
    def test_matches_the_difference_form(self, rng, d, offset):
        """Within the stated tolerance of exp(-||a - b||^2 / (2 sigma_k^2))
        summed over a - b, also on a signal offset far from 0: the product
        form centres its samples first."""
        sigma = 0.5 * np.sqrt(d)  # entries from ~1 down to underflow
        A = rng.normal(size=(300, d)) + offset
        B = 1.5 * rng.normal(size=(200, d)) + offset
        for left, right in ((A, B), (A, A)):
            K = kernel_matrix(left, right, KernelParams(sigma))
            assert np.mean((K > 1e-12) & (K < 1.0)) > 0.01
            assert_kernel_close(K, left, right, sigma)

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_numerically_psd(self, seed):
        r = np.random.default_rng(seed)
        A = r.normal(size=(12, 3))
        K = kernel_matrix(A, A, KernelParams(float(r.uniform(0.3, 3.0))))
        assert np.linalg.eigvalsh(K).min() >= -1e-8


class TestDualSolver:
    def test_two_symmetric_points(self):
        K = np.array([[1.0, 0.2], [0.2, 1.0]])
        y = np.array([1.0, -1.0])
        m = solve_svm_dual(K, y, 4.0, tol=1e-10)
        assert_allclose(m.alpha[0], m.alpha[1], atol=1e-12)
        assert m.converged

    def test_tiny_C_saturates_box(self, rng):
        # inseparable balanced data with a vanishing budget pins every
        # alpha at the box bound
        X = rng.normal(size=(12, 2))
        y = np.array([1.0, -1.0] * 6)
        K = kernel_matrix(X, X, KernelParams(1.0))
        m = solve_svm_dual(K, y, 1e-4, tol=1e-12)
        assert_allclose(m.alpha, m.box, rtol=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            solve_svm_dual(np.eye(4), np.ones(4), 1.0)

    def test_equality_constraint_and_box_hold(self, rng):
        for _ in range(10):
            K, y, C = random_problem(rng)
            m = solve_svm_dual(K, y, C, tol=1e-8)
            assert abs(np.dot(m.alpha, y)) < 1e-8
            assert np.all(m.alpha >= -1e-12)
            assert np.all(m.alpha <= m.box + 1e-12)

    def test_xor_matches_qp_oracle(self, qp_oracle):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        K = kernel_matrix(X, X, KernelParams(1.0))
        a_ref, obj_ref = qp_oracle(K, y, 4.0)
        m = solve_svm_dual(K, y, 4.0, tol=1e-10)
        assert abs(m.objective - obj_ref) < 1e-6
        assert_allclose(m.alpha, a_ref, atol=1e-5)

    def test_objective_matches_qp_oracle_randomized(self, rng, qp_oracle):
        for _ in range(20):
            K, y, C = random_problem(rng)
            _, obj_ref = qp_oracle(K, y, C)
            m = solve_svm_dual(K, y, C, tol=1e-10)
            assert abs(m.objective - obj_ref) < 1e-6
            assert kkt_violation(K, y, m) < 1e-3

    def test_warm_start_reaches_same_objective(self, rng):
        K, y, C = random_problem(rng)
        cold = solve_svm_dual(K, y, C, tol=1e-10)
        # perturb the kernel slightly and restart from the previous solution
        K2 = kernel_matrix(rng.normal(size=(len(y), 2)), rng.normal(size=(len(y), 2)),
                           KernelParams(1.0))
        K2 = 0.95 * K + 0.05 * (K2 + K2.T) / 2 + 0.05 * np.eye(len(y))
        warm = solve_svm_dual(K2, y, C, tol=1e-10, warm_alpha=cold.alpha)
        fresh = solve_svm_dual(K2, y, C, tol=1e-10)
        assert abs(warm.objective - fresh.objective) < 1e-8
        assert warm.n_iter <= fresh.n_iter

    def test_infeasible_warm_start_rejected(self, rng):
        K, y, C = random_problem(rng)
        bad = np.zeros(len(y))
        bad[y > 0] = C / len(y)  # sum(alpha*y) far from 0
        with pytest.raises(ValueError, match="equality"):
            solve_svm_dual(K, y, C, warm_alpha=bad)

    def test_support_vector_threshold(self, rng):
        K, y, C = random_problem(rng)
        m = solve_svm_dual(K, y, C, tol=1e-8)
        thresh = 1e-8 * m.box
        assert_array_equal(m.sv_idx, np.flatnonzero(m.alpha > thresh))

    def test_iteration_cap_returns_best_iterate(self, rng):
        K, y, C = random_problem(rng)
        m = solve_svm_dual(K, y, C, tol=1e-12, max_iter=3)
        assert not m.converged
        assert m.n_iter == 3
        assert np.all(np.isfinite(m.alpha))


class TestDecisionScores:
    @pytest.fixture
    def trained(self, rng):
        X = np.vstack([rng.normal(loc=-2.5, scale=0.6, size=(20, 2)),
                       rng.normal(loc=2.5, scale=0.6, size=(20, 2))])
        y = np.concatenate([-np.ones(20), np.ones(20)])
        K = kernel_matrix(X, X, KernelParams(1.0))
        m = solve_svm_dual(K, y, 50.0, rows=X, kernel=KernelParams(1.0), tol=1e-8)
        return X, y, K, m

    def test_free_sv_sits_on_margin(self, trained):
        X, y, K, m = trained
        free = (m.alpha > 1e-6 * m.box) & (m.alpha < (1 - 1e-6) * m.box)
        assert free.any()
        g = decision_scores(m, X[free])
        assert_allclose(y[free] * g, 1.0, atol=1e-3)

    def test_far_input_decays_to_bias(self, trained):
        _, _, _, m = trained
        g = decision_scores(m, np.array([[500.0, -500.0]]))
        assert_allclose(g, m.bias, atol=1e-12)

    def test_separable_training_accuracy(self, trained):
        X, y, _, m = trained
        assert np.all(np.sign(decision_scores(m, X)) == y)

    def test_dimension_mismatch_rejected(self, trained):
        _, _, _, m = trained
        with pytest.raises(ValueError, match="mismatch"):
            decision_scores(m, np.ones((3, 5)))


class TestPlattFit:
    def test_symmetric_scores_give_zero_intercept(self):
        scores = np.array([-1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
        labels = np.array([-1, -1, 1, 1, -1, 1])
        p = platt_fit(scores, labels)
        assert p.A < 0
        assert abs(p.B) < 1e-6

    def test_negating_scores_negates_slope(self):
        scores = np.array([-2.0, -1.0, 1.0, 2.0])
        labels = np.array([-1, -1, 1, 1])
        p1 = platt_fit(scores, labels)
        p2 = platt_fit(-scores, labels)
        assert_allclose(p2.A, -p1.A, atol=1e-6)
        assert_allclose(p2.B, p1.B, atol=1e-6)

    def test_matches_grid_oracle(self):
        # frozen from a refined 2-D grid minimizer of the regularized
        # negative log-likelihood on this exact input
        p = platt_fit(np.array([-2.0, -1.0, 1.0, 2.0]), np.array([-1, -1, 1, 1]))
        assert abs(p.A - (-0.673994)) < 1e-4
        assert abs(p.B - 0.0) < 1e-4

    def test_likelihood_beats_local_grid(self, rng):
        scores = rng.normal(size=60) + np.repeat([1.0, -1.0], 30)
        labels = np.repeat([1, -1], 30)
        p = platt_fit(scores, labels)
        n_pos = n_neg = 30
        t = np.where(labels > 0, (n_pos + 1) / (n_pos + 2), 1 / (n_neg + 2))
        best = _platt_objective(scores, t, p.A, p.B)
        for A in np.linspace(p.A - 0.5, p.A + 0.5, 100):
            for B in np.linspace(p.B - 0.5, p.B + 0.5, 100):
                assert best <= _platt_objective(scores, t, A, B) + 1e-7

    def test_constant_scores_fit_base_rate(self):
        p = platt_fit(np.zeros(10), np.array([1] * 7 + [-1] * 3))
        assert np.isfinite(p.A) and np.isfinite(p.B)
        prob = p.probability(0.0)
        # regularized base rate (7+1)/(10+2)
        assert abs(prob - 8.0 / 12.0) < 0.05

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            platt_fit(np.array([1.0, 2.0]), np.array([1, 1]))

    def test_one_logistic_gives_both_sigmoid_sides(self, rng):
        """``_logistic(z)`` and ``_logistic(-z)`` are the same doubles as
        the sign-branch formulas for p = 1/(1 + e^z) and q = 1 - p."""
        tiny = np.nextafter(0.0, 1.0)
        edges = [0.0, -0.0, 700.0, -700.0, 745.0, -745.0, 800.0, -800.0,
                 tiny, -tiny, 2.2250738585072014e-308, -1e-310, 1e-310]
        z = np.concatenate([rng.normal(scale=30.0, size=100_000), edges])
        p, q = np.empty_like(z), np.empty_like(z)
        nonneg = z >= 0
        ez = np.exp(-z[nonneg])
        p[nonneg] = ez / (1.0 + ez)
        q[nonneg] = 1.0 / (1.0 + ez)
        ez = np.exp(z[~nonneg])
        p[~nonneg] = 1.0 / (1.0 + ez)
        q[~nonneg] = ez / (1.0 + ez)
        assert_array_equal(_logistic(z).view(np.uint64), p.view(np.uint64))
        assert_array_equal(_logistic(-z).view(np.uint64), q.view(np.uint64))
        assert_array_equal(PlattParams(1.0, 0.0).probability(z).view(np.uint64),
                           p.view(np.uint64))


def _stub_model(rows, labels, alphas, bias, sigma=1.0):
    rows = np.asarray(rows, dtype=np.float64)
    return SvmModel(
        alpha=np.asarray(alphas, dtype=np.float64), bias=bias, C=1.0,
        box=1.0, kernel=KernelParams(sigma), objective=0.0,
        sv_idx=np.arange(len(rows)), sv_labels=np.asarray(labels),
        sv_alpha=np.asarray(alphas, dtype=np.float64), sv_rows=rows)


class TestMulticlass:
    @pytest.fixture
    def three_class_data(self, rng):
        centers = {1: (-2.0, -2.0), 2: (2.0, 2.0), 3: (2.0, -2.0)}
        X = np.vstack([rng.normal(loc=centers[c], scale=0.4, size=(25, 2))
                       for c in (1, 2, 3)])
        y = np.repeat([1, 2, 3], 25)
        return X, y

    def test_oao_vote_binary_equals_score_sign(self, rng):
        X = np.vstack([rng.normal(loc=-1.5, size=(15, 2)),
                       rng.normal(loc=1.5, size=(15, 2))])
        y = np.repeat([1, 2], 15)
        mc = train_multiclass(X, y, 10.0, KernelParams(1.0), tol=1e-8)
        Xte = rng.normal(size=(30, 2))
        scores = decision_scores(mc.pairwise[(0, 1)], Xte)
        expected = np.where(scores > 0, 1, 2)
        assert_array_equal(oao_vote(mc, Xte), expected)

    def test_unanimous_winner(self, three_class_data, rng):
        X, y = three_class_data
        mc = train_multiclass(X, y, 10.0, KernelParams(1.0), tol=1e-6)
        assert_array_equal(oao_vote(mc, [[-2.0, -2.0]]), [1])
        assert_array_equal(oao_vote(mc, [[2.0, 2.0]]), [2])

    def test_vote_cycle_resolved_by_margin_sum(self):
        """A 3-class cycle (each class wins one duel) goes to the class
        with the largest summed winning margin."""
        # zero alphas make each score exactly the bias
        mc = MulticlassModel(
            classes=np.array([1, 2, 3]),
            pairwise={
                (0, 1): _stub_model([[0.0]], [1], [0.0], bias=0.5),   # 1 beats 2 by 0.5
                (1, 2): _stub_model([[0.0]], [1], [0.0], bias=2.0),   # 2 beats 3 by 2.0
                (0, 2): _stub_model([[0.0]], [1], [0.0], bias=-0.25),  # 3 beats 1 by 0.25
            })
        label = oao_vote(mc, np.array([[0.0]]))
        assert label[0] == 2

    def test_class_probabilities_normalized(self, three_class_data, rng):
        X, y = three_class_data
        mc = train_multiclass(X, y, 10.0, KernelParams(1.0), tol=1e-6)
        platt = [PlattParams(-2.0, 0.0)] * 3
        P = class_probabilities(mc, platt, rng.normal(size=(40, 2)))
        assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(P > 0) and np.all(P < 1)

    def test_equal_sigmoids_give_uniform(self):
        mc = MulticlassModel(
            classes=np.array([1, 2, 3]),
            pairwise={},
            one_vs_all=[_stub_model([[0.0]], [1], [0.0], bias=0.0)] * 3)
        P = class_probabilities(mc, [PlattParams(-1.0, 0.0)] * 3, [[5.0]])
        assert_allclose(P, 1.0 / 3.0)

    def test_hand_normalization(self):
        # sigmoid outputs (0.8, 0.1, 0.1) must pass through unchanged
        raw = np.array([0.8, 0.1, 0.1])
        assert_allclose(raw / raw.sum(), [0.8, 0.1, 0.1])

    def test_probability_permutation_equivariance(self, three_class_data, rng):
        X, y = three_class_data
        Xte = rng.normal(size=(10, 2))
        perm = {1: 2, 2: 3, 3: 1}
        y_perm = np.vectorize(perm.get)(y)
        mc1 = train_multiclass(X, y, 10.0, KernelParams(1.0), tol=1e-8)
        mc2 = train_multiclass(X, y_perm, 10.0, KernelParams(1.0), tol=1e-8)
        platt = [PlattParams(-1.5, 0.1)] * 3
        P1 = class_probabilities(mc1, platt, Xte)
        P2 = class_probabilities(mc2, platt, Xte)
        # class k of the original = class perm[k] of the relabeled model
        for k, cls in enumerate(mc1.classes):
            k2 = int(np.flatnonzero(mc2.classes == perm[cls])[0])
            assert_allclose(P1[:, k], P2[:, k2], atol=1e-9)

    def test_needs_two_classes(self, rng):
        with pytest.raises(ValueError, match="2 classes"):
            train_multiclass(rng.normal(size=(5, 2)), np.ones(5, dtype=int),
                             1.0, KernelParams(1.0))
