"""The SMO solver and the vote tie-break against loop reference versions.

``reference_solve`` is the per-iteration full-recompute SMO loop and
``reference_oao_vote`` the per-sample tie-break loop that the vectorized
versions in ``marginfilter.svm`` replaced.  The arithmetic is unchanged,
so every comparison is exact equality.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from marginfilter.svm import (
    SV_THRESHOLD_FRAC,
    KernelParams,
    MulticlassModel,
    SvmModel,
    decision_scores,
    kernel_matrix,
    oao_vote,
    solve_svm_dual,
)


def reference_solve(K, y, C, *, tol=1e-3, max_iter=2_000_000, warm_alpha=None):
    """Returns (alpha, n_iter, objective, bias, converged)."""
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = len(y)
    box = C / n
    if warm_alpha is None:
        alpha = np.zeros(n)
        u = np.zeros(n)
    else:
        alpha = np.clip(np.asarray(warm_alpha, dtype=np.float64).copy(), 0.0, box)
        u = K @ (alpha * y)

    diag = np.diag(K).copy()
    pos = y > 0
    eps_b = 1e-12 * box

    it = 0
    converged = False
    m_val = M_val = 0.0
    while it < max_iter:
        v = y - u
        up = np.where(pos, alpha < box - eps_b, alpha > eps_b)
        low = np.where(pos, alpha > eps_b, alpha < box - eps_b)
        v_up = np.where(up, v, -np.inf)
        v_low = np.where(low, v, np.inf)
        i = int(np.argmax(v_up))
        m_val = v_up[i]
        M_val = float(np.min(v_low))
        if m_val - M_val <= tol:
            converged = True
            break

        quad = diag[i] + diag - 2.0 * K[i]
        np.maximum(quad, 1e-12, out=quad)
        b_gain = m_val - v
        eligible = low & (b_gain > 0)
        if not np.any(eligible):
            break
        gain = np.where(eligible, (b_gain * b_gain) / quad, -np.inf)
        j = int(np.argmax(gain))

        t = (v[i] - v[j]) / quad[j]
        t_max = (box - alpha[i] if y[i] > 0 else alpha[i])
        t_max = min(t_max, alpha[j] if y[j] > 0 else box - alpha[j])
        t = min(t, t_max)
        if t <= 0:
            break
        da_i = y[i] * t
        da_j = -y[j] * t
        alpha[i] += da_i
        alpha[j] += da_j
        u += K[i] * (da_i * y[i]) + K[j] * (da_j * y[j])
        it += 1

    objective = float(alpha.sum() - 0.5 * np.dot(alpha * y, u))
    free = (alpha > SV_THRESHOLD_FRAC * box) & (alpha < (1.0 - SV_THRESHOLD_FRAC) * box)
    if np.any(free):
        bias = float(np.mean((y - u)[free]))
    else:
        bias = float(0.5 * (m_val + M_val))
    return alpha, it, objective, bias, converged


def reference_oao_vote(mc: MulticlassModel, Xte) -> np.ndarray:
    Xte = np.atleast_2d(np.asarray(Xte, dtype=np.float64))
    m = len(Xte)
    c = mc.n_classes
    votes = np.zeros((m, c), dtype=np.int64)
    margins = np.zeros((m, c))
    for (a, b), model in mc.pairwise.items():
        s = decision_scores(model, Xte)
        wins_a = s > 0
        votes[wins_a, a] += 1
        votes[~wins_a, b] += 1
        margins[wins_a, a] += np.abs(s[wins_a])
        margins[~wins_a, b] += np.abs(s[~wins_a])

    out = np.empty(m, dtype=mc.classes.dtype)
    best = votes.max(axis=1)
    for i in range(m):
        tied = np.flatnonzero(votes[i] == best[i])
        if len(tied) > 1:
            tied = tied[margins[i, tied] == margins[i, tied].max()]
        out[i] = mc.classes[tied[0]]
    return out


def assert_same_solution(K, y, C, **kwargs):
    alpha, n_iter, objective, bias, converged = reference_solve(K, y, C, **kwargs)
    m = solve_svm_dual(K, y, C, **kwargs)
    assert_array_equal(m.alpha, alpha)
    assert m.n_iter == n_iter
    assert m.objective == objective
    assert m.bias == bias
    assert m.converged == converged
    return m


def xor_problem(rng, n, frac_pos=0.5):
    X = rng.normal(size=(n, 2))
    n_pos = int(round(frac_pos * n))
    y = np.concatenate([np.ones(n_pos), -np.ones(n - n_pos)])
    rng.shuffle(y)
    # noisy XOR labels on top of the class split keep many alphas free
    X += 0.8 * y[:, None] * np.sign(X[:, ::-1])
    return X, y


class TestSolverMatchesReference:
    @pytest.mark.parametrize("n, C, tol", [(40, 10.0, 1e-3), (150, 100.0, 1e-3),
                                           (150, 1.0, 1e-8), (300, 100.0, 1e-6)])
    def test_cold(self, rng, n, C, tol):
        X, y = xor_problem(rng, n)
        K = kernel_matrix(X, X, KernelParams(0.7))
        m = assert_same_solution(K, y, C, tol=tol)
        assert m.converged and m.n_iter > 0

    def test_warm(self, rng):
        X, y = xor_problem(rng, 200)
        K = kernel_matrix(X, X, KernelParams(1.0))
        cold = solve_svm_dual(K, y, 50.0)
        for scale in (0.9, 1.1, 1.5):
            K2 = kernel_matrix(X * scale, X * scale, KernelParams(1.0))
            m = assert_same_solution(K2, y, 50.0, warm_alpha=cold.alpha)
            assert m.n_iter > 0

    @pytest.mark.parametrize("max_iter", [0, 1, 7, 60])
    def test_iteration_capped(self, rng, max_iter):
        X, y = xor_problem(rng, 120)
        K = kernel_matrix(X, X, KernelParams(0.5))
        m = assert_same_solution(K, y, 100.0, tol=1e-10, max_iter=max_iter)
        assert m.n_iter == max_iter and not m.converged

    @pytest.mark.parametrize("frac_pos", [0.05, 0.2, 0.9])
    def test_unbalanced(self, rng, frac_pos):
        X, y = xor_problem(rng, 160, frac_pos)
        K = kernel_matrix(X, X, KernelParams(1.3))
        for C in (0.5, 20.0, 500.0):
            assert_same_solution(K, y, C, tol=1e-6)


def sv_model(score: float, sv_rows=None, sv_alpha=None) -> SvmModel:
    """A scorer with the given support vectors (all labelled +1, so the
    sign of ``sv_alpha`` sets each one's pull) and bias ``score``."""
    sv_rows = np.zeros((0, 2)) if sv_rows is None else sv_rows
    sv_alpha = np.zeros(0) if sv_alpha is None else sv_alpha
    k = len(sv_alpha)
    return SvmModel(alpha=sv_alpha, bias=score, C=1.0, box=1.0, kernel=KernelParams(),
                    objective=0.0, sv_idx=np.arange(k), sv_labels=np.ones(k, dtype=np.int64),
                    sv_alpha=sv_alpha, sv_rows=sv_rows)


def pairs_of(c):
    return [(a, b) for a in range(c) for b in range(a + 1, c)]


class TestVoteMatchesReference:
    @pytest.mark.parametrize("c", [3, 4])
    def test_random_banks_with_vote_ties(self, rng, c):
        # independent random scorers make intransitive pairwise preferences,
        # so many samples tie on votes and the margin sums decide
        mc = MulticlassModel(classes=np.arange(1, c + 1), pairwise={
            p: sv_model(rng.uniform(-0.5, 0.5), rng.normal(size=(3, 2)),
                        rng.normal(size=3))
            for p in pairs_of(c)})
        Xte = rng.normal(size=(3000, 2))
        votes = np.zeros((len(Xte), c), dtype=np.int64)
        for (a, b), model in mc.pairwise.items():
            wins_a = decision_scores(model, Xte) > 0
            votes[wins_a, a] += 1
            votes[~wins_a, b] += 1
        n_tied = np.sum(votes == votes.max(axis=1, keepdims=True), axis=1)
        assert np.mean(n_tied > 1) > 0.1
        assert_array_equal(oao_vote(mc, Xte), reference_oao_vote(mc, Xte))

    @pytest.mark.parametrize("c", [3, 4])
    def test_exact_margin_ties(self, rng, c):
        # every pair scores +-1, so tied classes also tie on margin sums and
        # the lowest class index has to decide
        classes = np.arange(10, 10 + c)
        Xte = rng.normal(size=(5, 2))
        for signs in np.ndindex(*(2,) * (c * (c - 1) // 2)):
            mc = MulticlassModel(classes=classes, pairwise={
                p: sv_model(1.0 if s else -1.0) for p, s in zip(pairs_of(c), signs)})
            assert_array_equal(oao_vote(mc, Xte), reference_oao_vote(mc, Xte))
