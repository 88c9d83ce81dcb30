import itertools
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from marginfilter.decoding import (
    TransitionMatrix,
    _block_length,
    decode_offline,
    estimate_transitions,
    viterbi,
)
from marginfilter.harness import calibrate_pipeline, train_pipeline
from marginfilter.signals import ToyParams, generate_toy
from marginfilter.svm import oao_vote


def path_score(path, E, T):
    s = np.log(T.prior[path[0]]) + E[0, path[0]]
    for i in range(1, len(path)):
        s += np.log(T.M[path[i - 1], path[i]]) + E[i, path[i]]
    return s


def brute_force_viterbi(E, T):
    """Exhaustive maximization over all c^n paths; lexicographically first
    maximizer (matches the lowest-index tie-break)."""
    n, c = E.shape
    best_path, best = None, -np.inf
    for path in itertools.product(range(c), repeat=n):
        s = path_score(path, E, T)
        if s > best:
            best, best_path = s, path
    return np.array(best_path) + 1


def sequential_viterbi(E, T):
    """The sample-by-sample Viterbi recursion, the reference for the blocked
    one: Python floats, which round as float64 does; ties break toward the
    lowest class index (list.index takes the first maximum)."""
    n, c = E.shape
    # into[s*c + r] is log M[r, s], so cand[s*c + r] is the best score
    # ending in r, then s
    into = np.log(T.M).T.ravel().tolist()
    cuts = [slice(s * c, (s + 1) * c) for s in range(c)]
    delta = (np.log(T.prior) + E[0]).tolist()
    back = []
    for e in E[1:].tolist():
        cand = list(map(add, delta * c, into))
        step, new = [], []
        for cut, e_s in zip(cuts, e):
            part = cand[cut]
            best = max(part)
            step.append(part.index(best))
            new.append(best + e_s)
        back.append(step)
        delta = new
    path = [delta.index(max(delta))]
    for step in reversed(back):
        path.append(step[path[-1]])
    return np.array(path[::-1], dtype=np.int64) + 1


def random_transitions(rng, c):
    M = rng.uniform(0.1, 1.0, size=(c, c))
    M /= M.sum(axis=1, keepdims=True)
    prior = rng.uniform(0.1, 1.0, size=c)
    prior /= prior.sum()
    return TransitionMatrix(M=M, prior=prior)


def random_emissions(rng, n, c):
    P = rng.uniform(0.05, 1.0, size=(n, c))
    P /= P.sum(axis=1, keepdims=True)
    return np.log(P)


class TestEstimateTransitions:
    def test_hand_counts_with_smoothing(self):
        t = estimate_transitions([1, 1, 2, 2], 2)
        assert_allclose(t.M, [[0.5, 0.5], [1.0 / 3.0, 2.0 / 3.0]])
        assert_allclose(t.prior, [0.5, 0.5])

    def test_rows_sum_to_one(self, rng):
        y = rng.integers(1, 4, size=200)
        t = estimate_transitions(y, 3)
        assert_allclose(t.M.sum(axis=1), 1.0, atol=1e-12)
        assert_allclose(t.prior.sum(), 1.0, atol=1e-12)

    def test_single_class_sequence_smoothed(self):
        t = estimate_transitions([1, 1, 1], 2)
        assert_allclose(t.M[0], [0.75, 0.25])

    def test_all_entries_positive(self):
        t = estimate_transitions([1, 1, 1, 1], 3)
        assert np.all(t.M > 0)
        assert np.all(t.prior > 0)

    def test_permutation_equivariance(self, rng):
        y = rng.integers(1, 4, size=300)
        perm = np.array([2, 3, 1])  # class k -> perm[k-1]
        t1 = estimate_transitions(y, 3)
        t2 = estimate_transitions(perm[y - 1], 3)
        p = perm - 1
        assert_allclose(t2.M[np.ix_(p, p)], t1.M, atol=1e-15)
        assert_allclose(t2.prior[p], t1.prior, atol=1e-15)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            estimate_transitions([1], 2)


class TestTransitionMatrix:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TransitionMatrix(M=np.array([[0.5, 0.6], [0.5, 0.5]]),
                             prior=np.array([0.5, 0.5]))

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError, match="positive"):
            TransitionMatrix(M=np.array([[1.0, 0.0], [0.5, 0.5]]),
                             prior=np.array([0.5, 0.5]))


class TestViterbi:
    def test_single_class_constant(self):
        T = TransitionMatrix(M=np.ones((1, 1)), prior=np.ones(1))
        E = np.zeros((6, 1))
        assert_array_equal(viterbi(E, T), np.ones(6, dtype=int))

    def test_uniform_transitions_reduce_to_argmax(self, rng):
        c = 3
        T = TransitionMatrix(M=np.full((c, c), 1.0 / c), prior=np.full(c, 1.0 / c))
        E = random_emissions(rng, 40, c)
        assert_array_equal(viterbi(E, T), np.argmax(E, axis=1) + 1)

    def test_hand_case_matches_brute_force(self):
        E = np.log(np.array([
            [0.9, 0.1],
            [0.6, 0.4],
            [0.3, 0.7],
            [0.2, 0.8],
        ]))
        T = TransitionMatrix(M=np.array([[0.9, 0.1], [0.2, 0.8]]),
                             prior=np.array([0.5, 0.5]))
        assert_array_equal(viterbi(E, T), brute_force_viterbi(E, T))

    def test_matches_brute_force_randomized(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 9))
            c = int(rng.integers(1, 4))
            T = random_transitions(rng, c)
            E = random_emissions(rng, n, c)
            assert_array_equal(viterbi(E, T), brute_force_viterbi(E, T))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_score_dominates_random_and_greedy_paths(self, seed):
        r = np.random.default_rng(seed)
        n, c = 30, 3
        T = random_transitions(r, c)
        E = random_emissions(r, n, c)
        best = viterbi(E, T) - 1
        s_best = path_score(best, E, T)
        assert s_best >= path_score(np.argmax(E, axis=1), E, T) - 1e-9
        for _ in range(200):
            assert s_best >= path_score(r.integers(0, c, size=n), E, T) - 1e-9

    def test_non_finite_emissions_rejected(self):
        T = TransitionMatrix(M=np.full((2, 2), 0.5), prior=np.array([0.5, 0.5]))
        E = np.zeros((3, 2))
        E[1, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            viterbi(E, T)
        E[1, 0] = -np.inf
        with pytest.raises(ValueError, match="finite"):
            viterbi(E, T)

    def test_shape_mismatch_rejected(self, rng):
        T = random_transitions(rng, 2)
        with pytest.raises(ValueError, match="classes"):
            viterbi(np.zeros((4, 3)), T)


def boundary_lengths(B):
    """Sequence lengths whose n - 1 steps fill B - 1 blocks of B steps
    but one step, exactly, and with one step over (a last block of 1)."""
    return [B * (B - 1) + 1 + d for d in (-1, 0, 1)]


# n = 1 and 2; short sequences of every last-block fill; and sequences of
# 55 or 56 blocks of 56 steps around a block boundary, and of 57 blocks
LENGTHS = [1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 17, 18,
           *boundary_lengths(8), *boundary_lengths(56), 3200]


class TestBlockedViterbi:
    """The blocked recursion against the sample-by-sample reference."""

    def assert_matches_reference(self, E, T):
        got, want = viterbi(E, T), sequential_viterbi(E, T)
        assert_array_equal(got, want)
        assert_allclose(path_score(got - 1, E, T), path_score(want - 1, E, T),
                        rtol=1e-9, atol=0)

    def test_boundary_lengths_have_their_block_fill(self):
        for B in (8, 56):
            tails = []
            for n in boundary_lengths(B):
                steps = n - 1
                assert _block_length(steps) == B
                tails.append(steps - (-(-steps // B) - 1) * B)
            assert tails == [B - 1, B, 1]

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_matches_sequential_reference(self, n, c):
        r = np.random.default_rng(1000 * n + c)
        self.assert_matches_reference(random_emissions(r, n, c), random_transitions(r, c))

    @pytest.mark.parametrize("c", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 13, 3200])
    def test_sticky_transitions_match_reference(self, n, c):
        # long runs make the block start scores decide the labels
        r = np.random.default_rng(7 * n + c)
        M = np.full((c, c), 0.02 / (c - 1)) + np.eye(c) * (0.98 - 0.02 / (c - 1))
        T = TransitionMatrix(M=M, prior=np.full(c, 1.0 / c))
        self.assert_matches_reference(random_emissions(r, n, c), T)

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 12, *boundary_lengths(56)])
    def test_exact_ties_break_to_lowest_index(self, n, c):
        T = TransitionMatrix(M=np.full((c, c), 1.0 / c), prior=np.full(c, 1.0 / c))
        E = np.full((n, c), np.log(1.0 / c))
        assert_array_equal(viterbi(E, T), np.ones(n, dtype=np.int64))
        self.assert_matches_reference(E, T)

    @pytest.mark.parametrize("n", [2, 12, *boundary_lengths(56)])
    def test_twin_classes_tie_to_the_lower(self, n):
        # classes 2 and 3 have equal emissions and mirrored transitions, so
        # every path through 3 ties exactly with its copy through 2
        r = np.random.default_rng(n)
        E = random_emissions(r, n, 3)
        E[:, 2] = E[:, 1]
        M = np.array([[0.6, 0.2, 0.2], [0.3, 0.5, 0.2], [0.3, 0.2, 0.5]])
        T = TransitionMatrix(M=M, prior=np.array([0.4, 0.3, 0.3]))
        labels = viterbi(E, T)
        assert not np.any(labels == 3)
        assert np.any(labels == 2)
        self.assert_matches_reference(E, T)

    @pytest.mark.parametrize("c", [2, 3, 4])
    @pytest.mark.parametrize("n", [12, *boundary_lengths(56)])
    def test_rows_clamped_at_tiny(self, n, c):
        # class_probabilities clamps at the smallest normal double, whose
        # log is about -708.4, and renormalizes
        r = np.random.default_rng(n + c)
        P = r.uniform(0.05, 1.0, size=(n, c))
        P[r.random(size=(n, c)) < 0.4] = np.finfo(np.float64).tiny
        P[r.random(n) < 0.05] = np.finfo(np.float64).tiny
        P /= P.sum(axis=1, keepdims=True)
        E = np.log(P)
        assert E.min() < -708
        self.assert_matches_reference(E, random_transitions(r, c))


@pytest.fixture(scope="module")
def toy_pipeline():
    params = ToyParams(n=900, sigma_n=0.8, lag=2, nbtot=2, seed=17)
    X, y = generate_toy(params)
    Xtr, ytr = X[:400], y[:400]
    Xval, yval = X[400:600], y[400:600]
    Xte, yte = X[600:], y[600:]
    pipe = train_pipeline(Xtr, ytr, "avg_svm", C=50.0, sigma_k=1.0, f=5, n0=2)
    calibrate_pipeline(pipe, Xval, yval)
    return pipe, Xte, yte


class TestDecoders:
    def test_online_equals_per_sample_vote(self, toy_pipeline):
        pipe, Xte, _ = toy_pipeline
        Xf = pipe.filtered(Xte)
        assert_array_equal(pipe.predict(Xte), oao_vote(pipe.model, Xf))

    def test_online_pointwise_on_identical_samples(self, toy_pipeline):
        pipe, Xte, _ = toy_pipeline
        Xf = pipe.filtered(Xte)
        row = np.repeat(Xf[10:11], 5, axis=0)
        labels = oao_vote(pipe.model, row)
        assert len(set(labels.tolist())) == 1

    def test_offline_uniform_transitions_is_argmax(self, toy_pipeline):
        from marginfilter.svm import class_probabilities

        pipe, Xte, _ = toy_pipeline
        Xf = pipe.filtered(Xte)
        c = pipe.model.n_classes
        uniform = TransitionMatrix(M=np.full((c, c), 1.0 / c),
                                   prior=np.full(c, 1.0 / c))
        got = decode_offline(pipe.model, pipe.platt, uniform, Xf)
        P = class_probabilities(pipe.model, pipe.platt, Xf)
        assert_array_equal(got, pipe.model.classes[np.argmax(P, axis=1)])

    def test_sticky_transitions_reduce_switches(self, toy_pipeline):
        pipe, Xte, _ = toy_pipeline
        Xf = pipe.filtered(Xte)
        online = oao_vote(pipe.model, Xf)
        sticky = TransitionMatrix(M=np.array([[0.99, 0.01], [0.01, 0.99]]),
                                  prior=np.array([0.5, 0.5]))
        smoothed = decode_offline(pipe.model, pipe.platt, sticky, Xf)
        assert np.sum(np.diff(smoothed) != 0) <= np.sum(np.diff(online) != 0)

    def test_offline_short_sequences_match_brute_force(self, toy_pipeline, rng):
        from marginfilter.svm import class_probabilities

        pipe, Xte, _ = toy_pipeline
        for _ in range(10):
            idx = rng.integers(0, len(Xte) - 8)
            Xf = pipe.filtered(Xte[idx : idx + 7])
            got = decode_offline(pipe.model, pipe.platt, pipe.transitions, Xf)
            E = np.log(class_probabilities(pipe.model, pipe.platt, Xf))
            want = pipe.model.classes[brute_force_viterbi(E, pipe.transitions) - 1]
            assert_array_equal(got, want)
