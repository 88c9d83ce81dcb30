"""Offline sequence decoding: Viterbi over calibrated class probabilities.

Offline decoding scores label sequences by calibrated class
log-probabilities plus bigram transition log-probabilities and returns the
maximum-likelihood path.  Online decoding labels each sample independently
by one-against-one voting (``svm.oao_vote``) and needs no lookahead beyond
the filter's own support.

Viterbi is evaluated as a blocked max-plus matrix product with array
steps only, in O(n c) memory.  Its labels are those of the
sample-by-sample recursion, ties broken toward the lowest class index,
except where two paths tie within rounding: the start scores of blocks
after the first are summed in another order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import as_labels
from .svm import MulticlassModel, PlattParams, class_probabilities


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic class transition matrix and class prior."""

    M: np.ndarray
    prior: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=np.float64)
        prior = np.asarray(self.prior, dtype=np.float64)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("transition matrix must be square")
        if len(prior) != M.shape[0]:
            raise ValueError("prior length must match matrix size")
        if np.any(M <= 0) or np.any(prior <= 0):
            raise ValueError("transitions and prior must be strictly positive (smoothed)")
        if not np.allclose(M.sum(axis=1), 1.0, atol=1e-12):
            raise ValueError("transition rows must sum to 1")
        if not np.isclose(prior.sum(), 1.0, atol=1e-12):
            raise ValueError("prior must sum to 1")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "prior", prior)

    @property
    def n_classes(self) -> int:
        return self.M.shape[0]


def estimate_transitions(y, c: int) -> TransitionMatrix:
    """Add-one smoothed bigram transition estimates from a label sequence.

    ``y`` holds 1-based labels in 1..c.  The prior is the add-one smoothed
    class frequency.
    """
    y = as_labels(y)
    if len(y) < 2:
        raise ValueError("need at least 2 samples to estimate transitions")
    if y.max() > c:
        raise ValueError(f"label {y.max()} exceeds class count {c}")
    counts = np.zeros((c, c))
    np.add.at(counts, (y[:-1] - 1, y[1:] - 1), 1.0)
    M = (counts + 1.0) / (counts.sum(axis=1, keepdims=True) + c)
    freq = np.bincount(y - 1, minlength=c).astype(np.float64)
    prior = (freq + 1.0) / (freq.sum() + c)
    return TransitionMatrix(M=M, prior=prior)


def validate_emissions(logprobs) -> np.ndarray:
    logprobs = np.asarray(logprobs, dtype=np.float64)
    if logprobs.ndim != 2:
        raise ValueError("emissions must be (n, c)")
    if not np.all(np.isfinite(logprobs)):
        raise ValueError("emissions contain non-finite log-probabilities")
    return logprobs


def _block_length(steps: int) -> int:
    """Steps per Viterbi block: ceil(sqrt(steps)), so that the blocks and
    the steps within one block are about equally many."""
    return math.isqrt(steps - 1) + 1


def viterbi(logprobs, transitions: TransitionMatrix) -> np.ndarray:
    """Maximum-likelihood label sequence under emissions and transitions.

    Maximizes log prior(s_1) + sum_i logprobs[i, s_i] + sum transitions.
    Returns 1-based labels.

    The recursion is a max-plus matrix product, evaluated by blocks
    (Hassan, Sarkka & Garcia-Fernandez, IEEE TSP 2021, in block rather
    than scan form, so the work is O(n c^3), not O(n c^3 log n)).  The
    n - 1 steps are split into blocks of ceil(sqrt(n - 1)) steps.  Three
    passes run over all blocks at once, one array step per step of a
    block: they build every block's c x c transfer matrix, run the
    recursion inside every block from its start scores, and follow the
    backpointers from every end class of every block.  Between them, short
    loops over the blocks compose the transfer matrices into start scores
    and chain the blocks' end classes.  Nothing is done per sample in
    Python, and memory is O(n c).

    Within a block, the scores and backpointers are the same doubles as
    those of the sample-by-sample recursion started from the same block
    start scores, and ties break toward the lowest class index at every
    step and at the end, as there.  Only the start scores of blocks after
    the first are summed in another order, so a label can differ from the
    sample-by-sample recursion's only where two paths tie within rounding.
    """
    E = validate_emissions(logprobs)
    n, c = E.shape
    if transitions.n_classes != c:
        raise ValueError(f"transition matrix has {transitions.n_classes} classes, emissions {c}")
    L = np.log(transitions.M)
    start = np.log(transitions.prior) + E[0]
    if n == 1:
        return np.array([np.argmax(start) + 1], dtype=np.int64)
    steps = n - 1
    B = _block_length(steps)
    K = -(-steps // B)
    tail = steps - (K - 1) * B  # steps of the last block, 1..B
    # emissions by block step, class and block: em[j, :, k] enters at
    # sample k*B + j + 1; the last block is padded with zeros
    em = np.zeros((B, c, K))
    em.transpose(2, 0, 1)[: K - 1] = E[1 : (K - 1) * B + 1].reshape(K - 1, B, c)
    em[:tail, :, K - 1] = E[(K - 1) * B + 1 :]

    # A[q, s, k]: best score over block k from class q at its start sample
    # to class s at its end sample (blocks 0..K-2; the last block ends the
    # sequence, so no block starts from it)
    A = L[:, :, None] + em[0, None, :, : K - 1]
    new, cand = np.empty_like(A), np.empty_like(A)
    for j in range(1, B):
        np.add(A[:, 0, None, :], L[0, None, :, None], out=new)
        for r in range(1, c):
            np.add(A[:, r, None, :], L[r, None, :, None], out=cand)
            np.maximum(new, cand, out=new)
        np.add(new, em[j, None, :, : K - 1], out=A)

    # block start scores; Python floats round as float64 does, and cost
    # less than numpy calls on c x c matrices
    classes = range(c)
    delta = start.tolist()
    starts = [delta]
    for block in A.transpose(2, 0, 1).tolist():
        delta = [max([delta[q] + block[q][s] for q in classes]) for s in classes]
        starts.append(delta)

    # the recursion inside every block at once; back[j, s, k] is the best
    # class at sample k*B + j before class s at sample k*B + j + 1; the
    # strict > keeps the first maximum, as np.argmax does
    delta = np.array(starts).T.copy()
    back = np.empty((B, c, K), dtype=np.intp)
    best, score = np.empty((c, K)), np.empty((c, K))
    wins = np.empty((c, K), dtype=bool)
    into = L[:, :, None]  # into[r, s] = log M[r, s], a (c, 1) column
    for j in range(B):
        arg = back[j]
        arg.fill(0)
        np.add(delta[0], into[0], out=best)
        for r in range(1, c):
            np.add(delta[r], into[r], out=score)
            np.greater(score, best, out=wins)
            np.copyto(arg, r, where=wins)
            np.maximum(best, score, out=best)
        np.add(best, em[j], out=delta)
        if j == tail - 1:
            final = delta[:, K - 1].copy()
    # past the end of the sequence, the padded steps keep each class
    back[tail:, :, K - 1] = np.arange(c)

    # follow every block's backpointers from every end class at once:
    # afterwards back[j, s, k] is the class at sample k*B + j on block k's
    # best path to class s at its end sample
    blocks = np.arange(K)
    at = np.broadcast_to(np.arange(c)[:, None], (c, K))
    for j in range(B - 1, -1, -1):
        at = back[j][at, blocks]
        back[j] = at
    ends = np.empty(K, dtype=np.intp)
    s = int(np.argmax(final))
    for k in range(K - 1, -1, -1):
        ends[k] = s
        s = back[0, s, k]
    path = np.empty(K * B + 1, dtype=np.int64)
    path[:-1] = back[:, ends, blocks].T.ravel()
    path[-1] = ends[-1]
    return path[:n] + 1


def decode_offline(mc: MulticlassModel, platt: list[PlattParams],
                   transitions: TransitionMatrix, Xte_filtered=None, *,
                   scores=None) -> np.ndarray:
    """Viterbi decoding of calibrated per-sample class probabilities.

    The probabilities come from ``scores``, the one-vs-all bank's scores
    of the samples, when the caller has them, else from scoring
    ``Xte_filtered`` (``class_probabilities``).  Returns labels in the
    model's original class values.
    """
    probs = class_probabilities(mc, platt, Xte_filtered, scores=scores)
    path = viterbi(np.log(probs), transitions)
    return mc.classes[path - 1]
