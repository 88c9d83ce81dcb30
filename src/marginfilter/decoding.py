"""Sequence decoding: online per-sample voting and offline Viterbi.

Offline decoding scores label sequences by calibrated class
log-probabilities plus bigram transition log-probabilities and returns the
maximum-likelihood path; online decoding labels each sample independently
by one-against-one voting and needs no lookahead beyond the filter's own
support.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

import numpy as np

from .signals import as_labels
from .svm import MulticlassModel, PlattParams, class_probabilities, oao_vote


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


def viterbi(logprobs, transitions: TransitionMatrix) -> np.ndarray:
    """Maximum-likelihood label sequence under emissions and transitions.

    Maximizes log prior(s_1) + sum_i logprobs[i, s_i] + sum transitions,
    in O(n c^2).  Ties break toward the lowest class index.  Returns
    1-based labels.
    """
    E = validate_emissions(logprobs)
    n, c = E.shape
    if transitions.n_classes != c:
        raise ValueError(f"transition matrix has {transitions.n_classes} classes, emissions {c}")
    # The recursion runs on Python floats, which round as float64 does; for
    # the few classes of a labeling task, list operations per sample cost
    # less than numpy calls on length-c arrays.  into[s*c + r] is
    # log M[r, s], so cand[s*c + r] is the best score ending in r, then s;
    # list.index takes the first maximum, as argmax does.
    into = np.log(transitions.M).T.ravel().tolist()
    cuts = [slice(s * c, (s + 1) * c) for s in range(c)]
    delta = (np.log(transitions.prior) + E[0]).tolist()
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


def decode_online(mc: MulticlassModel, Xte_filtered) -> np.ndarray:
    """Per-sample one-against-one voting over an already filtered signal."""
    return oao_vote(mc, Xte_filtered)


def decode_offline(mc: MulticlassModel, platt: list[PlattParams],
                   transitions: TransitionMatrix, Xte_filtered,
                   scale_by_prior: bool = False) -> np.ndarray:
    """Viterbi decoding of calibrated per-sample class probabilities.

    With ``scale_by_prior`` the posteriors are divided by the class prior
    (scaled-likelihood emissions) before decoding.  Returns labels in the
    model's original class values.
    """
    probs = class_probabilities(mc, platt, Xte_filtered)
    if scale_by_prior:
        probs = probs / transitions.prior[None, :]
        probs /= probs.sum(axis=1, keepdims=True)
    path = viterbi(np.log(probs), transitions)
    return mc.classes[path - 1]
