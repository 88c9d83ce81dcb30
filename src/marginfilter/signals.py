"""Multichannel signal handling: FIR filtering and toy data.

Signals are plain ``(n, d)`` float arrays (n samples, d channels); label
sequences are 1-based integer arrays of length n with values in ``1..c``.
A filter bank holds one FIR filter per channel as the columns of an
``(f, d)`` coefficient matrix plus an integer delay ``n0``: ``n0 = 0``
gives a causal filter, ``n0 ~ f/2`` a filter centered on the current
sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Channel-1/channel-2 mode pairs per class for the synthetic benchmark
# signal.  Classes 1 and 2 form a non linearly separable (XOR) layout;
# class 3 is an optional extension used for multiclass runs.
TOY_MODES = {
    1: ((-1.0, -1.0), (1.0, 1.0)),
    2: ((-1.0, 1.0), (1.0, -1.0)),
    3: ((2.0, 2.0), (-2.0, -2.0)),
}


def as_signal(X) -> np.ndarray:
    """Validate and return a signal as an (n, d) float64 array.

    Rejects empty axes and non-finite entries.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"signal must be 2-D (samples x channels), got ndim={X.ndim}")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"signal must have n >= 1 and d >= 1, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("signal contains non-finite entries")
    return X


def as_labels(y, n: int | None = None) -> np.ndarray:
    """Validate a 1-based label sequence and return it as an int array."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"labels must be 1-D, got ndim={y.ndim}")
    if not np.issubdtype(y.dtype, np.integer):
        yf = np.asarray(y, dtype=np.float64)
        if not np.all(yf == np.round(yf)):
            raise ValueError("labels must be integers")
        y = yf.astype(np.int64)
    else:
        y = y.astype(np.int64)
    if y.size and y.min() < 1:
        raise ValueError("labels must be >= 1")
    if n is not None and len(y) != n:
        raise ValueError(f"label length {len(y)} does not match sample count {n}")
    return y


@dataclass(frozen=True)
class FilterBank:
    """Per-channel FIR filters.

    ``coeffs`` is (f, d): column v filters channel v.  Output sample i of
    channel v is ``sum_u coeffs[u, v] * X[i - u + n0, v]`` (0-based taps),
    reading X as zero outside its valid range.
    """

    coeffs: np.ndarray
    n0: int = 0

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if coeffs.ndim != 2:
            raise ValueError("filter coefficients must be 2-D (f x d)")
        if coeffs.shape[0] < 1 or coeffs.shape[1] < 1:
            raise ValueError(f"filter bank needs f >= 1 and d >= 1, got {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("filter coefficients must be finite")
        if not 0 <= self.n0 <= coeffs.shape[0] - 1:
            raise ValueError(f"delay n0={self.n0} outside [0, f-1]={coeffs.shape[0] - 1}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def f(self) -> int:
        return self.coeffs.shape[0]

    @property
    def d(self) -> int:
        return self.coeffs.shape[1]


def make_average_filter(f: int, n0: int, d: int) -> FilterBank:
    """Moving-average filter bank: every coefficient equals 1/f.

    At f = 1, n0 = 0 it is the identity: one coefficient of 1.0 per
    channel, which passes the signal through unchanged."""
    if f < 1 or d < 1:
        raise ValueError("average filter needs f >= 1 and d >= 1")
    return FilterBank(np.full((f, d), 1.0 / f), n0=n0)


def apply_filter(X, bank: FilterBank) -> np.ndarray:
    """Filter each channel of X with its column of the filter bank.

    Args:
        X: (n, d) signal.
        bank: FilterBank with matching channel count.

    Returns:
        (n, d) filtered signal; samples outside the input range read as
        zero, so the output stays the same length as the input.
    """
    X = as_signal(X)
    n, d = X.shape
    if bank.d != d:
        raise ValueError(f"filter bank has d={bank.d} channels, signal has d={d}")
    out = np.empty_like(X)
    for v in range(d):
        # full convolution entry k = sum_u F[u] * X[k - u]; the delayed
        # output is the slice starting at n0
        full = np.convolve(X[:, v], bank.coeffs[:, v], mode="full")
        out[:, v] = full[bank.n0 : bank.n0 + n]
    return out


def shift_signal(x: np.ndarray, k: int) -> np.ndarray:
    """Shift an array by k samples along axis 0 (positive = delay),
    zero-filling edges; |k| >= len(x) gives all zeros."""
    out = np.zeros_like(x)
    if k == 0:
        out[:] = x
    elif k > 0:
        out[k:] = x[:-k]
    elif -k < len(x):
        out[:k] = x[-k:]
    return out


@dataclass(frozen=True)
class ToyParams:
    """Parameters of the synthetic label-run benchmark signal.

    Channels 1-2 carry per-run class modes plus Gaussian noise of std
    ``sigma_n``; channels 3..nbtot are pure noise.  Each channel is then
    shifted by an independent integer lag drawn uniformly from
    [-lag, lag] (labels are not shifted), which mislabels samples near
    run boundaries.
    """

    n: int = 1000
    sigma_n: float = 1.0
    lag: int = 0
    nbtot: int = 2
    run_min: int = 30
    run_max: int = 40
    n_classes: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.sigma_n < 0:
            raise ValueError("sigma_n must be >= 0")
        if self.lag < 0:
            raise ValueError("lag must be >= 0")
        if self.nbtot < 2:
            raise ValueError("nbtot must be >= 2")
        if not 1 <= self.run_min <= self.run_max:
            raise ValueError("need 1 <= run_min <= run_max")
        if not 2 <= self.n_classes <= len(TOY_MODES):
            raise ValueError(f"n_classes must be in [2, {len(TOY_MODES)}]")


def draw_label_runs(rng: np.random.Generator, n: int, run_min: int, run_max: int,
                    n_classes: int = 2):
    """Partition 1..n into label runs.

    Run lengths are uniform on [run_min, run_max] and each run's class is
    drawn uniformly from 1..n_classes, independently of its neighbours.
    The final run is truncated to fit n exactly.

    Returns:
        (starts, lengths, classes) as equal-length int arrays.
    """
    starts, lengths, classes = [], [], []
    pos = 0
    while pos < n:
        length = int(rng.integers(run_min, run_max + 1))
        length = min(length, n - pos)
        starts.append(pos)
        lengths.append(length)
        classes.append(int(rng.integers(1, n_classes + 1)))
        pos += length
    return np.array(starts), np.array(lengths), np.array(classes)


def generate_toy_details(params: ToyParams):
    """Like generate_toy but also returns the generation bookkeeping.

    Returns:
        (X, y, runs, modes, lags) where runs = (starts, lengths, classes),
        modes is the per-run (ch1, ch2) mode actually used, and lags is
        the per-channel integer shift applied to X.
    """
    rng = np.random.default_rng(params.seed)
    n, d = params.n, params.nbtot
    starts, lengths, classes = draw_label_runs(
        rng, n, params.run_min, params.run_max, params.n_classes)

    y = np.empty(n, dtype=np.int64)
    modes = np.empty((len(starts), 2))
    X = np.zeros((n, d))
    for r, (s, length, cls) in enumerate(zip(starts, lengths, classes)):
        y[s : s + length] = cls
        mode = TOY_MODES[cls][int(rng.integers(0, 2))]
        modes[r] = mode
        X[s : s + length, 0] = mode[0]
        X[s : s + length, 1] = mode[1]

    X[:, :2] += rng.normal(0.0, params.sigma_n, size=(n, 2))
    if d > 2:
        X[:, 2:] = rng.normal(0.0, params.sigma_n, size=(n, d - 2))

    if params.lag > 0:
        lags = rng.integers(-params.lag, params.lag + 1, size=d)
    else:
        lags = np.zeros(d, dtype=np.int64)
    for v in range(d):
        if lags[v] != 0:
            X[:, v] = shift_signal(X[:, v], int(lags[v]))

    return X, y, (starts, lengths, classes), modes, lags


def generate_toy(params: ToyParams):
    """Generate the synthetic benchmark signal.

    Deterministic given ``params.seed``.

    Returns:
        (X, y): (n, nbtot) signal and length-n 1-based labels.
    """
    X, y, _, _, _ = generate_toy_details(params)
    return X, y
