"""Gaussian-kernel SVM on filtered samples.

Contains the kernel, a warm-startable SMO solver for the box-constrained
dual, the kernel decision function, Platt sigmoid calibration, and the
one-against-one / one-against-all multiclass banks used for online voting
and calibrated probabilities respectively.  Every solve of a fit or a
bank reads its kernel from a ``SupportKernel``, which computes the rows
the SMO steps touch, caches them up to KERNEL_CACHE_BYTES, and sums a
warm start's product over the support columns a block of rows at a time:
no array of n x n floats is made.  A solve's one bound, ``stop_above``,
is tested on its running dual, at a warm start as soon as the product has
the support set's rows: a start already above it computes no row beyond
their block.

Where the mathematics gives one SVM, one SVM is solved: with two classes
the one-against-all bank is the pairwise machine in its two label
orientations (the same dual solution), so a binary bank takes a single
SMO solve, and its one-vs-all scorers are solves warm-started at that
solution and at its running product K @ (alpha * y), negated for the
second orientation, which stop at their first optimality check: a
binary bank built on a filter fit's committed solve computes no kernel
entry.  A solve hands its final running products back to its caller
(``DualProducts``), so the next solve from the same alpha starts
without a product.

Every kernel entry comes from one BLAS product on centred samples, within
a stated tolerance of the difference form; ``kernel_matrix`` states that
contract for the whole module.  Numerics run at one BLAS thread
(``blas.one_thread``: the solver, a bank's training and scoring,
``kernel_matrix``), so the same inputs give the same bits on one machine
and BLAS build whatever the caller's BLAS or worker thread counts;
OpenBLAS picks its kernels per CPU, so other CPUs may round otherwise.

A bank scores its test samples in chunks of SCORE_CHUNK_ROWS rows on up
to min(#chunks, MARGIN_FILTER_THREADS, usable CPUs) threads, opened and
joined inside the call; the kernel product, exp and bank products of a
chunk release the interpreter lock.  Each chunk writes its own rows of the
result, so every score is the same double as a serial run gives.  Inside
a worker process of ``harness``'s process map the chunks run in the
calling thread.  Several banks of one kernel can share a test kernel
(``joint_bank_scores``): a calibrated ``harness.Pipeline`` scores its
pairwise and one-vs-all banks so, once for both decoders, and hands their
scores to ``oao_vote`` and ``class_probabilities`` through their
``scores`` argument.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .blas import one_thread

# Support vectors are the alphas above this fraction of the box bound.
SV_THRESHOLD_FRAC = 1e-8
# Test samples scored per kernel block; bounds a test kernel's memory and
# is the unit of work of a scoring thread.  A block against ~1000 support
# vectors (2 MB) stays in a core's L2 cache through the kernel product,
# exp and bank product passes; 1024 rows measured ~10% slower on
# 60000-sample labeling.
# The block size also fixes the scores' bits: BLAS may sum a product of
# another shape in another order (1024-row blocks gave other bits), so
# it must not depend on the thread count.
SCORE_CHUNK_ROWS = 256
# Bytes of kernel rows one source keeps (LIBSVM's default cache_size,
# Chang & Lin, ACM TIST 2011, section 5).
KERNEL_CACHE_BYTES = 100 * 2**20
# The cache takes its rows in slabs of this size, the same for every
# source, so a slab one source frees is reused whole by the next.  One
# allocation per row left the freed rows in holes between longer-lived
# arrays: headline's peak resident memory measured 10 MB higher.
CACHE_SLAB_BYTES = 2**20
# Rows per block of a warm start's K[:, S] @ w.  A multiple of 4:
# OpenBLAS's dgemv takes a matrix's rows in fours and the last n % 4 one
# at a time, so each row of a blocked product sums as in the whole one.
PRODUCT_CHUNK_ROWS = 256
# Bytes of kernel rows per block of a solve's end-of-solve V update.  It
# runs when the row cache is at its fullest, so the block adds to peak
# resident memory: 256 rows (2 MB at n = 1000) raised skf-select's by
# 2 MB, and 64 rows (512 kB) by none.
MOVED_ROWS_BYTES = 2**19


@dataclass(frozen=True)
class KernelParams:
    """Gaussian kernel bandwidth."""

    sigma_k: float = 1.0

    def __post_init__(self):
        """Reject a bandwidth whose 2 sigma_k^2 is not a finite positive
        double: the kernel would divide by 0 (NaN entries) or by inf (all
        ones).  A subnormal 2 sigma_k^2 still gives a kernel, of samples
        whose distances from their mean are of the order of sigma_k
        (``_Frame.left``)."""
        if not (np.isfinite(self.sigma_k) and self.sigma_k > 0):
            raise ValueError(f"sigma_k must be finite and > 0, got {self.sigma_k}")
        try:
            with np.errstate(over="ignore"):  # a numpy float gives inf
                two_var = 2.0 * self.sigma_k**2
        except OverflowError:  # a Python float raises
            two_var = math.inf
        if math.isinf(two_var):
            # an ArithmeticError, as Python's own float overflow
            raise OverflowError(f"2 sigma_k^2 overflows for sigma_k={self.sigma_k!r}")
        if two_var == 0.0:
            raise ValueError(f"2 sigma_k^2 underflows for sigma_k={self.sigma_k!r}")


@one_thread
def kernel_matrix(A, B, params: KernelParams, out=None) -> np.ndarray:
    """Gaussian kernel matrix exp(-||a_i - b_j||^2 / (2 sigma_k^2)).

    A is (m, d), B is (p, d); returns (m, p), written into ``out`` (a
    C-contiguous float64 (m, p) array) when given.  Symmetric PSD when A
    is B, up to rounding, with a diagonal of exactly 1.  Runs at one BLAS
    thread (``blas.one_thread``).

    The kernel contract, which every kernel entry of this module keeps
    (``SupportKernel``, ``joint_bank_scores``): an entry comes from one
    BLAS product (``_Frame``, ``_gaussian``), as
    exp(min(f ||a||^2 + f ||b||^2 - 2f a.b, 0)) with f = -1/(2 sigma_k^2),
    after the samples are centred on one shared mean (here that of all
    rows of A and B, in a source that of its samples, in a bank scoring
    that of its support rows), so that the norms cancel without loss on
    signals offset far from 0; each sample's f ||x||^2 is computed once,
    where its samples are prepared, and k(x, x) is set to exactly 1.  The
    tests hold each entry within 16 eps (1 + s_a + s_b), relative, of the
    difference form, where s_x = ||x - mean||^2 / (2 sigma_k^2), for d up
    to 96, also on signals offset by 1e6, and each bank score within that
    bound carried through the bank's coefficients.  An entry depends on
    the other samples through their mean, by rounding, so a block of a
    kernel is not bit for bit that part of the whole kernel.  Samples
    whose ||x - mean||^2 / sigma_k^2 overflows, or is not finite, raise a
    ValueError.

    A or B may also be a kernel source's operand (``_Operand``), centred
    and normed once, with its own sigma_k, when the source was made; a
    plain other operand is then centred on the same mean.
    """
    if isinstance(B, _Operand):
        left = A.array if isinstance(A, _Operand) else B.frame.left(_as_samples(A))
        return _gaussian(left, B.array, out)
    A, B = _as_samples(A), _as_samples(B)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"channel mismatch: {A.shape[1]} vs {B.shape[1]}")
    frame = _Frame(_centre(A, B), params.sigma_k)
    left = frame.left(A)
    if B is not A:
        return _gaussian(left, _right(frame.left(B)), out)
    K = _gaussian(left, _right(left), out)
    np.fill_diagonal(K, 1.0)  # k(x, x) = exp(0), whatever the rounding
    return K


def _as_samples(A) -> np.ndarray:
    """A as a 2-D float64 array; a sample given as a vector is one row."""
    return np.atleast_2d(np.asarray(A, dtype=np.float64))


# The largest squared norm ||w||^2 of a centred sample over sigma_k
# (``_Frame.left``): every partial sum of an entry's exponent, at most
# (||w_a||^2 + ||w_b||^2) / 2 + |h_a| + |h_b| in size, then stays finite.
_NORM_LIMIT = np.finfo(np.float64).max / 2


def _centre(*arrays) -> np.ndarray:
    """The mean of all rows of ``arrays`` (0 where there are none), summed
    row after row whatever the arrays' memory layout."""
    rows = sum(len(A) for A in arrays)
    total = sum(np.ascontiguousarray(A).sum(axis=0) for A in arrays)
    return total / rows if rows else np.zeros(arrays[0].shape[1])


@dataclass(frozen=True)
class _Frame:
    """The shared centre and bandwidth that put samples into the kernel's
    one product.

    A sample x becomes w = (x - centre) / sigma_k and h = -||w||^2 / 2,
    which is f ||x - centre||^2 with f = -1/(2 sigma_k^2).  The left
    operand holds a row [w, h, 1] per sample, the right one a column
    [w, 1, h] (``_right``), so one product gives w_a . w_b + h_a + h_b =
    f ||a - b||^2 for every pair at once.
    """

    centre: np.ndarray
    sigma_k: float

    def left(self, X: np.ndarray) -> np.ndarray:
        """The (m, d + 2) left operand of the samples X (m, d)."""
        m, d = X.shape
        L = np.empty((m, d + 2))
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            w = np.subtract(X, self.centre, out=L[:, :d])
            w /= self.sigma_k
            h = np.einsum("ij,ij->i", w, w)
        if not np.all(h <= _NORM_LIMIT):  # NaN too
            raise ValueError(
                "a sample's squared distance from the samples' mean overflows "
                f"the kernel at sigma_k={self.sigma_k!r} (or is not finite)")
        L[:, d] = h
        L[:, d] *= -0.5
        L[:, d + 1] = 1.0
        return L


def _right(left: np.ndarray) -> np.ndarray:
    """The (d + 2, m) right operand of the samples of a left one: the
    columns [w, 1, h]."""
    d = left.shape[1] - 2
    R = np.empty((d + 2, len(left)))
    R[:d] = left[:, :d].T
    R[d] = 1.0
    R[d + 1] = left[:, d]
    return R


@dataclass(frozen=True)
class _Operand:
    """A left or right operand of ``_Frame``'s product, already computed:
    how a kernel source passes its prepared samples to ``kernel_matrix``."""

    array: np.ndarray
    frame: _Frame


def _gaussian(L: np.ndarray, R: np.ndarray, out=None) -> np.ndarray:
    """exp(min(L @ R, 0)) for a left operand L, (m, d + 2) or one row, and
    a right one R: the one formula of every kernel entry.  A rounded
    exponent above 0 (at a distance near 0) reads 0, so no entry
    exceeds 1."""
    G = np.matmul(L, R, out=out)
    np.minimum(G, 0.0, out=G)
    return np.exp(G, out=G)


def _row_chunks(n: int):
    """[lo, hi) bounds of PRODUCT_CHUNK_ROWS rows each, covering range(n).

    A last block of one row joins the block before it: numpy takes a
    one-row matrix times a vector as a dot product, which sums in another
    order than the matrix-vector product does.
    """
    bounds = [*range(0, n, PRODUCT_CHUNK_ROWS), n]
    if len(bounds) > 2 and n - bounds[-2] == 1:
        del bounds[-2]
    return zip(bounds[:-1], bounds[1:])


def _live_channels(*arrays) -> np.ndarray | None:
    """Indices of the channels (columns) not all 0 over ``arrays``, or None
    when every channel is live.  A channel that is 0 (or -0.0) in both
    operands has mean 0 and adds nothing to a kernel entry, so leaving it
    out changes no entry beyond rounding, and the same live channels give
    the same bits whatever dead channels surround them."""
    live = np.zeros(arrays[0].shape[1], dtype=bool)
    for A in arrays:
        live |= np.any(A != 0, axis=0)
    return None if live.all() else np.flatnonzero(live)


class SupportKernel:
    """The Gaussian kernel of ``X`` (``samples``), computed where a solve reads it.

    A solve reads its kernel in four ways (``solve_svm_dual``): the shape,
    the diagonal, which is exp(0) = 1, the rows K[i] and K[j] of each SMO
    step and of the moved alphas at its end, and, at a warm start without
    its products, K @ (alpha * y), which only the columns of the support
    set S (alpha > 0) enter.  This source computes a row on first use and
    caches it; once the cache holds KERNEL_CACHE_BYTES of rows, each new
    row takes the place of the least recently used one, which is computed
    again when next read (the kernel cache of Joachims 1999 and of LIBSVM,
    Chang & Lin 2011).  A cache of fewer than two rows keeps none.  It
    computes a product PRODUCT_CHUNK_ROWS rows of K[:, S] at a time, the
    rows of S first, and keeps none of them; a caller may stop it once the
    rows of S are done (``products``).  So it holds no n x n or n x |S|
    array: the cache and one block of rows.  ``subset(rows)`` is the
    kernel of X[rows], whose rows are slices of this source's rows, read
    through its cache: the solves of one training set share one cache.

    The samples are prepared once, here, over the live channels of X only
    (``_live_channels``), as ``kernel_matrix`` states: a row is one
    matrix-vector product and a block of K[:, S] one matrix-matrix
    product, through ``kernel_matrix``.  So every entry is the entry of
    kernel_matrix(X, X) up to rounding, not bit for bit; a row is the same
    doubles each time it is computed, whatever the cache size, and a
    view's rows are the slices of its parent's.  The product
    sums each row of K[:, S] as the product of the whole K[:, S] (its rows
    ordered S first) does, so it differs from a dense K @ w, which sums
    over every column, by rounding.
    """

    def __init__(self, X, params: KernelParams):
        samples = np.asarray(X, dtype=np.float64)
        if samples.ndim != 2:
            raise ValueError(f"samples must be 2-D (n, d), got shape {samples.shape}")
        live = _live_channels(samples)
        live_X = samples if live is None else samples[:, live]
        frame = _Frame(_centre(live_X), params.sigma_k)
        left = frame.left(live_X)
        self._setup(samples, params, frame, left, _right(left))

    def _setup(self, samples, params, frame, left, right, parent=None, rows=None):
        self.samples = samples
        self._params = params
        self._frame = frame
        self._left, self._right = left, right  # (n, d + 2) and (d + 2, n)
        n = len(samples)
        self.shape = (n, n)
        self._cache = {}  # sample -> its row, least recently used first
        self._free = []  # rows of the last slab not yet used
        self._capacity = KERNEL_CACHE_BYTES // (8 * max(n, 1))
        self._parent, self._rows = parent, rows

    def subset(self, rows) -> SupportKernel:
        """The kernel of X[rows], reading its rows through this cache."""
        rows = np.asarray(rows)
        view = SupportKernel.__new__(SupportKernel)
        view._setup(self.samples[rows], self._params, self._frame, self._left[rows],
                    self._right[:, rows], self, rows)
        return view

    def diagonal(self) -> np.ndarray:
        return np.ones(self.shape[0])

    def __getitem__(self, i: int) -> np.ndarray:
        if self._parent is not None:
            return self._parent[int(self._rows[i])][self._rows]
        row = self._cache.pop(i, None)
        if row is None:
            if self._capacity < 2:  # a row evicted by K[j] could be the step's K[i]
                return self._row(i)
            if len(self._cache) >= self._capacity:
                row = self._cache.pop(next(iter(self._cache)))  # overwritten below
            else:
                if not self._free:
                    n = self.shape[0]
                    room = min(self._capacity, n) - len(self._cache)
                    slab = max(min(CACHE_SLAB_BYTES // (8 * n), room), 1)
                    self._free = list(np.empty((slab, n)))
                row = self._free.pop()
            self._row(i, out=row)
        self._cache[i] = row
        return row

    def _row(self, i: int, out=None) -> np.ndarray:
        """Row i, one matrix-vector product; its diagonal entry is exp(0)
        = 1 whatever the rounding."""
        row = _gaussian(self._left[i], self._right, out)
        row[i] = 1.0
        return row

    def products(self, w, Z=None, stop=None):
        """(K @ w, K @ (w[:, None] * Z)), from the columns of the support S
        of w alone; the second is None without ``Z``, an (n, d) array.

        Both come from the same blocks of K[:, S]: K @ w as a matrix-vector
        product per block, the other as a d-column product per block.
        ``stop``, when given, is called with K @ w once the block of rows
        that completes the rows of S is done, the rows not yet computed
        reading 0; if it returns True the products end there.
        """
        w = np.asarray(w, dtype=np.float64)
        n = self.shape[0]
        support = np.flatnonzero(w)
        s = len(support)
        in_support = np.zeros(n, dtype=bool)
        in_support[support] = True
        order = np.concatenate([support, np.flatnonzero(~in_support)])
        columns, w_s = _Operand(self._right[:, support], self._frame), w[support]
        out = np.zeros(n)
        if Z is None:
            V = wZ = None
        else:
            V = np.zeros((n, Z.shape[1]))
            wZ = w_s[:, None] * Z[support]
        buf = np.empty((min(n, PRODUCT_CHUNK_ROWS + 1), s))
        for lo, hi in _row_chunks(n):
            rows = _Operand(self._left[order[lo:hi]], self._frame)
            part = kernel_matrix(rows, columns, self._params, out=buf[: hi - lo])
            own = np.arange(lo, min(hi, s))  # rows of S: the diagonal at their own column
            part[own - lo, own] = 1.0
            out[order[lo:hi]] = part @ w_s
            if V is not None:
                V[order[lo:hi]] = part @ wZ
            if stop is not None and lo < s <= hi and stop(out):
                break
        return out, V


@dataclass
class DualProducts:
    """The running products of a dual solution, handed into and out of
    ``solve_svm_dual``: u = K @ (alpha * y) and, for an (n, d) ``Z``,
    V = K @ (alpha * y o Z), the i-th row of V being sum_j K_ij alpha_j
    y_j Z_j.  ``Z`` alone asks a solve to keep V; ``u`` (and ``V`` where
    ``Z`` is given) alongside a warm alpha are the products at it, so the
    solve computes none."""

    u: np.ndarray | None = None
    Z: np.ndarray | None = None
    V: np.ndarray | None = None


# Why a solve stopped (SvmModel.stop).
STOP_CONVERGED = "converged"  # the KKT violation dropped below tol
STOP_BOUND = "bound"  # the running dual exceeded stop_above
STOP_MAX_ITER = "max_iter"  # the iteration cap
STOP_STUCK = "stuck"  # no pair could make progress (rounding at the box)


@dataclass
class SvmModel:
    """Solution of the SVM dual plus everything needed to score new samples.

    ``alpha`` is the full dual vector (length n, one per training sample)
    and ``sv_idx`` the training rows of the support vectors (alpha above
    SV_THRESHOLD_FRAC * box); the other sv_* arrays hold the support
    vectors' alphas, labels in {-1, +1} and sample rows, which are all a
    scorer reads.  A model loaded from a file has no training set: its
    ``alpha`` and ``sv_idx`` are None.  ``objective`` is the dual optimum
    sum(alpha) - 0.5 alpha' Q alpha, which by strong duality equals the
    primal hinge-loss objective and is what the filter learner minimizes.
    ``stop`` tells why the solve ended, one of the four STOP_* reasons,
    for a model solved here and for one loaded from a file alike;
    ``converged`` is derived from it.
    """

    alpha: np.ndarray | None
    bias: float
    C: float
    box: float
    kernel: KernelParams
    objective: float
    sv_idx: np.ndarray | None
    sv_labels: np.ndarray
    sv_alpha: np.ndarray
    sv_rows: np.ndarray | None = None
    n_iter: int = 0
    stop: str = STOP_CONVERGED

    @property
    def converged(self) -> bool:
        return self.stop == STOP_CONVERGED


def _add_moved_rows(K, V: np.ndarray, dw: np.ndarray, Z: np.ndarray):
    """V += K @ (dw[:, None] * Z), from the rows K[t] = K[:, t] of the
    nonzero dw alone, MOVED_ROWS_BYTES of rows at a time in one buffer."""
    moved = np.flatnonzero(dw)
    if len(moved) == 0:
        return
    dwZ = dw[moved, None] * Z[moved]
    step = max(1, MOVED_ROWS_BYTES // (8 * len(V)))
    buf = np.empty((min(len(moved), step), len(V)))
    for lo in range(0, len(moved), step):
        block = moved[lo : lo + step]
        rows = buf[: len(block)]
        for k, t in enumerate(block):
            rows[k] = K[t]
        V += rows.T @ dwZ[lo : lo + len(block)]


@one_thread
def solve_svm_dual(K, y, C, *, rows=None, kernel: KernelParams | None = None,
                   tol: float = 1e-3, max_iter: int = 2_000_000,
                   warm_alpha=None, products: DualProducts | None = None,
                   stop_above: float = np.inf) -> SvmModel:
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

    The kernel source ``K`` is read in four ways only: its shape, its
    diagonal, K @ (alpha * y) once at a warm start without its product,
    and the rows K[t] of each step's pair and of the alphas that moved.
    A ``SupportKernel`` computes the rows the steps touch and, at a warm
    start, the support columns of the product, so no n x n array is made;
    a dense matrix serves too.  Both give the same entries, so a cold
    solve is the same either way; a warm start's product is summed over
    the support set only, so it, and the iterates after it, differ by
    rounding.  The dual at a warm start needs only the support set S's
    rows of the product, which a ``SupportKernel`` computes first: when
    they put it above ``stop_above``, the product stops after the block
    of rows that completes them, and the solve returns the warm alpha,
    that dual as its objective, 0 steps and STOP_BOUND.

    ``products`` carries the running products in and out
    (``DualProducts``).  Given with ``warm_alpha`` and holding its u (and
    V where Z is given), the start computes no product: the alpha of a
    previous solve, with the products that solve handed back (scaled
    alike, or negated with y), starts exactly where that solve ended.
    Otherwise a warm start computes V in the same blocks of K[:, S] as u,
    and a cold one starts both at 0.  The steps update u alone; at the end
    V is brought up to date from the rows K[t] = K[:, t] of the alphas
    that moved, MOVED_ROWS_BYTES of them at a time, a moved alpha's row
    being one its step read.  On return ``products`` holds the final u and V
    (V is left as the start gave it in a solve that ends at
    ``stop_above``, whose result a caller does not keep).

    ``stop`` on the result tells why the solve ended: STOP_CONVERGED,
    STOP_BOUND (``stop_above``), STOP_MAX_ITER, or STOP_STUCK (no pair
    left that can move, or a step rounded to zero at the box).

    Args:
        K: kernel source: a SupportKernel of the training samples, or
            their (n, n) symmetric PSD kernel matrix.
        y: length-n labels in {-1, +1}, both classes present.
        C: regularization constant (> 0); the per-sample box is C/n.
        rows: optional (n, d) training samples, retained for the support
            vectors so the model can score new data.
        kernel: bandwidth to use at prediction time (required with rows).
        tol: KKT stopping tolerance.
        max_iter: iteration cap; on hitting it the best iterate is
            returned with converged=False.
        warm_alpha: optional length-n feasible starting point.
        products: optional running products, in and out (see above).
        stop_above: stop as soon as the running dual exceeds this value;
            the returned objective then exceeds it too (up to rounding).

    Returns:
        SvmModel.
    """
    if not isinstance(K, SupportKernel):
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
    products = DualProducts() if products is None else products
    Z = products.Z
    if Z is not None:
        Z = np.asarray(Z, dtype=np.float64)
        if Z.ndim != 2 or len(Z) != n:
            raise ValueError(f"Z must be (n, d) with n={n}, got shape {Z.shape}")

    def dual_at(u):  # sum(alpha) - 0.5 * (alpha*y)' K (alpha*y), u = K @ (alpha*y)
        return float(alpha.sum() - 0.5 * np.dot(alpha * y, u))

    if warm_alpha is None:
        alpha = np.zeros(n)
        u = np.zeros(n)  # u = K @ (alpha * y)
        V = None if Z is None else np.zeros(Z.shape)
    else:
        alpha = np.clip(np.asarray(warm_alpha, dtype=np.float64).copy(), 0.0, box)
        # pair updates preserve sum(alpha*y), so an infeasible start would
        # converge to the wrong constraint value
        if abs(np.dot(alpha, y)) > 1e-8 * max(1.0, C):
            raise ValueError("warm_alpha violates the equality constraint")
        if products.u is not None and (Z is None or products.V is not None):
            u = np.array(products.u, dtype=np.float64)
            V = None if Z is None else np.array(products.V, dtype=np.float64)
        elif isinstance(K, SupportKernel):
            # the product stops once its rows of S show the start's dual
            # above stop_above; its other rows, still 0, meet alpha = 0
            u, V = K.products(alpha * y, Z, stop=lambda u: dual_at(u) > stop_above)
        else:
            u = K @ (alpha * y)
            V = None if Z is None else K @ ((alpha * y)[:, None] * Z)
    alpha_start = None if Z is None else alpha.copy()

    diag = K.diagonal().copy()
    # a constant diagonal (every Gaussian kernel's) gives diag + diag[i]
    # the same bits for every i: computed once
    quad_base = diag + diag[0] if np.all(diag == diag[0]) else None
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

    it = 0
    stop = STOP_MAX_ITER
    m_val = M_val = 0.0
    dual = dual_at(u)  # the running dual; 0 when cold
    while it < max_iter and dual <= stop_above:
        # v_t = -y_t * grad_t = y_t - u_t; b estimates for free points
        np.subtract(y_up, u, out=v_up)
        np.subtract(y_low, u, out=v_low)
        i = int(v_up.argmax())
        m_val = float(v_up[i])
        M_val = float(v_low[v_low.argmin()])
        if m_val - M_val <= tol:
            stop = STOP_CONVERGED
            break

        # second-order choice of j: largest gain b_gain^2 / quad, with
        # quad = diag[i] + diag - 2 K[i] and b_gain = v_i - v_j, over the
        # rows with b_gain > 0 (all in low, as v_low is +inf outside it);
        # the others gain 0, and some row gains more, as m - M > tol
        K_i = K[i]
        np.multiply(K_i, 2.0, out=two_k)
        if quad_base is None:
            np.add(diag, diag[i], out=quad)
            np.subtract(quad, two_k, out=quad)
        else:
            np.subtract(quad_base, two_k, out=quad)
        np.maximum(quad, 1e-12, out=quad)
        np.subtract(m_val, v_low, out=b_gain)
        np.maximum(b_gain, 0.0, out=gain)
        np.multiply(gain, gain, out=gain)
        np.divide(gain, quad, out=gain)
        j = int(gain.argmax())
        if not gain[j] > 0.0:
            stop = STOP_STUCK
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
            stop = STOP_STUCK
            break
        dual += t * b_j - 0.5 * t * t * q_j
        da_i = y_i * t
        da_j = -y_j * t
        a_i += da_i
        a_j += da_j
        alpha[i] = a_i
        alpha[j] = a_j
        # u += K_i * (da_i y_i) + K_j * (da_j y_j), through the buffers
        # v_up and two_k, which the next step overwrites before reading
        np.multiply(K_i, da_i * y_i, out=v_up)
        np.multiply(K[j], da_j * y_j, out=two_k)
        np.add(v_up, two_k, out=v_up)
        np.add(u, v_up, out=u)
        for k, a_k, y_k in ((i, a_i, y_i), (j, a_j, y_j)):
            if y_k > 0:
                up, low = a_k < hi, a_k > eps_b
            else:
                up, low = a_k > eps_b, a_k < hi
            y_up[k] = y_k if up else -np.inf
            y_low[k] = y_k if low else np.inf
        it += 1
    if stop == STOP_MAX_ITER and dual > stop_above:
        stop = STOP_BOUND
    if V is not None and stop != STOP_BOUND:
        _add_moved_rows(K, V, (alpha - alpha_start) * y, Z)
    products.u, products.V = u, V

    objective = dual_at(u)

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
        n_iter=it,
        stop=stop,
    )
    return model


def decision_scores(model: SvmModel, Xte) -> np.ndarray:
    """Kernel decision function g(x) = sum_j alpha_j y_j k(x, x_j) + bias.

    Scores the model as a bank of one through ``bank_scores``, the path
    that scores each multiclass bank through one kernel per bank.
    """
    return bank_scores([model], Xte)[:, 0]


def support_table(models):
    """The distinct support-vector rows of ``models``, and where each model's are.

    Returns (table, where): ``table`` is np.unique of all the models'
    stacked sv_rows (axis 0, so sorted and exact: the banks' rows are
    copies of one training matrix), and ``where[k]`` indexes it so that
    table[where[k]] equals models[k].sv_rows.  A row that two models, or
    two support vectors of one model, share appears once in the table.
    """
    table, inverse = np.unique(np.concatenate([m.sv_rows for m in models]),
                               axis=0, return_inverse=True)
    ends = np.cumsum([len(m.sv_rows) for m in models])
    return table, np.split(inverse.ravel(), ends[:-1])


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_count(tasks: int) -> int:
    """Workers for ``tasks`` independent tasks: min(tasks,
    MARGIN_FILTER_THREADS, usable CPUs), at least 1; 1 inside a worker
    process, so neither scoring threads nor worker processes nest.

    MARGIN_FILTER_THREADS defaults to the usable CPU count.  A value that
    is not a positive integer raises RuntimeError, which no grid cell or
    sweep task records as a numerical failure.
    """
    cpus = _usable_cpus()
    raw = os.environ.get("MARGIN_FILTER_THREADS")
    requested = cpus
    if raw is not None:
        try:
            requested = int(raw)
        except ValueError:
            requested = 0
        if requested < 1:
            raise RuntimeError(f"MARGIN_FILTER_THREADS={raw!r} is not a positive integer")
    if multiprocessing.parent_process() is not None:
        return 1
    return max(1, min(tasks, requested, cpus))


def bank_scores(models, Xte) -> np.ndarray:
    """Decision scores of a bank of models that share one kernel: the
    one-bank case of ``joint_bank_scores``.

    Returns (m, len(models)); column k holds model k's scores.
    """
    return joint_bank_scores([models], Xte)[0]


@one_thread
def joint_bank_scores(banks, Xte) -> list[np.ndarray]:
    """Decision scores of several banks of models through one test kernel.

    The support-vector rows of all models of all banks are deduplicated
    into one table (``support_table``), and each bank's alpha_j y_j are
    scattered into its own (n_union, len(bank)) coefficient matrix.
    ``Xte`` is then scored SCORE_CHUNK_ROWS rows at a time against the
    distinct rows, over the channels not 0 in both (``_live_channels``),
    through the kernel ``kernel_matrix`` states, centred on the table's
    mean; so one test kernel serves every bank, and each bank takes its
    own product with a chunk's kernel.  The chunks run on up to
    min(#chunks, MARGIN_FILTER_THREADS, usable CPUs) threads, each with
    its own SCORE_CHUNK_ROWS x n_union kernel buffer, allocated here;
    each chunk writes its own rows of the result, and BLAS runs on one
    thread throughout the call, so the scores are the same doubles on any
    number of scoring or BLAS threads.  One chunk, or a call inside a
    worker process, runs in the calling thread.  The threads are joined
    before this returns or raises.

    A bank's scores are the same doubles as when it is scored alone
    wherever its own table is the whole table: a one-vs-all bank whose
    support rows include every pairwise one, or either bank of a binary
    model.  Elsewhere its product also sums rows of zero coefficient, in
    another order, and its samples are centred on another mean, so its
    scores differ by rounding.  Before BLAS was held to one thread here,
    OpenBLAS 0.3.31 threaded a product of 6 columns against 1000 rows
    inside the scoring threads, which scored 60000 samples 2-3 times
    slower on 2 cores.

    Returns one (m, len(bank)) array per bank; column k holds model k's
    scores.
    """
    banks = [list(bank) for bank in banks]
    models = [model for bank in banks for model in bank]
    if not all(banks) or not models:
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

    union, where = support_table(models)
    live = _live_channels(Xte, union)
    if live is not None:  # the same distances, over fewer channels
        Xte, union = Xte[:, live], union[:, live]
    frame = _Frame(_centre(union), kernel.sigma_k)
    columns = _Operand(_right(frame.left(union)), frame)
    where = iter(where)
    products = []  # (coefficients, biases, scores) per bank
    for bank in banks:
        column = np.repeat(np.arange(len(bank)), [len(m.sv_rows) for m in bank])
        coef = np.zeros((len(union), len(bank)))
        # add.at, not assignment: a row repeated within one model sums its pulls
        np.add.at(coef, (np.concatenate([next(where) for _ in bank]), column),
                  np.concatenate([m.sv_alpha * m.sv_labels for m in bank]))
        products.append((coef, np.array([m.bias for m in bank]),
                         np.empty((len(Xte), len(bank)))))

    chunks = deque(range(0, len(Xte), SCORE_CHUNK_ROWS))
    workers = _worker_count(len(chunks))
    # one kernel buffer per thread, allocated by this thread: kernels the
    # scoring threads allocate per chunk come from their own malloc
    # arenas, which raised 60000-sample labeling's peak RSS 90 -> 102 MB
    buffers = np.empty((workers, min(len(Xte), SCORE_CHUNK_ROWS), len(union)))

    def score_chunks(buffer):
        while True:
            try:
                start = chunks.popleft()  # deque pops are thread-safe
            except IndexError:
                return
            rows = slice(start, start + SCORE_CHUNK_ROWS)
            block = Xte[rows]
            try:
                K = kernel_matrix(block, columns, kernel, out=buffer[:len(block)])
                for coef, bias, out in products:
                    np.matmul(K, coef, out=out[rows])
                    out[rows] += bias
            except BaseException:
                chunks.clear()  # the other threads stop at their next chunk
                raise

    if workers == 1:
        score_chunks(buffers[0])
    else:
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(score_chunks, buffer) for buffer in buffers]
        for future in futures:  # all threads are joined here
            future.result()
    return [out for _, _, out in products]


def _logistic(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(z)) elementwise, computed as exp(-z) / (1 + exp(-z))
    where z >= 0, so exp never overflows."""
    out = np.empty_like(z)
    nonneg = z >= 0
    e = np.exp(-z[nonneg])
    out[nonneg] = e / (1.0 + e)
    out[~nonneg] = 1.0 / (1.0 + np.exp(z[~nonneg]))
    return out


@dataclass(frozen=True)
class PlattParams:
    """Sigmoid calibration P(class | score) = 1 / (1 + exp(A*score + B))."""

    A: float
    B: float

    def probability(self, scores) -> np.ndarray:
        return _logistic(self.A * np.asarray(scores, dtype=np.float64) + self.B)


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
        p, q = _logistic(z), _logistic(-z)

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


@one_thread
def train_multiclass(X, y, C, kernel: KernelParams, *, tol: float = 1e-3,
                     pairwise: dict | None = None, pair_products: dict | None = None,
                     warm_ova: list | None = None) -> MulticlassModel:
    """Train the pairwise and one-vs-all banks on (already filtered) data.

    Every solve reads one ``SupportKernel``, ``X`` itself when it is one,
    a pair's rows being slices of its rows, so the solves share one cache
    of rows.  Each pair is solved cold, unless ``pairwise`` holds its
    solve at ``X``, which a bank of c >= 3 classes takes as its model.
    With two classes one-vs-all is the pairwise machine (Hsu & Lin, IEEE
    TNN 2002): Q = diag(y) K diag(y) and sum(alpha * y) = 0 do not change
    under y -> -y, so the pair's alpha is optimal for both label
    orientations.  The pair is solved warm from its given solve, starting
    at its running product u = K @ (alpha * y) where ``pair_products``
    holds it, and each orientation is solved warm from the pair's alpha
    and the pair's final u, negated for the second orientation (every
    term of K @ (alpha * -y) is negated exactly).  So no solve computes a
    product, each stops at its first optimality check, and the pair's
    model is orientation 0's solve: one-vs-all[0] scores exactly as the
    pair and one-vs-all[1] exactly as its negation, with the bias, read
    from u, of the pair's given solve.  (A start that misses ``tol`` by
    rounding takes a few SMO steps per orientation; both are then optimal
    to ``tol`` but no longer exact negations.)  With c >= 3 classes the c
    one-vs-rest scorers are c solves, cold or from ``warm_ova``.

    Args:
        X: (n, d) filtered samples, or a SupportKernel of them (a filter
            fit's, whose cached rows the solves then reuse).
        y: length-n labels (any integer values, >= 2 distinct).
        C: SVM constant; box per subproblem is C / n_sub.
        kernel: Gaussian bandwidth shared by all models.
        tol: solver tolerance.
        pairwise: optional solves of the pairs on ``X`` by class-index
            pair, e.g. a filter fit's committed solves: a c >= 3 bank's
            pairwise models, their support rows attached; a binary bank
            solves its pair warm from the given alpha.
        pair_products: optional K @ (alpha * y) of the ``pairwise``
            solves, by pair: a binary bank's pair starts from it.
        warm_ova: optional starting alphas of the c one-vs-rest scorers
            of a c >= 3 bank, in class order; a binary bank's scorers
            start from its pair's solve whatever is given.
    """
    K = X if isinstance(X, SupportKernel) else SupportKernel(X, kernel)
    X = K.samples
    y = np.asarray(y).ravel()
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("need at least 2 classes")
    binary = len(classes) == 2

    mc = MulticlassModel(classes=classes, pairwise={})
    for pair, rows, y_pm in class_pairs(y, classes):
        solved = None if pairwise is None else pairwise[pair]
        if solved is not None and not binary:
            mc.pairwise[pair] = replace(solved, sv_rows=X[rows[solved.sv_idx]])
            continue
        products = DualProducts(u=None if solved is None or pair_products is None
                                else pair_products[pair])
        mc.pairwise[pair] = solve_svm_dual(
            K if binary else K.subset(rows), y_pm, C, rows=X[rows], kernel=kernel,
            tol=tol, warm_alpha=None if solved is None else solved.alpha, products=products)

    if binary:
        # solves rather than a copy with bias and sv_labels negated, which
        # would do: perfbench/test_perfbench.py counts three solves under
        # a binary train_multiclass
        alpha, u = mc.pairwise[(0, 1)].alpha, products.u  # the one pair solve's
        y_pm = np.where(y == classes[0], 1.0, -1.0)
        mc.one_vs_all = [solve_svm_dual(K, sign * y_pm, C, rows=X, kernel=kernel, tol=tol,
                                        warm_alpha=alpha, products=DualProducts(u=sign * u))
                         for sign in (1.0, -1.0)]
        mc.pairwise[(0, 1)] = mc.one_vs_all[0]
    else:
        mc.one_vs_all = [solve_svm_dual(K, np.where(y == cls, 1.0, -1.0), C, rows=X,
                                        kernel=kernel, tol=tol,
                                        warm_alpha=None if warm_ova is None else warm_ova[k])
                         for k, cls in enumerate(classes)]
    return mc


def _bank_columns(scores, models, what: str) -> np.ndarray:
    """``scores`` as an (m, len(models)) array: one column per model."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != len(models):
        raise ValueError(f"need one score column per {what} model ({len(models)}), "
                         f"got shape {scores.shape}")
    return scores


def oao_vote(mc: MulticlassModel, Xte=None, *, scores=None) -> np.ndarray:
    """Label samples by pairwise voting.

    Each pairwise classifier votes by score sign; ties on vote count are
    broken by the largest summed |winning margin|, then the lowest class
    index.  The votes are read from ``scores``, the pairwise bank's scores
    of the samples, one column per model in ``mc.pairwise`` order, when
    the caller has them (``harness.Pipeline`` scores both banks at once).
    Without them the pairwise bank scores ``Xte`` through one kernel
    against its distinct support vectors (``bank_scores``).  Returns
    original class label values.
    """
    if scores is None:
        scores = bank_scores(list(mc.pairwise.values()), Xte)
    scores = _bank_columns(scores, mc.pairwise, "pairwise")
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


def class_probabilities(mc: MulticlassModel, platt: list[PlattParams], Xte=None, *,
                        scores=None) -> np.ndarray:
    """Calibrated per-class probabilities, renormalized to sum to 1.

    Applies each class's sigmoid to its one-vs-all score.  The scores are
    ``scores``, one column per model of ``mc.one_vs_all``, when the caller
    has them; without them the one-vs-all bank scores ``Xte`` through one
    kernel against its distinct support vectors (``bank_scores``).
    Returns (m, c) rows in (0, 1) summing to 1.
    """
    if not mc.one_vs_all:
        raise ValueError("model has no one-vs-all bank")
    if len(platt) != mc.n_classes:
        raise ValueError("need one calibration per class")
    if scores is None:
        scores = bank_scores(mc.one_vs_all, Xte)
    scores = _bank_columns(scores, mc.one_vs_all, "one-vs-all")
    raw = np.column_stack([platt[k].probability(scores[:, k])
                           for k in range(mc.n_classes)])
    np.maximum(raw, np.finfo(np.float64).tiny, out=raw)
    return raw / raw.sum(axis=1, keepdims=True)
