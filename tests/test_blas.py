"""The library's numerics run at one BLAS thread, whatever the caller set.

The thread count is switched in-process through the package's own handle
(``marginfilter.blas``), the one the library pins with.  A BLAS product
may sum in another order on two threads, so a fit, a sweep cell or a
bank's scores computed at the caller's count could change bits with it;
pinned, they must not.
"""

import threading

import numpy as np
import pytest

from marginfilter import blas, svm
from marginfilter.filter_learning import LearnerConfig, RegularizerSpec, fit_shared_filter
from marginfilter.harness import GridSpec, grid_search, train_pipeline
from marginfilter.signals import ToyParams, generate_toy
from test_svm_reference import class_data

needs_handle = pytest.mark.skipif(
    not blas.AVAILABLE,
    reason="numpy's bundled OpenBLAS thread controls were not found, so the "
           "BLAS thread count cannot be switched in-process")


def at_threads(blas_threads, fn):
    """fn() computed with the caller's BLAS thread count at 1, then at 2,
    the count each call leaves behind checked."""
    results = []
    for count in (1, 2):
        blas_threads(count)
        results.append(fn())
        assert blas.threads() == count
    return results


class TestHandle:
    @needs_handle
    def test_set_threads_reads_back(self, blas_threads):
        for count in (2, 1, 3):
            blas_threads(count)
            assert blas.threads() == count

    @needs_handle
    def test_one_thread_restores_the_callers_count(self, blas_threads):
        seen = []
        pinned = blas.one_thread(lambda: seen.append(blas.threads()))
        blas_threads(2)
        pinned()
        assert seen == [1] and blas.threads() == 2

        def failing():
            raise ValueError("inside")

        with pytest.raises(ValueError, match="inside"):
            blas.one_thread(failing)()
        assert blas.threads() == 2

    def test_without_the_handle_nothing_is_set(self, monkeypatch):
        monkeypatch.setattr(blas, "_CONTROLS", None)
        assert blas.threads() is None
        blas.set_threads(2)  # no-op
        assert blas.one_thread(lambda x: x + 1)(1) == 2

    @pytest.mark.parametrize("count", [0, -1])
    def test_a_count_below_one_is_rejected(self, count):
        with pytest.raises(ValueError, match=">= 1"):
            blas.set_threads(count)


@needs_handle
class TestSameBitsAtAnyThreadCount:
    def test_kf_fit(self, blas_threads):
        # 6 channels: unpinned, this fit's products give other bits on 2 threads
        X, y = generate_toy(ToyParams(n=1000, sigma_n=1.0, lag=5, nbtot=6, seed=3))
        cfg = LearnerConfig(C=100.0, f=11, n0=6, reg=RegularizerSpec("frobenius", 1.0),
                            max_cg_iters=6)
        one, two = at_threads(blas_threads, lambda: fit_shared_filter(X, y, cfg))
        assert len(one.history) > 2
        assert one.bank.coeffs.tobytes() == two.bank.coeffs.tobytes()
        assert one.history == two.history
        for a, b in zip(one.problems, two.problems, strict=True):
            assert a.alpha.tobytes() == b.alpha.tobytes()
            assert a.u.tobytes() == b.u.tobytes()

    def test_grid_cells(self, monkeypatch, blas_threads):
        # a kf_svm grid chain of two lambda cells on 6 channels, the second
        # continued from the first, serial so it runs at the count set here
        monkeypatch.setenv("MARGIN_FILTER_THREADS", "1")
        train = generate_toy(ToyParams(n=1000, sigma_n=1.0, lag=5, nbtot=6, seed=4))
        validation = generate_toy(ToyParams(n=500, sigma_n=1.0, lag=5, nbtot=6, seed=5))
        grid = GridSpec(method="kf_svm", C=(100.0,), lam=(1.0, 10.0), f=(11,), n0=(6,))

        def cells():
            res = grid_search(train, validation, grid, keep_pipeline=True,
                              learner_kwargs={"max_cg_iters": 6})
            assert not res.failures
            return res

        one, two = at_threads(blas_threads, cells)
        assert one.table == two.table
        assert one.pipeline.filter.coeffs.tobytes() == two.pipeline.filter.coeffs.tobytes()
        for a, b in zip(one.pipeline.model.pairwise.values(),
                        two.pipeline.model.pairwise.values(), strict=True):
            assert a.alpha.tobytes() == b.alpha.tobytes() and a.bias == b.bias

    def test_four_class_bank_scores(self, monkeypatch, rng, blas_threads):
        # unpinned, these scores give other bits on 2 BLAS threads
        X, y = class_data(rng, 4, n=1000)
        pipe = train_pipeline(X, y, "avg_svm", C=10.0, sigma_k=0.8, f=3, n0=1)
        mc = pipe.model
        assert len(mc.pairwise) == 6  # a product of 6 columns per chunk
        Xte = pipe.filtered(class_data(rng, 4, n=3000)[0])
        for threads in ("1", "2"):  # scoring threads too
            monkeypatch.setenv("MARGIN_FILTER_THREADS", threads)
            one, two = at_threads(blas_threads, lambda: svm.joint_bank_scores(
                [list(mc.pairwise.values()), mc.one_vs_all], Xte))
            for a, b in zip(one, two, strict=True):
                assert a.tobytes() == b.tobytes()


@needs_handle
def test_blas_reads_one_thread_inside_the_scoring_threads(monkeypatch, rng, blas_threads):
    seen = []
    kernel_matrix = svm.kernel_matrix

    def recording(*args, **kwargs):
        seen.append((threading.get_ident(), blas.threads()))
        return kernel_matrix(*args, **kwargs)

    monkeypatch.setattr(svm, "kernel_matrix", recording)
    monkeypatch.setattr(svm, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("MARGIN_FILTER_THREADS", "2")
    pool = rng.normal(size=(40, 2))
    model = svm.SvmModel(alpha=None, bias=0.1, C=1.0, box=1.0, kernel=svm.KernelParams(0.8),
                         objective=0.0, sv_idx=None, sv_labels=np.ones(40, dtype=np.int64),
                         sv_alpha=np.full(40, 0.5), sv_rows=pool)
    blas_threads(2)
    svm.bank_scores([model], rng.normal(size=(4 * svm.SCORE_CHUNK_ROWS, 2)))
    assert len(seen) == 4
    assert threading.get_ident() not in {ident for ident, _ in seen}
    assert {count for _, count in seen} == {1}
    assert blas.threads() == 2
