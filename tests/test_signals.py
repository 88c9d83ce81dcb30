import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from marginfilter.signals import (
    FilterBank,
    ToyParams,
    apply_filter,
    draw_label_runs,
    generate_toy,
    generate_toy_details,
    make_average_filter,
    shift_signal,
)


def filter_oracle(X, coeffs, n0):
    """Direct double-loop implementation of the delayed FIR sum with
    zero padding; the reference all filtering must match."""
    n, d = X.shape
    f = coeffs.shape[0]
    out = np.zeros((n, d))
    for v in range(d):
        for i in range(n):
            acc = 0.0
            for u in range(f):
                src = i - u + n0
                if 0 <= src < n:
                    acc += coeffs[u, v] * X[src, v]
            out[i, v] = acc
    return out


class TestApplyFilter:
    def test_one_tap_average_filter_is_identity(self, rng):
        X = rng.normal(size=(40, 3))
        assert_array_equal(apply_filter(X, make_average_filter(1, 0, 3)), X)

    def test_zero_filter_annihilates(self, rng):
        X = rng.normal(size=(30, 2))
        bank = FilterBank(np.zeros((4, 2)), n0=1)
        assert_array_equal(apply_filter(X, bank), np.zeros_like(X))

    def test_hand_convolution(self):
        X = np.array([[1.0], [2.0], [3.0]])
        bank = FilterBank(np.array([[0.5], [0.5]]), n0=0)
        assert_allclose(apply_filter(X, bank), [[0.5], [1.5], [2.5]])

    def test_average_f2_hand_case(self):
        X = np.array([[1.0], [3.0]])
        assert_allclose(apply_filter(X, make_average_filter(2, 0, 1)), [[0.5], [2.0]])

    def test_matches_double_loop_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 40))
            d = int(rng.integers(1, 4))
            f = int(rng.integers(1, 8))
            n0 = int(rng.integers(0, f))
            X = rng.normal(size=(n, d))
            coeffs = rng.normal(size=(f, d))
            bank = FilterBank(coeffs, n0=n0)
            assert_allclose(apply_filter(X, bank), filter_oracle(X, coeffs, n0),
                            atol=1e-12)

    def test_channel_count_mismatch_rejected(self, rng):
        X = rng.normal(size=(10, 2))
        with pytest.raises(ValueError, match="channels"):
            apply_filter(X, make_average_filter(1, 0, 3))

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_linear_in_signal(self, a, b, seed):
        r = np.random.default_rng(seed)
        X1 = r.normal(size=(20, 2))
        X2 = r.normal(size=(20, 2))
        bank = FilterBank(r.normal(size=(3, 2)), n0=1)
        lhs = apply_filter(a * X1 + b * X2, bank)
        rhs = a * apply_filter(X1, bank) + b * apply_filter(X2, bank)
        assert_allclose(lhs, rhs, atol=1e-12)

    def test_linear_in_coefficients(self, rng):
        X = rng.normal(size=(25, 2))
        F1 = rng.normal(size=(4, 2))
        F2 = rng.normal(size=(4, 2))
        a, b = 0.7, -1.3
        lhs = apply_filter(X, FilterBank(a * F1 + b * F2, n0=2))
        rhs = a * apply_filter(X, FilterBank(F1, n0=2)) \
            + b * apply_filter(X, FilterBank(F2, n0=2))
        assert_allclose(lhs, rhs, atol=1e-12)

    def test_moving_average_stays_in_window_range(self, rng):
        """Each averaged output lies between the min and max of the window
        it covers, counting the zero padding at the edges."""
        X = rng.normal(size=(50, 2))
        f, n0 = 7, 3
        out = apply_filter(X, make_average_filter(f, n0, 2))
        n = len(X)
        for v in range(2):
            for i in range(n):
                window = [X[i - u + n0, v] if 0 <= i - u + n0 < n else 0.0
                          for u in range(f)]
                assert min(window) - 1e-12 <= out[i, v] <= max(window) + 1e-12


class TestFilterBank:
    def test_average_filter_coefficients(self):
        bank = make_average_filter(4, 2, 3)
        assert_array_equal(bank.coeffs, np.full((4, 3), 0.25))

    def test_delay_bounds_enforced(self):
        with pytest.raises(ValueError, match="n0"):
            FilterBank(np.ones((3, 1)), n0=3)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            FilterBank(np.array([[np.nan]]), n0=0)


class TestShift:
    @pytest.mark.parametrize("k,expected", [
        (0, [1, 2, 3, 4]),
        (1, [0, 1, 2, 3]),
        (-2, [3, 4, 0, 0]),
        (5, [0, 0, 0, 0]),
    ])
    def test_shift_cases(self, k, expected):
        assert_array_equal(shift_signal(np.array([1.0, 2, 3, 4]), k), expected)


class TestToyGenerator:
    def test_same_seed_reproduces(self):
        p = ToyParams(n=500, sigma_n=0.7, lag=3, nbtot=4, seed=9)
        X1, y1 = generate_toy(p)
        X2, y2 = generate_toy(p)
        assert_array_equal(X1, X2)
        assert_array_equal(y1, y2)

    def test_noiseless_samples_sit_on_modes(self):
        p = ToyParams(n=400, sigma_n=0.0, lag=0, nbtot=2, seed=3)
        X, y = generate_toy(p)
        assert set(np.unique(X[:, :2])) <= {-1.0, 1.0}
        cls1 = X[y == 1]
        cls2 = X[y == 2]
        assert_array_equal(cls1[:, 0], cls1[:, 1])
        assert_array_equal(cls2[:, 0], -cls2[:, 1])

    def test_run_lengths_within_bounds(self):
        p = ToyParams(n=2000, sigma_n=0.1, lag=0, nbtot=2, run_min=30,
                      run_max=40, seed=1)
        _, _, (starts, lengths, classes), _, _ = generate_toy_details(p)
        # the final run may be truncated to fit n
        assert np.all(lengths[:-1] >= 30) and np.all(lengths[:-1] <= 40)
        assert lengths[-1] <= 40
        assert lengths.sum() == 2000
        assert set(classes) <= {1, 2}

    def test_labels_follow_runs(self):
        p = ToyParams(n=300, sigma_n=0.5, lag=2, nbtot=3, seed=5)
        X, y, (starts, lengths, classes), _, _ = generate_toy_details(p)
        for s, ln, c in zip(starts, lengths, classes):
            assert_array_equal(y[s : s + ln], np.full(ln, c))

    def test_distractor_channels_are_zero_mean_noise(self):
        p = ToyParams(n=20000, sigma_n=0.5, lag=0, nbtot=4, seed=11)
        X, _ = generate_toy(p)
        for v in (2, 3):
            assert abs(X[:, v].mean()) < 4 * 0.5 / np.sqrt(20000)
            assert abs(X[:, v].std() - 0.5) < 0.02

    def test_mode_means_match_law_of_large_numbers(self):
        """Empirical per-class-per-mode channel means approach the mode
        values at the 3 sigma / sqrt(m) level."""
        p = ToyParams(n=10000, sigma_n=0.5, lag=0, nbtot=2, seed=21)
        X, y, (starts, lengths, classes), modes, _ = generate_toy_details(p)
        sample_mode = np.empty((p.n, 2))
        for (s, ln, mode) in zip(starts, lengths, modes):
            sample_mode[s : s + ln] = mode
        for cls in (1, 2):
            for mode in {tuple(m) for m in modes[classes == cls]}:
                mask = (y == cls) & np.all(sample_mode == mode, axis=1)
                m = int(mask.sum())
                assert m > 50
                tol = 3 * p.sigma_n / np.sqrt(m)
                assert abs(X[mask, 0].mean() - mode[0]) < tol
                assert abs(X[mask, 1].mean() - mode[1]) < tol

    def test_lags_are_bounded_and_labels_unshifted(self):
        p = ToyParams(n=600, sigma_n=0.0, lag=4, nbtot=3, seed=13)
        X, y, (starts, lengths, classes), modes, lags = generate_toy_details(p)
        assert np.all(np.abs(lags) <= 4)
        # undoing each channel's lag must recover the per-run mode track
        track = np.empty((p.n, 2))
        for (s, ln, mode) in zip(starts, lengths, modes):
            track[s : s + ln] = mode
        for v in range(2):
            undone = shift_signal(X[:, v], -int(lags[v]))
            core = slice(8, p.n - 8)  # away from zero-filled edges
            assert_allclose(undone[core], track[core, v])

    def test_three_class_modes(self):
        p = ToyParams(n=900, sigma_n=0.0, lag=0, nbtot=2, n_classes=3, seed=2)
        X, y = generate_toy(p)
        assert set(np.unique(y)) == {1, 2, 3}
        cls3 = X[y == 3]
        assert set(np.unique(cls3)) <= {-2.0, 2.0}
        assert_array_equal(cls3[:, 0], cls3[:, 1])

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ToyParams(n=100, sigma_n=-0.1)
        with pytest.raises(ValueError):
            ToyParams(n=100, nbtot=1)
        with pytest.raises(ValueError):
            ToyParams(n=100, run_min=10, run_max=5)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_draw_label_runs_cover_exactly(seed):
    r = np.random.default_rng(seed)
    starts, lengths, classes = draw_label_runs(r, 500, 30, 40, 2)
    assert starts[0] == 0
    assert_array_equal(starts[1:], (starts + lengths)[:-1])
    assert lengths.sum() == 500
