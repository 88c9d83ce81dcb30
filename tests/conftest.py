import numpy as np
import pytest
from scipy.optimize import minimize

try:
    import cvxopt

    cvxopt.solvers.options["show_progress"] = False
    cvxopt.solvers.options["abstol"] = 1e-12
    cvxopt.solvers.options["reltol"] = 1e-12
    cvxopt.solvers.options["feastol"] = 1e-12
except ImportError:  # pragma: no cover - depends on the environment
    cvxopt = None


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def blas_threads():
    """Sets the BLAS thread count through the package's own handle
    (``marginfilter.blas.set_threads``, a no-op without it); the count
    from before the test is restored after it."""
    from marginfilter import blas

    before = blas.threads()
    yield blas.set_threads
    if before is not None:
        blas.set_threads(before)


def _cvxopt_alpha(Q, y, C):
    n = len(y)
    sol = cvxopt.solvers.qp(
        cvxopt.matrix(Q + 1e-12 * np.eye(n)),
        cvxopt.matrix(-np.ones(n)),
        cvxopt.matrix(np.vstack([np.eye(n), -np.eye(n)])),
        cvxopt.matrix(np.concatenate([np.full(n, C / n), np.zeros(n)])),
        cvxopt.matrix(y.reshape(1, -1)),
        cvxopt.matrix(np.zeros(1)),
    )
    return np.array(sol["x"]).ravel()


def _slsqp_alpha(Q, y, C):
    n = len(y)
    res = minimize(
        lambda a: 0.5 * a @ Q @ a - a.sum(), np.zeros(n),
        jac=lambda a: Q @ a - 1.0, method="SLSQP",
        bounds=[(0.0, C / n)] * n,
        constraints=[{"type": "eq", "fun": lambda a: y @ a, "jac": lambda a: y}],
        options={"ftol": 1e-15, "maxiter": 1000})
    # status 8 (no descent along the search direction) is how SLSQP stops
    # at an optimum when ftol is below what float64 can resolve; a
    # feasible point is still accepted then
    if res.status not in (0, 8) or abs(y @ res.x) > 1e-10:
        raise RuntimeError(f"SLSQP oracle failed: {res.message}")
    return res.x


def solve_dual_qp(K, y, C):
    """Dense QP reference for the SVM dual with box C/n: an independent
    check the pairwise-ascent solver must match.  Uses cvxopt's interior
    point method when installed, else scipy's SLSQP.

    Returns (alpha, objective sum(alpha) - 0.5 alpha' Q alpha).
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    Q = np.outer(y, y) * np.asarray(K, dtype=np.float64)
    alpha = (_cvxopt_alpha if cvxopt is not None else _slsqp_alpha)(Q, y, C)
    return alpha, float(alpha.sum() - 0.5 * alpha @ Q @ alpha)


@pytest.fixture
def qp_oracle():
    return solve_dual_qp


class SolveLog:
    """Every ``solve_svm_dual`` call the package makes, through both
    bindings that call it (``svm``'s and ``filter_learning``'s), as
    (warm, SMO steps) in call order.  A solve at C == ``fail_C`` raises a
    ValueError instead."""

    def __init__(self, monkeypatch):
        from marginfilter import filter_learning, svm

        self.solves = []
        self.fail_C = None
        solve = svm.solve_svm_dual

        def logged(K, y, C, **kwargs):
            if C == self.fail_C:
                raise ValueError("injected failure")
            model = solve(K, y, C, **kwargs)
            self.solves.append((kwargs.get("warm_alpha") is not None, model.n_iter))
            return model

        for module in (svm, filter_learning):
            monkeypatch.setattr(module, "solve_svm_dual", logged)

    def steps(self) -> int:
        """SMO steps of the solves logged so far."""
        return sum(steps for _, steps in self.solves)


@pytest.fixture
def solve_log(monkeypatch):
    return SolveLog(monkeypatch)
