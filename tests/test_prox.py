import numpy as np
import pytest

import oracles
from gsrec import (
    NegativeThreshold,
    StepSearchConfig,
    regularized_solve,
    shrink,
    svt,
)


class TestShrink:
    def test_piecewise_example(self):
        got = shrink(np.array([1.2, -0.3, 0.5]), 0.5)
        np.testing.assert_allclose(got, [0.7, 0.0, 0.0], atol=1e-15)

    def test_zero_threshold_is_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 3))
        np.testing.assert_array_equal(shrink(x, 0.0), x)

    def test_subthreshold_block_zeroes_out(self):
        x = np.array([[0.5, -0.5], [0.25, 0.0]])
        np.testing.assert_array_equal(shrink(x, 0.5), np.zeros((2, 2)))

    def test_negative_threshold_rejected(self):
        with pytest.raises(NegativeThreshold):
            shrink(np.ones(2), -0.1)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            x = float(rng.uniform(-2.5, 2.5))
            tau = float(rng.uniform(0.0, 1.5))
            got = float(shrink(np.array([x]), tau)[0])
            ref = oracles.shrink_grid_oracle(x, tau)
            assert abs(got - ref) <= 2e-4

    def test_nonexpansive(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.normal(size=5)
            y = rng.normal(size=5)
            tau = float(rng.uniform(0.0, 2.0))
            assert np.all(np.abs(shrink(x, tau) - shrink(y, tau))
                          <= np.abs(x - y) + 1e-15)


class TestSvt:
    def test_diagonal_example(self):
        got = svt(np.diag([3.0, 1.0]), 1.0)[0]
        np.testing.assert_allclose(got, np.diag([2.0, 0.0]), atol=1e-12)

    def test_zero_threshold_reconstructs(self):
        X = np.random.default_rng(1).normal(size=(4, 3))
        np.testing.assert_allclose(svt(X, 0.0)[0], X, atol=1e-10)

    def test_threshold_above_top_singular_value_kills_matrix(self):
        X = np.random.default_rng(2).normal(size=(3, 3))
        top = np.linalg.svd(X, compute_uv=False)[0]
        np.testing.assert_allclose(svt(X, top + 1e-9)[0], np.zeros((3, 3)),
                                   atol=1e-12)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            X = rng.uniform(-1.5, 1.5, size=(2, 2))
            tau = float(rng.uniform(0.1, 1.0))
            ref = oracles.svt_grid_oracle(X, tau)
            assert np.max(np.abs(svt(X, tau)[0] - ref)) <= 0.03

    def test_nonexpansive(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            X = rng.normal(size=(4, 3))
            Y = rng.normal(size=(4, 3))
            tau = float(rng.uniform(0.0, 2.0))
            lhs = np.linalg.norm(svt(X, tau)[0] - svt(Y, tau)[0])
            assert lhs <= np.linalg.norm(X - Y) + 1e-12

    def test_agrees_with_plain_numpy_svt(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            X = rng.normal(size=(5, 4))
            tau = float(rng.uniform(0.0, 2.0))
            np.testing.assert_allclose(svt(X, tau)[0], oracles.numpy_svt(X, tau),
                                       atol=1e-10)

    def test_returns_thresholded_singular_values(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            X = rng.normal(size=(5, 4))
            tau = float(rng.uniform(0.0, 2.0))
            Y, s = svt(X, tau)
            ref = np.maximum(np.linalg.svd(X, compute_uv=False) - tau, 0.0)
            np.testing.assert_allclose(s, ref, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(
                np.sum(s), np.sum(np.linalg.svd(Y, compute_uv=False)),
                rtol=1e-12)


class TestBacktrack:
    """The backtracking parameters the proximal-gradient solvers read."""

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StepSearchConfig(rho=1.0)
        with pytest.raises(ValueError):
            StepSearchConfig(t0=0.0)
        with pytest.raises(ValueError):
            StepSearchConfig(max_halvings=-1)


class TestRegularizedSolve:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(regularized_solve(np.eye(3), b), b)

    def test_singular_diagonal_minimum_norm(self):
        H = np.diag([1.0, 0.0])
        np.testing.assert_allclose(
            regularized_solve(H, np.array([2.0, 0.0])), [2.0, 0.0])
        # 1e-12 lies below PINV_CUTOFF times the largest singular value, so
        # that direction counts as null instead of being inverted
        np.testing.assert_allclose(
            regularized_solve(np.diag([1.0, 1e-12]), np.array([2.0, 1.0])),
            [2.0, 0.0])

    def test_matrix_right_hand_side(self):
        rng = np.random.default_rng(5)
        H = rng.normal(size=(4, 4))
        H = H @ H.T + np.eye(4)
        B = rng.normal(size=(4, 3))
        X = regularized_solve(H, B)
        np.testing.assert_allclose(H @ X, B, atol=1e-9)

    def test_pseudo_matches_numpy_pinv(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            H = rng.normal(size=(5, 5))
            H[:, -1] = H[:, 0]  # force rank deficiency
            b = rng.normal(size=5)
            np.testing.assert_allclose(regularized_solve(H, b),
                                       np.linalg.pinv(H) @ b, atol=1e-8)
