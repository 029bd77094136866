import numpy as np
import pytest
from scipy.linalg import svd as scipy_svd
from scipy.linalg import svdvals

import oracles
from gsrec import (
    NegativeThreshold,
    factorized,
    shrink,
    svt,
)
from gsrec.prox import GRAM_FLOOR, _nuclear_norm


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts the ``np.linalg.svd`` calls made while the test runs."""
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def with_spectrum(n, s, seed):
    """An n x len(s) matrix with singular values s and random singular vectors."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(n, len(s))))
    v, _ = np.linalg.qr(rng.normal(size=(len(s), len(s))))
    return (u * np.asarray(s, dtype=float)) @ v.T


def scipy_svt(X, tau):
    """The SVD route through scipy's LAPACK, which the svd counter misses."""
    u, s, vt = scipy_svd(X, full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vt


def tall_cases():
    """Tall matrices (n >= 4 L): well and ill conditioned, rank deficient."""
    rng = np.random.default_rng(12)
    for i, (n, l) in enumerate([(16, 4), (64, 8), (300, 40), (120, 30)] * 3):
        kind = i // 4
        if kind == 0:
            s = 10.0 ** rng.uniform(-2.5, 0.5, size=l)
        elif kind == 1:
            s = 10.0 ** rng.uniform(-8.0, 2.0, size=l)
            s[:2] = [1e2, 1e-8]
        else:
            s = np.r_[10.0 ** rng.uniform(-1.0, 1.0, size=l // 2),
                      np.zeros(l - l // 2)]
        yield with_spectrum(n, np.sort(s)[::-1], 100 + i)


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


class TestGramSvt:
    """A tall X takes its spectrum from ``eigh(X^T X)``; the SVD is left for
    thresholds below ``GRAM_FLOOR * s_max``, non-tall X and ill-conditioned
    nuclear norms."""

    def test_gram_path_matches_svd_path(self, svd_calls):
        worst = {"matrix": 0.0, "values": 0.0, "nuclear": 0.0}
        for X in tall_cases():
            ref_s = svdvals(X)
            top = ref_s[0]
            # the floor itself, give or take the two routes' rounding of s_max
            at_floor = (1.0 + 1e-9) * GRAM_FLOOR * top
            for tau in (at_floor, 1.01 * at_floor, 0.05 * top,
                        0.5 * top, 2.0 * top):
                before = len(svd_calls)
                Y, s = svt(X, tau)
                assert len(svd_calls) == before
                ref = scipy_svt(X, tau)
                scale = max(np.linalg.norm(ref), 1e-300)
                worst["matrix"] = max(worst["matrix"],
                                      np.linalg.norm(Y - ref) / scale)
                ref_kept = np.maximum(ref_s - tau, 0.0)
                worst["values"] = max(
                    worst["values"], np.linalg.norm(s - ref_kept)
                    / max(np.linalg.norm(ref_kept), 1e-300))
            nuclear = _nuclear_norm(X)
            worst["nuclear"] = max(worst["nuclear"],
                                   abs(nuclear - ref_s.sum()) / ref_s.sum())
        assert max(worst.values()) <= 1e-10, worst

    def test_thin_path_nonexpansive(self, svd_calls):
        rng = np.random.default_rng(13)
        pairs = 0
        for A in tall_cases():
            for scale in (1e-6, 1e-2, 1.0):
                B = A + (scale * np.linalg.norm(A) / np.sqrt(A.size)
                         * rng.normal(size=A.shape))
                top = max(svdvals(A)[0], svdvals(B)[0])
                for tau in ((1.0 + 1e-9) * GRAM_FLOOR * top, 0.1 * top):
                    lhs = np.linalg.norm(svt(A, tau)[0] - svt(B, tau)[0])
                    slack = 1e-12 * max(1.0, np.linalg.norm(A), np.linalg.norm(B))
                    assert lhs <= np.linalg.norm(A - B) + slack
                    pairs += 1
        assert pairs and svd_calls == []

    def test_threshold_floor_splits_gram_and_svd(self, svd_calls):
        X = with_spectrum(80, np.linspace(4.0, 1.0, 10), 15)
        floor = GRAM_FLOOR * 4.0
        for tau, route in [((1.0 + 1e-9) * floor, []), (0.5 * floor, [True]),
                           (0.0, [True])]:
            before = len(svd_calls)
            Y, s = svt(X, tau)
            assert svd_calls[before:] == route, tau
            np.testing.assert_allclose(Y, scipy_svt(X, tau), rtol=0, atol=1e-12)
        np.testing.assert_allclose(svt(X, 0.0)[0], X, rtol=0, atol=1e-12)

    def test_nuclear_norm_floor_splits_gram_and_svd(self, svd_calls):
        for smallest, route in [(2.0, []), (0.5, [False])]:
            s = np.r_[np.linspace(4.0, 1.0, 9), smallest * GRAM_FLOOR * 4.0]
            before = len(svd_calls)
            assert _nuclear_norm(with_spectrum(80, s, 16)) == pytest.approx(
                s.sum(), rel=1e-12)
            assert svd_calls[before:] == route, smallest

    @pytest.mark.parametrize("shape, route", [
        ((16, 4), []), ((15, 4), [True, False]), ((5, 4), [True, False]),
        ((4, 20), [True, False])])
    def test_only_tall_input_takes_the_gram_route(self, svd_calls, shape, route):
        X = with_spectrum(max(shape), np.linspace(2.0, 1.0, min(shape)), 17)
        X = X if X.shape == shape else X.T
        np.testing.assert_allclose(svt(X, 0.5)[0], scipy_svt(X, 0.5), rtol=0,
                                   atol=1e-12)
        assert _nuclear_norm(X) == pytest.approx(
            np.linspace(2.0, 1.0, min(shape)).sum(), rel=1e-12)
        assert svd_calls == route

    @pytest.mark.parametrize("shape", [(64, 8), (5, 4), (5, 0), (0, 3)])
    def test_zero_matrix_gives_zeros(self, shape):
        for tau in (0.0, 1.0):
            Y, s = svt(np.zeros(shape), tau)
            np.testing.assert_array_equal(Y, np.zeros(shape))
            np.testing.assert_array_equal(s, np.zeros(min(shape)))
        assert _nuclear_norm(np.zeros(shape)) == 0.0

    def test_tiny_and_huge_scales_match_svd(self):
        X = with_spectrum(64, np.linspace(3.0, 1.0, 8), 18)
        for scale in (1e-170, 1e160):
            Y, s = svt(scale * X, 0.5 * scale)
            np.testing.assert_allclose(Y / scale, scipy_svt(X, 0.5), rtol=0,
                                       atol=1e-12)
            assert _nuclear_norm(scale * X) / scale == pytest.approx(
                np.linspace(3.0, 1.0, 8).sum(), rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("shape", [(64, 8), (5, 4)])
    def test_non_finite_input_raises(self, bad, shape):
        X = np.random.default_rng(19).normal(size=shape)
        X[2, 1] = bad
        with pytest.raises(np.linalg.LinAlgError):
            _nuclear_norm(X)
        with pytest.raises(np.linalg.LinAlgError):
            svt(X, 0.5)


class TestRegularizedSolve:
    """``factorized`` solves regular systems and, by its pseudo-inverse
    fallback, gives singular ones their minimum-norm least-squares solution."""

    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(factorized(np.eye(3))(b), b)

    def test_singular_diagonal_minimum_norm(self):
        H = np.diag([1.0, 0.0])
        np.testing.assert_allclose(
            factorized(H)(np.array([2.0, 0.0])), [2.0, 0.0])
        # 1e-12 lies below PINV_CUTOFF times the largest singular value, so
        # that direction counts as null instead of being inverted
        np.testing.assert_allclose(
            factorized(np.diag([1.0, 1e-12]))(np.array([2.0, 1.0])),
            [2.0, 0.0])

    def test_matrix_right_hand_side(self):
        rng = np.random.default_rng(5)
        H = rng.normal(size=(4, 4))
        H = H @ H.T + np.eye(4)
        B = rng.normal(size=(4, 3))
        X = factorized(H)(B)
        np.testing.assert_allclose(H @ X, B, atol=1e-9)

    def test_pseudo_matches_numpy_pinv(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            H = rng.normal(size=(5, 5))
            H[:, -1] = H[:, 0]  # force rank deficiency
            b = rng.normal(size=5)
            np.testing.assert_allclose(factorized(H)(b),
                                       np.linalg.pinv(H) @ b, atol=1e-8)
