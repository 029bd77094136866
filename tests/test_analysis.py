import numpy as np
import pytest

import oracles
from gsrec import (
    BoundNotApplicable,
    DimensionMismatch,
    GraphBuildSpec,
    GraphShift,
    InconsistentInputs,
    NonOrthonormalBasis,
    OutlierModel,
    anomaly_detect,
    build_knn_graph,
    cycle_shift,
    gtvm,
    gtvr,
    inpainting_bound,
    matrix_variation,
    nuclear_tv_bound,
    quadratic_variation,
    random_features,
    residual_decomposition,
    sample_mask,
    spectral_decomposition,
    subspace_smoothness_bound,
    tv_svd_terms,
    verify_inpainting_bound,
)


def symmetric_shift(n, seed):
    rng = np.random.default_rng(seed)
    w = np.abs(rng.normal(size=(n, n)))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return GraphShift(w)


def smooth_vector(shift, seed, modes=5):
    _, vecs = np.linalg.eigh(shift.matrix.toarray())
    rng = np.random.default_rng(seed)
    u = vecs[:, -modes:] @ rng.normal(size=modes)
    return u / np.linalg.norm(u)


def uneven_cycle_shift():
    """Directed 3-cycle with lopsided weights; radius 1 but block norms > 2."""
    w = np.array([[0.0, 4.0, 0.0],
                  [0.0, 0.0, 4.0],
                  [1.0 / 16.0, 0.0, 0.0]])
    return GraphShift(w)


class TestInpaintingBound:
    def test_three_cycle_blocks_match_direct_svd(self):
        shift = cycle_shift(3)
        mask = np.array([True, True, False])
        rep = inpainting_bound(shift, mask, 0.0, 0.0)
        A = shift.matrix.toarray()
        m_idx, u_idx = [0, 1], [2]
        p_direct = np.linalg.norm(
            np.vstack([np.eye(2) + A[np.ix_(m_idx, m_idx)],
                       A[np.ix_(u_idx, m_idx)]]), 2)
        q_direct = np.linalg.norm(
            np.vstack([A[np.ix_(m_idx, u_idx)],
                       np.eye(1) + A[np.ix_(u_idx, u_idx)]]), 2)
        assert abs(rep.p - p_direct) <= 1e-12
        assert abs(rep.q - q_direct) <= 1e-12
        assert not rep.degenerate_mask

    def test_symmetric_shift_q_at_most_two(self):
        for seed in range(20):
            shift = symmetric_shift(12, seed)
            rng = np.random.default_rng(100 + seed)
            mask = rng.uniform(size=12) < 0.5
            if not mask.any():
                mask[0] = True
            rep = inpainting_bound(shift, mask, 0.1, 0.1)
            assert rep.q <= 2.0 + 1e-9

    def test_full_mask_degenerate(self):
        shift = cycle_shift(4)
        rep = inpainting_bound(shift, np.ones(4, dtype=bool), 0.3, 0.0)
        assert rep.degenerate_mask
        assert rep.q == 0.0
        assert abs(rep.inaccessible_bound - rep.p * 0.3) <= 1e-12

    def test_bound_formula(self):
        shift = cycle_shift(3)
        mask = np.array([True, True, False])
        rep = inpainting_bound(shift, mask, 0.2, 0.4)
        expected = (2.0 * rep.p * 0.2 + 2.0 * 0.4) / (2.0 - rep.q)
        assert abs(rep.inaccessible_bound - expected) <= 1e-12
        full = 0.5 * rep.q * expected + rep.p * 0.2 + 0.4
        assert abs(rep.full_bound - full) <= 1e-12

    def test_wide_block_norms_disable_bound(self):
        rep = inpainting_bound(uneven_cycle_shift(),
                               np.array([True, False, False]), 0.1, 0.1)
        assert rep.q >= 2.0
        assert rep.inaccessible_bound is None
        assert rep.full_bound is None


class TestBoundMatchesBlockOracle:
    """p and q from column slices of I + A against the stacked blocks."""

    @staticmethod
    def assert_matches(shift, mask):
        rep = inpainting_bound(shift, mask, 0.1, 0.1)
        p, q = oracles.block_stacked_norms(shift.matrix.toarray(), mask)
        assert abs(rep.p - p) <= 1e-12 * p
        assert abs(rep.q - q) <= 1e-12 * q

    def test_acceptance_criterion_three_instances(self):
        # the 100 shift/mask pairs of the acceptance suite's criterion 3
        for seed in range(100):
            shift = symmetric_shift(30, 1000 + seed)
            mask = np.random.default_rng(3000 + seed).uniform(size=30) < 0.5
            if not mask.any():
                mask[0] = True
            self.assert_matches(shift, mask)

    @pytest.mark.parametrize("build", [{}, {"normalization": "column"},
                                       {"symmetrize": True}])
    def test_knn_graphs(self, build):
        for seed in (1, 2, 3):
            shift = build_knn_graph(random_features(300, 2, seed),
                                    GraphBuildSpec(k=8, **build))
            for ratio in (0.3, 0.6):
                self.assert_matches(shift, sample_mask((300,), ratio, seed))


class TestVerifyInpaintingBound:
    def test_constant_signal_noiseless_is_tight_zero(self):
        shift = cycle_shift(5)
        x0 = 2.0 * np.ones(5)
        mask = np.array([True, False, True, False, False])
        res = gtvm(x0, mask, shift)
        chk = verify_inpainting_bound(shift, mask, x0, x0, res.x)
        assert chk.holds
        assert chk.rhs <= 1e-12
        assert chk.lhs <= 1e-9

    def test_noiseless_suite_never_violated(self):
        n = 30
        for seed in range(100):
            shift = symmetric_shift(n, 1000 + seed)
            x0 = smooth_vector(shift, 2000 + seed)
            rng = np.random.default_rng(3000 + seed)
            mask = rng.uniform(size=n) < 0.5
            if not mask.any():
                mask[0] = True
            res = gtvm(x0, mask, shift)
            chk = verify_inpainting_bound(shift, mask, x0, x0, res.x)
            assert chk.holds, f"seed {seed}: {chk.lhs} > {chk.rhs}"

    def test_noisy_suite_with_certified_constants(self):
        n = 30
        for seed in range(100):
            shift = symmetric_shift(n, 1000 + seed)
            x0 = smooth_vector(shift, 2000 + seed)
            rng = np.random.default_rng(3000 + seed)
            mask = rng.uniform(size=n) < 0.5
            if not mask.any():
                mask[0] = True
            t = x0 + 0.05 * rng.normal(size=n)
            res = gtvr(t, mask, shift, 1.0)
            eps = max(np.linalg.norm((x0 - t)[mask]),
                      np.linalg.norm((res.x - t)[mask]))
            eta = max(np.sqrt(quadratic_variation(x0, shift)),
                      np.sqrt(quadratic_variation(res.x, shift)))
            chk = verify_inpainting_bound(shift, mask, x0, t, res.x,
                                          epsilon=eps, eta_smooth=eta)
            assert chk.holds, f"seed {seed}: {chk.lhs} > {chk.rhs}"

    def test_adversarial_rough_signal_bound_still_valid(self):
        shift = symmetric_shift(20, 7)
        x0 = np.random.default_rng(8).normal(size=20) * 5.0
        mask = np.random.default_rng(9).uniform(size=20) < 0.5
        res = gtvm(x0, mask, shift)
        chk = verify_inpainting_bound(shift, mask, x0, x0, res.x)
        assert chk.holds
        assert chk.rhs > 1.0

    def test_raises_when_bound_not_applicable(self):
        shift = uneven_cycle_shift()
        mask = np.array([True, False, False])
        x = np.zeros(3)
        with pytest.raises(BoundNotApplicable):
            verify_inpainting_bound(shift, mask, x, x, x)


class TestTvSvdTerms:
    def test_zero_matrix_gives_zero_terms(self):
        shift = cycle_shift(4)
        terms = tv_svd_terms(np.zeros((4, 3)), shift)
        np.testing.assert_allclose(terms, np.zeros(3), atol=1e-15)

    def test_rank_one_single_term(self):
        shift = symmetric_shift(8, 10)
        rng = np.random.default_rng(11)
        u = rng.normal(size=8)
        u /= np.linalg.norm(u)
        q = rng.normal(size=5)
        q /= np.linalg.norm(q)
        sigma = 3.0
        X = sigma * np.outer(u, q)
        terms = tv_svd_terms(X, shift)
        expected = sigma ** 2 * quadratic_variation(u, shift)
        assert abs(np.sort(terms)[-1] - expected) <= 1e-10 * (1.0 + expected)
        assert np.sum(np.sort(terms)[:-1]) <= 1e-10

    def test_sum_equals_matrix_variation(self):
        shift = symmetric_shift(20, 12)
        X = np.random.default_rng(13).normal(size=(20, 8))
        terms = tv_svd_terms(X, shift)
        total = matrix_variation(X, shift)
        assert abs(np.sum(terms) - total) <= 1e-8 * (1.0 + total)


class TestNuclearTvBound:
    def test_zero_matrix(self):
        lhs, rhs = nuclear_tv_bound(np.zeros((5, 2)), cycle_shift(5))
        assert lhs == 0.0 and rhs == 0.0

    def test_rank_one_is_tight(self):
        shift = symmetric_shift(10, 14)
        rng = np.random.default_rng(15)
        u = rng.normal(size=10)
        u /= np.linalg.norm(u)
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        X = 2.5 * np.outer(u, q)
        lhs, rhs = nuclear_tv_bound(X, shift)
        assert lhs <= rhs + 1e-10
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + rhs)

    def test_random_suite_holds(self):
        for seed in range(100):
            shift = symmetric_shift(15, 4000 + seed)
            X = np.random.default_rng(5000 + seed).normal(size=(15, 6))
            lhs, rhs = nuclear_tv_bound(X, shift)
            assert lhs <= rhs + 1e-10


def _svd_not_reached(*args, **kwargs):
    raise AssertionError("np.linalg.svd reached with a non-finite matrix")


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("check", [tv_svd_terms, nuclear_tv_bound])
def test_non_finite_matrix_raises_before_the_svd(monkeypatch, check, bad):
    """An inf entry makes LAPACK's SVD loop without end, so none is tried."""
    X = np.random.default_rng(20).normal(size=(20, 4))
    X[3, 1] = bad
    monkeypatch.setattr(np.linalg, "svd", _svd_not_reached)
    with pytest.raises(np.linalg.LinAlgError):
        check(X, cycle_shift(20))


class TestSubspaceSmoothnessBound:
    def test_zero_coefficients(self):
        shift = symmetric_shift(6, 16)
        U = np.linalg.qr(np.random.default_rng(17).normal(size=(6, 3)))[0]
        lhs, rhs = subspace_smoothness_bound(U, np.zeros(3), shift)
        assert lhs == 0.0 and rhs == 0.0

    def test_single_column_equality(self):
        shift = symmetric_shift(7, 18)
        u = np.random.default_rng(19).normal(size=7)
        u /= np.linalg.norm(u)
        lhs, rhs = subspace_smoothness_bound(u[:, None], np.array([1.0]), shift)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + rhs)

    def test_random_suite_holds(self):
        for seed in range(100):
            shift = symmetric_shift(12, 6000 + seed)
            rng = np.random.default_rng(7000 + seed)
            U = np.linalg.qr(rng.normal(size=(12, 4)))[0]
            a = rng.normal(size=4)
            lhs, rhs = subspace_smoothness_bound(U, a, shift)
            assert lhs <= rhs + 1e-10

    def test_non_orthonormal_rejected(self):
        shift = cycle_shift(4)
        U = np.ones((4, 2))
        with pytest.raises(NonOrthonormalBasis):
            subspace_smoothness_bound(U, np.zeros(2), shift)


class TestResidualDecomposition:
    def test_perfect_recovery_returns_planted_outliers(self):
        shift = symmetric_shift(8, 21)
        basis = spectral_decomposition(shift)
        x0 = smooth_vector(shift, 22)
        model = OutlierModel(np.array([2, 5]), np.array([4.0, -3.0]))
        parts = residual_decomposition(x0, x0, model, basis)
        np.testing.assert_allclose(parts.residual, model.to_vector(8),
                                   atol=1e-12)
        np.testing.assert_allclose(parts.smooth, np.zeros(8), atol=1e-10)

    def test_clean_perfect_recovery_is_all_zero(self):
        shift = symmetric_shift(6, 23)
        basis = spectral_decomposition(shift)
        x0 = smooth_vector(shift, 24)
        model = OutlierModel(np.array([], dtype=int), np.array([]))
        parts = residual_decomposition(x0, x0, model, basis)
        np.testing.assert_allclose(parts.residual, np.zeros(6), atol=1e-12)
        assert parts.deviation <= 1e-12

    def test_identity_on_detector_output(self):
        shift = symmetric_shift(12, 25)
        basis = spectral_decomposition(shift)
        x0 = smooth_vector(shift, 26)
        model = OutlierModel(np.array([4]), np.array([6.0]))
        t = x0 + model.to_vector(12)
        res = anomaly_detect(t, shift, 0.8)
        parts = residual_decomposition(x0, res.x, model, basis)
        assert parts.deviation <= 1e-8
        np.testing.assert_allclose(parts.residual, t - res.x, atol=1e-12)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(InconsistentInputs):
            OutlierModel(np.array([1, 1]), np.array([2.0, 3.0]))

    def test_out_of_range_index_rejected(self):
        model = OutlierModel(np.array([7]), np.array([1.0]))
        with pytest.raises(DimensionMismatch):
            model.to_vector(5)
