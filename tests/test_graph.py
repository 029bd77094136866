import numpy as np
import pytest

from gsrec import (
    DimensionMismatch,
    GraphBuildSpec,
    GraphShift,
    NotDiagonalizable,
    ZeroSpectralRadius,
    build_knn_graph,
    cycle_shift,
    gft,
    igft,
    matrix_variation,
    normalize_shift,
    quadratic_variation,
    random_features,
    spectral_decomposition,
    spectral_radius,
    tilde_shift,
)
from gsrec.graph import check_node_mask


def random_kregular_shift(n, k, seed):
    """Each row gets k random nonzero in-weights, then unit-radius scaling."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    for i in range(n):
        others = np.delete(np.arange(n), i)
        cols = rng.choice(others, size=k, replace=False)
        w[i, cols] = rng.uniform(0.2, 1.0, size=k)
    return normalize_shift(GraphShift(w))


class TestGraphShift:
    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            GraphShift(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            GraphShift(np.array([[0.0, np.inf], [0.0, 0.0]]))

    def test_cycle_orientation_is_a_delay(self):
        # (A x)[k] must equal x[k-1], so shifting e0 yields e1
        shift = cycle_shift(4)
        e0 = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(shift.weights @ e0,
                                      np.array([0.0, 1.0, 0.0, 0.0]))


class TestNormalize:
    def test_scalar_matrix(self):
        shift = normalize_shift(GraphShift(2.0 * np.eye(3)))
        np.testing.assert_allclose(shift.weights, np.eye(3))
        assert shift.spectral_radius == pytest.approx(2.0)
        assert shift.normalized

    def test_cycle_permutation_unchanged(self):
        w = cycle_shift(3).weights
        shift = normalize_shift(GraphShift(w))
        np.testing.assert_allclose(shift.weights, w)

    def test_nilpotent_raises(self):
        with pytest.raises(ZeroSpectralRadius):
            normalize_shift(GraphShift(np.array([[0.0, 2.0], [0.0, 0.0]])))

    def test_already_normalized_is_identity(self):
        shift = cycle_shift(5)
        assert normalize_shift(shift) is shift

    def test_random_matrices_end_at_unit_radius(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            w = rng.normal(size=(8, 8))
            shift = normalize_shift(GraphShift(w))
            assert spectral_radius(shift.weights) == pytest.approx(1.0, abs=1e-8)


class TestSpectralRadius:
    @pytest.mark.parametrize("weights, radius", [
        # equal row sums but negative entries: Perron-Frobenius does not
        # apply, the eigenvalues are 1 and 3
        (np.array([[2.0, -1.0], [-1.0, 2.0]]), 3.0),
        # 2002 nodes, unequal row and column sums, eigenvalues +-1
        (np.kron(np.eye(1001), np.array([[0.0, 10.0], [0.1, 0.0]])), 1.0),
        # nonnegative with equal column sums only
        (np.array([[0.0, 0.5], [3.0, 2.5]]), 3.0),
        (np.zeros((3, 3)), 0.0),
    ], ids=["negative-entries", "kron-2002", "column-sums", "zero"])
    def test_matches_eigenvalues(self, weights, radius):
        assert spectral_radius(weights) == pytest.approx(radius, abs=1e-8)

    def test_large_knn_graph_is_row_stochastic_without_eigensolve(
            self, monkeypatch):
        def no_eigvals(*args, **kwargs):
            raise AssertionError("np.linalg.eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        shift = build_knn_graph(random_features(2500, 2, 1),
                                GraphBuildSpec(k=8))
        assert shift.normalized
        np.testing.assert_allclose(shift.weights.sum(axis=1), 1.0,
                                   rtol=0.0, atol=1e-12)


class TestVariation:
    def test_constant_signal_on_cycle_is_flat(self):
        shift = cycle_shift(3)
        assert quadratic_variation(np.ones(3), shift) == pytest.approx(0.0)

    def test_spike_on_cycle(self):
        # x = (1,0,0): x - Ax = (1,-1,0), squared norm 2
        shift = cycle_shift(3)
        x = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(x - shift.weights @ x,
                                   np.array([1.0, -1.0, 0.0]))
        assert quadratic_variation(x, shift) == pytest.approx(2.0)

    def test_identity_shift_sees_no_variation(self):
        shift = normalize_shift(GraphShift(np.eye(4)))
        rng = np.random.default_rng(0)
        assert quadratic_variation(rng.normal(size=4), shift) == pytest.approx(0.0)

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            quadratic_variation(np.ones(3), GraphShift(np.eye(3)))

    def test_matrix_variation_duplicated_column(self):
        shift = cycle_shift(3)
        x = np.array([1.0, 0.0, 0.0])
        X = np.column_stack([x, x])
        assert matrix_variation(X, shift) == pytest.approx(
            2.0 * quadratic_variation(x, shift))

    def test_matrix_variation_zero(self):
        assert matrix_variation(np.zeros((3, 2)), cycle_shift(3)) == 0.0

    def test_matrix_variation_matches_columnwise_sum(self):
        shift = random_kregular_shift(5, 3, seed=11)
        X = np.random.default_rng(7).normal(size=(5, 3))
        oracle = sum(quadratic_variation(X[:, j], shift) for j in range(3))
        assert abs(matrix_variation(X, shift) - oracle) <= 1e-12 * (1 + oracle)


class TestTildeShift:
    def test_identity_gives_zero(self):
        shift = normalize_shift(GraphShift(np.eye(3)))
        np.testing.assert_allclose(tilde_shift(shift).toarray(), np.zeros((3, 3)))

    def test_symmetric_square(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(5, 5))
        w = w + w.T
        shift = normalize_shift(GraphShift(w))
        a = shift.weights
        np.testing.assert_allclose(tilde_shift(shift).toarray(),
                                   (np.eye(5) - a) @ (np.eye(5) - a),
                                   atol=1e-12)

    def test_cycle_permutation_formula(self):
        # permutations satisfy A^T A = I, so the product expands exactly
        shift = cycle_shift(3)
        a = shift.weights
        np.testing.assert_allclose(tilde_shift(shift).toarray(),
                                   2.0 * np.eye(3) - a - a.T, atol=1e-12)

    def test_quadratic_form_matches_variation(self):
        shift = random_kregular_shift(7, 3, seed=5)
        x = np.random.default_rng(1).normal(size=7)
        assert x @ tilde_shift(shift).toarray() @ x == pytest.approx(
            quadratic_variation(x, shift))


class TestSpectralDecomposition:
    def test_identity(self):
        basis = spectral_decomposition(normalize_shift(GraphShift(np.eye(4))))
        np.testing.assert_allclose(basis.values, np.ones(4))

    def test_cycle_eigenvalues_are_cube_roots_of_unity(self):
        basis = spectral_decomposition(cycle_shift(3))
        got = np.sort_complex(basis.values)
        expected = np.sort_complex(np.exp(2j * np.pi * np.arange(3) / 3))
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_defective_matrix_raises(self):
        shift = GraphShift(np.array([[1.0, 1.0], [0.0, 1.0]]), normalized=True)
        with pytest.raises(NotDiagonalizable):
            spectral_decomposition(shift)

    def test_symmetric_branch_returns_orthonormal_real_basis(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(6, 6))
        w = (w + w.T) / 2
        basis = spectral_decomposition(normalize_shift(GraphShift(w)))
        assert basis.vectors.dtype.kind == "f"
        np.testing.assert_allclose(basis.inverse @ basis.vectors, np.eye(6),
                                   atol=1e-10)

    def test_reconstruction(self):
        shift = random_kregular_shift(8, 3, seed=4)
        basis = spectral_decomposition(shift)
        recon = (basis.vectors * basis.values) @ basis.inverse
        np.testing.assert_allclose(recon, shift.weights, atol=1e-8)


class TestFourier:
    def test_identity_basis_is_passthrough(self):
        basis = spectral_decomposition(normalize_shift(GraphShift(np.eye(3))))
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(igft(gft(x, basis), basis), x)

    def test_round_trip_on_cycle(self):
        basis = spectral_decomposition(cycle_shift(3))
        x = np.random.default_rng(5).normal(size=3)
        np.testing.assert_allclose(igft(gft(x, basis), basis).real, x,
                                   atol=1e-9)

    def test_eigenvector_maps_to_single_coefficient(self):
        shift = cycle_shift(3)
        basis = spectral_decomposition(shift)
        coeffs = gft(basis.vectors[:, 0], basis)
        expected = np.zeros(3, dtype=complex)
        expected[0] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-10)

    def test_dimension_check(self):
        basis = spectral_decomposition(cycle_shift(3))
        with pytest.raises(DimensionMismatch):
            gft(np.ones(4), basis)


class TestPartition:
    """The accessible/hidden node split of the inpainting bound."""

    def test_mask_validation(self):
        with pytest.raises(DimensionMismatch):
            check_node_mask(np.array([1, 0, 1]), 3)
        with pytest.raises(DimensionMismatch):
            check_node_mask(np.array([True, False]), 3)
