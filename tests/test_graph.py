import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

import gsrec.graph
from gsrec import (
    DimensionMismatch,
    EigensolveFailed,
    GraphBuildSpec,
    GraphShift,
    NotDiagonalizable,
    TooManyNodes,
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
from gsrec.graph import DENSE_MAX_NODES, check_node_mask


def random_kregular_shift(n, k, seed):
    """Each row gets k random nonzero in-weights, then unit-radius scaling."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    for i in range(n):
        others = np.delete(np.arange(n), i)
        cols = rng.choice(others, size=k, replace=False)
        w[i, cols] = rng.uniform(0.2, 1.0, size=k)
    return GraphShift(w)


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
        np.testing.assert_array_equal(shift.matrix.toarray() @ e0,
                                      np.array([0.0, 1.0, 0.0, 0.0]))


class TestNormalize:
    def test_scalar_matrix(self):
        shift = GraphShift(2.0 * np.eye(3))
        np.testing.assert_allclose(shift.matrix.toarray(), np.eye(3))
        assert shift.spectral_radius == pytest.approx(2.0)
        assert shift.normalized

    def test_cycle_permutation_unchanged(self):
        w = cycle_shift(3).matrix.toarray()
        shift = GraphShift(w)
        np.testing.assert_allclose(shift.matrix.toarray(), w)

    def test_nilpotent_raises(self):
        with pytest.raises(ZeroSpectralRadius):
            GraphShift(np.array([[0.0, 2.0], [0.0, 0.0]]))

    def test_already_normalized_is_identity(self):
        shift = cycle_shift(5)
        assert normalize_shift(shift) is shift

    # weights, and the eigensolvers finding their radius must not call
    ROUTES = {
        "row-sums": (np.array([[0.0, 1.0, 1.0], [2.0, 0.0, 0.0], [1.0, 0.0, 1.0]]),
                     ("eigs", "eigvals")),
        "column-sums": (np.array([[0.0, 0.5], [3.0, 2.5]]), ("eigs", "eigvals")),
        "arpack": (np.random.default_rng(3).uniform(0.1, 2.0, (50, 50)), ("eigvals",)),
        "dense": (np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.5], [0.0, 1.0, 1.0]]),
                  ("eigs",)),
    }

    @pytest.mark.parametrize("weights, unused", ROUTES.values(), ids=ROUTES)
    def test_made_shift_has_unit_radius(self, monkeypatch, weights, unused):
        radius = np.max(np.abs(np.linalg.eigvals(weights)))

        def forbidden(*args, **kwargs):
            raise AssertionError("eigensolver called")

        with monkeypatch.context() as patch:
            for name, home in (("eigs", scipy.sparse.linalg), ("eigvals", np.linalg)):
                if name in unused:
                    patch.setattr(home, name, forbidden)
            shift = GraphShift(weights)
        assert shift.normalized
        assert shift.spectral_radius == pytest.approx(radius, rel=1e-12)
        assert np.max(np.abs(np.linalg.eigvals(shift.matrix.toarray()))) == pytest.approx(
            1.0, rel=1e-12)
        # bit for bit the CSR division a separate normalization step made
        scaled = sp.csr_array(weights) / spectral_radius(weights)
        np.testing.assert_array_equal(shift.matrix.toarray(), scaled.toarray())

    def test_zero_weights_raise(self):
        with pytest.raises(ZeroSpectralRadius, match="numerically zero"):
            GraphShift(sp.csr_array((3, 3)))

    def test_passed_as_normalized_is_kept_as_given(self):
        w = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.2, 0.0, 0.8]])
        for weights in (w, w.T):  # unit row sums, unit column sums
            shift = GraphShift(weights, normalized=True, spectral_radius=4.0)
            assert shift.spectral_radius == 4.0
            np.testing.assert_array_equal(shift.matrix.toarray(), weights)

    @pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-9, 0.0])
    def test_passed_as_normalized_with_other_sums_raises(self, scale):
        # equal row (or column) sums are the radius, so they must be 1
        w = scale * np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.2, 0.0, 0.8]])
        for weights in (w, w.T):
            with pytest.raises(ValueError, match="not 1"):
                GraphShift(weights, normalized=True)

    def test_random_matrices_end_at_unit_radius(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            w = rng.normal(size=(8, 8))
            shift = GraphShift(w)
            assert spectral_radius(shift.matrix.toarray()) == pytest.approx(1.0, abs=1e-8)


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
        np.testing.assert_allclose(shift.matrix.toarray().sum(axis=1), 1.0,
                                   rtol=0.0, atol=1e-12)


    def test_column_normalized_knn_graph_without_dense_eigensolve(
            self, monkeypatch):
        # nodes that are nobody's neighbour leave zero columns, so neither
        # sum rule applies and the radius needs an eigensolve
        def no_eigvals(*args, **kwargs):
            raise AssertionError("np.linalg.eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        shift = build_knn_graph(random_features(3000, 2, 1),
                                GraphBuildSpec(k=8, normalization="column"))
        sums = shift.matrix.sum(axis=0)
        assert shift.normalized and sums.max() - sums.min() > 0.5
        assert spectral_radius(shift.matrix) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_solve_matches_dense_on_nonnegative_matrices(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.1, 2.0, size=(200, 200)) * (rng.random((200, 200)) < 0.02)
        w = sp.csr_array(w)
        # two components whose Perron roots differ by 1e-6 relative
        for m in (w, sp.block_diag((w, w * (1 - 1e-6)), format="csr")):
            dense = np.max(np.abs(np.linalg.eigvals(m.toarray())))
            assert spectral_radius(m) == pytest.approx(dense, rel=1e-10)

    def test_signed_matrix_gets_the_exact_radius(self):
        # its eigenvalues crowd the spectral circle; an ARPACK k = 1 solve
        # settles on one 0.5 % inside it (4 of seeds 0-39 miss that way)
        rng = np.random.default_rng(11)
        w = sp.csr_array((rng.random((500, 500)) - 0.5) * (rng.random((500, 500)) < 0.02))
        dense = np.max(np.abs(np.linalg.eigvals(w.toarray())))
        assert spectral_radius(w) == pytest.approx(dense, rel=1e-12)

    def test_nonconvergence_raises(self, monkeypatch):
        # every eigenvalue of a nilpotent shift is 0, so ARPACK does not converge
        nilpotent = sp.diags_array(np.ones(49), offsets=1, format="csr")
        assert spectral_radius(nilpotent) == 0.0
        with pytest.raises(ZeroSpectralRadius):
            GraphShift(nilpotent)

        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("patched", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
        above = sp.diags_array(np.ones(DENSE_MAX_NODES), offsets=1, format="csr")
        with pytest.raises(EigensolveFailed, match=str(DENSE_MAX_NODES)):
            spectral_radius(above)

    def test_eigenpair_failing_its_residual_is_not_trusted(self, monkeypatch):
        # unequal row and column sums, so the radius needs an eigensolve
        w = sp.csr_array(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [3.0, 0.0, 0.0]]))

        def wrong_pair(*args, **kwargs):
            return np.array([1.0 + 0j]), np.ones((3, 1), dtype=complex)

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", wrong_pair)
        # the dense solve gets the radius 6^(1/3), not the patched 1
        assert spectral_radius(w) == pytest.approx(6.0 ** (1 / 3), rel=1e-12)
        monkeypatch.setattr(gsrec.graph, "DENSE_MAX_NODES", 2)
        with pytest.raises(EigensolveFailed, match="residual"):
            spectral_radius(w)

    def test_large_signed_matrix_is_refused_before_densifying(self, monkeypatch):
        # a dense copy of 5001 nodes is 200 MB and its eigvals O(n^3)
        def no_dense(w):
            raise AssertionError("densified")

        monkeypatch.setattr(gsrec.graph, "_dense_radius", no_dense)
        signed = -sp.diags_array(np.ones(DENSE_MAX_NODES), offsets=1, format="csr")
        with pytest.raises(TooManyNodes, match=str(DENSE_MAX_NODES)):
            spectral_radius(signed)

    def test_weighted_directed_cycle_gets_the_exact_radius(self):
        # its eigenvalues (prod w)^(1/n) exp(2 pi i k / n) all share one
        # magnitude, where ARPACK does not converge
        n = 101
        weights = np.random.default_rng(5).uniform(0.5, 2.0, n)
        cycle = sp.csr_array((weights, (np.arange(n), np.arange(-1, n - 1) % n)),
                             shape=(n, n))
        radius = float(np.exp(np.mean(np.log(weights))))
        assert spectral_radius(cycle) == pytest.approx(radius, rel=1e-12)


class TestVariation:
    def test_constant_signal_on_cycle_is_flat(self):
        shift = cycle_shift(3)
        assert quadratic_variation(np.ones(3), shift) == pytest.approx(0.0)

    def test_spike_on_cycle(self):
        # x = (1,0,0): x - Ax = (1,-1,0), squared norm 2
        shift = cycle_shift(3)
        x = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(x - shift.matrix.toarray() @ x,
                                   np.array([1.0, -1.0, 0.0]))
        assert quadratic_variation(x, shift) == pytest.approx(2.0)

    def test_identity_shift_sees_no_variation(self):
        shift = GraphShift(np.eye(4))
        rng = np.random.default_rng(0)
        assert quadratic_variation(rng.normal(size=4), shift) == pytest.approx(0.0)

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
        shift = GraphShift(np.eye(3))
        np.testing.assert_allclose(tilde_shift(shift).toarray(), np.zeros((3, 3)))

    def test_symmetric_square(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(5, 5))
        w = w + w.T
        shift = GraphShift(w)
        a = shift.matrix.toarray()
        np.testing.assert_allclose(tilde_shift(shift).toarray(),
                                   (np.eye(5) - a) @ (np.eye(5) - a),
                                   atol=1e-12)

    def test_cycle_permutation_formula(self):
        # permutations satisfy A^T A = I, so the product expands exactly
        shift = cycle_shift(3)
        a = shift.matrix.toarray()
        np.testing.assert_allclose(tilde_shift(shift).toarray(),
                                   2.0 * np.eye(3) - a - a.T, atol=1e-12)

    def test_quadratic_form_matches_variation(self):
        shift = random_kregular_shift(7, 3, seed=5)
        x = np.random.default_rng(1).normal(size=7)
        assert x @ tilde_shift(shift).toarray() @ x == pytest.approx(
            quadratic_variation(x, shift))


class TestSpectralDecomposition:
    def test_identity(self):
        basis = spectral_decomposition(GraphShift(np.eye(4)))
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

    def test_basis_that_misses_the_shift_raises(self, monkeypatch):
        # a well-conditioned eigenvector matrix whose values do not rebuild
        # the shift: only the reconstruction check catches it
        shift = random_kregular_shift(5, 2, seed=1)
        monkeypatch.setattr(np.linalg, "eig", lambda w: (np.zeros(5), np.eye(5)))
        with pytest.raises(NotDiagonalizable, match="reconstruction"):
            spectral_decomposition(shift)

    def test_symmetric_branch_returns_orthonormal_real_basis(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(6, 6))
        w = (w + w.T) / 2
        basis = spectral_decomposition(GraphShift(w))
        assert basis.vectors.dtype.kind == "f"
        np.testing.assert_allclose(basis.inverse @ basis.vectors, np.eye(6),
                                   atol=1e-10)

    def test_reconstruction(self):
        shift = random_kregular_shift(8, 3, seed=4)
        basis = spectral_decomposition(shift)
        recon = (basis.vectors * basis.values) @ basis.inverse
        np.testing.assert_allclose(recon, shift.matrix.toarray(), atol=1e-8)


class TestFourier:
    def test_identity_basis_is_passthrough(self):
        basis = spectral_decomposition(GraphShift(np.eye(3)))
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
