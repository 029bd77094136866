import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import oracles
from gsrec import (
    DegenerateDistances,
    DimensionMismatch,
    EmptyMask,
    GraphBuildSpec,
    GraphShift,
    InconsistentInputs,
    KTooLarge,
    SyntheticSpec,
    TooManyNodes,
    build_knn_graph,
    corrupt_labels,
    laplacian_from_shift,
    pairwise_distances,
    quadratic_variation,
    random_features,
    sample_mask,
    stream_rng,
    synth_instance,
    synth_opinion_instance,
    tilde_shift,
)
from gsrec import datagen
from gsrec.datagen import DENSE_MAX_NODES, STREAM_SYNTH, round_half_up


def dense_stochastic_shift(n, seed):
    """Connected row-stochastic shift on a complete weighted graph."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(w, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    return GraphShift(w)


class TestRounding:
    def test_half_rounds_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.5) == 2
        assert round_half_up(2.5) == 3

    def test_plain_rounding(self):
        assert round_half_up(2.4) == 2
        assert round_half_up(2.6) == 3
        assert round_half_up(0.0) == 0


class TestStreamRng:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            stream_rng(-1, 1)

    def test_tags_split_streams(self):
        a = stream_rng(5, 1).standard_normal(4)
        b = stream_rng(5, 2).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_same_tags_reproduce(self):
        a = stream_rng(5, 3, 7).standard_normal(4)
        b = stream_rng(5, 3, 7).standard_normal(4)
        np.testing.assert_array_equal(a, b)


class TestPairwiseDistances:
    def test_euclidean_matches_direct(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = pairwise_distances(pts)
        assert abs(d[0, 1] - 5.0) <= 1e-12
        assert d[0, 0] == 0.0 and d[1, 0] == d[0, 1]

    def test_missing_coordinates_rescaled(self):
        pts = np.array([[1.0, np.nan], [2.0, np.nan], [np.nan, 5.0]])
        d = pairwise_distances(pts, metric="manhattan")
        # rows 0 and 1 share only the first coordinate: |1-2| * (2/1)
        assert abs(d[0, 1] - 2.0) <= 1e-12
        # rows with no shared coordinate fall back to the mean distance
        assert abs(d[0, 2] - 2.0) <= 1e-12
        assert abs(d[1, 2] - 2.0) <= 1e-12

    def test_exclude_policy_marks_disjoint_pairs(self):
        pts = np.array([[1.0, np.nan], [2.0, np.nan], [np.nan, 5.0]])
        d = pairwise_distances(pts, metric="manhattan", missing="exclude")
        assert np.isinf(d[0, 2]) and np.isinf(d[2, 1])
        assert np.isfinite(d[0, 1])


class TestKernelWeights:
    """The kernel ``exp(-n^2 d / sum of finite d)`` that weighs kNN edges."""

    def test_values_in_unit_interval(self):
        d = pairwise_distances(random_features(10, 3, 0))
        p = datagen._kernel(d, 10, datagen._finite_mass(d))
        assert np.all(p > 0.0) and np.all(p <= 1.0)
        np.testing.assert_allclose(np.diag(p), np.ones(10))

    def test_degenerate_distances_rejected(self):
        with pytest.raises(DegenerateDistances):
            build_knn_graph(np.zeros((4, 4)), GraphBuildSpec(k=1, metric="precomputed"))

    def test_infinite_distance_gets_zero_weight(self):
        d = np.array([[0.0, 1.0, np.inf],
                      [1.0, 0.0, 1.0],
                      [np.inf, 1.0, 0.0]])
        p = datagen._kernel(d, 3, datagen._finite_mass(d))
        assert p[0, 2] == 0.0 and p[2, 0] == 0.0
        assert p[0, 1] > 0.0

    def test_no_copy_besides_the_result(self):
        # the exponent and the copy of the finite distances for the mass
        # each held one more (n, n) float array
        d = pairwise_distances(random_features(1000, 2, 37))
        d[3, 7] = d[7, 3] = np.inf
        tracemalloc.start()
        try:
            p = datagen._kernel(d, 1000, datagen._finite_mass(d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * d.nbytes
        finite = np.isfinite(d)
        want = np.exp(-(1000 ** 2) * np.where(finite, d, np.inf) / d[finite].sum())
        np.testing.assert_allclose(p, want, rtol=1e-12, atol=0.0)


class TestBuildKnnGraph:
    def test_three_points_on_a_line(self):
        shift = build_knn_graph(np.array([[0.0], [1.0], [10.0]]),
                                GraphBuildSpec(k=1))
        pattern = shift.matrix.toarray() > 0
        expected = np.array([[False, True, False],
                             [True, False, False],
                             [False, True, False]])
        np.testing.assert_array_equal(pattern, expected)

    def test_each_row_has_exactly_k_edges(self):
        feats = random_features(20, 3, 1)
        for k in (1, 3, 8):
            shift = build_knn_graph(feats, GraphBuildSpec(k=k))
            counts = (shift.matrix.toarray() > 0).sum(axis=1)
            np.testing.assert_array_equal(counts, np.full(20, k))

    def test_k_too_large(self):
        feats = random_features(5, 2, 2)
        with pytest.raises(KTooLarge):
            build_knn_graph(feats, GraphBuildSpec(k=5))

    def test_row_normalization_sums_to_one(self):
        shift = build_knn_graph(random_features(15, 2, 3), GraphBuildSpec(k=4))
        np.testing.assert_allclose(shift.matrix.toarray().sum(axis=1), np.ones(15),
                                   atol=1e-12)

    def test_column_normalization_sums_to_one(self):
        shift = build_knn_graph(random_features(15, 2, 4),
                                GraphBuildSpec(k=4, normalization="column"))
        sums = shift.matrix.toarray().sum(axis=0)
        incident = sums > 0
        np.testing.assert_allclose(sums[incident],
                                   np.ones(incident.sum()), atol=1e-12)

    def test_symmetrize_makes_pattern_symmetric(self):
        feats = random_features(12, 2, 5)
        shift = build_knn_graph(feats, GraphBuildSpec(k=3, symmetrize=True))
        pattern = shift.matrix.toarray() > 0
        base = build_knn_graph(feats, GraphBuildSpec(k=3))
        base_pattern = base.matrix.toarray() > 0
        np.testing.assert_array_equal(pattern, base_pattern | base_pattern.T)

    def test_precomputed_distances_accepted(self):
        d = pairwise_distances(random_features(8, 2, 6))
        from_d = build_knn_graph(d, GraphBuildSpec(k=2, metric="precomputed"))
        direct = build_knn_graph(random_features(8, 2, 6), GraphBuildSpec(k=2))
        np.testing.assert_allclose(from_d.matrix.toarray(), direct.matrix.toarray(), atol=1e-12)

    def test_asymmetric_distances_rejected(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InconsistentInputs):
            build_knn_graph(d, GraphBuildSpec(k=1, metric="precomputed"))

    def test_unit_spectral_radius(self):
        shift = build_knn_graph(random_features(18, 3, 7), GraphBuildSpec(k=5))
        assert shift.normalized
        radius = np.max(np.abs(np.linalg.eigvals(shift.matrix.toarray())))
        assert abs(radius - 1.0) <= 1e-8

    def test_node_without_k_finite_neighbors_rejected(self):
        # node 0 shares no observed coordinate with any other node, so all its
        # distances are infinite; argsort would otherwise pick node 0 itself
        feats = random_features(12, 2, 3)
        feats[0, 1] = np.nan
        feats[1:, 0] = np.nan
        with pytest.raises(DegenerateDistances, match="node 0 "):
            build_knn_graph(feats, GraphBuildSpec(k=3, missing="exclude"))

    def test_exact_ties_keep_the_smaller_index(self):
        # on a line of unit-spaced points node 2 sees nodes 1 and 3 at the
        # same distance; with k=1 the edge comes from node 1
        shift = build_knn_graph(np.arange(5.0)[:, None], GraphBuildSpec(k=1))
        assert shift.matrix[[2]].indices.tolist() == [1]
        # a 5 x 5 integer grid ties distances in every row; each row keeps
        # the first k of a stable sort of its distances
        grid = np.array([[i, j] for i in range(5) for j in range(5)], dtype=float)
        d = pairwise_distances(grid)
        np.fill_diagonal(d, np.inf)
        for k in (1, 2, 3, 4, 5, 6):
            shift = build_knn_graph(grid, GraphBuildSpec(k=k))
            expected = np.sort(np.argsort(d, axis=1, kind="stable")[:, :k], axis=1)
            got = np.array([shift.matrix[[i]].indices for i in range(25)])
            np.testing.assert_array_equal(got, expected)

    def test_features_without_columns_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_knn_graph(np.zeros((5, 0)), GraphBuildSpec(k=2))

    def test_node_with_vanishing_kernel_weights_rejected(self):
        # the far node dominates the distance mass, so its own kernel weights
        # exp(-n^2 d / sum(d)) underflow to exactly zero
        feats = random_features(1600, 2, 1)
        feats[0] = [1e6, 1e6]
        with pytest.raises(DegenerateDistances, match="node 0:"):
            build_knn_graph(feats, GraphBuildSpec())


def knn_case(name):
    """Feature rows for one oracle comparison."""
    if name.startswith("random-dim"):
        return random_features(300, int(name[len("random-dim"):]), 31)
    if name == "grid":  # integer grid: exact distance ties in every row
        return np.array([[i, j] for i in range(15) for j in range(15)], dtype=float)
    # each of 20 points 12 times: a row's own point can fall outside the
    # k + 2 points the tree returns
    return np.repeat(random_features(20, 2, 32), 12, axis=0)


def nearest_by_whole_row_sort(ranked, nodes, k):
    """``datagen._nearest`` by a stable sort of every whole row, O(n log n) a row."""
    return np.sort(np.argsort(ranked, axis=1, kind="stable")[:, :k], axis=1)


class TestKnnMatchesDenseOracle:
    """The k-d tree build equals the dense cdist + stable-sort build."""

    @pytest.mark.parametrize("case", ["random-dim1", "random-dim2", "random-dim3",
                                      "random-dim10", "grid", "repeated"])
    @pytest.mark.parametrize("build", [
        {"k": 1}, {"k": 8}, {"k": 8, "metric": "manhattan"},
        {"k": 8, "symmetrize": True}, {"k": 8, "normalization": "column"}])
    def test_same_edges_and_weights(self, case, build):
        feats = knn_case(case)
        got = build_knn_graph(feats, GraphBuildSpec(**build)).matrix
        want = oracles.dense_knn_weights(feats, **build)
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_allclose(got.data, want.data, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("case", ["random-dim2", "grid", "repeated"])
    def test_k_is_n_minus_one(self, case):
        # nothing lies past the cut, so no row has a (k+1)-th candidate
        feats = knn_case(case)[:40]
        k = feats.shape[0] - 1
        got = build_knn_graph(feats, GraphBuildSpec(k=k)).matrix
        want = oracles.dense_knn_weights(feats, k)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_allclose(got.data, want.data, rtol=1e-12, atol=0.0)

    def test_memory_is_linear(self):
        # the dense path's distance matrix and ranked copy: 6.4 GB at this n;
        # whole 16 MiB row blocks of the distance mass peaked at 44 MB
        feats = random_features(20_000, 2, 33)
        tracemalloc.start()
        try:
            shift = build_knn_graph(feats, GraphBuildSpec(k=8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert shift.matrix.nnz == 20_000 * 8

    def test_memory_is_linear_when_most_rows_are_unclear(self, monkeypatch):
        # each of 400 points 12 times: every row ties across the cut at
        # distance zero and is ranked on its full distance row; all of those
        # rows at once would be 184 MB, and 16 MiB blocks peaked at 86 MB
        feats = np.repeat(random_features(400, 2, 35), 12, axis=0)
        ranked = []
        nearest = datagen._nearest

        def counted(rows, nodes, k):
            ranked.append(nodes.size)
            return nearest(rows, nodes, k)

        monkeypatch.setattr(datagen, "_nearest", counted)
        tracemalloc.start()
        try:
            shift = build_knn_graph(feats, GraphBuildSpec(k=8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(ranked) == 4800
        assert peak < 20e6
        assert shift.matrix.nnz == 4800 * 8

    @pytest.mark.parametrize("case", ["grid", "repeated", "repeated-4800"])
    @pytest.mark.parametrize("k", [1, 8])
    def test_tied_rows_rank_as_a_whole_row_stable_sort(self, monkeypatch, case, k):
        # tied rows are ranked on their entries at or below the k-th value
        # only; the graph is bit for bit the one a stable sort of each whole
        # row gives ("repeated-4800": each of 400 points 12 times, every row
        # tied at distance zero, as in the memory test above)
        feats = (np.repeat(random_features(400, 2, 35), 12, axis=0)
                 if case == "repeated-4800" else knn_case(case))
        got = build_knn_graph(feats, GraphBuildSpec(k=k)).matrix
        monkeypatch.setattr(datagen, "_nearest", nearest_by_whole_row_sort)
        want = build_knn_graph(feats, GraphBuildSpec(k=k)).matrix
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_nearest_equals_a_whole_row_stable_sort(self, k):
        # few distinct values, so most rows tie across the cut, some entries
        # infinite as a node's own entry is
        rng = np.random.default_rng(7)
        ranked = rng.integers(0, 4, size=(200, 60)).astype(float)
        ranked[rng.random(ranked.shape) < 0.2] = np.inf
        ranked[np.isfinite(ranked).sum(axis=1) < k, :k] = 0.0
        nodes = np.arange(200)
        np.testing.assert_array_equal(datagen._nearest(ranked, nodes, k),
                                      nearest_by_whole_row_sort(ranked, nodes, k))

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("k", [1, 8])
    @pytest.mark.parametrize("case", ["random-dim2", "grid", "repeated"])
    @pytest.mark.parametrize("entries", [1, 997, 5000])
    def test_block_boundaries(self, monkeypatch, entries, case, k, metric):
        # tiny blocks split the distance mass's triangle into ragged row
        # blocks and spread the unclear rows over many of them: every row of
        # "repeated", 8 to 225 of the 225 rows of "grid", none of "random-dim2"
        monkeypatch.setattr(datagen, "_BLOCK_ENTRIES", entries)
        feats = knn_case(case)
        got = build_knn_graph(feats, GraphBuildSpec(k=k, metric=metric)).matrix
        want = oracles.dense_knn_weights(feats, k, metric=metric)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_allclose(got.data, want.data, rtol=1e-12, atol=0.0)

    def test_precomputed_build_makes_no_dense_copy(self):
        # the unblocked build peaked at three (n, n) float arrays (its
        # symmetry check); the finite distances' copy for the mass was one.
        # Blocked, it holds a few 1 MiB blocks and the mass's boolean mask
        feats = random_features(1000, 2, 36)
        d = cdist(feats, feats)
        tracemalloc.start()
        try:
            got = build_knn_graph(d, GraphBuildSpec(k=8, metric="precomputed")).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * d.nbytes
        want = oracles.dense_knn_weights(feats, 8)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_allclose(got.data, want.data, rtol=1e-12, atol=0.0)


class TestDenseSizeLimit:
    def test_missing_features_above_the_limit_raise_before_allocating(self):
        # one column, one NaN: the check must fire before any (n, n) array
        feats = np.ones((DENSE_MAX_NODES + 1, 1))
        feats[0, 0] = np.nan
        tracemalloc.start()
        try:
            with pytest.raises(TooManyNodes, match=str(DENSE_MAX_NODES)):
                build_knn_graph(feats, GraphBuildSpec(k=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_complete_features_have_no_limit(self):
        feats = random_features(DENSE_MAX_NODES + 1, 2, 34)
        assert build_knn_graph(feats, GraphBuildSpec(k=3)).n == DENSE_MAX_NODES + 1


class TestSynthInstance:
    def test_clean_spec_returns_smooth_part_only(self):
        shift = dense_stochastic_shift(12, 8)
        spec = SyntheticSpec(n=12, l=3)
        inst = synth_instance(shift, spec, 9)
        np.testing.assert_array_equal(inst.observed, inst.x0)
        np.testing.assert_array_equal(inst.noise, np.zeros((12, 3)))
        np.testing.assert_array_equal(inst.outliers, np.zeros((12, 3)))

    def test_same_seed_bit_identical(self):
        shift = dense_stochastic_shift(10, 10)
        spec = SyntheticSpec(n=10, l=2, noise_sigma=0.3,
                             outliers_per_column=2, outlier_lo=1.0,
                             outlier_hi=2.0)
        a = synth_instance(shift, spec, 11)
        b = synth_instance(shift, spec, 11)
        for fa, fb in ((a.x0, b.x0), (a.noise, b.noise),
                       (a.outliers, b.outliers), (a.observed, b.observed)):
            np.testing.assert_array_equal(fa, fb)

    def test_subkeys_give_fresh_draws(self):
        shift = dense_stochastic_shift(10, 12)
        spec = SyntheticSpec(n=10, l=1)
        a = synth_instance(shift, spec, 13)
        b = synth_instance(shift, spec, 13, 1)
        assert not np.array_equal(a.x0, b.x0)

    def test_sum_decomposition_exact(self):
        shift = dense_stochastic_shift(9, 14)
        spec = SyntheticSpec(n=9, l=4, noise_sigma=0.5, outliers_per_column=1,
                             outlier_lo=2.0, outlier_hi=3.0)
        inst = synth_instance(shift, spec, 15)
        np.testing.assert_array_equal(inst.observed,
                                      inst.x0 + inst.noise + inst.outliers)

    def test_outlier_count_per_column(self):
        shift = dense_stochastic_shift(11, 16)
        spec = SyntheticSpec(n=11, l=5, outliers_per_column=3,
                             outlier_lo=1.0, outlier_hi=4.0)
        inst = synth_instance(shift, spec, 17)
        counts = (inst.outliers != 0).sum(axis=0)
        np.testing.assert_array_equal(counts, np.full(5, 3))
        mags = np.abs(inst.outliers[inst.outliers != 0])
        assert np.all(mags >= 1.0) and np.all(mags <= 4.0)

    def test_eigen_recipe_is_spectrally_low(self):
        shift = dense_stochastic_shift(20, 18)
        spec = SyntheticSpec(n=20, l=3, rank=4)
        inst = synth_instance(shift, spec, 19)
        vals = np.linalg.eigvalsh(tilde_shift(shift).toarray())
        cap = vals[3]
        for c in range(3):
            col = np.ascontiguousarray(inst.x0[:, c])
            s2 = quadratic_variation(col, shift)
            assert s2 <= cap * float(col @ col) + 1e-10

    def test_diffusion_recipe_heavily_smooths(self):
        shift = dense_stochastic_shift(25, 0)
        spec = SyntheticSpec(n=25, l=3, recipe="diffusion",
                             diffusion_steps=50)
        inst = synth_instance(shift, spec, 77)
        init = stream_rng(77, STREAM_SYNTH).standard_normal((25, 3))
        for c in range(3):
            col = np.ascontiguousarray(inst.x0[:, c])
            raw = np.ascontiguousarray(init[:, c])
            smooth = quadratic_variation(col, shift) / float(col @ col)
            rough = quadratic_variation(raw, shift) / float(raw @ raw)
            assert smooth <= 0.01 * rough

    def test_shift_spec_size_mismatch(self):
        shift = dense_stochastic_shift(6, 20)
        with pytest.raises(DimensionMismatch):
            synth_instance(shift, SyntheticSpec(n=7), 0)

    def test_bad_specs_rejected(self):
        with pytest.raises(KTooLarge):
            SyntheticSpec(n=4, outliers_per_column=5)
        with pytest.raises(ValueError):
            SyntheticSpec(n=4, noise_sigma=-1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(n=4, recipe="bogus")

    def test_outliers_need_a_positive_range(self):
        # the default range is [0, 0], which would plant outliers of size 0
        with pytest.raises(ValueError, match="outlier_hi > 0"):
            SyntheticSpec(n=4, outliers_per_column=1)
        assert SyntheticSpec(n=4, outliers_per_column=1, outlier_hi=1.0).outlier_lo == 0.0


class TestSampleMask:
    def test_full_ratio_covers_everything(self):
        mask = sample_mask((4, 3), 1.0, 0)
        assert mask.all()

    def test_half_ratio_of_ten(self):
        mask = sample_mask((10,), 0.5, 1)
        assert mask.sum() == 5

    def test_same_seed_identical(self):
        a = sample_mask((6, 4), 0.3, 2)
        b = sample_mask((6, 4), 0.3, 2)
        np.testing.assert_array_equal(a, b)

    def test_subkeys_differ(self):
        a = sample_mask((30,), 0.5, 3, 0)
        b = sample_mask((30,), 0.5, 3, 1)
        assert not np.array_equal(a, b)

    def test_empty_selection_rejected(self):
        with pytest.raises(EmptyMask):
            sample_mask((10,), 0.01, 4)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            sample_mask((5,), 1.5, 0)


class TestCorruptLabels:
    def test_zero_fraction_unchanged(self):
        t = np.array([1.0, -1.0, 1.0, 1.0])
        mask = np.ones(4, dtype=bool)
        out, hit = corrupt_labels(t, mask, 0.0, "classification", 0)
        np.testing.assert_array_equal(out, t)
        assert not hit.any()

    def test_third_of_six_hits_two(self):
        t = np.ones(8)
        mask = np.zeros(8, dtype=bool)
        mask[:6] = True
        out, hit = corrupt_labels(t, mask, 1.0 / 3.0, "classification", 1)
        assert hit.sum() == 2
        assert (out != t).sum() == 2

    def test_hits_stay_inside_mask(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=(6, 4))
        mask = rng.uniform(size=t.shape) < 0.5
        mask[0, 0] = True
        out, hit = corrupt_labels(t, mask, 0.5, "regression", 3)
        assert not hit[~mask].any()
        np.testing.assert_array_equal(out[~mask], t[~mask])

    def test_classification_flips_sign(self):
        t = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        mask = np.ones(6, dtype=bool)
        out, hit = corrupt_labels(t, mask, 0.5, "classification", 4)
        np.testing.assert_array_equal(out[hit], -t[hit])
        np.testing.assert_array_equal(out[~hit], t[~hit])

    def test_regression_adds_five_sigma(self):
        rng = np.random.default_rng(5)
        t = rng.normal(size=20)
        mask = np.ones(20, dtype=bool)
        out, hit = corrupt_labels(t, mask, 0.25, "regression", 6)
        std = t.std()
        deltas = np.abs(out[hit] - t[hit])
        np.testing.assert_allclose(deltas, 5.0 * std, atol=1e-12)

    def test_determinism(self):
        t = np.arange(10, dtype=float)
        mask = np.ones(10, dtype=bool)
        a = corrupt_labels(t, mask, 0.4, "regression", 7)
        b = corrupt_labels(t, mask, 0.4, "regression", 7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            corrupt_labels(np.ones(3), np.ones(3, dtype=bool), 0.1, "bogus", 0)


class TestSynthOpinionInstance:
    def test_shapes_and_label_values(self):
        shift, truth, opinions, hard = synth_opinion_instance(
            20, 5, 0.9, 0.4, 0.2, 3, 0)
        assert shift.n == 20
        assert truth.shape == (20,) and opinions.shape == (20, 5)
        assert np.all(np.isin(truth, (-1.0, 1.0)))
        assert np.all(np.isin(opinions, (-1.0, 1.0)))
        assert hard.sum() == 4

    def test_balanced_communities(self):
        _, truth, _, _ = synth_opinion_instance(16, 3, 0.9, 0.5, 0.0, 2, 1)
        assert (truth == 1.0).sum() == 8

    def test_determinism(self):
        a = synth_opinion_instance(14, 4, 0.8, 0.3, 0.25, 3, 2)
        b = synth_opinion_instance(14, 4, 0.8, 0.3, 0.25, 3, 2)
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[2], b[2])
        np.testing.assert_array_equal(a[0].matrix.toarray(), b[0].matrix.toarray())


class TestLaplacianFromShift:
    def test_symmetric_zero_row_sums(self):
        shift = build_knn_graph(random_features(10, 2, 21), GraphBuildSpec(k=3))
        lap = laplacian_from_shift(shift).toarray()
        np.testing.assert_allclose(lap, lap.T, atol=1e-12)
        np.testing.assert_allclose(lap.sum(axis=1), np.zeros(10), atol=1e-12)

    def test_positive_semidefinite(self):
        shift = build_knn_graph(random_features(12, 3, 22), GraphBuildSpec(k=4))
        vals = np.linalg.eigvalsh(laplacian_from_shift(shift).toarray())
        assert vals.min() >= -1e-12
