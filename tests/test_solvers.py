import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import svdvals

import oracles
from gsrec import (
    ConfigError,
    DimensionMismatch,
    EmptyAccessibleSet,
    GraphBuildSpec,
    GraphShift,
    Infeasible,
    NonFiniteObjective,
    SolverConfig,
    SyntheticSpec,
    anomaly_detect,
    anomaly_detect_constrained,
    build_knn_graph,
    cycle_shift,
    eigen_basis,
    gmcm,
    gmcr,
    gsr_admm,
    gtvm,
    gtvr,
    quadratic_variation,
    random_features,
    rgtvr,
    sample_mask,
    shrink,
    solve_recovery,
    synth_instance,
    tilde_shift,
)
from gsrec.io import spec_from_dict
from gsrec.solvers import FEAS_RTOL


def symmetric_shift(n, seed):
    """Dense symmetric weights, zero diagonal, scaled to unit spectral radius."""
    rng = np.random.default_rng(seed)
    w = np.abs(rng.normal(size=(n, n)))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return GraphShift(w)


def smooth_vector(shift, seed, modes=2):
    """Random mix of the eigenvectors whose eigenvalues sit nearest the radius."""
    _, vecs = np.linalg.eigh(shift.matrix.toarray())
    rng = np.random.default_rng(seed)
    u = vecs[:, -modes:] @ rng.normal(size=modes)
    return u / np.linalg.norm(u)


def random_masked_vector(n, seed, keep=0.7):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=n)
    m = rng.uniform(size=n) < keep
    if not m.any():
        m[0] = True
    return t, m


def assert_trace_nonincreasing(trace):
    if trace.size >= 2:
        drops = np.diff(trace)
        assert np.all(drops <= 1e-10 * (1.0 + np.abs(trace[:-1])))


MASKED_METHODS = ("gtvm", "gtvr", "laplacian", "rgtvr", "gmcm", "gmcr", "admm")


@pytest.mark.parametrize("method", MASKED_METHODS + ("anomaly", "anomaly-constrained"))
def test_non_finite_measured_value_is_non_finite_objective(method):
    # a NaN on a measured entry fails alike in every method; the detection
    # methods measure every node. Off the mask the NaN is never read
    shift = cycle_shift(8)
    t, mask = np.sin(np.arange(8.0)), np.arange(8) % 3 != 2
    t[0] = np.nan
    with pytest.raises(NonFiniteObjective):
        solve_recovery(method, t, mask, shift, eta_smooth=0.1)
    if method in MASKED_METHODS:
        t[0], t[2] = 0.5, np.nan
        assert np.all(np.isfinite(solve_recovery(method, t, mask, shift).x))


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.alpha == 1.0 and cfg.penalty == 1.0
        assert cfg.tol_outer == 1e-8

    def test_negative_weight_rejected(self):
        for key in ("alpha", "beta", "gamma"):
            with pytest.raises(ValueError):
                SolverConfig(**{key: -0.5})

    def test_bad_penalty_and_tolerances_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(penalty=0.0)
        with pytest.raises(ValueError):
            SolverConfig(tol_outer=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_outer=0)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_non_integer_max_outer_rejected(self, value):
        with pytest.raises(ValueError, match="max_outer"):
            SolverConfig(max_outer=value)
        with pytest.raises(ConfigError, match="max_outer"):
            spec_from_dict(SolverConfig, {"max_outer": value}, "config")

    def test_numpy_integer_max_outer_accepted(self):
        assert SolverConfig(max_outer=np.int64(3)).max_outer == 3

    @pytest.mark.parametrize("key", ["alpha", "beta", "gamma", "penalty", "tol_outer"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, key, value):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(**{key: value})

    def test_dict_round_trip(self):
        cfg = SolverConfig(alpha=2.0, beta=0.5, gamma=0.1, max_outer=30)
        again = spec_from_dict(SolverConfig, dataclasses.asdict(cfg), "config")
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match=r"config: unknown keys \['bogus'\]"):
            spec_from_dict(SolverConfig, {"alpha": 1.0, "bogus": 2}, "config")
        # keys of settings no solver reads any more; the step search is fixed
        for key in ("epsilon", "tol_inner", "max_inner", "step"):
            with pytest.raises(ConfigError, match=key):
                spec_from_dict(SolverConfig, {"alpha": 1.0, key: 1.0}, "config")
        with pytest.raises(ConfigError, match="step"):
            spec_from_dict(SolverConfig, {"step": {"t0": 1.0}}, "config")

    def test_replace_returns_modified_copy(self):
        cfg = SolverConfig()
        other = cfg.replace(gamma=0.7)
        assert other.gamma == 0.7 and cfg.gamma == 0.0


class TestCompletionWork:
    """On a tall instance (n >= 4 L) the nuclear-norm solvers threshold and
    measure every iterate through its L x L Gram matrix: no SVD at all."""

    @pytest.fixture
    def tall_instance(self):
        n, l = 60, 10
        shift = build_knn_graph(random_features(n, 2, 21), GraphBuildSpec(k=6))
        inst = synth_instance(shift, SyntheticSpec(n=n, l=l, rank=3,
                                                   noise_sigma=0.05), 22)
        return inst.observed, sample_mask(inst.observed.shape, 0.5, 23), shift

    @pytest.mark.parametrize("solver", [gmcm, gmcr, gsr_admm],
                             ids=["gmcm", "gmcr", "gsr_admm"])
    def test_no_svd_at_positive_beta(self, monkeypatch, tall_instance, solver):
        calls = []
        real = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        T, mask, shift = tall_instance
        monkeypatch.setattr(np.linalg, "svd", counting)
        # beta as in the completion benchmark; at a small beta gmcm's halved
        # steps can take t * beta below the Gram floor, where the SVD is due
        res = solver(T, mask, shift, SolverConfig(alpha=1.0, beta=2.0,
                                                  gamma=0.1, max_outer=300))
        assert res.iterations > 5 and np.all(np.isfinite(res.x))
        assert calls == []

    @pytest.mark.parametrize("solver", [gmcm, gmcr], ids=["gmcm", "gmcr"])
    def test_step_search_starts_at_the_accepted_step(self, monkeypatch,
                                                     tall_instance, solver):
        # each iteration tries the last accepted step first and a doubled one
        # only after STEP_GROW_AFTER first-try acceptances in a row, so few
        # candidates are rejected (doubling at every iteration costs about
        # two svt calls per iteration); backtracks counts the rejected ones
        import gsrec.solvers as solvers

        calls = []
        real = solvers.svt

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        T, mask, shift = tall_instance
        monkeypatch.setattr(solvers, "svt", counting)
        res = solver(T, mask, shift, SolverConfig(alpha=1.0, beta=2.0,
                                                  gamma=0.1, max_outer=300))
        assert res.converged and res.iterations > 5
        assert len(calls) == res.iterations + res.meta["backtracks"]
        assert len(calls) <= 1.3 * res.iterations + 3
        assert_trace_nonincreasing(res.objective_trace)

    def test_gradient_reuses_the_accepted_residual(self, monkeypatch,
                                                   tall_instance):
        # A X is formed once per smooth evaluation, the start and each
        # candidate tried, and never for a gradient: each iteration's
        # gradient is one product with the CSR A^T from the accepted residual
        T, mask, shift = tall_instance
        counts = {"A": 0, "AT": 0}
        product = sp.csr_array.__matmul__

        def counted(self, other):
            key = ("A" if self is shift.matrix
                   else "AT" if self is shift._transpose else None)
            if key:
                counts[key] += 1
            return product(self, other)

        shift._transpose  # built before counting starts
        monkeypatch.setattr(sp.csr_array, "__matmul__", counted)
        res = gmcr(T, mask, shift, SolverConfig(alpha=1.0, beta=2.0, max_outer=300))
        assert res.iterations > 5
        tried = res.iterations + res.meta["backtracks"]
        assert counts == {"A": 1 + tried, "AT": res.iterations}

    def test_over_relaxation_saves_admm_iterations(self, monkeypatch,
                                                   tall_instance):
        import gsrec.solvers as solvers

        T, mask, shift = tall_instance
        cfg = SolverConfig(alpha=1.0, beta=2.0, gamma=0.1, max_outer=2000)
        relaxed = gsr_admm(T, mask, shift, cfg)
        monkeypatch.setattr(solvers, "ADMM_RELAX", 1.0)
        plain = gsr_admm(T, mask, shift, cfg)
        ref = gsr_admm(T, mask, shift, cfg.replace(tol_outer=1e-14,
                                                   max_outer=50000))
        assert relaxed.converged and plain.converged and ref.converged
        assert relaxed.iterations < plain.iterations
        for res in (relaxed, plain):
            for name in ("x", "noise", "outliers"):
                assert np.max(np.abs(getattr(res, name) - getattr(ref, name))) <= 1e-4


class TestGtvm:
    def test_three_cycle_single_measurement(self):
        shift = cycle_shift(3)
        res = gtvm(np.array([1.0, 0.0, 0.0]),
                   np.array([True, False, False]), shift)
        np.testing.assert_allclose(res.x, np.ones(3), atol=1e-12)
        assert res.converged

    def test_full_mask_is_identity(self):
        shift = symmetric_shift(8, 0)
        t = np.random.default_rng(1).normal(size=8)
        res = gtvm(t, np.ones(8, dtype=bool), shift)
        np.testing.assert_array_equal(res.x, t)

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyAccessibleSet):
            gtvm(np.zeros(4), np.zeros(4, dtype=bool), cycle_shift(4))

    def test_measured_entries_pinned(self):
        shift = symmetric_shift(12, 2)
        t, m = random_masked_vector(12, 3, keep=0.5)
        res = gtvm(t, m, shift)
        np.testing.assert_array_equal(res.x[m], t[m])

    def test_hidden_gradient_vanishes(self):
        shift = symmetric_shift(12, 4)
        t, m = random_masked_vector(12, 5, keep=0.5)
        res = gtvm(t, m, shift)
        at = tilde_shift(shift)
        hidden = (at @ res.x)[~m]
        assert np.linalg.norm(hidden) <= 1e-6 * (1.0 + np.linalg.norm(t[m]))

    def test_scaling_covariance(self):
        shift = symmetric_shift(10, 6)
        t, m = random_masked_vector(10, 7, keep=0.6)
        base = gtvm(t, m, shift).x
        rng = np.random.default_rng(8)
        for _ in range(5):
            s = float(rng.uniform(0.1, 10.0))
            scaled = gtvm(s * t, m, shift).x
            np.testing.assert_allclose(scaled, s * base,
                                       atol=1e-9 * (1.0 + s))

    def test_trace_matches_iterations(self):
        shift = cycle_shift(5)
        res = gtvm(np.ones(5), np.ones(5, dtype=bool), shift)
        assert res.objective_trace.shape[0] == res.iterations


class TestGtvr:
    def test_constant_signal_fixed_for_any_alpha(self):
        shift = cycle_shift(3)
        t = 2.5 * np.ones(3)
        for alpha in (0.1, 1.0, 10.0):
            res = gtvr(t, np.ones(3, dtype=bool), shift, alpha)
            np.testing.assert_allclose(res.x, t, atol=1e-10)

    def test_small_alpha_limit_returns_data(self):
        shift = symmetric_shift(6, 9)
        t = np.random.default_rng(10).normal(size=6)
        res = gtvr(t, np.ones(6, dtype=bool), shift, 1e-10)
        np.testing.assert_allclose(res.x, t, atol=1e-8)

    def test_single_measurement_matches_numeric_minimizer(self):
        shift = cycle_shift(3)
        t = np.array([1.0, 0.0, 0.0])
        m = np.array([True, False, False])
        res = gtvr(t, m, shift, 1.0)
        xref, _ = oracles.quadratic_inpaint_oracle(t, m, shift.matrix.toarray(), 1.0)
        np.testing.assert_allclose(res.x, xref, atol=1e-6)

    def test_random_instances_match_numeric_minimizer(self):
        for seed in (11, 12):
            shift = symmetric_shift(9, seed)
            t, m = random_masked_vector(9, seed + 50, keep=0.6)
            alpha = 0.8
            res = gtvr(t, m, shift, alpha)
            xref, _ = oracles.quadratic_inpaint_oracle(t, m, shift.matrix.toarray(), alpha)
            np.testing.assert_allclose(res.x, xref, atol=1e-6)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            gtvr(np.zeros(3), np.ones(3, dtype=bool), cycle_shift(3), -1.0)

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyAccessibleSet):
            gtvr(np.zeros(3), np.zeros(3, dtype=bool), cycle_shift(3), 1.0)


class TestGmcm:
    def test_full_mask_returns_data(self):
        shift = symmetric_shift(7, 13)
        T = np.random.default_rng(14).normal(size=(7, 3))
        res = gmcm(T, np.ones(T.shape, dtype=bool), shift)
        np.testing.assert_array_equal(res.x, T)

    def test_measured_entries_pinned(self):
        shift = symmetric_shift(10, 15)
        rng = np.random.default_rng(16)
        T = rng.normal(size=(10, 4))
        mask = rng.uniform(size=T.shape) < 0.5
        mask[0, :] = True
        res = gmcm(T, mask, shift, SolverConfig(beta=0.05))
        np.testing.assert_array_equal(res.x[mask], T[mask])

    def test_no_nuclear_term_matches_per_column_inpainting(self):
        shift = symmetric_shift(14, 61)
        rng = np.random.default_rng(62)
        T = rng.normal(size=(14, 4))
        mask = rng.uniform(size=T.shape) < 0.6
        mask[0, :] = True
        res = gmcm(T, mask, shift, SolverConfig(beta=0.0))
        cols = np.column_stack(
            [gtvm(T[:, j], mask[:, j], shift).x for j in range(T.shape[1])]
        )
        assert np.max(np.abs(res.x - cols)) <= 1e-4

    def test_rank_one_smooth_recovery(self):
        shift = symmetric_shift(50, 11)
        u = smooth_vector(shift, 12)
        v = np.random.default_rng(13).normal(size=20)
        X0 = np.outer(u, v)
        mask = np.random.default_rng(14).uniform(size=X0.shape) < 0.4
        res = gmcm(np.where(mask, X0, 0.0), mask, shift,
                   SolverConfig(beta=0.01, max_outer=5000))
        hidden = ~mask
        rel = np.linalg.norm((res.x - X0)[hidden]) / np.linalg.norm(X0[hidden])
        assert rel <= 0.05
        assert res.converged

    def test_trace_nonincreasing(self):
        shift = symmetric_shift(9, 17)
        rng = np.random.default_rng(18)
        T = rng.normal(size=(9, 5))
        mask = rng.uniform(size=T.shape) < 0.5
        mask[0, 0] = True
        res = gmcm(T, mask, shift, SolverConfig(beta=0.2))
        assert_trace_nonincreasing(res.objective_trace)
        assert res.objective_trace.shape[0] == res.iterations

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyAccessibleSet):
            gmcm(np.zeros((4, 2)), np.zeros((4, 2), dtype=bool), cycle_shift(4))


class TestGmcr:
    def test_no_variation_term_matches_nuclear_fixed_point(self):
        shift = symmetric_shift(10, 53)
        T = np.random.default_rng(51).normal(size=(10, 5))
        mask = np.random.default_rng(52).uniform(size=T.shape) < 0.7
        res = gmcr(T, mask, shift,
                   SolverConfig(alpha=0.0, beta=0.6, tol_outer=1e-12,
                                max_outer=60000))
        ref = oracles.nuclear_completion_fixed_point(T, mask, 0.6)
        assert np.max(np.abs(res.x - ref)) <= 1e-4

    def test_small_alpha_full_mask_returns_data(self):
        shift = symmetric_shift(8, 19)
        T = np.random.default_rng(20).normal(size=(8, 3))
        res = gmcr(T, np.ones(T.shape, dtype=bool), shift,
                   SolverConfig(alpha=1e-8, beta=0.0))
        np.testing.assert_allclose(res.x, T, atol=1e-4)

    def test_zero_data_gives_zero(self):
        shift = symmetric_shift(6, 21)
        res = gmcr(np.zeros((6, 2)), np.ones((6, 2), dtype=bool), shift,
                   SolverConfig(alpha=0.5, beta=0.3))
        np.testing.assert_allclose(res.x, np.zeros((6, 2)), atol=1e-10)

    def test_trace_nonincreasing(self):
        shift = symmetric_shift(9, 22)
        rng = np.random.default_rng(23)
        T = rng.normal(size=(9, 4))
        mask = rng.uniform(size=T.shape) < 0.6
        mask[0, 0] = True
        res = gmcr(T, mask, shift, SolverConfig(alpha=0.7, beta=0.4))
        assert_trace_nonincreasing(res.objective_trace)
        assert res.objective_trace.shape[0] == res.iterations
        if res.converged and res.objective_trace.size >= 2:
            assert abs(res.objective_trace[-1] - res.objective_trace[-2]) < 1e-8


class TestAnomalyDetect:
    def test_constant_signal_has_no_outliers(self):
        shift = cycle_shift(6)
        res = anomaly_detect(3.0 * np.ones(6), shift, 0.5)
        np.testing.assert_array_equal(res.outliers, np.zeros(6))
        np.testing.assert_allclose(res.x, 3.0 * np.ones(6))

    def test_spike_support_matches_brute_force(self):
        shift = cycle_shift(4)
        t = np.ones(4)
        t[2] += 5.0
        at = tilde_shift(shift).toarray()
        for beta in (0.5, 1.0, 2.0):
            res = anomaly_detect(t, shift, beta)
            support = np.flatnonzero(np.abs(res.outliers) > 1e-6)
            ref_support, _, ref_obj = oracles.anomaly_support_oracle(t, at, beta)
            assert support.tolist() == sorted(ref_support) == [2]
            assert res.outliers[2] > 0
            obj = (quadratic_variation(res.x, shift)
                   + beta * np.abs(res.outliers).sum())
            assert abs(obj - ref_obj) <= 1e-8 * (1.0 + ref_obj)

    def test_zero_signal_gives_zero(self):
        res = anomaly_detect(np.zeros(5), cycle_shift(5), 1.0)
        np.testing.assert_array_equal(res.outliers, np.zeros(5))
        np.testing.assert_array_equal(res.x, np.zeros(5))

    def test_trace_nonincreasing_and_fixed_point(self):
        shift = symmetric_shift(12, 24)
        rng = np.random.default_rng(25)
        t = rng.normal(size=12)
        t[4] += 8.0
        res = anomaly_detect(t, shift, 0.8)
        assert_trace_nonincreasing(res.objective_trace)
        assert res.objective_trace.shape[0] == res.iterations
        assert res.converged
        assert res.meta["stationarity"] <= 1e-8

    @pytest.fixture
    def counted_work(self, monkeypatch):
        """``watch(shift)`` returns a dict that counts, from then on, the
        sparse products with the shift's A, its CSR transpose and T =
        ``tilde_shift``, indexing of T, rows of T read and factorizations."""
        import gsrec.solvers as solvers

        work, watched = {}, {}
        product, index = sp.csr_array.__matmul__, sp.csr_array.__getitem__
        read, factor = solvers._csr_row, solvers.factorized

        def operand(matrix):
            return next((key for key, m in watched.items() if m is matrix), None)

        def counted_product(self, other):
            key = operand(self)
            if key:
                work[key] += 1
            return product(self, other)

        def counted_index(self, key):
            if operand(self) == "T":
                work["T[]"] += 1
            return index(self, key)

        def counted_read(M, i):
            work["rows"] += 1
            return read(M, i)

        def counted_factorized(H):
            work["factorized"] += 1
            return factor(H)

        monkeypatch.setattr(sp.csr_array, "__matmul__", counted_product)
        monkeypatch.setattr(sp.csr_array, "__getitem__", counted_index)
        monkeypatch.setattr(solvers, "_csr_row", counted_read)
        monkeypatch.setattr(solvers, "factorized", counted_factorized)

        def watch(shift):
            # built before counting starts
            watched.update(A=shift.matrix, AT=shift._transpose, T=tilde_shift(shift))
            work.update({"A": 0, "AT": 0, "T": 0, "T[]": 0, "rows": 0,
                         "factorized": 0})
            return work

        return watch

    @pytest.mark.parametrize("instance", ["dense-12", "small-9"])
    def test_path_work_per_segment_and_join(self, counted_work, instance):
        """Each segment solves on the kept dense block T_SS and makes two
        sparse products, with A and with its CSR transpose; each join reads
        one row of T; nothing factors or indexes T. A path of k segments
        that ends with m outliers made (k + m) / 2 joins and (k - m) / 2
        leaves (small-9 has leaves, dense-12 none). Outside the segments
        ``b = T t`` and the confirming step's gradient are products with T,
        the KKT check takes one product with A and one with A^T, and the
        confirming step's objective one with A."""
        if instance == "dense-12":
            shift = symmetric_shift(12, 24)
            t = np.random.default_rng(25).normal(size=12)
            t[4] += 8.0
            beta = 0.8
        else:
            shift, t, beta = self.detection_instance(9)
        work = counted_work(shift)
        res = anomaly_detect(t, shift, beta)
        k, m = res.meta["segments"], np.count_nonzero(res.outliers)
        assert res.converged and (k + m) % 2 == 0
        assert (k > m) == (instance == "small-9")
        assert work == {"A": k + 2, "AT": k + 1, "T": 2, "T[]": 0,
                        "rows": (k + m) // 2, "factorized": 0}

    @pytest.mark.parametrize("cut", [1, 5, 20])
    def test_run_cut_at_max_outer_returns_the_last_path_point(self, cut):
        # the point at the cut is the exact minimizer at a weight above the
        # asked one, read off its correlations, which equal that weight on
        # the support
        shift, t, beta = self.detection_instance(9)
        full = anomaly_detect(t, shift, beta)
        assert full.converged and full.meta["segments"] > 20
        res = anomaly_detect(t, shift, beta, SolverConfig(max_outer=cut))
        assert not res.converged and res.meta["stationarity"] > 1e-8
        assert res.meta["segments"] == cut and res.iterations == cut + 1
        assert res.objective_trace.shape[0] == res.iterations
        assert_trace_nonincreasing(res.objective_trace)
        e = res.outliers
        support = np.flatnonzero(e)
        assert support.size
        correlations = 2.0 * (tilde_shift(shift) @ (t - e))
        weight = float(np.mean(np.abs(correlations[support])))
        assert weight > beta
        assert oracles.lasso_kkt_violation(shift.matrix.toarray(), t, e, weight) <= 1e-10
        objective = (quadratic_variation(t - e, shift)
                     + beta * float(np.abs(e).sum()))
        assert res.objective_trace[-2] == pytest.approx(objective, rel=1e-12)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            anomaly_detect(np.zeros(3), cycle_shift(3), -0.1)

    @staticmethod
    def detection_instance(seed, kind=None, sizes=(10, 81), exponents=(-3.0, 1.0)):
        """A small graph (n in ``sizes``, default 10-80): a kNN graph with k
        1-8, a cycle, or a symmetrized column-normalized kNN graph (by
        ``kind``, else by seed); a Gaussian signal with 1-4 spikes and a
        weight of 10^U(exponents), by default 10^U(-3, 1)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(*sizes))
        k = int(rng.integers(1, 9))
        kind = kind or ("knn", "cycle", "column-symmetrized")[seed % 3]
        if kind == "cycle":
            shift = cycle_shift(n)
        else:
            spec = (GraphBuildSpec(k=k) if kind == "knn" else GraphBuildSpec(
                k=k, normalization="column", symmetrize=True))
            shift = build_knn_graph(random_features(n, 2, 700 + seed), spec)
        t = rng.normal(size=n)
        spikes = rng.choice(n, int(rng.integers(1, 5)), replace=False)
        t[spikes] += (rng.choice([-1.0, 1.0], spikes.size)
                      * rng.uniform(2.0, 6.0, spikes.size))
        return shift, t, 10.0 ** rng.uniform(*exponents)

    def test_converged_means_kkt_on_many_small_graphs(self):
        # checked on dense weights by the oracle, apart from the solver's own
        # measure; the path reaches every weight here exactly
        for seed in range(60):
            shift, t, beta = self.detection_instance(seed)
            res = anomaly_detect(t, shift, beta)
            assert res.converged, seed
            kkt = oracles.lasso_kkt_violation(shift.matrix.toarray(), t, res.outliers, beta)
            assert kkt <= 1e-8, (seed, kkt)
            assert res.meta["stationarity"] <= 1e-8

    @staticmethod
    def criterion_06_instance(shift_seed):
        """The ``anomaly_detect`` signal of acceptance criterion 6 (weight 0.8)
        on its graph of that seed, 300 (dense symmetric) or 301 (kNN)."""
        if shift_seed == 300:
            shift = symmetric_shift(20, 300)
        else:
            shift = build_knn_graph(random_features(24, 2, 301), GraphBuildSpec(k=5))
        rng = np.random.default_rng(shift_seed + 50)
        _, vecs = np.linalg.eigh(tilde_shift(shift).toarray())
        smooth = vecs[:, :3] @ np.random.default_rng(shift_seed + 60).normal(size=3)
        t = 3.0 * smooth / np.linalg.norm(smooth) + 0.05 * rng.normal(size=shift.n)
        t[rng.choice(shift.n, size=2, replace=False)] += np.array([4.0, -5.0])
        return shift, t, 0.8

    def test_benchmark_anomaly_check_holds(self):
        """The benchmark's ``anomaly.prox_fixed_point`` check, on dense
        weights: the returned e is a fixed point of the proximal-gradient
        step at ``meta["step"]`` to 1e-12, the trace never rises (up to
        rounding) and has one entry per iteration. On the 60 small instances
        and criterion 6's two."""
        cases = [self.detection_instance(seed) for seed in range(60)]
        cases += [self.criterion_06_instance(seed) for seed in (300, 301)]
        for shift, t, beta in cases:
            res = anomaly_detect(t, shift, beta)
            e, step = res.outliers, res.meta["step"]
            d = np.eye(shift.n) - shift.matrix.toarray()
            v = e + step * 2.0 * d.T @ (d @ (t - e))
            moved = np.sign(v) * np.maximum(np.abs(v) - step * beta, 0.0)
            assert np.max(np.abs(e - moved)) <= 1e-12
            assert_trace_nonincreasing(res.objective_trace)
            assert res.objective_trace.shape[0] == res.iterations

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["knn", "cycle", "column-symmetrized"])
    def test_objective_matches_coordinate_descent(self, kind, seed):
        """A converged result's objective is within ``2 (1e-8 + delta_cd)``
        relative of the coordinate-descent reference's.

        Write F for the objective, g for its smooth part and c = -grad g.
        A point x whose KKT violation relative to beta is delta has a
        subgradient z of ``||.||_1`` at x with ``|c - beta z| <= delta beta``
        entrywise, so by convexity, for the minimizer e*, ``F(e*) >= F(x) +
        (beta z - c) . (e* - x) >= F(x) - delta beta ||e* - x||_1``. Both
        ``beta ||x||_1 <= F(x)`` and ``beta ||e*||_1 <= F(e*) <= F(x)``,
        so ``0 <= F(x) - F(e*) <= 2 delta F(x)``. ``converged`` bounds the
        solver's delta by 1e-8; the reference's, delta_cd, is measured on
        dense weights (at most 1e-10 by its stop). Evaluating F adds
        rounding of about n eps relative, covered by 1e-13.
        """
        # n 20-40 and weights 10^U(-1, 1), where the descent takes well under
        # a second
        shift, t, beta = self.detection_instance(900 + seed, kind, (20, 41), (-1.0, 1.0))
        reference = oracles.lasso_coordinate_descent(shift.matrix.toarray(), t, beta,
                                                     kkt_tol=1e-10)
        delta_cd = oracles.lasso_kkt_violation(shift.matrix.toarray(), t, reference, beta)
        res = anomaly_detect(t, shift, beta)
        assert res.converged

        def objective(e):
            return quadratic_variation(t - e, shift) + beta * float(np.abs(e).sum())

        ours, theirs = objective(res.outliers), objective(reference)
        gap = 2.0 * (1e-8 + delta_cd) + 1e-13
        assert abs(ours - theirs) <= gap * max(ours, theirs)

    def test_zero_signal_at_zero_weight_converges_at_once(self):
        res = anomaly_detect(np.zeros(5), cycle_shift(5), 0.0)
        assert res.converged and res.iterations == 1
        assert res.meta["stationarity"] == 0.0

    def test_spike_at_zero_weight_is_certified_by_its_correlations(self):
        # at weight 0 the violation is the largest correlation, measured
        # against the largest one at e = 0; the oracle divides by the weight
        shift = cycle_shift(6)
        t = np.ones(6)
        t[2] += 5.0
        res = anomaly_detect(t, shift, 0.0)
        tilde = tilde_shift(shift)
        ratio = (np.max(np.abs(2.0 * (tilde @ res.x)))
                 / np.max(np.abs(2.0 * (tilde @ t))))
        assert res.converged == (ratio <= 1e-8)

    def test_cycle_at_a_tiny_weight_never_forms_a_singular_block(self, monkeypatch):
        # the cycle's tilde_shift holds the constant vector in its null
        # space; a correlation the support holds at the weight never joins,
        # so every block the path solves on has full rank, down to 1e-9. The
        # point is e_2 = 5 - beta / 4 to rounding; rounding e_2 to a double
        # (ulp 8.9e-16) moves the correlations by up to 1.8e-15, 1.8e-6 of
        # this weight but below the certificate's rounding floor of 4 eps
        # max |2 T t| = 1.8e-14, so the exact point is certified
        import gsrec.solvers as solvers

        ranks = []
        solve = np.linalg.solve
        monkeypatch.setattr(solvers.np.linalg, "solve", lambda H, B: ranks.append(
            np.linalg.matrix_rank(H) == H.shape[0]) or solve(H, B))
        shift = cycle_shift(6)
        t = np.ones(6)
        t[2] += 5.0
        res = anomaly_detect(t, shift, 1e-9)
        assert ranks and all(ranks)
        assert np.flatnonzero(res.outliers).tolist() == [2]
        assert abs(res.outliers[2] - (5.0 - 0.25e-9)) <= 4 * np.spacing(5.0)
        assert np.all(np.isfinite(res.x))
        miss = 1e-9 * oracles.lasso_kkt_violation(shift.matrix.toarray(), t, res.outliers, 1e-9)
        assert miss <= 4 * np.finfo(float).eps * 20.0  # max |2 T t| = 20
        assert res.converged

def bisection_instance(seed):
    """A random kNN graph (n 100-300), a smooth signal with 2-7 spikes and a
    cap at 5-50 % of its variation."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(100, 301))
    shift = build_knn_graph(random_features(n, 2, 50 + seed),
                            GraphBuildSpec(k=int(rng.integers(4, 9))))
    t = synth_instance(shift, SyntheticSpec(n=n, l=1, rank=5,
                                            noise_sigma=0.0), seed).x0[:, 0]
    spikes = int(rng.integers(2, 8))
    t[rng.choice(n, spikes, replace=False)] += (
        rng.choice([-1.0, 1.0], spikes) * rng.uniform(2.0, 5.0, spikes))
    eta = float(np.sqrt(quadratic_variation(t, shift) * rng.uniform(0.05, 0.5)))
    return shift, t, eta


class TestAnomalyDetectConstrained:
    def test_loose_cap_keeps_signal(self):
        shift = symmetric_shift(8, 26)
        t = np.random.default_rng(27).normal(size=8)
        eta = float(np.sqrt(quadratic_variation(t, shift))) * 1.01
        res = anomaly_detect_constrained(t, shift, eta)
        np.testing.assert_array_equal(res.outliers, np.zeros(8))
        np.testing.assert_array_equal(res.x, t)
        assert res.converged

    def test_zero_cap_recovers_median_shift(self):
        t = np.array([3.0, -1.0, 0.5, 2.0, 10.0])
        shift = cycle_shift(5)
        res = anomaly_detect_constrained(t, shift, 0.0)
        c_ref = oracles.median_shift_oracle(t)
        assert abs(c_ref - 2.0) <= 1e-4
        np.testing.assert_allclose(res.x, c_ref * np.ones(5), atol=1e-3)
        assert np.abs(res.outliers).sum() <= np.abs(t - c_ref).sum() + 1e-2
        assert res.converged
        smooth = quadratic_variation(res.x, shift)
        slack = 1e-9 * (1.0 + quadratic_variation(t, shift))
        assert smooth <= res.meta["target"] + slack

    def test_spike_with_smooth_part_cap(self):
        shift = cycle_shift(4)
        t = np.ones(4)
        t[2] += 5.0
        eta = float(np.sqrt(quadratic_variation(np.ones(4), shift)))
        res = anomaly_detect_constrained(t, shift, eta)
        support = np.flatnonzero(np.abs(res.outliers) > 1e-6)
        assert support.tolist() == [2]
        assert res.converged

    def test_trace_nonincreasing(self):
        shift = symmetric_shift(10, 28)
        t = np.random.default_rng(29).normal(size=10)
        t[3] += 6.0
        res = anomaly_detect_constrained(t, shift, 0.1)
        assert_trace_nonincreasing(res.objective_trace)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            anomaly_detect_constrained(np.zeros(3), cycle_shift(3), -1.0)

    def test_nan_cap_rejected(self):
        with pytest.raises(ValueError):
            anomaly_detect_constrained(np.zeros(3), cycle_shift(3), np.nan)

    def test_infinite_cap_returns_the_signal(self):
        t = np.arange(3.0)
        res = anomaly_detect_constrained(t, cycle_shift(3), np.inf)
        np.testing.assert_array_equal(res.x, t)
        assert res.meta["segments"] == 0 and res.converged

    def test_signal_within_the_cap_traces_its_variation(self):
        # at e = 0 the penalized objective V + beta ||e||_1 is V(t)
        t = np.arange(3.0)
        res = anomaly_detect_constrained(t, cycle_shift(3), np.inf)
        np.testing.assert_array_equal(res.objective_trace,
                                      [quadratic_variation(t, cycle_shift(3))])
        assert res.objective_trace[0] == 6.0

    def test_iterations_count_every_bisection_solve(self, monkeypatch):
        """``iterations`` counts the lasso path's segments, and no penalized
        solve runs."""
        import gsrec.solvers as solvers

        calls = []
        monkeypatch.setattr(solvers, "anomaly_detect",
                            lambda *args, **kwargs: calls.append(args))
        shift = symmetric_shift(10, 28)
        t = np.random.default_rng(29).normal(size=10)
        t[3] += 6.0
        res = anomaly_detect_constrained(t, shift, 0.1)
        assert calls == []
        assert res.iterations == res.meta["segments"] > 1
        assert res.converged

    def test_infeasible_when_the_path_runs_out_of_segments(self):
        shift = symmetric_shift(10, 28)
        t = np.random.default_rng(29).normal(size=10)
        t[3] += 6.0
        with pytest.raises(Infeasible, match="ran out of segments .*after 1 "
                                             "segments.*larger max_outer"):
            anomaly_detect_constrained(t, shift, 0.1, SolverConfig(max_outer=1))

    @pytest.mark.parametrize("seed", range(6))
    def test_search_matches_plain_bisection(self, seed):
        """The lasso path's weight against plain bisection of cold solves,
        on random kNN graphs.

        Each cold solve is the same path run to its weight, so this checks
        the budget stop (a root on one segment) against a weight search
        over the weight stop, not the path itself; the path is checked
        against coordinate descent in ``TestAnomalyDetect``. Both find the
        same support, and the weights agree to the solves' resolution. A solve with KKT violation delta relative to beta
        (``meta["stationarity"]``, at most 1e-8) has ``|g_i + beta
        sign(e_i)| <= delta beta`` on its support and ``|g_j| <= beta + delta
        beta`` off it: it solves the problem exactly for entry weights within
        ``eps = delta beta`` of beta. To first order on a support S with signs s, entry
        weight j moves the variation in proportion to ``s_j u_j``, ``u =
        T_SS^+ s`` (T = tilde_shift), so entry errors of at most eps move it
        no further than a uniform weight error of ``kappa eps``, ``kappa =
        ||u||_1 / (s . u)``. The feasible end lo and the infeasible end hi of
        the bisection's final bracket then place the critical weight within
        ``[lo - kappa eps_lo, hi + kappa eps_hi]``. The bisection reads its
        feasibility against the path's budget, so the path's weight, exact
        to rounding, lies there too.
        """
        shift, t, eta = bisection_instance(seed)
        base = quadratic_variation(t, shift)
        slack = eta ** 2 * 1e-6 + 1e-9 * (1.0 + base)
        budget = eta ** 2 + 0.5 * slack
        solves = {}

        def excess(beta):
            solves[beta] = anomaly_detect(t, shift, beta)
            return solves[beta].meta["smooth"] - budget

        beta_hi = 1.001 * 2.0 * float(np.max(np.abs(tilde_shift(shift) @ t)))
        lo, hi, _ = oracles.bisection_weight_search(excess, beta_hi)
        res = anomaly_detect_constrained(t, shift, eta)
        assert res.converged
        assert quadratic_variation(res.x, shift) <= eta ** 2 + slack
        support = np.flatnonzero(res.outliers)
        assert support.size
        np.testing.assert_array_equal(np.flatnonzero(solves[lo].outliers), support)
        signs = np.sign(res.outliers[support])
        tilde = tilde_shift(shift).toarray()
        u = np.linalg.pinv(tilde[np.ix_(support, support)]) @ signs
        kappa = float(np.abs(u).sum() / (signs @ u))
        eps = sum(solves[b].meta["stationarity"] * b for b in (lo, hi))
        assert abs(res.meta["beta_reg"] - lo) <= kappa * eps + (hi - lo)

    @pytest.mark.parametrize("instance", [*(f"knn-{seed}" for seed in range(6)),
                                          *(f"detect-bisect-{seed}" for seed in (1, 2, 3))])
    def test_path_meets_kkt(self, instance):
        """The returned point is a minimizer at its weight to 1e-12 relative,
        checked on a dense ``D^T D`` here: on the instances above and on the
        ``detect-bisect`` benchmark instances (n = 1000) of seeds 1-3."""
        kind, seed = instance.rsplit("-", 1)
        if kind == "knn":
            shift, t, eta = bisection_instance(int(seed))
        else:
            from gsrec.experiments import (ExperimentSpec, _resolve_graph,
                                           _synthetic_draws)

            spec = ExperimentSpec.from_dict({
                "task": "detect", "seed": int(seed), "trials": 1,
                "graph": {"kind": "knn", "n": 1000, "k": 8},
                "signal": {"synthetic": {"rank": 5, "outliers_per_column": 10,
                                         "outlier_lo": 3.0, "outlier_hi": 5.0}},
                "solvers": [{"method": "anomaly-constrained",
                             "eta_smooth": 2.0 ** 0.5}],
            })
            shift = _resolve_graph(spec.graph, spec.seed)
            t = _synthetic_draws(spec, shift)(0).observed[:, 0]
            eta = 2.0 ** 0.5
        res = anomaly_detect_constrained(t, shift, eta)
        assert res.converged and np.any(res.outliers)
        beta = res.meta["beta_reg"]
        assert oracles.lasso_kkt_violation(shift.matrix.toarray(), t, res.outliers,
                                           beta) <= 1e-12

    def test_converged_solves_keep_their_step(self):
        """Penalized solves at the weights the constrained path stops at, for
        40 caps on this column-normalized graph, all converge on the
        constrained point's support: the path stopped at a weight and the
        path stopped at a variation agree on where they are."""
        shift = build_knn_graph(random_features(200, 2, 165),
                                GraphBuildSpec(k=5, normalization="column"))
        rng = np.random.default_rng(0)
        t = eigen_basis(shift, 10) @ rng.normal(size=10)
        t[rng.choice(200, 4, replace=False)] += rng.uniform(5, 8, 4)
        variation = quadratic_variation(t, shift)
        for fraction in np.linspace(0.01, 0.8, 40):
            path = anomaly_detect_constrained(t, shift, np.sqrt(fraction * variation))
            assert path.converged
            sol = anomaly_detect(t, shift, path.meta["beta_reg"])
            assert sol.converged
            np.testing.assert_array_equal(np.flatnonzero(sol.outliers),
                                          np.flatnonzero(path.outliers))


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestRgtvr:
    def test_clean_signal_large_gamma_matches_gtvr(self):
        shift = symmetric_shift(15, 30)
        t, m = random_masked_vector(15, 31, keep=0.7)
        alpha = 1.0
        res = rgtvr(t, m, shift,
                    SolverConfig(alpha=alpha, gamma=50.0, max_outer=4000))
        ref = gtvr(t, m, shift, alpha)
        assert np.linalg.norm(res.x - ref.x) <= 1e-3
        np.testing.assert_array_equal(res.outliers, np.zeros(15))

    def test_mislabeled_entry_found_and_fit_improves(self):
        shift = symmetric_shift(20, 21)
        x0 = smooth_vector(shift, 22)
        x0 = x0 / np.max(np.abs(x0))
        rng = np.random.default_rng(23)
        mask = np.ones(20, dtype=bool)
        mask[rng.choice(20, size=5, replace=False)] = False
        t = x0.copy()
        bad = int(np.flatnonzero(mask)[3])
        t[bad] = 10.0 * np.max(np.abs(x0))
        res = rgtvr(t, mask, shift,
                    SolverConfig(alpha=2.0, gamma=1.0, max_outer=4000))
        base = gtvr(t, mask, shift, 2.0)
        support = np.flatnonzero(np.abs(res.outliers) > 1e-6)
        assert bad in support
        assert np.linalg.norm(res.x - x0) < np.linalg.norm(base.x - x0)

    def test_zero_signal_gives_zero(self):
        shift = cycle_shift(5)
        res = rgtvr(np.zeros(5), np.ones(5, dtype=bool), shift,
                    SolverConfig(alpha=1.0, gamma=0.5))
        np.testing.assert_allclose(res.x, np.zeros(5), atol=1e-12)
        np.testing.assert_allclose(res.outliers, np.zeros(5), atol=1e-12)
        np.testing.assert_allclose(res.noise, np.zeros(5), atol=1e-12)

    def test_split_feasibility_and_slack_support(self):
        shift = symmetric_shift(12, 33)
        t, m = random_masked_vector(12, 34, keep=0.6)
        res = rgtvr(t, m, shift,
                    SolverConfig(alpha=0.8, gamma=0.3, max_outer=4000))
        total = res.x + res.noise + res.outliers + res.aux["slack"]
        assert np.linalg.norm(t - total) <= 1e-6 * (1.0 + np.linalg.norm(t))
        np.testing.assert_array_equal(res.aux["slack"][m], np.zeros(m.sum()))
        assert res.converged
        assert res.objective_trace.shape[0] == res.iterations

    def test_is_gsr_admm_at_zero_beta(self):
        shift = symmetric_shift(12, 47)
        t, m = random_masked_vector(12, 48, keep=0.7)
        t[np.flatnonzero(m)[0]] += 5.0
        cfg = SolverConfig(alpha=1.0, beta=0.3, gamma=0.4)
        res = rgtvr(t, m, shift, cfg)
        ref = gsr_admm(t, m, shift, cfg.replace(beta=0.0))
        for name in ("x", "outliers", "noise", "objective_trace"):
            assert_bitwise(getattr(res, name), getattr(ref, name))
        assert res.iterations == ref.iterations
        assert res.meta["solver"] == "rgtvr"

    def test_stop_rule_at_convergence(self):
        shift = symmetric_shift(10, 35)
        t, m = random_masked_vector(10, 36, keep=0.7)
        res = rgtvr(t, m, shift, SolverConfig(alpha=1.0, gamma=0.4))
        assert res.converged
        tr = res.objective_trace
        if tr.size >= 2:
            assert abs(tr[-1] - tr[-2]) < 1e-8


    def test_over_relaxation_saves_iterations(self, monkeypatch):
        import gsrec.solvers as solvers

        shift = build_knn_graph(random_features(200, 2, 6), GraphBuildSpec(k=8))
        inst = synth_instance(shift, SyntheticSpec(n=200, l=1, rank=5,
                                                   noise_sigma=0.05,
                                                   outliers_per_column=10,
                                                   outlier_lo=5.0, outlier_hi=10.0), 6)
        t, m = inst.observed[:, 0], sample_mask((200,), 0.6, 6)
        cfg = SolverConfig(alpha=1.0, gamma=0.5)
        relaxed = rgtvr(t, m, shift, cfg)
        monkeypatch.setattr(solvers, "ADMM_RELAX", 1.0)
        plain = rgtvr(t, m, shift, cfg)
        ref = rgtvr(t, m, shift, cfg.replace(tol_outer=1e-14, max_outer=50000))
        assert relaxed.converged and plain.converged and ref.converged
        assert relaxed.iterations < plain.iterations
        for res in (relaxed, plain):
            assert np.max(np.abs(res.x - ref.x)) <= 1e-4
            assert np.max(np.abs(res.outliers - ref.outliers)) <= 1e-4

    def test_converged_stop_is_near_the_minimizer_at_n_2000(self):
        # the robust-inpaint instance of an inpaint-large benchmark job at
        # seed 13: without over-relaxation the loop crept along a plateau and
        # stopped 1.07e-3 relative from the minimizer, its objective change
        # below tol_outer; with it the stop lands 7e-6 away
        from gsrec.experiments import ExperimentSpec, _recovery_cells

        spec = ExperimentSpec.from_dict({
            "task": "robust-inpaint", "seed": 13, "trials": 1, "ratios": [0.6],
            "graph": {"kind": "knn", "n": 2000, "k": 8},
            "signal": {"synthetic": {"rank": 10, "noise_sigma": 0.05}},
            "corrupt": {"fraction": 0.1, "mode": "regression"},
            "eval_on": "all",
            "solvers": [{"name": "rgtvr", "method": "rgtvr",
                         "config": {"alpha": 1.0, "gamma": 0.5}}],
        })
        cell = next(_recovery_cells(spec))
        config = spec.solvers[0].config
        res = rgtvr(cell.observed, cell.mask, cell.shift, config)
        ref = rgtvr(cell.observed, cell.mask, cell.shift,
                    config.replace(tol_outer=1e-14, max_outer=20000))
        assert res.converged and ref.converged
        assert np.linalg.norm(res.x - ref.x) <= 1e-4 * np.linalg.norm(ref.x)


class TestGsrAdmm:
    def test_zero_data_gives_zero_everything(self):
        shift = symmetric_shift(6, 37)
        res = gsr_admm(np.zeros((6, 3)), np.ones((6, 3), dtype=bool), shift,
                       SolverConfig(alpha=1.0, beta=0.2, gamma=0.1))
        np.testing.assert_allclose(res.x, np.zeros((6, 3)), atol=1e-12)
        np.testing.assert_allclose(res.outliers, np.zeros((6, 3)), atol=1e-12)
        np.testing.assert_allclose(res.noise, np.zeros((6, 3)), atol=1e-12)
        assert res.objective_trace[-1] == 0.0

    def test_single_column_reduces_to_gtvr(self):
        for seed in range(3):
            shift = symmetric_shift(10, 100 + seed)
            t, m = random_masked_vector(10, 200 + seed, keep=0.7)
            alpha = 0.5 + 0.5 * seed
            res = gsr_admm(t, m, shift,
                           SolverConfig(alpha=alpha, beta=0.0, gamma=0.0,
                                        max_outer=8000))
            ref = gtvr(t, m, shift, alpha)
            rel = np.linalg.norm(res.x - ref.x) / (1.0 + np.linalg.norm(ref.x))
            assert rel <= 1e-4

    def test_reduces_to_nuclear_completion(self):
        rng = np.random.default_rng(31)
        shift = symmetric_shift(12, 32)
        T = rng.normal(size=(12, 6))
        mask = rng.uniform(size=T.shape) < 0.6
        beta = 1.0
        res = gsr_admm(T, mask, shift,
                       SolverConfig(alpha=0.0, beta=beta, gamma=0.0,
                                    tol_outer=1e-12, max_outer=40000))
        ref = oracles.nuclear_completion_fixed_point(T, mask, beta)
        assert np.max(np.abs(res.x - ref)) <= 1e-4
        grad = np.zeros_like(res.x)
        grad[mask] = 2.0 * (res.x - T)[mask]
        prox = oracles.numpy_svt(res.x - 0.5 * grad, 0.5 * beta)
        assert np.max(np.abs(res.x - prox)) <= 1e-4

    def test_identity_shift_full_mask_is_singular_value_shrinkage(self):
        eye = GraphShift(np.eye(6))
        T = np.random.default_rng(38).normal(size=(6, 4))
        res = gsr_admm(T, np.ones(T.shape, dtype=bool), eye,
                       SolverConfig(alpha=0.0, beta=0.8, gamma=0.0,
                                    max_outer=8000))
        ref = oracles.numpy_svt(T, 0.4)
        assert np.max(np.abs(res.x - ref)) <= 1e-4

    def test_full_mask_single_column_matches_alternating_minimizer(self):
        n = 15
        shift = symmetric_shift(n, 41)
        t = np.random.default_rng(42).normal(size=n)
        t[3] += 6.0
        alpha, gamma = 1.0, 0.6
        res = gsr_admm(t, np.ones(n, dtype=bool), shift,
                       SolverConfig(alpha=alpha, beta=0.0, gamma=gamma,
                                    max_outer=8000))
        at = tilde_shift(shift)
        solve = np.linalg.inv(np.eye(n) + alpha * at)
        x = np.zeros(n)
        e = np.zeros(n)
        for _ in range(20000):
            x_new = solve @ (t - e)
            e_new = shrink(t - x_new, gamma / 2.0)
            delta = max(np.max(np.abs(x_new - x)), np.max(np.abs(e_new - e)))
            x, e = x_new, e_new
            if delta < 1e-13:
                break
        assert np.max(np.abs(res.x - x)) <= 1e-4
        assert np.max(np.abs(res.outliers - e)) <= 1e-4

    def test_no_outlier_weight_pins_outliers_to_zero(self):
        shift = symmetric_shift(8, 43)
        rng = np.random.default_rng(44)
        T = rng.normal(size=(8, 3))
        mask = rng.uniform(size=T.shape) < 0.7
        mask[0, 0] = True
        res = gsr_admm(T, mask, shift,
                       SolverConfig(alpha=1.0, beta=0.1, gamma=0.0))
        np.testing.assert_array_equal(res.outliers, np.zeros(T.shape))

    def test_split_feasibility_and_trace_shape(self):
        shift = symmetric_shift(10, 45)
        rng = np.random.default_rng(46)
        T = rng.normal(size=(10, 4))
        mask = rng.uniform(size=T.shape) < 0.6
        mask[0, 0] = True
        res = gsr_admm(T, mask, shift,
                       SolverConfig(alpha=1.0, beta=0.2, gamma=0.3,
                                    max_outer=8000))
        total = res.x + res.noise + res.outliers + res.aux["slack"]
        assert np.linalg.norm(T - total) <= 1e-6 * (1.0 + np.linalg.norm(T))
        np.testing.assert_array_equal(res.aux["slack"][mask],
                                      np.zeros(mask.sum()))
        assert res.objective_trace.shape[0] == res.iterations
        assert res.converged
        tr = res.objective_trace
        if tr.size >= 2:
            assert abs(tr[-1] - tr[-2]) < 1e-8

    def test_slack_is_no_costed_noise_off_the_mask(self):
        # off the mask the split is the slack alone: noise, outliers and the
        # split's multiplier are exactly 0 there, and the trace ends at the
        # model's objective, whose noise term is the misfit on the mask
        shift = symmetric_shift(12, 51)
        rng = np.random.default_rng(52)
        T = rng.normal(size=(12, 4))
        T[3, 1] += 6.0
        mask = rng.uniform(size=T.shape) < 0.6
        mask[3, 1] = True
        cfg = SolverConfig(alpha=1.0, beta=0.2, gamma=0.3, penalty=2.0,
                           max_outer=8000)
        res = gsr_admm(T, mask, shift, cfg)
        assert res.converged
        for name, value in (("outliers", res.outliers), ("noise", res.noise),
                            ("multiplier_split", res.aux["multiplier_split"])):
            assert np.all(value[~mask] == 0.0), name
        objective = (cfg.alpha * sum(quadratic_variation(c, shift) for c in res.x.T)
                     + cfg.beta * float(np.sum(svdvals(res.x)))
                     + cfg.gamma * float(np.sum(np.abs(res.outliers)))
                     + float(np.sum(res.noise[mask] ** 2)))
        assert abs(res.objective_trace[-1] - objective) <= 1e-12 * objective
        split = T - res.x - res.noise - res.outliers - res.aux["slack"]
        assert np.linalg.norm(split) <= FEAS_RTOL * (1.0 + np.linalg.norm(T))

    @pytest.mark.parametrize("solver", ["gsr_admm", "rgtvr"])
    def test_values_off_the_mask_are_never_read(self, solver):
        shift = symmetric_shift(12, 53)
        rng = np.random.default_rng(54)
        if solver == "gsr_admm":
            T, run = rng.normal(size=(12, 3)), gsr_admm
            cfg = SolverConfig(alpha=1.0, beta=0.2, gamma=0.3)
        else:
            T, run = rng.normal(size=12), rgtvr
            cfg = SolverConfig(alpha=1.0, gamma=0.3)
        T.flat[0] += 6.0
        mask = rng.uniform(size=T.shape) < 0.6
        mask.flat[0] = True
        zeros = run(np.where(mask, T, 0.0), mask, shift, cfg)
        nans = run(np.where(mask, T, np.nan), mask, shift, cfg)
        assert zeros.converged and np.any(zeros.outliers != 0.0)
        for name in ("x", "noise", "outliers"):
            assert_bitwise(getattr(nans, name), getattr(zeros, name))
        assert nans.iterations == zeros.iterations

    def test_zero_beta_has_no_duplicate(self, monkeypatch):
        from gsrec import solvers

        def no_svt(*args, **kwargs):
            raise AssertionError("svt called at beta = 0")

        monkeypatch.setattr(solvers, "svt", no_svt)
        shift = symmetric_shift(10, 49)
        rng = np.random.default_rng(50)
        T = rng.normal(size=(10, 3))
        mask = rng.uniform(size=T.shape) < 0.6
        mask[0, 0] = True
        res = gsr_admm(T, mask, shift,
                       SolverConfig(alpha=1.0, beta=0.0, gamma=0.3))
        assert res.converged
        assert "duplicate" not in res.aux
        assert "multiplier_duplicate" not in res.aux

    def test_dimension_mismatch_rejected(self):
        shift = cycle_shift(4)
        with pytest.raises(DimensionMismatch):
            gsr_admm(np.zeros((5, 2)), np.ones((5, 2), dtype=bool), shift)


# ---------------------------------------------------------------------------
# every trace ends at the model objective of the returned parts
# ---------------------------------------------------------------------------

TRACE_CONFIG = SolverConfig(alpha=1.0, beta=0.2, gamma=0.1)


def _variation(X, shift):
    d = X - shift.matrix.toarray() @ X
    return float(np.sum(d * d))


def _misfit(R, mask):
    return float(np.sum(R[mask] ** 2))


def _nuclear(X):
    return float(np.sum(svdvals(X)))


def _trace_gtvm(shift, T, mask):
    res = gtvm(T[:, 0], mask[:, 0], shift)
    return res, _variation(res.x, shift)


def _trace_gtvr(shift, T, mask):
    res = gtvr(T[:, 0], mask[:, 0], shift, TRACE_CONFIG.alpha)
    return res, (_misfit(res.x - T[:, 0], mask[:, 0])
                 + TRACE_CONFIG.alpha * _variation(res.x, shift))


def _trace_rgtvr(shift, T, mask):
    c = TRACE_CONFIG
    res = rgtvr(T[:, 0], mask[:, 0], shift, c)
    return res, (c.alpha * _variation(res.x, shift)
                 + c.gamma * np.abs(res.outliers).sum()
                 + float(np.sum(res.noise ** 2)))


def _trace_gmcm(shift, T, mask):
    res = gmcm(T, mask, shift, TRACE_CONFIG)
    return res, _variation(res.x, shift) + TRACE_CONFIG.beta * _nuclear(res.x)


def _trace_gmcr(shift, T, mask):
    c = TRACE_CONFIG
    res = gmcr(T, mask, shift, c)
    return res, (_misfit(res.x - T, mask) + c.alpha * _variation(res.x, shift)
                 + c.beta * _nuclear(res.x))


def _trace_gsr_admm(shift, T, mask):
    c = TRACE_CONFIG
    res = gsr_admm(T, mask, shift, c)
    return res, (c.alpha * _variation(res.x, shift) + c.beta * _nuclear(res.x)
                 + c.gamma * np.abs(res.outliers).sum()
                 + float(np.sum(res.noise ** 2)))


def _trace_anomaly_detect(shift, T, mask):
    beta_reg = TRACE_CONFIG.gamma
    res = anomaly_detect(T[:, 0], shift, beta_reg, TRACE_CONFIG)
    return res, (_variation(T[:, 0] - res.outliers, shift)
                 + beta_reg * np.abs(res.outliers).sum())


@pytest.fixture(scope="module")
def trace_instance():
    """n=40 kNN graph, six noisy columns with one outlier each, 60 % observed."""
    shift = build_knn_graph(random_features(40, 2, 3), GraphBuildSpec(k=6))
    inst = synth_instance(shift, SyntheticSpec(n=40, l=6, rank=3,
                                               noise_sigma=0.05,
                                               outliers_per_column=1,
                                               outlier_lo=5.0, outlier_hi=10.0), 4)
    return shift, inst.observed, sample_mask(inst.observed.shape, 0.6, 5)


@pytest.mark.parametrize("case", [
    _trace_gtvm, _trace_gtvr, _trace_rgtvr, _trace_gmcm, _trace_gmcr,
    _trace_gsr_admm, _trace_anomaly_detect,
], ids=lambda case: case.__name__.removeprefix("_trace_"))
def test_last_trace_entry_is_model_objective(case, trace_instance):
    res, objective = case(*trace_instance)
    assert res.objective_trace[-1] == pytest.approx(objective, rel=1e-9)


@pytest.mark.parametrize("case", ["gmcm", "gmcr"])
def test_prox_gradient_meta_reports_its_run(case, trace_instance):
    """The final step, the rejected candidates and the smooth part f at x."""
    shift, T, mask = trace_instance
    c = TRACE_CONFIG
    if case == "gmcm":
        res = gmcm(T, mask, shift, c)
        smooth = _variation(res.x, shift)
    else:
        res = gmcr(T, mask, shift, c)
        smooth = _misfit(res.x - T, mask) + c.alpha * _variation(res.x, shift)
    assert res.meta["solver"] == case
    assert 0 < res.meta["step"] <= 1.0 and res.meta["backtracks"] >= 0
    assert res.meta["smooth"] == pytest.approx(smooth, rel=1e-10)
