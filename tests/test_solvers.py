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
    RecoveryResult,
    SolverConfig,
    SyntheticSpec,
    anomaly_detect,
    anomaly_detect_constrained,
    build_knn_graph,
    cycle_shift,
    gmcm,
    gmcr,
    gsr_admm,
    gtvm,
    gtvr,
    normalize_shift,
    quadratic_variation,
    random_features,
    rgtvr,
    sample_mask,
    shrink,
    synth_instance,
    tilde_shift,
)
from gsrec.io import solver_config_from_dict


def symmetric_shift(n, seed):
    """Dense symmetric weights, zero diagonal, scaled to unit spectral radius."""
    rng = np.random.default_rng(seed)
    w = np.abs(rng.normal(size=(n, n)))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return normalize_shift(GraphShift(w))


def smooth_vector(shift, seed, modes=2):
    """Random mix of the eigenvectors whose eigenvalues sit nearest the radius."""
    _, vecs = np.linalg.eigh(shift.weights)
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
        with pytest.raises(ConfigError):
            solver_config_from_dict({"max_outer": value})

    def test_numpy_integer_max_outer_accepted(self):
        assert SolverConfig(max_outer=np.int64(3)).max_outer == 3

    @pytest.mark.parametrize("key", ["alpha", "beta", "gamma", "penalty", "tol_outer"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, key, value):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(**{key: value})

    def test_dict_round_trip(self):
        cfg = SolverConfig(alpha=2.0, beta=0.5, gamma=0.1, max_outer=30)
        again = SolverConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig.from_dict({"alpha": 1.0, "bogus": 2})
        # keys of settings no solver reads any more; the step search is fixed
        for key in ("epsilon", "tol_inner", "max_inner", "step"):
            with pytest.raises(ValueError):
                SolverConfig.from_dict({"alpha": 1.0, key: 1.0})
        with pytest.raises(ValueError):
            SolverConfig.from_dict({"step": {"t0": 1.0}})
        with pytest.raises(ConfigError):
            solver_config_from_dict({"alpha": 1.0, "max_inner": 100})

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
        xref, _ = oracles.quadratic_inpaint_oracle(t, m, shift.weights, 1.0)
        np.testing.assert_allclose(res.x, xref, atol=1e-6)

    def test_random_instances_match_numeric_minimizer(self):
        for seed in (11, 12):
            shift = symmetric_shift(9, seed)
            t, m = random_masked_vector(9, seed + 50, keep=0.6)
            alpha = 0.8
            res = gtvr(t, m, shift, alpha)
            xref, _ = oracles.quadratic_inpaint_oracle(t, m, shift.weights, alpha)
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
        assert res.meta["fixed_point_residual"] <= 1e-6

    @pytest.fixture
    def counted_work(self, monkeypatch):
        """Sparse products by operand (A or its CSR transpose) and prox calls."""
        import gsrec.solvers as solvers

        shift = symmetric_shift(12, 24)
        work = {"A": 0, "AT": 0, "shrink": 0}
        product, threshold = sp.csr_array.__matmul__, solvers.shrink

        def counted_product(self, other):
            work["A" if self is shift.matrix else "AT"] += 1
            return product(self, other)

        def counted_shrink(*args, **kwargs):
            work["shrink"] += 1
            return threshold(*args, **kwargs)

        shift._transpose  # built before counting starts
        monkeypatch.setattr(sp.csr_array, "__matmul__", counted_product)
        monkeypatch.setattr(solvers, "shrink", counted_shrink)
        t = np.random.default_rng(25).normal(size=12)
        t[4] += 8.0
        return shift, t, work

    @staticmethod
    def residual_tests(res, t, shift):
        """Iterations whose objective change passed the stop test: the
        fixed-point residual is taken there, and only there while running."""
        F = np.concatenate([[quadratic_variation(t, shift)], res.objective_trace])
        return int(np.sum(np.abs(np.diff(F)) < SolverConfig().tol_outer))

    @pytest.mark.parametrize("max_outer", [2000, 3])
    def test_fixed_point_residual_taken_once_at_the_stop(self, counted_work,
                                                         max_outer):
        # every residual needs one gradient, one A^T product from the kept
        # residual d, as does each iteration; a converged run reuses the
        # residual of its last stop test, a run cut at max_outer takes one
        shift, t, work = counted_work
        res = anomaly_detect(t, shift, 0.8, SolverConfig(max_outer=max_outer))
        work = dict(work)
        tests = self.residual_tests(res, t, shift)
        assert res.converged == (max_outer == 2000) == (tests > 0)
        assert work["AT"] == res.iterations + tests + (not res.converged)

    def test_gradient_reuses_the_accepted_residual(self, counted_work):
        # A x is formed once per smooth evaluation, the start and each step
        # tried, and never for a gradient: one product per iteration fewer
        # than forming d again; each step tried and each residual is a shrink
        shift, t, work = counted_work
        res = anomaly_detect(t, shift, 0.8)
        work = dict(work)
        steps = work["shrink"] - self.residual_tests(res, t, shift)
        assert steps >= res.iterations > 5
        assert work["A"] == 1 + steps
        assert steps == res.iterations + res.meta["backtracks"]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            anomaly_detect(np.zeros(3), cycle_shift(3), -0.1)

    def test_warm_start_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            anomaly_detect(np.zeros(3), cycle_shift(3), 0.5, e0=np.zeros(4))


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
        assert res.meta["bisections"] == 0 and res.converged

    def test_iterations_count_every_bisection_solve(self, monkeypatch):
        import gsrec.solvers as solvers

        counts, backtracks = [], []
        inner = solvers.anomaly_detect

        def counted(*args, **kwargs):
            res = inner(*args, **kwargs)
            counts.append(res.iterations)
            backtracks.append(res.meta["backtracks"])
            return res

        monkeypatch.setattr(solvers, "anomaly_detect", counted)
        shift = symmetric_shift(10, 28)
        t = np.random.default_rng(29).normal(size=10)
        t[3] += 6.0
        res = anomaly_detect_constrained(t, shift, 0.1)
        assert len(counts) > 1
        assert res.iterations >= sum(counts)
        assert res.meta["backtracks"] == sum(backtracks)

    @pytest.mark.parametrize("shape", ["linear", "quadratic", "step"])
    def test_weight_search_keeps_a_bracket(self, shape):
        """On a known excess: every weight strictly inside the bracket left,
        the crossing kept in the final bracket, at most MAX_BISECT weights.

        After the four halvings 4, 2, 1, 1/2, the first chord of a linear
        excess lands on the crossing and one weight half the final width
        past it closes the bracket; a step gives the chord no slope
        information and is still bracketed."""
        import gsrec.solvers as solvers

        root, beta_hi = 0.3 * np.pi, 8.0
        excess = {"linear": lambda b: b - root,
                  "quadratic": lambda b: b * b - root * root,
                  "step": lambda b: -1.0 if b <= root else 1.0}[shape]
        weights = []

        def recorded(beta):
            weights.append(beta)
            return excess(beta)

        lo, hi, solves = solvers._weight_search(recorded, beta_hi, excess(beta_hi))
        assert solves == len(weights) <= solvers.MAX_BISECT
        left, right = 0.0, beta_hi
        for beta in weights:
            assert left < beta < right
            if excess(beta) <= 0:
                left = beta
            else:
                right = beta
        assert (lo, hi) == (left, right) and lo <= root < hi
        if shape != "step":
            assert hi - lo <= beta_hi * 2.0 ** -solvers.MAX_BISECT
            assert solves <= {"linear": 6, "quadratic": 12}[shape]

    def test_infeasible_after_max_bisect_weights(self, monkeypatch):
        """A solve that never removes anything meets no cap: MAX_BISECT halvings."""
        import gsrec.solvers as solvers

        weights = []

        def stuck(t, shift, beta_reg, config=None, e0=None):
            weights.append(beta_reg)
            return RecoveryResult(x=t.copy(), outliers=np.zeros_like(t),
                                  meta={"step": 1.0, "backtracks": 0})

        monkeypatch.setattr(solvers, "anomaly_detect", stuck)
        shift = symmetric_shift(10, 28)
        t = np.random.default_rng(29).normal(size=10)
        with pytest.raises(Infeasible, match="down to"):
            anomaly_detect_constrained(t, shift, 0.0)
        beta_hi = 1.001 * 2.0 * float(np.max(np.abs(tilde_shift(shift) @ t)))
        assert weights == [beta_hi / 2 ** (i + 1) for i in range(solvers.MAX_BISECT)]


    @pytest.mark.parametrize("seed", range(6))
    def test_search_matches_plain_bisection(self, monkeypatch, seed):
        """The weight search against plain bisection, on random kNN graphs.

        Both find the same support and meet the cap, and their weights agree
        to the solves' resolution. A solve that stops with fixed-point
        residual r (at most 1e-6) at step t has ``r = t |g_i + beta
        sign(e_i)|`` on its support: it solves the problem exactly for entry
        weights within ``eps = r / t`` of beta. To first order on a support
        S with signs s, entry weight j moves the variation in proportion to
        ``s_j u_j``, ``u = T_SS^+ s`` (T = tilde_shift), so entry errors of at
        most eps move it no further than a uniform weight error of
        ``kappa eps``, ``kappa = ||u||_1 / (s . u)``. The feasible end lo and
        the infeasible end hi of a final bracket then place the critical
        weight within ``[lo - kappa eps_lo, hi + kappa eps_hi]``, and the
        weights of two searches differ by at most kappa times the four end
        errors plus the two bracket widths.
        """
        import gsrec.solvers as solvers

        rng = np.random.default_rng(seed)
        n = int(rng.integers(100, 301))
        shift = build_knn_graph(random_features(n, 2, 50 + seed),
                                GraphBuildSpec(k=int(rng.integers(4, 9))))
        t = synth_instance(shift, SyntheticSpec(n=n, l=1, rank=5,
                                                noise_sigma=0.0), seed).x0[:, 0]
        spikes = int(rng.integers(2, 8))
        t[rng.choice(n, spikes, replace=False)] += (
            rng.choice([-1.0, 1.0], spikes) * rng.uniform(2.0, 5.0, spikes))
        base = quadratic_variation(t, shift)
        eta = float(np.sqrt(base * rng.uniform(0.05, 0.5)))

        inner = solvers.anomaly_detect
        resolution = {}  # weight -> r / t of its last solve

        def recorded(t, shift, beta_reg, *args, **kwargs):
            res = inner(t, shift, beta_reg, *args, **kwargs)
            resolution[beta_reg] = res.meta["fixed_point_residual"] / res.meta["step"]
            return res

        monkeypatch.setattr(solvers, "anomaly_detect", recorded)
        runs = []
        for search in (solvers._weight_search, oracles.bisection_weight_search):
            monkeypatch.setattr(solvers, "_weight_search", search)
            resolution.clear()
            res = anomaly_detect_constrained(t, shift, eta)
            lo, hi = res.meta["bracket"]
            runs.append((res, resolution[lo] + resolution[hi], hi - lo))
        (new, eps_new, width_new), (old, eps_old, width_old) = runs

        support = np.flatnonzero(new.outliers)
        assert support.size
        np.testing.assert_array_equal(np.flatnonzero(old.outliers), support)
        for res in (new, old):
            slack = eta ** 2 * 1e-6 + 1e-9 * (1.0 + base)
            assert quadratic_variation(res.x, shift) <= eta ** 2 + slack
        assert new.meta["bisections"] <= 24 < old.meta["bisections"]
        signs = np.sign(new.outliers[support])
        tilde = tilde_shift(shift).toarray()
        u = np.linalg.pinv(tilde[np.ix_(support, support)]) @ signs
        kappa = float(np.abs(u).sum() / (signs @ u))
        tol = kappa * (eps_new + eps_old) + width_new + width_old
        assert abs(new.meta["beta_reg"] - old.meta["beta_reg"]) <= tol

    def test_bisection_warm_starts_each_weight(self, monkeypatch):
        import gsrec.solvers as solvers

        n = 300
        shift = build_knn_graph(random_features(n, 2, 1), GraphBuildSpec(k=8))
        x0 = synth_instance(shift, SyntheticSpec(n=n, l=1, rank=3,
                                                 noise_sigma=0.0), 1).x0[:, 0]
        rng = np.random.default_rng(1)
        planted = np.sort(rng.choice(n, size=6, replace=False))
        t = x0.copy()
        t[planted] += rng.choice([-1.0, 1.0], 6) * rng.uniform(3.0, 5.0, 6)
        eta = 1.5 * float(np.sqrt(quadratic_variation(x0, shift)))

        inner = solvers.anomaly_detect
        starts = []

        def recorded(*args, **kwargs):
            starts.append(kwargs.get("e0"))
            return inner(*args, **kwargs)

        monkeypatch.setattr(solvers, "anomaly_detect", recorded)
        res = anomaly_detect_constrained(t, shift, eta)
        assert len(starts) > 1
        assert starts[0] is None
        assert all(e0 is not None for e0 in starts[1:])
        support = np.flatnonzero(np.abs(res.outliers) > 1e-6)
        np.testing.assert_array_equal(support, planted)
        assert res.converged
        e_max = float(np.max(np.abs(res.outliers)))
        assert res.meta["stationarity"] <= 1e-6 * (1.0 + e_max)

        def cold_started(*args, **kwargs):
            kwargs["e0"] = None
            return inner(*args, **kwargs)

        monkeypatch.setattr(solvers, "anomaly_detect", cold_started)
        cold = anomaly_detect_constrained(t, shift, eta)
        assert res.iterations < cold.iterations


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def polish_case(kind, seed, n=60):
    """(e, basis) of one kind of l1 polish input."""
    rng = np.random.default_rng(seed)
    e = rng.normal(size=n) * rng.uniform(0.1, 3.0)
    if kind == "one column":
        basis = rng.normal(size=(n, 1))
        basis /= np.linalg.norm(basis)
    elif kind == "two columns":
        basis = np.linalg.qr(rng.normal(size=(n, 2)))[0]
    elif kind == "zero entries":
        v = rng.normal(size=n)
        v[rng.choice(n, size=n // 3, replace=False)] = 0.0
        v[rng.choice(n, size=3, replace=False)] = 1e-15
        basis = (v / np.linalg.norm(v))[:, None]
    elif kind == "repeated breakpoints":
        e = np.where(rng.uniform(size=n) < 0.1, rng.choice([-2.0, 1.0, 3.0], n), 0.0)
        e[rng.choice(n, size=3, replace=False)] = 1.0
        basis = np.stack([np.full(n, n ** -0.5),
                          np.repeat([1.0, -1.0], n // 2) * n ** -0.5], axis=1)
    elif kind == "flat minimum":
        # sum |e_i + c| with half the e_i at a and half at b is flat between
        # -a and -b, so two breakpoints tie exactly and the first one wins
        a, b = rng.choice(np.arange(1.0, 9.0), size=2, replace=False)
        e = rng.permutation(np.repeat([a, b], n // 2)) * 2.0 ** int(rng.integers(-3, 4))
        basis = np.ones((n, 1))
    elif kind == "already optimal":
        # one line search lands on the optimum along its only direction
        basis = rng.normal(size=(n, 1))
        basis /= np.linalg.norm(basis)
        e = oracles.l1_polish_oracle(e, basis)
    elif kind == "empty basis":
        basis = np.zeros((n, 0))
    return e, basis


class TestL1Polish:
    @pytest.mark.parametrize("kind", ["one column", "two columns", "zero entries",
                                      "repeated breakpoints", "flat minimum",
                                      "already optimal", "empty basis"])
    def test_bitwise_equal_to_enumeration(self, kind):
        from gsrec.solvers import _l1_polish_along

        for seed in range(20):
            e, basis = polish_case(kind, seed)
            before = e.copy()
            out = _l1_polish_along(e, basis)
            assert_bitwise(out, oracles.l1_polish_oracle(e, basis))
            assert_bitwise(e, before)
            if kind == "already optimal":
                assert_bitwise(out, e)

    def test_memory_is_linear(self):
        import tracemalloc

        from gsrec.solvers import _l1_polish_along

        n = 5000
        rng = np.random.default_rng(7)
        e = np.where(rng.uniform(size=n) < 0.02, rng.normal(size=n) * 4.0, 0.0) + 0.3
        basis = np.full((n, 1), n ** -0.5)
        tracemalloc.start()
        try:
            out = _l1_polish_along(e, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (n, n) cost matrix of a direct enumeration would need 200 MB
        assert peak < 4e6
        assert np.abs(out).sum() < np.abs(e).sum()


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
                                                   outliers_per_column=10), 6)
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
        entry = spec.solvers[0]
        res = cell.solve(entry, entry.config)
        ref = cell.solve(entry, entry.config.replace(tol_outer=1e-14,
                                                     max_outer=20000))
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
        eye = normalize_shift(GraphShift(np.eye(6)))
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
    d = X - shift.weights @ X
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
                                               outliers_per_column=1), 4)
    return shift, inst.observed, sample_mask(inst.observed.shape, 0.6, 5)


@pytest.mark.parametrize("case", [
    _trace_gtvm, _trace_gtvr, _trace_rgtvr, _trace_gmcm, _trace_gmcr,
    _trace_gsr_admm, _trace_anomaly_detect,
], ids=lambda case: case.__name__.removeprefix("_trace_"))
def test_last_trace_entry_is_model_objective(case, trace_instance):
    res, objective = case(*trace_instance)
    assert res.objective_trace[-1] == pytest.approx(objective, rel=1e-9)
