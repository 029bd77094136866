import numpy as np
import pytest

import gsrec.experiments
from gsrec import (
    ConfigError,
    DimensionMismatch,
    EmptyGrid,
    EmptyMask,
    ExperimentSpec,
    GraphShift,
    NonBinaryInput,
    NonSymmetricLaplacian,
    SolverConfig,
    anomaly_detect,
    combine_opinions,
    cross_validate,
    evaluate,
    laplacian_baseline,
    normalize_shift,
    run_experiment,
    sample_mask,
    solve_recovery,
    synth_opinion_instance,
    threshold_labels,
)
from oracles import quadratic_inpaint_oracle


def blob_shift(n, seed):
    rng = np.random.default_rng(seed)
    w = np.abs(rng.normal(size=(n, n)))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return normalize_shift(GraphShift(w))


def stochastic_shift(n, seed):
    """Row-stochastic weights, so constant signals have zero variation."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(w, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    return normalize_shift(GraphShift(w))


def path_laplacian(n):
    lap = np.zeros((n, n))
    for i in range(n - 1):
        lap[i, i] += 1.0
        lap[i + 1, i + 1] += 1.0
        lap[i, i + 1] -= 1.0
        lap[i + 1, i] -= 1.0
    return lap


class TestThresholdLabels:
    def test_signs_map_to_labels(self):
        out = threshold_labels(np.array([2.5, -0.1, 1e-12]))
        np.testing.assert_array_equal(out, [1.0, -1.0, 1.0])

    def test_exact_zero_goes_negative(self):
        assert threshold_labels(np.array([0.0]))[0] == -1.0


class TestEvaluate:
    def test_perfect_estimate(self):
        x = np.array([1.0, -1.0, 1.0])
        rep = evaluate(x, x, "classification")
        assert rep.acc == 1.0 and rep.mse == 0.0
        assert rep.rmse == 0.0 and rep.mae == 0.0

    def test_one_mismatch_of_two(self):
        rep = evaluate(np.array([1.0, -1.0]), np.array([1.0, 1.0]),
                       "classification")
        assert rep.acc == 0.5

    def test_hand_arithmetic(self):
        rep = evaluate(np.zeros(2), np.array([3.0, 4.0]))
        assert abs(rep.mse - 12.5) <= 1e-12
        assert abs(rep.rmse - np.sqrt(12.5)) <= 1e-12
        assert abs(rep.mae - 3.5) <= 1e-12

    def test_rmse_and_mae_relations_hold(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(1, 40)
            truth = rng.normal(size=n)
            est = rng.normal(size=n)
            rep = evaluate(truth, est)
            assert abs(rep.rmse ** 2 - rep.mse) <= 1e-12 * (1.0 + rep.mse)
            assert rep.mae <= rep.rmse + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate(np.zeros(3), np.zeros(4))

    def test_empty_selection(self):
        with pytest.raises(EmptyMask):
            evaluate(np.zeros(0), np.zeros(0))

    def test_unknown_score_mode(self):
        with pytest.raises(ConfigError):
            evaluate(np.zeros(2), np.zeros(2), "ranking")


class TestLaplacianBaseline:
    def test_zero_alpha_full_mask_returns_signal(self):
        t = np.array([1.0, -2.0, 0.5, 3.0])
        res = laplacian_baseline(t, np.ones(4, dtype=bool),
                                 path_laplacian(4), 0.0)
        np.testing.assert_allclose(res.x, t, atol=1e-12)

    def test_constant_signal_fixed_for_any_alpha(self):
        lap = path_laplacian(5)
        t = np.full(5, 2.5)
        mask = np.array([True, False, True, False, True])
        for alpha in (0.1, 1.0, 50.0):
            res = laplacian_baseline(t, mask, lap, alpha)
            np.testing.assert_allclose(res.x, t, atol=1e-9)

    def test_masked_path_matches_quadratic_oracle(self):
        lap = path_laplacian(3)
        t = np.array([2.0, 0.0, 5.0])
        mask = np.array([True, False, True])
        res = laplacian_baseline(t, mask, lap, 0.7)
        x_ref, _ = quadratic_inpaint_oracle(t, mask, None, 0.7, laplacian=lap)
        np.testing.assert_allclose(res.x, x_ref, atol=1e-8)

    def test_asymmetric_laplacian_rejected(self):
        lap = path_laplacian(3)
        lap[0, 1] = -0.5
        with pytest.raises(NonSymmetricLaplacian):
            laplacian_baseline(np.zeros(3), np.ones(3, dtype=bool), lap, 1.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError):
            laplacian_baseline(np.zeros(3), np.ones(3, dtype=bool),
                               path_laplacian(3), -1.0)

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyMask):
            laplacian_baseline(np.zeros(3), np.zeros(3, dtype=bool),
                               path_laplacian(3), 1.0)


class TestCrossValidate:
    def test_grid_of_one(self):
        shift = stochastic_shift(15, 1)
        t = np.full(15, 3.0)
        mask = sample_mask((15,), 0.8, 2)
        only = SolverConfig(alpha=1.0)
        choice = cross_validate("gtvr", t, mask, shift, [only], 0)
        assert choice.index == 0 and choice.config == only
        assert len(choice.val_mse) == 1

    def test_zero_validation_error_wins(self):
        shift = stochastic_shift(20, 3)
        t = np.full(20, 3.0)
        mask = sample_mask((20,), 0.7, 4)
        # a constant signal is recovered exactly at a sane weight; with the
        # smoothing off the held-out entries stay at zero
        grid = [SolverConfig(alpha=0.0), SolverConfig(alpha=1.0)]
        choice = cross_validate("gtvr", t, mask, shift, grid, 5)
        assert choice.index == 1
        assert choice.val_mse[1] < 1e-6 < choice.val_mse[0]

    def test_exact_tie_resolves_to_first(self):
        shift = stochastic_shift(15, 6)
        t = np.full(15, 1.0)
        mask = sample_mask((15,), 0.8, 7)
        grid = [SolverConfig(alpha=2.0), SolverConfig(alpha=2.0)]
        choice = cross_validate("gtvr", t, mask, shift, grid, 8)
        assert choice.index == 0
        assert choice.val_mse[0] == choice.val_mse[1]

    def test_deterministic_selection(self):
        rng = np.random.default_rng(9)
        shift = blob_shift(18, 10)
        t = rng.normal(size=18)
        mask = sample_mask((18,), 0.7, 11)
        grid = [SolverConfig(alpha=a) for a in (0.01, 0.1, 1.0, 10.0)]
        a = cross_validate("gtvr", t, mask, shift, grid, 12)
        b = cross_validate("gtvr", t, mask, shift, grid, 12)
        assert a.index == b.index and a.val_mse == b.val_mse

    def test_split_sizes(self):
        shift = blob_shift(20, 13)
        mask = np.ones(20, dtype=bool)
        choice = cross_validate("gtvr", np.ones(20), mask, shift,
                                [SolverConfig()], 14)
        assert choice.train_count == 16 and choice.val_count == 4

    def test_empty_grid(self):
        shift = blob_shift(10, 15)
        with pytest.raises(EmptyGrid):
            cross_validate("gtvr", np.ones(10), np.ones(10, dtype=bool),
                           shift, [], 0)


class TestCombineOpinions:
    def test_unanimous_experts_win_under_every_method(self):
        shift, truth, opinions, _ = synth_opinion_instance(
            20, 7, 1.0, 1.0, 0.0, 3, 0)
        assert np.array_equal(opinions, np.tile(truth[:, None], (1, 7)))
        cfg = SolverConfig(alpha=0.05, beta=0.01)
        for method in ("avg", "gtvr-denoise", "gmcr-denoise"):
            out = combine_opinions(opinions, method, shift, cfg)
            np.testing.assert_array_equal(out, truth)

    def test_majority_row(self):
        opinions = np.array([[1.0, 1.0, -1.0],
                             [-1.0, -1.0, 1.0]])
        out = combine_opinions(opinions, "avg")
        np.testing.assert_array_equal(out, [1.0, -1.0])

    def test_tied_row_maps_to_plus_one(self):
        opinions = np.array([[1.0, -1.0]])
        assert combine_opinions(opinions, "avg")[0] == 1.0

    def test_denoising_beats_averaging_on_easy_hard_instances(self):
        cfg = SolverConfig(alpha=5.0, beta=1.0)
        wins = 0
        for seed in range(10):
            shift, truth, opinions, _ = synth_opinion_instance(
                200, 20, 0.9, 0.3, 0.25, 8, seed)
            acc_avg = evaluate(truth, combine_opinions(opinions, "avg"),
                               "classification").acc
            acc_den = evaluate(truth,
                               combine_opinions(opinions, "gmcr-denoise",
                                                shift, cfg),
                               "classification").acc
            wins += acc_den >= acc_avg
        assert wins >= 8

    def test_non_binary_rejected(self):
        with pytest.raises(NonBinaryInput):
            combine_opinions(np.array([[0.5, 1.0]]), "avg")

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            combine_opinions(np.array([[1.0, -1.0]]), "median")

    def test_denoise_needs_shift(self):
        with pytest.raises(ConfigError):
            combine_opinions(np.array([[1.0, -1.0]]), "gtvr-denoise")

    def test_shift_size_mismatch(self):
        shift = blob_shift(5, 20)
        with pytest.raises(DimensionMismatch):
            combine_opinions(np.ones((4, 3)), "gtvr-denoise", shift)


class TestSolveRecovery:
    def test_vector_method_squeezes_single_column(self):
        rng = np.random.default_rng(21)
        shift = blob_shift(12, 22)
        t = rng.normal(size=12)
        mask = sample_mask((12,), 0.7, 23)
        flat = solve_recovery("gtvr", t, mask, shift, SolverConfig(alpha=1.0))
        lifted = solve_recovery("gtvr", t[:, None], mask[:, None], shift,
                                SolverConfig(alpha=1.0))
        np.testing.assert_array_equal(flat.x, lifted.x)

    def test_vector_method_rejects_wide_matrix(self):
        shift = blob_shift(8, 24)
        with pytest.raises(ConfigError):
            solve_recovery("gtvr", np.ones((8, 2)), np.ones((8, 2), dtype=bool),
                           shift)

    def test_matrix_method_lifts_vector(self):
        rng = np.random.default_rng(25)
        shift = blob_shift(10, 26)
        t = rng.normal(size=10)
        mask = sample_mask((10,), 0.8, 27)
        res = solve_recovery("admm", t, mask, shift,
                             SolverConfig(alpha=1.0, max_outer=200))
        assert res.x.shape == (10, 1)

    def test_anomaly_dispatch_matches_direct_call(self):
        shift = blob_shift(12, 28)
        t = np.zeros(12)
        t[3] = 6.0
        cfg = SolverConfig(gamma=0.8)
        via = solve_recovery("anomaly", t, None, shift, cfg)
        direct = anomaly_detect(t, shift, 0.8, cfg)
        np.testing.assert_array_equal(via.outliers, direct.outliers)

    def test_mask_required_for_recovery(self):
        shift = blob_shift(6, 29)
        with pytest.raises(ConfigError):
            solve_recovery("gtvm", np.ones(6), None, shift)

    def test_constrained_detect_needs_eta(self):
        shift = blob_shift(6, 30)
        with pytest.raises(ConfigError):
            solve_recovery("anomaly-constrained", np.ones(6), None, shift)

    def test_unknown_method(self):
        shift = blob_shift(6, 31)
        with pytest.raises(ConfigError):
            solve_recovery("magic", np.ones(6), np.ones(6, dtype=bool), shift)


class TestExperimentSpec:
    def base(self):
        return {
            "task": "inpaint",
            "seed": 1,
            "trials": 2,
            "ratios": [0.5],
            "graph": {"kind": "knn", "n": 20, "dim": 2, "k": 4},
            "signal": {"synthetic": {"l": 1, "rank": 3}},
            "solvers": [{"method": "gtvm"}],
        }

    def test_valid_description(self):
        spec = ExperimentSpec.from_dict(self.base())
        assert spec.task == "inpaint" and spec.trials == 2
        assert spec.ratios == (0.5,)
        assert spec.solvers[0].selection_mode == "fixed"

    def test_combine_opinions_alias(self):
        raw = {
            "task": "combine-opinions",
            "signal": {"opinions": {"n": 20, "experts": 3}},
            "solvers": [{"method": "avg"}],
        }
        assert ExperimentSpec.from_dict(raw).task == "combine"

    def test_unknown_keys_rejected(self):
        raw = self.base()
        raw["verbose"] = True
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)

    def test_unknown_task(self):
        raw = self.base()
        raw["task"] = "forecast"
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)

    def test_nonpositive_trials(self):
        raw = self.base()
        raw["trials"] = 0
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)

    def test_ratio_out_of_range(self):
        raw = self.base()
        raw["ratios"] = [0.5, 1.2]
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)

    def test_detect_rejects_ratio_sweep(self):
        raw = {
            "task": "detect",
            "ratios": [0.5],
            "graph": {"kind": "knn", "n": 20, "dim": 2, "k": 4},
            "signal": {"synthetic": {"l": 1, "outliers_per_column": 1,
                                     "outlier_lo": 5.0, "outlier_hi": 6.0}},
            "solvers": [{"method": "anomaly"}],
        }
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)

    def test_detect_rejects_corrupt_block(self):
        raw = {
            "task": "detect",
            "graph": {"kind": "knn", "n": 20, "dim": 2, "k": 4},
            "signal": {"synthetic": {"l": 1, "outliers_per_column": 1,
                                     "outlier_lo": 5.0, "outlier_hi": 6.0}},
            "corrupt": {"fraction": 0.1},
            "solvers": [{"method": "anomaly"}],
        }
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)

    def test_constrained_detect_needs_eta(self):
        raw = {
            "task": "detect",
            "graph": {"kind": "knn", "n": 20, "dim": 2, "k": 4},
            "signal": {"synthetic": {"l": 1, "outliers_per_column": 1,
                                     "outlier_lo": 5.0, "outlier_hi": 6.0}},
            "solvers": [{"method": "anomaly-constrained"}],
        }
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)

    def test_grid_without_ground_truth_needs_oracle_flag(self):
        raw = {
            "task": "combine-opinions",
            "signal": {"opinions": {"n": 20, "experts": 3}},
            "solvers": [{"method": "avg",
                         "grid": [{"alpha": 1.0}, {"alpha": 2.0}]}],
        }
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)
        raw["oracle_select"] = True
        assert ExperimentSpec.from_dict(raw).oracle_select

    def test_duplicate_solver_names(self):
        raw = self.base()
        raw["solvers"] = [{"method": "gtvm"}, {"method": "gtvm"}]
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)

    def test_method_task_mismatch(self):
        raw = self.base()
        raw["solvers"] = [{"method": "anomaly"}]
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)

    def test_hidden_eval_is_the_recovery_default(self):
        assert ExperimentSpec.from_dict(self.base()).eval_on == "hidden"

    @pytest.mark.parametrize("task, key, value", [
        ("inpaint", "graph", {"kind": "cycle", "n": 30, "k": 4}),
        ("inpaint", "graph", {"kind": "file", "path": "graph.csv", "k": 4}),
        ("inpaint", "signal", {"synthetic": {"rank": 3}, "typo": 1}),
        ("inpaint", "signal", {"synthetic": {"rank": 3},
                               "opinions": {"n": 20}}),
        # a bundle brings its own graph, so the base's graph block is unread
        ("complete", "signal", {"bundle": "bundle-dir"}),
        ("detect", "signal", {"bundle": "bundle-dir"}),
        ("detect", "score", "regression"),
        ("detect", "eval_on", "hidden"),
        ("combine", "graph", {"kind": "cycle", "n": 20}),
        ("combine", "signal", {"synthetic": {"rank": 3}}),
        ("combine", "score", "regression"),
        ("combine", "eval_on", "hidden"),
    ])
    def test_keys_the_task_never_reads_rejected(self, task, key, value):
        raw = {
            "inpaint": self.base(),
            "complete": dict(self.base(), task="complete"),
            "detect": {
                "task": "detect",
                "graph": {"kind": "knn", "n": 20, "dim": 2, "k": 4},
                "signal": {"synthetic": {"l": 1, "outliers_per_column": 1,
                                         "outlier_lo": 5.0, "outlier_hi": 6.0}},
                "solvers": [{"method": "anomaly"}],
            },
            "combine": {
                "task": "combine",
                "signal": {"opinions": {"n": 20, "experts": 3}},
                "solvers": [{"method": "avg"}],
            },
        }[task]
        ExperimentSpec.from_dict(raw)
        raw[key] = value
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)

    def test_description_errors_come_before_the_graph_build(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("graph built before the description was checked")

        monkeypatch.setattr(gsrec.experiments, "build_knn_graph", no_build)
        raw = self.base()
        raw["graph"] = {"kind": "knn", "n": 2000, "k": 8}
        raw["signal"] = {"synthetic": {"rank": 3, "noise": 0.1}}
        with pytest.raises(ConfigError, match="noise"):
            ExperimentSpec.from_dict(raw)


class TestRunExperiment:
    def test_full_information_recovers_perfectly(self, tmp_path):
        raw = {
            "task": "inpaint",
            "seed": 2,
            "trials": 1,
            "ratios": [1.0],
            "eval_on": "all",
            "graph": {"kind": "knn", "n": 20, "dim": 2, "k": 4},
            "signal": {"synthetic": {"l": 1, "rank": 3}},
            "solvers": [{"method": "gtvm"}],
        }
        report = run_experiment(ExperimentSpec.from_dict(raw), tmp_path)
        agg = report["aggregates"][0]
        assert agg["mean_mse"] <= 1e-12
        assert report["all_converged"]

    def test_repeat_run_is_byte_identical(self, tmp_path):
        raw = {
            "task": "inpaint",
            "seed": 3,
            "trials": 2,
            "ratios": [0.5, 0.8],
            "graph": {"kind": "knn", "n": 20, "dim": 2, "k": 4},
            "signal": {"synthetic": {"l": 1, "rank": 3, "noise_sigma": 0.1}},
            "solvers": [{"method": "gtvm"},
                        {"name": "gtvr-cv", "method": "gtvr",
                         "grid": [{"alpha": 0.1}, {"alpha": 1.0}]}],
        }
        spec = ExperimentSpec.from_dict(raw)
        run_experiment(spec, tmp_path / "a")
        run_experiment(spec, tmp_path / "b")
        first = (tmp_path / "a" / "trials.csv").read_bytes()
        second = (tmp_path / "b" / "trials.csv").read_bytes()
        assert first == second

    def test_trials_csv_shape(self, tmp_path):
        raw = {
            "task": "inpaint",
            "seed": 4,
            "trials": 2,
            "ratios": [0.6],
            "graph": {"kind": "knn", "n": 15, "dim": 2, "k": 3},
            "signal": {"synthetic": {"l": 1, "rank": 3}},
            "solvers": [{"method": "gtvm"}, {"method": "gtvr"}],
        }
        run_experiment(ExperimentSpec.from_dict(raw), tmp_path)
        lines = (tmp_path / "trials.csv").read_text().splitlines()
        assert lines[0] == ("task,method,ratio,trial,seed,acc,mse,rmse,mae,"
                            "iterations,converged")
        assert len(lines) == 1 + 2 * 2
        for line in lines[1:]:
            assert len(line.split(",")) == 11

    def test_robust_method_beats_plain_under_corruption(self, tmp_path):
        raw = {
            "task": "robust-inpaint",
            "seed": 7,
            "trials": 2,
            "ratios": [0.5],
            "graph": {"kind": "knn", "n": 30, "dim": 2, "k": 5},
            "signal": {"synthetic": {"l": 1, "rank": 4}},
            "corrupt": {"fraction": 1.0 / 3.0, "mode": "regression"},
            "solvers": [{"method": "gtvr", "config": {"alpha": 1.0}},
                        {"method": "rgtvr",
                         "config": {"alpha": 1.0, "gamma": 0.5}}],
        }
        report = run_experiment(ExperimentSpec.from_dict(raw), tmp_path)
        mse = {a["method"]: a["mean_mse"] for a in report["aggregates"]}
        assert mse["rgtvr"] < mse["gtvr"]

    def test_detect_task_reports_support_accuracy(self, tmp_path):
        raw = {
            "task": "detect",
            "seed": 5,
            "trials": 2,
            "graph": {"kind": "knn", "n": 40, "dim": 2, "k": 6},
            "signal": {"synthetic": {"l": 1, "rank": 4,
                                     "outliers_per_column": 2,
                                     "outlier_lo": 8.0, "outlier_hi": 12.0}},
            "solvers": [{"method": "anomaly", "config": {"gamma": 0.8}}],
        }
        report = run_experiment(ExperimentSpec.from_dict(raw), tmp_path)
        agg = report["aggregates"][0]
        assert agg["mean_acc"] == 1.0

    def test_combine_task_prefers_denoising(self, tmp_path):
        raw = {
            "task": "combine-opinions",
            "seed": 6,
            "trials": 2,
            "signal": {"opinions": {"n": 60, "experts": 9, "easy_acc": 0.9,
                                    "hard_acc": 0.3, "hard_fraction": 0.2,
                                    "k": 5}},
            "solvers": [{"method": "avg"},
                        {"method": "gmcr-denoise",
                         "config": {"alpha": 5.0, "beta": 1.0}}],
            "score": "classification",
        }
        report = run_experiment(ExperimentSpec.from_dict(raw), tmp_path)
        acc = {a["method"]: a["mean_acc"] for a in report["aggregates"]}
        assert acc["gmcr-denoise"] > acc["avg"]

    def test_oracle_selection_mode_recorded(self, tmp_path):
        raw = {
            "task": "detect",
            "seed": 8,
            "trials": 1,
            "oracle_select": True,
            "graph": {"kind": "knn", "n": 30, "dim": 2, "k": 5},
            "signal": {"synthetic": {"l": 1, "rank": 4,
                                     "outliers_per_column": 1,
                                     "outlier_lo": 8.0, "outlier_hi": 12.0}},
            "solvers": [{"name": "anomaly-grid", "method": "anomaly",
                         "grid": [{"gamma": 0.4}, {"gamma": 0.8}]}],
        }
        report = run_experiment(ExperimentSpec.from_dict(raw), tmp_path)
        assert report["selection"]["anomaly-grid"] == "oracle"

    def test_report_carries_versions_and_echo(self, tmp_path):
        raw = {
            "task": "inpaint",
            "seed": 9,
            "trials": 1,
            "ratios": [0.7],
            "graph": {"kind": "knn", "n": 15, "dim": 2, "k": 3},
            "signal": {"synthetic": {"l": 1, "rank": 3}},
            "solvers": [{"method": "gtvm"}],
        }
        report = run_experiment(ExperimentSpec.from_dict(raw), tmp_path)
        assert report["spec"] == raw
        assert set(report["versions"]) >= {"python", "numpy", "scipy"}
        assert (tmp_path / "report.json").exists()

    def test_full_ratio_with_hidden_eval_fails(self, tmp_path):
        raw = {
            "task": "inpaint",
            "seed": 10,
            "trials": 1,
            "ratios": [1.0],
            "graph": {"kind": "knn", "n": 15, "dim": 2, "k": 3},
            "signal": {"synthetic": {"l": 1, "rank": 3}},
            "solvers": [{"method": "gtvm"}],
        }
        with pytest.raises(EmptyMask):
            run_experiment(ExperimentSpec.from_dict(raw), tmp_path)
