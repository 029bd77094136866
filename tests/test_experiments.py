import json
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

import gsrec.experiments
from gsrec import (
    ConfigError,
    DimensionMismatch,
    EmptyAccessibleSet,
    EmptyGrid,
    EmptyMask,
    ExperimentSpec,
    GraphShift,
    Infeasible,
    NonBinaryInput,
    NonSymmetricLaplacian,
    RecoveryResult,
    SolverConfig,
    SyntheticInstance,
    SyntheticSpec,
    anomaly_detect,
    combine_opinions,
    cross_validate,
    cycle_shift,
    evaluate,
    laplacian_baseline,
    run_experiment,
    sample_mask,
    save_bundle,
    solve_recovery,
    synth_opinion_instance,
    threshold_labels,
)
from gsrec.cli import main
from gsrec.experiments import METHODS, Opinions, SolverEntry, _Cell, _echo, _solve_row
from oracles import quadratic_inpaint_oracle


def blob_shift(n, seed):
    rng = np.random.default_rng(seed)
    w = np.abs(rng.normal(size=(n, n)))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return GraphShift(w)


def stochastic_shift(n, seed):
    """Row-stochastic weights, so constant signals have zero variation."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(w, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    return GraphShift(w)


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
        # as gtvr rejects the same mask
        with pytest.raises(EmptyAccessibleSet):
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

    @pytest.mark.parametrize("method", ["anomaly", "avg"])
    def test_a_method_that_ignores_the_mask_is_refused(self, method):
        # anomaly fits every node, so a held-out node would never be held out
        grid = [SolverConfig(gamma=0.5), SolverConfig(gamma=2.0)]
        with pytest.raises(ConfigError, match=f"method '{method}' ignores the mask"):
            cross_validate(method, np.sin(np.arange(12.0)), np.ones(12, dtype=bool),
                           cycle_shift(12), grid, 0)


class TestCombineOpinions:
    def test_unanimous_experts_win_under_every_method(self):
        shift, truth, opinions, _ = synth_opinion_instance(
            20, 7, 1.0, 1.0, 0.0, 3, 0)
        assert np.array_equal(opinions, np.tile(truth[:, None], (1, 7)))
        cfg = SolverConfig(alpha=0.05, beta=0.01)
        for method in ("avg", "gtvr-denoise", "gmcr-denoise"):
            out = combine_opinions(opinions, method, shift, cfg).x
            np.testing.assert_array_equal(out, truth)

    def test_majority_row(self):
        opinions = np.array([[1.0, 1.0, -1.0],
                             [-1.0, -1.0, 1.0]])
        out = combine_opinions(opinions, "avg").x
        np.testing.assert_array_equal(out, [1.0, -1.0])

    def test_tied_row_maps_to_plus_one(self):
        opinions = np.array([[1.0, -1.0]])
        assert combine_opinions(opinions, "avg").x[0] == 1.0

    def test_denoising_beats_averaging_on_easy_hard_instances(self):
        cfg = SolverConfig(alpha=5.0, beta=1.0)
        wins = 0
        for seed in range(10):
            shift, truth, opinions, _ = synth_opinion_instance(
                200, 20, 0.9, 0.3, 0.25, 8, seed)
            acc_avg = evaluate(truth, combine_opinions(opinions, "avg").x,
                               "classification").acc
            acc_den = evaluate(truth,
                               combine_opinions(opinions, "gmcr-denoise",
                                                shift, cfg).x,
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


class TestOraclePick:
    def test_a_non_finite_score_loses_to_any_finite_one(self, monkeypatch):
        # NaN compares false both ways, so unranked it would keep the grid's
        # first entry
        estimates = {1.0: np.array([np.nan, 0.0]), 2.0: np.array([1.0, 0.0])}
        monkeypatch.setattr(gsrec.experiments, "solve_recovery",
                            lambda method, observed, mask, shift, config, eta_smooth:
                            RecoveryResult(x=estimates[config.alpha]))
        spec = ExperimentSpec.from_dict(dict(_description("inpaint"), oracle_select=True))
        entry = SolverEntry("gtvr", grid=(SolverConfig(alpha=1.0), SolverConfig(alpha=2.0)))
        cell = _Cell(1.0, 0, 0, None, np.zeros(2), np.ones(2, dtype=bool), np.zeros(2))
        result, report = _solve_row(spec, entry, cell)
        assert result.x[0] == 1.0 and report.mse == 0.5


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

    def test_matrix_method_keeps_vector_shape(self):
        rng = np.random.default_rng(25)
        shift = blob_shift(10, 26)
        t = rng.normal(size=10)
        mask = sample_mask((10,), 0.8, 27)
        cfg = SolverConfig(alpha=1.0, max_outer=200)
        res = solve_recovery("admm", t, mask, shift, cfg)
        assert res.x.shape == (10,)
        column = solve_recovery("admm", t[:, None], mask[:, None], shift, cfg)
        np.testing.assert_array_equal(res.x, column.x[:, 0])

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

    def test_unknown_method_is_named_before_a_missing_mask(self):
        with pytest.raises(ConfigError, match="unknown recovery method 'magic'"):
            solve_recovery("magic", np.ones(4), None, cycle_shift(4))


# a base value of every SolverConfig field and of eta_smooth, and a move of each
_BASE = dict(alpha=1.0, beta=0.5, gamma=0.5, penalty=1.0, tol_outer=1e-8,
             max_outer=2000, eta_smooth=0.5)
_MOVES = dict(alpha=2.5, beta=1.5, gamma=1.5, penalty=3.0, tol_outer=1e-2,
              max_outer=2, eta_smooth=0.25)


@pytest.mark.parametrize("method", METHODS)
def test_reads_lists_exactly_the_settings_the_method_reads(method):
    # moving a setting the row does not list leaves x and iterations
    # bit-identical; moving one it lists changes one of them or raises
    assert set(_BASE) == {f.name for f in fields(SolverConfig)} | {"eta_smooth"}
    assert set(METHODS[method].reads) <= set(_BASE)
    rng = np.random.default_rng(0)
    T = rng.normal(size=(8, 3))
    T[3, 0] += 4.0
    accessible = rng.uniform(size=(8, 3)) < 0.7
    opinions = np.where(rng.uniform(size=(8, 3)) < 0.5, 1.0, -1.0)
    observed, mask = {"vector": (T[:, 0], accessible[:, 0]), "matrix": (T, accessible),
                      "detect": (T[:, 0], None),
                      "opinions": (opinions, None)}[METHODS[method].kind]

    def solve(name=None):
        settings = dict(_BASE, **({name: _MOVES[name]} if name else {}))
        eta_smooth = settings.pop("eta_smooth")
        result = solve_recovery(method, observed, mask, cycle_shift(8),
                                SolverConfig(**settings), eta_smooth)
        return result.x, result.iterations

    x, iterations = solve()
    for name in _MOVES:
        if name not in METHODS[method].reads:
            moved_x, moved_iterations = solve(name)
            np.testing.assert_array_equal(moved_x, x, err_msg=name)
            assert moved_iterations == iterations, name
            continue
        try:
            moved_x, moved_iterations = solve(name)
        except Infeasible:
            continue
        assert moved_iterations != iterations or not np.array_equal(moved_x, x), name


def _description(task):
    """A valid description of each task, for the parse-error table to edit."""
    detect = {"l": 1, "outliers_per_column": 1, "outlier_lo": 5.0, "outlier_hi": 6.0}
    inpaint = {"task": "inpaint", "seed": 1, "trials": 2, "ratios": [0.5],
               "graph": {"kind": "knn", "n": 20, "dim": 2, "k": 4},
               "signal": {"synthetic": {"l": 1, "rank": 3}},
               "solvers": [{"method": "gtvm"}]}
    return {
        "inpaint": inpaint,
        "complete": dict(inpaint, task="complete"),
        "detect": {"task": "detect",
                   "graph": {"kind": "knn", "n": 20, "dim": 2, "k": 4},
                   "signal": {"synthetic": detect},
                   "solvers": [{"method": "anomaly"}]},
        "combine": {"task": "combine",
                    "signal": {"opinions": {"n": 20, "experts": 3}},
                    "solvers": [{"method": "avg"}]},
        # not read before the run, so the directory need not exist
        "bundle": {"task": "inpaint", "signal": {"bundle": "bundle-dir"},
                   "solvers": [{"method": "gtvm"}]},
    }[task]


# one description of every task and signal source, for re-parsing
_REPARSED = {
    "inpaint": lambda: _description("inpaint"),
    "inpaint-cycle": lambda: dict(_description("inpaint"), graph={"kind": "cycle", "n": 20}),
    "inpaint-file": lambda: dict(_description("inpaint"),
                                 graph={"kind": "file", "path": "graph.csv"}),
    "complete": lambda: _description("complete"),
    "robust-inpaint": lambda: dict(_description("inpaint"), task="robust-inpaint",
                                   corrupt={"fraction": 0.1, "mode": "regression"}),
    "detect": lambda: _description("detect"),
    "combine-opinions": lambda: dict(
        _description("combine"), task="combine-opinions", oracle_select=True,
        solvers=[{"method": "gtvr-denoise", "grid": [{"alpha": 1}, {"alpha": 2}]}]),
    "bundle": lambda: _description("bundle"),
}

_DROP = object()


def _edited(task, path, value):
    """The task's description with the entry at path set to value, or dropped."""
    raw = _description(task)
    *parents, last = path
    block = raw
    for key in parents:
        block = block[key]
    if value is _DROP:
        del block[last]
    else:
        block[last] = value
    return raw


# (task, path into the description, value, what the message must name)
PARSE_ERRORS = [
    ("inpaint", ("seed",), -1, "seed"),
    ("inpaint", ("task",), _DROP, "task"),
    ("inpaint", ("ratios",), [], "ratios"),
    ("inpaint", ("ratios",), 0.5, "ratios"),
    ("inpaint", ("solvers",), [], "solvers"),
    ("inpaint", ("solvers",), {"method": "gtvm"}, "solvers"),
    ("inpaint", ("solvers", 0), "gtvm", r"solvers\[0\]"),
    ("inpaint", ("solvers", 0, "tol"), 1e-6, r"solvers\[0\]: unknown keys \['tol'\]"),
    ("inpaint", ("solvers", 0, "name"), "", "name"),
    ("inpaint", ("solvers", 0, "name"), 3, "name"),
    ("inpaint", ("solvers", 0, "grid"), {"alpha": 1.0}, "grid"),
    ("inpaint", ("solvers", 0, "grid"), [[]], r"solvers\[0\]\.grid\[0\]"),
    ("inpaint", ("solvers", 0, "config"), [], r"solvers\[0\]\.config"),
    ("inpaint", ("solvers", 0, "config"), {"alpha": -1.0}, "alpha"),
    ("inpaint", ("solvers", 0, "config"), {"max_outer": 3.0}, "max_outer"),
    ("inpaint", ("solvers", 0, "config"), {"bogus": 1.0},
     r"solvers\[0\]\.config: unknown keys \['bogus'\]"),
    ("inpaint", ("solvers", 0, "eta_smooth"), -1.0, "eta_smooth"),
    ("inpaint", ("corrupt",), [0.1], "corrupt"),
    ("inpaint", ("corrupt",), {"rate": 0.1}, r"corrupt: unknown keys \['rate'\]"),
    ("inpaint", ("corrupt",), {"fraction": 1.5}, "corrupt: fraction"),
    ("inpaint", ("corrupt",), {"mode": "ordinal"}, "corrupt: mode"),
    ("inpaint", ("graph",), _DROP, "graph"),
    ("inpaint", ("graph",), "cycle", "graph"),
    ("inpaint", ("graph", "kind"), "grid", "graph.kind"),
    ("inpaint", ("graph",), {"kind": "cycle", "n": 1}, "n >= 2"),
    ("inpaint", ("graph",), {"kind": "file"}, "path"),
    ("inpaint", ("graph", "n"), 1, "n >= 2"),
    ("inpaint", ("graph", "dim"), 0, "dim >= 1"),
    ("inpaint", ("graph", "k"), 20, "k < n"),
    ("inpaint", ("graph", "k"), 0, "k"),
    ("inpaint", ("graph", "normalization"), "sum", "normalization"),
    ("inpaint", ("signal",), "synthetic", "signal"),
    ("bundle", ("signal", "bundle"), 3, "signal.bundle must be"),
    ("bundle", ("signal", "bundle"), "", "signal.bundle must be"),
    ("inpaint", ("signal", "synthetic"), [], "signal.synthetic"),
    ("inpaint", ("signal", "synthetic", "l"), 2, "single-column"),
    ("inpaint", ("signal", "synthetic", "recipe"), "walk", "recipe"),
    ("inpaint", ("signal", "synthetic", "rank"), 30, "rank"),
    ("inpaint", ("score",), "ranking", "score"),
    ("inpaint", ("eval_on",), "train", "eval_on"),
    ("detect", ("signal", "synthetic", "outliers_per_column"), 0, "outliers_per_column"),
    ("combine", ("ratios",), [0.5], "ratios"),
    ("combine", ("signal", "opinions", "trust"), 0.5,
     r"signal.opinions: unknown keys \['trust'\]"),
    # a value must already have its JSON type: none of these is converted
    ("inpaint", ("seed",), 2.9, "seed"),
    ("inpaint", ("seed",), "3", "seed"),
    ("inpaint", ("seed",), 2.0, "seed"),
    ("inpaint", ("seed",), True, "seed"),
    ("inpaint", ("trials",), "3", "trials"),
    ("inpaint", ("oracle_select",), "false", "oracle_select"),
    ("inpaint", ("ratios",), [True], "ratios"),
    ("inpaint", ("ratios",), ["0.5"], "ratios"),
    ("inpaint", ("corrupt",), {"fraction": True}, "corrupt.fraction"),
    ("inpaint", ("graph", "kind"), ["knn"], "graph.kind"),
    ("inpaint", ("graph", "symmetrize"), "false", "graph.symmetrize"),
    ("inpaint", ("graph", "n"), 50.9, "graph.n"),
    ("inpaint", ("graph", "k"), 4.5, "graph.k"),
    ("inpaint", ("solvers", 0, "config"), {"alpha": True}, r"config\.alpha"),
    ("complete", ("signal", "synthetic", "l"), 2.5, "signal.synthetic.l"),
    ("combine", ("signal", "opinions", "experts"), 3.7, "signal.opinions.experts"),
    # a spec's own range checks are config errors too, with keys named alike
    ("inpaint", ("signal", "synthetic", "l"), 0, "signal.synthetic"),
    ("inpaint", ("signal", "synthetic", "outliers_per_column"), 30, "signal.synthetic"),
    ("inpaint", ("signal", "synthetic", "noise"), 0.1,
     r"signal.synthetic: unknown keys \['noise'\]"),
    # opinion ranges: 1 <= k < n, experts >= 1, probabilities in [0, 1]
    ("combine", ("signal", "opinions", "n"), -4, "signal.opinions"),
    ("combine", ("signal", "opinions", "n"), 5, "k < n"),
    ("combine", ("signal", "opinions", "experts"), 0, "experts >= 1"),
    ("combine", ("signal", "opinions", "hard_fraction"), 3, "hard_fraction"),
    ("combine", ("signal", "opinions", "easy_acc"), 2, "easy_acc"),
    ("combine", ("signal", "opinions", "hard_acc"), -0.5, "hard_acc"),
    # outliers need a range to draw from, and a vector method one column
    ("inpaint", ("signal", "synthetic", "outliers_per_column"), 2,
     "signal.synthetic: outliers need outlier_hi > 0"),
    ("complete", ("signal", "synthetic", "l"), 2,
     r"solvers\[0\]: method 'gtvm' handles single signals, got signal.synthetic.l = 2"),
    # a setting moved off its default that the method does not read
    ("inpaint", ("solvers", 0), {"method": "gtvr", "config": {
        "alpha": 1, "beta": 5, "gamma": 3, "penalty": 7, "tol_outer": 1e-3}},
     r"solvers\[0\]: method 'gtvr' does not read beta, gamma, penalty, tol_outer"),
    ("inpaint", ("solvers", 0, "config"), {"alpha": 9},
     r"solvers\[0\]: method 'gtvm' does not read alpha"),
    ("inpaint", ("solvers", 0), {"method": "gtvr", "eta_smooth": 1.0},
     r"solvers\[0\]: method 'gtvr' does not read eta_smooth"),
    ("inpaint", ("solvers", 0), {"method": "gtvr", "grid": [{"alpha": 2}, {"beta": 1}]},
     r"solvers\[0\]\.grid\[1\]: method 'gtvr' does not read beta"),
]


class TestExperimentSpec:
    @pytest.mark.parametrize("task, path, value, match", PARSE_ERRORS)
    def test_parse_errors_name_the_key(self, task, path, value, match):
        ExperimentSpec.from_dict(_description(task))
        with pytest.raises(ConfigError, match=match):
            ExperimentSpec.from_dict(_edited(task, path, value))

    @pytest.mark.parametrize("task, path, value, match", [
        ("inpaint", ("seed",), 2.9, "seed"),
        ("inpaint", ("oracle_select",), "false", "oracle_select"),
        ("inpaint", ("graph", "symmetrize"), "false", "symmetrize"),
        ("inpaint", ("signal", "synthetic", "l"), 0, "signal.synthetic"),
        ("complete", ("signal", "synthetic", "l"), 2.5, "signal.synthetic.l"),
        ("combine", ("signal", "opinions", "experts"), 0, "experts"),
        ("combine", ("signal", "opinions", "hard_fraction"), 3, "hard_fraction"),
    ])
    def test_run_exits_2_naming_the_key(self, tmp_path, capsys, task, path, value,
                                        match):
        path_ = tmp_path / "experiment.json"
        path_.write_text(json.dumps(_edited(task, path, value)))
        assert main(["run", "--config", str(path_), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert re.search(match, err)

    def test_run_rejects_a_multi_column_bundle_for_inpaint(self, tmp_path, capsys):
        x0 = np.ones((12, 2))
        instance = SyntheticInstance(x0=x0, noise=np.zeros_like(x0),
                                     outliers=np.zeros_like(x0), observed=x0,
                                     spec=SyntheticSpec(n=12, l=2), seed=3)
        save_bundle(tmp_path / "b", stochastic_shift(12, 3), instance,
                    sample_mask((12, 2), 0.5, 3))
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps({"task": "inpaint",
                                    "signal": {"bundle": str(tmp_path / "b")},
                                    "solvers": [{"method": "gtvm"}]}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "single-column" in capsys.readouterr().err

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("## Experiment descriptions")[1].split("```json")[1]
        spec = ExperimentSpec.from_dict(json.loads(example.split("```")[0]))
        assert spec.task == "robust-inpaint" and spec.trials == 10

    def test_float_settings_take_json_integers_and_null_configs_default(self):
        raw = _description("inpaint")
        raw["task"] = "robust-inpaint"
        raw["ratios"] = [1]
        raw["corrupt"] = {"fraction": 0}
        raw["solvers"] = [{"method": "rgtvr", "config": None,
                           "grid": [None, {"alpha": 2, "max_outer": 5}]}]
        spec = ExperimentSpec.from_dict(raw)
        assert spec.ratios == (1.0,) and spec.corrupt.fraction == 0.0
        entry = spec.solvers[0]
        assert entry.config == entry.grid[0] == SolverConfig()
        assert entry.grid[1] == SolverConfig(alpha=2.0, max_outer=5)

    def test_null_blocks_and_settings_mean_their_defaults(self):
        raw = _edited("inpaint", ("solvers",), [{"method": "gtvr", "name": None,
                                                 "config": None, "eta_smooth": None}])
        raw.update(ratios=None, score=None, eval_on=None, corrupt=None)
        spec = ExperimentSpec.from_dict(raw)
        assert (spec.ratios, spec.score, spec.eval_on, spec.corrupt) == (
            (0.5,), "regression", "hidden", None)
        assert spec.solvers[0].name == "gtvr"
        assert spec.solvers[0].config == SolverConfig()
        raw = _edited("combine", ("signal", "opinions"), None)
        assert ExperimentSpec.from_dict(raw).signal["opinions"] == Opinions()

    def test_valid_description(self):
        spec = ExperimentSpec.from_dict(_description("inpaint"))
        assert spec.task == "inpaint" and spec.trials == 2
        assert spec.ratios == (0.5,)
        assert spec.selection_mode(spec.solvers[0]) == "fixed"

    @pytest.mark.parametrize("name", _REPARSED)
    def test_replace_reparses_a_spec_unchanged(self, name):
        # __post_init__ checks a replaced spec again: its typed blocks read as
        # they are, so the copy is the spec its edited description parses to
        raw = _REPARSED[name]()
        copied = replace(ExperimentSpec.from_dict(raw), trials=3)
        parsed = ExperimentSpec.from_dict(dict(raw, trials=3))
        assert [getattr(copied, f.name) for f in fields(copied) if f.name != "raw"] == [
            getattr(parsed, f.name) for f in fields(parsed) if f.name != "raw"]

    @pytest.mark.parametrize("name", _REPARSED)
    def test_echo_parses_to_the_spec(self, name):
        # the report echoes the spec that ran, a replaced one too, with every
        # default filled in
        spec = replace(ExperimentSpec.from_dict(_REPARSED[name]()), trials=3)
        echo = _echo(spec)
        assert echo["trials"] == 3 and "n" not in echo["signal"].get("synthetic", {})
        assert ExperimentSpec.from_dict(echo) == spec

    def test_combine_opinions_alias(self):
        raw = {
            "task": "combine-opinions",
            "signal": {"opinions": {"n": 20, "experts": 3}},
            "solvers": [{"method": "avg"}],
        }
        assert ExperimentSpec.from_dict(raw).task == "combine"

    def test_unknown_keys_rejected(self):
        raw = _description("inpaint")
        raw["verbose"] = True
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)

    def test_unknown_task(self):
        raw = _description("inpaint")
        raw["task"] = "forecast"
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)

    def test_nonpositive_trials(self):
        raw = _description("inpaint")
        raw["trials"] = 0
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)

    def test_ratio_out_of_range(self):
        raw = _description("inpaint")
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
            "solvers": [{"method": "gtvr-denoise",
                         "grid": [{"alpha": 1.0}, {"alpha": 2.0}]}],
        }
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)
        raw["oracle_select"] = True
        assert ExperimentSpec.from_dict(raw).oracle_select

    def test_duplicate_solver_names(self):
        raw = _description("inpaint")
        raw["solvers"] = [{"method": "gtvm"}, {"method": "gtvm"}]
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)

    def test_method_task_mismatch(self):
        raw = _description("inpaint")
        raw["solvers"] = [{"method": "anomaly"}]
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)

    def test_hidden_eval_is_the_recovery_default(self):
        assert ExperimentSpec.from_dict(_description("inpaint")).eval_on == "hidden"

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
        raw = _description(task)
        ExperimentSpec.from_dict(raw)
        raw[key] = value
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(raw)

    def test_description_errors_come_before_the_graph_build(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("graph built before the description was checked")

        monkeypatch.setattr(gsrec.experiments, "build_knn_graph", no_build)
        raw = _description("inpaint")
        raw["graph"] = {"kind": "knn", "n": 2000, "k": 8}
        raw["signal"] = {"synthetic": {"rank": 3, "noise": 0.1}}
        with pytest.raises(ConfigError, match="noise"):
            ExperimentSpec.from_dict(raw)

    @pytest.mark.parametrize("where, value", [
        ("ratios", ["a"]),
        ("corrupt.fraction", "a lot"),
        ("eta_smooth", "smooth"),
        ("eta_smooth", float("nan")),
    ])
    def test_non_numeric_values_are_config_errors(self, tmp_path, where, value):
        raw = _description("inpaint")
        if where == "ratios":
            raw["ratios"] = value
        elif where == "corrupt.fraction":
            raw["task"] = "robust-inpaint"
            raw["corrupt"] = {"fraction": value}
        else:
            raw["task"] = "detect"
            del raw["ratios"]
            raw["signal"] = {"synthetic": {"rank": 3, "outliers_per_column": 1,
                                           "outlier_lo": 5.0, "outlier_hi": 6.0}}
            raw["solvers"] = [{"method": "anomaly-constrained", "eta_smooth": value}]
        with pytest.raises(ConfigError, match=where):
            ExperimentSpec.from_dict(raw)
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_classification_score_on_a_synthetic_signal_rejected(self):
        raw = _description("inpaint")
        raw["task"] = "robust-inpaint"
        raw["graph"] = {"kind": "cycle", "n": 30}
        raw["score"] = "classification"
        with pytest.raises(ConfigError, match="classification"):
            ExperimentSpec.from_dict(raw)

    def test_classification_score_needs_a_signed_bundle(self, tmp_path):
        shift = stochastic_shift(12, 3)
        truth = np.where(np.arange(12) % 3 == 0, 1.0, -1.0)[:, None]
        mask = sample_mask((12, 1), 0.5, 3)

        def run(x0, name):
            instance = SyntheticInstance(x0=x0, noise=np.zeros_like(x0),
                                         outliers=np.zeros_like(x0), observed=x0,
                                         spec=SyntheticSpec(n=12), seed=3)
            save_bundle(tmp_path / name, shift, instance, mask)
            raw = {"task": "inpaint", "ratios": [0.5], "score": "classification",
                   "signal": {"bundle": str(tmp_path / name)},
                   "solvers": [{"method": "gtvr"}]}
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(raw))
            return main(["run", "--config", str(path),
                         "--out", str(tmp_path / f"{name}-out")])

        assert run(truth, "signed") == 0
        assert run(0.5 * truth, "real") == 2


class TestRunExperiment:
    def test_eigen_basis_computed_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        eigsh = scipy.sparse.linalg.eigsh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
        raw = {
            "task": "inpaint",
            "seed": 4,
            "trials": 2,
            "ratios": [0.4, 0.7],
            "graph": {"kind": "knn", "n": 25, "dim": 2, "k": 4},
            "signal": {"synthetic": {"rank": 3}},
            "solvers": [{"method": "gtvm"}],
        }
        run_experiment(ExperimentSpec.from_dict(raw), tmp_path)
        assert len(calls) == 1

    @pytest.mark.parametrize("method", ["gmcm", "gmcr", "admm"])
    @pytest.mark.parametrize("task", ["inpaint", "robust-inpaint"])
    def test_matrix_methods_on_vector_tasks(self, tmp_path, monkeypatch, task, method):
        shapes = []
        solve = gsrec.experiments.solve_recovery

        def recorded(*args, **kwargs):
            result = solve(*args, **kwargs)
            shapes.append(result.x.shape)
            return result

        monkeypatch.setattr(gsrec.experiments, "solve_recovery", recorded)
        raw = {"task": task, "seed": 1, "ratios": [0.5],
               "graph": {"kind": "cycle", "n": 30},
               "signal": {"synthetic": {"recipe": "diffusion", "noise_sigma": 0.05}},
               "solvers": [{"method": method, "config": {"beta": 0.5}}]}
        if task == "robust-inpaint":
            raw["corrupt"] = {"fraction": 0.1}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert shapes == [(30,)]

    @pytest.mark.parametrize("raw", [
        dict(_description("inpaint"), ratios=[0.4, 0.7],
             solvers=[{"method": "gtvm"}, {"method": "gmcr"}]),
        dict(_description("detect"), trials=2, solvers=[
            {"method": "anomaly", "config": {"gamma": 1.0}},
            {"method": "anomaly-constrained", "eta_smooth": 1.0}]),
        dict(_description("combine"), trials=2,
             solvers=[{"method": "avg"}, {"method": "gtvr-denoise"}]),
    ], ids=["inpaint", "detect", "combine"])
    def test_one_solve_recovery_call_per_fixed_row(self, tmp_path, monkeypatch, raw):
        calls = []
        solve = gsrec.experiments.solve_recovery

        def recorded(*args, **kwargs):
            calls.append(args[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(gsrec.experiments, "solve_recovery", recorded)
        report = run_experiment(ExperimentSpec.from_dict(raw), tmp_path)
        assert len(calls) == report["rows"] == 2 * len(raw["solvers"]) * len(
            raw.get("ratios", [1.0]))

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

    def test_combine_rows_report_the_solver_run(self, tmp_path):
        # a cut gmcr run is no converged one: its row says how far it got
        raw = {
            "task": "combine",
            "seed": 6,
            "trials": 1,
            "signal": {"opinions": {"n": 60, "experts": 9, "k": 5}},
            "solvers": [{"method": "avg"}, {"method": "gtvr-denoise"},
                        {"method": "gmcr-denoise",
                         "config": {"alpha": 5.0, "beta": 1.0, "max_outer": 5}}],
            "score": "classification",
        }
        report = run_experiment(ExperimentSpec.from_dict(raw), tmp_path)
        lines = (tmp_path / "trials.csv").read_text().splitlines()
        columns = lines[0].split(",")
        rows = [dict(zip(columns, line.split(","))) for line in lines[1:]]
        assert [[r["method"], r["iterations"], r["converged"]] for r in rows] == [
            ["avg", "1", "true"], ["gtvr-denoise", "1", "true"],
            ["gmcr-denoise", "5", "false"]]
        assert not report["all_converged"]

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
        spec = ExperimentSpec.from_dict(raw)
        report = run_experiment(spec, tmp_path)
        written = json.loads((tmp_path / "report.json").read_text())["spec"]
        assert written == report["spec"] and ExperimentSpec.from_dict(written) == spec
        assert written["graph"] == dict(raw["graph"], symmetrize=False,
                                        normalization="row")
        assert set(report["versions"]) >= {"python", "numpy", "scipy"}
        assert report["versions"]["gsrec"] == gsrec.__version__
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
