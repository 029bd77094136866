import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gsrec import (
    GraphShift,
    cycle_shift,
    load_graph,
    sample_mask,
    save_graph_dense,
    save_mask_csv,
    save_signal_csv,
    synth_opinion_instance,
)
import gsrec.cli
from gsrec.cli import build_parser, main
from gsrec.experiments import METHODS


@pytest.fixture
def graph_file(tmp_path):
    rng = np.random.default_rng(0)
    w = np.abs(rng.normal(size=(12, 12)))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    shift = GraphShift(w)
    path = tmp_path / "graph.csv"
    save_graph_dense(path, shift)
    return path


def openblas_thread_counts() -> dict[str, int]:
    """Thread count of each scipy-openblas library mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "libscipy_openblas" in line}
    except OSError:
        return {}
    counts = {}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                counts[Path(path).name] = getter()
                break
    return counts


def write_signal(tmp_path, name, values):
    path = tmp_path / name
    save_signal_csv(path, values)
    return path


class TestBuildGraph:
    def test_writes_graph_with_sidecar(self, tmp_path):
        feats = write_signal(tmp_path, "feat.csv",
                             np.random.default_rng(1).normal(size=(10, 2)))
        out = tmp_path / "g.csv"
        assert main(["build-graph", "--features", str(feats), "--k", "3",
                     "--out", str(out)]) == 0
        shift = load_graph(out)
        assert shift.n == 10 and shift.normalized

    def test_writes_an_edge_list(self, tmp_path):
        feats = write_signal(tmp_path, "feat.csv",
                             np.random.default_rng(1).normal(size=(10, 2)))
        out = tmp_path / "g.csv"
        assert main(["build-graph", "--features", str(feats), "--k", "3",
                     "--format", "edges", "--out", str(out)]) == 0
        assert json.loads(out.with_suffix(".json").read_text())["format"] == "edges"
        dense = tmp_path / "dense.csv"
        assert main(["build-graph", "--features", str(feats), "--k", "3",
                     "--out", str(dense)]) == 0
        np.testing.assert_array_equal(load_graph(out).matrix.toarray(),
                                      load_graph(dense).matrix.toarray())

    def test_missing_out_is_config_error(self, tmp_path):
        feats = write_signal(tmp_path, "feat.csv",
                             np.arange(10, dtype=float)[:, None])
        assert main(["build-graph", "--features", str(feats), "--k", "3"]) == 2

    def test_unreadable_features_is_data_error(self, tmp_path):
        assert main(["build-graph", "--features", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "g.csv")]) == 3

    def test_oversized_k_is_config_error(self, tmp_path):
        feats = write_signal(tmp_path, "feat.csv", np.zeros((4, 2)) +
                             np.arange(4)[:, None])
        assert main(["build-graph", "--features", str(feats), "--k", "9",
                     "--out", str(tmp_path / "g.csv")]) == 3


class TestSynth:
    def test_writes_bundle(self, tmp_path, graph_file):
        out = tmp_path / "bundle"
        code = main(["synth", "--graph", str(graph_file), "--l", "2",
                     "--noise-sigma", "0.1", "--ratio", "0.5",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        for name in ("graph.csv", "X0.csv", "W.csv", "E.csv", "T.csv",
                     "mask.csv", "spec.json"):
            assert (out / name).exists()


def test_synth_without_out_is_config_error(graph_file, capsys):
    assert main(["synth", "--graph", str(graph_file)]) == 2
    assert capsys.readouterr().err == "config error: synth needs --out\n"


@pytest.mark.parametrize("command", ["build-graph", "synth", "inpaint", "complete",
                                     "detect", "robust", "combine"])
def test_missing_out_is_refused_before_any_input_is_read(tmp_path, capsys, command):
    # exit 2 naming --out, not 3 for the missing file it would read first
    missing = str(tmp_path / "missing.csv")
    solve = ["--graph", missing, "--signal", missing]
    inputs = {"build-graph": ["--features", missing], "synth": ["--graph", missing],
              "detect": solve + ["--beta", "1"], "combine": ["--opinions", missing],
              **dict.fromkeys(("inpaint", "complete", "robust"),
                              solve + ["--mask", missing])}
    assert main([command, *inputs[command]]) == 2
    assert capsys.readouterr().err == f"config error: {command} needs --out\n"


@pytest.mark.parametrize("argv", [
    ["synth", "--ratio", "1.5"], ["synth", "--ratio", "0"], ["synth", "--rank", "0"],
    ["synth", "--l", "0"], ["synth", "--noise-sigma", "-1"],
    ["synth", "--outlier-lo", "3", "--outlier-hi", "1"], ["synth", "--seed", "-1"],
    ["synth", "--outliers-per-column", "2", "--outlier-lo", "0", "--outlier-hi", "0"],
    ["build-graph", "--k", "0"],
], ids=" ".join)
def test_out_of_range_flag_is_config_error(tmp_path, graph_file, capsys, argv):
    # exit 2 with a one-line message, not 1 with a traceback or 3
    inputs = {"synth": ["--graph", str(graph_file)],
              "build-graph": ["--features", str(write_signal(
                  tmp_path, "feat.csv", np.arange(10.0)[:, None]))]}
    code = main(argv[:1] + inputs[argv[0]] + argv[1:] + ["--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("argv", [
    ["build-graph", "--seed", "1"], ["build-graph", "--config", "c.json"],
    ["synth", "--config", "c.json"], ["inpaint", "--seed", "1"],
    ["complete", "--seed", "1"], ["detect", "--seed", "1"], ["robust", "--seed", "1"],
    ["combine", "--seed", "1"], ["eval", "--seed", "1"], ["eval", "--config", "c.json"],
    ["detect", "--method", "anomaly-constrained", "--eta-smooth", "1", "--beta", "1"],
    ["detect", "--beta", "1", "--eta-smooth", "1"],
    ["combine", "--method", "avg", "--graph", "g.csv"],
], ids=" ".join)
def test_flag_the_command_does_not_read_is_config_error(tmp_path, graph_file, capsys,
                                                        argv):
    # exit 2 naming the flag, where it would otherwise be silently ignored
    signal = str(write_signal(tmp_path, "t.csv", np.ones(12)))
    mask = tmp_path / "mask.csv"
    save_mask_csv(mask, np.ones(12, dtype=bool))
    inputs = {"build-graph": ["--features", signal], "synth": ["--graph", str(graph_file)],
              "detect": ["--graph", str(graph_file), "--signal", signal],
              "combine": ["--opinions", signal], "eval": ["--truth", signal,
                                                          "--estimate", signal]}
    inputs.update(dict.fromkeys(("inpaint", "complete", "robust"),
                                inputs["detect"] + ["--mask", str(mask)]))
    try:
        code = main(argv[:1] + inputs[argv[0]] + argv[1:] + ["--out", str(tmp_path / "o")])
    except SystemExit as exc:  # argparse rejects a flag the command lacks
        code = exc.code
    assert code == 2
    assert argv[-2] in capsys.readouterr().err


class TestInpaint:
    def test_end_to_end(self, tmp_path, graph_file):
        rng = np.random.default_rng(2)
        t = rng.normal(size=12)
        signal = write_signal(tmp_path, "t.csv", t)
        mask = sample_mask((12, 1), 0.7, 3)
        mask_path = tmp_path / "mask.csv"
        save_mask_csv(mask_path, mask)
        out = tmp_path / "run"
        code = main(["inpaint", "--graph", str(graph_file),
                     "--signal", str(signal), "--mask", str(mask_path),
                     "--method", "gtvr", "--out", str(out)])
        assert code == 0
        assert (out / "estimate.csv").exists()
        payload = json.loads((out / "result.json").read_text())
        assert payload["converged"] is True

    def test_broken_solver_config(self, tmp_path, graph_file):
        signal = write_signal(tmp_path, "t.csv", np.zeros(12))
        mask_path = tmp_path / "mask.csv"
        save_mask_csv(mask_path, np.ones((12, 1), dtype=bool))
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"alpha": 1.0, "wat": 3}')
        code = main(["inpaint", "--graph", str(graph_file),
                     "--signal", str(signal), "--mask", str(mask_path),
                     "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2

    @pytest.mark.parametrize("alpha, code", [(9, 2), (1.0, 0)])
    def test_setting_the_method_does_not_read_is_config_error(self, tmp_path, graph_file,
                                                              capsys, alpha, code):
        # gtvm reads no setting; alpha at its default is not set
        signal = write_signal(tmp_path, "t.csv", np.zeros(12))
        mask_path = tmp_path / "mask.csv"
        save_mask_csv(mask_path, np.ones((12, 1), dtype=bool))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": alpha}))
        assert main(["inpaint", "--graph", str(graph_file), "--signal", str(signal),
                     "--mask", str(mask_path), "--method", "gtvm", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == code
        if code == 2:
            assert "method 'gtvm' does not read alpha" in capsys.readouterr().err

    def test_bad_sidecar_node_count_is_data_error(self, tmp_path):
        graph = tmp_path / "graph.csv"
        graph.write_text("")
        graph.with_suffix(".json").write_text(json.dumps({"n": -1, "format": "edges"}))
        signal = write_signal(tmp_path, "t.csv", np.zeros(3))
        mask_path = tmp_path / "mask.csv"
        save_mask_csv(mask_path, np.ones(3, dtype=bool))
        code = main(["inpaint", "--graph", str(graph), "--signal", str(signal),
                     "--mask", str(mask_path), "--out", str(tmp_path / "run")])
        assert code == 3

    @pytest.mark.parametrize("weight, code", [(1.0, 0), (2.0, 3)])
    def test_sidecar_normalized_is_checked(self, tmp_path, capsys, weight, code):
        # a directed 3-cycle: its rows sum to the weight, which is its radius
        graph = tmp_path / "graph.csv"
        graph.write_text("".join(f"{i},{(i + 1) % 3},{weight}\n" for i in range(3)))
        graph.with_suffix(".json").write_text(json.dumps(
            {"n": 3, "normalized": True, "format": "edges"}))
        signal = write_signal(tmp_path, "t.csv", np.arange(3.0))
        mask_path = tmp_path / "mask.csv"
        save_mask_csv(mask_path, np.array([True, True, False]))
        assert main(["inpaint", "--graph", str(graph), "--signal", str(signal),
                     "--mask", str(mask_path), "--method", "gtvr",
                     "--out", str(tmp_path / "run")]) == code
        assert ("not 1" in capsys.readouterr().err) == (code == 3)


class TestComplete:
    def test_nonconvergence_exits_four_but_writes(self, tmp_path, graph_file):
        rng = np.random.default_rng(5)
        t = rng.normal(size=(12, 3))
        signal = write_signal(tmp_path, "t.csv", t)
        mask_path = tmp_path / "mask.csv"
        save_mask_csv(mask_path, sample_mask((12, 3), 0.6, 6))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 0.5, "max_outer": 1}))
        out = tmp_path / "run"
        code = main(["complete", "--graph", str(graph_file),
                     "--signal", str(signal), "--mask", str(mask_path),
                     "--method", "gmcr", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 4
        assert (out / "estimate.csv").exists()


class TestDetect:
    def test_detect_writes_outliers(self, tmp_path, graph_file):
        t = np.zeros(12)
        t[4] = 8.0
        signal = write_signal(tmp_path, "t.csv", t)
        out = tmp_path / "run"
        code = main(["detect", "--graph", str(graph_file),
                     "--signal", str(signal), "--beta", "0.8",
                     "--out", str(out)])
        assert code == 0
        outliers = np.loadtxt(out / "outliers.csv", delimiter=",")
        assert np.flatnonzero(outliers).tolist() == [4]

    def test_missing_beta_is_config_error(self, tmp_path, graph_file):
        signal = write_signal(tmp_path, "t.csv", np.zeros(12))
        code = main(["detect", "--graph", str(graph_file),
                     "--signal", str(signal), "--out", str(tmp_path / "run")])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--beta", "-1"],
        ["--beta", "nan"],
        ["--method", "anomaly-constrained", "--eta-smooth", "-1"],
        ["--method", "anomaly-constrained", "--eta-smooth", "nan"],
    ], ids=lambda flags: " ".join(flags[-2:]))
    def test_negative_or_nan_weight_is_config_error(self, tmp_path, graph_file,
                                                    capsys, flags):
        signal = write_signal(tmp_path, "t.csv", np.zeros(12))
        code = main(["detect", "--graph", str(graph_file), "--signal", str(signal),
                     "--out", str(tmp_path / "run"), *flags])
        assert code == 2
        assert flags[-2] in capsys.readouterr().err

    def test_non_integer_max_outer_is_config_error(self, tmp_path, graph_file,
                                                   capsys):
        signal = write_signal(tmp_path, "t.csv", np.zeros(12))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"max_outer": 2.5}))
        code = main(["detect", "--graph", str(graph_file), "--signal", str(signal),
                     "--beta", "0.5", "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "max_outer" in capsys.readouterr().err

    def test_constrained_needs_eta(self, tmp_path, graph_file):
        signal = write_signal(tmp_path, "t.csv", np.zeros(12))
        code = main(["detect", "--graph", str(graph_file),
                     "--signal", str(signal), "--method",
                     "anomaly-constrained", "--out", str(tmp_path / "run")])
        assert code == 2


class TestRobust:
    @pytest.mark.parametrize("method", ["rgtvr", "admm"])
    def test_writes_estimate_and_outliers(self, tmp_path, graph_file, method):
        t = np.random.default_rng(7).normal(size=12)
        t[2] += 6.0
        signal = write_signal(tmp_path, "t.csv", t)
        mask_path = tmp_path / "mask.csv"
        save_mask_csv(mask_path, sample_mask((12, 1), 0.75, 8))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1.0, "gamma": 0.5}))
        out = tmp_path / "run"
        code = main(["robust", "--graph", str(graph_file),
                     "--signal", str(signal), "--mask", str(mask_path),
                     "--method", method, "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
        for name in ("estimate.csv", "outliers.csv", "result.json"):
            assert (out / name).exists()


class TestCombine:
    def test_average_vote(self, tmp_path):
        opinions = np.array([[1.0, 1.0, -1.0],
                             [-1.0, -1.0, -1.0]])
        path = write_signal(tmp_path, "op.csv", opinions)
        out = tmp_path / "run"
        assert main(["combine", "--opinions", str(path),
                     "--out", str(out)]) == 0
        labels = np.loadtxt(out / "labels.csv", delimiter=",")
        np.testing.assert_array_equal(labels, [1.0, -1.0])

    def test_denoise_needs_graph(self, tmp_path):
        path = write_signal(tmp_path, "op.csv", np.array([[1.0, -1.0]]))
        code = main(["combine", "--opinions", str(path), "--method",
                     "gtvr-denoise", "--out", str(tmp_path / "run")])
        assert code == 2

    def test_unconverged_denoising_exits_four_but_writes(self, tmp_path):
        shift, _, opinions, _ = synth_opinion_instance(60, 9, 0.9, 0.3, 0.2, 5, 6, 0)
        graph = tmp_path / "graph.csv"
        save_graph_dense(graph, shift)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 5, "beta": 1, "max_outer": 5}))
        out = tmp_path / "run"
        path = write_signal(tmp_path, "op.csv", opinions)
        code = main(["combine", "--opinions", str(path), "--graph", str(graph),
                     "--method", "gmcr-denoise", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 4
        assert (out / "labels.csv").exists()

    def test_non_binary_opinions(self, tmp_path):
        path = write_signal(tmp_path, "op.csv", np.array([[0.25, 1.0]]))
        code = main(["combine", "--opinions", str(path),
                     "--out", str(tmp_path / "run")])
        assert code == 3


class TestEval:
    def test_prints_metrics(self, tmp_path, capsys):
        truth = write_signal(tmp_path, "truth.csv", np.array([1.0, 2.0]))
        est = write_signal(tmp_path, "est.csv", np.array([1.0, 4.0]))
        assert main(["eval", "--truth", str(truth),
                     "--estimate", str(est)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["mse"] - 2.0) <= 1e-12
        assert payload["count"] == 2

    def test_writes_report_file(self, tmp_path):
        truth = write_signal(tmp_path, "truth.csv", np.ones(3))
        out = tmp_path / "metrics.json"
        assert main(["eval", "--truth", str(truth), "--estimate", str(truth),
                     "--score", "classification", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["acc"] == 1.0 and payload["mse"] == 0.0

    def test_hidden_scoring_uses_complement(self, tmp_path, capsys):
        truth = write_signal(tmp_path, "truth.csv", np.array([5.0, 7.0]))
        est = write_signal(tmp_path, "est.csv", np.array([5.0, 10.0]))
        mask_path = tmp_path / "mask.csv"
        save_mask_csv(mask_path, np.array([[True], [False]]))
        assert main(["eval", "--truth", str(truth), "--estimate", str(est),
                     "--mask", str(mask_path), "--on", "hidden"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert abs(payload["mse"] - 9.0) <= 1e-12

    def test_shape_mismatch_is_data_error(self, tmp_path):
        truth = write_signal(tmp_path, "truth.csv", np.ones(3))
        est = write_signal(tmp_path, "est.csv", np.ones(4))
        assert main(["eval", "--truth", str(truth),
                     "--estimate", str(est)]) == 3

    def test_hidden_scoring_without_a_mask_is_config_error(self, tmp_path, capsys):
        truth = write_signal(tmp_path, "truth.csv", np.array([1.0, 2.0, 3.0]))
        est = write_signal(tmp_path, "est.csv", np.array([1.0, 2.0, 4.0]))
        assert main(["eval", "--truth", str(truth), "--estimate", str(est),
                     "--on", "hidden"]) == 2
        captured = capsys.readouterr()
        assert "--on" in captured.err and captured.out == ""

    def test_mask_without_hidden_scoring_is_config_error(self, tmp_path, capsys):
        # the mask names hidden entries; scoring every entry would ignore it
        truth = write_signal(tmp_path, "truth.csv", np.array([1.0, 2.0, 3.0]))
        est = write_signal(tmp_path, "est.csv", np.array([1.0, 2.0, 4.0]))
        mask_path = tmp_path / "mask.csv"
        save_mask_csv(mask_path, np.array([[True], [False], [True]]))
        assert main(["eval", "--truth", str(truth), "--estimate", str(est),
                     "--mask", str(mask_path)]) == 2
        captured = capsys.readouterr()
        assert "--mask" in captured.err and captured.out == ""

    def test_classification_of_a_real_truth_is_data_error(self, tmp_path, capsys):
        truth = write_signal(tmp_path, "truth.csv", np.array([1.0, 2.0, 3.0]))
        est = write_signal(tmp_path, "est.csv", np.array([1.0, 2.0, 4.0]))
        assert main(["eval", "--truth", str(truth), "--estimate", str(est),
                     "--score", "classification"]) == 3
        assert "NonBinaryInput" in capsys.readouterr().err


class TestRun:
    def experiment(self, tmp_path):
        desc = {
            "task": "inpaint",
            "seed": 3,
            "trials": 1,
            "ratios": [0.6],
            "graph": {"kind": "knn", "n": 15, "dim": 2, "k": 3},
            "signal": {"synthetic": {"l": 1, "rank": 3}},
            "solvers": [{"method": "gtvm"}],
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(desc))
        return path

    def test_runs_experiment(self, tmp_path):
        cfg = self.experiment(tmp_path)
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "trials.csv").exists()
        assert (out / "report.json").exists()

    def test_seed_flag_overrides_description(self, tmp_path):
        desc = json.loads(self.experiment(tmp_path).read_text())
        desc["seed"] = 5
        cfg = tmp_path / "seeded.json"
        cfg.write_text(json.dumps(desc))

        def seeds(*flags):
            out = tmp_path / ("results" + "".join(flags))
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         *flags]) == 0
            lines = (out / "trials.csv").read_text().splitlines()
            column = lines[0].split(",").index("seed")
            return {line.split(",")[column] for line in lines[1:]}

        assert seeds("--seed", "0") == {"0"}
        assert seeds() == {"5"}

    def test_detection_at_weight_zero_ends_at_the_rounding_floor(self, tmp_path):
        # gamma defaults to 0. On this instance one node once joined and left
        # the lasso path at a weight of about 1e-15 on every segment, up to
        # the 2000-segment cap; the path now ends within _lasso_kkt's rounding
        # floor of 0, after 289 segments (290 iterations) on x86-64 OpenBLAS
        cfg = tmp_path / "detect.json"
        cfg.write_text(json.dumps({
            "task": "detect", "seed": 4, "trials": 1,
            "graph": {"kind": "knn", "n": 200, "k": 8},
            "signal": {"synthetic": {"rank": 5, "outliers_per_column": 5,
                                     "outlier_lo": 3.0, "outlier_hi": 5.0}},
            "solvers": [{"method": "anomaly"}]}))
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "trials.csv").read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert int(row["iterations"]) < 1000 and row["converged"] == "true"

    def test_missing_config_flag(self, tmp_path):
        assert main(["run", "--out", str(tmp_path / "r")]) == 2

    def test_broken_json(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text("{nope")
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 2

    def test_missing_description_is_config_error(self, tmp_path, capsys):
        # like a malformed description, and like --config on every other command
        assert main(["run", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read")

    def test_unconverged_trial_exits_4(self, tmp_path, capsys):
        desc = json.loads(self.experiment(tmp_path).read_text())
        desc["solvers"] = [{"method": "rgtvr", "config": {"max_outer": 1}}]
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps(desc))
        out = tmp_path / "r"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 4
        assert "before convergence" in capsys.readouterr().err
        assert (out / "trials.csv").read_text().rstrip().endswith(",false")

    @pytest.mark.parametrize("seed", [[], ["--seed", "2"]], ids=["", "seed"])
    def test_description_not_an_object(self, tmp_path, seed):
        cfg = tmp_path / "exp.json"
        cfg.write_text("[1, 2]")
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "r"), *seed]) == 2

    def test_nan_solver_weight(self, tmp_path, capsys):
        desc = json.loads(self.experiment(tmp_path).read_text())
        desc["solvers"] = [{"method": "gtvr", "config": {"alpha": float("nan")}}]
        cfg = tmp_path / "nan.json"
        cfg.write_text(json.dumps(desc))
        assert "NaN" in cfg.read_text()  # JSON's NaN literal
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_invalid_description(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"task": "forecast", "signal": {},
                                   "solvers": [{"method": "gtvm"}]}))
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 2


class TestThreadsFlag:
    def test_zero_threads_rejected(self, tmp_path):
        truth = write_signal(tmp_path, "truth.csv", np.ones(3))
        assert main(["eval", "--truth", str(truth), "--estimate", str(truth),
                     "--threads", "0"]) == 2

    def test_thread_cap_allows_success(self, tmp_path, recwarn):
        truth = write_signal(tmp_path, "truth.csv", np.ones(3))
        assert main(["eval", "--truth", str(truth), "--estimate", str(truth),
                     "--threads", "1"]) == 0

    def test_thread_cap_is_set_and_restored(self, tmp_path, monkeypatch):
        counts = openblas_thread_counts()
        if not counts:
            pytest.skip("no scipy-openblas library loaded")
        inside = []

        def run_experiment(spec, out):
            inside.append(openblas_thread_counts())
            return {"rows": 0, "all_converged": True}

        monkeypatch.setattr(gsrec.cli, "run_experiment", run_experiment)
        cfg = TestRun().experiment(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--threads", "1"]) == 0
        assert inside == [{name: 1 for name in counts}]
        assert openblas_thread_counts() == counts

    def test_default_is_one_thread_and_restored(self, tmp_path, monkeypatch):
        controls = gsrec.cli._openblas_thread_controls()
        previous = [get() for get, _ in controls]
        for _, put in controls:
            put(2)
        try:
            counts = openblas_thread_counts()
            if not counts or 2 not in counts.values():
                pytest.skip("no scipy-openblas library takes two threads here")
            inside = []

            def run_experiment(spec, out):
                inside.append(openblas_thread_counts())
                return {"rows": 0, "all_converged": True}

            monkeypatch.setattr(gsrec.cli, "run_experiment", run_experiment)
            cfg = TestRun().experiment(tmp_path)
            assert main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
            assert inside == [{name: 1 for name in counts}]
            assert openblas_thread_counts() == counts
        finally:
            for (_, put), count in zip(controls, previous):
                put(count)

    def test_a_fresh_command_caps_scipy_openblas_before_it_loads(self, tmp_path):
        """scipy loads its own OpenBLAS with its first ``scipy.sparse.linalg``
        import, inside the command's first factorization. Both libraries
        report one thread after every solve, and their own count again once
        the command returns."""
        cfg = TestRun().experiment(tmp_path)
        script = tmp_path / "fresh.py"
        script.write_text(
            "import json, sys\n"
            "import gsrec.cli, gsrec.experiments\n"
            "from test_cli import openblas_thread_counts\n"
            "assert 'scipy.sparse.linalg' not in sys.modules\n"
            "before, inside = openblas_thread_counts(), []\n"
            "solve = gsrec.experiments.solve_recovery\n"
            "def counted(*args, **kwargs):\n"
            "    result = solve(*args, **kwargs)\n"
            "    inside.append(openblas_thread_counts())\n"
            "    return result\n"
            "gsrec.experiments.solve_recovery = counted\n"
            f"code = gsrec.cli.main(['run', '--config', {str(cfg)!r},"
            f" '--out', {str(tmp_path / 'out')!r}])\n"
            "print(json.dumps([code, before, inside, openblas_thread_counts()]))\n")
        src = Path(gsrec.cli.__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
        done = subprocess.run([sys.executable, str(script)], env=env, timeout=120,
                              capture_output=True, text=True, check=True)
        code, before, inside, after = json.loads(done.stdout.splitlines()[-1])
        if len(after) != 2 or set(after.values()) != {2}:
            pytest.skip(f"needs numpy's and scipy's OpenBLAS at 2 threads, got {after}")
        assert code == 0 and len(before) == 1
        assert inside == [{name: 1 for name in after}]

    def test_default_is_silent_without_a_known_library(self, tmp_path, monkeypatch,
                                                       recwarn):
        monkeypatch.setattr(gsrec.cli, "_openblas_thread_controls", lambda: [])
        truth = write_signal(tmp_path, "truth.csv", np.ones(3))
        assert main(["eval", "--truth", str(truth), "--estimate", str(truth)]) == 0
        assert not [w for w in recwarn if "--threads" in str(w.message)]

    def test_warns_without_a_known_library(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gsrec.cli, "_openblas_thread_controls", lambda: [])
        truth = write_signal(tmp_path, "truth.csv", np.ones(3))
        with pytest.warns(UserWarning, match="--threads ignored"):
            assert main(["eval", "--truth", str(truth), "--estimate", str(truth),
                         "--threads", "1"]) == 0


class TestParser:
    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])

    def test_missing_required_flag_exits(self):
        with pytest.raises(SystemExit):
            main(["inpaint"])

    @pytest.mark.parametrize("command, methods", [
        ("inpaint", ["gtvm", "gtvr", "laplacian"]),
        ("complete", ["gmcm", "gmcr", "admm"]),
        ("detect", ["anomaly", "anomaly-constrained"]),
        ("robust", ["rgtvr", "admm"]),
        ("combine", ["avg", "gtvr-denoise", "gmcr-denoise"]),
    ])
    def test_method_choices_are_the_table_rows_of_the_command(self, command, methods):
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        flag = next(a for a in commands.choices[command]._actions if a.dest == "method")
        assert list(flag.choices) == methods == [
            name for name, row in METHODS.items() if command in row.commands]
        assert flag.default == methods[0]


REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(REPO / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_cli_import_leaves_heavy_scipy_modules_for_first_use():
    """``scipy.spatial`` (the kNN build) and ``scipy.sparse.linalg`` (the
    factorizations and eigensolves) are imported by the functions that use
    them, so a command that needs neither does not pay for them at start-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    script = ("import sys, gsrec.cli; print(sorted(m for m in sys.modules "
              "if m.startswith(('scipy.spatial', 'scipy.sparse.linalg'))))")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
