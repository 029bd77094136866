import json

import numpy as np
import pytest

from gsrec import (
    ConfigError,
    DataError,
    GraphShift,
    SolverConfig,
    SyntheticSpec,
    anomaly_detect,
    load_bundle,
    load_graph,
    load_mask_csv,
    load_signal_csv,
    load_solver_config,
    normalize_shift,
    sample_mask,
    save_bundle,
    save_graph_dense,
    save_graph_edges,
    save_mask_csv,
    save_result_json,
    save_signal_csv,
    save_solver_config,
    synth_instance,
)
from gsrec.cli import main
from gsrec.io import result_to_dict, solver_config_from_dict


def small_shift(n, seed):
    rng = np.random.default_rng(seed)
    w = np.abs(rng.normal(size=(n, n)))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return normalize_shift(GraphShift(w))


class TestSignalCsv:
    def test_matrix_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(7, 3))
        p = tmp_path / "x.csv"
        save_signal_csv(p, x)
        np.testing.assert_array_equal(load_signal_csv(p), x)

    def test_vector_comes_back_as_column(self, tmp_path):
        p = tmp_path / "v.csv"
        save_signal_csv(p, np.array([1.0, 2.0, 3.0]))
        out = load_signal_csv(p)
        assert out.shape == (3, 1)
        np.testing.assert_array_equal(out[:, 0], [1.0, 2.0, 3.0])

    def test_nan_rejected_by_default(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,nan\n2.0,3.0\n")
        with pytest.raises(DataError):
            load_signal_csv(p)

    def test_allow_nan_admits_nan_but_not_inf(self, tmp_path):
        p = tmp_path / "feat.csv"
        p.write_text("1.0,nan\n2.0,3.0\n")
        out = load_signal_csv(p, allow_nan=True)
        assert np.isnan(out[0, 1])
        p.write_text("1.0,inf\n2.0,3.0\n")
        with pytest.raises(DataError):
            load_signal_csv(p, allow_nan=True)

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataError):
            load_signal_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError):
            load_signal_csv(p)

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("# header\n\n1.0,2.0\n")
        out = load_signal_csv(p)
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_signal_csv(tmp_path / "nope.csv")


class TestLineNumbers:
    """A reader's error names the file line, counting comments and blanks."""

    @pytest.mark.parametrize("kind", ["signal", "ragged", "mask", "edges"])
    def test_error_names_the_file_line(self, tmp_path, kind):
        p = tmp_path / "g.csv"
        body = {"signal": "1,2\nx,3\n", "ragged": "1,2\n3\n",
                "mask": "0,0\n0,x\n", "edges": "0,1,0.5\n0,x,1\n"}[kind]
        p.write_text("# header\n\n" + body)
        (tmp_path / "g.json").write_text(json.dumps({"n": 2, "format": "edges"}))
        read = {"mask": lambda: load_mask_csv(p, (3, 1)),
                "edges": lambda: load_graph(p)}.get(kind, lambda: load_signal_csv(p))
        with pytest.raises(DataError, match="line 4:"):
            read()


class TestMaskCsv:
    def test_matrix_round_trip(self, tmp_path):
        mask = sample_mask((6, 4), 0.5, 3)
        p = tmp_path / "m.csv"
        save_mask_csv(p, mask)
        np.testing.assert_array_equal(load_mask_csv(p, (6, 4)), mask)

    def test_vector_round_trip(self, tmp_path):
        mask = np.array([True, False, True, True])
        p = tmp_path / "m.csv"
        save_mask_csv(p, mask)
        out = load_mask_csv(p, (4,))
        assert out.shape == (4,)
        np.testing.assert_array_equal(out, mask)

    def test_empty_mask_file_loads_all_false(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("")
        out = load_mask_csv(p, (3, 2))
        assert not out.any()

    def test_out_of_range_entry(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("5,0\n")
        with pytest.raises(DataError):
            load_mask_csv(p, (3, 2))

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2,3\n")
        with pytest.raises(DataError):
            load_mask_csv(p, (3, 4))


class TestGraphFormats:
    def test_edge_list_round_trip(self, tmp_path):
        shift = small_shift(8, 1)
        p = tmp_path / "g.csv"
        save_graph_edges(p, shift)
        back = load_graph(p)
        np.testing.assert_array_equal(back.weights, shift.weights)
        assert back.normalized == shift.normalized
        assert back.spectral_radius == shift.spectral_radius

    def test_dense_round_trip(self, tmp_path):
        shift = small_shift(6, 2)
        p = tmp_path / "g.csv"
        save_graph_dense(p, shift)
        back = load_graph(p)
        np.testing.assert_array_equal(back.weights, shift.weights)
        assert back.normalized
        assert back.spectral_radius == shift.spectral_radius

    def test_edge_direction_convention(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,1,0.5\n")
        (tmp_path / "g.json").write_text(json.dumps(
            {"n": 2, "normalized": False, "format": "edges"}))
        back = load_graph(p)
        # src,dst means the weight lands in row dst, column src
        assert back.weights[1, 0] == 0.5
        assert back.weights[0, 1] == 0.0

    def test_dense_without_sidecar(self, tmp_path):
        p = tmp_path / "g.csv"
        np.savetxt(p, np.eye(3) * 0.5, delimiter=",")
        back = load_graph(p)
        assert back.n == 3 and not back.normalized

    def test_edges_need_n_in_sidecar(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,1,1.0\n")
        (tmp_path / "g.json").write_text(json.dumps({"format": "edges"}))
        with pytest.raises(DataError):
            load_graph(p)

    def test_unknown_format_rejected(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0.0\n")
        (tmp_path / "g.json").write_text(json.dumps({"format": "sparse"}))
        with pytest.raises(DataError):
            load_graph(p)

    def test_non_square_dense_rejected(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        with pytest.raises(DataError):
            load_graph(p)

    def test_sidecar_size_mismatch(self, tmp_path):
        p = tmp_path / "g.csv"
        np.savetxt(p, np.zeros((3, 3)), delimiter=",")
        (tmp_path / "g.json").write_text(json.dumps(
            {"n": 4, "format": "dense"}))
        with pytest.raises(DataError):
            load_graph(p)

    def test_non_finite_edge_weight(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,1,inf\n")
        (tmp_path / "g.json").write_text(json.dumps(
            {"n": 2, "format": "edges"}))
        with pytest.raises(DataError):
            load_graph(p)


class TestSolverConfigIO:
    def test_round_trip(self, tmp_path):
        cfg = SolverConfig(alpha=2.5, beta=0.1, max_outer=500)
        p = tmp_path / "cfg.json"
        save_solver_config(p, cfg)
        assert load_solver_config(p) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            solver_config_from_dict({"alpha": 1.0, "bogus": 2})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            solver_config_from_dict([1, 2, 3])

    def test_broken_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_solver_config(p)


class TestResultJson:
    def test_serializes_arrays_and_flags(self, tmp_path):
        shift = small_shift(6, 4)
        t = np.zeros(6)
        t[2] = 5.0
        res = anomaly_detect(t, shift, 0.5)
        d = result_to_dict(res)
        assert isinstance(d["x"], list)
        # real JSON booleans, not 0/1
        assert d["converged"] is bool(res.converged)
        assert d["iterations"] == res.iterations
        p = tmp_path / "res.json"
        save_result_json(p, res)
        back = json.loads(p.read_text())
        np.testing.assert_allclose(np.array(back["x"]), res.x.ravel()
                                   if res.x.ndim == 1 else res.x)


class TestBundle:
    def test_round_trip(self, tmp_path):
        shift = small_shift(10, 5)
        spec = SyntheticSpec(n=10, l=2, noise_sigma=0.2,
                             outliers_per_column=1, outlier_lo=1.0,
                             outlier_hi=2.0)
        inst = synth_instance(shift, spec, 6)
        mask = sample_mask((10, 2), 0.6, 7)
        d = tmp_path / "bundle"
        save_bundle(d, shift, inst, mask)
        shift2, inst2, mask2 = load_bundle(d)
        np.testing.assert_array_equal(shift2.weights, shift.weights)
        np.testing.assert_array_equal(inst2.x0, inst.x0)
        np.testing.assert_array_equal(inst2.noise, inst.noise)
        np.testing.assert_array_equal(inst2.outliers, inst.outliers)
        np.testing.assert_array_equal(inst2.observed, inst.observed)
        np.testing.assert_array_equal(mask2, mask)
        assert inst2.spec == spec and inst2.seed == 6

    def test_corrupt_spec_json(self, tmp_path):
        shift = small_shift(5, 8)
        inst = synth_instance(shift, SyntheticSpec(n=5), 9)
        mask = sample_mask((5, 1), 1.0, 0)
        d = tmp_path / "bundle"
        save_bundle(d, shift, inst, mask)
        (d / "spec.json").write_text("{broken")
        with pytest.raises(DataError):
            load_bundle(d)

    def test_graph_saved_as_edge_list(self, tmp_path):
        shift = small_shift(6, 12)
        inst = synth_instance(shift, SyntheticSpec(n=6), 13)
        save_bundle(tmp_path, shift, inst, sample_mask((6, 1), 0.5, 0))
        assert json.loads((tmp_path / "graph.json").read_text())["format"] == "edges"
        assert len((tmp_path / "graph.csv").read_text().splitlines()) == 30
        back = load_graph(tmp_path / "graph.csv").matrix
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(shift.matrix, name))

    def test_shape_mismatch_detected(self, tmp_path):
        shift = small_shift(5, 10)
        inst = synth_instance(shift, SyntheticSpec(n=5), 11)
        mask = sample_mask((5, 1), 1.0, 0)
        d = tmp_path / "bundle"
        save_bundle(d, shift, inst, mask)
        save_signal_csv(d / "X0.csv", np.zeros((4, 1)))
        with pytest.raises(DataError):
            load_bundle(d)



def corrupt_bundle(d, case):
    """Spoil one file of a 30-node, one-column bundle the way ``case`` says."""
    spec = json.loads((d / "spec.json").read_text())
    if case == "unknown-recipe":
        spec["synthetic"]["recipe"] = "foo"
    elif case == "seed-not-a-number":
        spec["seed"] = "abc"
    elif case.endswith("-short"):  # 29 rows on the 30-node graph
        name = case.split("-")[0]
        save_signal_csv(d / f"{name}.csv", load_signal_csv(d / f"{name}.csv")[:29])
        if name == "X0":
            spec["synthetic"]["n"] = 29
    elif case == "sidecar-n-not-a-number":
        (d / "graph.json").write_text(json.dumps({"n": "x", "format": "edges"}))
    elif case == "sidecar-normalized-a-string":
        meta = json.loads((d / "graph.json").read_text())
        (d / "graph.json").write_text(json.dumps(dict(meta, normalized="false")))
    elif case == "sidecar-not-an-object":
        (d / "graph.json").write_text("[1, 2]")
    (d / "spec.json").write_text(json.dumps(spec))


class TestMalformedBundle:
    """Each malformed bundle is a DataError, and ``gsrec run`` exits 3."""

    @pytest.mark.parametrize("case", [
        "unknown-recipe", "seed-not-a-number", "X0-and-spec-short", "W-short",
        "E-short", "T-short", "sidecar-n-not-a-number", "sidecar-normalized-a-string",
        "sidecar-not-an-object"])
    def test_rejected(self, tmp_path, case):
        shift = small_shift(30, 14)
        inst = synth_instance(shift, SyntheticSpec(n=30), 15)
        d = tmp_path / "bundle"
        save_bundle(d, shift, inst, sample_mask((30, 1), 0.5, 16))
        corrupt_bundle(d, case)
        with pytest.raises(DataError):
            load_bundle(d)
        cfg = tmp_path / "experiment.json"
        cfg.write_text(json.dumps({"task": "inpaint", "ratios": [0.5],
                                   "signal": {"bundle": str(d)},
                                   "solvers": [{"method": "gtvr"}]}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
