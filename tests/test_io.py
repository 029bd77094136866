import json
from dataclasses import asdict

import numpy as np
import pytest
import scipy.sparse as sp

from gsrec import (
    ConfigError,
    DataError,
    GraphShift,
    SolverConfig,
    SyntheticSpec,
    ZeroSpectralRadius,
    anomaly_detect,
    load_bundle,
    load_graph,
    load_mask_csv,
    load_signal_csv,
    load_solver_config,
    sample_mask,
    save_bundle,
    save_graph_dense,
    save_graph_edges,
    save_mask_csv,
    save_result_json,
    save_signal_csv,
    synth_instance,
)
from gsrec.cli import main
from gsrec.io import result_to_dict, spec_from_dict


# sidecar spectral_radius values load_graph must reject
BAD_RADII = {"a-string": "x", "zero": 0.0, "negative": -1.0, "nan": float("nan"),
             "infinite": float("inf"), "too-large": 10 ** 400, "a-boolean": True}


def small_shift(n, seed):
    rng = np.random.default_rng(seed)
    w = np.abs(rng.normal(size=(n, n)))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return GraphShift(w)


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


# reader-fault -> file body after a comment and a blank line, and the number
# of the bad line; the body's first line is good unless the fault says so
FAULTS = {
    "signal": ("1,2\nx,3\n", 4), "ragged": ("1,2\n3\n", 4),
    "mask": ("0,0\n0,x\n", 4), "edges": ("0,1,0.5\n0,x,1\n", 4),
    "signal-long-row": ("1,2\n3,4,5\n", 4), "signal-nan": ("1,2\nnan,3\n", 4),
    "signal-inf": ("1,2\n3,-inf\n", 4), "signal-overflow": ("1,2\n1e400,3\n", 4),
    "signal-digit-separator": ("1,2\n1_0,3\n", 4),
    "signal-first-line": ("x,2\n1,2\n", 3), "signal-trailing-comma": ("1,2\n3,4,\n", 4),
    "signal-late": ("1,2\n" * 700 + "# note\n  \n" + "1,2\n" * 50 + "1;2\n"
                    + "1,2\n" * 300, 755),
    "dense-bad-cell": ("0,1\nx,0\n", 4), "dense-ragged": ("0,1\n0\n", 4),
    "dense-nan": ("0,1\n1,nan\n", 4),
    "mask-ragged": ("0,0\n1\n", 4), "mask-long-row": ("0,0\n1,0,1\n", 4),
    "mask-row-range": ("0,0\n3,0\n", 4), "mask-col-range": ("0,0\n0,1\n", 4),
    "mask-negative": ("0,0\n-1,0\n", 4), "mask-float-index": ("0,0\n1.0,0\n", 4),
    "mask-exponent-index": ("0,0\n0,1e0\n", 4),
    "edges-ragged": ("0,1,0.5\n1,0\n", 4), "edges-bad-weight": ("0,1,0.5\n1,0,w\n", 4),
    "edges-range": ("0,1,0.5\n0,2,1\n", 4), "edges-negative": ("0,1,0.5\n-1,0,1\n", 4),
    "edges-float-index": ("0,1,0.5\n1.0,0,1\n", 4),
    "edges-inf-weight": ("0,1,0.5\n1,0,inf\n", 4),
    "edges-nan-weight": ("0,1,0.5\n1,0,nan\n", 4),
    "edges-range-before-inf": ("0,1,0.5\n0,5,1\n1,0,inf\n", 4),
}


class TestLineNumbers:
    """A reader's error names the file line, counting comments and blanks."""

    @pytest.mark.parametrize("kind", list(FAULTS))
    def test_error_names_the_file_line(self, tmp_path, kind):
        p = tmp_path / "g.csv"
        body, line = FAULTS[kind]
        p.write_text("# header\n\n" + body)
        fmt = "dense" if kind.startswith("dense") else "edges"
        (tmp_path / "g.json").write_text(json.dumps({"n": 2, "format": fmt}))
        reader = kind.split("-")[0]
        read = {"mask": lambda: load_mask_csv(p, (3, 1)), "edges": lambda: load_graph(p),
                "dense": lambda: load_graph(p)}.get(reader, lambda: load_signal_csv(p))
        with pytest.raises(DataError, match=f"line {line}:"):
            read()

    @pytest.mark.parametrize("kind", ["signal", "mask", "edges"])
    def test_crlf_error_names_the_file_line(self, tmp_path, kind):
        body, line = FAULTS[kind]
        p = tmp_path / "g.csv"
        p.write_bytes(("# header\n\n" + body).replace("\n", "\r\n").encode())
        (tmp_path / "g.json").write_text(json.dumps({"n": 2, "format": "edges"}))
        read = {"mask": lambda: load_mask_csv(p, (3, 1)),
                "edges": lambda: load_graph(p)}.get(kind, lambda: load_signal_csv(p))
        with pytest.raises(DataError, match=f"line {line}:"):
            read()


def random_graph(rng, n):
    """A sparse random shift, with no edge at all one time in four."""
    density = 0.0 if rng.random() < 0.25 else rng.random()
    w = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-5, 5, size=(n, n))
    return GraphShift(sp.csr_array(w * (rng.random((n, n)) < density)))


def as_crlf(path):
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


class TestRoundTrip:
    """Every writer/reader pair gives back the same bits, with LF or CRLF."""

    @pytest.mark.parametrize("seed", range(8))
    def test_bitwise(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n, l = int(rng.integers(1, 25)), int(rng.integers(1, 5))
        x = rng.normal(size=(n, l)) * 10.0 ** rng.integers(-300, 300, size=(n, l))
        x[rng.random((n, l)) < 0.1] = -0.0
        masks = [rng.random((n, l)) < rng.random(), rng.random(n) < 0.5,
                 np.zeros((n, l), dtype=bool), np.zeros(n, dtype=bool)]
        shift = random_graph(rng, n)
        for crlf in (False, True):
            for j, signal in enumerate((x, x[:, 0])):
                p = tmp_path / f"s{j}.csv"
                save_signal_csv(p, signal)
                if crlf:
                    as_crlf(p)
                back = load_signal_csv(p)
                assert back.shape == (n, signal.size // n)
                assert back.tobytes() == signal.reshape(n, -1).tobytes()
            for j, mask in enumerate(masks):
                p = tmp_path / f"m{j}.csv"
                save_mask_csv(p, mask)
                if crlf:
                    as_crlf(p)
                np.testing.assert_array_equal(load_mask_csv(p, mask.shape), mask)
            for j, save in enumerate((save_graph_edges, save_graph_dense)):
                p = tmp_path / f"g{j}.csv"
                save(p, shift)
                if crlf:
                    as_crlf(p)
                back = load_graph(p).matrix
                np.testing.assert_array_equal(back.indptr, shift.matrix.indptr)
                np.testing.assert_array_equal(back.indices, shift.matrix.indices)
                assert back.data.tobytes() == shift.matrix.data.tobytes()


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
        np.testing.assert_array_equal(back.matrix.toarray(), shift.matrix.toarray())
        assert back.normalized == shift.normalized
        assert back.spectral_radius == shift.spectral_radius

    @pytest.mark.parametrize("radius", list(BAD_RADII.values()), ids=list(BAD_RADII))
    def test_bad_sidecar_radius_rejected(self, tmp_path, radius):
        p = tmp_path / "g.csv"
        save_graph_edges(p, small_shift(4, 1))
        meta = json.loads(p.with_suffix(".json").read_text())
        p.with_suffix(".json").write_text(json.dumps(dict(meta, spectral_radius=radius)))
        with pytest.raises(DataError, match="spectral_radius"):
            load_graph(p)

    @pytest.mark.parametrize("radius, loaded", [(None, None), (2, 2.0), (0.5, 0.5)])
    def test_sidecar_radius_accepted(self, tmp_path, radius, loaded):
        p = tmp_path / "g.csv"
        save_graph_edges(p, small_shift(4, 1))
        meta = json.loads(p.with_suffix(".json").read_text())
        p.with_suffix(".json").write_text(json.dumps(dict(meta, spectral_radius=radius)))
        back = load_graph(p).spectral_radius
        assert back == loaded and type(back) is type(loaded)

    def test_dense_round_trip(self, tmp_path):
        shift = small_shift(6, 2)
        p = tmp_path / "g.csv"
        save_graph_dense(p, shift)
        back = load_graph(p)
        np.testing.assert_array_equal(back.matrix.toarray(), shift.matrix.toarray())
        assert back.normalized
        assert back.spectral_radius == shift.spectral_radius

    def test_edge_direction_convention(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,1,0.5\n1,0,2\n")  # eigenvalues +-1
        (tmp_path / "g.json").write_text(json.dumps(
            {"n": 2, "normalized": False, "format": "edges"}))
        back = load_graph(p)
        # src,dst means the weight lands in row dst, column src
        np.testing.assert_allclose(back.matrix.toarray() * back.spectral_radius,
                                   [[0.0, 2.0], [0.5, 0.0]], rtol=1e-14)
        assert back.spectral_radius == pytest.approx(1.0, rel=1e-14)

    def test_dense_without_sidecar(self, tmp_path):
        # no sidecar: a dense file, not marked normalized, so scaled on load
        p = tmp_path / "g.csv"
        np.savetxt(p, np.eye(3) * 0.5, delimiter=",")
        back = load_graph(p)
        assert back.n == 3 and back.spectral_radius == 0.5
        np.testing.assert_array_equal(back.matrix.toarray(), np.eye(3))

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

    def test_repeated_edge_keeps_its_last_weight(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,1,0.5\n2,1,3\n1,0,2\n0,1,0.25\n2,1,0\n1,0,4\n0,1,0.75\n")
        (tmp_path / "g.json").write_text(json.dumps({"n": 3, "format": "edges"}))
        back = load_graph(p)
        # rtol with no atol: the dropped 2 -> 1 edge must be exactly 0
        np.testing.assert_allclose(back.matrix.toarray() * back.spectral_radius,
                                   [[0, 4, 0], [0.75, 0, 0], [0, 0, 0]], rtol=1e-14)
        assert back.spectral_radius == pytest.approx(3.0 ** 0.5, rel=1e-14)

    def test_empty_edge_list_has_no_edges(self, tmp_path):
        # no edges leave a zero radius, which no scaling makes 1
        p = tmp_path / "g.csv"
        p.write_text("# no edges\n\n")
        (tmp_path / "g.json").write_text(json.dumps({"n": 3, "format": "edges"}))
        with pytest.raises(ZeroSpectralRadius, match="numerically zero"):
            load_graph(p)

    @pytest.mark.parametrize("fmt", ["dense", "edges"])
    @pytest.mark.parametrize("n", [-1, 0, 2.5, 2.0, True, "2", None, [2]],
                             ids=["negative", "zero", "fraction", "float", "a-boolean",
                                  "a-string", "null", "a-list"])
    def test_sidecar_n_must_be_a_positive_integer(self, tmp_path, fmt, n):
        p = tmp_path / "g.csv"
        (save_graph_dense if fmt == "dense" else save_graph_edges)(p, small_shift(2, 1))
        meta = json.loads(p.with_suffix(".json").read_text())
        p.with_suffix(".json").write_text(json.dumps(dict(meta, n=n)))
        with pytest.raises(DataError, match="'n'"):
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
        p.write_text(json.dumps(asdict(cfg)))
        assert load_solver_config(p) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"alpha": 1.0, "bogus": 2}))
        with pytest.raises(ConfigError, match=r"cfg.json: unknown keys \['bogus'\]"):
            load_solver_config(p)

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_dict(SolverConfig, [1, 2, 3], "config")

    def test_no_path_means_the_defaults(self):
        assert load_solver_config(None) == SolverConfig()

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

    def test_lists_and_tuples_serialize_item_by_item(self):
        res = anomaly_detect(np.zeros(6), small_shift(6, 4), 0.5)
        res.meta.update(pair=(np.float64(0.5), np.int64(2)), flags=[np.bool_(True)])
        d = result_to_dict(res)
        assert d["meta"]["pair"] == [0.5, 2] and type(d["meta"]["pair"][1]) is int
        assert d["meta"]["flags"] == [True] and d["meta"]["flags"][0] is True


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
        np.testing.assert_array_equal(shift2.matrix.toarray(), shift.matrix.toarray())
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

    def test_written_files_match_the_format(self, tmp_path):
        w = np.array([[0.0, 0.5, 0.5], [0.25, 0.0, 0.75], [0.0, 1.0, 0.0]])
        shift = GraphShift(w)  # row-stochastic: radius 1
        inst = synth_instance(shift, SyntheticSpec(n=3, l=2), 1)
        mask = np.array([[True, False], [False, True], [True, True]])
        save_bundle(tmp_path, shift, inst, mask)
        assert (tmp_path / "mask.csv").read_text() == "0,0\n1,1\n2,0\n2,1\n"
        assert (tmp_path / "graph.csv").read_text() == \
            "1,0,0.5\n2,0,0.5\n0,1,0.25\n2,1,0.75\n1,2,1\n"
        assert json.loads((tmp_path / "graph.json").read_text()) == {
            "n": 3, "normalized": True, "spectral_radius": 1.0, "format": "edges"}
        save_bundle(tmp_path, shift, inst, np.zeros((3, 2), dtype=bool))
        assert (tmp_path / "mask.csv").read_text() == ""

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
    elif case == "synthetic-floats":  # typed like a description's block
        spec["synthetic"].update(n=30.0, rank=2.5)
    elif case == "synthetic-unknown-key":
        spec["synthetic"]["noise"] = 0.1
    elif case == "synthetic-zero-outliers":
        spec["synthetic"].update(outliers_per_column=2, outlier_lo=0.0, outlier_hi=0.0)
    elif case == "spec-not-an-object":
        spec = [spec]
    elif case.startswith("seed-"):
        spec["seed"] = {"seed-fraction": 1.5, "seed-float": 1.0, "seed-negative": -1,
                        "seed-a-boolean": True, "seed-a-string": "1"}[case]
    elif case.endswith("-short"):  # 29 rows on the 30-node graph
        name = case.split("-")[0]
        save_signal_csv(d / f"{name}.csv", load_signal_csv(d / f"{name}.csv")[:29])
        if name == "X0":
            spec["synthetic"]["n"] = 29
    elif case == "sidecar-n-not-a-number":
        (d / "graph.json").write_text(json.dumps({"n": "x", "format": "edges"}))
    elif case.startswith("sidecar-n-"):
        meta = json.loads((d / "graph.json").read_text())
        (d / "graph.json").write_text(json.dumps(dict(meta, n={
            "sidecar-n-negative": -1, "sidecar-n-fraction": 29.5,
            "sidecar-n-a-boolean": True, "sidecar-n-a-string": "30"}[case])))
    elif case == "sidecar-normalized-a-string":
        meta = json.loads((d / "graph.json").read_text())
        (d / "graph.json").write_text(json.dumps(dict(meta, normalized="false")))
    elif case == "sidecar-not-an-object":
        (d / "graph.json").write_text("[1, 2]")
    elif case.startswith("sidecar-radius-"):
        meta = json.loads((d / "graph.json").read_text())
        (d / "graph.json").write_text(json.dumps(
            dict(meta, spectral_radius=BAD_RADII[case[len("sidecar-radius-"):]])))
    (d / "spec.json").write_text(json.dumps(spec))


class TestMalformedBundle:
    """Each malformed bundle is a DataError, and ``gsrec run`` exits 3."""

    @pytest.mark.parametrize("case", [
        "unknown-recipe", "seed-not-a-number", "X0-and-spec-short", "W-short",
        "E-short", "T-short", "sidecar-n-not-a-number", "sidecar-normalized-a-string",
        "sidecar-not-an-object", *(f"sidecar-radius-{r}" for r in BAD_RADII),
        "seed-fraction", "seed-float", "seed-negative", "seed-a-boolean", "seed-a-string",
        "sidecar-n-negative", "sidecar-n-fraction", "sidecar-n-a-boolean",
        "sidecar-n-a-string", "synthetic-floats", "synthetic-unknown-key",
        "synthetic-zero-outliers", "spec-not-an-object"])
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
