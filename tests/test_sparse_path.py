"""The sparse operator path against dense references built here.

Every closed form factors a sparse system once; these tests rebuild each
system densely from ``shift.matrix.toarray()`` and solve it with
``np.linalg.lstsq`` (or ``np.linalg.pinv`` where it is singular), and they
run every ``gsrec run`` task with the dense view switched off. The Lanczos
eigenpairs of ``tilde_shift`` are checked against a dense ``np.linalg.eigh``
made here, and the run path is run with that ``eigh`` switched off.
"""

import gc
import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import scipy.sparse.linalg

import oracles
import gsrec.graph
import gsrec.prox
import gsrec.solvers
from gsrec import (
    DimensionMismatch,
    EigensolveFailed,
    GraphBuildSpec,
    GraphShift,
    SolverConfig,
    SyntheticSpec,
    TooManyNodes,
    anomaly_detect_constrained,
    build_knn_graph,
    cycle_shift,
    eigen_basis,
    gsr_admm,
    gtvm,
    gtvr,
    laplacian_baseline,
    laplacian_from_shift,
    random_features,
    sample_mask,
    save_bundle,
    save_graph_edges,
    synth_instance,
    tilde_shift,
)
from gsrec.cli import main
from gsrec.graph import _lowest_eigenpairs
from gsrec.prox import factorized

SCIPY_SPLU = scipy.sparse.linalg.splu  # scipy's own, before any test wraps it


def knn(n, seed, **build):
    return build_knn_graph(random_features(n, 2, seed), GraphBuildSpec(k=4, **build))


GRAPHS = {
    "knn-row": lambda seed: knn(40, seed),
    "knn-column": lambda seed: knn(40, seed, normalization="column"),
    "knn-symmetrized": lambda seed: knn(40, seed, symmetrize=True),
    "cycle": lambda seed: cycle_shift(17 + seed),
}


def dense_tilde(shift):
    d = np.eye(shift.n) - shift.matrix.toarray()
    return d.T @ d


def dense_laplacian(shift):
    w = np.maximum(np.maximum(shift.matrix.toarray(), shift.matrix.toarray().T), 0.0)
    return np.diag(w.sum(axis=1)) - w


def lstsq(h, b):
    return np.linalg.lstsq(h, b, rcond=None)[0]


def assert_close(x, ref, tol):
    np.testing.assert_allclose(x, ref, rtol=0.0, atol=tol * (1.0 + np.abs(ref).max()))


def signal_and_mask(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n), sample_mask((n,), 0.5, seed)


@pytest.fixture
def pinv_calls(monkeypatch):
    """Counts the dense minimum-norm fallbacks ``factorized`` takes."""
    calls = []
    original = gsrec.prox._min_norm_solve

    def counted(H, *args):
        calls.append(H.shape)
        return original(H, *args)

    monkeypatch.setattr(gsrec.prox, "_min_norm_solve", counted)
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(GRAPHS))
class TestClosedFormsMatchDenseLstsq:
    def test_gtvm(self, kind, seed, pinv_calls):
        shift = GRAPHS[kind](seed)
        t, m = signal_and_mask(shift.n, seed)
        at = dense_tilde(shift)
        ref = np.where(m, t, 0.0)
        ref[~m] = -lstsq(at[np.ix_(~m, ~m)], at[np.ix_(~m, m)] @ t[m])
        assert_close(gtvm(t, m, shift).x, ref, 1e-10)
        assert pinv_calls == []

    def test_gtvr(self, kind, seed, pinv_calls):
        shift = GRAPHS[kind](seed)
        t, m = signal_and_mask(shift.n, seed)
        ref = lstsq(np.diag(m.astype(float)) + 0.7 * dense_tilde(shift), m * t)
        assert_close(gtvr(t, m, shift, 0.7).x, ref, 1e-10)
        assert pinv_calls == []

    def test_laplacian_baseline(self, kind, seed, pinv_calls):
        shift = GRAPHS[kind](seed)
        t, m = signal_and_mask(shift.n, seed)
        lap = dense_laplacian(shift)
        np.testing.assert_allclose(laplacian_from_shift(shift).toarray(), lap,
                                   rtol=0.0, atol=1e-14)
        ref = lstsq(np.diag(m.astype(float)) + 0.7 * lap, m * t)
        assert_close(laplacian_baseline(t, m, laplacian_from_shift(shift), 0.7).x,
                     ref, 1e-10)
        assert pinv_calls == []

    def test_admm_factor_solve(self, kind, seed, pinv_calls):
        # rgtvr and gsr_admm factor I + (2 alpha / eta) (I - A)^T (I - A)
        shift = GRAPHS[kind](seed)
        scale = 2.0 * 1.3 / 0.8
        solve = factorized(sp.eye_array(shift.n) + scale * tilde_shift(shift))
        dense = np.eye(shift.n) + scale * dense_tilde(shift)
        b = np.random.default_rng(seed).normal(size=(shift.n, 3))
        assert_close(solve(b), lstsq(dense, b), 1e-10)
        assert_close(solve(b[:, 0]), lstsq(dense, b[:, 0]), 1e-10)
        assert pinv_calls == []


def two_clusters(seed):
    """kNN graph of two far-apart clusters: no edge joins them.

    Each cluster is a closed class of the row-stochastic shift, so the
    constant vector on either one is variation-free; the zero pivot this
    leaves in a factorization is a rounding residue, not an exact zero.
    """
    rng = np.random.default_rng(seed)
    features = np.vstack([rng.normal(size=(12, 2)), 100.0 + rng.normal(size=(9, 2))])
    return build_knn_graph(features, GraphBuildSpec(k=3))


def two_cycles():
    """Two disjoint directed cycles; exact zero pivots."""
    w = sp.block_diag([cycle_shift(7).matrix, cycle_shift(5).matrix])
    return GraphShift(w)


SINGULAR = {"two-clusters": lambda: two_clusters(4), "two-cycles": two_cycles}


def first_block_mask(n):
    """Measures half of the first block only; the last block has no measured node."""
    m = np.zeros(n, dtype=bool)
    m[[0, 2, 3, 5]] = True
    return m


@pytest.mark.parametrize("kind", sorted(SINGULAR))
class TestSingularSystemsMatchPinv:
    def test_gtvm_unmeasured_closed_class(self, kind, pinv_calls):
        shift = SINGULAR[kind]()
        m = first_block_mask(shift.n)
        t = np.random.default_rng(5).normal(size=shift.n)
        at = dense_tilde(shift)
        ref = np.where(m, t, 0.0)
        ref[~m] = -np.linalg.pinv(at[np.ix_(~m, ~m)]) @ (at[np.ix_(~m, m)] @ t[m])
        assert_close(gtvm(t, m, shift).x, ref, 1e-8)
        assert pinv_calls == []

    def test_gtvr_unmeasured_closed_class(self, kind, pinv_calls):
        shift = SINGULAR[kind]()
        m = first_block_mask(shift.n)
        t = np.random.default_rng(6).normal(size=shift.n)
        ref = np.linalg.pinv(np.diag(m.astype(float)) + dense_tilde(shift)) @ (m * t)
        assert_close(gtvr(t, m, shift, 1.0).x, ref, 1e-8)
        assert pinv_calls == []

    def test_laplacian_unmeasured_component(self, kind, pinv_calls):
        shift = SINGULAR[kind]()
        m = first_block_mask(shift.n)
        t = np.random.default_rng(7).normal(size=shift.n)
        lap = dense_laplacian(shift)
        ref = np.linalg.pinv(np.diag(m.astype(float)) + 2.0 * lap) @ (m * t)
        got = laplacian_baseline(t, m, laplacian_from_shift(shift), 2.0).x
        assert_close(got, ref, 1e-8)
        assert pinv_calls == []

    def test_gtvr_alpha_zero(self, kind, pinv_calls):
        shift = SINGULAR[kind]()
        t, m = signal_and_mask(shift.n, 8)
        ref = np.linalg.pinv(np.diag(m.astype(float))) @ (m * t)
        assert_close(gtvr(t, m, shift, 0.0).x, ref, 1e-8)
        assert pinv_calls == []


def two_far_clusters(n):
    """kNN graph (k = 8) of two far-apart halves of n nodes, and a mask that
    measures half of the first and none of the second."""
    half = n // 2
    features = np.vstack([random_features(half, 2, 1),
                          100.0 + random_features(n - half, 2, 2)])
    mask = np.zeros(n, dtype=bool)
    mask[:half] = sample_mask((half,), 0.5, 4)
    return build_knn_graph(features, GraphBuildSpec(k=8)), mask


@pytest.mark.parametrize("method", ["gtvr", "gtvm"])
def test_large_unmeasured_cluster_is_zero_without_a_dense_solve(pinv_calls, method):
    """The second cluster is a closed class with no measured node, so the
    system is singular. Its right-hand side is zero there, and the
    minimum-norm solution is 0 on it and the first cluster's own solution
    elsewhere, from a sparse solve of the first cluster's block here."""
    shift, m = two_far_clusters(2000)
    t = np.random.default_rng(3).normal(size=shift.n)
    half = shift.n // 2
    at = tilde_shift(shift)
    first = np.arange(half)
    if method == "gtvr":
        x = gtvr(t, m, shift, 1.0).x
        h = sp.diags_array(m[:half].astype(float)) + at[first][:, first]
        ref = scipy.sparse.linalg.spsolve(sp.csc_array(h), (m * t)[:half])
    else:
        x = gtvm(t, m, shift).x
        hidden, measured = np.flatnonzero(~m[:half]), np.flatnonzero(m[:half])
        ref = np.where(m[:half], t[:half], 0.0)
        ref[hidden] = -scipy.sparse.linalg.spsolve(
            sp.csc_array(at[hidden][:, hidden]), at[hidden][:, measured] @ t[measured])
    assert pinv_calls == []
    np.testing.assert_array_equal(x[half:], 0.0)
    assert_close(x[:half], ref, 1e-10)


class TestFactorized:
    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatch):
            factorized(sp.csr_array(np.ones((2, 3))))

    def test_tiny_pivot_takes_minimum_norm(self, pinv_calls):
        h = np.diag([1.0, 1e-13])
        np.testing.assert_allclose(factorized(h)(np.array([2.0, 1.0])), [2.0, 0.0])
        assert len(pinv_calls) == 1

    def test_only_a_singular_component_is_solved_densely(self, pinv_calls):
        """A regular block and a rank-2 block with a right-hand side on both:
        the dense pseudo-inverse sees the 3-node block alone."""
        rng = np.random.default_rng(2)
        g = rng.normal(size=(6, 6))
        v = rng.normal(size=(3, 2))
        h = sp.block_diag([g @ g.T + np.eye(6), v @ v.T])
        b = rng.normal(size=(9, 2))
        assert_close(factorized(h)(b), np.linalg.pinv(h.toarray()) @ b, 1e-10)
        assert pinv_calls == [(3, 3)]

    def test_a_large_singular_component_is_refused(self, monkeypatch, pinv_calls):
        monkeypatch.setattr(gsrec.prox, "DENSE_MAX_NODES", 2)
        h = sp.block_diag([np.eye(4), np.ones((3, 3))])
        solve = factorized(h)
        np.testing.assert_array_equal(solve(np.r_[np.ones(4), np.zeros(3)]),
                                      np.r_[np.ones(4), np.zeros(3)])
        with pytest.raises(TooManyNodes, match="3-node"):
            solve(np.ones(7))
        assert pinv_calls == []


def _no_dense_view(self):
    raise AssertionError("GraphShift.weights read on the gsrec run path")


def _run(tmp_path, description) -> int:
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(description))
    return main(["run", "--config", str(path), "--out", str(tmp_path / "out")])


def _inpaint(tmp_path):
    edges = tmp_path / "graph.csv"
    save_graph_edges(edges, knn(50, 3))
    return {"task": "inpaint", "seed": 2, "ratios": [0.6],
            "graph": {"kind": "file", "path": str(edges)},
            "signal": {"synthetic": {"rank": 3, "noise_sigma": 0.05}},
            "solvers": [{"method": "gtvm"},
                        {"method": "gtvr", "grid": [{"alpha": 0.5}, {"alpha": 2.0}]},
                        {"method": "laplacian", "config": {"alpha": 1.0}}]}


def _robust_inpaint(tmp_path):
    return {"task": "robust-inpaint", "seed": 3, "ratios": [0.7],
            "graph": {"kind": "cycle", "n": 30},
            "signal": {"synthetic": {"recipe": "diffusion", "noise_sigma": 0.05}},
            "corrupt": {"fraction": 0.1},
            "solvers": [{"method": "rgtvr", "config": {"gamma": 0.5}},
                        {"method": "gtvr", "config": {"alpha": 0.0}}]}


def _complete(tmp_path):
    shift = knn(40, 4, symmetrize=True)
    instance = synth_instance(shift, SyntheticSpec(n=40, l=6, rank=2), 4)
    save_bundle(tmp_path / "bundle", shift, instance,
                sample_mask(instance.observed.shape, 0.6, 4))
    return {"task": "complete", "seed": 4, "ratios": [0.6],
            "signal": {"bundle": str(tmp_path / "bundle")},
            "solvers": [{"method": "gmcm", "config": {"beta": 0.5}},
                        {"method": "gmcr", "config": {"beta": 0.5}},
                        {"method": "admm", "config": {"beta": 0.5}}]}


def _detect(tmp_path):
    return {"task": "detect", "seed": 5,
            "graph": {"kind": "knn", "n": 40, "k": 4},
            "signal": {"synthetic": {"rank": 3, "outliers_per_column": 2,
                                     "outlier_lo": 5.0, "outlier_hi": 8.0}},
            "solvers": [{"method": "anomaly", "config": {"gamma": 1.0}},
                        {"method": "anomaly-constrained", "eta_smooth": 1.0}]}


def _combine(tmp_path):
    return {"task": "combine", "seed": 6,
            "signal": {"opinions": {"n": 40, "experts": 5, "k": 4}},
            "solvers": [{"method": "avg"}, {"method": "gtvr-denoise"},
                        {"method": "gmcr-denoise", "config": {"beta": 0.5}}]}


@pytest.mark.parametrize("make", [_inpaint, _robust_inpaint, _complete, _detect,
                                  _combine], ids=lambda f: f.__name__[1:])
def test_run_never_reads_the_dense_view(tmp_path, monkeypatch, make):
    description = make(tmp_path)
    monkeypatch.setattr(GraphShift, "weights", property(_no_dense_view))
    assert _run(tmp_path, description) == 0
    rows = (tmp_path / "out" / "trials.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + len(description["solvers"])


# ---------------------------------------------------------------------------
# Lowest eigenpairs of tilde_shift by shift-invert Lanczos
# ---------------------------------------------------------------------------

def knn8(n, seed, **build):
    return build_knn_graph(random_features(n, 2, seed), GraphBuildSpec(k=8, **build))


EIGEN_GRAPHS = {
    "knn-row": lambda: knn8(300, 1),
    "knn-column": lambda: knn8(400, 2, normalization="column"),
    "knn-symmetrized": lambda: knn8(250, 3, symmetrize=True),
}


def projector(vectors):
    return vectors @ vectors.T


def rank_before_gap(values, lo=3, hi=12):
    """The r in [lo, hi] with the widest relative gap after the r lowest values."""
    gaps = [(values[r] - values[r - 1]) / values[r] for r in range(lo, hi + 1)]
    r = lo + int(np.argmax(gaps))
    assert max(gaps) > 0.05  # a gap worth the name, or the test shows nothing
    return r


@pytest.mark.parametrize("kind", sorted(EIGEN_GRAPHS))
class TestEigenBasis:
    def test_matches_dense_eigh(self, kind):
        shift = EIGEN_GRAPHS[kind]()
        values, vectors = np.linalg.eigh(dense_tilde(shift))
        r = rank_before_gap(values)
        basis = eigen_basis(shift, r)
        assert basis.shape == (shift.n, r)
        distance = np.abs(projector(basis) - projector(vectors[:, :r])).max()
        assert distance <= 1e-8
        np.testing.assert_allclose(basis.T @ basis, np.eye(r), rtol=0.0, atol=1e-10)
        low, _ = _lowest_eigenpairs(shift, r)
        np.testing.assert_allclose(low, values[:r], rtol=0.0, atol=1e-12 * values[-1])

    def test_sign_convention(self, kind):
        shift = EIGEN_GRAPHS[kind]()
        basis = eigen_basis(shift, 6)
        peak = np.argmax(np.abs(basis), axis=0)
        assert np.all(basis[peak, np.arange(6)] > 0.0)

    def test_repeated_calls_are_bitwise_equal(self, kind):
        shift = EIGEN_GRAPHS[kind]()
        np.testing.assert_array_equal(eigen_basis(shift, 5), eigen_basis(shift, 5))


@pytest.mark.parametrize("extra", [0, 1])
def test_eigen_basis_of_nearly_full_rank_is_the_dense_one(extra):
    shift = knn(12, 5)
    r = shift.n - 1 + extra
    vectors = np.linalg.eigh(dense_tilde(shift))[1][:, :r]
    peak = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(r)]
    np.testing.assert_allclose(eigen_basis(shift, r), vectors * np.sign(peak),
                               rtol=0.0, atol=1e-12)


def _no_dense_eigh(*args, **kwargs):
    raise AssertionError("dense np.linalg.eigh on the gsrec run path")


def test_non_convergence_is_an_error_without_a_dense_retry(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    monkeypatch.setattr(np.linalg, "eigh", _no_dense_eigh)
    with pytest.raises(EigensolveFailed):
        eigen_basis(knn(30, 1), 3)


def many_closed_classes():
    """A row-normalized kNN graph (k = 3) with 13 closed classes."""
    return build_knn_graph(random_features(297, 2, 136), GraphBuildSpec(k=3))


def assert_lowest_eigenvectors(shift, basis):
    """Orthonormal columns whose Rayleigh quotients are the lowest eigenvalues
    of ``tilde_shift``, each with residual at most 1e-10 of the largest."""
    rank = basis.shape[1]
    np.testing.assert_allclose(basis.T @ basis, np.eye(rank), rtol=0.0, atol=1e-10)
    tilde = dense_tilde(shift)
    values = np.linalg.eigh(tilde)[0]
    rayleigh = np.diag(basis.T @ tilde @ basis)
    np.testing.assert_allclose(rayleigh, values[:rank], rtol=0.0,
                               atol=1e-12 * values[-1])
    residual = np.linalg.norm(tilde @ basis - basis * rayleigh, axis=0)
    assert residual.max() <= 1e-10 * values[-1]


@pytest.mark.parametrize("rank", [2, 3])
def test_eigen_basis_on_many_closed_classes(eigsh_calls, rank):
    """13 closed classes repeat the zero eigenvalue of ``tilde_shift`` 13
    times. A shift scaled to the operator puts the wanted eigenvalues far
    apart in ``(T - sigma I)^{-1}``, so ARPACK converges at the first
    attempt, in its default Krylov space (an absolute shift of -1e-5
    stalled here for some 40 000 solves before a retry); any restarts draw
    from a fixed stream, so a fresh copy of the shift gets the same basis."""
    shift = many_closed_classes()
    basis = eigen_basis(shift, rank)
    assert len(eigsh_calls) == 1 and eigsh_calls[0]["ncv"] is None
    fresh = GraphShift(shift.matrix, normalized=True,
                       spectral_radius=shift.spectral_radius)
    np.testing.assert_array_equal(eigen_basis(fresh, rank), basis)
    assert_lowest_eigenvectors(shift, basis)


@pytest.mark.parametrize("make", [_inpaint, _detect], ids=lambda f: f.__name__[1:])
def test_run_makes_no_dense_eigh(tmp_path, monkeypatch, make):
    """Eigen-recipe draws, the one lowest-end eigensolve of a run."""
    description = make(tmp_path)
    monkeypatch.setattr(np.linalg, "eigh", _no_dense_eigh)
    assert _run(tmp_path, description) == 0
    rows = (tmp_path / "out" / "trials.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + len(description["solvers"])


# ---------------------------------------------------------------------------
# Operators a shift derives once and keeps
# ---------------------------------------------------------------------------

@pytest.fixture
def eigsh_calls(monkeypatch):
    """Records the keyword arguments of every ``eigsh`` call."""
    calls = []
    original = scipy.sparse.linalg.eigsh

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
    return calls


def spiky_signal(shift, seed, spikes=4):
    rng = np.random.default_rng(seed)
    t = eigen_basis(shift, 10) @ rng.normal(size=10)
    t[rng.choice(shift.n, spikes, replace=False)] += rng.uniform(5.0, 8.0, spikes)
    return t


def test_anomaly_constrained_factors_only_for_the_eigen_draw(monkeypatch):
    """The one factorization is the eigen draw's shift-invert LU of
    ``tilde_shift``; the lasso path factors nothing with SuperLU."""
    superlu = scipy.sparse.linalg._dsolve.linsolve._superlu
    factorizations = []
    original = superlu.gstrf

    def counted(*args, **kwargs):
        factorizations.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(superlu, "gstrf", counted)
    shift = knn8(300, 1)
    result = anomaly_detect_constrained(spiky_signal(shift, 2), shift, 1.0)
    assert result.meta["segments"] > 0  # the lasso path ran
    assert factorizations == [shift.n]


def test_eigen_basis_of_a_zero_tilde_shift():
    """A = I gives ``tilde_shift`` = 0, which has no row sum to scale the
    eigensolve's shift by; every vector is a lowest eigenvector."""
    shift = GraphShift(sp.eye_array(30, format="csr"), normalized=True,
                       spectral_radius=1.0)
    basis = eigen_basis(shift, 3)
    np.testing.assert_allclose(basis.T @ basis, np.eye(3), rtol=0.0, atol=1e-10)


def test_a_stalled_first_attempt_is_retried_in_a_tripled_space(monkeypatch):
    calls = []
    original = scipy.sparse.linalg.eigsh

    def first_stalls(*args, **kwargs):
        calls.append(kwargs["ncv"])
        if len(calls) == 1:
            raise scipy.sparse.linalg.ArpackNoConvergence("patched", [], [])
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", first_stalls)
    shift = knn8(300, 1)
    basis = eigen_basis(shift, 5)
    assert calls == [None, 3 * 20]
    assert_lowest_eigenvectors(shift, basis)


def test_eigen_draw_releases_its_lu(monkeypatch):
    """The shift-invert LU lives only while the draw runs; the shift keeps
    the eigenpairs. ``SuperLU`` takes no weak reference, so the test asks
    the garbage collector what still refers to it."""
    lus = []

    def recorded(*args, **kwargs):
        lus.append(SCIPY_SPLU(*args, **kwargs))
        return lus[-1]

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recorded)
    shift = knn8(300, 1)
    eigen_basis(shift, 5)
    gc.collect()
    assert len(lus) == 1
    assert gc.get_referrers(lus[0]) == [lus]
    assert 5 in shift._eigenpairs


def test_draws_on_one_shift_share_one_eigensolve(eigsh_calls):
    shift = knn(40, 4)
    spec = SyntheticSpec(n=40, l=2, rank=3, noise_sigma=0.1,
                         outliers_per_column=1, outlier_lo=1.0, outlier_hi=2.0)
    draws = [synth_instance(shift, spec, 4, 0, trial) for trial in range(2)]
    assert len(eigsh_calls) == 1
    for trial, draw in enumerate(draws):
        fresh = GraphShift(shift.matrix, normalized=True,
                           spectral_radius=shift.spectral_radius)
        again = synth_instance(fresh, spec, 4, 0, trial)
        np.testing.assert_array_equal(draw.observed, again.observed)
        np.testing.assert_array_equal(draw.x0, again.x0)
    assert len(eigsh_calls) == 3


def test_anomaly_constrained_solves_only_at_the_lowest_end(eigsh_calls):
    """The signal's eigen basis is the one eigensolve: the path makes none."""
    shift = knn8(300, 1)
    anomaly_detect_constrained(spiky_signal(shift, 2), shift, 1.0)
    assert len(eigsh_calls) == 1
    assert "sigma" in eigsh_calls[0]


def spiked_noise(n, seed, spikes=4):
    """White noise with a few large spikes: a signal drawn without an eigensolve."""
    rng = np.random.default_rng(seed)
    t = rng.normal(size=n)
    t[rng.choice(n, spikes, replace=False)] += rng.uniform(5.0, 8.0, spikes)
    return t


def test_anomaly_constrained_on_many_closed_classes_makes_no_eigensolve(eigsh_calls):
    """A row-normalized kNN graph with 13 closed classes, the next eigenvalue
    of ``tilde_shift`` at 3e-6: a shift-invert ``eigsh`` for its lowest end
    may not converge. The lasso path needs no eigensolve at all."""
    shift = build_knn_graph(random_features(297, 2, 136), GraphBuildSpec(k=3))
    assert scipy.linalg.null_space(np.eye(shift.n) - shift.matrix.toarray()).shape[1] == 13
    t = spiked_noise(shift.n, 0, spikes=6)
    variation = float(np.sum((t - shift.matrix @ t) ** 2))
    result = anomaly_detect_constrained(t, shift, np.sqrt(0.3 * variation))
    assert result.converged
    assert eigsh_calls == []


@pytest.mark.parametrize("fraction", [0.0, 1e-10, 1e-8])
def test_anomaly_constrained_meets_tiny_caps(fraction):
    """Caps of 0, 1e-10 and 1e-8 of the signal's variation are met, with the
    KKT conditions at the returned weight holding to 1e-8 relative.

    A weight search over penalized solves raised ``Infeasible`` at the first
    two caps, although the solution path meets both, and at the third
    certified a point whose KKT conditions were off by 5e-2 relative: its
    fixed-point bound of 1e-6 is absolute, and the weight there is tiny.
    """
    shift = build_knn_graph(random_features(60, 2, 7), GraphBuildSpec(k=4))
    t = spiked_noise(60, 3)
    variation = float(np.sum((t - shift.matrix @ t) ** 2))
    eta = np.sqrt(fraction * variation)
    result = anomaly_detect_constrained(t, shift, eta)
    assert result.converged
    d = result.x - shift.matrix @ result.x
    cap = eta ** 2 * (1.0 + 1e-6) + 1e-9 * (1.0 + variation)
    assert float(d @ d) <= cap
    assert oracles.lasso_kkt_violation(shift.matrix.toarray(), t, result.outliers,
                                       result.meta["beta_reg"]) <= 1e-8


CLOSED_CLASS_GRAPHS = {
    "two-clusters": two_clusters,
    "two-cycles": lambda seed: two_cycles(),
    "knn3-row": lambda seed: build_knn_graph(random_features(40, 2, seed),
                                             GraphBuildSpec(k=3)),
    "knn2-column": lambda seed: build_knn_graph(
        random_features(40, 2, seed), GraphBuildSpec(k=2, normalization="column")),
}


@pytest.mark.parametrize("kind", sorted(CLOSED_CLASS_GRAPHS))
def test_anomaly_constrained_is_l1_optimal_along_variation_free_signals(kind):
    """No move along ``null(I - A)`` lowers the returned ``||e||_1`` by more
    than 1e-9 relative, by the dense exact line search of
    ``oracles.l1_polish_oracle``.

    Why 1e-9. Write D = I - A and ``c = 2 D^T D (t - e)`` for the
    correlations at the returned weight beta. The KKT certificate puts
    ``c / beta`` within ``delta = meta["stationarity"]`` (at most 1e-8) of a
    subgradient g of ``||.||_1`` at e, and c is orthogonal to null(D), so
    every u in null(D) has ``||e + u||_1 >= ||e||_1 + g^T u >= ||e||_1 -
    delta ||u||_1``. The search never raises the norm, so ``||u||_1 <= 2
    ||e||_1``, and the relative gain is at most ``2 delta``. The path's
    delta is at rounding level here (at most 2.3e-15 measured), and the
    search itself gains only rounding: its sums have at most 40 terms of
    size at most ``3 ||e||_1``, about ``40 * 2^-53 * 3 < 2e-14`` relative,
    and it moves only on a gain above 1e-15 relative. 1e-9 leaves both 5
    orders of margin. The gain measured on every instance here is exactly
    0.
    """
    for seed in range(1, 9):
        shift = CLOSED_CLASS_GRAPHS[kind](seed)
        d = np.eye(shift.n) - shift.matrix.toarray()
        null = scipy.linalg.null_space(d)
        assert shift.n <= 40 and 1 <= null.shape[1] <= 5
        t = spiked_noise(shift.n, seed)
        variation = float(np.sum((d @ t) ** 2))
        eta = np.sqrt((0.1, 0.3, 0.6)[seed % 3] * variation)
        result = anomaly_detect_constrained(t, shift, eta)
        assert result.converged
        norm = float(np.abs(result.outliers).sum())
        polished = float(np.abs(oracles.l1_polish_oracle(result.outliers, null)).sum())
        assert norm - polished <= 1e-9 * norm


def test_solvers_leave_the_kept_operators_intact():
    shift = knn8(300, 3)
    at = tilde_shift(shift)
    t = spiky_signal(shift, 5)
    mask = sample_mask((shift.n,), 0.6, 5)
    gtvr(t, mask, shift, 0.7)
    gsr_admm(t, mask, shift, SolverConfig(gamma=0.5))
    anomaly_detect_constrained(t, shift, 1.0)
    assert tilde_shift(shift) is at
    d = sp.eye_array(shift.n, format="csr") - shift.matrix
    fresh = (d.T @ d).tocsr()
    np.testing.assert_array_equal(at.indptr, fresh.indptr)
    np.testing.assert_array_equal(at.indices, fresh.indices)
    np.testing.assert_array_equal(at.data, fresh.data)
    values, vectors = _lowest_eigenpairs(shift, 10)
    assert not values.flags.writeable and not vectors.flags.writeable
    with pytest.raises(ValueError):
        vectors[0, 0] = 1.0


# ---------------------------------------------------------------------------
# One factorization path, in SuperLU's symmetric mode
# ---------------------------------------------------------------------------

@pytest.fixture
def kept_lus(monkeypatch):
    """The SuperLU object of every ``splu`` call, in call order."""
    lus = []

    def recorded(*args, **kwargs):
        lus.append(SCIPY_SPLU(*args, **kwargs))
        return lus[-1]

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recorded)
    return lus


def fill(lu):
    return lu.L.nnz + lu.U.nnz


def test_fill_is_at_most_0_6_of_scipy_default(kept_lus):
    """``I + 2 T`` on n = 1000 kNN graphs, against COLAMD with partial pivoting.

    Per graph the ratio lies between 0.54 and 0.65 over seeds 1-10; summed
    over seeds 1-3 it is 0.59.
    """
    ours = default = 0
    for seed in (1, 2, 3):
        shift = knn8(1000, seed)
        h = sp.eye_array(shift.n) + 2.0 * tilde_shift(shift)
        factorized(h)
        ours += fill(kept_lus[-1])
        default += fill(SCIPY_SPLU(sp.csc_array(h)))
    assert len(kept_lus) == 3
    assert ours <= 0.6 * default


@pytest.mark.parametrize("make", [lambda: knn8(300, 3), lambda: GRAPHS["knn-column"](1),
                                  lambda: GRAPHS["cycle"](1)],
                         ids=["knn8-300", "knn-column", "cycle"])
def test_every_graph_system_pivots_on_its_diagonal(kept_lus, pinv_calls, make):
    shift = make()
    t, m = signal_and_mask(shift.n, 3)
    gtvm(t, m, shift)
    gtvr(t, m, shift, 0.7)
    laplacian_baseline(t, m, laplacian_from_shift(shift), 0.7)
    gsr_admm(t, m, shift, SolverConfig(gamma=0.5))
    _lowest_eigenpairs(shift, 2)  # the eigen draw factors once
    assert len(kept_lus) == 5 and pinv_calls == []
    for lu in kept_lus:
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)


def test_unsymmetric_system_with_a_tiny_diagonal_is_solved_stably():
    """Diagonal pivots are taken only above 0.1 of their column's largest.

    With a threshold of 0 the 1e-5 diagonal entries become the pivots, and
    their backward errors reach 3e-11, with a median near 5e-12.
    """
    rng = np.random.default_rng(1)
    for _ in range(200):
        h = rng.normal(size=(30, 30))
        np.fill_diagonal(h, 1e-5)
        b = rng.normal(size=30)
        y = factorized(h)(b)
        error = np.linalg.norm(h @ y - b) / (
            np.linalg.norm(h, 2) * np.linalg.norm(y) + np.linalg.norm(b))
        assert error <= 1e-12


def test_zero_diagonal_is_pivoted_off_the_diagonal(pinv_calls):
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(factorized(h)(np.array([2.0, 3.0])), [3.0, 2.0])
    assert pinv_calls == []


def test_a_definite_system_is_factored_without_copying_u(kept_lus):
    """``SuperLU.U`` builds a CSC copy of the whole U factor, and the
    SuperLU object keeps it; tracemalloc sees that copy (numpy arrays), not
    SuperLU's own storage. Declared definite, ``I + 2 T`` allocates less
    than the copy's data array at any moment; its pivot read allocates
    more."""
    shift = knn8(2000, 1)
    h = sp.csc_array(sp.eye_array(shift.n) + 2.0 * tilde_shift(shift))

    def peak(**kwargs):
        tracemalloc.start()
        try:
            factorized(h, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    definite, read = peak(definite=True), peak()
    u_data = 8 * kept_lus[-1].U.nnz
    assert definite < u_data <= read


@pytest.fixture
def pivot_reads(monkeypatch):
    """The size of every system whose pivots ``factorized`` reads (each
    ``SuperLU.U`` access), and of every system ``splu`` factors."""
    reads, factored = [], []

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def __getattr__(self, name):
            if name == "U":
                reads.append(self.lu.shape[0])
            return getattr(self.lu, name)

    def counted(h, **kwargs):
        factored.append(h.shape[0])
        return Counted(SCIPY_SPLU(h, **kwargs))

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    return reads, factored


def test_run_reads_pivots_of_the_semidefinite_systems_only(tmp_path, pivot_reads):
    """The eigen draw's ``T - sigma I`` and the ADMM's ``I + c T`` are
    positive definite, so only ``gtvm``, ``gtvr`` and ``laplacian`` read
    their pivots: 3 reads of 5 factorizations on a robust inpainting run,
    none of 1 on a completion run with ``admm``."""
    reads, factored = pivot_reads
    description = {"task": "robust-inpaint", "seed": 3, "ratios": [0.6],
                   "graph": {"kind": "knn", "n": 60, "k": 4},
                   "signal": {"synthetic": {"rank": 3, "noise_sigma": 0.05}},
                   "corrupt": {"fraction": 0.1},
                   "solvers": [{"method": "gtvm"},
                               {"method": "gtvr", "config": {"alpha": 1.0}},
                               {"method": "laplacian", "config": {"alpha": 1.0}},
                               {"method": "rgtvr", "config": {"gamma": 0.5}}]}
    assert _run(tmp_path, description) == 0
    assert len(factored) == 5 and len(reads) == 3
    complete = _complete(tmp_path)  # its bundle's eigen draw factors too
    complete["solvers"] = [{"method": "admm", "config": {"beta": 0.5}}]
    reads.clear()
    factored.clear()
    assert _run(tmp_path, complete) == 0
    assert factored == [40] and reads == []


@pytest.mark.parametrize("make", [_inpaint, _robust_inpaint, _complete, _detect,
                                  _combine], ids=lambda f: f.__name__[1:])
def test_run_factors_only_exactly_symmetric_systems(tmp_path, monkeypatch, make):
    """The minimum degree ordering of ``H + H^T`` assumes a symmetric H."""
    systems = []

    def recorded(h, **kwargs):
        systems.append(sp.csr_array(h))
        return factorized(h, **kwargs)

    monkeypatch.setattr(gsrec.solvers, "factorized", recorded)
    monkeypatch.setattr(gsrec.graph, "factorized", recorded)
    assert _run(tmp_path, make(tmp_path)) == 0
    assert systems
    for h in systems:
        assert (h - h.T).count_nonzero() == 0
