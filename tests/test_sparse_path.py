"""The sparse operator path against dense references built here.

Every closed form factors a sparse system once; these tests rebuild each
system densely from ``GraphShift.weights`` and solve it with
``np.linalg.lstsq`` (or ``np.linalg.pinv`` where it is singular), and they
run every ``gsrec run`` task with the dense view switched off. The Lanczos
eigenpairs of ``tilde_shift`` are checked against a dense ``np.linalg.eigh``
made here, and the run path is run with that ``eigh`` switched off.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp

import scipy.sparse.linalg

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
    anomaly_detect_constrained,
    build_knn_graph,
    cycle_shift,
    eigen_basis,
    gsr_admm,
    gtvm,
    gtvr,
    laplacian_baseline,
    laplacian_from_shift,
    normalize_shift,
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
from gsrec.solvers import MAX_BISECT, _variation_free

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
    d = np.eye(shift.n) - shift.weights
    return d.T @ d


def dense_laplacian(shift):
    w = np.maximum(np.maximum(shift.weights, shift.weights.T), 0.0)
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

    def counted(H, b):
        calls.append(H.shape)
        return original(H, b)

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
    return normalize_shift(GraphShift(w))


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
        assert len(pinv_calls) == 1

    def test_gtvr_unmeasured_closed_class(self, kind, pinv_calls):
        shift = SINGULAR[kind]()
        m = first_block_mask(shift.n)
        t = np.random.default_rng(6).normal(size=shift.n)
        ref = np.linalg.pinv(np.diag(m.astype(float)) + dense_tilde(shift)) @ (m * t)
        assert_close(gtvr(t, m, shift, 1.0).x, ref, 1e-8)
        assert len(pinv_calls) == 1

    def test_laplacian_unmeasured_component(self, kind, pinv_calls):
        shift = SINGULAR[kind]()
        m = first_block_mask(shift.n)
        t = np.random.default_rng(7).normal(size=shift.n)
        lap = dense_laplacian(shift)
        ref = np.linalg.pinv(np.diag(m.astype(float)) + 2.0 * lap) @ (m * t)
        got = laplacian_baseline(t, m, laplacian_from_shift(shift), 2.0).x
        assert_close(got, ref, 1e-8)
        assert len(pinv_calls) == 1

    def test_gtvr_alpha_zero(self, kind, pinv_calls):
        shift = SINGULAR[kind]()
        t, m = signal_and_mask(shift.n, 8)
        ref = np.linalg.pinv(np.diag(m.astype(float))) @ (m * t)
        assert_close(gtvr(t, m, shift, 0.0).x, ref, 1e-8)
        assert len(pinv_calls) == 1


class TestFactorized:
    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatch):
            factorized(sp.csr_array(np.ones((2, 3))))

    def test_tiny_pivot_takes_minimum_norm(self, pinv_calls):
        h = np.diag([1.0, 1e-13])
        np.testing.assert_allclose(factorized(h)(np.array([2.0, 1.0])), [2.0, 0.0])
        assert len(pinv_calls) == 1


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


def test_variation_free_subspace_of_two_closed_classes():
    """Block-diagonal union of two kNN graphs: one null vector per block."""
    blocks = [knn8(200, 1), knn8(300, 2)]
    shift = normalize_shift(GraphShift(sp.block_diag([b.matrix for b in blocks])))
    values, vectors = np.linalg.eigh(dense_tilde(shift))
    dense_null = vectors[:, values <= 1e-12 * max(values[-1], 1.0)]
    assert dense_null.shape[1] == 2
    null_basis = _variation_free(shift)
    assert null_basis.shape == (shift.n, 2)
    distance = np.abs(projector(null_basis) - projector(dense_null)).max()
    assert distance <= 1e-10


def _no_dense_eigh(*args, **kwargs):
    raise AssertionError("dense np.linalg.eigh on the gsrec run path")


def test_non_convergence_is_an_error_without_a_dense_retry(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    monkeypatch.setattr(np.linalg, "eigh", _no_dense_eigh)
    with pytest.raises(EigensolveFailed):
        eigen_basis(knn(30, 1), 3)


@pytest.mark.parametrize("make", [_inpaint, _detect], ids=lambda f: f.__name__[1:])
def test_run_makes_no_dense_eigh(tmp_path, monkeypatch, make):
    """Eigen-recipe draws and the variation-free subspace of anomaly-constrained."""
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


def test_eigen_basis_and_anomaly_constrained_share_one_factorization(monkeypatch):
    superlu = scipy.sparse.linalg._dsolve.linsolve._superlu
    factorizations = []
    original = superlu.gstrf

    def counted(*args, **kwargs):
        factorizations.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(superlu, "gstrf", counted)
    shift = knn8(300, 1)
    result = anomaly_detect_constrained(spiky_signal(shift, 2), shift, 1.0)
    assert result.meta["bisections"] > 0  # the variation-free subspace was needed
    assert factorizations == [shift.n]


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


def test_variation_free_makes_one_lowest_end_solve(eigsh_calls):
    shift = knn8(300, 1)
    null_basis = _variation_free(shift)
    assert null_basis.shape == (shift.n, 1)  # connected: one closed class
    assert len(eigsh_calls) == 1 and "sigma" in eigsh_calls[0]


def test_anomaly_constrained_solves_only_at_the_lowest_end(eigsh_calls):
    """The signal's eigen basis and the variation-free subspace: no other solve."""
    shift = knn8(300, 1)
    anomaly_detect_constrained(spiky_signal(shift, 2), shift, 1.0)
    assert len(eigsh_calls) == 2
    assert all("sigma" in call for call in eigsh_calls)


def test_anomaly_constrained_bisects_one_bracket(monkeypatch):
    """MAX_BISECT weights, each strictly inside the bracket the earlier ones left.

    A weight counts as feasible when it is at most the returned weight, the
    largest one that met the cap.
    """
    shift = knn8(300, 1)
    t = spiky_signal(shift, 2)
    weights = []
    original = gsrec.solvers.anomaly_detect

    def recorded(t, shift, beta_reg, *args, **kwargs):
        if not weights or weights[-1] != beta_reg:  # polish re-solves repeat it
            weights.append(beta_reg)
        return original(t, shift, beta_reg, *args, **kwargs)

    monkeypatch.setattr(gsrec.solvers, "anomaly_detect", recorded)
    beta_star = anomaly_detect_constrained(t, shift, 1.0).meta["beta_reg"]
    assert len(weights) == len(set(weights)) == MAX_BISECT
    beta_hi = 1.001 * 2.0 * float(np.max(np.abs(tilde_shift(shift) @ t)))
    first = next(i for i, beta in enumerate(weights) if beta <= beta_star)
    assert first >= 2  # the halving part is not empty
    assert weights[:first + 1] == [beta_hi / 2 ** (i + 1) for i in range(first + 1)]
    lo, hi = 0.0, beta_hi
    for beta in weights:
        assert lo < beta < hi
        if beta <= beta_star:
            lo = beta
        else:
            hi = beta
    assert lo == beta_star
    assert hi - lo == pytest.approx(beta_hi / 2 ** MAX_BISECT, rel=1e-3)


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
    shift._tilde_inverse  # built on first use, from one factorization
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


@pytest.mark.parametrize("make", [_inpaint, _robust_inpaint, _complete, _detect,
                                  _combine], ids=lambda f: f.__name__[1:])
def test_run_factors_only_exactly_symmetric_systems(tmp_path, monkeypatch, make):
    """The minimum degree ordering of ``H + H^T`` assumes a symmetric H."""
    systems = []

    def recorded(h):
        systems.append(sp.csr_array(h))
        return factorized(h)

    monkeypatch.setattr(gsrec.solvers, "factorized", recorded)
    monkeypatch.setattr(gsrec.graph, "factorized", recorded)
    assert _run(tmp_path, make(tmp_path)) == 0
    assert systems
    for h in systems:
        assert (h - h.T).count_nonzero() == 0
