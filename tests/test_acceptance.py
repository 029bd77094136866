"""End-to-end acceptance checks for the whole library.

Each test covers one acceptance criterion, prints a single PASS or FAIL line
(run with ``pytest -s`` to see them), and enforces the criterion's tolerance
and runtime budget.  Constants marked as calibrated were frozen from
reference runs recorded in the development notes.
"""

import time

import numpy as np

from gsrec import (
    GraphBuildSpec,
    GraphShift,
    OutlierModel,
    SolverConfig,
    SyntheticSpec,
    anomaly_detect,
    anomaly_detect_constrained,
    build_knn_graph,
    gmcm,
    gmcr,
    gsr_admm,
    gtvm,
    gtvr,
    matrix_variation,
    normalize_shift,
    nuclear_tv_bound,
    quadratic_variation,
    random_features,
    residual_decomposition,
    rgtvr,
    sample_mask,
    shrink,
    spectral_decomposition,
    stream_rng,
    subspace_smoothness_bound,
    svt,
    synth_instance,
    tilde_shift,
    tv_svd_terms,
    verify_inpainting_bound,
)
from gsrec.cli import main as cli_main
from gsrec.experiments import ExperimentSpec, run_experiment
from oracles import shrink_grid_oracle, svt_grid_oracle


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def symmetric_shift(n, seed):
    rng = np.random.default_rng(seed)
    w = np.abs(rng.normal(size=(n, n)))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return normalize_shift(GraphShift(w))


def random_shift(n, seed):
    rng = np.random.default_rng(seed)
    w = np.abs(rng.normal(size=(n, n)))
    np.fill_diagonal(w, 0.0)
    return normalize_shift(GraphShift(w))


def smooth_vector(shift, seed, modes=2):
    vals, vecs = np.linalg.eigh(tilde_shift(shift).toarray())
    rng = np.random.default_rng(seed)
    x = vecs[:, :modes] @ rng.normal(size=modes)
    return x / np.linalg.norm(x)


def test_criterion_01_variation_svd_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for draw in range(200):
        n = int(rng.integers(2, 31))
        l = int(rng.integers(1, 9))
        shift = (symmetric_shift if draw % 2 else random_shift)(n, 100 + draw)
        x = rng.normal(size=(n, l))
        total = matrix_variation(x, shift)
        gap = abs(total - float(tv_svd_terms(x, shift).sum()))
        worst = max(worst, gap / (1.0 + total))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(1, ok, f"variation/SVD identity on 200 draws, worst "
                   f"relative gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_spectral_smoothness_bounds():
    started = time.perf_counter()
    rng = np.random.default_rng(22)
    nuclear_bad = 0
    subspace_bad = 0
    for draw in range(1000):
        n = int(rng.integers(2, 21))
        l = int(rng.integers(1, 7))
        shift = (symmetric_shift if draw % 2 else random_shift)(n, 500 + draw)
        x = rng.normal(size=(n, l))
        lhs, rhs = nuclear_tv_bound(x, shift)
        if lhs > rhs + 1e-10 * (1.0 + rhs):
            nuclear_bad += 1
    for draw in range(1000):
        n = int(rng.integers(2, 21))
        r = int(rng.integers(1, n + 1))
        shift = (symmetric_shift if draw % 2 else random_shift)(n, 1500 + draw)
        basis, _ = np.linalg.qr(rng.normal(size=(n, r)))
        a = rng.normal(size=r)
        lhs, rhs = subspace_smoothness_bound(basis, a, shift)
        if lhs > rhs + 1e-10 * (1.0 + rhs):
            subspace_bad += 1
    elapsed = time.perf_counter() - started
    ok = nuclear_bad == 0 and subspace_bad == 0 and elapsed < 30.0
    _report(2, ok, f"nuclear-norm bound violations {nuclear_bad}/1000, "
                   f"subspace bound violations {subspace_bad}/1000, "
                   f"{elapsed:.1f}s")


def test_criterion_03_hidden_error_bound():
    started = time.perf_counter()
    n = 30
    held = 0
    for seed in range(100):
        shift = symmetric_shift(n, 1000 + seed)
        x0 = smooth_vector(shift, 2000 + seed)
        rng = np.random.default_rng(3000 + seed)
        mask = rng.uniform(size=n) < 0.5
        if not mask.any():
            mask[0] = True
        res = gtvm(x0, mask, shift)
        chk = verify_inpainting_bound(shift, mask, x0, x0, res.x)
        assert chk.report.q < 2.0
        held += chk.holds
    elapsed = time.perf_counter() - started
    ok = held == 100 and elapsed < 60.0
    _report(3, ok, f"hidden-node error bound held on {held}/100 noiseless "
                   f"instances, {elapsed:.1f}s")


def test_criterion_04_closed_form_equivalence():
    started = time.perf_counter()
    worst_admm = 0.0
    for seed in range(20):
        n = 10 + seed
        shift = symmetric_shift(n, 4000 + seed)
        rng = np.random.default_rng(4100 + seed)
        t = rng.normal(size=n)
        mask = rng.uniform(size=n) < 0.7
        if not mask.any():
            mask[0] = True
        alpha = 0.5 + 0.1 * seed
        res = gsr_admm(t, mask, shift,
                       SolverConfig(alpha=alpha, beta=0.0, gamma=0.0,
                                    max_outer=8000))
        ref = gtvr(t, mask, shift, alpha)
        rel = np.linalg.norm(res.x - ref.x) / (1.0 + np.linalg.norm(ref.x))
        worst_admm = max(worst_admm, rel)
    worst_gmcm = 0.0
    for seed, (n, l) in enumerate(((14, 4), (22, 5))):
        shift = symmetric_shift(n, 4200 + seed)
        rng = np.random.default_rng(4300 + seed)
        T = rng.normal(size=(n, l))
        mask = rng.uniform(size=T.shape) < 0.6
        mask[0, :] = True
        res = gmcm(T, mask, shift, SolverConfig(beta=0.0))
        cols = np.column_stack(
            [gtvm(T[:, j], mask[:, j], shift).x for j in range(l)])
        worst_gmcm = max(worst_gmcm, float(np.max(np.abs(res.x - cols))))
    elapsed = time.perf_counter() - started
    ok = worst_admm <= 1e-4 and worst_gmcm <= 1e-4 and elapsed < 120.0
    _report(4, ok, f"splitting solver vs closed form {worst_admm:.2e} over 20 "
                   f"instances, projected gradient vs per-column closed form "
                   f"{worst_gmcm:.2e}, {elapsed:.1f}s")


def test_criterion_05_prox_operators():
    started = time.perf_counter()
    rng = np.random.default_rng(55)
    worst_shrink = 0.0
    for _ in range(60):
        x = float(rng.uniform(-2.5, 2.5))
        tau = float(rng.uniform(0.0, 1.5))
        worst_shrink = max(worst_shrink,
                           abs(float(shrink(np.array([x]), tau)[0])
                               - shrink_grid_oracle(x, tau)))
    worst_svt = 0.0
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, size=(2, 2))
        tau = float(rng.uniform(0.1, 1.0))
        worst_svt = max(worst_svt,
                        float(np.max(np.abs(svt(x, tau)[0]
                                            - svt_grid_oracle(x, tau)))))
    expansive = 0
    for _ in range(1000):
        tau = float(rng.uniform(0.0, 2.0))
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        if (np.linalg.norm(shrink(a, tau) - shrink(b, tau))
                > np.linalg.norm(a - b) + 1e-12):
            expansive += 1
        A = rng.normal(size=(5, 4))
        B = rng.normal(size=(5, 4))
        if (np.linalg.norm(svt(A, tau)[0] - svt(B, tau)[0])
                > np.linalg.norm(A - B) + 1e-12):
            expansive += 1
    elapsed = time.perf_counter() - started
    ok = (worst_shrink <= 1e-4 and worst_svt <= 2e-2 and expansive == 0
          and elapsed < 30.0)
    _report(5, ok, f"soft threshold vs grid {worst_shrink:.2e}, singular "
                   f"threshold vs grid {worst_svt:.2e}, expansive pairs "
                   f"{expansive}/2000, {elapsed:.1f}s")


def test_criterion_06_traces_and_stopping():
    checked = 0
    for shift_seed, shift in ((300, symmetric_shift(20, 300)),
                              (301, build_knn_graph(random_features(24, 2, 301),
                                                    GraphBuildSpec(k=5)))):
        n = shift.n
        rng = np.random.default_rng(shift_seed + 50)
        t = smooth_vector(shift, shift_seed + 60, modes=3) * 3.0
        t += 0.05 * rng.normal(size=n)
        spikes = rng.choice(n, size=2, replace=False)
        t[spikes] += np.array([4.0, -5.0])
        maskv = rng.uniform(size=n) < 0.7
        maskv[0] = True
        inst = synth_instance(shift, SyntheticSpec(n=n, l=6, rank=3,
                                                   noise_sigma=0.05),
                              shift_seed + 70)
        T = inst.observed
        maskm = rng.uniform(size=T.shape) < 0.5
        maskm[0, :] = True

        descent_runs = [
            gmcm(T, maskm, shift, SolverConfig(beta=0.02)),
            gmcr(T, maskm, shift, SolverConfig(alpha=1.0, beta=0.5)),
            anomaly_detect(t, shift, 0.8),
        ]
        admm_runs = [
            gsr_admm(T, maskm, shift,
                     SolverConfig(alpha=1.0, beta=0.2, gamma=0.1)),
            rgtvr(t, maskv, shift, SolverConfig(alpha=1.0, gamma=0.5)),
        ]
        budget = 0.5 * quadratic_variation(t, shift)
        constrained = anomaly_detect_constrained(t, shift, budget)

        # Gradient-descent-flavoured solvers must never let the objective
        # rise.  The splitting solvers record the objective at iterates
        # where the split copies still disagree, so their traces are only
        # required to settle under the objective-difference stop rule and
        # to end at a feasible split (see the module invariants).
        for res in descent_runs + [constrained]:
            trace = res.objective_trace
            slack = 1e-10 * (1.0 + float(np.max(np.abs(trace))))
            assert np.all(np.diff(trace) <= slack), res.meta["solver"]
            assert res.converged, res.meta["solver"]
            checked += 1
        for res in descent_runs + admm_runs:
            assert res.converged, res.meta["solver"]
            assert res.iterations < SolverConfig().max_outer, res.meta["solver"]
            trace = res.objective_trace
            assert len(trace) == res.iterations, res.meta["solver"]
            assert abs(trace[-1] - trace[-2]) < 1e-8, res.meta["solver"]
        checked += len(admm_runs)

        admm = admm_runs[0]
        split = np.linalg.norm(T - admm.x - admm.noise - admm.outliers
                               - admm.aux["slack"])
        dup = np.linalg.norm(admm.x - admm.aux["duplicate"])
        assert split <= 1e-6 * (1.0 + np.linalg.norm(T))
        assert dup <= 1e-6 * (1.0 + np.linalg.norm(admm.x))
        rob = admm_runs[1]
        rob_split = np.linalg.norm(t - rob.x - rob.noise - rob.outliers
                                   - rob.aux["slack"])
        assert rob_split <= 1e-6 * (1.0 + np.linalg.norm(t))
    _report(6, True, f"non-increasing descent traces, tolerance-rule "
                     f"termination, and splitting feasibility on {checked} "
                     f"solver runs")


def test_criterion_07_anomaly_support_recovery():
    started = time.perf_counter()
    exact = 0
    worst_dev = 0.0
    for seed in range(10):
        shift = build_knn_graph(random_features(100, 2, 1000 + seed),
                                GraphBuildSpec(k=8))
        inst = synth_instance(shift, SyntheticSpec(n=100, l=1, rank=5),
                              2000 + seed)
        x0 = inst.x0[:, 0]
        rng = stream_rng(3000 + seed, 99)
        support = np.sort(rng.choice(100, size=3, replace=False))
        spike = 10.0 * (x0.max() - x0.min())
        magnitudes = spike * rng.choice([-1.0, 1.0], size=3)
        t = x0.copy()
        t[support] += magnitudes
        res = anomaly_detect(t, shift, 1.0)
        found = np.flatnonzero(res.outliers)
        exact += np.array_equal(found, support)
        parts = residual_decomposition(
            x0, res.x, OutlierModel(support, magnitudes),
            spectral_decomposition(shift))
        worst_dev = max(worst_dev, parts.deviation)
    elapsed = time.perf_counter() - started
    ok = exact >= 9 and worst_dev <= 1e-8 and elapsed < 60.0
    _report(7, ok, f"exact spike support on {exact}/10 seeds, residual "
                   f"identity deviation {worst_dev:.2e}, {elapsed:.1f}s")


def test_criterion_08_completion_advantage():
    started = time.perf_counter()
    ours = []
    base = []
    for seed in range(10):
        shift = build_knn_graph(random_features(50, 2, 4000 + seed),
                                GraphBuildSpec(k=6))
        inst = synth_instance(shift, SyntheticSpec(n=50, l=20, rank=3,
                                                   noise_sigma=0.05),
                              5000 + seed)
        mask = sample_mask((50, 20), 0.4, 6000 + seed)
        hidden = ~mask
        res = gmcr(inst.observed, mask, shift,
                   SolverConfig(alpha=1.0, beta=0.5, max_outer=4000))
        ref = gmcr(inst.observed, mask, shift,
                   SolverConfig(alpha=0.0, beta=0.5, max_outer=4000))
        ours.append(float(np.sqrt(np.mean(
            (res.x[hidden] - inst.x0[hidden]) ** 2))))
        base.append(float(np.sqrt(np.mean(
            (ref.x[hidden] - inst.x0[hidden]) ** 2))))
    ratio = float(np.mean(ours) / np.mean(base))
    elapsed = time.perf_counter() - started
    ok = ratio <= 0.5 and elapsed < 300.0
    _report(8, ok, f"graph-regularized completion RMSE {np.mean(ours):.4f} vs "
                   f"nuclear-only {np.mean(base):.4f} (ratio {ratio:.3f}) on "
                   f"10 hidden-entry suites, {elapsed:.1f}s")


def test_criterion_09_robustness_ordering(tmp_path):
    started = time.perf_counter()
    raw = {
        "task": "robust-inpaint",
        "seed": 71,
        "trials": 10,
        "ratios": [0.3, 0.45, 0.6, 0.75, 0.9],
        "graph": {"kind": "knn", "n": 60, "dim": 2, "k": 6},
        "signal": {"synthetic": {"l": 1, "rank": 5}},
        "corrupt": {"fraction": 1.0 / 3.0, "mode": "regression"},
        "solvers": [{"method": "gtvr", "config": {"alpha": 1.0}},
                    {"method": "rgtvr",
                     "config": {"alpha": 1.0, "gamma": 0.5}}],
    }
    report = run_experiment(ExperimentSpec.from_dict(raw), tmp_path)
    per_ratio = {}
    for agg in report["aggregates"]:
        per_ratio.setdefault(agg["ratio"], {})[agg["method"]] = agg["mean_mse"]
    ordered = {r: per_ratio[r]["rgtvr"] < per_ratio[r]["gtvr"]
               for r in per_ratio}
    elapsed = time.perf_counter() - started
    ok = len(ordered) == 5 and all(ordered.values()) and elapsed < 300.0
    _report(9, ok, f"robust inpainting beat the plain solver in "
                   f"{sum(ordered.values())}/5 ratio buckets over 10 trials "
                   f"each, {elapsed:.1f}s")


def test_criterion_10_deterministic_reports(tmp_path):
    import json

    desc = {
        "task": "inpaint",
        "seed": 13,
        "trials": 3,
        "ratios": [0.4, 0.7],
        "graph": {"kind": "knn", "n": 25, "dim": 2, "k": 4},
        "signal": {"synthetic": {"l": 1, "rank": 3, "noise_sigma": 0.1}},
        "solvers": [{"method": "gtvm"},
                    {"name": "gtvr-cv", "method": "gtvr",
                     "grid": [{"alpha": 0.1}, {"alpha": 1.0}]}],
    }
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(desc))
    assert cli_main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "trials.csv").read_bytes()
    second = (tmp_path / "b" / "trials.csv").read_bytes()
    ok = first == second and len(first) > 0
    _report(10, ok, f"repeated runs produced byte-identical trial tables "
                    f"({len(first)} bytes)")
