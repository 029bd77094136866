"""The public surface: every exported name has a caller, every signal is checked."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import gsrec
from gsrec.analysis import OutlierModel

ROOT = Path(__file__).resolve().parents[1]


def _scanned_files():
    yield from sorted((ROOT / "src" / "gsrec").glob("*.py"))
    yield from sorted((ROOT / "demos").glob("*.py"))
    yield from sorted((ROOT / "bench").glob("*.py"))
    yield ROOT / "tests" / "test_acceptance.py"


def _referenced_names() -> set[str]:
    """Names read as a variable or an attribute in the scanned files.

    Imports do not count, so the package's re-exports are no caller; nor
    does a name's use inside its own top-level definition.
    """
    names = set()
    for path in _scanned_files():
        for statement in ast.parse(path.read_text(), filename=str(path)).body:
            own = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    names.add(name)
    return names


def test_every_exported_function_and_class_has_a_caller():
    # a caller in the package, a demo, the benchmark or an acceptance
    # criterion; a helper only its own unit tests read is dead weight
    exported = [name for name in gsrec.__all__
                if inspect.isfunction(getattr(gsrec, name))
                or inspect.isclass(getattr(gsrec, name))]
    assert len(exported) > 50
    unread = sorted(set(exported) - _referenced_names())
    assert not unread, f"exported but read by no code: {unread}"


SHIFT = gsrec.cycle_shift(4)
BASIS = gsrec.spectral_decomposition(SHIFT)
MASK = np.ones(4, dtype=bool)
NONE = OutlierModel(np.zeros(0, dtype=int), np.zeros(0))
SIGNAL_TAKERS = {
    "quadratic_variation": lambda x: gsrec.quadratic_variation(x, SHIFT),
    "matrix_variation": lambda x: gsrec.matrix_variation(x, SHIFT),
    "gft": lambda x: gsrec.gft(x, BASIS),
    "igft": lambda x: gsrec.igft(x, BASIS),
    "laplacian_baseline": lambda x: gsrec.laplacian_baseline(
        x, MASK, gsrec.laplacian_from_shift(SHIFT), 1.0),
    "gtvm": lambda x: gsrec.gtvm(x, MASK, SHIFT),
    "gtvr": lambda x: gsrec.gtvr(x, MASK, SHIFT, 1.0),
    "rgtvr": lambda x: gsrec.rgtvr(x, MASK, SHIFT),
    "gmcm": lambda x: gsrec.gmcm(x, MASK, SHIFT),
    "gmcr": lambda x: gsrec.gmcr(x, MASK, SHIFT),
    "gsr_admm": lambda x: gsrec.gsr_admm(x, MASK, SHIFT),
    "anomaly_detect": lambda x: gsrec.anomaly_detect(x, SHIFT, 1.0),
    "anomaly_detect_constrained": lambda x: gsrec.anomaly_detect_constrained(
        x, SHIFT, 1.0),
    "solve_recovery": lambda x: gsrec.solve_recovery("gtvr", x, np.bool_(True), SHIFT),
    "combine_opinions": lambda x: gsrec.combine_opinions(x, "avg"),
    "cross_validate": lambda x: gsrec.cross_validate(
        "gtvr", x, np.bool_(True), SHIFT, [gsrec.SolverConfig()], 0),
    "tv_svd_terms": lambda x: gsrec.tv_svd_terms(x, SHIFT),
    "nuclear_tv_bound": lambda x: gsrec.nuclear_tv_bound(x, SHIFT),
    "subspace_smoothness_bound": lambda x: gsrec.subspace_smoothness_bound(
        x, np.ones(1), SHIFT),
    "residual_decomposition": lambda x: gsrec.residual_decomposition(x, x, NONE, BASIS),
    "verify_inpainting_bound": lambda x: gsrec.verify_inpainting_bound(
        SHIFT, MASK, x, np.ones(4), np.ones(4)),
}


@pytest.mark.parametrize("call", SIGNAL_TAKERS.values(), ids=SIGNAL_TAKERS.keys())
def test_zero_dimensional_signal_is_a_dimension_mismatch(call):
    # a scalar has no node axis: the shape check names it, no IndexError
    with pytest.raises(gsrec.DimensionMismatch):
        call(np.float64(1.0))


def test_only_graph_computes_or_checks_a_radius():
    # a GraphShift is normalized when it is made, in graph.py, so no other
    # module computes a spectral radius or checks that a shift has one
    names = {"spectral_radius", "normalize_shift", "_require_normalized"}
    calls = []
    for path in sorted((ROOT / "src" / "gsrec").glob("*.py")):
        if path.name == "graph.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert not calls, f"radius computed or checked outside graph.py: {calls}"
    assert not hasattr(gsrec.graph, "_require_normalized")


def test_only_solvers_builds_a_recovery_result():
    # every solve's result is built in solvers.py, a one-step solve's by
    # _closed_form, so what a result says is decided in one module
    calls = []
    for path in sorted((ROOT / "src" / "gsrec").glob("*.py")):
        if path.name == "solvers.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "RecoveryResult":
                    calls.append(f"{path.name}:{node.lineno}")
    assert not calls, f"RecoveryResult built outside solvers.py: {calls}"


def test_only_io_maps_errors_to_config_errors():
    # how an outside value becomes a setting, and when a bad one is a config
    # error, is decided in io.py: no other module catches a TypeError,
    # ValueError or GsrecError to raise a ConfigError
    caught = {"TypeError", "ValueError", "GsrecError"}
    mappings = []
    for path in sorted((ROOT / "src" / "gsrec").glob("*.py")):
        if path.name == "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            names = {n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
                     for n in ast.walk(node.type)}
            raised = {n.exc.func.id for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
                      and isinstance(n.exc.func, ast.Name)}
            if names & caught and "ConfigError" in raised:
                mappings.append(f"{path.name}:{node.lineno}")
    assert not mappings, f"errors mapped to ConfigError outside io.py: {mappings}"


def test_only_io_reads_json():
    # every JSON file is opened and decoded by io.read_json, so no other
    # function decodes JSON, and none maps a decoding error its own way
    calls = []
    for path in sorted((ROOT / "src" / "gsrec").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name == "io.py":
            tree.body = [s for s in tree.body if getattr(s, "name", None) != "read_json"]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                calls.append(f"{path.name}:{node.lineno} json.{node.attr}")
    assert not calls, f"JSON decoded outside io.read_json: {calls}"


def test_solvers_are_reached_only_through_solve_recovery():
    # the runner and the CLI make every solve with solve_recovery, the call
    # a run's rows come from; outside solvers.py only it and the combiner it
    # dispatches to call a solver
    solvers = {"gtvm", "gtvr", "rgtvr", "gmcm", "gmcr", "gsr_admm", "anomaly_detect",
               "anomaly_detect_constrained", "laplacian_baseline", "combine_opinions"}
    callers = {"solve_recovery", "combine_opinions"}
    calls = []
    for path in sorted((ROOT / "src" / "gsrec").glob("*.py")):
        if path.name == "solvers.py":
            continue
        for statement in ast.parse(path.read_text(), filename=str(path)).body:
            if getattr(statement, "name", None) in callers:
                continue
            for node in ast.walk(statement):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(
                        func, "attr", None)
                    if name in solvers:
                        calls.append(f"{path.name}:{node.lineno} {name}")
    assert not calls, f"solver called outside solve_recovery: {calls}"
