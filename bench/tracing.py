"""Spans and call counts around the public functions of each gsrec layer.

Nothing under ``src/`` is edited: :func:`install` replaces every name a caller
looks a function up by (``gsrec.solvers.svt``, ``gsrec.experiments.regularized_solve``,
``numpy.linalg.svd``, ...) with a wrapper that records one span per call.
Spans are kept in memory; :meth:`Tracer.summary` folds one job's spans into
per-name inclusive time, self time, call and iteration counts.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

# gsrec modules whose public functions are traced; ``analysis`` is on no
# ``gsrec run`` path and stays out.
LAYERS = ("cli", "experiments", "io", "datagen", "graph", "prox", "solvers")

# LAPACK entry points, by the module that owns the name gsrec looks up.
LAPACK = (("numpy.linalg", "svd"), ("numpy.linalg", "eigvals"),
          ("numpy.linalg", "eigh"), ("scipy.linalg", "cho_factor"),
          ("scipy.linalg", "cho_solve"))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    iterations: int | None = None


class Tracer:
    """Records spans for the calls made through installed wrappers.

    ``capture`` names functions whose arguments and results are kept (in
    call order) while ``capturing`` is true, for the correctness checks.
    """

    def __init__(self, capture: tuple[str, ...] = ()):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.capture = set(capture)
        self.capturing = False
        self.captured: list[tuple[str, tuple, dict, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            iterations = getattr(result, "iterations", None)
            if isinstance(iterations, int):
                span.iterations = iterations
            if self.capturing and name in self.capture:
                self.captured.append((name, args, kwargs, result))
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``s`` (inclusive), ``self_s``, ``calls``, ``iterations``.

        Inclusive time counts only the outermost span of a name, so a
        function that calls itself is not counted twice. Self time is a
        span's duration minus the durations of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            entry = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0,
                                               "calls": 0, "iterations": 0})
            duration = span.end - span.start
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[index]
            entry["iterations"] += span.iterations or 0
            if not self._has_ancestor(span, span.name):
                entry["s"] += duration
        return out

    def count_under(self, name: str, ancestors: tuple[str, ...]) -> int:
        """Calls of ``name`` made (directly or not) inside any of ``ancestors``."""
        return sum(1 for span in self.spans if span.name == name
                   and any(self._has_ancestor(span, a) for a in ancestors))

    def _has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent >= 0:
            up = self.spans[parent]
            if up.name == name:
                return True
            parent = up.parent
        return False

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "iterations": s.iterations}
                for s in self.spans]


def _public_functions(module) -> list[tuple[str, object]]:
    return [(attr, value) for attr, value in vars(module).items()
            if not attr.startswith("_") and inspect.isfunction(value)
            and value.__module__ == module.__name__]


def install(tracer: Tracer) -> None:
    """Wrap every traced function at every name gsrec looks it up by.

    Must run after ``gsrec`` is imported and before the first job.
    """
    import importlib

    gsrec_modules = [m for n, m in sorted(sys.modules.items())
                     if m is not None and (n == "gsrec" or n.startswith("gsrec."))]
    targets: list[tuple[str, object, object, str]] = []
    for layer in LAYERS:
        module = importlib.import_module(f"gsrec.{layer}")
        for attr, fn in _public_functions(module):
            targets.append((f"{layer}.{attr}", fn, module, attr))
    for module_name, attr in LAPACK:
        module = importlib.import_module(module_name)
        targets.append((f"lapack.{attr}", getattr(module, attr), module, attr))

    for name, fn, home, attr in targets:
        wrapper = tracer.wrap(name, fn)
        setattr(home, attr, wrapper)
        for module in gsrec_modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
