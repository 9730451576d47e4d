"""Span tracer that measures chancap's layers from outside the package.

Every public function of the traced modules is wrapped and the wrapper is
bound under each name that already pointed at the original, in every chancap
module: ``from .capacity import blahut_arimoto`` gives ``chancap.adaptive``
its own binding, and calls through it must be traced too.  Dataclass
validation (``__post_init__``) is wrapped on the class.  Nelder-Mead is
reached through the ``minimize`` name that ``chancap.capacity`` imported from
scipy; its wrapper also wraps the objective it is handed, so every objective
evaluation is a span of its own.

Spans (name, parent span, op, start, end) live in flat arrays while the
tracer is installed; ``restore`` puts every original binding back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("linalg", "channels", "information", "blocks", "capacity", "adaptive")
ALL_MODULES = ("chancap",) + tuple(f"chancap.{m}" for m in TRACED_MODULES + ("rand", "cli"))

ESTIMATORS = ("shannon_capacity", "holevo_capacity", "measured_input_bound", "fixed_measurement_capacity")
_PARAMS = ("pure_states_from_params", "povm_elements_from_params", "density_from_params")
_ADAPTIVE = {
    "best_conditional_information": "best_conditional",
    "additivity_experiment": "additivity",
    "dual_conditional": "dual_conditional",
    "flatten": "flatten",
    "chain_identity_check": "chain_identity",
}
OBJECTIVE = "capacity:objective"


def layer_of(span_name: str) -> str:
    """Per-layer metric group of a span name ``module:qualname``."""
    module, _, fn = span_name.partition(":")
    if module == "capacity":
        if fn == "blahut_arimoto":
            return "capacity.ba"
        if fn == "max_holevo_weights":
            return "capacity.holevo_weights"
        if fn in _PARAMS:
            return "capacity.params"
        if fn == "minimize":
            return "capacity.nm"
        if fn == "objective":
            return "capacity.objective"
        if fn in ESTIMATORS:
            return f"capacity.{fn}"
        return "capacity.other"
    if module == "adaptive":
        return "adaptive." + _ADAPTIVE.get(fn, "other")
    return module


class Tracer:
    """Install with ``with Tracer() as t:``; spans stay in memory until ``write``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.current_op = -1
        self.ba_iterations = 0
        self.ba_capped = 0
        self.estimates = 0
        self.converged = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, fn, name: str):
        """``fn`` with a span named ``name`` around every call."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter
        stack, names, parents, ops, t0s, t1s = self._stack, self.name, self.parent, self.op, self.t0, self.t1
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t0s)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()

        return traced

    def _ba_counting(self, fn):
        """Blahut-Arimoto run with ``full_output`` so its iterations are counted."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            wanted_full = bound.arguments["full_output"]
            bound.arguments["full_output"] = True
            out = fn(*bound.args, **bound.kwargs)
            steps = out[2]["iterations"] - 1  # the history starts with the initial bound
            self.ba_iterations += steps
            self.ba_capped += steps >= int(bound.arguments["max_iters"])
            return out if wanted_full else out[:2]

        return counted

    def _estimator_counting(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.estimates += 1
            self.converged += bool(result.converged)
            return result

        return counted

    def _nm_objective_wrapping(self, fn):
        @functools.wraps(fn)
        def minimize(fun, *args, **kwargs):
            return fn(self.wrap(fun, OBJECTIVE), *args, **kwargs)

        return minimize

    # -- install / restore ---------------------------------------------

    def _targets(self):
        """(original, wrapper) for every traced callable, and the classes to patch."""
        wrappers = {}
        classes = []
        for short in TRACED_MODULES:
            mod = sys.modules[f"chancap.{short}"]
            for attr, val in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    inner = val
                    if short == "capacity" and attr == "blahut_arimoto":
                        inner = self._ba_counting(val)
                    elif short == "capacity" and attr in ESTIMATORS:
                        inner = self._estimator_counting(val)
                    wrappers[id(val)] = (val, self.wrap(inner, f"{short}:{attr}"))
                elif inspect.isclass(val) and val.__module__ == mod.__name__ and "__post_init__" in vars(val):
                    classes.append((short, val))
        nm = sys.modules["chancap.capacity"].minimize
        wrappers[id(nm)] = (nm, self.wrap(self._nm_objective_wrapping(nm), "capacity:minimize"))
        return wrappers, classes

    def install(self) -> "Tracer":
        wrappers, classes = self._targets()
        for modname in ALL_MODULES:
            mod = sys.modules[modname]
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        for short, cls in classes:
            orig = vars(cls)["__post_init__"]
            self._patches.append((cls, "__post_init__", orig))
            cls.__post_init__ = self.wrap(orig, f"{short}:{cls.__name__}.__post_init__")
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def run_op(self, op_index: int, kind: str, fn, arg):
        """``fn(arg)`` under a root span ``op:<kind>``; every span it causes carries ``op_index``."""
        self.current_op = op_index
        try:
            return self.wrap(fn, f"op:{kind}")(arg)
        finally:
            self.current_op = -1

    # -- analysis ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "t0": np.frombuffer(self.t0, dtype=np.float64),
            "t1": np.frombuffer(self.t1, dtype=np.float64),
        }

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name that was called: calls, self time and inclusive time, in seconds.

        Self time is a span's duration minus the durations of its direct
        children, so nested calls are not counted twice.
        """
        a = self.arrays()
        n = len(a["t0"])
        if n == 0:
            return {}
        dur = a["t1"] - a["t0"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=dur - child, minlength=k)
        busy_s = np.bincount(a["name"], weights=dur, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "busy_s": float(busy_s[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """``span_totals`` summed per layer (see ``layer_of``)."""
        totals: dict[str, dict[str, float]] = {}
        for name, t in self.span_totals().items():
            acc = totals.setdefault(layer_of(name), {"calls": 0, "self_s": 0.0, "busy_s": 0.0})
            for key, v in t.items():
                acc[key] += v
        return totals

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
