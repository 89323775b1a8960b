"""Span tracer that measures the package's layers from outside.

`Tracer.install()` replaces every module binding of each target function
(including by-name imports such as `bvp.panel_rule` and the copies of
`gauss_hermite_rule` in solver, heatflow and gaussop) with a wrapper that
records a span: name, start, end, parent span and operation id.  Spans stay
in memory; `summary()` turns them into per-function call counts and self
time (duration minus the time covered by direct child spans), and `export()`
gives a JSON-ready form that a child process can hand back to its parent.

Three targets carry extra bookkeeping:
  * solver.apply_K_panels records its kernel key (ts, breaks, halfwidth),
    so the share of calls a kernel cache could serve is known, and the
    break set of every call, per operation (the traffic census);
  * solver.power_interpolant wraps the callable it returns, so spline build
    time and evaluation time are reported apart;
  * solver.fixed_point_iterate adds result.iterations to a counter.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import zlib

import numpy as np

TARGETS = {
    "basis": ("gauss_hermite_rule", "eval_H", "eval_V", "inner_product", "project"),
    "gaussop": ("apply_K_point",),
    "solver": (
        "panel_rule",
        "detect_sign_changes",
        "apply_K_panels",
        "power_interpolant",
        "fixed_point_iterate",
        "residual",
        "conservation_laws_check",
        "limit_diagnostics",
    ),
    "heatflow": (
        "poisson_eval",
        "poisson_dt",
        "energy_identity_residual",
        "track_zeros",
        "branching_roots",
        "heat_polynomial",
    ),
    "bvp": ("local_zero_analysis",),
    "cli": ("main",),
}

PACKAGE = "padic_string"
EVAL_SPAN = "solver.power_interpolant.eval"


def span_names() -> list[str]:
    """Every span name a traced run can report, in a fixed order."""
    names = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]
    names.insert(names.index("solver.power_interpolant") + 1, EVAL_SPAN)
    return names


def kernel_key(ts, breaks, halfwidth) -> tuple:
    """What an apply_K_panels kernel depends on: the sample points, the breaks and the window."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    return (int(ts.size), zlib.crc32(ts.tobytes()), tuple(float(b) for b in breaks), float(halfwidth))


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op = None
        self.kernel_calls = 0
        self.kernel_repeats = 0
        self.kernel_keys: set[tuple] = set()
        self.break_sets: dict = {}  # op id -> {breaks tuple: calls}
        self.iterations = 0
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(rec)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            rec[1] = start
            self._stack.pop()

    def _plain(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def _kernel(self, name, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = kernel_key(bound.arguments["ts"], bound.arguments["breaks"], bound.arguments["halfwidth"])
            self.kernel_calls += 1
            if key in self.kernel_keys:
                self.kernel_repeats += 1
            self.kernel_keys.add(key)
            seen = self.break_sets.setdefault(self.op, {})
            seen[key[2]] = seen.get(key[2], 0) + 1
            return self.call(name, fn, args, kwargs)

        return wrapper

    def _interpolant(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phi = self.call(name, fn, args, kwargs)

            def traced_phi(t):
                return self.call(EVAL_SPAN, phi, (t,), {})

            return traced_phi

        return wrapper

    def _solve(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            self.iterations += int(result.iterations)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every target in the loaded package modules."""
        import importlib

        special = {
            "solver.apply_K_panels": self._kernel,
            "solver.power_interpolant": self._interpolant,
            "solver.fixed_point_iterate": self._solve,
        }
        for mod in TARGETS:
            importlib.import_module(f"{PACKAGE}.{mod}")
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod, fns in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{mod}"]
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                name = f"{mod}.{fn_name}"
                wrapper = special.get(name, self._plain)(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
                            self.bindings.setdefault(name, []).append(f"{module.__name__}.{attr}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, list]:
        """name -> [calls, self seconds] over the recorded spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child
        return out

    def export(self) -> dict:
        return {
            "functions": self.summary(),
            "kernel_calls": self.kernel_calls,
            "kernel_repeats": self.kernel_repeats,
            "kernel_keys": [list(k[:2]) + [list(k[2]), k[3]] for k in sorted(self.kernel_keys)],
            "break_sets": {str(op): [[list(b), n] for b, n in sorted(seen.items())] for op, seen in self.break_sets.items()},
            "iterations": self.iterations,
            "bindings": self.bindings,
            "spans": self.spans,
        }


def merge(parts: list[dict]) -> dict:
    """Combine the exports of several tracers (one per CLI child process) into one."""
    out = {"functions": {}, "kernel_calls": 0, "kernel_repeats": 0, "break_sets": {}, "iterations": 0, "bindings": {}, "spans": []}
    keys = set()
    for part in parts:
        for name, (calls, self_s) in part["functions"].items():
            entry = out["functions"].setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        out["kernel_calls"] += part["kernel_calls"]
        out["kernel_repeats"] += part["kernel_repeats"]
        keys.update(json.dumps(k) for k in part["kernel_keys"])
        for op, per_op in part["break_sets"].items():
            out["break_sets"].setdefault(op, []).extend(per_op)
        out["iterations"] += part["iterations"]
        for name, where in part["bindings"].items():
            out["bindings"].setdefault(name, sorted(set(where)))
        offset = len(out["spans"])
        out["spans"].extend([n, s, e, parent + offset if parent >= 0 else -1, op] for n, s, e, parent, op in part["spans"])
    out["kernel_keys"] = [json.loads(k) for k in sorted(keys)]
    return out
