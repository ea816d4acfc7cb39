"""Layer tracing from outside the program: wraps the public functions of `degenls`.

Each public function of a traced module is replaced by a timing wrapper, both
in its own module and in every other `degenls` namespace that imported it by
name, so calls between modules are counted too.  Third-party functions that a
module binds by name (scipy's `solve_ivp`, `solve_banded`, ...) are wrapped in
that module only and count as part of its layer.  Spans live in memory as
per-name aggregates; `uninstall` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# The package's modules, in the order the layers are reported.
LAYERS = ("discretization", "ground_state", "functionals", "spectral", "dynamics",
          "model", "asymptotics", "cli", "config")
# Traced for coverage but not reported as a layer of its own.
EXTRA_MODULES = ("presets",)
# Foreign functions bound by name inside a layer whose calls are counted: (module, attribute).
BOUND_FOREIGN = (("ground_state", "solve_ivp"), ("dynamics", "solve_banded"),
                 ("spectral", "eigh_tridiagonal"))
# Methods traced on classes: (module, class, method).
METHODS = (("dynamics", "CrankNicolson", "step"),)
# Spans whose individual durations are kept for percentiles.
KEEP_DURATIONS = ("dynamics.CrankNicolson.step",)


class SpanStats:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("calls", "returned", "total", "self_time", "iterations", "durations",
                 "by_parent")

    def __init__(self):
        self.calls = 0
        self.returned = 0          # calls that returned instead of raising
        self.total = 0.0
        self.self_time = 0.0
        self.iterations = 0        # solver iterations reported by the returned value
        self.durations = []
        self.by_parent = {}        # parent span name -> [calls, seconds]


class Tracer:
    """Installs timing wrappers, records spans with their parents, restores on exit."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.root_time = 0.0       # time covered by spans that have no traced parent
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> SpanStats:
        if name not in self.stats:
            self.stats[name] = SpanStats()
        return self.stats[name]

    def _wrap(self, name: str, fn):
        tracer = self
        st = self.stat(name)
        keep = name in KEEP_DURATIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [name, 0.0]
            tracer._stack.append(frame)
            returned = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                elapsed = time.perf_counter() - t0
                tracer._stack.pop()
                st.calls += 1
                st.total += elapsed
                st.self_time += elapsed - frame[1]
                if keep:
                    st.durations.append(elapsed)
                if parent is None:
                    tracer.root_time += elapsed
                    edge = st.by_parent.setdefault("", [0, 0.0])
                else:
                    parent[1] += elapsed
                    edge = st.by_parent.setdefault(parent[0], [0, 0.0])
                edge[0] += 1
                edge[1] += elapsed
                if returned:
                    st.returned += 1
                    st.iterations += int(getattr(result, "iterations", 0) or 0)
            return result

        return traced

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self) -> None:
        package = importlib.import_module("degenls")
        modules = {name: importlib.import_module(f"degenls.{name}")
                   for name in LAYERS + EXTRA_MODULES}
        namespaces = [package] + list(modules.values())
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", obj)
                for ns in namespaces:
                    for alias, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, alias, wrapper)
        for short, attr in BOUND_FOREIGN:
            module = modules[short]
            self._patch(module, attr, self._wrap(f"{short}.{attr}", getattr(module, attr)))
        for short, cls_name, method in METHODS:
            cls = getattr(modules[short], cls_name)
            self._patch(cls, method, self._wrap(f"{short}.{cls_name}.{method}",
                                                vars(cls)[method]))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def layer_self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum(st.self_time for name, st in self.stats.items() if name.startswith(prefix))
