"""Layer spans recorded from outside the program.

`install` replaces, in every loaded `selfheal` module, each function bound
from another layer with a timing wrapper, so a call is recorded where its
caller binds it (`selfheal.detector.maml.grad` records as
`numerics.grad@detector`). Modules bound from another layer, such as
`tape` in the GNN, are replaced by a proxy that wraps their functions. A few
calls inside one layer are wrapped too, because the per-layer metrics name
them. Nothing under `src/` is edited; the wrappers live only in the traced
process.

Each finished call adds its duration to its key, its self time (duration
minus the wrapped calls it made) to its layer, and, when no caller on the
stack is in the same layer, its duration to the layer's total.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict

LAYERS = ("numerics", "simulator", "detector", "depgraph", "recovery", "explain", "harness")

# (module, attribute, key): calls that stay inside one layer but that the
# per-layer metrics name. An attribute "Class.method" wraps a method.
INTRA_LAYER = (
    ("selfheal.detector.maml", "inner_adapt", "detector.inner_adapt@detector"),
    ("selfheal.recovery.pareto", "train_agent", "recovery.train_agent@recovery"),
    ("selfheal.recovery.pareto", "pareto_front", "recovery.pareto_front@recovery"),
    ("selfheal.recovery.env", "RecoveryEnv.step", "recovery.env.step"),
    ("selfheal.recovery.env", "RecoveryEnv.reset", "recovery.env.reset"),
)


def layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if len(parts) > 1 and parts[0] == "selfheal" and parts[1] in LAYERS:
        return parts[1]
    return None


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.total_s = dict.fromkeys(LAYERS, 0.0)
        self._stack: list[list] = []  # [layer, seconds spent in wrapped children]

    def wrap(self, fn, key: str, layer: str):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self._record(key, layer, elapsed, frame[1])

        return traced

    def _record(self, key: str, layer: str, elapsed: float, children: float) -> None:
        self.calls[key] += 1
        self.seconds[key] += elapsed
        self.self_s[layer] += elapsed - children
        if self._stack:
            self._stack[-1][1] += elapsed
        if all(frame[0] != layer for frame in self._stack):
            self.total_s[layer] += elapsed

    def count(self, prefix: str) -> int:
        return sum(n for key, n in self.calls.items() if _matches(key, prefix))

    def time(self, prefix: str) -> float:
        return sum(s for key, s in self.seconds.items() if _matches(key, prefix))


def _matches(key: str, prefix: str) -> bool:
    return key == prefix or key.startswith(prefix + "@")


class _ModuleProxy(types.ModuleType):
    """A module seen through the tracer: its functions come back wrapped."""

    def __init__(self, module, tracer: Tracer, caller: str):
        super().__init__(module.__name__)
        self._module, self._tracer, self._caller = module, tracer, caller
        self._layer = layer_of(module.__name__)

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if inspect.isfunction(value):
            value = self._tracer.wrap(value, f"{self._layer}.{name}@{self._caller}", self._layer)
            setattr(self, name, value)
        return value


def install(tracer: Tracer) -> None:
    """Wrap every cross-layer binding in the loaded selfheal modules."""
    modules = [(name, m) for name, m in sorted(sys.modules.items()) if layer_of(name)]
    for name, module in modules:
        caller = layer_of(name)
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value):
                callee = layer_of(value.__module__ or "")
                if callee and callee != caller:
                    key = f"{callee}.{value.__name__}@{caller}"
                    setattr(module, attr, tracer.wrap(value, key, callee))
            elif inspect.ismodule(value):
                callee = layer_of(value.__name__)
                if callee and callee != caller:
                    setattr(module, attr, _ModuleProxy(value, tracer, caller))
    for module_name, attr, key in INTRA_LAYER:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), key, key.split(".")[0]))
