"""Per-layer tracing from outside the package.

Every public function defined in one of veplab's layer modules is replaced by
a timing wrapper, in every veplab namespace that holds it. `pipeline` and
`decode` import `bandpass`, `cca_corr` and the rest by name, so patching only
the defining module would miss those calls without any sign.

For each traced function the tracer keeps the call count, inclusive busy time
(`s`, counted once for nested calls of the same function) and self time
(`self_s`, busy time minus the time of traced callees). Observers add counters
of their own from a call's arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("model", "synth", "stimgen", "dsp", "spectral", "decode", "stats", "pipeline", "cli")

_MARK = "__bench_traced__"


@dataclass
class CallStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    nbytes: int = 0
    keys: set = field(default_factory=set)

    def distinct_ratio(self) -> float:
        return len(self.keys) / self.calls if self.calls else 0.0


def _veplab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "veplab" or name.startswith("veplab.")]


def public_functions() -> dict:
    """Map each public function of a layer module to its name `<layer>.<function>`."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"veplab.{layer}"]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                out[obj] = f"{layer}.{name}"
    return out


def leaked_wrappers() -> list[str]:
    """Names of veplab attributes that still hold a tracing wrapper."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in _veplab_modules()
        for attr, val in vars(mod).items()
        if hasattr(val, _MARK)
    ]


class Tracer:
    """Context manager that installs the wrappers and restores the originals.

    observers maps a traced name to `fn(stats, args, kwargs, result)`, called
    after each successful call.
    """

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.stats: dict[str, CallStats] = {}
        self._stack: list[list] = []  # [name, time spent in traced callees]
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        wrappers = {fn: self._wrap(name, fn) for fn, name in public_functions().items()}
        try:
            for mod in _veplab_modules():
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in wrappers:
                        self._patches.append((mod, attr, val))
                        setattr(mod, attr, wrappers[val])
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, CallStats())
        stack = self._stack
        observer = self.observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            outermost = all(f[0] != name for f in stack)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.self_s += dt - frame[1]
                if outermost:
                    stats.s += dt
                if stack:
                    stack[-1][1] += dt
            if observer is not None:
                observer(stats, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper
