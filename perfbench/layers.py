"""Per-layer counts and self time, taken from outside the program.

Each layer is one `orbitwalk` module.  `Tracer.install` wraps the module's
public functions and rebinds every module attribute that is the *same object*
as the original, so `from .group import act` in `orbit` is traced too.
Names are never looked up again at call time: `_core_py` defines its own
`i_row`/`j_row`, and resolving by name would make a wrapper call itself.

A wrapper records one span per call.  A function's self time is its span
minus the spans of the wrapped calls it made; a layer's self time is the sum
over its functions.  Time in code that is not wrapped (private helpers,
numpy, argparse) counts toward the nearest wrapped caller.  Wrapping costs
about a microsecond per call, which lands in the caller's self time; the
benchmark reports that cost as `trace_overhead_frac`, never inside an
end-to-end number.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "special": "orbitwalk.special",
    "group": "orbitwalk.group",
    "kernels": "orbitwalk.kernels",
    "orbit": "orbitwalk.orbit",
    "oracle": "orbitwalk.oracle",
    "verify": "orbitwalk.verify",
    "cli": "orbitwalk.cli",
}

# The orbit functions that return an OrbitKernelReport for one (x, y) pair.
KERNEL_FUNCTIONS = ("orbit.orbit_kernel", "orbit.orbit_resolvent", "orbit.orbit_heat_kernel")


def _public_functions(module, prefix: str):
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # imported from elsewhere: traced in its own layer
        if inspect.isgeneratorfunction(obj):
            continue  # a generator's call returns before its work is done
        yield f"{prefix}.{name}", obj


def _targets():
    """(layer, key, function) for every traced function."""
    out = []
    for layer, module_name in LAYERS.items():
        module = importlib.import_module(module_name)
        for key, fn in _public_functions(module, layer):
            out.append((layer, key, fn))
    # The Bessel core the special layer delegates to (_core_py or the compiled _core).
    core = importlib.import_module("orbitwalk.special").core
    for key, fn in _public_functions(core, "special.core"):
        out.append(("special", key, fn))
    return out


def _hashable(value):
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, int):
        return (value,)
    return value


class Tracer:
    """Counts and self times of one or more traced passes."""

    def __init__(self):
        self._targets = _targets()
        self._layer_of = {key: layer for layer, key, _ in self._targets}
        self._saved: list = []
        # The wrappers hold these objects, so reset() clears them in place.
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.kernel_keys: set = set()
        self._stack: list = []
        self.reset()

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.kernel_keys.clear()
        self._stack.clear()
        self.elements = 0
        self.shells = 0
        self.terms = 0

    # -- installing and removing the wrappers --------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name.startswith("orbitwalk") and m]
        for _, key, fn in self._targets:
            wrapper = self._wrap(key, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def _wrap(self, key: str, fn):
        stack = self._stack
        calls = self.calls
        own = self.self_s
        clock = time.perf_counter
        after = self._after_hook(key, fn)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                own[key] += span - children
                calls[key] += 1
                if stack:
                    stack[-1] += span
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_hook(self, key: str, fn):
        """Extra bookkeeping for a few functions, run outside their spans."""
        if key == "group.enumerate_shell":

            def count_elements(args, kwargs, result):
                self.elements += len(result)

            return count_elements
        if key in KERNEL_FUNCTIONS:
            signature = inspect.signature(fn)

            def record_report(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.kernel_keys.add(
                    (key,) + tuple(_hashable(v) for v in bound.arguments.values())
                )
                self.shells += result.shells_used
                self.terms += result.terms_evaluated

            return record_report
        return None

    # -- results ----------------------------------------------------------

    def counts(self) -> dict:
        """Count metrics; identical for every traced pass over the same jobs."""
        kernel_calls = sum(self.calls[k] for k in KERNEL_FUNCTIONS)
        oracle_calls = sum(n for k, n in self.calls.items() if self._layer_of[k] == "oracle")
        return {
            "orbit.kernel_calls": kernel_calls,
            "orbit.kernel_unique_frac": len(self.kernel_keys) / kernel_calls if kernel_calls else 0.0,
            "orbit.partition_function.calls": self.calls["orbit.partition_function"],
            "orbit.shells": self.shells,
            "orbit.terms": self.terms,
            "kernels.coined_line_kernel.calls": self.calls["kernels.coined_line_kernel"],
            "special.i_row.calls": self.calls["special.i_row"],
            "special.j_row.calls": self.calls["special.j_row"],
            "group.enumerate_shell.calls": self.calls["group.enumerate_shell"],
            "group.elements": self.elements,
            "group.act.calls": self.calls["group.act"],
            "group.rep_weight.calls": self.calls["group.rep_weight"],
            "oracle.calls": oracle_calls,
        }

    def self_times(self) -> dict:
        """Self time of each layer, and of `cli.emit` alone, in seconds."""
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for key, seconds in self.self_s.items():
            out[f"{self._layer_of[key]}.self_s"] += seconds
        out["cli.emit.self_s"] = self.self_s["cli.emit"]
        return out
