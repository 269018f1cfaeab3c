"""In-memory span recorder for traced benchmark ops.

`install` replaces every public function of the traced entfarm modules with
a wrapper that records a span (name, start, end, parent) around each call.
Modules look their own functions and each other's up by attribute at call
time, so wrapping the module attribute also catches calls made inside the
package.  A few boundaries also record counters: work done (flops of one
cycle), diagnostics produced, failures, and problem size.
Spans stay in memory until `dump` writes them out when the op ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import Counter

TRACED_MODULES = (
    "cavity",
    "config",
    "dynamics",
    "fock",
    "gaussian",
    "protocol",
    "spectral",
    "thermo",
)


def full_cycle_flops(n: int, k: int = 4) -> int:
    """Multiply-add flops of `protocol.full_cycle` for an n x n field state.

    One entry per matrix product in the function: (rows, inner, columns)
    with k detector quadratures and n field quadratures.
    """
    products = [
        (k, k, k), (k, n, n), (n, k, k), (n, n, n),  # A sd, B sf, C sd, D sf
        (k, k, k), (k, n, k),  # detector block
        (k, k, n), (k, n, n),  # detector-field correlations
        (n, k, n), (n, n, n),  # field block
    ]
    return sum(2 * rows * inner * cols for rows, inner, cols in products)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._cached: dict[str, object] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, observe=None):
        stack = self._stack()
        index = len(self.spans)
        span = [name, time.perf_counter(), None, stack[-1] if stack else -1]
        self.spans.append(span)
        stack.append(index)
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as err:
            exc = err
            raise
        finally:
            span[2] = time.perf_counter()
            stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result, exc)

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)

        if hasattr(fn, "cache_info"):
            self._cached[name] = fn
        return traced

    def install(self, package) -> None:
        for module_name in TRACED_MODULES:
            module = getattr(package, module_name)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                name = f"{module_name}.{attr}"
                setattr(module, attr, self.wrap(name, obj, OBSERVERS.get(name)))

    def dump(self, path: str, op_id: str) -> None:
        counters = dict(self.counters)
        for name, fn in self._cached.items():
            info = fn.cache_info()
            counters[f"{name}.hits"] = info.hits
            counters[f"{name}.misses"] = info.misses
        with open(path, "w") as fh:
            json.dump({"op": op_id, "spans": self.spans, "counters": counters}, fh)


def _observe_full_cycle(tracer, args, kwargs, result, exc):
    sigma_f = args[0] if args else kwargs["sigma_f"]
    tracer.counters["protocol.full_cycle.flops"] += full_cycle_flops(len(sigma_f))


# per-cycle diagnostics a trajectory record carries; a value left None was
# not computed
DIAGNOSTIC_FIELDS = ("log_negativity", "energy_input", "field_purity", "field_thermality")


def _observe_run_cycles(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counters["protocol.run_cycles.diagnostics"] += sum(
            getattr(record, name, None) is not None
            for record in result.records
            for name in DIAGNOSTIC_FIELDS
        )


def _observe_fixed_point(tracer, args, kwargs, result, exc):
    if exc is not None:
        tracer.counters["spectral.fixed_point.failures"] += 1


def _observe_evolve_ground_state(tracer, args, kwargs, result, exc):
    config = args[0] if args else kwargs["config"]
    counters = tracer.counters
    counters["fock.hilbert_dim"] = max(counters["fock.hilbert_dim"], config.dimension)


OBSERVERS = {
    "protocol.full_cycle": _observe_full_cycle,
    "protocol.run_cycles": _observe_run_cycles,
    "spectral.fixed_point": _observe_fixed_point,
    "fock.evolve_ground_state": _observe_evolve_ground_state,
}


def self_times(spans) -> tuple[Counter, Counter]:
    """Per-name call counts and self seconds.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (children of one span can overlap only when they
    ran on other threads, so the covered part is a union of intervals).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        calls[name] += 1
        self_s[name] += (end - start) - covered
    return calls, self_s
