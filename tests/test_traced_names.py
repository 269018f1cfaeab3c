"""The entfarm functions the benchmark traces or patches exist under those names.

bench/tracer.py wraps every public function of the traced modules, and
bench/run.py reads its per-layer metrics off the wrapped names; a renamed
function would silently turn its metric into 0.  These tests read the names
out of the bench sources and check each against the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tree(filename: str) -> ast.Module:
    return ast.parse((BENCH / filename).read_text())


def _dict_keys(filename: str, name: str) -> list[str]:
    for node in ast.walk(_tree(filename)):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"no {name} in bench/{filename}")


def _resolve(name: str):
    """The public function `module.attr` of entfarm names, or None."""
    module_name, attr = name.split(".")
    module = importlib.import_module(f"entfarm.{module_name}")
    obj = getattr(module, attr, None)
    if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
        return None
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return None
    return obj


def _unresolved(names) -> list[str]:
    assert names
    return [name for name in names if _resolve(name) is None]


def test_span_metrics_name_public_functions():
    assert _unresolved(_dict_keys("run.py", "_SPAN_METRICS")) == []


def test_observers_name_public_functions():
    assert _unresolved(_dict_keys("tracer.py", "OBSERVERS")) == []


def test_patched_and_cache_counted_names_are_cached_functions():
    # setup_probe.py replaces dynamics.<name>; run.py turns <name>.hits and
    # <name>.misses, read off the function's cache_info, into a hit ratio
    patched = {
        f"dynamics.{node.attr}"
        for node in ast.walk(_tree("setup_probe.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "dynamics"
    }
    counted = {
        node.value.removesuffix(".hits")
        for node in ast.walk(_tree("run.py"))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.endswith(".hits")
    }
    assert "dynamics.propagator_for" in patched & counted
    names = sorted(patched | counted)
    assert _unresolved(names) == []
    assert all(hasattr(_resolve(name), "cache_info") for name in names)
