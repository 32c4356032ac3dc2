"""Every function that a per-layer benchmark metric names stays traceable.

``perfbench/tracer.py`` wraps only public, non-generator functions defined in
their own ``detmask`` module, and methods of classes defined there; a metric
whose function is missing or changed shape reads as absent.  This reads
``BENCHMARK.json`` and checks each such name against the package.
"""

from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path

# Per-layer statistics computed from a traced function's calls.
FUNCTION_STATS = {"calls", "busy_s", "self_s", "p50_ms", "p90_ms", "p99_ms",
                  "hit_ratio", "true_ratio", "found_ratio", "mb_per_s"}

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def traced_names() -> list[str]:
    """``module.function`` or ``module.Class.method`` of each function statistic."""
    metrics = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer"]
    names = (m["name"].rpartition(".") for m in metrics)
    return sorted({func for func, _dot, stat in names if func and stat in FUNCTION_STATS})


def traceable(name: str) -> bool:
    module_name, *path = name.split(".")
    module = importlib.import_module(f"detmask.{module_name}")
    if len(path) == 1:
        owner, attr = module, path[0]
    else:
        owner, attr = vars(module).get(path[0]), path[1]
        if not inspect.isclass(owner) or owner.__module__ != module.__name__:
            return False
    fn = vars(owner).get(attr)
    if isinstance(fn, (classmethod, staticmethod)):
        fn = fn.__func__
    return (not attr.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__ and not inspect.isgeneratorfunction(fn))


def test_every_benchmarked_function_is_traceable():
    names = traced_names()
    assert "model.predict_fill" in names
    assert [name for name in names if not traceable(name)] == []
