"""Every function that a per-layer benchmark metric names stays traceable,
and the pipeline runs every public function of the package.

``perfbench/tracer.py`` wraps only public, non-generator functions defined in
their own ``detmask`` module, and methods of classes defined there; a metric
whose function is missing or changed shape reads as absent.  This reads
``BENCHMARK.json`` and checks each such name against the package.  A public
function that no stage enters exists only for tests, and a traced one would
read 0.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
from functools import cached_property
from pathlib import Path

import detmask
from detmask.cli import main
from test_cli import write_inputs

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


def public_functions() -> dict:
    """Code object -> dotted name of every public module-level function and
    every public method, property and cached property of a class that is not
    an exception, defined in a ``detmask`` module."""
    def code(obj):
        if isinstance(obj, (classmethod, staticmethod)):
            obj = obj.__func__
        elif isinstance(obj, property):
            obj = obj.fget
        elif isinstance(obj, cached_property):
            obj = obj.func
        obj = inspect.unwrap(obj)
        return obj.__code__ if inspect.isfunction(obj) else None

    found = {}
    for info in pkgutil.iter_modules(detmask.__path__):
        module = importlib.import_module(f"detmask.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not inspect.isclass(obj):
                members, prefix = {name: obj}, info.name
            elif not issubclass(obj, BaseException):
                members, prefix = vars(obj), f"{info.name}.{name}"
            else:
                continue
            for attr, value in members.items():
                if not attr.startswith("_") and (c := code(value)) is not None:
                    found[c] = f"{prefix}.{attr}"
    return found


def traced_code(name: str):
    module_name, *path = name.split(".")
    owner = importlib.import_module(f"detmask.{module_name}")
    for attr in path:
        owner = getattr(owner, attr)
    return inspect.unwrap(owner).__code__


def test_pipeline_enters_every_public_function(tmp_path):
    """Every stage and mask mode, in process, on the CLI test world plus a
    paragraph whose predicate is one edit away from its alias."""
    paths = write_inputs(tmp_path)
    with open(paths["corpus"], "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"doc_id": "p6", "text": "Jaws was direted by Steven Spielberg"})
                 + "\n")
    kb, samples, ssm = tmp_path / "kb", tmp_path / "samples.jsonl", tmp_path / "ssm.jsonl"
    masked, ckpt, report = tmp_path / "masked.jsonl", tmp_path / "model.ckpt", tmp_path / "r.json"
    modes = [["--scheme", s] for s in ("random_token", "whole_word", "object_span",
                                       "deterministic")]
    modes += [["--scheme", "salient_span", "--ssm", str(ssm)], ["--emit", "pair"],
              ["--emit", "triple"]]
    runs = [
        ["build-kb", "--triplets", str(paths["triplets"]), "--entities", str(paths["entities"]),
         "--predicates", str(paths["predicates"]), "--out", str(kb)],
        ["align", "--kb", str(kb), "--corpus", str(paths["corpus"]), "--out", str(samples),
         "--ssm-out", str(ssm)],
        ["stats", "--samples", str(samples)],
        *(["mask", "--samples", str(samples), "--out", str(masked), *mode] for mode in modes),
        ["train", "--data", str(masked), "--vocab", str(tmp_path / "vocab.json"),
         "--out", str(ckpt), "--steps", "3", "--dim", "8"],
        ["probe", "--model", str(ckpt), "--templates", str(paths["templates"]),
         "--facts", str(paths["facts"]), "--out", str(report), "--kb", str(kb),
         "--pretrain", str(samples)],
        ["report", "--report", str(report)],
    ]
    required = public_functions()
    assert "align.EntityLinker.link" in required.values()
    required.update((traced_code(name), name) for name in traced_names())
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    assert sorted(name for c, name in required.items() if c not in entered) == []
