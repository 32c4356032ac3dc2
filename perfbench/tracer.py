"""Run one detmask CLI stage with the public functions of every module traced.

Usage: ``python tracer.py TRACE_OUT [--only=NAME,...] <cli arguments...>``

Every public module-level function of ``detmask.*`` is replaced, in every
``detmask`` module that binds it, by a wrapper that records a span (name,
start, end, parent, time covered by children).  A few methods are wrapped on
their class.  Leaf functions called far more than 1e5 times in a stage only
count calls, truthy results and busy time, with no span per call.  Nothing
inside the program changes; the spans stay in memory and are written to
``TRACE_OUT`` as JSON when the stage ends, followed by ``TRACE_OUT.exit``
holding the time that write took.  ``--only`` restricts tracing to the
named functions, for timings that the tracing of everything else would
distort.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

MODULES = ("kb", "tokenizer", "editdist", "align", "masking", "model", "probe", "formats", "cli")

# Hot leaves: calls, truthy results and busy time only.
COUNTED = {"kb.predicates_between", "kb.is_deterministic", "kb.objects_for",
           "editdist.within_one", "tokenizer.tokens_inside"}

METHODS = (("align", "EntityLinker", "link"), ("align", "PredicateMatcher", "best"),
           ("masking", "Vocabulary", "build"))

NAME, START, END, PARENT, CHILD = range(5)


def _truthy(result) -> bool:
    """A hit: not None/False and not an empty container (never asks an array)."""
    if result is None or result is False:
        return False
    if isinstance(result, (tuple, list, dict, set, frozenset, str)):
        return len(result) > 0
    return True


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        # name -> [calls, truthy results, busy seconds]
        self.counters: dict[str, list] = {}
        # Calls inside a counted leaf are not traced again.
        self.leaf_depth = 0
        # name -> truthy results of span-traced functions.
        self.hits: dict[str, int] = {}
        # name -> bytes of the file named by the first argument, summed over calls.
        self.bytes: dict[str, int] = {}
        # [mask rows, positions forwarded], summed over training steps.
        self.rows = [0, 0]

    def _close(self, rec: list, now: float) -> None:
        rec[END] = now
        self.stack.pop()
        if self.stack:
            self.spans[self.stack[-1]][CHILD] += now - rec[START]

    def span(self, name: str, fn, file_arg: bool = False):
        spans, stack, hits, clock = self.spans, self.stack, self.hits, time.perf_counter
        hits.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.leaf_depth:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec, clock())
            if _truthy(result):
                hits[name] += 1
            if file_arg and args and isinstance(args[0], (str, os.PathLike)):
                if os.path.isfile(args[0]):
                    self.bytes[name] = self.bytes.get(name, 0) + os.path.getsize(args[0])
            return result

        return wrapper

    def counted(self, name: str, fn):
        c = self.counters.setdefault(name, [0, 0, 0.0])
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.leaf_depth += 1
            t = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t
                self.leaf_depth -= 1
            c[0] += 1
            c[2] += dt
            if _truthy(result):
                c[1] += 1
            if not self.leaf_depth and stack:
                spans[stack[-1]][CHILD] += dt
            return result

        return wrapper

    def observe_rows(self, fn):
        """Count the mask rows and the positions forwarded per training step."""

        @functools.wraps(fn)
        def wrapper(state, item, *args, **kwargs):
            members = (item,) if not isinstance(item, tuple) else item
            self.rows[0] += sum(len(m.mask_positions) for m in members)
            self.rows[1] += sum(len(m.input_tokens) for m in members)
            return fn(state, item, *args, **kwargs)

        return wrapper

    def install(self, only: set[str] | None = None) -> list[str]:
        """Wrap every public function (or those in ``only``); returns the traced names."""
        mods = {m: importlib.import_module(f"detmask.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        names = []
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{short}.{attr}"
                if only is not None and name not in only:
                    continue
                if name in COUNTED:
                    w = self.counted(name, fn)
                else:
                    w = self.span(name, fn, file_arg=short == "formats")
                if name == "model.loss_and_grad":
                    w = self.observe_rows(w)
                wrapped[id(fn)] = (fn, w)
                names.append(name)
        # Patch each name where its caller looks it up: every module binding it.
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name, None)
            raw = cls.__dict__.get(meth) if cls is not None else None
            if raw is None:
                continue
            name = f"{short}.{cls_name}.{meth}"
            if only is not None and name not in only:
                continue
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.span(name, raw.__func__)))
            else:
                setattr(cls, meth, self.span(name, raw))
            names.append(name)
        return names

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": self.counters,
            "hits": self.hits,
            "bytes": self.bytes,
            "rows": self.rows,
        }


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    only = None
    if cli_args and cli_args[0].startswith("--only="):
        only = set(cli_args.pop(0)[len("--only="):].split(","))
    t0 = time.perf_counter()
    from detmask import cli

    tracer = Tracer()
    traced = tracer.install(only)
    t1 = time.perf_counter()
    rc = 1
    try:
        rc = cli.main(cli_args)
    finally:
        t2 = time.perf_counter()
        doc = tracer.dump()
        doc.update(traced=traced, import_s=t1 - t0, main_s=t2 - t1, exit_code=rc)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        with open(out + ".exit", "w", encoding="utf-8") as fh:
            json.dump({"write_s": time.perf_counter() - t2}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
