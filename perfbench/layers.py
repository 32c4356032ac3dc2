"""Per-layer metrics from the trace files of one traced pipeline.

A metric named ``<module>.<function>.<stat>`` is computed the same way for
every traced function:

* ``calls``, ``busy_s`` (sum of call durations), ``self_s`` (busy time not
  covered by traced callees),
* ``p50_ms`` / ``p90_ms`` / ``p99_ms`` over the call durations,
* ``hit_ratio`` / ``true_ratio`` / ``found_ratio``: calls returning a
  non-empty, true or non-None result, divided by calls,
* ``mb_per_s``: megabytes (1e6) of the file the call read or wrote, divided
  by ``busy_s``.

A function that was traced but never called reads 0.  A function the
program no longer has is absent (``None``), not a failure.  Metrics that are
not of this form come from the caller in ``extra``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

START, END, CHILD = 1, 2, 4


@dataclass
class FunctionStats:
    calls: int = 0
    hits: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    bytes: int = 0
    durations: list[float] = field(default_factory=list)


def function_stats(traces: list[dict]) -> dict[str, FunctionStats]:
    """Sum the spans and counters of several stage traces per function name."""
    out: dict[str, FunctionStats] = {}
    for trace in traces:
        for name in trace["traced"]:
            out.setdefault(name, FunctionStats())
        for name, start, end, _parent, child in trace["spans"]:
            st = out[name]
            st.calls += 1
            st.busy_s += end - start
            st.self_s += end - start - child
            st.durations.append(end - start)
        for name, hits in trace["hits"].items():
            out[name].hits += hits
        for name, (calls, hits, busy) in trace["counters"].items():
            st = out[name]
            st.calls += calls
            st.hits += hits
            st.busy_s += busy
            st.self_s += busy
        for name, size in trace["bytes"].items():
            out[name].bytes += size
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was counted."""
    return num / den if den else 0.0


def layer_value(name: str, stats: dict[str, FunctionStats], extra: dict[str, float]):
    """Value of one per-layer metric, or None when its function is gone."""
    if name in extra:
        return extra[name]
    func, stat = name.rsplit(".", 1)
    st = stats.get(func)
    if st is None:
        return None
    if stat == "calls":
        return st.calls
    if stat in ("busy_s", "self_s"):
        return getattr(st, stat)
    if stat in ("p50_ms", "p90_ms", "p99_ms"):
        return percentile(st.durations, float(stat[1:3])) * 1000.0
    if stat in ("hit_ratio", "true_ratio", "found_ratio"):
        return ratio(st.hits, st.calls)
    if stat == "mb_per_s":
        return ratio(st.bytes / 1e6, st.busy_s)
    raise ValueError(f"per-layer metric {name!r} has no definition")
