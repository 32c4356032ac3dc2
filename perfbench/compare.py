"""Compare benchmark records across runs and code versions.

    python3 perfbench/compare.py RECORD_OR_DIR [RECORD_OR_DIR ...]

Reads the JSON records ``run.py`` writes to ``.perfbench/results/``.  Records
are grouped by code version (sha256 of ``src/detmask``):

* within one version, every record of the same workload and seed must show
  the same output hashes (the program's byte-identity promise);
* between versions, it lists, per workload and stage, the outputs whose
  bytes changed for the same seed;
* per version and workload, it prints the median and quartile spread of
  every metric over the records.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(paths: list[str]) -> list[dict]:
    records = []
    for arg in paths:
        p = Path(arg)
        for f in sorted(p.glob("*.json")) if p.is_dir() else [p]:
            records.append(json.loads(f.read_text(encoding="utf-8")))
    return records


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 1
    records = load(argv)
    versions: dict[str, list[dict]] = {}
    for r in records:
        versions.setdefault(r["machine"]["detmask_src_sha256"][:12], []).append(r)
    disagree = 0

    # Byte identity within a version; changed outputs between versions.
    hashes: dict[tuple[str, str, int], dict] = {}
    for version, recs in versions.items():
        for r in recs:
            key = (version, r["workload"], r["seed"])
            seen = hashes.setdefault(key, r["output_sha256"])
            for stage, files in r["output_sha256"].items():
                if stage in seen and seen[stage] != files:
                    disagree += 1
                    print(f"DISAGREE {version} {r['workload']} seed {r['seed']} {stage}")
    names = sorted(versions)
    for a in names:
        for b in names:
            if a >= b:
                continue
            changed: dict[tuple[str, str], set[str]] = {}
            for (version, workload, seed), files in hashes.items():
                other = hashes.get((b, workload, seed)) if version == a else None
                if other is None:
                    continue
                for stage in files.keys() & other.keys():
                    for name in files[stage].keys() | other[stage].keys():
                        if files[stage].get(name) != other[stage].get(name):
                            changed.setdefault((workload, stage), set()).add(name)
            print(f"outputs changed between {a} and {b}:"
                  + ("" if changed else " none (same seeds compared)"))
            for (workload, stage), files in sorted(changed.items()):
                print(f"  {workload:<18} {stage:<9} {', '.join(sorted(files))}")

    for version in names:
        by_workload: dict[tuple[str, int], list[dict]] = {}
        for r in versions[version]:
            by_workload.setdefault((r["workload"], r["trace"]), []).append(r)
        for (workload, trace), recs in sorted(by_workload.items()):
            print(f"{version} {workload} trace {trace}: {len(recs)} runs")
            metrics = recs[0]["result"]["metrics"]
            for name, m in metrics.items():
                values = [r["result"]["metrics"][name]["value"] for r in recs
                          if name in r["result"]["metrics"]]
                med = statistics.median(values)
                spread = 0.0
                if len(values) >= 2 and med:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    spread = (q3 - q1) / med
                print(f"  {name:<44} {med:>12.6g} {m['unit']:<12} iqr/med {spread:.3f}")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
