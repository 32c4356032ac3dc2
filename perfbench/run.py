"""Pipeline benchmark for detmask.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed generates one synthetic
world (``worlds.py``) as plain input files; the program sees nothing else.
The seven CLI stages then run back to back, one ``python -m detmask.cli``
process each, as users run them (closed loop: one pipeline at a time from
this single driver process).  Stages are timed from outside only.

``--trace 0`` repeats whole pipelines until ``--seconds`` have passed and
reports the end-to-end metrics of BENCHMARK.json over them.  Times are
scaled to a reference machine speed, measured by a fixed loop before every
stage (``pipeline.py``).  ``--trace 1`` runs rounds of: one untraced
pipeline, the same pipeline with every public ``detmask`` function traced
(``tracer.py``), and a traced ``align --threads 2`` whose output must be
byte-identical to the serial one; it reports the per-layer metrics as
medians over rounds.

Every run checks all outputs (``checks.py``) and hashes them: repeated
pipelines must give identical bytes.  A stage run that exits non-zero, fails
a check or changes bytes counts in ``failed``.  The last line of standard
output is the result JSON; the full record (machine, world properties,
per-stage times, output hashes) goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import checks
import layers
import pipeline
import worlds

# Extra build-kb runs before the first pipeline, so setup_s has a steady median.
SETUP_REPEATS = 3
# Pipelines per untraced run at least, so that one outlier cannot set a median.
MIN_PIPELINES = 3
# Every stage must end well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0
TRACER = Path(__file__).resolve().parent / "tracer.py"
MANIFESTS = {"build-kb": "kb/kb.manifest.json", "align": "samples.jsonl.manifest.json",
             "mask": "masked.jsonl.manifest.json", "train": "model.ckpt.manifest.json",
             "probe": "report.json.manifest.json"}


def machine(root: Path) -> dict:
    """The box and the code a result set was measured on."""
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "detmask").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "detmask_commit": commit,
        "detmask_src_sha256": digest.hexdigest(),
    }


class Lane(NamedTuple):
    """Where one pipeline runs, its align thread count, and its trace directory."""

    cwd: Path
    threads: int | None = None
    trace: Path | None = None


class Bench:
    """One benchmark run: its world, its stage runs, their failures and hashes."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.t_begin = time.perf_counter()
        self.deadline = self.t_begin + seconds
        self.work = root / ".perfbench" / "work" / f"{workload}-s{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs = self.work / "in"
        self.world, self.corpus = worlds.write_world(workload, seed, self.inputs)
        self.steps = int(pipeline.FLAGS[workload]["train"][1])
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failed = 0
        self.failures: list[tuple[str, str]] = []
        self.reference: dict[str, dict[str, str]] = {}
        self.counts: dict[str, float] = {}
        self.records: list[dict] = []
        # Reference-loop times taken before every stage run (pipeline.py).
        self.probes: list[float] = []

    def fail(self, failures: list[tuple[str, str]], runs: int = 1) -> None:
        """Record ``runs`` failed stage runs and their messages."""
        self.failed += runs
        self.failures.extend(failures)

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.t_begin)

    def time_for(self, walls: list[float]) -> bool:
        """Whether one more round, lasting the median of ``walls``, ends by the deadline."""
        return time.perf_counter() + statistics.median(walls) <= self.deadline

    def speed_scale(self) -> float:
        """Factor from this run's wall times to reference-speed seconds."""
        return pipeline.REFERENCE_LOOP_S / statistics.median(self.probes)

    def stage(self, stage: str, cwd: Path, threads=None, trace: Path | None = None,
              only: str | None = None):
        """Run one stage, traced if ``trace`` names the trace file (only the
        function ``only`` if given); returns its StageRun, or None when it failed."""
        self.attempted += 1
        args = pipeline.stage_args(self.workload, stage, self.inputs, threads)
        if trace is None:
            cmd = pipeline.cli_command(args)
        else:
            cmd = [sys.executable, str(TRACER), str(trace), *([f"--only={only}"] if only else []),
                   *args]
        run = pipeline.run_stage(cmd, cwd, self.env, stage, max(1.0, self.remaining()))
        self.probes.extend(run.probes)
        if run.exit_code != 0:
            self.fail([(stage, f"exit code {run.exit_code}: {run.stderr.strip()}")])
            return None
        return run

    def same_bytes(self, stage: str, cwd: Path) -> bool:
        """Compare a stage's output hashes with the first run of that stage."""
        hashes = pipeline.output_hashes(stage, cwd)
        ref = self.reference.setdefault(stage, hashes)
        if hashes != ref:
            changed = sorted(k for k in set(ref) | set(hashes) if ref.get(k) != hashes.get(k))
            self.fail([(stage, f"output bytes differ between runs: {changed}")])
            return False
        return True

    def pipelines(self, lanes: list[Lane]) -> list[dict] | None:
        """Run one pipeline per lane, in lockstep: each stage in every lane
        before the next stage, so that lanes compared with each other run on
        the same machine state.  Returns stage -> StageRun per lane, or None
        if any stage run failed.

        The first pipeline of a run has every output checked; every later
        one must reproduce its bytes exactly.
        """
        runs: list[dict] = [{} for _ in lanes]
        for lane in lanes:
            lane.cwd.mkdir(parents=True)
        for stage in pipeline.STAGES:
            for lane, got in zip(lanes, runs):
                trace = lane.trace / f"{stage}.json" if lane.trace else None
                run = self.stage(stage, lane.cwd, lane.threads, trace)
                if run is None:
                    return None
                got[stage] = run
        if not self.counts:
            checker = checks.Checker(self.world, self.corpus, lanes[0].cwd, self.steps)
            failed = checker.run()
            if failed:
                self.fail(failed, runs=len({stage for stage, _ in failed}))
                return None
            self.counts = checker.counts
        for lane, got in zip(lanes, runs):
            if not all(self.same_bytes(stage, lane.cwd) for stage in pipeline.STAGES):
                return None
            self.records.append({
                "dir": lane.cwd.name,
                "traced": lane.trace is not None,
                "stages": {s: {"wall_s": r.wall_s, "cpu_s": r.cpu_s,
                               "peak_rss_mb": r.peak_rss_mb, "probes_s": r.probes}
                           for s, r in got.items()},
            })
        return runs

    def setup_runs(self) -> list[float]:
        walls = []
        for i in range(SETUP_REPEATS):
            cwd = self.work / f"setup{i}"
            cwd.mkdir(parents=True)
            run = self.stage("build-kb", cwd)
            if run is None or not self.same_bytes("build-kb", cwd):
                break
            walls.append(run.wall_s)
        return walls

    def properties(self) -> dict:
        c = self.counts
        props = self.world.properties()
        # Samples the mask stage read: the span stream or the deterministic one.
        ssm = "--ssm" in pipeline.FLAGS[self.workload]["mask"]
        mask_inputs = c.get("ssm" if ssm else "samples", 0)
        props.update(
            entity_spans_per_paragraph=c.get("entity_spans", 0) / self.world.paragraphs,
            groups_per_sample=layers.ratio(c.get("groups", 0), mask_inputs),
            mask_row_share=c.get("mask_row_share"),
            vocab_size=c.get("vocab_size"),
            max_len=c.get("max_len"),
            masked_lines=c.get("masked_lines"),
            nondeterministic_share=layers.ratio(c.get("non_deterministic", 0),
                                                c.get("candidates", 0)),
            samples=c.get("samples"),
            questions_kept=c.get("questions_kept"),
        )
        return props


def iqr_share(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def stage_rates(bench: Bench, runs: dict) -> dict[str, float]:
    """Work per second of wall time for the four stages that do the work."""
    c = bench.counts
    return {
        "align_paragraphs_per_s": bench.world.paragraphs / runs["align"].wall_s,
        "mask_lines_per_s": c["masked_lines"] / runs["mask"].wall_s,
        "train_steps_per_s": bench.steps / runs["train"].wall_s,
        "probe_questions_per_s": c["questions_kept"] / runs["probe"].wall_s,
    }


def end_to_end(bench: Bench, pipelines: list[dict],
               setup_walls: list[float]) -> tuple[dict, dict]:
    """Samples of the end-to-end metrics and the stage rates, one per pipeline
    (setup_s: one per build-kb run), and the values that are not the median
    of their samples.  ``setup_s`` and ``pipeline_s`` are in reference-speed
    seconds; ``*_wall_s`` are the same times as measured.

    A pipeline time is the sum over stages of each stage's median wall time:
    a slow spell on the shared machine then costs one sample of one stage,
    not a whole pipeline."""
    setup_walls = setup_walls + [p["build-kb"].wall_s for p in pipelines]
    pipeline_walls = [sum(r.wall_s for r in p.values()) for p in pipelines]
    scale = bench.speed_scale()
    samples = {
        "setup_s": [w * scale for w in setup_walls],
        "pipeline_s": [w * scale for w in pipeline_walls],
        "setup_wall_s": setup_walls,
        "pipeline_wall_s": pipeline_walls,
        "reference_loop_ms": [1000 * pipeline.REFERENCE_LOOP_S / scale],
        "peak_rss_mb": [max(r.peak_rss_mb for r in p.values()) for p in pipelines],
    }
    for p in pipelines:
        for name, value in stage_rates(bench, p).items():
            samples.setdefault(name, []).append(value)
    stage_medians = sum(statistics.median(p[s].wall_s for p in pipelines)
                        for s in pipeline.STAGES)
    return samples, {"pipeline_s": stage_medians * scale, "pipeline_wall_s": stage_medians}


def run_untraced(bench: Bench) -> tuple[dict, dict]:
    setup_walls = bench.setup_runs()
    pipelines = []
    while not bench.failures:
        runs = bench.pipelines([Lane(bench.work / f"p{len(pipelines)}")])
        if runs is None:
            break
        pipelines.append(runs[0])
        walls = [sum(r.wall_s for r in p.values()) for p in pipelines]
        if len(pipelines) >= MIN_PIPELINES and not bench.time_for(walls):
            break
    if not pipelines:
        return {}, {}
    return end_to_end(bench, pipelines, setup_walls)


def _read_trace(path: Path) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["write_s"] = json.loads(Path(str(path) + ".exit").read_text())["write_s"]
    return doc


def traced_round(bench: Bench, i: int) -> dict | None:
    """Untraced and traced serial pipelines in lockstep, then align serial and
    with ``--threads 2``, both tracing ``build_dataset`` only."""
    tdir = bench.work / f"r{i}-trace"
    tdir.mkdir(parents=True)
    runs = bench.pipelines([Lane(bench.work / f"r{i}-plain", threads=1),
                            Lane(bench.work / f"r{i}-traced", threads=1, trace=tdir)])
    if runs is None:
        return None
    plain, traced = runs
    # The pool speed-up comes from align runs tracing build_dataset alone:
    # tracing every call would slow the serial run and the forked workers.
    # Both runs must give the bytes of the untraced serial run.
    build = {}
    for threads in (1, 2):
        cwd = bench.work / f"r{i}-align{threads}"
        cwd.mkdir()
        shutil.copytree(bench.work / f"r{i}-plain" / "kb", cwd / "kb")
        trace = tdir / f"align-threads{threads}.json"
        if (bench.stage("align", cwd, threads, trace, only="align.build_dataset") is None
                or not bench.same_bytes("align", cwd)):
            return None
        build[threads] = layers.function_stats([_read_trace(trace)]).get("align.build_dataset")

    traces = {s: _read_trace(tdir / f"{s}.json") for s in pipeline.STAGES}
    stats = layers.function_stats(list(traces.values()))
    align_stats = layers.function_stats([traces["align"]])
    c, ratio, paragraphs = bench.counts, layers.ratio, bench.world.paragraphs
    manifest_s = sum(json.loads((bench.work / f"r{i}-plain" / m).read_text())["duration_s"]
                     for m in MANIFESTS.values())
    token_spans = align_stats.get("tokenizer.token_spans")
    extra = {
        **stage_rates(bench, plain),
        "reference_loop_ms": 1000 * statistics.median(bench.probes),
        "cli.startup_s": statistics.median(
            traced[s].wall_s - traces[s]["main_s"] - traces[s]["write_s"] for s in pipeline.STAGES),
        "cli.manifest_duration_ratio": manifest_s / sum(plain[s].wall_s for s in MANIFESTS),
        "trace.overhead_s": (sum(r.wall_s for r in traced.values())
                             - sum(r.wall_s for r in plain.values())),
        "tokenizer.token_spans.calls_per_paragraph": (
            token_spans.calls / paragraphs if token_spans else None),
        "align.pool_speedup": (ratio(build[1].busy_s, build[2].busy_s)
                               if build[1] and build[2] else None),
        "align.entity_spans_per_paragraph": c["entity_spans"] / paragraphs,
        "align.candidates": c["candidates"],
        "align.emitted_ratio": ratio(c["emitted_triplets"], c["candidates"]),
        "align.non_deterministic_ratio": ratio(c["non_deterministic"], c["candidates"]),
        "masking.groups_per_sample": bench.properties()["groups_per_sample"],
        "masking.skipped_ratio": ratio(c["groups_skipped"], c["groups"]),
        "model.lm_rows_read_ratio": ratio(*traces["train"]["rows"]),
        "model.checkpoint_mb": c["checkpoint_bytes"] / 1e6,
        "probe.kept_ratio": ratio(c["questions_kept"], c["questions_built"]),
    }
    return {"stats": stats, "extra": extra}


def run_traced(bench: Bench, names: list[str]) -> tuple[dict, list[str]]:
    rounds = []
    while not bench.failures:
        t0 = time.perf_counter()
        got = traced_round(bench, len(rounds))
        if got is None:
            break
        got["wall_s"] = time.perf_counter() - t0
        rounds.append(got)
        if not bench.time_for([r["wall_s"] for r in rounds]):
            break
    per: dict[str, list[float]] = {}
    absent = []
    for name in names:
        values = [layers.layer_value(name, r["stats"], r["extra"]) for r in rounds]
        if rounds and all(v is not None for v in values):
            per[name] = values
        else:
            absent.append(name)
    return per, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(worlds.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills its stage process and removes its work dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "detmask" / "cli.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the root of a detmask checkout "
              "(src/detmask and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    info = machine(root)
    bench = Bench(root, args.workload, args.seed, int(args.seconds))
    absent: list[str] = []
    special: dict[str, float] = {}
    try:
        if args.trace:
            wanted = spec["per_layer"]
            samples, absent = run_traced(bench, [m["name"] for m in wanted])
        else:
            wanted = spec["end_to_end"]
            samples, special = run_untraced(bench)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    info["loadavg_end"] = os.getloadavg()

    values = {name: special.get(name, statistics.median(v)) for name, v in samples.items() if v}
    spread = {name: iqr_share(v) for name, v in samples.items() if v}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    attempted, failed = max(bench.attempted, 1), bench.failed
    result = {"correct": not bench.failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "properties": bench.properties(),
        "pipelines": bench.records, "output_sha256": bench.reference,
        "failures": bench.failures, "absent_metrics": absent,
        "samples": samples, "spread_iqr_share": spread, "result": result,
    }
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"pipelines {len(bench.records)}  nproc {info['nproc']}  "
          f"load {info['loadavg_start'][0]:.2f}->{info['loadavg_end'][0]:.2f}")
    for name, value in values.items():
        note = ("" if name in metrics else "  (per-layer in BENCHMARK.json)" if name in units
                else "  (record only)")
        print(f"  {name:<44} {value:>12.6g} {units.get(name, ''):<12} n={len(samples[name])} "
              f"iqr/med={spread[name]:.3f}{note}")
    for name in absent:
        print(f"  {name:<44} {'absent':>12}")
    if args.trace and samples:
        print(f"  align --threads 2 and serial output byte-identical: yes "
              f"({len(samples[next(iter(samples))])} rounds)")
    print(f"  {'failed_frac':<44} {failed / attempted:>12.6g} {'ratio':<12} "
          f"({failed} of {attempted} stage runs)")
    for stage, message in bench.failures[:20]:
        print(f"  FAILED {stage}: {message}")
    print(f"  record: {out.relative_to(root)}")
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
