"""The seven CLI stages of one workload, each run as its own process.

Every stage is ``python -m detmask.cli <subcommand> ...`` (or the tracing
wrapper in ``tracer.py``) started in the pipeline's output directory, timed
from outside with ``perf_counter`` and reaped with ``os.wait4`` so that its
peak resident set, pool workers included, comes back with it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

STAGES = ("build-kb", "align", "stats", "mask", "train", "probe", "report")

# Per-workload flags; everything else is shared.  Why each workload exists is
# written next to it in BENCHMARK.json.
FLAGS = {
    "dense_corpus": {
        "align": ["--threads", "2"],
        "mask": ["--samples", "samples.jsonl", "--emit", "pair"],
        "train": ["--steps", "100", "--dim", "16"],
    },
    "wide_vocab": {
        "align": [],
        "mask": ["--samples", "samples.jsonl", "--emit", "triple"],
        "train": ["--steps", "100", "--dim", "64"],
    },
    "fuzzy_predicates": {
        "align": [],
        "mask": ["--ssm", "samples.ssm.jsonl", "--scheme", "salient_span"],
        "train": ["--steps", "100", "--dim", "16"],
    },
}

# Stage outputs hashed for the determinism record (manifests excluded:
# they hold timestamps).
OUTPUTS = {
    "build-kb": ["kb/triplets.tsv", "kb/entities.tsv", "kb/predicates.tsv"],
    "align": ["samples.jsonl", "samples.ssm.jsonl"],
    "stats": ["stats.txt"],
    "mask": ["masked.jsonl", "vocab.json"],
    "train": ["model.ckpt", "model.ckpt.log.jsonl"],
    "probe": ["report.json"],
    "report": ["report.txt"],
}

# Files whose text is the stage's standard output.
STDOUT_FILES = {"stats": "stats.txt", "report": "report.txt"}


def stage_args(workload: str, stage: str, inputs: Path, threads: int | None = None) -> list[str]:
    """CLI arguments of ``stage``; ``threads`` overrides the workload's align flag."""
    flags = FLAGS[workload]
    if stage == "build-kb":
        return ["build-kb", "--triplets", str(inputs / "triplets.tsv"),
                "--entities", str(inputs / "entities.tsv"),
                "--predicates", str(inputs / "predicates.tsv"), "--out", "kb"]
    if stage == "align":
        align = flags["align"] if threads is None else ["--threads", str(threads)]
        return ["align", "--kb", "kb", "--corpus", str(inputs / "corpus.jsonl"),
                "--out", "samples.jsonl", *align]
    if stage == "stats":
        return ["stats", "--samples", "samples.jsonl"]
    if stage == "mask":
        return ["mask", "--out", "masked.jsonl", *flags["mask"]]
    if stage == "train":
        return ["train", "--data", "masked.jsonl", "--vocab", "vocab.json",
                "--out", "model.ckpt", *flags["train"]]
    if stage == "probe":
        return ["probe", "--model", "model.ckpt", "--templates", str(inputs / "templates.jsonl"),
                "--facts", str(inputs / "facts.jsonl"), "--out", "report.json",
                "--kb", "kb", "--pretrain", "samples.jsonl"]
    if stage == "report":
        return ["report", "--report", "report.json"]
    raise ValueError(stage)


# The reference loop: a fixed piece of pure-Python work whose duration, taken
# just before each stage, tracks how fast the shared machine runs right now.
# REFERENCE_LOOP_S is about its duration on the 2-core VM the bounds were set
# on; run.py scales the timing metrics to that speed.
REFERENCE_LOOP_S = 0.010
REFERENCE_PROBES = 5


def reference_loop() -> float:
    """Run the reference loop once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - t0


@dataclass
class StageRun:
    stage: str
    wall_s: float
    cpu_s: float
    exit_code: int
    peak_rss_mb: float
    stderr: str
    probes: tuple[float, ...]


def run_stage(cmd: list[str], cwd: Path, env: dict, stage: str, timeout: float) -> StageRun:
    """Run one stage process to completion; stdout goes to its STDOUT_FILES entry.

    The reference loop runs ``REFERENCE_PROBES`` times just before it.
    The child is reaped with ``os.wait4`` rather than by ``subprocess``, for
    its rusage; a timer kills it if it outlives ``timeout``.
    """
    out_name = STDOUT_FILES.get(stage)
    err_path = cwd / f"{stage}.stderr"
    probes = tuple(reference_loop() for _ in range(REFERENCE_PROBES))
    with open(cwd / out_name if out_name else os.devnull, "wb") as stdout, \
            open(err_path, "wb") as stderr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    err = err_path.read_bytes().decode("utf-8", "replace")[-2000:]
    return StageRun(stage, wall, usage.ru_utime + usage.ru_stime, proc.returncode,
                    usage.ru_maxrss / 1024.0, err, probes)


def cli_command(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "detmask.cli", *args]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def output_hashes(stage: str, cwd: Path) -> dict[str, str]:
    return {name: sha256(cwd / name) for name in OUTPUTS[stage] if (cwd / name).exists()}
