"""Golden digests: the seven CLI stages on a fixed worldgen world give pinned bytes.

The text outputs (KB tables, both sample streams, stats, masked inputs,
vocabulary, report text) must match the sha256 digests in
``golden.sha256``.  The float outputs ``model.ckpt`` and ``report.json`` are
not pinned, since their bytes may depend on the BLAS build, but two runs
under different hash seeds and ``--threads`` values must agree on them.

A change that means to alter output bytes says so and regenerates the
digest file with ``PYTHONPATH=src python tests/test_golden.py``, which prints
each pinned name whose digest changed (old → new) and how many stayed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from test_cli import stats_from_each_source
from worldgen import make_world

DIGESTS = Path(__file__).with_name("golden.sha256")
PINNED = (
    "kb/triplets.tsv", "kb/entities.tsv", "kb/predicates.tsv",
    "samples.jsonl", "samples.ssm.jsonl", "stats.txt",
    "masked.jsonl", "vocab.json", "report.txt",
)
UNPINNED = ("model.ckpt", "report.json")

# Runs each (argv, stdout file or null) of argv[1] through ``main`` in one
# process, so that the seven stages cost one interpreter start.
_RUNNER = """\
import contextlib, json, sys
from detmask.cli import main
for argv, stdout in json.loads(sys.argv[1]):
    with contextlib.ExitStack() as stack:
        if stdout:
            stack.enter_context(contextlib.redirect_stdout(
                stack.enter_context(open(stdout, "w", encoding="utf-8"))))
        code = main(argv)
    if code:
        sys.exit(f"{argv[0]} exited {code}")
"""


def write_world(root: Path) -> None:
    """Input files of a small worldgen world: KB tables, corpus, templates, facts."""
    kb, paragraphs = make_world(np.random.default_rng(31), n_entities=12, n_predicates=5,
                                n_triplets=24, n_paragraphs=60)
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "entities.tsv", "w", encoding="utf-8") as fh:
        for eid, aliases in kb.entity_aliases.items():
            fh.write(f"{eid}\t{aliases[0]}\t{'|'.join(aliases[1:])}\n")
    with open(root / "predicates.tsv", "w", encoding="utf-8") as fh:
        for pid, aliases in kb.predicate_aliases.items():
            fh.write(f"{pid}\t{'|'.join(aliases)}\n")
    with open(root / "triplets.tsv", "w", encoding="utf-8") as fh:
        for t in sorted(kb.triplets):
            fh.write(f"{t.subject}\t{t.predicate}\t{t.object}\n")
    with open(root / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for p in paragraphs:
            row = {"doc_id": p.doc_id, "text": p.text}
            if p.pre_linked_spans is not None:
                row["entity_spans"] = [list(s) for s in p.pre_linked_spans]
            fh.write(json.dumps(row) + "\n")
    with open(root / "templates.jsonl", "w", encoding="utf-8") as fh:
        for pid, aliases in kb.predicate_aliases.items():
            for pattern in (f"[X] {aliases[0]} [Y]", f"it is said that [X] {aliases[-1]} [Y]"):
                fh.write(json.dumps({"relation": pid, "pattern": pattern}) + "\n")
    with open(root / "facts.jsonl", "w", encoding="utf-8") as fh:
        for t in sorted(kb.triplets):
            fh.write(json.dumps({"s": t.subject, "p": t.predicate, "o": t.object,
                                 "s_surface": kb.entity_aliases[t.subject][0],
                                 "o_surface": kb.entity_aliases[t.object][0]}) + "\n")


def run_pipeline(inputs: Path, out: Path, hash_seed: str, threads: str) -> dict[str, str]:
    """Run all seven stages in ``out``; returns the sha256 of every output."""
    out.mkdir(parents=True, exist_ok=True)
    stages = [
        (["build-kb", "--triplets", str(inputs / "triplets.tsv"),
          "--entities", str(inputs / "entities.tsv"),
          "--predicates", str(inputs / "predicates.tsv"), "--out", "kb"], None),
        (["align", "--kb", "kb", "--corpus", str(inputs / "corpus.jsonl"),
          "--out", "samples.jsonl", "--threads", threads], None),
        (["stats", "--samples", "samples.jsonl"], "stats.txt"),
        (["mask", "--samples", "samples.jsonl", "--out", "masked.jsonl",
          "--emit", "triple", "--seed", "5"], None),
        (["train", "--data", "masked.jsonl", "--vocab", "vocab.json", "--out", "model.ckpt",
          "--steps", "20", "--dim", "8"], None),
        (["probe", "--model", "model.ckpt", "--templates", str(inputs / "templates.jsonl"),
          "--facts", str(inputs / "facts.jsonl"), "--out", "report.json",
          "--kb", "kb", "--pretrain", "samples.jsonl"], None),
        (["report", "--report", "report.json"], "report.txt"),
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(stages)],
                   cwd=out, env=env, check=True)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in PINNED + UNPINNED}


def read_digests() -> dict[str, str]:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def test_pipeline_outputs_match_golden_digests(tmp_path, capsys):
    """Also: ``stats`` prints the same from the align manifest's tallies as
    from counting the samples."""
    write_world(tmp_path / "inputs")
    started = time.perf_counter()
    first = run_pipeline(tmp_path / "inputs", tmp_path / "a", "0", "1")
    second = run_pipeline(tmp_path / "inputs", tmp_path / "b", "12345", "2")
    elapsed = time.perf_counter() - started
    assert {name: first[name] for name in PINNED} == read_digests()
    assert first == second
    assert elapsed < 5.0, f"two pipelines took {elapsed:.1f}s"
    tallied, counted, alone = stats_from_each_source(tmp_path / "a" / "samples.jsonl",
                                                     tmp_path, capsys)
    assert tallied == counted == (tmp_path / "a" / "stats.txt").read_text(encoding="utf-8")
    assert alone.splitlines()[1:5] == tallied.splitlines()[1:5]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_world(Path(tmp) / "inputs")
        digests = run_pipeline(Path(tmp) / "inputs", Path(tmp) / "run", "0", "1")
    old = read_digests() if DIGESTS.exists() else {}
    changed = [name for name in PINNED if old.get(name) != digests[name]]
    for name in changed:
        print(f"{name}: {old.get(name, '(none)')[:8]}… → {digests[name][:8]}…")
    print(f"{len(changed)} changed, {len(PINNED) - len(changed)} unchanged")
    DIGESTS.write_text("".join(f"{digests[name]}  {name}\n" for name in PINNED),
                       encoding="utf-8")
