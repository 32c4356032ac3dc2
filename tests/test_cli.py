"""End-to-end pipeline runs through the command line interface."""

from __future__ import annotations

import ast
import errno
import hashlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmask import cli, fileio, formats, kb, model
from detmask.cli import main
from detmask.fileio import read_json
from detmask.formats import (
    read_facts,
    read_masked,
    read_samples,
    read_ssm,
    read_templates,
    read_vocab,
)
from detmask.masking import Vocabulary
from detmask.model import load_checkpoint
from detmask.probe import build_questions, filter_leakage, length_batches
from oracles import read_masked_oracle
from test_formats import half_writing_open
from worldgen import make_world, write_world_inputs

ENTITIES = """\
WarHorse\tWar Horse
Spielberg\tSteven Spielberg\tSpielberg
Jaws\tJaws
Lincoln\tLincoln
Irvine\tJeremy Irvine
Watson\tEmily Watson
"""

PREDICATES = """\
directedBy\tdirected by
starring\tstarring
"""

TRIPLETS = """\
WarHorse\tdirectedBy\tSpielberg
Jaws\tdirectedBy\tSpielberg
Lincoln\tdirectedBy\tSpielberg
WarHorse\tstarring\tIrvine
WarHorse\tstarring\tWatson
"""

CORPUS = [
    {"doc_id": "p1", "text": "War Horse is an American war film directed by Steven Spielberg"},
    {"doc_id": "p2", "text": "Jaws was directed by Spielberg in 1975"},
    {"doc_id": "p3", "text": "Lincoln is a movie directed by Steven Spielberg"},
    {"doc_id": "p4", "text": "War Horse is starring Jeremy Irvine and Emily Watson"},
    {"doc_id": "p5", "text": "nothing relevant happens in this paragraph"},
]

TEMPLATES = [
    {"relation": "directedBy", "pattern": "[X] was directed by [Y]"},
    {"relation": "directedBy", "pattern": "the film [X] is a work of [Y]"},
    {"relation": "starring", "pattern": "[X] is starring [Y]"},
]

FACTS = [
    {"s": "WarHorse", "p": "directedBy", "o": "Spielberg",
     "s_surface": "War Horse", "o_surface": "Spielberg"},
    {"s": "Jaws", "p": "directedBy", "o": "Spielberg",
     "s_surface": "Jaws", "o_surface": "Spielberg"},
    {"s": "WarHorse", "p": "starring", "o": "Irvine",
     "s_surface": "War Horse", "o_surface": "Jeremy Irvine"},
    {"s": "Odyssey", "p": "directedBy", "o": "Kubrick",
     "s_surface": "Odyssey", "o_surface": "Stanley Kubrick"},
]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_inputs(root: Path) -> dict[str, Path]:
    paths = {
        "entities": root / "entities.tsv",
        "predicates": root / "predicates.tsv",
        "triplets": root / "triplets.tsv",
        "corpus": root / "corpus.jsonl",
        "templates": root / "templates.jsonl",
        "facts": root / "facts.jsonl",
    }
    paths["entities"].write_text(ENTITIES, encoding="utf-8")
    paths["predicates"].write_text(PREDICATES, encoding="utf-8")
    paths["triplets"].write_text(TRIPLETS, encoding="utf-8")
    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        for obj in CORPUS:
            fh.write(json.dumps(obj) + "\n")
    with open(paths["templates"], "w", encoding="utf-8") as fh:
        for obj in TEMPLATES:
            fh.write(json.dumps(obj) + "\n")
    with open(paths["facts"], "w", encoding="utf-8") as fh:
        for obj in FACTS:
            fh.write(json.dumps(obj) + "\n")
    return paths


# Values an edit may write into a masked line: ids around the small world's
# range, ids past 64 bits, and every other JSON kind.
JSON_VALUES = st.one_of(
    st.integers(-3, 40),
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1]),
    st.booleans(),
    st.floats(),
    st.sampled_from(["p1", "p2", "plain", "keep_clues", "mask_clues", "mask_random",
                     "deterministic", "salient_span"]),
    st.text(max_size=4),
    st.none(),
)

# One edit of a value inside a valid masked line (index taken modulo the line
# count): set a list element, resize a list (padding with the value), replace
# the whole value, cut the input short with the mask positions still inside
# it, or rewrite one of the line's digits and minus signs.
MASKED_EDITS = st.tuples(
    st.integers(0, 8),
    st.sampled_from(["input_ids", "mask_positions", "targets", "doc_id", "variant", "scheme"]),
    st.one_of(
        st.tuples(st.just("element"), st.floats(0, 1, exclude_max=True), JSON_VALUES),
        st.tuples(st.just("length"), st.integers(0, 40), JSON_VALUES),
        st.tuples(st.just("value"), st.just(0), JSON_VALUES),
        st.tuples(st.just("cut"), st.integers(0, 12), st.none()),
        st.tuples(st.just("digit"), st.floats(0, 1, exclude_max=True),
                  st.sampled_from("0123456789-")),
    ),
)


# Values an edit may write into a samples line: those of a masked line, span
# bounds around the texts' lengths, short lists, and ids of the world, one
# with a space, one padded and one empty.
SAMPLE_VALUES = st.one_of(
    JSON_VALUES,
    st.integers(-2, 70),
    st.lists(st.one_of(st.integers(-2, 70), st.text(max_size=3)), max_size=3),
    st.sampled_from(["WarHorse", "directedBy", "Spielberg", "War Horse", " Jaws ", ""]),
)

# Triplet keys of a samples line.
TRIPLET_KEYS = ("s", "p", "o", "s_span", "p_span", "o_span", "edit_distance")

# One edit of a value inside a valid samples line (line index taken modulo the
# line count, triplet or entity entry picked by a fraction): replace the
# value of a top-level key, of a triplet key or of a whole entity entry, set
# one element of that value if it is a list (a span bound, an entity's bound
# or id), or resize the list (padding with the value).
SAMPLE_EDITS = st.tuples(
    st.integers(0, 8),
    st.sampled_from(["doc_id", "text", "entities", "triplets", "entity", *TRIPLET_KEYS]),
    st.floats(0, 1, exclude_max=True),
    st.one_of(
        st.tuples(st.just("value"), st.just(0), SAMPLE_VALUES),
        st.tuples(st.just("element"), st.floats(0, 1, exclude_max=True), SAMPLE_VALUES),
        st.tuples(st.just("length"), st.integers(0, 4), SAMPLE_VALUES),
    ),
)


def apply_edit(holder, key, kind: str, at, value) -> None:
    """Replace ``holder[key]``, set one element of it if it is a list, or
    resize that list (padding with ``value``)."""
    old = holder[key]
    if kind == "value":
        holder[key] = value
    elif kind == "element" and isinstance(old, list) and old:
        old[int(at * len(old))] = value
    elif kind == "length" and isinstance(old, list):
        holder[key] = (old + [value] * at)[:at]


def edit_sample_lines(lines: list[str], edits: list[tuple]) -> list[str]:
    """``lines`` after ``SAMPLE_EDITS`` edits; an edit whose target an earlier
    edit removed does nothing."""
    objs = [json.loads(line) for line in lines]
    for line_no, field, pick, (kind, at, value) in edits:
        obj = objs[line_no % len(objs)]
        holder, key = obj, field
        if field == "entity" or field in TRIPLET_KEYS:
            entries = obj.get("entities" if field == "entity" else "triplets")
            if not isinstance(entries, list) or not entries:
                continue
            holder, key = entries, int(pick * len(entries))
            if field != "entity":
                holder, key = entries[key], field
                if not isinstance(holder, dict) or key not in holder:
                    continue
        apply_edit(holder, key, kind, at, value)
    return [json.dumps(obj) for obj in objs]


# Values an edit may write into a corpus line: those of a samples line, and
# pre-linked span entries with bounds around the texts' lengths and ids of
# the world, unknown or padded.
CORPUS_VALUES = st.one_of(
    SAMPLE_VALUES,
    st.tuples(st.integers(-2, 70), st.integers(-2, 70),
              st.sampled_from(["WarHorse", "Spielberg", "Jaws", "Nobody", " Jaws", ""])).map(list),
)

# One edit of a value inside a corpus line (line index taken modulo the line
# count, span entry picked by a fraction): replace the value of a top-level
# key or a whole pre-linked span entry, set one element of that value if it
# is a list (an entry, a bound or an id), or resize the list.
CORPUS_EDITS = st.tuples(
    st.integers(0, 8),
    st.sampled_from(["doc_id", "text", "entity_spans", "span"]),
    st.floats(0, 1, exclude_max=True),
    st.one_of(
        st.tuples(st.just("value"), st.just(0), CORPUS_VALUES),
        st.tuples(st.just("element"), st.floats(0, 1, exclude_max=True), CORPUS_VALUES),
        st.tuples(st.just("length"), st.integers(0, 4), CORPUS_VALUES),
    ),
)


def edit_corpus_lines(objs: list[dict], edits: list[tuple]) -> list[str]:
    """The lines of ``objs`` after ``CORPUS_EDITS`` edits; an edit of a key or
    an entry that is not there does nothing."""
    objs = json.loads(json.dumps(objs))
    for line_no, field, pick, (kind, at, value) in edits:
        holder, key = objs[line_no % len(objs)], field
        if field == "span":
            holder = holder.get("entity_spans")
            if not isinstance(holder, list) or not holder:
                continue
            key = int(pick * len(holder))
        elif key not in holder:
            holder[key] = []
        apply_edit(holder, key, kind, at, value)
    return [json.dumps(obj) for obj in objs]


# Values an edit may write into a checkpoint header: those of a masked line,
# offsets inside and just past the tensor data, shapes, and vocabulary tokens
# (the sentinels, tokens of the world and a new one).
CHECKPOINT_VALUES = st.one_of(
    JSON_VALUES,
    st.integers(0, 2000).map(lambda k: 8 * k),
    st.lists(st.integers(-1, 40), max_size=3),
    st.sampled_from(["<pad>", "<mask>", "<unk>", "war", "spielberg", "unseen"]),
)

# One edit of a value inside a valid checkpoint header: the vocabulary, one
# config field or one tensor's shape or offset (picked by a fraction) is
# replaced, has one element set if it is a list, or is resized.
CHECKPOINT_EDITS = st.tuples(
    st.sampled_from(["vocab", "config", "shape", "offset"]),
    st.floats(0, 1, exclude_max=True),
    st.one_of(
        st.tuples(st.just("value"), st.just(0), CHECKPOINT_VALUES),
        st.tuples(st.just("element"), st.floats(0, 1, exclude_max=True), CHECKPOINT_VALUES),
        st.tuples(st.just("length"), st.integers(0, 40), CHECKPOINT_VALUES),
    ),
)


def edit_checkpoint_header(header: dict, edits: list[tuple]) -> dict:
    """``header`` after ``CHECKPOINT_EDITS`` edits."""
    for field, pick, (kind, at, value) in edits:
        holder, key = header, field
        if field == "config":
            holder = header["config"]
            key = sorted(holder)[int(pick * len(holder))]
        elif field != "vocab":
            tensors = header["tensors"]
            holder = tensors[int(pick * len(tensors))]
        apply_edit(holder, key, kind, at, value)
    return header


# Keys of a facts line and of a templates line.
FACT_KEYS = ("s", "p", "o", "s_surface", "o_surface")
TEMPLATE_KEYS = ("relation", "pattern")

# Values an edit may write into a facts or templates line: those of a samples
# line, and patterns, a padded relation and surfaces of the world.
PROBE_INPUT_VALUES = st.one_of(
    SAMPLE_VALUES,
    st.sampled_from(["[X] was directed by [Y]", "[Y] [X]", "[X] only", "[X] [Y] [Y]",
                     " starring ", "Jeremy Irvine", "<mask>"]),
)

# One edit of a facts or templates line (index taken modulo the line count):
# replace the value of one key, or delete the key.
PROBE_INPUT_EDITS = st.tuples(
    st.one_of(st.tuples(st.just("facts"), st.sampled_from(FACT_KEYS)),
              st.tuples(st.just("templates"), st.sampled_from(TEMPLATE_KEYS))),
    st.integers(0, 8),
    st.one_of(st.tuples(st.just("value"), PROBE_INPUT_VALUES),
              st.tuples(st.just("delete"), st.none())),
)


# Values an edit may write into one field of a KB table: ids of the world,
# padded, split, empty and dangling ids, ids that read as comments once their
# padding is gone, and alias lists.
KB_VALUES = st.one_of(
    st.sampled_from(["WarHorse", "Jaws", "Spielberg", "directedBy", "starring",
                     " Jaws ", "Jaws\u00a0", "War Horse", "", " ", "Nobody", "narratedBy",
                     "#Jaws", " #Jaws", "# comment", "a|b", "|", " | ", "a||a", "Jaws|Jaws"]),
    st.text(max_size=4),
)

# One edit of a valid KB table (line and field taken modulo their counts):
# replace a field, delete it (a missing column), add one after it, add a copy
# of the line with the field replaced, repeat the line (duplicate ids), or
# turn the line into a comment.
KB_EDITS = st.tuples(
    st.sampled_from(["triplets", "entities", "predicates"]),
    st.integers(0, 8),
    st.integers(0, 2),
    st.one_of(st.tuples(st.sampled_from(["value", "insert", "copy"]), KB_VALUES),
              st.tuples(st.sampled_from(["delete", "repeat", "comment"]), st.none())),
)


def edit_kb_tables(tables: dict[str, str], edits: list[tuple]) -> dict[str, str]:
    """``tables`` (name -> text) after ``KB_EDITS`` edits."""
    lines = {name: text.splitlines() for name, text in tables.items()}
    for name, line_no, col, (op, value) in edits:
        rows = lines[name]
        if not rows:
            continue
        i = line_no % len(rows)
        fields = rows[i].split("\t")
        j = col % len(fields)
        if op == "value":
            fields[j] = value
        elif op == "insert":
            fields.insert(j + 1, value)
        elif op == "copy":
            rows.append("\t".join([*fields[:j], value, *fields[j + 1:]]))
            continue
        elif op == "delete":
            del fields[j]
        elif op == "repeat":
            rows.append(rows[i])
        else:
            fields[0] = "#" + fields[0]
        rows[i] = "\t".join(fields)
    return {name: "".join(row + "\n" for row in rows) for name, rows in lines.items()}


def probe_split_argv(pipeline: dict, out: Path, kb: Path, pretrain: Path) -> list[str]:
    """``probe`` of the pipeline's model with the split breakdowns."""
    return ["probe", "--model", str(pipeline["ckpt"]), "--templates", str(pipeline["templates"]),
            "--facts", str(pipeline["facts"]), "--out", str(out),
            "--kb", str(kb), "--pretrain", str(pretrain)]


def cut_input(obj: dict, n: int) -> None:
    """Keep the first ``n`` input ids of a masked line, and the mask positions
    (with their targets) that still index them, if those lists are intact."""
    lists = obj["input_ids"], obj["mask_positions"], obj["targets"]
    if all(isinstance(v, list) and all(type(x) is int for x in v) for v in lists):
        kept = [(p, t) for p, t in zip(obj["mask_positions"], obj["targets"]) if p < n]
        obj["input_ids"] = obj["input_ids"][:n]
        obj["mask_positions"] = [p for p, _t in kept]
        obj["targets"] = [t for _p, t in kept]


def edit_masked_lines(lines: list[str], edits: list[tuple]) -> list[str]:
    """``lines`` after ``MASKED_EDITS`` edits: the value edits, then the digit rewrites."""
    objs = [json.loads(line) for line in lines]
    for line_no, key, (kind, at, value) in edits:
        obj = objs[line_no % len(objs)]
        old = obj[key]
        if kind == "element" and isinstance(old, list) and old:
            old[int(at * len(old))] = value
        elif kind == "length" and isinstance(old, list):
            obj[key] = (old + [value] * at)[:at]
        elif kind == "cut":
            cut_input(obj, at)
        elif kind != "digit":
            obj[key] = value
    out = [json.dumps(obj) for obj in objs]
    for line_no, _key, (kind, at, char) in edits:
        if kind == "digit":
            line = out[line_no % len(out)]
            spots = [i for i, c in enumerate(line) if c.isdigit() or c == "-"]
            i = spots[int(at * len(spots))]
            out[line_no % len(out)] = line[:i] + char + line[i + 1:]
    return out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole chain once; tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = write_inputs(root)
    kb_dir = root / "kb"
    samples = root / "samples.jsonl"
    masked = root / "masked.jsonl"
    ckpt = root / "model.ckpt"
    report = root / "report.json"

    assert main([
        "build-kb",
        "--triplets", str(paths["triplets"]),
        "--entities", str(paths["entities"]),
        "--predicates", str(paths["predicates"]),
        "--out", str(kb_dir),
    ]) == 0
    assert main([
        "align", "--kb", str(kb_dir), "--corpus", str(paths["corpus"]),
        "--out", str(samples),
    ]) == 0
    assert main([
        "mask", "--samples", str(samples), "--out", str(masked),
        "--emit", "triple", "--seed", "3",
    ]) == 0
    assert main([
        "train", "--data", str(masked), "--vocab", str(root / "vocab.json"),
        "--out", str(ckpt), "--steps", "40", "--dim", "8", "--lr", "0.5",
    ]) == 0
    assert main([
        "probe", "--model", str(ckpt), "--templates", str(paths["templates"]),
        "--facts", str(paths["facts"]), "--out", str(report),
        "--kb", str(kb_dir), "--pretrain", str(samples),
    ]) == 0
    return {"root": root, "kb": kb_dir, "samples": samples, "masked": masked,
            "ckpt": ckpt, "report": report, **paths}


class TestPipelineArtifacts:
    def test_kb_dir_canonicalized(self, pipeline):
        kb = pipeline["kb"]
        assert (kb / "triplets.tsv").exists()
        lines = (kb / "triplets.tsv").read_text().splitlines()
        assert lines == sorted(lines)
        manifest = read_json(kb / "kb.manifest.json")
        assert manifest["counters"] == {"triplets": 5, "entities": 6, "predicates": 2}

    def test_align_outputs(self, pipeline):
        samples = read_samples(pipeline["samples"])
        assert [s.paragraph.doc_id for s in samples] == ["p1", "p2", "p3"]
        ssm = read_ssm(Path(str(pipeline["samples"]).replace(".jsonl", ".ssm.jsonl")))
        assert [s.paragraph.doc_id for s in ssm] == ["p1", "p2", "p3", "p4"]

    def test_align_manifest_counters_consistent(self, pipeline):
        manifest = read_json(str(pipeline["samples"]) + ".manifest.json")
        c = manifest["counters"]
        assert c["paragraphs_processed"] == 5
        assert (
            c["paragraphs_processed"]
            == c["paragraphs_skipped"] + c["ssm_emitted"] + c["paragraphs_no_output"]
        )
        assert c["non_deterministic_triplets"] == 2  # the two starring pairs
        assert c["samples_emitted"] == 3
        assert c["emitted_triplets"] == 3

    def test_mask_output_groups_into_triples(self, pipeline):
        masked = read_masked_oracle(pipeline["masked"])
        vocab = read_vocab(pipeline["root"] / "vocab.json")
        items, count, _longest = read_masked(pipeline["masked"], vocab.size, "vocab.json", 3)
        assert len(masked) == 9  # three docs, three lines each
        assert count == 3
        assert all(isinstance(item, tuple) and len(item) == 3 for item in items)
        assert vocab.encode("spielberg") != 2

    def test_mask_manifest(self, pipeline):
        manifest = read_json(str(pipeline["masked"]) + ".manifest.json")
        assert manifest["counters"]["groups_processed"] == 3
        assert manifest["counters"]["lines_emitted"] == 9
        assert manifest["config"]["emit"] == "triple"

    def test_train_outputs(self, pipeline):
        state, config, vocab = load_checkpoint(pipeline["ckpt"])
        assert config.d == 8
        assert vocab is not None
        log_lines = Path(str(pipeline["ckpt"]) + ".log.jsonl").read_text().splitlines()
        assert len(log_lines) == 40
        first = json.loads(log_lines[0])
        assert set(first) == {"step", "L_mlm", "L_con", "L_cls", "L_total"}

    def test_probe_report_structure(self, pipeline):
        doc = read_json(pipeline["report"])
        assert doc["format"] == "detmask-report" and doc["version"] == 1
        splits = doc["splits"]
        assert splits["total"]["questions"] == doc["counts"]["questions_kept"]
        # Fact labels come from the KB: starring is a multi-object relation.
        assert splits["nm"]["questions"] >= 1
        assert splits["n1_or_11"]["questions"] >= 1
        assert splits["out_of_domain"]["facts"] >= 1
        assert doc["counts"]["facts"] == 4

    def test_probe_manifest_counts_prediction_batches(self, pipeline):
        questions = build_questions(read_templates(pipeline["templates"]),
                                    read_facts(pipeline["facts"]))
        kept, _dropped = filter_leakage(questions)
        doc = read_json(pipeline["report"])
        counters = read_json(str(pipeline["report"]) + ".manifest.json")["counters"]
        assert counters == {**doc["counts"], "prediction_batches": len(length_batches(kept))}
        assert 1 < counters["prediction_batches"] < len(kept)

    def test_manifests_record_each_stage(self, pipeline):
        root, kb, samples, masked, ckpt, report = (
            pipeline[k] for k in ("root", "kb", "samples", "masked", "ckpt", "report"))
        last = json.loads(Path(str(ckpt) + ".log.jsonl").read_text().splitlines()[-1])
        kept, _dropped = filter_leakage(build_questions(read_templates(pipeline["templates"]),
                                                        read_facts(pipeline["facts"])))
        expected = {
            kb / "kb": {
                "command": "build-kb",
                "inputs": {k: str(pipeline[k]) for k in ("triplets", "entities", "predicates")},
                "outputs": {"kb": str(kb)},
                "seed": None,
                "config": {},
                "counters": {"triplets": 5, "entities": 6, "predicates": 2},
            },
            samples: {
                "command": "align",
                "inputs": {"kb": str(kb), "corpus": str(pipeline["corpus"])},
                "outputs": {"samples": str(samples), "ssm": str(root / "samples.ssm.jsonl")},
                "seed": None,
                "config": {"threads": 1},
                "counters": {
                    "paragraphs_processed": 5, "paragraphs_skipped": 0, "ssm_emitted": 4,
                    "paragraphs_no_output": 1, "samples_emitted": 3, "candidate_triplets": 5,
                    "non_deterministic_triplets": 2, "unmatched_deterministic_triplets": 0,
                    "emitted_triplets": 3, "tokens": 26, "object_groups": 3, "clue_tokens": 10,
                    "object_tokens": 5, "skips": [],
                },
                "sha256": {"samples": sha256(samples), "ssm": sha256(root / "samples.ssm.jsonl")},
            },
            masked: {
                "command": "mask",
                "inputs": {"samples": str(samples)},
                "outputs": {"masked": str(masked), "vocab": str(root / "vocab.json")},
                "seed": 3,
                "config": {"scheme": None, "emit": "triple"},
                "counters": {"groups_processed": 3, "lines_emitted": 9, "groups_skipped": 0,
                             "skip_reasons": {}, "items": 3, "longest": 11, "skips": []},
                "sha256": {"masked": sha256(masked), "vocab": sha256(root / "vocab.json")},
            },
            ckpt: {
                "command": "train",
                "inputs": {"data": str(masked), "vocab": str(root / "vocab.json")},
                "outputs": {"checkpoint": str(ckpt), "log": str(ckpt) + ".log.jsonl"},
                "seed": 0,
                "config": {"steps": 40, "lr": 0.5, "dim": 8, "max_len": 64,
                           "lambda_con": 1.0, "lambda_cls": 1.0},
                "counters": {"items": 3, "lines_read": 9, "steps_run": 40,
                             "final_L_mlm": last["L_mlm"], "final_L_total": last["L_total"]},
            },
            report: {
                "command": "probe",
                "inputs": {"model": str(ckpt), "templates": str(pipeline["templates"]),
                           "facts": str(pipeline["facts"]), "kb": str(kb),
                           "pretrain": str(samples)},
                "outputs": {"report": str(report)},
                "seed": None,
                "config": {},
                "counters": {**read_json(report)["counts"],
                             "prediction_batches": len(length_batches(kept))},
            },
        }
        for main_output, want in expected.items():
            manifest = read_json(str(main_output) + ".manifest.json")
            keys = ["command", "inputs", "outputs", "seed", "config", "started", "duration_s",
                    "counters"]
            assert list(manifest) == keys + (["sha256"] if "sha256" in want else []), main_output
            del manifest["started"], manifest["duration_s"]
            assert manifest == want, main_output

    def test_align_output_that_is_not_a_file_has_no_digest(self, pipeline, tmp_path):
        """Reading a FIFO or device back would block or hash nothing."""
        samples = tmp_path / "samples.jsonl"
        assert main(["align", "--kb", str(pipeline["kb"]), "--corpus", str(pipeline["corpus"]),
                     "--out", str(samples), "--ssm-out", os.devnull]) == 0
        assert read_json(f"{samples}.manifest.json")["sha256"] == {"samples": sha256(samples)}

    def test_manifest_duration_covers_the_whole_stage(self, pipeline, tmp_path, monkeypatch):
        def slow(read):
            def slow_read(*args, **kwargs):
                time.sleep(0.2)
                return read(*args, **kwargs)
            return slow_read

        # Each stage's first input read.
        for module, name in ((kb, "load_kb"), (kb, "load_kb_dir"), (formats, "read_samples"),
                             (formats, "read_masked"), (model, "load_checkpoint")):
            monkeypatch.setattr(module, name, slow(getattr(module, name)))
        kb_dir, samples = tmp_path / "kb", tmp_path / "samples.jsonl"
        masked = tmp_path / "masked.jsonl"
        ckpt, report = tmp_path / "model.ckpt", tmp_path / "report.json"
        stages = {
            kb_dir / "kb": ["build-kb", "--triplets", str(pipeline["triplets"]),
                            "--entities", str(pipeline["entities"]),
                            "--predicates", str(pipeline["predicates"]), "--out", str(kb_dir)],
            samples: ["align", "--kb", str(kb_dir), "--corpus", str(pipeline["corpus"]),
                      "--out", str(samples)],
            masked: ["mask", "--samples", str(samples), "--out", str(masked), "--emit", "triple"],
            ckpt: ["train", "--data", str(masked), "--vocab", str(tmp_path / "vocab.json"),
                   "--out", str(ckpt), "--steps", "1"],
            report: ["probe", "--model", str(ckpt), "--templates", str(pipeline["templates"]),
                     "--facts", str(pipeline["facts"]), "--out", str(report)],
        }
        for main_output, argv in stages.items():
            assert main(argv) == 0, argv[0]
            duration = read_json(str(main_output) + ".manifest.json")["duration_s"]
            assert duration >= 0.2, (argv[0], duration)

    def test_report_command_prints_summary(self, pipeline, capsys):
        assert main(["report", "--report", str(pipeline["report"])]) == 0
        out = capsys.readouterr().out
        assert out.startswith("total")
        assert "acc" in out and "joint" in out and "questions: built" in out

    def test_stats_command(self, pipeline, capsys):
        assert main(["stats", "--samples", str(pipeline["samples"])]) == 0
        out = capsys.readouterr().out
        assert "paragraphs" in out and "samples" in out
        # 2 of 5 candidate triplets were non-deterministic.
        assert "0.4000" in out
        assert "no manifest" not in out


def sample_line(doc_id: str, text: str, s_span, p_span, o_span) -> str:
    """A hand-written samples.jsonl line holding one triplet."""
    triplet = {"s": "Q1", "p": "P1", "o": "Q2", "s_span": s_span, "p_span": p_span,
               "o_span": o_span, "edit_distance": 0}
    return json.dumps({"doc_id": doc_id, "text": text, "entities": [],
                       "triplets": [triplet]}) + "\n"


class TestMaskSkipReasons:
    """Each masking skip is counted under its error class's name, which is
    why ``NoClues``, ``InsufficientContext`` and ``NoMaskableContent`` are
    types of their own, and listed in ``skips`` with its doc id and message."""

    def skip_counters(self, tmp_path, lines: list[str], *mode: str) -> tuple:
        samples, masked = tmp_path / "samples.jsonl", tmp_path / "masked.jsonl"
        samples.write_text("".join(lines), encoding="utf-8")
        assert main(["mask", "--samples", str(samples), "--out", str(masked), *mode]) == 0
        counters = read_json(str(masked) + ".manifest.json")["counters"]
        return counters["skip_reasons"], counters["skips"]

    def test_triple_skips_groups_without_clues_or_context(self, tmp_path):
        text = "alpha beta gamma"
        lines = [
            # Subject and predicate lie inside the object span: no clue token.
            sample_line("inside", text, [0, 5], [6, 10], [0, 16]),
            # Two clue tokens and no other token to mask at random.
            sample_line("crowded", text, [0, 5], [6, 10], [11, 16]),
        ]
        assert self.skip_counters(tmp_path, lines, "--emit", "triple") == (
            {"InsufficientContext": 1, "NoClues": 1},
            [["inside", "sample has no clue tokens"],
             ["crowded", "need 2 maskable context tokens, have 0"]])

    def test_object_span_skips_a_span_inside_one_word(self, tmp_path):
        lines = [sample_line("part", "alpha beta gamma", [0, 5], [6, 10], [12, 14])]
        assert self.skip_counters(tmp_path, lines, "--scheme", "object_span") == (
            {"NoMaskableContent": 1}, [["part", "no object tokens to mask"]])

def stage_env() -> dict:
    """The environment for a stage subprocess that imports this checkout's
    detmask, with the stdout buffering that users get: ``PYTHONUNBUFFERED``
    is left out, and a test that needs it sets it."""
    src = str(Path(fileio.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


class TestStageImports:
    def test_stages_import_only_what_they_use(self, tmp_path):
        """build-kb, align, stats, report and every mode of mask never load
        numpy or model code; build-kb and report load no reader, aligner or
        masking code, and neither does stats beside an align manifest, which
        with report loads no KB code either.  None of them loads logging,
        dataclasses, datetime or inspect unless a bare interpreter in the
        same environment already has;
        train and probe, which load numpy (and with it inspect and datetime),
        load neither logging nor dataclasses."""
        paths = write_inputs(tmp_path)
        kb_dir, samples = tmp_path / "kb", tmp_path / "samples.jsonl"
        alone = tmp_path / "alone" / "samples.jsonl"
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"format": "detmask-report", "splits": {}}), encoding="utf-8")
        # DETMASK_LOG once switched logging on; it must not load logging now.
        env = {**stage_env(), "DETMASK_LOG": "debug"}
        bare = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                              env=env, capture_output=True, text=True, timeout=60)
        lean = tuple({"logging", "dataclasses", "datetime", "inspect"}
                     - set(bare.stdout.split()))
        numpy_free = ("numpy", "detmask.model", "detmask.probe", *lean)
        numpy_stage = tuple({"logging", "dataclasses"}.intersection(lean))
        ckpt = tmp_path / "model.ckpt"
        kb_only = (*numpy_free, "detmask.formats", "detmask.align", "detmask.masking",
                   "detmask.tokenizer", "detmask.editdist")
        runs = [
            (["build-kb", "--triplets", str(paths["triplets"]), "--entities",
              str(paths["entities"]), "--predicates", str(paths["predicates"]),
              "--out", str(kb_dir)], kb_only),
            (["align", "--kb", str(kb_dir), "--corpus", str(paths["corpus"]),
              "--out", str(samples)], numpy_free),
            # With no manifest beside its copy of the samples, stats counts them.
            (["stats", "--samples", str(alone)], numpy_free),
            (["stats", "--samples", str(samples)], (*kb_only, "detmask.kb")),
            (["report", "--report", str(report)], (*kb_only, "detmask.kb")),
            *((["mask", "--samples", str(samples), "--out", str(tmp_path / f"masked{i}.jsonl"),
                *mode], numpy_free)
              for i, mode in enumerate([("--emit", "triple"), ("--emit", "pair"),
                                        ("--scheme", "deterministic"),
                                        ("--scheme", "random_token"),
                                        ("--scheme", "whole_word"),
                                        ("--scheme", "salient_span")])),
            (["train", "--data", str(tmp_path / "masked0.jsonl"), "--vocab",
              str(tmp_path / "vocab.json"), "--out", str(ckpt), "--steps", "3", "--dim", "4"],
             numpy_stage),
            (["probe", "--model", str(ckpt), "--templates", str(paths["templates"]),
              "--facts", str(paths["facts"]), "--out", str(tmp_path / "probe.json"),
              "--kb", str(kb_dir), "--pretrain", str(samples)], numpy_stage),
        ]
        code = ("import sys\n"
                "from detmask.cli import main\n"
                "assert main(sys.argv[2:]) == 0\n"
                "loaded = [m for m in sys.argv[1].split(',') if m in sys.modules]\n"
                "assert not loaded, loaded\n")
        for argv, absent in runs:
            proc = subprocess.run([sys.executable, "-c", code, ",".join(absent), *argv],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, (argv[0], proc.stderr)
            if argv[0] == "align":
                alone.parent.mkdir()
                shutil.copy(samples, alone)


class TestAlignSkips:
    def test_skipped_paragraph_is_in_the_manifest(self, tmp_path, capsys):
        """A paragraph whose pre-linked span is invalid is recorded with its
        reason in the align manifest's ``skips``, which ``stats`` reads past."""
        paths = write_inputs(tmp_path)
        bad = {"doc_id": "bad", "text": "x", "entity_spans": [[0, 99, "Jaws"]]}
        with open(paths["corpus"], "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")
        kb_dir, samples = tmp_path / "kb", tmp_path / "samples.jsonl"
        assert main(["build-kb", "--triplets", str(paths["triplets"]),
                     "--entities", str(paths["entities"]),
                     "--predicates", str(paths["predicates"]), "--out", str(kb_dir)]) == 0
        assert main(["align", "--kb", str(kb_dir), "--corpus", str(paths["corpus"]),
                     "--out", str(samples)]) == 0
        counters = read_json(str(samples) + ".manifest.json")["counters"]
        assert counters["skips"] == [["bad", "pre-linked span [0,99) outside text of length 1"]]
        assert counters["paragraphs_skipped"] == 1
        capsys.readouterr()
        assert main(["stats", "--samples", str(samples)]) == 0
        assert capsys.readouterr() == (
            "paragraphs              6\n"
            "samples                 3\n"
            "avg tokens/paragraph    8.6667\n"
            "avg clue tokens         3.3333\n"
            "avg object tokens       1.6667\n"
            "nondeterministic frac   0.4000\n", "")


def stats_from_each_source(samples: Path, tmp_path: Path, capsys) -> tuple[str, str, str]:
    """``stats`` stdout on ``samples``: from the tallies of its align manifest,
    counting the samples under that manifest without its ``sha256``, and
    counting a copy of the samples that has no manifest."""
    manifest = read_json(f"{samples}.manifest.json")
    del manifest["sha256"]
    undigested = tmp_path / "undigested.manifest.json"
    undigested.write_text(json.dumps(manifest), encoding="utf-8")
    alone = tmp_path / "alone" / "samples.jsonl"
    alone.parent.mkdir()
    shutil.copy(samples, alone)
    outs = []
    for argv in (["stats", "--samples", str(samples)],
                 ["stats", "--samples", str(samples), "--manifest", str(undigested)],
                 ["stats", "--samples", str(alone)]):
        capsys.readouterr()
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert err == "", argv
        outs.append(out)
    return tuple(outs)


class TestStatsSources:
    @pytest.mark.parametrize("extra", [
        [],
        [{"doc_id": "bad", "text": "x", "entity_spans": [[0, 99, "Jaws"]]},
         {"doc_id": "p6", "text": "Jaws was direted by Steven Spielberg"}],
    ], ids=["cli_world", "skip_and_distance_1"])
    def test_manifest_tallies_match_counting_the_samples(self, tmp_path, capsys, extra):
        """The align manifest's tallies print what counting samples.jsonl
        prints; without a manifest only the paragraph count, the fraction
        and the closing note differ."""
        paths = write_inputs(tmp_path)
        with open(paths["corpus"], "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(obj) + "\n" for obj in extra)
        kb_dir, samples = tmp_path / "kb", tmp_path / "samples.jsonl"
        assert main(["build-kb", "--triplets", str(paths["triplets"]),
                     "--entities", str(paths["entities"]),
                     "--predicates", str(paths["predicates"]), "--out", str(kb_dir)]) == 0
        assert main(["align", "--kb", str(kb_dir), "--corpus", str(paths["corpus"]),
                     "--out", str(samples)]) == 0
        tallied, counted, alone = stats_from_each_source(samples, tmp_path, capsys)
        assert counted == tallied
        assert alone.splitlines()[1:5] == tallied.splitlines()[1:5]
        assert alone.splitlines()[-1].startswith("(no manifest found: ")
        assert tallied.splitlines()[1] == f"samples                 {3 + bool(extra)}"


class TestLogging:
    """Skip messages once went to stderr from DETMASK_LOG=info on.  They are
    now the ``skips`` of align's and mask's manifests at every value of the
    variable, which no stage reads, and nothing is logged."""

    @pytest.mark.parametrize("level", [None, "error", "info", "DEBUG", "loud"])
    def test_skip_messages_show_from_info_on(self, tmp_path, monkeypatch, capsys, level):
        if level is None:
            monkeypatch.delenv("DETMASK_LOG", raising=False)
        else:
            monkeypatch.setenv("DETMASK_LOG", level)
        paths = write_inputs(tmp_path)
        bad = {"doc_id": "bad", "text": "x", "entity_spans": [[0, 99, "Jaws"]]}
        with open(paths["corpus"], "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")
        kb_dir, samples = tmp_path / "kb", tmp_path / "samples.jsonl"
        assert main(["build-kb", "--triplets", str(paths["triplets"]),
                     "--entities", str(paths["entities"]),
                     "--predicates", str(paths["predicates"]), "--out", str(kb_dir)]) == 0
        assert main(["align", "--kb", str(kb_dir), "--corpus", str(paths["corpus"]),
                     "--out", str(samples)]) == 0
        assert read_json(str(samples) + ".manifest.json")["counters"]["skips"] == [
            ["bad", "pre-linked span [0,99) outside text of length 1"]]
        # A triplet whose subject and predicate are its object: no clue tokens.
        loop = {"doc_id": "loop", "text": "Jaws", "entities": [[0, 4, "Jaws"]],
                "triplets": [{"s": "Jaws", "p": "directedBy", "o": "Jaws", "s_span": [0, 4],
                              "p_span": [0, 4], "o_span": [0, 4], "edit_distance": 0}]}
        with open(samples, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(loop) + "\n")
        masked = tmp_path / "masked.jsonl"
        assert main(["mask", "--samples", str(samples), "--out", str(masked),
                     "--emit", "pair"]) == 0
        assert read_json(str(masked) + ".manifest.json")["counters"]["skips"] == [
            ["loop", "sample has no clue tokens"]]
        assert capsys.readouterr().err == ""


class TestBlasThreads:
    VAR = "OPENBLAS_NUM_THREADS"

    @pytest.mark.parametrize("value", [None, "2"])
    def test_main_sets_one_thread_unless_set(self, monkeypatch, tmp_path, value):
        """An unset variable becomes 1; a user's own value stays.  The
        conftest fixture puts the variable back after the test."""
        if value is None:
            monkeypatch.delenv(self.VAR, raising=False)
        else:
            monkeypatch.setenv(self.VAR, value)
        assert main(["stats", "--samples", str(tmp_path / "absent.jsonl")]) == 2
        assert os.environ[self.VAR] == (value or "1")

    def test_numpy_stages_byte_identical_across_thread_counts(self, pipeline, tmp_path):
        """train and probe as subprocesses give the same bytes on one BLAS
        thread as on two.  At ``--dim 256`` the key and value weight
        gradients of each 7- to 11-token input, ``x.T @ dK`` and
        ``x.T @ dV`` (256 x n by n x 256), are products that OpenBLAS splits
        across both threads: with two threads, its worker thread's CPU time
        matches the calling thread's on each.  The feed-forward products, which
        run at the one or two mask rows only, are too small to rely on."""
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            ckpt, report = out / "model.ckpt", out / "report.json"
            argvs = [
                ["train", "--data", str(pipeline["masked"]),
                 "--vocab", str(pipeline["root"] / "vocab.json"),
                 "--out", str(ckpt), "--steps", "20", "--dim", "256"],
                ["probe", "--model", str(ckpt), "--templates", str(pipeline["templates"]),
                 "--facts", str(pipeline["facts"]), "--out", str(report),
                 "--kb", str(pipeline["kb"]), "--pretrain", str(pipeline["samples"])],
            ]
            env = {**stage_env(), self.VAR: threads}
            for argv in argvs:
                proc = subprocess.run([sys.executable, "-m", "detmask.cli", *argv], env=env,
                                      capture_output=True, text=True, timeout=120)
                assert proc.returncode == 0, (argv[0], proc.stderr)
            outputs.append([p.read_bytes() for p in
                            (ckpt, Path(str(ckpt) + ".log.jsonl"), report)])
        assert outputs[0] == outputs[1]


class TestTracedStage:
    def test_traced_train_writes_a_trace(self, pipeline, tmp_path):
        """The benchmark's tracer (perfbench/tracer.py, run as it is) completes
        the small world's train stage and writes a trace with its row counts,
        and the checkpoint and log it leaves are those of an untraced run."""
        tracer = Path(__file__).parents[1] / "perfbench" / "tracer.py"
        trace = tmp_path / "train.trace.json"
        env = stage_env()
        ckpt, log = tmp_path / "model.ckpt", tmp_path / "model.ckpt.log.jsonl"
        argv = ["train", "--data", str(pipeline["masked"]),
                "--vocab", str(pipeline["root"] / "vocab.json"),
                "--out", str(ckpt), "--steps", "9", "--dim", "8"]
        assert main(argv) == 0
        untraced = ckpt.read_bytes(), log.read_bytes()
        ckpt.unlink()
        log.unlink()
        proc = subprocess.run([sys.executable, str(tracer), str(trace), *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(trace.read_text(encoding="utf-8"))
        assert doc["exit_code"] == 0
        mask_rows, positions = doc["rows"]
        assert 0 < mask_rows < positions
        assert doc["bytes"]["formats.read_masked"] == pipeline["masked"].stat().st_size
        steps = [s for s in doc["spans"] if s[0] == "model.loss_and_grad"]
        assert len(steps) == 9
        assert "write_s" in json.loads(Path(str(trace) + ".exit").read_text(encoding="utf-8"))
        assert (ckpt.read_bytes(), log.read_bytes()) == untraced


class TestProcessEntry:
    """A stage run as ``python -m detmask.cli`` ends without interpreter
    teardown once ``main`` has returned, and a caller sees what an
    in-process ``main`` gives."""

    # The seven stages on the CLI test world, then a usage error of the
    # stage, one of argparse, a data error, --version and --help.
    RUNS = [
        ["build-kb", "--triplets", "triplets.tsv", "--entities", "entities.tsv",
         "--predicates", "predicates.tsv", "--out", "kb"],
        ["align", "--kb", "kb", "--corpus", "corpus.jsonl", "--out", "samples.jsonl"],
        ["stats", "--samples", "samples.jsonl"],
        ["mask", "--samples", "samples.jsonl", "--out", "masked.jsonl", "--emit", "triple"],
        ["train", "--data", "masked.jsonl", "--vocab", "vocab.json", "--out", "model.ckpt",
         "--steps", "5", "--dim", "8"],
        ["probe", "--model", "model.ckpt", "--templates", "templates.jsonl",
         "--facts", "facts.jsonl", "--out", "report.json", "--kb", "kb",
         "--pretrain", "samples.jsonl"],
        ["report", "--report", "report.json"],
        ["mask", "--samples", "samples.jsonl", "--out", "unmade.jsonl"],
        ["train", "--data", "masked.jsonl"],
        ["report", "--report", "corpus.jsonl"],
        ["--version"],
        ["--help"],
    ]

    @staticmethod
    def files(root: Path) -> dict:
        """Every file under ``root``; a manifest as JSON without its timings."""
        found = {}
        for path in sorted(root.rglob("*")):
            if not path.is_file():
                continue
            data = path.read_bytes()
            if path.name.endswith(".manifest.json"):
                data = {k: v for k, v in json.loads(data).items()
                        if k not in ("started", "duration_s")}
            found[str(path.relative_to(root))] = data
        return found

    def test_process_gives_what_main_gives(self, tmp_path, monkeypatch, capsys):
        # argparse wraps --help and usage text to the terminal's width.
        monkeypatch.setenv("COLUMNS", "80")
        inline, spawned = tmp_path / "inline", tmp_path / "spawned"
        for root in (inline, spawned):
            root.mkdir()
            write_inputs(root)
        monkeypatch.chdir(inline)
        expected = []
        for argv in self.RUNS:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            expected.append((argv[0], code, *capsys.readouterr()))
        got = []
        for argv in self.RUNS:
            proc = subprocess.run([sys.executable, "-m", "detmask.cli", *argv], cwd=spawned,
                                  env=stage_env(), capture_output=True, text=True, timeout=120)
            got.append((argv[0], proc.returncode, proc.stdout, proc.stderr))
        assert [code for _name, code, *_ in expected] == [0] * 7 + [1, 1, 2, 0, 0]
        assert got == expected
        assert self.files(spawned) == self.files(inline)

    def test_console_script_names_the_entry_of_the_main_block(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        [block] = [node for node in tree.body if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "__name__ == '__main__'"]
        [call] = block.body
        assert project["project"]["scripts"]["detmask"] == f"detmask.cli:{call.value.func.id}"
        assert call.value.func.id != "main"

    @pytest.mark.parametrize("name, code", [("report.json", 0), ("absent.json", 2)])
    def test_entry_flushes_then_ends_with_the_code_of_main(self, pipeline, monkeypatch, name,
                                                           code):
        events = []

        class Stream(io.StringIO):
            def __init__(self, label):
                super().__init__()
                self.label = label

            def flush(self):
                events.append(self.label)
                super().flush()

        out, err = Stream("stdout"), Stream("stderr")
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        monkeypatch.setattr(sys, "argv", ["detmask", "report",
                                          "--report", str(pipeline["root"] / name)])
        monkeypatch.setattr(os, "_exit", lambda status: events.append(("exit", status)))
        cli._run()
        # On success main flushes stdout itself, before the entry does.
        assert events == ["stdout"] * (code == 0) + ["stdout", "stderr", ("exit", code)]
        assert out.getvalue().startswith("total") == (code == 0)
        assert err.getvalue().startswith("detmask: error:") == (code == 2)


class TestFailedStdoutWrite:
    """A write to stdout that fails is a data error, however stdout is buffered;
    a stdout closed from the start is not written to."""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
    @pytest.mark.parametrize("stage", ["report", "stats"])
    def test_failed_stdout_write_exits_two(self, pipeline, stage, sink, unbuffered):
        argv = (["report", "--report", str(pipeline["report"])] if stage == "report"
                else ["stats", "--samples", str(pipeline["samples"])])
        assert Path(f"{pipeline['samples']}.manifest.json").is_file()
        env = {**stage_env(), **({"PYTHONUNBUFFERED": unbuffered} if unbuffered else {})}
        if sink == "/dev/full":
            stdout = os.open(sink, os.O_WRONLY)
            error = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        else:
            read_end, stdout = os.pipe()
            os.close(read_end)
            error = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"
        try:
            proc = subprocess.run([sys.executable, "-m", "detmask.cli", *argv], stdout=stdout,
                                  stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        finally:
            os.close(stdout)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"detmask: error: {error}\n"

    def test_stage_started_with_stdout_closed_exits_zero(self, pipeline):
        """Python sets ``sys.stdout`` to None then, and ``print`` drops what
        it is given."""
        closed = ("import os, sys\nos.close(1)\n"
                  "os.execv(sys.executable, [sys.executable, '-m', 'detmask.cli', *sys.argv[1:]])")
        proc = subprocess.run([sys.executable, "-c", closed, "report",
                               "--report", str(pipeline["report"])],
                              stderr=subprocess.PIPE, env=stage_env(), text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")


class TestDeterminism:
    def test_align_byte_identical_across_runs_and_threads(self, tmp_path):
        paths = write_inputs(tmp_path)
        kb_dir = tmp_path / "kb"
        main([
            "build-kb", "--triplets", str(paths["triplets"]),
            "--entities", str(paths["entities"]),
            "--predicates", str(paths["predicates"]), "--out", str(kb_dir),
        ])
        outputs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / f"{name}.jsonl"
            assert main([
                "align", "--kb", str(kb_dir), "--corpus", str(paths["corpus"]),
                "--out", str(out), "--threads", threads,
            ]) == 0
            outputs.append(
                (out.read_bytes(),
                 (tmp_path / f"{name}.ssm.jsonl").read_bytes())
            )
        assert outputs[0] == outputs[1] == outputs[2]

    def test_mask_byte_identical_same_seed(self, tmp_path):
        paths = write_inputs(tmp_path)
        kb_dir = tmp_path / "kb"
        main([
            "build-kb", "--triplets", str(paths["triplets"]),
            "--entities", str(paths["entities"]),
            "--predicates", str(paths["predicates"]), "--out", str(kb_dir),
        ])
        samples = tmp_path / "samples.jsonl"
        main(["align", "--kb", str(kb_dir), "--corpus", str(paths["corpus"]),
              "--out", str(samples)])
        blobs = []
        for name in ("m1", "m2"):
            out = tmp_path / f"{name}.jsonl"
            assert main([
                "mask", "--samples", str(samples), "--out", str(out),
                "--scheme", "random_token", "--seed", "11",
            ]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_random_modes_follow_the_seed_not_the_hash_seed(self, tmp_path):
        samples = tmp_path / "samples.jsonl"
        write_many_group_samples(samples, paragraphs=4, groups=5, filler=20)
        modes = [("--emit", "triple"), ("--scheme", "random_token"),
                 ("--scheme", "whole_word"), ("--scheme", "salient_span")]

        def argv(i: int, seed: int, name: str) -> list[str]:
            return ["mask", "--samples", str(samples), "--out", str(tmp_path / f"{name}.jsonl"),
                    *modes[i], "--seed", str(seed)]

        code = ("import json, sys\n"
                "from detmask.cli import main\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    assert main(argv) == 0, argv\n")
        for hash_seed in ("0", "12345"):
            runs = [argv(i, 7, f"{hash_seed}-{i}") for i in range(len(modes))]
            proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                                  env={**stage_env(), "PYTHONHASHSEED": hash_seed},
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        for i, mode in enumerate(modes):
            made = (tmp_path / f"0-{i}.jsonl").read_bytes()
            assert made == (tmp_path / f"12345-{i}.jsonl").read_bytes(), mode
            assert main(argv(i, 8, "other")) == 0
            assert (tmp_path / "other.jsonl").read_bytes() != made, mode

    @pytest.mark.parametrize("mode", [("--emit", "pair"), ("--scheme", "deterministic"),
                                      ("--scheme", "object_span")])
    def test_modes_that_draw_nothing_ignore_the_seed(self, tmp_path, mode):
        samples, out = tmp_path / "samples.jsonl", tmp_path / "masked.jsonl"
        write_many_group_samples(samples, paragraphs=4, groups=5, filler=20)
        blobs = set()
        for seed in ("0", "1", "99"):
            assert main(["mask", "--samples", str(samples), "--out", str(out), *mode,
                         "--seed", seed]) == 0
            blobs.add(out.read_bytes())
        assert len(blobs) == 1


def write_many_group_samples(path: Path, paragraphs: int, groups: int, filler: int) -> None:
    """An aligned file whose paragraphs each hold ``groups`` triplets with
    distinct objects, followed by ``filler`` one-letter words."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in range(paragraphs):
            text, entities, triplets = "", [], []
            for g in range(groups):
                spans = []
                for word in (f"s{g}", "likes", f"o{g}", "."):
                    text += " " if text else ""
                    spans.append([len(text), len(text) + len(word)])
                    text += word
                entities += [[*spans[0], f"S{g}"], [*spans[2], f"O{g}"]]
                triplets.append({"s": f"S{g}", "p": "likes", "o": f"O{g}", "s_span": spans[0],
                                 "p_span": spans[1], "o_span": spans[2], "edit_distance": 0})
            text += " x" * filler
            fh.write(json.dumps({"doc_id": f"d{d}", "text": text, "entities": entities,
                                 "triplets": triplets}) + "\n")


class TestMaskMemory:
    def test_output_lines_are_written_as_made(self, tmp_path):
        """``mask`` holds no more than a group's output lines at a time: its
        traced peak stays below what all its output lines take in memory."""
        samples, out = tmp_path / "samples.jsonl", tmp_path / "masked.jsonl"
        write_many_group_samples(samples, paragraphs=10, groups=30, filler=300)
        argv = ["mask", "--samples", str(samples), "--out", str(out), "--emit", "pair"]
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
            before = tracemalloc.get_traced_memory()[0]
            lines = read_masked_oracle(out)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert len(lines) == 2 * 10 * 30
        assert peak < held, f"peak {peak} B, output lines {held} B"


class TestMaskSources:
    def ssm_path(self, pipeline) -> Path:
        return pipeline["samples"].with_name("samples.ssm.jsonl")

    def test_salient_span_from_ssm(self, pipeline, tmp_path):
        out = tmp_path / "m.jsonl"
        assert main(["mask", "--ssm", str(self.ssm_path(pipeline)), "--out", str(out),
                     "--scheme", "salient_span"]) == 0
        masked = read_masked_oracle(out)
        assert len(masked) == 4  # one line per ssm paragraph
        assert {m.scheme.value for m in masked} == {"salient_span"}

    def test_salient_span_falls_back_to_samples(self, pipeline, tmp_path):
        out = tmp_path / "m.jsonl"
        assert main(["mask", "--samples", str(pipeline["samples"]), "--out", str(out),
                     "--scheme", "salient_span"]) == 0
        masked = read_masked_oracle(out)
        assert [m.doc_id for m in masked] == ["p1", "p2", "p3"]
        assert {m.scheme.value for m in masked} == {"salient_span"}

    def test_pair_from_ssm_only_is_usage_error(self, pipeline, tmp_path, capsys):
        """The usage error comes before any read or write: no vocabulary is left."""
        code = main(["mask", "--ssm", str(self.ssm_path(pipeline)),
                     "--out", str(tmp_path / "m.jsonl"), "--emit", "pair"])
        assert code == 1
        assert "requires --samples" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["align", "--corpus", "x.jsonl"])
        assert info.value.code == 1

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["stats", "--samples", "x", "--bogus"])
        assert info.value.code == 1

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_scheme_and_emit_together_rejected(self, tmp_path):
        paths = write_inputs(tmp_path)
        code = main([
            "mask", "--samples", str(paths["corpus"]), "--out", str(tmp_path / "m.jsonl"),
            "--scheme", "deterministic", "--emit", "pair",
        ])
        assert code == 1

    def test_neither_scheme_nor_emit_rejected(self, tmp_path):
        code = main(["mask", "--samples", "x.jsonl", "--out", str(tmp_path / "m.jsonl")])
        assert code == 1

    @pytest.mark.parametrize("stage, outputs, flags", [
        ("align", ["--out", "s.jsonl", "--ssm-out", "s.jsonl"], "--out and --ssm-out"),
        ("align", ["--out", "s.jsonl", "--ssm-out", "link/s.jsonl"], "--out and --ssm-out"),
        ("align", ["--out", "s.jsonl", "--ssm-out", "s.jsonl.manifest.json"],
         "--ssm-out and the --out manifest"),
        ("mask", ["--out", "v.json", "--vocab", "v.json"], "--out and --vocab"),
        ("mask", ["--out", "vocab.json"], "--out and --vocab"),
        ("train", ["--out", "m.ckpt", "--log", "m.ckpt"], "--out and --log"),
        ("train", ["--out", "m.ckpt", "--log", "m.ckpt.manifest.json"],
         "--log and the --out manifest"),
    ], ids=["align", "align_symlink", "align_manifest", "mask", "mask_default_vocab", "train",
            "train_manifest"])
    def test_outputs_naming_one_file_are_usage_error(self, pipeline, tmp_path, monkeypatch,
                                                     capsys, stage, outputs, flags):
        """Two outputs of one stage that resolve to one file exit 1 naming
        both flags, before any input is read, and write nothing."""
        inputs = {
            "align": ["--kb", str(pipeline["kb"]), "--corpus", str(pipeline["corpus"])],
            "mask": ["--samples", str(pipeline["samples"]), "--emit", "pair"],
            "train": ["--data", str(pipeline["masked"]),
                      "--vocab", str(pipeline["root"] / "vocab.json"), "--steps", "1"],
        }[stage]
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        monkeypatch.chdir(tmp_path)
        assert main([stage, *inputs, *outputs]) == 1
        assert f"error: {flags} name the same file" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["link"]

    @pytest.mark.parametrize("stage, path_args, flag", [
        ("build-kb", ["--out", os.fsdecode(b"kb\xff")], "--out"),
        ("align", ["--out", os.fsdecode(b"s\xff.jsonl")], "--out"),
        ("mask", ["--out", "m.jsonl", "--vocab", os.fsdecode(b"v\xff.json")], "--vocab"),
    ], ids=["build_kb", "align", "mask"])
    def test_path_that_is_not_utf8_is_usage_error(self, pipeline, tmp_path, monkeypatch,
                                                  capsys, stage, path_args, flag):
        """A path the manifest could not record exits 1 naming its flag,
        before the stage runs, and writes nothing."""
        inputs = {
            "build-kb": ["--triplets", str(pipeline["triplets"]),
                         "--entities", str(pipeline["entities"]),
                         "--predicates", str(pipeline["predicates"])],
            "align": ["--kb", str(pipeline["kb"]), "--corpus", str(pipeline["corpus"])],
            "mask": ["--samples", str(pipeline["samples"]), "--emit", "pair"],
        }[stage]
        monkeypatch.chdir(tmp_path)
        assert main([stage, *inputs, *path_args]) == 1
        err = capsys.readouterr().err
        assert f"error: {flag} is not valid UTF-8" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stage, args, flags", [
        ("mask", ["--samples", "samples.jsonl", "--out", "samples.jsonl", "--emit", "pair"],
         "--samples and --out"),
        ("mask", ["--samples", "samples.jsonl", "--out", "m.jsonl", "--vocab", "link/samples.jsonl",
                  "--emit", "pair"], "--samples and --vocab"),
        ("train", ["--data", "masked.jsonl", "--vocab", "vocab.json", "--out", "masked.jsonl",
                   "--steps", "1"], "--data and --out"),
        ("train", ["--data", "masked.jsonl", "--vocab", "vocab.json", "--out", "m.ckpt",
                   "--log", "vocab.json", "--steps", "1"], "--vocab and --log"),
        ("probe", ["--model", "model.ckpt", "--templates", "templates.jsonl",
                   "--facts", "facts.jsonl", "--out", "facts.jsonl"], "--facts and --out"),
    ], ids=["mask", "mask_vocab_symlink", "train", "train_log", "probe"])
    def test_output_naming_an_input_is_usage_error(self, pipeline, tmp_path, monkeypatch,
                                                   capsys, stage, args, flags):
        """An output that resolves to one of the stage's inputs exits 1 naming
        both flags, before any read, and leaves every file as it was."""
        for name in ("samples.jsonl", "masked.jsonl", "vocab.json", "model.ckpt",
                     "templates.jsonl", "facts.jsonl"):
            (tmp_path / name).write_bytes((pipeline["root"] / name).read_bytes())
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        monkeypatch.chdir(tmp_path)
        assert main([stage, *args]) == 1
        assert f"error: {flags} name the same file" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before

    def test_probe_kb_without_pretrain_rejected(self, tmp_path):
        code = main([
            "probe", "--model", "m", "--templates", "t", "--facts", "f",
            "--out", str(tmp_path / "r.json"), "--kb", "somewhere",
        ])
        assert code == 1

    def test_malformed_corpus_is_data_error(self, tmp_path):
        paths = write_inputs(tmp_path)
        kb_dir = tmp_path / "kb"
        main([
            "build-kb", "--triplets", str(paths["triplets"]),
            "--entities", str(paths["entities"]),
            "--predicates", str(paths["predicates"]), "--out", str(kb_dir),
        ])
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n", encoding="utf-8")
        code = main(["align", "--kb", str(kb_dir), "--corpus", str(bad),
                     "--out", str(tmp_path / "s.jsonl")])
        assert code == 2

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["stats", "--samples", str(tmp_path / "absent.jsonl")])
        assert code == 2

    def test_stats_on_samples_without_triplets_is_data_error(self, tmp_path, capsys):
        samples = tmp_path / "s.jsonl"
        samples.write_text('{"doc_id":"d1","text":"Paris is nice","entities":[[0,5,"E1"]],'
                           '"triplets":[]}\n', encoding="utf-8")
        assert main(["stats", "--samples", str(samples)]) == 2
        assert capsys.readouterr().err == "detmask: error: no sample has a triplet\n"

    def test_empty_training_data_is_data_error(self, tmp_path):
        (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
        (tmp_path / "vocab.json").write_text('{"tokens":["<pad>","<mask>","<unk>","a"]}',
                                             encoding="utf-8")
        code = main([
            "train", "--data", str(tmp_path / "empty.jsonl"),
            "--vocab", str(tmp_path / "vocab.json"),
            "--out", str(tmp_path / "m.ckpt"), "--steps", "1",
        ])
        assert code == 2

    def test_report_on_wrong_json_is_data_error(self, tmp_path):
        path = tmp_path / "notreport.json"
        path.write_text('{"format": "other"}', encoding="utf-8")
        assert main(["report", "--report", str(path)]) == 2

    def test_truncated_checkpoint_is_data_error(self, pipeline, tmp_path, capsys):
        blob = pipeline["ckpt"].read_bytes()
        header_end = blob.index(b"\n") + 1
        probe = ["--templates", str(pipeline["templates"]), "--facts", str(pipeline["facts"]),
                 "--out", str(tmp_path / "r.json")]
        for name, data in (("header", blob[:header_end // 2]), ("body", blob[:header_end + 64]),
                           ("garbage", b"garbage\x00\xff")):
            ckpt = tmp_path / f"{name}.ckpt"
            ckpt.write_bytes(data)
            assert main(["probe", "--model", str(ckpt), *probe]) == 2, name
            assert capsys.readouterr().err.startswith("detmask: error:"), name

    def train_on_edited_masked(self, pipeline, tmp_path, key, value) -> int:
        """``train``'s exit code once ``key[0]`` of the first masked line is ``value``."""
        lines = pipeline["masked"].read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        first[key][0] = value
        bad = tmp_path / "masked.jsonl"
        bad.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n", encoding="utf-8")
        return main(["train", "--data", str(bad), "--vocab", str(pipeline["root"] / "vocab.json"),
                     "--out", str(tmp_path / "m.ckpt"), "--steps", "1"])

    @pytest.mark.parametrize("fault, error", [
        ("json", "{data}:9: invalid JSON: Expecting ',' delimiter"),
        ("vocab size", "{data}: p3 has a token id outside the {size}-token vocabulary {vocab}"),
        ("2**63", "{data}:9: key 'input_ids' must hold 64-bit integers"),
        ("position", "{data}:9: mask_positions must index input_ids"),
        ("ragged", "p3: the inputs of a contrastive group differ in length"),
    ], ids=["json", "vocab_size", "int64", "position", "ragged"])
    def test_fault_after_kept_items_is_data_error(self, pipeline, tmp_path, capsys, fault,
                                                  error):
        """``train --steps 1`` keeps only the first item, but still checks
        every line: a fault on the last line exits 2 with its message, and no
        checkpoint or log is written."""
        lines = pipeline["masked"].read_text(encoding="utf-8").splitlines()
        last = json.loads(lines[-1])
        assert (len(lines), last["doc_id"], last["variant"]) == (9, "p3", "mask_random")
        vocab = pipeline["root"] / "vocab.json"
        size = read_vocab(vocab).size
        if fault == "json":
            lines[-1] = lines[-1][:-1]
        else:
            if fault == "vocab size":
                last["input_ids"][0] = size
            elif fault == "2**63":
                last["input_ids"][0] = 2 ** 63
            elif fault == "position":
                last["mask_positions"][0] = len(last["input_ids"])
            else:
                last["input_ids"].append(3)
            lines[-1] = json.dumps(last)
        data = tmp_path / "masked.jsonl"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["train", "--data", str(data), "--vocab", str(vocab),
                     "--out", str(tmp_path / "m.ckpt"), "--steps", "1"])
        assert code == 2
        message = error.format(data=data, size=size, vocab=vocab)
        assert capsys.readouterr().err == f"detmask: error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["masked.jsonl"]

    def test_token_id_outside_vocabulary_is_data_error(self, pipeline, tmp_path, capsys):
        size = read_vocab(pipeline["root"] / "vocab.json").size
        assert self.train_on_edited_masked(pipeline, tmp_path, "input_ids", size) == 2
        assert capsys.readouterr().err.startswith("detmask: error:")

    @pytest.mark.parametrize("key, value", [("input_ids", -1), ("targets", -1),
                                            ("targets", "size")])
    def test_token_id_outside_vocabulary_range_is_data_error(self, pipeline, tmp_path, capsys,
                                                              key, value):
        size = read_vocab(pipeline["root"] / "vocab.json").size
        value = size if value == "size" else value
        assert self.train_on_edited_masked(pipeline, tmp_path, key, value) == 2
        assert "outside the" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("input_ids", 2 ** 63), ("input_ids", -2 ** 63 - 1),
                                            ("targets", 2 ** 63)])
    def test_token_id_beyond_int64_is_data_error(self, pipeline, tmp_path, capsys, key, value):
        assert self.train_on_edited_masked(pipeline, tmp_path, key, value) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"detmask: error: {tmp_path / 'masked.jsonl'}:1: ")
        assert "64-bit" in err

    def test_report_on_non_json_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("not json\n", encoding="utf-8")
        assert main(["report", "--report", str(path)]) == 2
        assert capsys.readouterr().err.startswith("detmask: error:")

    def test_malformed_report_is_data_error(self, pipeline, tmp_path, capsys):
        doc = read_json(pipeline["report"])
        total = doc["splits"]["total"]
        no_consistency = {k: v for k, v in total.items() if k != "consistency"}
        path = tmp_path / "report.json"
        for name, change in (("splits list", {"splits": [1]}),
                             ("no consistency", {"splits": {"total": no_consistency}}),
                             ("text accuracy", {"splits": {"total": {**total, "accuracy": "x"}}}),
                             ("counts list", {"counts": [1]})):
            path.write_text(json.dumps({**doc, **change}), encoding="utf-8")
            assert main(["report", "--report", str(path)]) == 2, name
            captured = capsys.readouterr()
            assert captured.err.startswith("detmask: error:"), name
            assert captured.out == "", name

    @pytest.mark.parametrize("change", [
        {"splits": {"total": 0}}, {"splits": {"in_domain": []}}, {"splits": {"nm": ""}},
        {"splits": {"total": False}}, {"counts": {"facts": 4}},
        {"counts": {"questions_built": "many", "questions_kept": 1,
                    "questions_dropped_leakage": 0}},
        {"counts": None}, {"counts": False},
    ], ids=["zero", "list", "text", "false", "counts_without_keys",
            "text_count", "counts_null", "counts_false"])
    def test_report_of_the_wrong_kind_is_data_error(self, pipeline, tmp_path, capsys, change):
        """A split that is present and not null must be an object of the five
        numbers, and ``counts`` an object that, unless empty, holds the three
        question counts as ints."""
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**read_json(pipeline["report"]), **change}),
                        encoding="utf-8")
        assert main(["report", "--report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"detmask: error: {path}: ")
        assert captured.out == ""

    def test_null_split_and_empty_counts_print_as_absent(self, pipeline, tmp_path, capsys):
        doc = read_json(pipeline["report"])
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**doc, "splits": {**doc["splits"], "nm": None},
                                    "counts": {}}), encoding="utf-8")
        assert main(["report", "--report", str(path)]) == 0
        assert capsys.readouterr().out.endswith("\nnm             -\n")

    def test_non_json_vocabulary_is_data_error(self, pipeline, tmp_path, capsys):
        vocab = tmp_path / "vocab.json"
        vocab.write_text('{"tokens": [', encoding="utf-8")
        code = main(["train", "--data", str(pipeline["masked"]), "--vocab", str(vocab),
                     "--out", str(tmp_path / "m.ckpt"), "--steps", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("detmask: error:")

    def test_malformed_vocabulary_is_data_error(self, pipeline, tmp_path, capsys):
        vocab = tmp_path / "vocab.json"
        for tokens, message in ((["<pad>", "<mask>", "<unk>"], "must start with"),
                                (["a", "b", "c", "d"], "must start with"),
                                (["<pad>", "<mask>", "<unk>", "a", "a"], "repeats a token")):
            vocab.write_text(json.dumps({"tokens": tokens}), encoding="utf-8")
            code = main(["train", "--data", str(pipeline["masked"]), "--vocab", str(vocab),
                         "--out", str(tmp_path / "m.ckpt"), "--steps", "1"])
            assert code == 2, tokens
            assert message in capsys.readouterr().err, tokens
            assert not (tmp_path / "m.ckpt").exists(), tokens

    @pytest.mark.parametrize("flag, value, message", [
        ("--dim", "1", "argument --dim: must be at least 2, got 1"),
        ("--steps", "0", "argument --steps: must be at least 1, got 0"),
    ], ids=["dim", "steps"])
    def test_out_of_range_train_flag_is_usage_error(self, tmp_path, capsys, flag, value,
                                                    message):
        with pytest.raises(SystemExit) as info:
            main(["train", "--data", "x", "--vocab", "y", "--out", str(tmp_path / "m.ckpt"),
                  flag, value])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "Traceback" not in err
        assert err.splitlines()[-1] == f"detmask train: error: {message}"

    @pytest.mark.parametrize("stage", ["train", "mask"])
    def test_negative_seed_is_usage_error(self, pipeline, tmp_path, capsys, stage):
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--data", str(pipeline["masked"]),
                      "--vocab", str(pipeline["root"] / "vocab.json"), "--steps", "1"],
            "mask": ["mask", "--samples", str(pipeline["samples"]), "--scheme", "random_token"],
        }[stage]
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out", str(out), "--seed", "-1"])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "Traceback" not in err
        assert err.splitlines()[-1] == (f"detmask {stage}: error: argument --seed: "
                                        "must be at least 0, got -1")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"),
                                             ("--lambda-con", "-inf"), ("--lambda-cls", "nan")])
    def test_non_finite_train_flag_is_usage_error(self, pipeline, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as info:
            main(["train", "--data", str(pipeline["masked"]),
                  "--vocab", str(pipeline["root"] / "vocab.json"),
                  "--out", str(tmp_path / "m.ckpt"), "--steps", "1", f"{flag}={value}"])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (f"detmask train: error: argument {flag}: "
                                        f"must be finite, got {value}")
        assert not (tmp_path / "m.ckpt").exists()

    def test_non_finite_trained_parameters_are_data_error(self, pipeline, tmp_path, capsys):
        # Finite flags with a finite first loss, whose one update overflows
        # the parameters: no checkpoint, no log and no numpy warning.
        code = main(["train", "--data", str(pipeline["masked"]),
                     "--vocab", str(pipeline["root"] / "vocab.json"),
                     "--out", str(tmp_path / "m.ckpt"), "--steps", "1",
                     "--lr", "1e300", "--lambda-cls", "1e300"])
        assert code == 2
        assert "non-finite after step 0" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()
        assert not (tmp_path / "m.ckpt.log.jsonl").exists()

    def test_boolean_corpus_offset_is_data_error(self, pipeline, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({
            "doc_id": "a", "text": "War Horse is a film directed by Steven Spielberg.",
            "entity_spans": [[False, 9, "A"], [22, 38, "B"]]}) + "\n", encoding="utf-8")
        code = main(["align", "--kb", str(pipeline["kb"]), "--corpus", str(corpus),
                     "--out", str(tmp_path / "s.jsonl")])
        assert code == 2
        assert "entity_spans entries" in capsys.readouterr().err
        assert not (tmp_path / "s.jsonl").exists()

    def test_malformed_sample_offset_is_data_error(self, pipeline, tmp_path, capsys):
        """Offsets that are booleans or not a list, entity ids that are not
        strings, and triplet ids that are not strings or hold a space, fail
        ``stats``, ``mask`` and ``probe --pretrain`` with exit 2."""
        first, *rest = pipeline["samples"].read_text(encoding="utf-8").splitlines()

        def false_entity_start(obj):
            obj["entities"][0][0] = False

        def true_subject_end(obj):
            obj["triplets"][0]["s_span"][1] = True

        def integer_object_span(obj):
            obj["triplets"][0]["o_span"] = 5

        def integer_entity_id(obj):
            obj["entities"][0][2] = 7

        def list_subject_id(obj):
            obj["triplets"][0]["s"] = ["x"]

        def integer_predicate_id(obj):
            obj["triplets"][0]["p"] = 5

        def null_object_id(obj):
            obj["triplets"][0]["o"] = None

        def spaced_subject_id(obj):
            obj["triplets"][0]["s"] = "War Horse"

        for edit in (false_entity_start, true_subject_end, integer_object_span,
                     integer_entity_id, list_subject_id, integer_predicate_id,
                     null_object_id, spaced_subject_id):
            obj = json.loads(first)
            edit(obj)
            bad = tmp_path / f"{edit.__name__}.jsonl"
            bad.write_text("\n".join([json.dumps(obj), *rest]) + "\n", encoding="utf-8")
            for argv in (["stats", "--samples", str(bad)],
                         ["mask", "--samples", str(bad), "--out", str(tmp_path / "m.jsonl"),
                          "--emit", "pair"],
                         probe_split_argv(pipeline, tmp_path / "r.json", pipeline["kb"], bad)):
                assert main(argv) == 2, (edit.__name__, argv[0])
                assert capsys.readouterr().err.startswith("detmask: error:"), edit.__name__
            assert not (tmp_path / "m.jsonl").exists(), edit.__name__
            assert not (tmp_path / "r.json").exists(), edit.__name__

    @pytest.mark.parametrize("line, dangling", [("WarHorse\tdirectedBy\tNobody", "Nobody"),
                                                ("WarHorse\tnarratedBy\tJaws", "narratedBy")])
    def test_probe_on_kb_with_dangling_reference_is_data_error(self, pipeline, tmp_path,
                                                              capsys, line, dangling):
        kb_dir = tmp_path / "kb"
        kb_dir.mkdir()
        for name in ("triplets.tsv", "entities.tsv", "predicates.tsv"):
            (kb_dir / name).write_bytes((pipeline["kb"] / name).read_bytes())
        with open(kb_dir / "triplets.tsv", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        code = main(probe_split_argv(pipeline, tmp_path / "r.json", kb_dir, pipeline["samples"]))
        assert code == 2
        assert (f"id {dangling!r} referenced but not present in alias tables"
                in capsys.readouterr().err)
        assert not (tmp_path / "r.json").exists()

    def test_first_dangling_id_in_line_order(self, pipeline, tmp_path):
        """With several dangling ids, build-kb, align and probe --kb all name
        the first in triplets.tsv line order (subject, then object, then
        predicate), whatever the hash seed."""
        paths = write_inputs(tmp_path)
        paths["triplets"].write_text(TRIPLETS + "Jaws\tnarratedBy\tX9\nX3\tdirectedBy\tX5\n"
                                     "X7\tstarring\tJaws\nLincoln\tstarring\tX1\n",
                                     encoding="utf-8")
        kb_dir = tmp_path / "kb"
        kb_dir.mkdir()
        for name in ("triplets", "entities", "predicates"):
            (kb_dir / f"{name}.tsv").write_bytes(paths[name].read_bytes())
        runs = [
            ["build-kb", "--triplets", str(paths["triplets"]), "--entities",
             str(paths["entities"]), "--predicates", str(paths["predicates"]),
             "--out", str(tmp_path / "out")],
            ["align", "--kb", str(kb_dir), "--corpus", str(paths["corpus"]),
             "--out", str(tmp_path / "samples.jsonl")],
            probe_split_argv(pipeline, tmp_path / "r.json", kb_dir, pipeline["samples"]),
        ]
        # Under these seeds, iterating the KB's triplet set meets X7 or X1 first.
        for seed in ("0", "4"):
            env = {**stage_env(), "PYTHONHASHSEED": seed}
            for argv in runs:
                proc = subprocess.run([sys.executable, "-m", "detmask.cli", *argv], env=env,
                                      capture_output=True, text=True, timeout=120)
                assert proc.returncode == 2, (seed, argv[0], proc.stderr)
                assert ("id 'X9' referenced but not present" in proc.stderr), (
                    seed, argv[0], proc.stderr)

    @pytest.mark.parametrize("tables, error", [
        ({"triplets": "WarHorse\tdirectedBy\tX1\nJaws\tdirectedBy\n"},
         "id 'X1' referenced but not present in alias tables (entity)"),
        ({"triplets": "WarHorse\tdirectedBy\n", "entities": ENTITIES + "Jaws\tAgain\n"},
         "entities.tsv:7: duplicate entity id 'Jaws'"),
        ({"triplets": "WarHorse\tdirectedBy\n", "predicates": "directedBy\t|\n"},
         "predicates.tsv:1: no aliases"),
    ], ids=["dangling_before_short_line", "entities_before_triplets",
            "predicates_before_triplets"])
    def test_kb_loaders_report_one_error(self, pipeline, tmp_path, capsys, tables, error):
        """``build-kb``, ``align`` and ``probe --kb`` read a broken KB in one
        order (entities, predicates, then each triplet line, its fields before
        its references), so they report the same first fault."""
        kb_dir = tmp_path / "kb"
        kb_dir.mkdir()
        for name, text in {"triplets": TRIPLETS, "entities": ENTITIES,
                           "predicates": PREDICATES, **tables}.items():
            (kb_dir / f"{name}.tsv").write_text(text, encoding="utf-8")
        runs = [
            ["build-kb", "--triplets", str(kb_dir / "triplets.tsv"),
             "--entities", str(kb_dir / "entities.tsv"),
             "--predicates", str(kb_dir / "predicates.tsv"), "--out", str(tmp_path / "out")],
            ["align", "--kb", str(kb_dir), "--corpus", str(pipeline["corpus"]),
             "--out", str(tmp_path / "samples.jsonl")],
            probe_split_argv(pipeline, tmp_path / "r.json", kb_dir, pipeline["samples"]),
        ]
        for argv in runs:
            assert main(argv) == 2, argv[0]
            assert capsys.readouterr().err == f"detmask: error: {error}\n", argv[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kb"]

    def test_corpus_not_utf8_is_data_error(self, pipeline, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b'{"doc_id": "a", "text": "x\xff"}\n')
        code = main(["align", "--kb", str(pipeline["kb"]), "--corpus", str(corpus),
                     "--out", str(tmp_path / "s.jsonl")])
        assert code == 2
        assert capsys.readouterr().err.startswith("detmask: error:")

    def test_mask_position_past_input_is_data_error(self, pipeline, tmp_path, capsys):
        assert self.train_on_edited_masked(pipeline, tmp_path, "mask_positions", 500) == 2
        assert capsys.readouterr().err.startswith("detmask: error:")

    def test_non_integer_input_id_is_data_error(self, pipeline, tmp_path, capsys):
        assert self.train_on_edited_masked(pipeline, tmp_path, "input_ids", "abc") == 2
        assert capsys.readouterr().err.startswith("detmask: error:")

    def test_non_integer_edit_distance_is_data_error(self, pipeline, tmp_path, capsys):
        lines = pipeline["samples"].read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        first["triplets"][0]["edit_distance"] = "zz"
        bad = tmp_path / "samples.jsonl"
        bad.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n", encoding="utf-8")
        assert main(["stats", "--samples", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("detmask: error:")

    @pytest.mark.parametrize("distance", [-5, 2, 7])
    def test_edit_distance_outside_alignment_rule_is_data_error(self, pipeline, tmp_path,
                                                              capsys, distance):
        """The aligner writes only 0 or 1 (edit distance below 2); any other
        integer is a malformed line in every reader of samples.jsonl."""
        lines = pipeline["samples"].read_text(encoding="utf-8").splitlines()
        second = json.loads(lines[1])
        second["triplets"][0]["edit_distance"] = distance
        bad = tmp_path / "samples.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(second), *lines[2:]]) + "\n",
                       encoding="utf-8")
        message = f"detmask: error: {bad}:2: edit_distance must be 0 or 1\n"
        for argv in (["stats", "--samples", str(bad)],
                     ["mask", "--samples", str(bad), "--out", str(tmp_path / "m.jsonl"),
                      "--emit", "pair"],
                     ["probe", "--model", str(pipeline["ckpt"]),
                      "--templates", str(pipeline["templates"]),
                      "--facts", str(pipeline["facts"]), "--out", str(tmp_path / "r.json"),
                      "--kb", str(pipeline["kb"]), "--pretrain", str(bad)]):
            assert main(argv) == 2, argv[0]
            assert capsys.readouterr().err == message, argv[0]

    def test_kb_table_not_utf8_is_data_error(self, tmp_path, capsys):
        paths = write_inputs(tmp_path)
        with open(paths["entities"], "ab") as fh:
            fh.write(b"Q\xff\tname\n")
        code = main(["build-kb", "--triplets", str(paths["triplets"]),
                     "--entities", str(paths["entities"]),
                     "--predicates", str(paths["predicates"]), "--out", str(tmp_path / "kb")])
        assert code == 2
        assert capsys.readouterr().err.startswith("detmask: error:")

    def test_align_manifest_counters_not_integers_is_data_error(self, pipeline, tmp_path,
                                                                capsys):
        """``stats`` checks the counters it reads: ints, with no more
        non-deterministic than candidate triplets and at least one paragraph
        per sample (three here), and, when it prints from the tallies, those
        as ints of at least 0.  Any other counter, ``skips`` included, is
        not its business."""
        manifest = read_json(str(pipeline["samples"]) + ".manifest.json")
        for name, counters in (("string", {**manifest["counters"], "candidate_triplets": "x"}),
                               ("negative tally", {**manifest["counters"], "tokens": -1}),
                               ("bool tally", {**manifest["counters"], "clue_tokens": True}),
                               ("string samples", {**manifest["counters"],
                                                   "samples_emitted": "3"}),
                               ("bool", {"candidate_triplets": True}),
                               ("list", [1]),
                               ("more non-deterministic", {"candidate_triplets": 2,
                                                           "non_deterministic_triplets": 5}),
                               ("negative", {"non_deterministic_triplets": -1}),
                               ("negative paragraphs", {"paragraphs_processed": -3}),
                               ("fewer paragraphs than samples", {"paragraphs_processed": 2})):
            path = tmp_path / "corrupt.manifest.json"
            path.write_text(json.dumps({**manifest, "counters": counters}), encoding="utf-8")
            code = main(["stats", "--samples", str(pipeline["samples"]), "--manifest", str(path)])
            assert code == 2, name
            captured = capsys.readouterr()
            assert captured.err.startswith(f"detmask: error: {path}: counters must be"), name
            assert captured.out == "", name
        path = tmp_path / "skips.manifest.json"
        skips = [["p9", "pre-linked span [0,99) outside text of length 1"]]
        path.write_text(json.dumps({**manifest, "counters": {**manifest["counters"],
                                                             "skips": skips}}),
                        encoding="utf-8")
        assert main(["stats", "--samples", str(pipeline["samples"]),
                     "--manifest", str(path)]) == 0
        assert "nondeterministic frac   0.4000\n" in capsys.readouterr().out

    def test_stats_on_the_manifest_of_another_stage_is_data_error(self, pipeline, capsys):
        manifest = str(pipeline["masked"]) + ".manifest.json"
        assert main(["stats", "--samples", str(pipeline["samples"]), "--manifest", manifest]) == 2
        assert capsys.readouterr() == (
            "", f"detmask: error: {manifest} is not an align manifest\n")

    def test_stats_on_samples_changed_since_align_is_data_error(self, pipeline, tmp_path,
                                                               capsys):
        """One byte changed in samples.jsonl beside its manifest: the manifest's
        tallies no longer describe the file."""
        samples = tmp_path / "samples.jsonl"
        manifest = tmp_path / "samples.jsonl.manifest.json"
        shutil.copy(str(pipeline["samples"]) + ".manifest.json", manifest)
        text = pipeline["samples"].read_text(encoding="utf-8")
        samples.write_text(text.replace("American", "Americas", 1), encoding="utf-8")
        assert main(["stats", "--samples", str(samples)]) == 2
        assert capsys.readouterr() == ("", f"detmask: error: {samples} is not the samples "
                                           f"file that {manifest} describes: its sha256 differs\n")

    def test_stats_on_the_manifest_of_another_corpus_is_data_error(self, pipeline, tmp_path,
                                                                  capsys):
        corpus, other = tmp_path / "corpus.jsonl", tmp_path / "other.jsonl"
        corpus.write_text("".join(json.dumps(obj) + "\n" for obj in CORPUS[:2]), encoding="utf-8")
        assert main(["align", "--kb", str(pipeline["kb"]), "--corpus", str(corpus),
                     "--out", str(other)]) == 0
        manifest = f"{other}.manifest.json"
        capsys.readouterr()
        assert main(["stats", "--samples", str(pipeline["samples"]), "--manifest", manifest]) == 2
        assert capsys.readouterr() == ("", f"detmask: error: {pipeline['samples']} is not the "
                                           f"samples file that {manifest} describes: its sha256 "
                                           "differs\n")

    def test_explicit_missing_manifest_is_data_error(self, pipeline, tmp_path, capsys):
        absent = tmp_path / "absent.manifest.json"
        code = main(["stats", "--samples", str(pipeline["samples"]), "--manifest", str(absent)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("detmask: error:") and str(absent) in captured.err
        assert captured.out == ""

    def test_default_manifest_may_be_absent(self, pipeline, tmp_path, capsys):
        samples = tmp_path / "samples.jsonl"
        samples.write_bytes(pipeline["samples"].read_bytes())
        assert main(["stats", "--samples", str(samples)]) == 0
        assert "(no manifest found: " in capsys.readouterr().out

    def test_deeply_nested_json_is_data_error(self, pipeline, tmp_path, capsys):
        """Nesting too deep for the parser in a JSONL line, a JSON document or
        a checkpoint header exits 2, and no output is written."""
        nested = "[" * 100_000 + "]" * 100_000
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(nested + "\n", encoding="utf-8")
        vocab = tmp_path / "vocab.json"
        vocab.write_text(nested, encoding="utf-8")
        blob = pipeline["ckpt"].read_bytes()
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(nested.encode("utf-8") + blob[blob.index(b"\n"):])
        out = tmp_path / "out"
        runs = [
            (["align", "--kb", str(pipeline["kb"]), "--corpus", str(corpus), "--out", str(out)],
             f"{corpus}:1: invalid JSON: nested too deeply"),
            (["train", "--data", str(pipeline["masked"]), "--vocab", str(vocab),
              "--out", str(out), "--steps", "1"], f"{vocab}: not a JSON file: nested too deeply"),
            (["probe", "--model", str(ckpt), "--templates", str(pipeline["templates"]),
              "--facts", str(pipeline["facts"]), "--out", str(out)],
             f"{ckpt}: checkpoint header is not JSON"),
        ]
        for argv, error in runs:
            assert main(argv) == 2, argv[0]
            assert capsys.readouterr().err == f"detmask: error: {error}\n", argv[0]
            assert not out.exists(), argv[0]

    def test_lone_surrogate_escape_is_data_error(self, pipeline, tmp_path, capsys):
        """A ``\\ud800`` escape is valid JSON that no UTF-8 writer can write:
        a corpus text, a vocabulary token or a report count holding one exits 2
        before anything is written or printed; a paired escape reads fine."""
        lines = pipeline["corpus"].read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        corpus = tmp_path / "corpus.jsonl"
        vocab = tmp_path / "vocab.json"
        report = tmp_path / "report.json"
        out = tmp_path / "out"
        tokens = read_json(pipeline["root"] / "vocab.json")["tokens"]
        doc = read_json(pipeline["report"])
        runs = [
            (corpus, json.dumps({**first, "text": first["text"] + " \ud800"}) + "\n",
             ["align", "--kb", str(pipeline["kb"]), "--corpus", str(corpus), "--out", str(out)],
             f"{corpus}:1: invalid JSON"),
            (vocab, json.dumps({"tokens": tokens + ["\ud800"]}),
             ["train", "--data", str(pipeline["masked"]), "--vocab", str(vocab),
              "--out", str(out), "--steps", "1"], f"{vocab}: not a JSON file"),
            (report, json.dumps({**doc, "counts": {**doc["counts"], "facts": "\ud800"}}),
             ["report", "--report", str(report)], f"{report}: not a JSON file"),
        ]
        for path, text, argv, error in runs:
            assert "\\ud800" in text
            path.write_text(text, encoding="utf-8")
            assert main(argv) == 2, argv[0]
            captured = capsys.readouterr()
            assert captured.err == f"detmask: error: {error}: a string holds a lone surrogate\n"
            assert captured.out == "" and not out.exists(), argv[0]
        corpus.write_text(json.dumps({**first, "text": first["text"] + " \U0001f600"}) + "\n",
                          encoding="utf-8")
        assert main(["align", "--kb", str(pipeline["kb"]), "--corpus", str(corpus),
                     "--out", str(out)]) == 0

    def test_checkpoint_shape_mismatch_is_data_error(self, pipeline, tmp_path, capsys):
        blob = pipeline["ckpt"].read_bytes()
        header_end = blob.index(b"\n")
        probe = ["--templates", str(pipeline["templates"]), "--facts", str(pipeline["facts"]),
                 "--out", str(tmp_path / "r.json")]

        def cut_tok_emb(header):
            entry = next(e for e in header["tensors"] if e["name"] == "tok_emb")
            entry["shape"][0] = 10

        def add_vocab_token(header):
            header["vocab"].append("unseen-token")

        def fractional_dim(header):
            header["config"]["d"] += 0.5

        for edit in (cut_tok_emb, add_vocab_token, fractional_dim):
            header = json.loads(blob[:header_end])
            edit(header)
            ckpt = tmp_path / f"{edit.__name__}.ckpt"
            ckpt.write_bytes(json.dumps(header).encode("utf-8") + blob[header_end:])
            assert main(["probe", "--model", str(ckpt), *probe]) == 2, edit.__name__
            assert capsys.readouterr().err.startswith("detmask: error:"), edit.__name__

    def test_checkpoint_vocabulary_shorter_than_model_is_data_error(self, pipeline, tmp_path,
                                                                    capsys):
        """A 7-token vocabulary in a 12-token model: a fill past its end has no
        token to decode, so the checkpoint is rejected before the probe."""
        config = model.ModelConfig(vocab_size=12, d=4, max_len=32)
        state = model.init(config)
        state.lm_bias[11] = 50.0
        ckpt = tmp_path / "short.ckpt"
        model.save_checkpoint(ckpt, state, config,
                              Vocabulary.from_tokens(["horse", "jaws", "spielberg", "war"]))
        code = main(["probe", "--model", str(ckpt), "--templates", str(pipeline["templates"]),
                     "--facts", str(pipeline["facts"]), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "vocabulary has 7 tokens, but the config has 12" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_probe_ids_follow_the_kb_id_rule(self, pipeline, tmp_path, capsys):
        """Padding around a fact's ids or a template's relation is dropped, as in
        the KB tables, so the report is unchanged; an id with a space exits 2."""
        padded_facts = [{**f, "s": f" {f['s']}", "p": f"{f['p']}\t", "o": f" {f['o']} "}
                        for f in FACTS]
        padded_templates = [{**t, "relation": f" {t['relation']} "} for t in TEMPLATES]
        cases = (("padded", padded_facts, padded_templates, 0),
                 ("spaced subject", [{**FACTS[0], "s": "War Horse"}, *FACTS[1:]], TEMPLATES, 2),
                 ("spaced relation", FACTS,
                  [{**TEMPLATES[0], "relation": "directed by"}, *TEMPLATES[1:]], 2))
        for name, facts, templates, expected in cases:
            paths = {"facts": tmp_path / "facts.jsonl", "templates": tmp_path / "templates.jsonl"}
            for key, objs in (("facts", facts), ("templates", templates)):
                paths[key].write_text("".join(json.dumps(o) + "\n" for o in objs),
                                      encoding="utf-8")
            out = tmp_path / "r.json"
            argv = probe_split_argv({**pipeline, **paths}, out, pipeline["kb"],
                                    pipeline["samples"])
            assert main(argv) == expected, name
            if expected == 0:
                assert out.read_bytes() == pipeline["report"].read_bytes()
                out.unlink()
            else:
                assert "bad " in capsys.readouterr().err, name
                assert not out.exists(), name

    def test_repeated_fact_triplet_is_data_error(self, pipeline, tmp_path, capsys):
        """Facts sharing a triplet would be scored with each other's answers."""
        facts = tmp_path / "facts.jsonl"
        facts.write_text("".join(json.dumps(f) + "\n" for f in
                                 [*FACTS, {**FACTS[0], "s_surface": "the war horse"}]),
                         encoding="utf-8")
        out = tmp_path / "r.json"
        code = main(["probe", "--model", str(pipeline["ckpt"]),
                     "--templates", str(pipeline["templates"]), "--facts", str(facts),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"facts.jsonl:{len(FACTS) + 1}: fact triplet repeats line 1" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_non_finite_checkpoint_tensor_is_data_error(self, pipeline, tmp_path, capsys):
        blob = bytearray(pipeline["ckpt"].read_bytes())
        header_end = blob.index(b"\n") + 1
        header = json.loads(blob[:header_end])
        tok_emb = next(e for e in header["tensors"] if e["name"] == "tok_emb")
        probe = ["--templates", str(pipeline["templates"]), "--facts", str(pipeline["facts"]),
                 "--out", str(tmp_path / "r.json")]
        for name, value in (("nan", float("nan")), ("inf", float("-inf"))):
            at = header_end + tok_emb["offset"] + 8 * 5
            blob[at:at + 8] = struct.pack("<d", value)
            ckpt = tmp_path / f"{name}.ckpt"
            ckpt.write_bytes(bytes(blob))
            assert main(["probe", "--model", str(ckpt), *probe]) == 2, name
            assert "non-finite" in capsys.readouterr().err, name
            assert not (tmp_path / "r.json").exists(), name

    def test_overflowing_checkpoint_is_data_error(self, pipeline, tmp_path, capsys):
        """Finite but huge parameters overflow the forward pass: exit 2, no warning."""
        state, config, vocab = load_checkpoint(pipeline["ckpt"])
        state.tok_emb[...] = 1e200
        ckpt = tmp_path / "huge.ckpt"
        model.save_checkpoint(ckpt, state, config, vocab)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["probe", "--model", str(ckpt), "--templates", str(pipeline["templates"]),
                         "--facts", str(pipeline["facts"]), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "non-finite activations" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_prompt_longer_than_max_len_is_data_error(self, pipeline, tmp_path, capsys):
        max_len = load_checkpoint(pipeline["ckpt"])[1].max_len
        templates = tmp_path / "templates.jsonl"
        templates.write_text(
            json.dumps({"relation": "directedBy", "pattern": "[X] was directed by [Y]"}) + "\n"
            + json.dumps({"relation": "directedBy", "pattern": "[X] " + "so " * max_len + "[Y]"})
            + "\n", encoding="utf-8")
        code = main(["probe", "--model", str(pipeline["ckpt"]), "--templates", str(templates),
                     "--facts", str(pipeline["facts"]), "--out", str(tmp_path / "r.json")])
        assert code == 2
        # The first long prompt: "war horse", max_len fillers and one mask.
        assert (f"sequence of {max_len + 3} tokens exceeds max_len {max_len}"
                in capsys.readouterr().err)

    def test_failed_report_write_keeps_previous_report(self, pipeline, tmp_path, monkeypatch,
                                                        capsys):
        report = tmp_path / "report.json"
        report.write_text("previous\n", encoding="utf-8")
        monkeypatch.setattr(fileio, "open", half_writing_open, raising=False)
        code = main(["probe", "--model", str(pipeline["ckpt"]),
                     "--templates", str(pipeline["templates"]),
                     "--facts", str(pipeline["facts"]), "--out", str(report)])
        assert code == 2
        assert "No space left" in capsys.readouterr().err
        assert report.read_text(encoding="utf-8") == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["triplets", "corpus", "samples", "masked", "vocab", "ckpt",
                                 "templates", "facts", "report"]),
           cut=st.floats(0, 1),
           flips=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
                          max_size=4))
    def test_corrupt_input_exits_zero_or_two(self, pipeline, kind, cut, flips):
        """A truncated input, or one with flipped bytes, parses or is a data error."""
        p = {**pipeline, "vocab": pipeline["root"] / "vocab.json"}
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            train = ["train", "--data", p["masked"], "--vocab", p["vocab"],
                     "--out", out / "model.ckpt", "--steps", "1"]
            probe = ["probe", "--model", p["ckpt"], "--templates", p["templates"],
                     "--facts", p["facts"], "--out", out / "report.json"]
            argv = {
                "triplets": ["build-kb", "--triplets", p["triplets"], "--entities",
                             p["entities"], "--predicates", p["predicates"], "--out", out / "kb"],
                "corpus": ["align", "--kb", p["kb"], "--corpus", p["corpus"],
                           "--out", out / "samples.jsonl"],
                "samples": ["mask", "--samples", p["samples"], "--out", out / "masked.jsonl",
                            "--emit", "triple"],
                "masked": train, "vocab": train,
                "ckpt": probe, "templates": probe, "facts": probe,
                "report": ["report", "--report", p["report"]],
            }[kind]
            blob = bytearray(p[kind].read_bytes())
            for at, bits in flips:
                blob[int(at * len(blob))] ^= bits
            if not flips:
                del blob[int(cut * len(blob)):]
            bad = out / ("bad-" + p[kind].name)
            bad.write_bytes(bytes(blob))
            argv = [str(bad) if a == p[kind] else str(a) for a in argv]
            assert main(argv) in (0, 2), argv

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(edits=st.lists(MASKED_EDITS, min_size=1, max_size=3))
    def test_edited_masked_values_exit_zero_or_two(self, pipeline, edits):
        """Valid JSON with edited values trains or is a data error, never a crash."""
        lines = edit_masked_lines(
            pipeline["masked"].read_text(encoding="utf-8").splitlines(), edits)
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "masked.jsonl"
            bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
            argv = ["train", "--data", str(bad), "--vocab", str(pipeline["root"] / "vocab.json"),
                    "--out", str(Path(tmp) / "m.ckpt"), "--steps", str(len(lines)),
                    "--dim", "4"]
            assert main(argv) in (0, 2), lines

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(edits=st.lists(SAMPLE_EDITS, min_size=1, max_size=3))
    def test_edited_sample_values_exit_zero_or_two(self, pipeline, edits):
        """Valid JSON with edited values in an aligned file: ``stats``, ``mask``
        and ``probe --pretrain`` each run or report a data error, never crash."""
        lines = edit_sample_lines(
            pipeline["samples"].read_text(encoding="utf-8").splitlines(), edits)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            bad = out / "samples.jsonl"
            bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
            for argv in (["stats", "--samples", str(bad)],
                         ["mask", "--samples", str(bad), "--out", str(out / "m.jsonl"),
                          "--emit", "pair"],
                         probe_split_argv(pipeline, out / "r.json", pipeline["kb"], bad)):
                assert main(argv) in (0, 2), (argv[0], lines)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(edits=st.lists(CORPUS_EDITS, min_size=1, max_size=3))
    def test_edited_corpus_values_exit_zero_or_two(self, pipeline, edits):
        """Valid JSON with edited values in a corpus, some of its paragraphs
        pre-linked: ``align`` runs or reports a data error, never crashes."""
        prelinked = [
            {**CORPUS[0], "entity_spans": [[0, 9, "WarHorse"], [46, 62, "Spielberg"]]},
            {**CORPUS[1], "entity_spans": [[0, 4, "Jaws"], [21, 30, "Spielberg"]]},
        ]
        lines = edit_corpus_lines(prelinked + CORPUS, edits)
        with tempfile.TemporaryDirectory() as tmp:
            corpus = Path(tmp) / "corpus.jsonl"
            corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
            argv = ["align", "--kb", str(pipeline["kb"]), "--corpus", str(corpus),
                    "--out", str(Path(tmp) / "samples.jsonl")]
            assert main(argv) in (0, 2), lines

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(edits=st.lists(CHECKPOINT_EDITS, min_size=1, max_size=3))
    def test_edited_checkpoint_header_exits_zero_or_two(self, pipeline, edits):
        """A checkpoint whose header holds edited values probes or is a data
        error, never a crash."""
        blob = pipeline["ckpt"].read_bytes()
        end = blob.index(b"\n")
        header = edit_checkpoint_header(json.loads(blob[:end]), edits)
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = Path(tmp) / "model.ckpt"
            ckpt.write_bytes(json.dumps(header).encode("utf-8") + blob[end:])
            argv = ["probe", "--model", str(ckpt), "--templates", str(pipeline["templates"]),
                    "--facts", str(pipeline["facts"]), "--out", str(Path(tmp) / "r.json")]
            assert main(argv) in (0, 2), header

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(edits=st.lists(PROBE_INPUT_EDITS, min_size=1, max_size=3))
    def test_edited_facts_and_templates_exit_zero_or_two(self, pipeline, edits):
        """Valid JSON with edited values in the facts or templates: ``probe
        --kb --pretrain`` runs or reports a data error, never crashes."""
        objs = {key: [json.loads(line) for line in
                      pipeline[key].read_text(encoding="utf-8").splitlines()]
                for key in ("facts", "templates")}
        for (kind, key), line_no, (op, value) in edits:
            obj = objs[kind][line_no % len(objs[kind])]
            if op == "delete":
                obj.pop(key, None)
            else:
                obj[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            paths = {key: Path(tmp) / f"{key}.jsonl" for key in objs}
            for key, lines in objs.items():
                paths[key].write_text("".join(json.dumps(o) + "\n" for o in lines),
                                      encoding="utf-8")
            argv = probe_split_argv({**pipeline, **paths}, Path(tmp) / "r.json",
                                    pipeline["kb"], pipeline["samples"])
            assert main(argv) in (0, 2), objs

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(edits=st.lists(KB_EDITS, min_size=1, max_size=3))
    def test_edited_kb_tables_exit_zero_or_two(self, edits):
        """KB tables with edited values build or are a data error, never a
        crash; a KB that builds is a fixed point: building it again from
        the tables written gives the same bytes."""
        tables = edit_kb_tables({"triplets": TRIPLETS, "entities": ENTITIES,
                                 "predicates": PREDICATES}, edits)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, text in tables.items():
                (root / f"{name}.tsv").write_text(text, encoding="utf-8")

            def build_kb(src: Path, out: Path) -> int:
                return main(["build-kb", "--triplets", str(src / "triplets.tsv"),
                             "--entities", str(src / "entities.tsv"),
                             "--predicates", str(src / "predicates.tsv"), "--out", str(out)])

            code = build_kb(root, root / "kb")
            assert code in (0, 2), tables
            if code == 0:
                assert build_kb(root / "kb", root / "again") == 0, tables
                for name in tables:
                    assert ((root / "again" / f"{name}.tsv").read_bytes()
                            == (root / "kb" / f"{name}.tsv").read_bytes()), tables

    def test_version_exits_zero(self):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0


# Every way ``mask`` makes training items: the five schemes, pairs and triples.
MASK_MODES = [("--scheme", scheme) for scheme in (
    "random_token", "whole_word", "salient_span", "object_span", "deterministic")] + [
    ("--emit", "pair"), ("--emit", "triple")]


def edit_last_masked_line(lines: list[str], fault: str, size: int) -> None:
    """Put one fault of ``test_fault_after_kept_items_is_data_error`` into the
    last of ``lines``."""
    last = json.loads(lines[-1])
    if fault == "json":
        lines[-1] = lines[-1][:-1]
        return
    if fault == "vocab size":
        last["input_ids"][0] = size
    elif fault == "2**63":
        last["input_ids"][0] = 2 ** 63
    elif fault == "position":
        last["mask_positions"][0] = len(last["input_ids"])
    else:
        last["input_ids"].append(3)
    lines[-1] = json.dumps(last)


class TestTrainFromMaskManifest:
    """``train`` reads only the items it trains on when the mask manifest
    beside ``--data`` vouches for ``--data`` and ``--vocab``, and gives the
    bytes that a full read gives."""

    def train(self, data: Path, vocab: Path, out: Path, steps: int):
        """Exit code, checkpoint and log bytes, counters and ``lines_read``."""
        code = main(["train", "--data", str(data), "--vocab", str(vocab), "--out", str(out),
                     "--steps", str(steps), "--dim", "4"])
        if code:
            return code, None, None, None, None
        counters = read_json(f"{out}.manifest.json")["counters"]
        lines_read = counters.pop("lines_read")
        return (code, out.read_bytes(), Path(f"{out}.log.jsonl").read_bytes(), counters,
                lines_read)

    def aligned(self, pipeline, tmp_path, world) -> Path:
        """The samples of the CLI world, or of a random worldgen world."""
        if world == "cli":
            return pipeline["samples"]
        kb_tables, paragraphs = make_world(np.random.default_rng(world), n_paragraphs=40)
        paths = write_world_inputs(tmp_path, kb_tables, paragraphs)
        assert main(["build-kb", "--out", str(tmp_path / "kb"),
                     *(f"--{k}={paths[k]}" for k in ("triplets", "entities", "predicates"))]) == 0
        samples = tmp_path / "samples.jsonl"
        assert main(["align", "--kb", str(tmp_path / "kb"), "--corpus", str(paths["corpus"]),
                     "--out", str(samples)]) == 0
        return samples

    @pytest.mark.parametrize("world", ["cli", 3, 8])
    def test_manifest_agrees_with_a_full_read(self, pipeline, tmp_path, world):
        """In every mask mode the manifest's ``items`` and ``longest`` are
        what a full ``read_masked`` counts, and ``train`` with the manifest
        beside ``--data`` writes the bytes and counters of a copy without
        one, with ``--steps`` below and above the item count; below it, it
        reads fewer lines."""
        samples = self.aligned(pipeline, tmp_path, world)
        for flag, mode in MASK_MODES:
            run, bare = tmp_path / mode, tmp_path / f"{mode}-bare"
            run.mkdir()
            bare.mkdir()
            masked, vocab = run / "masked.jsonl", run / "vocab.json"
            source = (["--ssm", str(samples.with_name("samples.ssm.jsonl"))]
                      if mode == "salient_span" else ["--samples", str(samples)])
            assert main(["mask", *source, "--out", str(masked), flag, mode, "--seed", "2"]) == 0
            counters = read_json(f"{masked}.manifest.json")["counters"]
            _items, count, longest = read_masked(masked, read_vocab(vocab).size, vocab, 1)
            assert (counters["items"], counters["longest"]) == (count, longest), mode
            assert count > 2, mode
            shutil.copy(masked, bare / "masked.jsonl")
            for steps in (count // 2, count + 2):
                *vouched, vouched_lines = self.train(masked, vocab, run / f"{steps}.ckpt", steps)
                *full, full_lines = self.train(bare / "masked.jsonl", vocab,
                                               bare / f"{steps}.ckpt", steps)
                assert vouched == full and vouched[0] == 0, (mode, steps)
                assert full_lines == counters["lines_emitted"], (mode, steps)
                if steps > count:
                    assert vouched_lines == full_lines, (mode, steps)
                else:
                    assert vouched_lines < full_lines, (mode, steps)

    def beside_its_manifest(self, pipeline, tmp_path) -> Path:
        """A copy of the pipeline's masked file with its mask manifest beside it."""
        data = tmp_path / "masked.jsonl"
        shutil.copy(pipeline["masked"], data)
        shutil.copy(f"{pipeline['masked']}.manifest.json", f"{data}.manifest.json")
        return data

    def test_vouched_read_stops_after_the_kept_items(self, pipeline, tmp_path):
        """The pipeline's triples: ``--steps 1`` reads the first three lines."""
        data = self.beside_its_manifest(pipeline, tmp_path)
        vocab = pipeline["root"] / "vocab.json"
        assert self.train(data, vocab, tmp_path / "m.ckpt", 1)[-1] == 3

    @pytest.mark.parametrize("fault", ["json", "vocab size", "2**63", "position", "ragged"])
    def test_fault_beside_the_manifest_of_the_unedited_file(self, pipeline, tmp_path, capsys,
                                                            fault):
        """The digest differs, so every line is checked: ``train --steps 1``
        exits 2 with the message it gives without the manifest, and writes
        no checkpoint or log."""
        vocab = pipeline["root"] / "vocab.json"
        data = tmp_path / "masked.jsonl"
        lines = pipeline["masked"].read_text(encoding="utf-8").splitlines()
        edit_last_masked_line(lines, fault, read_vocab(vocab).size)
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["train", "--data", str(data), "--vocab", str(vocab),
                "--out", str(tmp_path / "m.ckpt"), "--steps", "1"]
        assert main(argv) == 2
        error = capsys.readouterr().err
        shutil.copy(f"{pipeline['masked']}.manifest.json", f"{data}.manifest.json")
        assert main(argv) == 2
        assert capsys.readouterr().err == error
        assert error.startswith(f"detmask: error: {data if fault != 'ragged' else 'p3'}")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "masked.jsonl", "masked.jsonl.manifest.json"]

    @pytest.mark.parametrize("change", [
        "vocab bytes", "align manifest", "no items", "no longest", "bool items",
        "bool longest", "negative items", "negative longest"])
    def test_manifest_that_does_not_vouch_changes_nothing(self, pipeline, tmp_path, change):
        """``train`` then reads every line, and writes what it writes with no
        manifest beside ``--data``."""
        data = self.beside_its_manifest(pipeline, tmp_path)
        vocab = pipeline["root"] / "vocab.json"
        manifest_path = Path(f"{data}.manifest.json")
        manifest = read_json(manifest_path)
        kind, _, key = change.partition(" ")
        if change == "vocab bytes":
            vocab = tmp_path / "vocab.json"
            vocab.write_text(json.dumps(read_json(pipeline["root"] / "vocab.json"), indent=1),
                             encoding="utf-8")
        elif change == "align manifest":
            shutil.copy(f"{pipeline['samples']}.manifest.json", manifest_path)
        elif kind == "no":
            del manifest["counters"][key]
        else:
            manifest["counters"][key] = True if kind == "bool" else -1
        if kind in ("no", "bool", "negative"):
            fileio.write_json(manifest_path, manifest)
        bare = tmp_path / "bare"
        bare.mkdir()
        shutil.copy(data, bare / "masked.jsonl")
        result = self.train(data, vocab, tmp_path / "m.ckpt", 1)
        assert result == self.train(bare / "masked.jsonl", pipeline["root"] / "vocab.json",
                                    bare / "m.ckpt", 1)
        assert result[-1] == 9
