"""End-to-end pipeline runs through the command line interface."""

from __future__ import annotations

import json
import struct
import time
from pathlib import Path

import pytest

from detmask import cli, fileio, formats
from detmask.cli import main
from detmask.formats import (
    group_items,
    read_facts,
    read_json,
    read_masked,
    read_samples,
    read_ssm,
    read_templates,
    read_vocab,
)
from detmask.model import load_checkpoint
from detmask.probe import build_questions, filter_leakage, length_batches
from test_formats import half_writing_open

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
        masked = read_masked(pipeline["masked"])
        items = group_items(masked)
        assert len(masked) == 9  # three docs, three lines each
        assert all(isinstance(item, tuple) and len(item) == 3 for item in items)
        vocab = read_vocab(pipeline["root"] / "vocab.json")
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
                    "emitted_triplets": 3,
                },
            },
            masked: {
                "command": "mask",
                "inputs": {"samples": str(samples)},
                "outputs": {"masked": str(masked), "vocab": str(root / "vocab.json")},
                "seed": 3,
                "config": {"scheme": None, "emit": "triple"},
                "counters": {"groups_processed": 3, "lines_emitted": 9, "groups_skipped": 0,
                             "skip_reasons": {}},
            },
            ckpt: {
                "command": "train",
                "inputs": {"data": str(masked), "vocab": str(root / "vocab.json")},
                "outputs": {"checkpoint": str(ckpt), "log": str(ckpt) + ".log.jsonl"},
                "seed": 0,
                "config": {"steps": 40, "lr": 0.5, "dim": 8, "max_len": 64,
                           "lambda_con": 1.0, "lambda_cls": 1.0},
                "counters": {"items": 3, "steps_run": 40, "final_L_mlm": last["L_mlm"],
                             "final_L_total": last["L_total"]},
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
            assert list(manifest) == ["command", "inputs", "outputs", "seed", "config",
                                      "started", "duration_s", "counters"]
            del manifest["started"], manifest["duration_s"]
            assert manifest == want, main_output

    def test_manifest_duration_covers_the_whole_stage(self, pipeline, tmp_path, monkeypatch):
        def slow(read):
            def slow_read(*args, **kwargs):
                time.sleep(0.2)
                return read(*args, **kwargs)
            return slow_read

        # Each stage's first input read.
        for module, name in ((cli, "load_kb"), (cli, "load_kb_dir"), (formats, "read_samples"),
                             (formats, "read_masked"), (cli, "load_checkpoint")):
            monkeypatch.setattr(module, name, slow(getattr(module, name)))
        kb, samples, masked = tmp_path / "kb", tmp_path / "samples.jsonl", tmp_path / "masked.jsonl"
        ckpt, report = tmp_path / "model.ckpt", tmp_path / "report.json"
        stages = {
            kb / "kb": ["build-kb", "--triplets", str(pipeline["triplets"]),
                        "--entities", str(pipeline["entities"]),
                        "--predicates", str(pipeline["predicates"]), "--out", str(kb)],
            samples: ["align", "--kb", str(kb), "--corpus", str(pipeline["corpus"]),
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


class TestMaskSources:
    def ssm_path(self, pipeline) -> Path:
        return pipeline["samples"].with_name("samples.ssm.jsonl")

    def test_salient_span_from_ssm(self, pipeline, tmp_path):
        out = tmp_path / "m.jsonl"
        assert main(["mask", "--ssm", str(self.ssm_path(pipeline)), "--out", str(out),
                     "--scheme", "salient_span"]) == 0
        masked = read_masked(out)
        assert len(masked) == 4  # one line per ssm paragraph
        assert {m.scheme.value for m in masked} == {"salient_span"}

    def test_salient_span_falls_back_to_samples(self, pipeline, tmp_path):
        out = tmp_path / "m.jsonl"
        assert main(["mask", "--samples", str(pipeline["samples"]), "--out", str(out),
                     "--scheme", "salient_span"]) == 0
        masked = read_masked(out)
        assert [m.doc_id for m in masked] == ["p1", "p2", "p3"]
        assert {m.scheme.value for m in masked} == {"salient_span"}

    def test_pair_from_ssm_only_is_usage_error(self, pipeline, tmp_path, capsys):
        code = main(["mask", "--ssm", str(self.ssm_path(pipeline)),
                     "--out", str(tmp_path / "m.jsonl"), "--emit", "pair"])
        assert code == 1
        assert "requires --samples" in capsys.readouterr().err


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

    def test_token_id_outside_vocabulary_is_data_error(self, pipeline, tmp_path, capsys):
        size = read_vocab(pipeline["root"] / "vocab.json").size
        assert self.train_on_edited_masked(pipeline, tmp_path, "input_ids", size) == 2
        assert capsys.readouterr().err.startswith("detmask: error:")

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

    def test_non_json_vocabulary_is_data_error(self, pipeline, tmp_path, capsys):
        vocab = tmp_path / "vocab.json"
        vocab.write_text('{"tokens": [', encoding="utf-8")
        code = main(["train", "--data", str(pipeline["masked"]), "--vocab", str(vocab),
                     "--out", str(tmp_path / "m.ckpt"), "--steps", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("detmask: error:")

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
        manifest = read_json(str(pipeline["samples"]) + ".manifest.json")
        for name, counters in (("string", {**manifest["counters"], "candidate_triplets": "x"}),
                               ("list", [1])):
            path = tmp_path / f"{name}.manifest.json"
            path.write_text(json.dumps({**manifest, "counters": counters}), encoding="utf-8")
            code = main(["stats", "--samples", str(pipeline["samples"]), "--manifest", str(path)])
            assert code == 2, name
            assert capsys.readouterr().err.startswith("detmask: error:"), name

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

    def test_version_exits_zero(self):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
