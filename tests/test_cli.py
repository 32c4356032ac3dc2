"""End-to-end pipeline runs through the command line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from detmask.cli import main
from detmask.formats import (
    group_items,
    read_json,
    read_masked,
    read_samples,
    read_ssm,
    read_vocab,
)
from detmask.model import load_checkpoint

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

    def test_version_exits_zero(self):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
