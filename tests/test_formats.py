"""Serialization round-trips and input validation for the file formats."""

from __future__ import annotations

import json

import numpy as np
import pytest

from detmask import fileio
from detmask.align import Aligner, Paragraph
from detmask.errors import MalformedLine
from detmask.formats import (
    group_items,
    read_corpus,
    read_facts,
    read_jsonl,
    read_masked,
    read_samples,
    read_ssm,
    read_templates,
    read_vocab,
    write_json,
    write_jsonl,
    write_masked,
    write_samples,
    write_ssm,
    write_train_log,
    write_vocab,
)
from detmask.kb import Triplet, build_kb, write_kb_dir
from detmask.masking import MaskScheme, MaskedSample, Variant, Vocabulary
from detmask.model import LogEntry, ModelConfig, init, load_checkpoint, save_checkpoint


class _HalfWriter:
    """A file that writes half of what it is given, then fails as a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


def half_writing_open(path, mode="r", *args, **kwargs):
    """``open`` for ``detmask.fileio`` whose writes fail midway."""
    return _HalfWriter(open(path, mode, *args, **kwargs))


def film_sample():
    kb = build_kb(
        [Triplet("WarHorse", "directedBy", "Spielberg")],
        {"WarHorse": ("War Horse",), "Spielberg": ("Steven Spielberg",)},
        {"directedBy": ("directed by",)},
    )
    text = "War Horse is a film directed by Steven Spielberg"
    return Aligner(kb).align(Paragraph("film", text))[0]


def masked_sample(variant=Variant.PLAIN, doc_id="d") -> MaskedSample:
    return MaskedSample(doc_id, (3, 1, 4), (1,), (5,), variant, MaskScheme.DETERMINISTIC)


class TestJsonl:
    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "x.jsonl"
        p.write_text('{"a":1}\n\n{"b":2}\n', encoding="utf-8")
        assert [obj for _n, obj in read_jsonl(p)] == [{"a": 1}, {"b": 2}]

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "x.jsonl"
        p.write_text('{"a":1}\nnot json\n', encoding="utf-8")
        with pytest.raises(MalformedLine) as info:
            list(read_jsonl(p))
        assert ":2:" in str(info.value)

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "x.jsonl"
        p.write_text("[1,2]\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            list(read_jsonl(p))

    def test_writer_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        objs = [{"k": "v", "n": 1.5}, {"k": "w", "n": 2}]
        write_jsonl(a, objs)
        write_jsonl(b, objs)
        assert a.read_bytes() == b.read_bytes()


class TestCorpus:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        write_jsonl(
            p,
            [
                {"doc_id": "a", "text": "plain paragraph"},
                {"doc_id": "b", "text": "spanned", "entity_spans": [[0, 4, "Q7"]]},
            ],
        )
        corpus = read_corpus(p)
        assert corpus[0] == Paragraph("a", "plain paragraph")
        assert corpus[1].pre_linked_spans == ((0, 4, "Q7"),)

    def test_bad_span_entry(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        write_jsonl(p, [{"doc_id": "a", "text": "x", "entity_spans": [[0, "b", "Q"]]}])
        with pytest.raises(MalformedLine):
            read_corpus(p)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        write_jsonl(p, [{"text": "x"}])
        with pytest.raises(MalformedLine):
            read_corpus(p)


class TestSamples:
    def test_round_trip(self, tmp_path):
        sample = film_sample()
        path = tmp_path / "samples.jsonl"
        assert write_samples(path, [sample]) == 1
        (loaded,) = read_samples(path)
        assert loaded.paragraph.doc_id == "film"
        assert loaded.paragraph.text == sample.paragraph.text
        assert loaded.entity_spans == sample.entity_spans
        assert loaded.aligned == sample.aligned

    def test_span_outside_text_rejected(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        write_jsonl(
            path,
            [{"doc_id": "d", "text": "abc", "entities": [[0, 9, "Q"]], "triplets": []}],
        )
        with pytest.raises(MalformedLine):
            read_samples(path)

    def test_ssm_round_trip(self, tmp_path):
        sample = film_sample()
        path = tmp_path / "ssm.jsonl"
        write_ssm(path, [sample])
        (loaded,) = read_ssm(path)
        assert loaded.entity_spans == sample.entity_spans
        assert loaded.aligned == ()


class TestMasked:
    def test_round_trip_all_variants(self, tmp_path):
        path = tmp_path / "masked.jsonl"
        originals = [masked_sample(v) for v in Variant]
        write_masked(path, originals)
        assert read_masked(path) == originals

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "masked.jsonl"
        write_jsonl(
            path,
            [
                {
                    "doc_id": "d",
                    "variant": "plain",
                    "input_ids": [3, 1],
                    "mask_positions": [1],
                    "targets": [5, 6],
                    "scheme": "deterministic",
                }
            ],
        )
        with pytest.raises(MalformedLine):
            read_masked(path)

    def test_unknown_scheme_rejected(self, tmp_path):
        path = tmp_path / "masked.jsonl"
        write_jsonl(
            path,
            [
                {
                    "doc_id": "d",
                    "variant": "plain",
                    "input_ids": [3],
                    "mask_positions": [0],
                    "targets": [3],
                    "scheme": "mystery",
                }
            ],
        )
        with pytest.raises(MalformedLine):
            read_masked(path)


class TestGroupItems:
    def test_grouping_shapes(self):
        keep = masked_sample(Variant.KEEP_CLUES)
        drop = masked_sample(Variant.MASK_CLUES)
        rand = masked_sample(Variant.MASK_RANDOM)
        plain = masked_sample(Variant.PLAIN)
        items = group_items([plain, keep, drop, rand, keep, drop, plain])
        assert items[0] == plain
        assert items[1] == (keep, drop, rand)
        assert items[2] == (keep, drop)
        assert items[3] == plain
        assert len(items) == 4

    def test_doc_boundary_breaks_group(self):
        keep = masked_sample(Variant.KEEP_CLUES, doc_id="a")
        drop = masked_sample(Variant.MASK_CLUES, doc_id="b")
        items = group_items([keep, drop])
        assert items == [keep, drop]

    def test_orphan_keep_stays_single(self):
        keep = masked_sample(Variant.KEEP_CLUES)
        assert group_items([keep]) == [keep]


class TestSmallFormats:
    def test_vocab_round_trip(self, tmp_path):
        vocab = Vocabulary.build(["war horse", "jaws"])
        path = tmp_path / "vocab.json"
        write_vocab(path, vocab)
        assert read_vocab(path) == vocab

    def test_templates(self, tmp_path):
        path = tmp_path / "templates.jsonl"
        write_jsonl(path, [{"relation": "p", "pattern": "[X] is [Y]"}])
        (t,) = read_templates(path)
        assert (t.relation, t.pattern) == ("p", "[X] is [Y]")

    def test_facts(self, tmp_path):
        path = tmp_path / "facts.jsonl"
        write_jsonl(
            path,
            [{"s": "Q1", "p": "p", "o": "Q2", "s_surface": "Ada", "o_surface": "London"}],
        )
        (f,) = read_facts(path)
        assert f.triplet == Triplet("Q1", "p", "Q2")
        assert f.object_surface == "London"
        assert f.in_domain is None

    def test_train_log_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_train_log(path, [LogEntry(0, 1.0, 0.5, 0.25, 1.75)])
        line = json.loads(path.read_text(encoding="utf-8"))
        assert line == {"step": 0, "L_mlm": 1.0, "L_con": 0.5, "L_cls": 0.25, "L_total": 1.75}


class TestAtomicWrites:
    def test_failed_checkpoint_write_keeps_previous_file(self, tmp_path, monkeypatch):
        cfg = ModelConfig(vocab_size=9, d=4, max_len=6, seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init(cfg), cfg)
        before = path.read_bytes()
        monkeypatch.setattr(fileio, "open", half_writing_open, raising=False)
        with pytest.raises(OSError):
            save_checkpoint(path, init(ModelConfig(vocab_size=9, d=4, max_len=6, seed=2)), cfg)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        state, _cfg, _vocab = load_checkpoint(path)
        assert np.array_equal(state.tok_emb, init(cfg).tok_emb)

    def test_failed_json_write_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "open", half_writing_open, raising=False)
        with pytest.raises(OSError):
            write_json(tmp_path / "report.json", {"format": "detmask-report", "splits": {}})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target, write", [
        ("x.jsonl", lambda p: write_jsonl(p, [{"a": 1}])),
        ("samples.jsonl", lambda p: write_samples(p, [film_sample()])),
        ("ssm.jsonl", lambda p: write_ssm(p, [film_sample()])),
        ("masked.jsonl", lambda p: write_masked(p, [masked_sample()])),
        ("log.jsonl", lambda p: write_train_log(p, [LogEntry(0, 1.0, 0.5, 0.25, 1.75)])),
        ("vocab.json", lambda p: write_vocab(p, Vocabulary.build(["war horse"]))),
        ("report.json", lambda p: write_json(p, {"a": 1})),
        ("kb/triplets.tsv", lambda p: write_kb_dir(
            build_kb([Triplet("a", "p", "b")], {"a": ("A",), "b": ("B",)}, {"p": ("p",)}),
            p.parent)),
    ])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, target, write):
        path = tmp_path / target
        path.parent.mkdir(exist_ok=True)
        path.write_text("previous\n", encoding="utf-8")
        monkeypatch.setattr(fileio, "open", half_writing_open, raising=False)
        with pytest.raises(OSError):
            write(path)
        assert path.read_text(encoding="utf-8") == "previous\n"
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_write_through_symlink_replaces_its_target(self, tmp_path):
        (tmp_path / "target.jsonl").write_text("previous\n", encoding="utf-8")
        (tmp_path / "out.jsonl").symlink_to("target.jsonl")
        write_jsonl(tmp_path / "out.jsonl", [{"a": 1}])
        assert (tmp_path / "out.jsonl").is_symlink()
        assert (tmp_path / "target.jsonl").read_text(encoding="utf-8") == '{"a":1}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl", "target.jsonl"]

    def test_json_write_replaces_previous_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("previous, and longer than the new document\n", encoding="utf-8")
        write_json(path, {"a": [1, "é"]})
        assert path.read_text(encoding="utf-8") == '{\n  "a": [\n    1,\n    "é"\n  ]\n}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
