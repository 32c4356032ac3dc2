"""Serialization round-trips and input validation for the file formats."""

from __future__ import annotations

import json
import os
import random
import stat
import tempfile
import threading
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmask import fileio
from detmask.fileio import write_json
from detmask.align import Aligner, Paragraph
from detmask.errors import DataError, MalformedLine
from detmask.formats import (
    read_corpus,
    read_facts,
    read_jsonl,
    read_masked,
    read_samples,
    read_ssm,
    read_templates,
    read_vocab,
    write_jsonl,
    write_masked,
    write_samples,
    write_ssm,
    write_train_log,
    write_vocab,
)
from detmask.kb import Triplet, build_kb, write_kb_dir
from detmask.masking import MASK_ID, MaskScheme, MaskedSample, Variant, Vocabulary
from detmask.model import LogEntry, ModelConfig, init, load_checkpoint, save_checkpoint
from detmask.tokenizer import token_spans
from oracles import (check_token_ids_oracle, group_items_oracle, read_masked_oracle,
                     write_masked_oracle)


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
    return Aligner(kb).align(Paragraph("film", text))


def masked_sample(variant=Variant.PLAIN, doc_id="d") -> MaskedSample:
    return MaskedSample(doc_id, array("q", (3, 1, 4)), (1,), (5,), variant,
                        MaskScheme.DETERMINISTIC)


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

    @pytest.mark.parametrize("reader", [read_samples, read_ssm], ids=lambda f: f.__name__)
    def test_span_outside_text_rejected(self, tmp_path, reader):
        path = tmp_path / "samples.jsonl"
        write_jsonl(
            path,
            [{"doc_id": "d", "text": "abc", "entities": [[0, 9, "Q"]], "triplets": []}],
        )
        with pytest.raises(MalformedLine):
            reader(path)

    @pytest.mark.parametrize("reader", [read_samples, read_ssm], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("line, reason", [
        ({"text": "abc", "entities": [], "triplets": []}, "missing key 'doc_id'"),
        ({"doc_id": "d", "text": ["abc"], "entities": [], "triplets": []},
         "key 'text' must be str"),
    ], ids=["missing_doc_id", "non_string_text"])
    def test_malformed_head_rejected(self, tmp_path, reader, line, reason):
        path = tmp_path / "samples.jsonl"
        write_jsonl(path, [line])
        with pytest.raises(MalformedLine, match=f":1: {reason}$"):
            reader(path)

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
        items = [tuple(originals[:1]), tuple(originals[1:])]
        assert read_masked(path, 6, "vocab.json", 2) == (items, 2, 3)

    def test_input_ids_stored_as_int64_arrays(self, tmp_path):
        """About 20k ids past the small-int cache: read back equal, at most 16
        traced bytes per id (a tuple of such ints takes about 38)."""
        rng = random.Random(7)
        originals = []
        for i in range(134):
            ids = [rng.randrange(257, 5000) for _ in range(150)]
            positions = tuple(sorted(rng.sample(range(150), 2)))
            originals.append(MaskedSample(f"doc{i // 2}", array("q", ids), positions,
                                          tuple(ids[p] for p in positions),
                                          (Variant.KEEP_CLUES, Variant.MASK_CLUES)[i % 2],
                                          MaskScheme.DETERMINISTIC))
        path = tmp_path / "masked.jsonl"
        write_masked(path, originals)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            items, _count, _longest = read_masked(path, 5000, "vocab.json", 67)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        loaded = [m for item in items for m in item]
        n_ids = sum(len(m.input_tokens) for m in loaded)
        assert n_ids == 20100
        assert held / n_ids <= 16, f"{held / n_ids:.1f} traced bytes per id"
        assert loaded == originals
        assert all(m.input_tokens.typecode == "q" for m in loaded)

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
            read_masked(path, 10, "vocab.json", 1)

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
            read_masked(path, 10, "vocab.json", 1)


# Doc ids that JSON must escape or may pass through: quotes, backslashes,
# control characters, non-ASCII and the line separator U+2028.
DOC_IDS = st.one_of(st.sampled_from(['d', 'say "hi"', "back\\slash", "tab\tnul\x00\x1f\x7f",
                                     "caf\u00e9 \u4e2d", "line\u2028sep", ""]),
                    st.text(max_size=6))
STREAMS = {"pair": (Variant.KEEP_CLUES, Variant.MASK_CLUES),
           "triple": (Variant.KEEP_CLUES, Variant.MASK_CLUES, Variant.MASK_RANDOM),
           "plain": (Variant.PLAIN,)}


@st.composite
def masked_samples(draw):
    """A pair, triple or plain stream over a few paragraphs, whose lines of
    one paragraph need not be consecutive.  Ids reach past 256; inputs are
    tuples, as masking makes them, or int64 arrays, as the reader does.  A
    line's masked inputs and targets are mostly the mask id and its
    paragraph's ids, but may be any ids."""
    paragraphs = draw(st.lists(st.tuples(DOC_IDS, st.lists(st.integers(0, 70_000), min_size=1,
                                                            max_size=10)),
                               min_size=1, max_size=4))
    variants = STREAMS[draw(st.sampled_from(sorted(STREAMS)))]
    lines = []
    for k in draw(st.lists(st.integers(0, len(paragraphs) - 1), min_size=1, max_size=8)):
        doc_id, ids = paragraphs[k]
        for variant in variants:
            positions = tuple(sorted(draw(st.sets(st.integers(0, len(ids) - 1)))))
            fill = draw(st.one_of(st.just(MASK_ID), st.integers(0, 70_000)))
            inputs = [fill if p in positions else i for p, i in enumerate(ids)]
            targets = (tuple(ids[p] for p in positions) if draw(st.booleans())
                       else tuple(draw(st.lists(st.integers(0, 70_000), min_size=len(positions),
                                                max_size=len(positions)))))
            as_array = draw(st.booleans())
            lines.append(MaskedSample(doc_id, array("q", inputs) if as_array else tuple(inputs),
                                      positions, targets, variant,
                                      draw(st.sampled_from(list(MaskScheme)))))
    return lines


class TestWriteMasked:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(lines=masked_samples())
    def test_matches_the_json_dumps_writer(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            ours, oracle = Path(tmp) / "ours.jsonl", Path(tmp) / "oracle.jsonl"
            assert write_masked(ours, lines) == write_masked_oracle(oracle, lines) == len(lines)
            assert ours.read_bytes() == oracle.read_bytes()

    def test_memory_does_not_grow_with_the_paragraphs(self, tmp_path):
        """Streamed 40 or 800 paragraphs of 100 ids past the small-int cache,
        the writer's traced peak is alike: it holds one paragraph."""
        def lines(n):
            for i in range(n):
                ids = list(range(1000 + i, 1100 + i))
                for variant, positions in ((Variant.KEEP_CLUES, (1,)),
                                           (Variant.MASK_CLUES, (1, 2))):
                    inputs = tuple(MASK_ID if p in positions else t for p, t in enumerate(ids))
                    yield MaskedSample(f"doc{i}", inputs, positions,
                                       tuple(ids[p] for p in positions), variant,
                                       MaskScheme.DETERMINISTIC)

        path = tmp_path / "masked.jsonl"
        peaks = []
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            # A first run of 4,000 lines fills the interpreter's free lists of
            # small tuples (up to 2,000 each), which would read as growth.
            write_masked(path, lines(2000))
            for n in (40, 800):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                assert write_masked(path, lines(n)) == 2 * n
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            if not was_tracing:
                tracemalloc.stop()
        # The strings of all 800 paragraphs' ids would take about 4 MB; one
        # paragraph's about 6 kB.
        assert peaks[1] < peaks[0] + 20_000, peaks


class TestGroupItems:
    @staticmethod
    def read_items(tmp_path, lines):
        path = tmp_path / "masked.jsonl"
        write_masked(path, lines)
        return read_masked(path, 6, "vocab.json", len(lines))[0]

    def test_grouping_shapes(self, tmp_path):
        keep = masked_sample(Variant.KEEP_CLUES)
        drop = masked_sample(Variant.MASK_CLUES)
        rand = masked_sample(Variant.MASK_RANDOM)
        plain = masked_sample(Variant.PLAIN)
        items = self.read_items(tmp_path, [plain, keep, drop, rand, keep, drop, plain])
        assert items[0] == (plain,)
        assert items[1] == (keep, drop, rand)
        assert items[2] == (keep, drop)
        assert items[3] == (plain,)
        assert len(items) == 4

    def test_doc_boundary_breaks_group(self, tmp_path):
        keep = masked_sample(Variant.KEEP_CLUES, doc_id="a")
        drop = masked_sample(Variant.MASK_CLUES, doc_id="b")
        items = self.read_items(tmp_path, [keep, drop])
        assert items == [(keep,), (drop,)]

    def test_orphan_keep_stays_single(self, tmp_path):
        keep = masked_sample(Variant.KEEP_CLUES)
        assert self.read_items(tmp_path, [keep]) == [(keep,)]


@st.composite
def masked_line(draw, doc_id: str, variant: Variant, length: int) -> dict:
    """A masked line with ids below 10 and sorted distinct mask positions."""
    ids = draw(st.lists(st.integers(0, 9), min_size=length, max_size=length))
    positions = sorted(draw(st.sets(st.integers(0, max(length - 1, 0)), max_size=length)))
    targets = draw(st.lists(st.integers(0, 9), min_size=len(positions),
                            max_size=len(positions)))
    return {"doc_id": doc_id, "variant": variant.value, "input_ids": ids,
            "mask_positions": positions, "targets": targets,
            "scheme": draw(st.sampled_from(MaskScheme)).value}


# The line variants of each unit of a masked stream: a plain line, a pair, a
# triple, a group whose last input is one id longer, or any one line.
STREAM_UNITS = {
    "plain": (Variant.PLAIN,),
    "pair": (Variant.KEEP_CLUES, Variant.MASK_CLUES),
    "triple": (Variant.KEEP_CLUES, Variant.MASK_CLUES, Variant.MASK_RANDOM),
    "ragged": (Variant.KEEP_CLUES, Variant.MASK_CLUES),
    **{f"one {v.value}": (v,) for v in Variant},
}


@st.composite
def masked_stream(draw) -> list[dict]:
    """Lines of pairs, triples and plain lines over two docs, so that units
    of one doc may run together and orphans occur."""
    lines = []
    for unit in draw(st.lists(st.sampled_from(sorted(STREAM_UNITS)), max_size=10)):
        doc_id = draw(st.sampled_from(["a", "b"]))
        length = draw(st.integers(0, 5))
        variants = STREAM_UNITS[unit]
        for i, variant in enumerate(variants):
            grow = unit == "ragged" and i == len(variants) - 1
            lines.append(draw(masked_line(doc_id, variant, length + grow)))
    return lines


def three_pass_oracle(path, vocab_size: int, keep: int):
    """``read_masked``'s result by the three-pass oracles."""
    masked = read_masked_oracle(path)
    items = group_items_oracle(masked)
    longest = check_token_ids_oracle(masked, vocab_size, path, "vocab.json")
    return items[:keep], len(items), longest


class TestReadMaskedOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(lines=masked_stream(), vocab_size=st.integers(9, 11), keep=st.integers(0, 12))
    def test_matches_three_pass_oracle(self, lines, vocab_size, keep):
        """The kept items, the item count and the longest input equal the
        three-pass oracle's; a stream with faults (an id of 9 past a 9-token
        vocabulary, a ragged group) raises the error that the oracle raises
        on the shortest failing prefix of the stream, so faults are reported
        in line order."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "masked.jsonl"
            write_jsonl(path, lines)
            try:
                expected = three_pass_oracle(path, vocab_size, keep)
            except DataError:
                for n in range(1, len(lines) + 1):
                    write_jsonl(path, lines[:n])
                    try:
                        three_pass_oracle(path, vocab_size, keep)
                    except DataError as exc:
                        first = str(exc)
                        break
                write_jsonl(path, lines)
                with pytest.raises(DataError) as info:
                    read_masked(path, vocab_size, "vocab.json", keep)
                assert str(info.value) == first
                return
            assert read_masked(path, vocab_size, "vocab.json", keep) == expected

    def test_kept_items_hold_memory_independent_of_the_file(self, tmp_path):
        """With ``keep=1`` the reader's traced peak does not grow with the
        number of lines: 100 and 1,600 lines of 300 ids peak alike."""
        peaks = []
        for n in (100, 1600):
            path = tmp_path / f"masked{n}.jsonl"
            line = {"doc_id": "d", "variant": "plain", "input_ids": list(range(300, 600)),
                    "mask_positions": [1], "targets": [301], "scheme": "deterministic"}
            write_jsonl(path, [line] * n)
            was_tracing = tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                items, count, longest = read_masked(path, 600, "vocab.json", 1)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                if not was_tracing:
                    tracemalloc.stop()
            assert (len(items), count, longest) == (1, n, 300)
        # All 1,600 lines as arrays would take about 4 MB; one line's ids
        # as Python ints take about 10 kB.
        assert peaks[1] < peaks[0] + 20_000, peaks


class TestSmallFormats:
    def test_vocab_round_trip(self, tmp_path):
        vocab = Vocabulary.build(map(token_spans, ["war horse", "jaws"]))
        path = tmp_path / "vocab.json"
        write_vocab(path, vocab)
        assert read_vocab(path).id_to_token == vocab.id_to_token

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

    def test_repeated_fact_triplet_rejected(self, tmp_path):
        """Two facts with one triplet would share their questions' ids."""
        path = tmp_path / "facts.jsonl"
        fact = {"s": "S", "p": "P", "o": "O", "o_surface": "x"}
        write_jsonl(path, [{**fact, "s_surface": "alpha"}, {**fact, "s_surface": "beta gamma"}])
        with pytest.raises(MalformedLine, match="facts.jsonl:2: fact triplet repeats line 1$"):
            read_facts(path)

    def test_train_log_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_train_log(path, [LogEntry(0, 1.0, 0.5, 0.25, 1.75)])
        line = json.loads(path.read_text(encoding="utf-8"))
        assert line == {"step": 0, "L_mlm": 1.0, "L_con": 0.5, "L_cls": 0.25, "L_total": 1.75}


class TestAtomicWrites:
    def test_failed_checkpoint_write_keeps_previous_file(self, tmp_path, monkeypatch):
        cfg = ModelConfig(vocab_size=9, d=4, max_len=6, seed=1)
        vocab = Vocabulary.from_tokens("abcdef")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init(cfg), cfg, vocab)
        before = path.read_bytes()
        monkeypatch.setattr(fileio, "open", half_writing_open, raising=False)
        with pytest.raises(OSError):
            save_checkpoint(path, init(ModelConfig(vocab_size=9, d=4, max_len=6, seed=2)), cfg,
                            vocab)
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
        ("vocab.json", lambda p: write_vocab(p, Vocabulary.build(map(token_spans, ["war horse"])))),
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

    def test_write_to_fifo_keeps_the_fifo(self, tmp_path):
        fifo = tmp_path / "out.jsonl"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        write_jsonl(fifo, [{"a": 1}])
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [b'{"a":1}\n']
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_json_write_replaces_previous_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("previous, and longer than the new document\n", encoding="utf-8")
        write_json(path, {"a": [1, "é"]})
        assert path.read_text(encoding="utf-8") == '{\n  "a": [\n    1,\n    "é"\n  ]\n}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
