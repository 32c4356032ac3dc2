"""Alignment engine vs. worked examples and the brute-force oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detmask.align import (
    AlignCounters,
    Aligner,
    Paragraph,
    PredicateMatcher,
    Span,
    build_dataset,
)
from detmask.cli import main
from detmask.errors import DataError
from detmask.formats import read_samples, write_samples
from detmask.kb import Triplet, build_kb
from detmask.tokenizer import lower_aligned, token_spans
from oracles import align_paragraph_oracle, match_predicate_oracle, sample_to_tuples
from worldgen import make_world


TALLIES = ("tokens", "object_groups", "clue_tokens", "object_tokens")


def film_kb():
    """One deterministic direction, one non-deterministic reverse direction."""
    return build_kb(
        [
            Triplet("WarHorse", "directedBy", "Spielberg"),
            Triplet("Spielberg", "directorOf", "WarHorse"),
            Triplet("Spielberg", "directorOf", "Jaws"),
        ],
        {
            "WarHorse": ("War Horse",),
            "Spielberg": ("Steven Spielberg", "Spielberg"),
            "Jaws": ("Jaws",),
        },
        {"directedBy": ("directed by",), "directorOf": ("director of",)},
    )


FILM_TEXT = "War Horse is an American war film directed by Steven Spielberg"


def best_match(text, p, kb):
    """``PredicateMatcher.best`` for ``p`` in ``text``: (distance, start, end) or None."""
    tokens = token_spans(text)
    return PredicateMatcher(kb).best(lower_aligned(text), set(tokens.starts), set(tokens.ends), p)


def match_predicate(text, p, kb):
    """The span ``PredicateMatcher.best`` picks for ``p`` in ``text``, or None."""
    found = best_match(text, p, kb)
    if found is None:
        return None
    _dist, a, b = found
    return Span(a, b)


class TestLinkEntities:
    def test_single_exact_match(self):
        kb = build_kb([], {"Q1": ("War Horse",)}, {})
        spans = Aligner(kb).align(Paragraph("d", "War Horse is a film")).entity_spans
        assert [(s.char_start, s.char_end, e) for s, e in spans] == [(0, 9, "Q1")]

    def test_longest_match_wins(self):
        kb = build_kb([], {"Q3": ("New York",), "Q4": ("New York University",)}, {})
        spans = Aligner(kb).align(Paragraph("d", "New York University is old")).entity_spans
        assert [(s.char_start, s.char_end, e) for s, e in spans] == [(0, 19, "Q4")]

    def test_pre_linked_passthrough(self):
        kb = build_kb([], {"Q1": ("War Horse",)}, {})
        p = Paragraph("d", "War Horse is a film", pre_linked_spans=((0, 9, "Q9"),))
        spans = Aligner(kb).align(p).entity_spans
        assert [(s.char_start, s.char_end, e) for s, e in spans] == [(0, 9, "Q9")]

    def test_case_insensitive_word_boundaries(self):
        kb = build_kb([], {"Q1": ("war horse",)}, {})
        p = Paragraph("d", "WAR HORSE rides; warhorse does not")
        spans = Aligner(kb).align(p).entity_spans
        assert [(s.char_start, s.char_end, e) for s, e in spans] == [(0, 9, "Q1")]

    def test_shared_alias_resolves_to_smallest_id(self):
        kb = build_kb([], {"Q2": ("ambiguous",), "Q1": ("ambiguous",)}, {})
        spans = Aligner(kb).align(Paragraph("d", "ambiguous thing")).entity_spans
        assert [e for _s, e in spans] == ["Q1"]

    def test_non_overlapping_left_to_right(self):
        kb = build_kb([], {"A": ("a b",), "B": ("b c",)}, {})
        text = "a b c"
        spans = Aligner(kb).align(Paragraph("d", text)).entity_spans
        # "a b" consumes token b, so "b c" cannot match.
        assert [(text[s.char_start:s.char_end], e) for s, e in spans] == [("a b", "A")]

    def test_invalid_pre_linked_span_raises(self):
        kb = build_kb([], {"Q1": ("x",)}, {})
        with pytest.raises(DataError):
            Aligner(kb).align(Paragraph("d", "tiny", pre_linked_spans=((0, 99, "Q1"),)))
        with pytest.raises(DataError):
            Aligner(kb).align(
                Paragraph("d", "tiny text", pre_linked_spans=((0, 4, "Q1"), (2, 6, "Q1")))
            )


class TestMatchPredicate:
    def test_exact_match(self):
        kb = film_kb()
        text = "the film is directed by him"
        span = match_predicate(text, "directedBy", kb)
        assert (span.char_start, span.char_end) == (12, 23)
        assert text[span.char_start:span.char_end] == "directed by"

    def test_distance_one_match(self):
        kb = film_kb()
        text = "the film is directd by him"
        span = match_predicate(text, "directedBy", kb)
        assert text[span.char_start:span.char_end] == "directd by"

    def test_no_match_at_distance_two(self):
        kb = film_kb()
        assert match_predicate("the film is starring him", "directedBy", kb) is None

    def test_distance_zero_beats_earlier_distance_one(self):
        kb = film_kb()
        text = "derected by noise then directed by end"
        span = match_predicate(text, "directedBy", kb)
        assert text[span.char_start:span.char_end] == "directed by"
        assert span.char_start == text.index("directed by")

    def test_earliest_start_among_equal_distance(self):
        kb = film_kb()
        text = "directd by then dirested by"
        span = match_predicate(text, "directedBy", kb)
        assert span.char_start == 0


# Letters, a non-ASCII letter, a capital whose lowercase form is two
# characters long (so lower_aligned keeps it), a space and punctuation.
CHARS = "abcAé İ-."
ALIASES = st.one_of(
    st.sampled_from(CHARS.replace(" ", "")),
    st.text(CHARS, min_size=1, max_size=7).map(str.strip).filter(bool),
    st.lists(st.text("abcé", min_size=1, max_size=3), min_size=2, max_size=3).flatmap(
        lambda words: st.sampled_from(" -.").map(lambda sep: sep.join(words))),
)


@st.composite
def planted_alias(draw):
    """A text holding one alias with at most one edit at, before or after its halfway point."""
    alias = draw(ALIASES)
    i = min(max(len(alias) // 2 + draw(st.sampled_from((-1, 0, 1))), 0), len(alias))
    c = draw(st.sampled_from(CHARS))
    surface = draw(st.sampled_from((
        alias,
        alias[:i] + c + alias[i + 1:],
        alias[:i] + alias[i + 1:],
        alias[:i] + c + alias[i:],
    )))
    left, right = draw(st.text(CHARS, max_size=8)), draw(st.text(CHARS, max_size=8))
    return left + surface + right, alias


@st.composite
def matcher_cases(draw):
    """(text, aliases of one predicate): a planted alias or a free random text."""
    text, alias = draw(st.one_of(
        planted_alias(), st.tuples(st.text(CHARS, max_size=20), ALIASES)))
    extra = draw(st.lists(ALIASES, max_size=1))
    return text, tuple(dict.fromkeys([alias, *extra]))


class TestMatchPredicateProperty:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(case=matcher_cases())
    @example(case=("ac-bc-a.", ("éc",)))
    def test_best_equals_oracle(self, case):
        text, aliases = case
        kb = build_kb([], {}, {"P": aliases})
        assert best_match(text, "P", kb) == match_predicate_oracle(text, "P", kb)


class TestAlignParagraph:
    def test_film_example_filters_reverse_direction(self):
        sample = Aligner(film_kb()).align(Paragraph("d", FILM_TEXT))
        assert len(sample.aligned) == 1
        t = sample.aligned[0]
        assert t.triplet == Triplet("WarHorse", "directedBy", "Spielberg")
        assert FILM_TEXT[t.object_span.char_start:t.object_span.char_end] == "Steven Spielberg"
        assert t.edit_distance == 0

    def test_single_entity_no_pairs(self):
        sample = Aligner(film_kb()).align(Paragraph("d", "War Horse stands alone"))
        assert sample.aligned == ()
        assert len(sample.entity_spans) == 1

    def test_unmatched_predicate_gate(self):
        text = "War Horse notes nothing about Steven Spielberg"
        sample = Aligner(film_kb()).align(Paragraph("d", text))
        assert sample.aligned == ()


class TestBuildDataset:
    def test_stream_membership(self):
        kb = film_kb()
        corpus = [
            Paragraph("p1", FILM_TEXT),
            Paragraph("p2", "nothing to see"),
            Paragraph("p3", "Jaws alone here"),
        ]
        result = build_dataset(corpus, kb)
        assert [s.paragraph.doc_id for s in result.deterministic_samples] == ["p1"]
        assert [s.paragraph.doc_id for s in result.span_samples] == ["p1", "p3"]

    def test_empty_corpus(self):
        result = build_dataset([], film_kb())
        assert result.deterministic_samples == [] and result.span_samples == []

    def test_nondeterministic_only_paragraph_goes_to_ssm(self):
        text = "Steven Spielberg was director of Jaws"
        result = build_dataset([Paragraph("p", text)], film_kb())
        assert result.deterministic_samples == []
        assert len(result.span_samples) == 1
        assert result.counters.non_deterministic == 1

    def test_bad_paragraph_skipped_and_counted(self):
        good = Paragraph("ok", FILM_TEXT)
        bad = Paragraph("bad", "x", pre_linked_spans=((0, 99, "E"),))
        result = build_dataset([bad, good], film_kb())
        assert result.counters.skipped == 1
        assert [s.paragraph.doc_id for s in result.deterministic_samples] == ["ok"]
        # The skipped paragraph adds to no tally but these two.
        expected = build_dataset([good], film_kb()).counters
        expected.paragraphs += 1
        expected.skipped += 1
        assert result.counters == expected
        assert result.skips == [("bad", "pre-linked span [0,99) outside text of length 1")]

    def test_parallel_equals_serial(self):
        rng = np.random.default_rng(5)
        kb, corpus = make_world(rng, n_paragraphs=20)
        serial = build_dataset(corpus, kb, threads=1)
        parallel = build_dataset(corpus, kb, threads=3)
        assert serial.deterministic_samples == parallel.deterministic_samples
        assert serial.span_samples == parallel.span_samples
        assert serial.counters == parallel.counters

    def test_parallel_skip_in_later_chunk_equals_serial(self):
        rng = np.random.default_rng(7)
        kb, corpus = make_world(rng, n_paragraphs=60)
        # One invalid paragraph late in the corpus, at index 50 of 61.
        bad = Paragraph("bad", "x", pre_linked_spans=((0, 99, "E"),))
        corpus = corpus[:50] + [bad] + corpus[50:]
        serial = build_dataset(corpus, kb, threads=1)
        parallel = build_dataset(corpus, kb, threads=3)
        assert serial.counters.skipped == 1
        assert serial.deterministic_samples == parallel.deterministic_samples
        assert serial.span_samples == parallel.span_samples
        assert serial.counters == parallel.counters

    def test_more_threads_than_paragraphs(self):
        corpus = [Paragraph("p1", FILM_TEXT), Paragraph("p2", "Jaws alone here")]
        serial = build_dataset(corpus, film_kb(), threads=1)
        parallel = build_dataset(corpus, film_kb(), threads=4)
        assert [s.paragraph.doc_id for s in parallel.span_samples] == ["p1", "p2"]
        assert serial.deterministic_samples == parallel.deterministic_samples
        assert serial.span_samples == parallel.span_samples
        assert serial.counters == parallel.counters

    def test_two_runs_identical(self):
        rng = np.random.default_rng(6)
        kb, corpus = make_world(rng, n_paragraphs=12)
        a = build_dataset(corpus, kb)
        b = build_dataset(corpus, kb)
        assert a.deterministic_samples == b.deterministic_samples
        assert a.counters == b.counters


class TestOracleEquivalence:
    """The engine must reproduce the exhaustive reference exactly."""

    def test_random_worlds(self, tmp_path):
        """Also: the stats tallies of the run equal a fresh tally of the
        samples file it writes, which is what ``stats`` counts without a
        manifest."""
        rng = np.random.default_rng(2024)
        for _ in range(40):
            kb, corpus = make_world(
                rng,
                n_entities=int(rng.integers(3, 10)),
                n_predicates=int(rng.integers(2, 6)),
                n_triplets=int(rng.integers(4, 20)),
                n_paragraphs=int(rng.integers(1, 8)),
            )
            result = build_dataset(corpus, kb)
            aligner = Aligner(kb)
            by_doc = {s.paragraph.doc_id: s for s in result.span_samples}
            total_candidates = 0
            total_nondet = 0
            for paragraph in corpus:
                entities, aligned, counters = align_paragraph_oracle(paragraph, kb)
                total_candidates += counters["candidates"]
                total_nondet += counters["non_deterministic"]
                if paragraph.doc_id in by_doc:
                    got_entities, got_aligned = sample_to_tuples(by_doc[paragraph.doc_id])
                else:
                    sample = aligner.align(paragraph)
                    got_entities, got_aligned = sample_to_tuples(sample)
                assert got_entities == entities, paragraph.text
                assert got_aligned == aligned, paragraph.text
            assert result.counters.candidates == total_candidates
            assert result.counters.non_deterministic == total_nondet
            write_samples(tmp_path / "samples.jsonl", result.deterministic_samples)
            fresh = AlignCounters()
            for sample in read_samples(tmp_path / "samples.jsonl"):
                fresh.add_sample(sample, token_spans(sample.paragraph.text))
            assert [getattr(result.counters, k) for k in TALLIES] == [
                getattr(fresh, k) for k in TALLIES]


class TestComputeStats:
    """The tallies that ``stats`` prints, as ``build_dataset`` counts them."""

    def test_fraction_from_counters(self):
        kb = film_kb()
        c = build_dataset([Paragraph("p", FILM_TEXT)], kb).counters
        # Candidates: forward (deterministic) and reverse (two objects).
        assert c.non_deterministic / c.candidates == 0.5

    def test_object_token_average_single(self):
        c = build_dataset([Paragraph("p", FILM_TEXT)], film_kb()).counters
        assert c.object_tokens / c.object_groups == 2.0  # "Steven Spielberg"

    def test_object_token_average_two_samples(self):
        kb = build_kb(
            [Triplet("A", "p", "B"), Triplet("C", "p", "D")],
            {
                "A": ("alpha",),
                "B": ("beta gamma",),
                "C": ("colt",),
                "D": ("delta epsilon zeta omega",),
            },
            {"p": ("guards",)},
        )
        corpus = [
            Paragraph("1", "alpha guards beta gamma"),
            Paragraph("2", "colt guards delta epsilon zeta omega"),
        ]
        c = build_dataset(corpus, kb).counters
        assert c.object_tokens / c.object_groups == 3.0  # (2 + 4) / 2

    def test_clue_tokens_union_over_shared_object(self):
        kb = build_kb(
            [Triplet("A", "p", "B"), Triplet("C", "q", "B")],
            {"A": ("alpha",), "B": ("beta",), "C": ("colt",)},
            {"p": ("guards",), "q": ("rules",)},
        )
        text = "alpha guards beta and colt rules beta"
        result = build_dataset([Paragraph("1", text)], kb)
        c = result.counters
        # Both triplets pair with the first "beta" span, so they form one
        # group whose clue union covers alpha, guards, colt, and rules.
        assert c.clue_tokens / c.object_groups == 4.0
        assert len(result.deterministic_samples) == 1

    def test_clue_tokens_not_double_counted(self):
        kb = build_kb(
            [Triplet("A", "p", "B"), Triplet("A", "q", "B")],
            {"A": ("alpha",), "B": ("beta",)},
            {"p": ("guards",), "q": ("rules",)},
        )
        text = "alpha guards rules beta"
        c = build_dataset([Paragraph("1", text)], kb).counters
        # Shared subject token counted once in the union: alpha, guards,
        # rules give three clue tokens, not four.
        assert c.clue_tokens / c.object_groups == 3.0

    def test_empty_dataset_error(self, tmp_path, capsys):
        (tmp_path / "samples.jsonl").write_text("", encoding="utf-8")
        assert main(["stats", "--samples", str(tmp_path / "samples.jsonl")]) == 2
        assert capsys.readouterr().err == "detmask: error: no deterministic samples\n"
