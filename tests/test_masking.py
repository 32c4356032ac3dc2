"""Object and clue positions, masking schemes, contrastive pairs, classifier triples."""

from __future__ import annotations

from random import Random

import numpy as np
import pytest

from detmask import cli
from detmask.align import (
    AlignedSample,
    AlignedTriplet,
    Aligner,
    Paragraph,
    Span,
    build_dataset,
)
from detmask.errors import InsufficientContext, NoClues, NoMaskableContent
from detmask.kb import Triplet, build_kb
from detmask.masking import (
    MASK_ID,
    PAD_ID,
    UNK_ID,
    MaskedSample,
    MaskScheme,
    TokenizedSample,
    Variant,
    Vocabulary,
    apply_mask,
    make_classification_triple,
    make_contrastive_pair,
    tokenize_for_spans,
    tokenize_groups,
)
from detmask.tokenizer import token_spans
from oracles import context_positions_oracle, tokenize_groups_oracle
from worldgen import make_world, random_tokenized_sample

FILM_TEXT = "War Horse is an American war film directed by Steven Spielberg"


def film_kb():
    return build_kb(
        [Triplet("WarHorse", "directedBy", "Spielberg")],
        {"WarHorse": ("War Horse",), "Spielberg": ("Steven Spielberg", "Spielberg")},
        {"directedBy": ("directed by",)},
    )


def film_sample():
    return Aligner(film_kb()).align(Paragraph("film", FILM_TEXT))


def plain(text, vocab):
    """``text`` tokenized with no object, no clues and no entity spans."""
    return tokenize_for_spans(AlignedSample(Paragraph("d", text), (), ()), token_spans(text), vocab)


def groups_of(sample, vocab):
    """``tokenize_groups`` of ``sample`` with its paragraph's tokens."""
    return tokenize_groups(sample, token_spans(sample.paragraph.text), vocab)


def unmask(masked) -> tuple[int, ...]:
    restored = list(masked.input_tokens)
    for p, t in zip(masked.mask_positions, masked.targets):
        assert restored[p] == MASK_ID
        restored[p] = t
    return tuple(restored)


class TestVocabulary:
    def test_reserved_ids(self):
        v = Vocabulary.from_tokens(["b", "a"])
        assert v.id_to_token[:3] == ("<pad>", "<mask>", "<unk>")
        assert (PAD_ID, MASK_ID, UNK_ID) == (0, 1, 2)
        assert v.id_to_token[3:] == ("a", "b")

    def test_encode_decode(self):
        v = Vocabulary.from_tokens(["film"])
        assert v.decode(v.encode("film")) == "film"
        assert v.encode("absent") == UNK_ID

    def test_build_from_texts_lowercases(self):
        v = Vocabulary.build(map(token_spans, ["War Horse", "war film."]))
        assert v.encode("war") != UNK_ID
        assert v.encode("War") == UNK_ID
        assert v.encode(".") != UNK_ID
        assert v.size == 3 + 4  # war, horse, film, "."

    def test_reserved_not_duplicated(self):
        v = Vocabulary.from_tokens(["<mask>", "x"])
        assert v.id_to_token.count("<mask>") == 1


class TestRecords:
    def test_masked_sample_is_a_named_tuple(self):
        """A training item is a tuple of one to three samples, each a named
        tuple of its six fields; samples with equal fields are equal."""
        tok = groups_of(film_sample(), Vocabulary.build(map(token_spans, [FILM_TEXT])))[0]
        keep, drop = make_contrastive_pair(tok)
        assert keep._fields == ("doc_id", "input_tokens", "mask_positions", "targets",
                                "variant", "scheme")
        assert keep == MaskedSample(keep.doc_id, tuple(keep.input_tokens), keep.mask_positions,
                                    keep.targets, keep.variant, keep.scheme)
        assert keep != drop


class TestTokenize:
    def test_film_roles(self):
        sample = film_sample()
        vocab = Vocabulary.build(map(token_spans, [FILM_TEXT]))
        tok = groups_of(sample, vocab)[0]
        assert len(tok.tokens) == 11
        # Subject "war horse" and predicate "directed by" are the clues.
        assert tok.clue_positions == (0, 1, 7, 8)
        assert tok.object_positions == (9, 10)
        # The second "war" is plain context even though the word matches.
        assert 5 in context_positions_oracle(tok)
        assert tok.object_word_count == 2

    def test_tokens_encode_lowercased_surface(self):
        vocab = Vocabulary.build(map(token_spans, [FILM_TEXT]))
        tok = plain(FILM_TEXT, vocab)
        assert tok.tokens[0] == vocab.encode("war")
        assert tok.object_positions == tok.clue_positions == ()

    def test_punctuation_is_its_own_token(self):
        vocab = Vocabulary.build(map(token_spans, ["War Horse."]))
        tok = plain("War Horse.", vocab)
        assert [vocab.decode(t) for t in tok.tokens] == ["war", "horse", "."]
        tokens = token_spans("War Horse.")
        assert list(zip(tokens.starts, tokens.ends)) == [(0, 3), (4, 9), (9, 10)]
        assert tok.word_boundaries == (True, True, False)

    def test_straddled_span_leaves_role_other(self):
        sample = film_sample()
        aligned = sample.aligned[0]
        # Shrink the object span so it ends inside "Steve n"-less token.
        clipped = AlignedTriplet(
            triplet=aligned.triplet,
            subject_span=aligned.subject_span,
            predicate_span=aligned.predicate_span,
            object_span=Span(46, 51),
            edit_distance=0,
        )
        vocab = Vocabulary.build(map(token_spans, [FILM_TEXT]))
        tok = groups_of(AlignedSample(sample.paragraph, (), (clipped,)), vocab)[0]
        assert tok.object_positions == ()


class TestTokenizeGroups:
    def kb_two_objects(self):
        kb = build_kb(
            [Triplet("A", "p", "B"), Triplet("B", "q", "C")],
            {"A": ("alpha",), "B": ("beta",), "C": ("colt",)},
            {"p": ("guards",), "q": ("rules",)},
        )
        text = "alpha guards beta then beta rules colt"
        return Aligner(kb).align(Paragraph("d", text))

    def test_one_group_per_object_span(self):
        sample = self.kb_two_objects()
        vocab = Vocabulary.build(map(token_spans, [sample.paragraph.text]))
        groups = groups_of(sample, vocab)
        assert len(groups) == 2
        assert [g.object_positions for g in groups] == [(2,), (6,)]

    def test_foreign_clues_exclude_own_roles(self):
        sample = self.kb_two_objects()
        vocab = Vocabulary.build(map(token_spans, [sample.paragraph.text]))
        first, second = groups_of(sample, vocab)
        # Group one: subject alpha(0), predicate guards(1), object beta(2).
        # The other group's clue "beta"(2) overlaps this object, so only
        # "rules"(5) stays foreign.
        assert first.clue_positions == (0, 1)
        assert first.foreign_clue_positions == frozenset({5})
        # Group two: subject beta(2), predicate rules(5), object colt(6).
        assert second.clue_positions == (2, 5)
        assert second.foreign_clue_positions == frozenset({0, 1})

    def test_entity_spans_recorded(self):
        sample = film_sample()
        vocab = Vocabulary.build(map(token_spans, [FILM_TEXT]))
        (group,) = groups_of(sample, vocab)
        assert (0, 2) in group.entity_token_spans
        assert (9, 11) in group.entity_token_spans

    def test_tokenize_for_spans_has_no_roles(self):
        sample = film_sample()
        vocab = Vocabulary.build(map(token_spans, [FILM_TEXT]))
        tok = tokenize_for_spans(sample, token_spans(FILM_TEXT), vocab)
        assert tok.object_positions == tok.clue_positions == ()
        assert tok.entity_token_spans
        assert tok.tokens == plain(FILM_TEXT, vocab).tokens

    def test_matches_oracle_on_worldgen_samples(self):
        """Field for field against the restated rules, on samples with 3+ object groups.

        Each sample is checked as aligned, and again with one more triplet in
        its third group whose predicate span is the second group's object, so
        that a predicate clue of one group overlaps another group's object.
        """
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(20):
            kb, corpus = make_world(rng, n_paragraphs=20)
            # Half the texts only, so some tokens encode as unknown.
            vocab = Vocabulary.build(token_spans(p.text) for p in corpus[::2])
            for sample in build_dataset(corpus, kb).deterministic_samples:
                heads = {}
                for t in sample.aligned:
                    heads.setdefault((t.object_span.char_start, t.object_span.char_end), t)
                if len(heads) < 3:
                    continue
                first, second, third = list(heads.values())[:3]
                extra = AlignedTriplet(third.triplet, first.subject_span, second.object_span,
                                       third.object_span, 0)
                for s in (sample, sample._replace(aligned=sample.aligned + (extra,))):
                    got = [ts._asdict() for ts in groups_of(s, vocab)]
                    assert got == tokenize_groups_oracle(s, vocab.token_to_id, UNK_ID)
                    checked += 1
        assert checked >= 80


class TestStoredPositions:
    def test_stored_positions_equal_role_scans(self):
        """On the larger random worlds of acceptance 1/9, every group's stored
        object and clue positions are those of the oracle's role scan."""
        rng = np.random.default_rng(777)
        checked = 0
        for _ in range(10):
            kb, corpus = make_world(rng, n_entities=int(rng.integers(10, 17)),
                                    n_predicates=int(rng.integers(4, 8)),
                                    n_triplets=int(rng.integers(30, 71)),
                                    n_paragraphs=int(rng.integers(10, 21)))
            vocab = Vocabulary.build(token_spans(p.text) for p in corpus)
            for sample in build_dataset(corpus, kb).deterministic_samples:
                expected = tokenize_groups_oracle(sample, vocab.token_to_id, UNK_ID)
                for tok, scan in zip(groups_of(sample, vocab), expected, strict=True):
                    assert tok.object_positions == scan["object_positions"]
                    assert tok.clue_positions == scan["clue_positions"]
                    checked += 1
        assert checked >= 100


class TestApplyMask:
    def group(self):
        sample = film_sample()
        vocab = Vocabulary.build(map(token_spans, [FILM_TEXT]))
        return groups_of(sample, vocab)[0]

    def test_deterministic_masks_exactly_object(self):
        tok = self.group()
        masked = apply_mask(tok, MaskScheme.DETERMINISTIC, Random(0))
        assert masked.mask_positions == (9, 10)
        assert masked.targets == (tok.tokens[9], tok.tokens[10])
        assert masked.input_tokens[9] == MASK_ID and masked.input_tokens[10] == MASK_ID
        assert unmask(masked) == tok.tokens
        assert masked.variant is Variant.PLAIN

    def test_object_span_equals_deterministic_positions(self):
        tok = self.group()
        a = apply_mask(tok, MaskScheme.DETERMINISTIC, Random(0))
        b = apply_mask(tok, MaskScheme.OBJECT_SPAN, Random(0))
        assert a.mask_positions == b.mask_positions
        assert b.scheme is MaskScheme.OBJECT_SPAN

    def test_random_token_budget(self):
        tok = self.group()
        masked = apply_mask(tok, MaskScheme.RANDOM_TOKEN, Random(1))
        assert len(masked.mask_positions) == len(tok.object_positions) == 2
        assert len(set(masked.mask_positions)) == 2
        assert unmask(masked) == tok.tokens

    def test_whole_word_budget(self):
        tok = self.group()
        masked = apply_mask(tok, MaskScheme.WHOLE_WORD, Random(2))
        # Every token of the film text is its own word, so two positions.
        assert len(masked.mask_positions) == tok.object_word_count == 2

    def test_salient_span_masks_one_entity(self):
        tok = self.group()
        masked = apply_mask(tok, MaskScheme.SALIENT_SPAN, Random(3))
        covered = tuple(range(masked.mask_positions[0], masked.mask_positions[-1] + 1))
        assert masked.mask_positions == covered
        assert (covered[0], covered[-1] + 1) in tok.entity_token_spans

    def test_no_object_raises(self):
        vocab = Vocabulary.build(map(token_spans, [FILM_TEXT]))
        tok = plain(FILM_TEXT, vocab)
        for scheme in (
            MaskScheme.DETERMINISTIC,
            MaskScheme.OBJECT_SPAN,
            MaskScheme.RANDOM_TOKEN,
            MaskScheme.WHOLE_WORD,
        ):
            with pytest.raises(NoMaskableContent):
                apply_mask(tok, scheme, Random(0))

    def test_no_entity_spans_raises_for_salient(self):
        vocab = Vocabulary.build(map(token_spans, [FILM_TEXT]))
        tok = plain(FILM_TEXT, vocab)
        with pytest.raises(NoMaskableContent):
            apply_mask(tok, MaskScheme.SALIENT_SPAN, Random(0))

    def test_same_seed_same_mask(self):
        tok = self.group()
        for scheme in (MaskScheme.RANDOM_TOKEN, MaskScheme.WHOLE_WORD, MaskScheme.SALIENT_SPAN):
            a = apply_mask(tok, scheme, Random("9/4"))
            b = apply_mask(tok, scheme, Random("9/4"))
            assert a == b


class TestDrawFrequencies:
    """Seeded as ``mask`` seeds its groups, ``Random(f"{seed}/{group}")``,
    the draws are uniform: over 4,000 groups each outcome's count lies within
    five binomial standard deviations of its expectation."""

    GROUPS = 4000

    def assert_uniform(self, counts, p: float) -> None:
        expected = self.GROUPS * p
        bound = 5 * (self.GROUPS * p * (1 - p)) ** 0.5
        for outcome, count in enumerate(counts):
            assert abs(count - expected) <= bound, (outcome, count, expected, bound)

    def test_salient_span_picks_each_span_uniformly(self):
        spans = ((0, 2), (3, 4), (5, 8), (9, 12))
        tok = TokenizedSample(doc_id="x", tokens=tuple(range(3, 15)),
                              word_boundaries=(True,) * 12, entity_token_spans=spans)
        counts = [0] * len(spans)
        for group in range(self.GROUPS):
            masked = apply_mask(tok, MaskScheme.SALIENT_SPAN, Random(f"4/{group}"))
            counts[spans.index((masked.mask_positions[0], masked.mask_positions[-1] + 1))] += 1
        self.assert_uniform(counts, 1 / len(spans))

    def test_random_token_picks_each_position_uniformly(self):
        n, k = 10, 3
        tok = TokenizedSample(doc_id="x", tokens=tuple(range(3, 3 + n)),
                              word_boundaries=(True,) * n, object_positions=(2, 3, 4))
        counts = [0] * n
        for group in range(self.GROUPS):
            masked = apply_mask(tok, MaskScheme.RANDOM_TOKEN, Random(f"4/{group}"))
            assert len(set(masked.mask_positions)) == k
            for p in masked.mask_positions:
                counts[p] += 1
        self.assert_uniform(counts, k / n)


class TestContrastivePair:
    def test_keep_and_drop_shapes(self):
        sample = film_sample()
        vocab = Vocabulary.build(map(token_spans, [FILM_TEXT]))
        tok = groups_of(sample, vocab)[0]
        keep, drop = make_contrastive_pair(tok)
        assert keep.mask_positions == tok.object_positions
        assert set(drop.mask_positions) == set(tok.object_positions) | set(tok.clue_positions)
        assert keep.variant is Variant.KEEP_CLUES and drop.variant is Variant.MASK_CLUES
        # Object targets agree between the two inputs.
        drop_map = dict(zip(drop.mask_positions, drop.targets))
        for p, t in zip(keep.mask_positions, keep.targets):
            assert drop_map[p] == t
        assert unmask(keep) == tok.tokens
        assert unmask(drop) == tok.tokens

    def test_no_clues_raises(self):
        tok = TokenizedSample(
            doc_id="x",
            tokens=(5, 6, 7),
            word_boundaries=(True, True, True),
            object_positions=(1,),
        )
        with pytest.raises(NoClues):
            make_contrastive_pair(tok)

    def test_no_object_raises(self):
        tok = TokenizedSample(
            doc_id="x",
            tokens=(5, 6),
            word_boundaries=(True, True),
            clue_positions=(0,),
        )
        with pytest.raises(NoMaskableContent):
            make_contrastive_pair(tok)


class TestClassificationTriple:
    def test_budget_parity_and_separation(self):
        sample = film_sample()
        vocab = Vocabulary.build(map(token_spans, [FILM_TEXT]))
        tok = groups_of(sample, vocab)[0]
        a, b, c = make_classification_triple(tok, Random(7))
        assert len(a.mask_positions) == len(tok.object_positions)
        assert len(b.mask_positions) == len(c.mask_positions)
        extra = set(c.mask_positions) - set(tok.object_positions)
        assert len(extra) == len(tok.clue_positions)
        assert not extra & set(tok.clue_positions)
        assert not extra & tok.foreign_clue_positions
        assert c.variant is Variant.MASK_RANDOM

    def test_insufficient_context(self):
        tok = TokenizedSample(
            doc_id="x",
            tokens=(5, 6, 7, 8),
            word_boundaries=(True, True, True, True),
            object_positions=(2,),
            clue_positions=(0, 1),
        )
        # Two clues but only one Other token.
        with pytest.raises(InsufficientContext):
            make_classification_triple(tok, Random(0))

    def test_foreign_positions_shrink_eligible_pool(self):
        tok = TokenizedSample(
            doc_id="x",
            tokens=(5, 6, 7, 8, 9),
            word_boundaries=(True,) * 5,
            foreign_clue_positions=frozenset({2, 3}),
            object_positions=(1,),
            clue_positions=(0,),
        )
        for seed in range(20):
            _a, _b, c = make_classification_triple(tok, Random(seed))
            assert set(c.mask_positions) == {1, 4}


class TestRandomSampleProperties:
    """Budget parity and reconstruction over generated samples."""

    def test_masking_invariants(self):
        rng = np.random.default_rng(123)
        for trial in range(500):
            sample = random_tokenized_sample(rng)
            mask_rng = Random(f"55/{trial}")

            det = apply_mask(sample, MaskScheme.DETERMINISTIC, mask_rng)
            assert det.mask_positions == sample.object_positions
            assert unmask(det) == sample.tokens

            rand = apply_mask(sample, MaskScheme.RANDOM_TOKEN, mask_rng)
            assert len(rand.mask_positions) == len(sample.object_positions)
            assert len(set(rand.mask_positions)) == len(rand.mask_positions)
            assert unmask(rand) == sample.tokens

            words = []
            for i in range(len(sample.tokens)):
                if sample.word_boundaries[i] or not words:
                    words.append([i])
                else:
                    words[-1].append(i)
            ww = apply_mask(sample, MaskScheme.WHOLE_WORD, mask_rng)
            hit = [w for w in words if set(w) & set(ww.mask_positions)]
            assert len(hit) == sample.object_word_count
            for w in hit:
                assert set(w) <= set(ww.mask_positions)
            assert unmask(ww) == sample.tokens

            if sample.entity_token_spans:
                span = apply_mask(sample, MaskScheme.SALIENT_SPAN, mask_rng)
                a, b = span.mask_positions[0], span.mask_positions[-1] + 1
                assert (a, b) in sample.entity_token_spans
                assert span.mask_positions == tuple(range(a, b))

            eligible = context_positions_oracle(sample)
            if len(eligible) < len(sample.clue_positions):
                with pytest.raises(InsufficientContext):
                    make_classification_triple(sample, mask_rng)
                continue
            keep, drop, randv = make_classification_triple(sample, mask_rng)
            assert keep.mask_positions == sample.object_positions
            assert len(drop.mask_positions) == len(randv.mask_positions)
            assert set(randv.mask_positions) >= set(sample.object_positions)
            assert not set(randv.mask_positions) & sample.foreign_clue_positions
            assert not (set(randv.mask_positions) - set(sample.object_positions)) & set(
                sample.clue_positions
            )
            for m in (keep, drop, randv):
                assert unmask(m) == sample.tokens
                assert list(m.mask_positions) == sorted(m.mask_positions)


def test_scheme_names_match_the_cli_choices():
    # `cli` parses --scheme without loading masking code, so it keeps its own copy.
    assert list(cli._SCHEMES) == [s.value for s in MaskScheme]
