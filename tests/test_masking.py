"""Role tagging, masking schemes, contrastive pairs, classifier triples."""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

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
    MaskScheme,
    Role,
    TokenizedSample,
    Variant,
    Vocabulary,
    apply_mask,
    make_classification_triple,
    make_contrastive_pair,
    tokenize_for_spans,
    tokenize_groups,
)
from oracles import tokenize_groups_oracle
from worldgen import make_world, random_tokenized_sample

FILM_TEXT = "War Horse is an American war film directed by Steven Spielberg"


def film_kb():
    return build_kb(
        [Triplet("WarHorse", "directedBy", "Spielberg")],
        {"WarHorse": ("War Horse",), "Spielberg": ("Steven Spielberg", "Spielberg")},
        {"directedBy": ("directed by",)},
    )


def film_sample():
    return Aligner(film_kb()).align(Paragraph("film", FILM_TEXT))[0]


def plain(text, vocab):
    """``text`` tokenized with every role Other and no entity spans."""
    return tokenize_for_spans(AlignedSample(Paragraph("d", text), (), ()), vocab)


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
        v = Vocabulary.build(["War Horse", "war film."])
        assert v.encode("war") != UNK_ID
        assert v.encode("War") == UNK_ID
        assert v.encode(".") != UNK_ID
        assert v.size == 3 + 4  # war, horse, film, "."

    def test_reserved_not_duplicated(self):
        v = Vocabulary.from_tokens(["<mask>", "x"])
        assert v.id_to_token.count("<mask>") == 1


class TestTokenize:
    def test_film_roles(self):
        sample = film_sample()
        vocab = Vocabulary.build([FILM_TEXT])
        tok = tokenize_groups(sample, vocab)[0]
        assert len(tok.tokens) == 11
        assert tok.positions(Role.SUBJECT_CLUE) == (0, 1)
        assert tok.positions(Role.PREDICATE_CLUE) == (7, 8)
        assert tok.object_positions == (9, 10)
        # The second "war" is plain context even though the word matches.
        assert tok.roles[5] is Role.OTHER
        assert tok.object_word_count == 2

    def test_tokens_encode_lowercased_surface(self):
        vocab = Vocabulary.build([FILM_TEXT])
        tok = plain(FILM_TEXT, vocab)
        assert tok.tokens[0] == vocab.encode("war")
        assert all(r is Role.OTHER for r in tok.roles)

    def test_punctuation_is_its_own_token(self):
        vocab = Vocabulary.build(["War Horse."])
        tok = plain("War Horse.", vocab)
        assert [vocab.decode(t) for t in tok.tokens] == ["war", "horse", "."]
        assert tok.token_spans == ((0, 3), (4, 9), (9, 10))
        assert tok.word_boundaries == (True, True, False)

    def test_straddled_span_leaves_role_other(self):
        sample = film_sample()
        aligned = sample.aligned[0]
        # Shrink the object span so it ends inside "Steve n"-less token.
        clipped = AlignedTriplet(
            triplet=aligned.triplet,
            subject_span=aligned.subject_span,
            predicate_span=aligned.predicate_span,
            object_span=Span(46, 51, FILM_TEXT[46:51]),
            edit_distance=0,
        )
        vocab = Vocabulary.build([FILM_TEXT])
        tok = tokenize_groups(AlignedSample(sample.paragraph, (), (clipped,)), vocab)[0]
        assert tok.object_positions == ()


class TestTokenizeGroups:
    def kb_two_objects(self):
        kb = build_kb(
            [Triplet("A", "p", "B"), Triplet("B", "q", "C")],
            {"A": ("alpha",), "B": ("beta",), "C": ("colt",)},
            {"p": ("guards",), "q": ("rules",)},
        )
        text = "alpha guards beta then beta rules colt"
        return Aligner(kb).align(Paragraph("d", text))[0]

    def test_one_group_per_object_span(self):
        sample = self.kb_two_objects()
        vocab = Vocabulary.build([sample.paragraph.text])
        groups = tokenize_groups(sample, vocab)
        assert len(groups) == 2
        assert [g.object_positions for g in groups] == [(2,), (6,)]

    def test_foreign_clues_exclude_own_roles(self):
        sample = self.kb_two_objects()
        vocab = Vocabulary.build([sample.paragraph.text])
        first, second = tokenize_groups(sample, vocab)
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
        vocab = Vocabulary.build([FILM_TEXT])
        (group,) = tokenize_groups(sample, vocab)
        assert (0, 2) in group.entity_token_spans
        assert (9, 11) in group.entity_token_spans

    def test_tokenize_for_spans_has_no_roles(self):
        sample = film_sample()
        vocab = Vocabulary.build([FILM_TEXT])
        tok = tokenize_for_spans(sample, vocab)
        assert all(r is Role.OTHER for r in tok.roles)
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
            vocab = Vocabulary.build(p.text for p in corpus[::2])
            for sample in build_dataset(corpus, kb).deterministic_samples:
                heads = {}
                for t in sample.aligned:
                    heads.setdefault((t.object_span.char_start, t.object_span.char_end), t)
                if len(heads) < 3:
                    continue
                first, second, third = list(heads.values())[:3]
                extra = AlignedTriplet(third.triplet, first.subject_span, second.object_span,
                                       third.object_span, 0)
                for s in (sample, replace(sample, aligned=sample.aligned + (extra,))):
                    got = [{f.name: getattr(ts, f.name) for f in fields(ts)}
                           for ts in tokenize_groups(s, vocab)]
                    for g in got:
                        g["roles"] = tuple(r.value for r in g["roles"])
                    assert got == tokenize_groups_oracle(s, vocab.token_to_id, UNK_ID)
                    checked += 1
        assert checked >= 80


class TestApplyMask:
    def group(self):
        sample = film_sample()
        vocab = Vocabulary.build([FILM_TEXT])
        return tokenize_groups(sample, vocab)[0]

    def test_deterministic_masks_exactly_object(self):
        tok = self.group()
        masked = apply_mask(tok, MaskScheme.DETERMINISTIC, np.random.default_rng(0))
        assert masked.mask_positions == (9, 10)
        assert masked.targets == (tok.tokens[9], tok.tokens[10])
        assert masked.input_tokens[9] == MASK_ID and masked.input_tokens[10] == MASK_ID
        assert unmask(masked) == tok.tokens
        assert masked.variant is Variant.PLAIN

    def test_object_span_equals_deterministic_positions(self):
        tok = self.group()
        a = apply_mask(tok, MaskScheme.DETERMINISTIC, np.random.default_rng(0))
        b = apply_mask(tok, MaskScheme.OBJECT_SPAN, np.random.default_rng(0))
        assert a.mask_positions == b.mask_positions
        assert b.scheme is MaskScheme.OBJECT_SPAN

    def test_random_token_budget(self):
        tok = self.group()
        masked = apply_mask(tok, MaskScheme.RANDOM_TOKEN, np.random.default_rng(1))
        assert len(masked.mask_positions) == len(tok.object_positions) == 2
        assert len(set(masked.mask_positions)) == 2
        assert unmask(masked) == tok.tokens

    def test_whole_word_budget(self):
        tok = self.group()
        masked = apply_mask(tok, MaskScheme.WHOLE_WORD, np.random.default_rng(2))
        # Every token of the film text is its own word, so two positions.
        assert len(masked.mask_positions) == tok.object_word_count == 2

    def test_salient_span_masks_one_entity(self):
        tok = self.group()
        masked = apply_mask(tok, MaskScheme.SALIENT_SPAN, np.random.default_rng(3))
        covered = tuple(range(masked.mask_positions[0], masked.mask_positions[-1] + 1))
        assert masked.mask_positions == covered
        assert (covered[0], covered[-1] + 1) in tok.entity_token_spans

    def test_no_object_raises(self):
        vocab = Vocabulary.build([FILM_TEXT])
        tok = plain(FILM_TEXT, vocab)
        for scheme in (
            MaskScheme.DETERMINISTIC,
            MaskScheme.OBJECT_SPAN,
            MaskScheme.RANDOM_TOKEN,
            MaskScheme.WHOLE_WORD,
        ):
            with pytest.raises(NoMaskableContent):
                apply_mask(tok, scheme, np.random.default_rng(0))

    def test_no_entity_spans_raises_for_salient(self):
        vocab = Vocabulary.build([FILM_TEXT])
        tok = plain(FILM_TEXT, vocab)
        with pytest.raises(NoMaskableContent):
            apply_mask(tok, MaskScheme.SALIENT_SPAN, np.random.default_rng(0))

    def test_same_seed_same_mask(self):
        tok = self.group()
        for scheme in (MaskScheme.RANDOM_TOKEN, MaskScheme.WHOLE_WORD, MaskScheme.SALIENT_SPAN):
            a = apply_mask(tok, scheme, np.random.default_rng([9, 4]))
            b = apply_mask(tok, scheme, np.random.default_rng([9, 4]))
            assert a == b


class TestContrastivePair:
    def test_keep_and_drop_shapes(self):
        sample = film_sample()
        vocab = Vocabulary.build([FILM_TEXT])
        tok = tokenize_groups(sample, vocab)[0]
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
            token_spans=((0, 1), (2, 3), (4, 5)),
            roles=(Role.OTHER, Role.OBJECT, Role.OTHER),
            word_boundaries=(True, True, True),
        )
        with pytest.raises(NoClues):
            make_contrastive_pair(tok)

    def test_no_object_raises(self):
        tok = TokenizedSample(
            doc_id="x",
            tokens=(5, 6),
            token_spans=((0, 1), (2, 3)),
            roles=(Role.SUBJECT_CLUE, Role.OTHER),
            word_boundaries=(True, True),
        )
        with pytest.raises(NoMaskableContent):
            make_contrastive_pair(tok)


class TestClassificationTriple:
    def test_budget_parity_and_separation(self):
        sample = film_sample()
        vocab = Vocabulary.build([FILM_TEXT])
        tok = tokenize_groups(sample, vocab)[0]
        a, b, c = make_classification_triple(tok, np.random.default_rng(7))
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
            token_spans=((0, 1), (2, 3), (4, 5), (6, 7)),
            roles=(Role.SUBJECT_CLUE, Role.PREDICATE_CLUE, Role.OBJECT, Role.OTHER),
            word_boundaries=(True, True, True, True),
        )
        # Two clues but only one Other token.
        with pytest.raises(InsufficientContext):
            make_classification_triple(tok, np.random.default_rng(0))

    def test_foreign_positions_shrink_eligible_pool(self):
        tok = TokenizedSample(
            doc_id="x",
            tokens=(5, 6, 7, 8, 9),
            token_spans=((0, 1), (2, 3), (4, 5), (6, 7), (8, 9)),
            roles=(Role.SUBJECT_CLUE, Role.OBJECT, Role.OTHER, Role.OTHER, Role.OTHER),
            word_boundaries=(True,) * 5,
            foreign_clue_positions=frozenset({2, 3}),
        )
        for seed in range(20):
            _a, _b, c = make_classification_triple(tok, np.random.default_rng(seed))
            assert set(c.mask_positions) == {1, 4}


class TestRandomSampleProperties:
    """Budget parity and reconstruction over generated samples."""

    def test_masking_invariants(self):
        rng = np.random.default_rng(123)
        for trial in range(500):
            sample = random_tokenized_sample(rng)
            mask_rng = np.random.default_rng([55, trial])

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

            eligible = [
                i
                for i, r in enumerate(sample.roles)
                if r is Role.OTHER and i not in sample.foreign_clue_positions
            ]
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
