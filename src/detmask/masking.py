"""Tokenization of aligned samples and construction of masked training inputs.

Each aligned sample yields one tokenized sample per distinct object span;
subject and predicate spans of every triplet sharing that object become its
clue tokens, while clue tokens of the paragraph's other triplets are tracked
separately so they are never drawn as "random" context.  Masking replaces a
token id with the mask sentinel one-for-one, so restoring the targets at the
mask positions always reconstructs the original sequence.

Three families of outputs:

* plain schemes (random tokens, whole words, one entity span, the object span),
* the contrastive pair: object masked with clues kept vs. clues masked too,
* the classification triple: the pair plus a third input that masks the object
  and as many uniformly chosen context tokens as there are clue tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .align import AlignedSample, Span, object_groups
from .errors import InsufficientContext, NoClues, NoMaskableContent
from .tokenizer import count_words, token_spans, tokens_inside, tokens_lower, word_starts

PAD_ID = 0
MASK_ID = 1
UNK_ID = 2
PAD_TOKEN = "<pad>"
MASK_TOKEN = "<mask>"
UNK_TOKEN = "<unk>"
_RESERVED = (PAD_TOKEN, MASK_TOKEN, UNK_TOKEN)


class Role(Enum):
    OTHER = "other"
    SUBJECT_CLUE = "subject_clue"
    PREDICATE_CLUE = "predicate_clue"
    OBJECT = "object"


class MaskScheme(Enum):
    RANDOM_TOKEN = "random_token"
    WHOLE_WORD = "whole_word"
    SALIENT_SPAN = "salient_span"
    OBJECT_SPAN = "object_span"
    DETERMINISTIC = "deterministic"


class Variant(Enum):
    PLAIN = "plain"
    KEEP_CLUES = "keep_clues"
    MASK_CLUES = "mask_clues"
    MASK_RANDOM = "mask_random"


@dataclass(frozen=True)
class Vocabulary:
    """Closed vocabulary; ids 0..2 are the pad, mask and unknown sentinels."""

    id_to_token: tuple[str, ...]
    token_to_id: dict[str, int] = field(repr=False, compare=False)

    @classmethod
    def from_tokens(cls, content_tokens: Iterable[str]) -> "Vocabulary":
        ordered = _RESERVED + tuple(sorted(set(content_tokens) - set(_RESERVED)))
        return cls(ordered, {t: i for i, t in enumerate(ordered)})

    @classmethod
    def build(cls, texts: Iterable[str]) -> "Vocabulary":
        seen: set[str] = set()
        for text in texts:
            seen.update(tokens_lower(text))
        return cls.from_tokens(seen)

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def decode(self, token_id: int) -> str:
        return self.id_to_token[token_id]


@dataclass(frozen=True)
class TokenizedSample:
    doc_id: str
    tokens: tuple[int, ...]
    token_spans: tuple[tuple[int, int], ...]
    roles: tuple[Role, ...]
    word_boundaries: tuple[bool, ...]
    # Token-index ranges [start, end) of linked entity spans, for span masking.
    entity_token_spans: tuple[tuple[int, int], ...] = ()
    # Clue positions of the paragraph's other triplet groups; excluded from
    # random draws so a "random" input never masks a real clue.
    foreign_clue_positions: frozenset[int] = frozenset()
    object_word_count: int = 0

    def positions(self, role: Role) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles) if r is role)

    @property
    def object_positions(self) -> tuple[int, ...]:
        return self.positions(Role.OBJECT)

    @property
    def clue_positions(self) -> tuple[int, ...]:
        return tuple(
            i
            for i, r in enumerate(self.roles)
            if r is Role.SUBJECT_CLUE or r is Role.PREDICATE_CLUE
        )


@dataclass(frozen=True)
class MaskedSample:
    doc_id: str
    input_tokens: tuple[int, ...]
    mask_positions: tuple[int, ...]
    targets: tuple[int, ...]
    variant: Variant
    scheme: MaskScheme


def _masked(sample: TokenizedSample, positions: Sequence[int], variant: Variant,
            scheme: MaskScheme) -> MaskedSample:
    order = tuple(sorted(positions))
    inputs = list(sample.tokens)
    targets = []
    for p in order:
        targets.append(inputs[p])
        inputs[p] = MASK_ID
    return MaskedSample(sample.doc_id, tuple(inputs), order, tuple(targets), variant, scheme)


def _entity_token_spans(
    spans: Sequence[tuple[int, int]], entity_spans: Sequence[tuple[Span, str]]
) -> tuple[tuple[int, int], ...]:
    out = []
    for span, _eid in entity_spans:
        inside = tokens_inside(list(spans), span.char_start, span.char_end)
        if inside:
            out.append((inside[0], inside[-1] + 1))
    return tuple(out)


def tokenize_groups(sample: AlignedSample, vocab: Vocabulary) -> list[TokenizedSample]:
    """One TokenizedSample per distinct object span of an aligned sample.

    Triplets sharing the object span pool their subject and predicate tokens
    into the group's clue set; clue tokens of the other groups are recorded as
    foreign so random draws can avoid them.  A token takes a role only when it
    lies fully inside the span; straddling tokens stay in the Other role.
    """
    base = tokenize_for_spans(sample, vocab)
    groups = object_groups(sample, base.token_spans)
    all_clues = set().union(*(g.subjects | g.predicates for g in groups))
    out: list[TokenizedSample] = []
    for g in groups:
        roles = list(base.roles)
        # Later roles take precedence: Object over SubjectClue over PredicateClue.
        for positions, role in ((g.predicates, Role.PREDICATE_CLUE),
                                (g.subjects, Role.SUBJECT_CLUE), (g.objects, Role.OBJECT)):
            for i in positions:
                roles[i] = role
        foreign = all_clues - g.subjects - g.predicates - set(g.objects)
        a, b = g.span
        out.append(replace(base, roles=tuple(roles), foreign_clue_positions=frozenset(foreign),
                           object_word_count=count_words(sample.paragraph.text[a:b])))
    return out


def tokenize_for_spans(sample: AlignedSample, vocab: Vocabulary) -> TokenizedSample:
    """Tokenize a paragraph keeping only its entity spans (span masking input)."""
    text = sample.paragraph.text
    spans = token_spans(text)
    return TokenizedSample(
        doc_id=sample.paragraph.doc_id,
        tokens=tuple(vocab.encode(t) for t in tokens_lower(text)),
        token_spans=tuple(spans),
        roles=(Role.OTHER,) * len(spans),
        word_boundaries=tuple(word_starts(text, spans)),
        entity_token_spans=_entity_token_spans(spans, sample.entity_spans),
    )


def _words(sample: TokenizedSample) -> list[list[int]]:
    words: list[list[int]] = []
    for i in range(len(sample.tokens)):
        if sample.word_boundaries[i] or not words:
            words.append([i])
        else:
            words[-1].append(i)
    return words


def _choose(rng: np.random.Generator, candidates: Sequence, k: int) -> list:
    picked = rng.choice(len(candidates), size=k, replace=False)
    return [candidates[int(i)] for i in picked]


def apply_mask(sample: TokenizedSample, scheme: MaskScheme,
               rng: np.random.Generator) -> MaskedSample:
    """Mask ``sample`` under one scheme; counts are tied to the object span.

    Random-token masking draws as many positions as the object has tokens;
    whole-word masking draws as many whole words as the object surface has
    space-separated words; span masking picks one linked entity span; the
    object schemes mask exactly the object tokens.
    """
    objects = sample.object_positions
    if scheme in (MaskScheme.DETERMINISTIC, MaskScheme.OBJECT_SPAN):
        if not objects:
            raise NoMaskableContent("no object tokens to mask")
        return _masked(sample, objects, Variant.PLAIN, scheme)
    if scheme is MaskScheme.RANDOM_TOKEN:
        k = len(objects)
        if k == 0 or k > len(sample.tokens):
            raise NoMaskableContent("token budget empty or larger than the sample")
        return _masked(sample, _choose(rng, range(len(sample.tokens)), k),
                       Variant.PLAIN, scheme)
    if scheme is MaskScheme.WHOLE_WORD:
        k = sample.object_word_count
        words = _words(sample)
        if k == 0 or k > len(words):
            raise NoMaskableContent("word budget empty or larger than the sample")
        positions = [p for w in _choose(rng, words, k) for p in w]
        return _masked(sample, positions, Variant.PLAIN, scheme)
    if scheme is MaskScheme.SALIENT_SPAN:
        if not sample.entity_token_spans:
            raise NoMaskableContent("no entity spans to mask")
        a, b = sample.entity_token_spans[int(rng.integers(len(sample.entity_token_spans)))]
        return _masked(sample, range(a, b), Variant.PLAIN, scheme)
    raise ValueError(f"unknown scheme {scheme!r}")


def make_contrastive_pair(sample: TokenizedSample) -> tuple[MaskedSample, MaskedSample]:
    """The clue-visibility pair: object masked vs. object and all clues masked."""
    objects = sample.object_positions
    clues = sample.clue_positions
    if not objects:
        raise NoMaskableContent("no object tokens to mask")
    if not clues:
        raise NoClues("sample has no clue tokens")
    keep = _masked(sample, objects, Variant.KEEP_CLUES, MaskScheme.DETERMINISTIC)
    drop = _masked(sample, tuple(objects) + tuple(clues), Variant.MASK_CLUES,
                   MaskScheme.DETERMINISTIC)
    return keep, drop


def make_classification_triple(
    sample: TokenizedSample, rng: np.random.Generator
) -> tuple[MaskedSample, MaskedSample, MaskedSample]:
    """The three classifier inputs: clues kept, clues masked, random context masked.

    The third input masks the object plus exactly as many uniformly chosen
    Other-role tokens as there are clue tokens, never touching clue tokens of
    any triplet in the paragraph.
    """
    keep, drop = make_contrastive_pair(sample)
    clues = sample.clue_positions
    eligible = [
        i
        for i, r in enumerate(sample.roles)
        if r is Role.OTHER and i not in sample.foreign_clue_positions
    ]
    if len(eligible) < len(clues):
        raise InsufficientContext(
            f"need {len(clues)} maskable context tokens, have {len(eligible)}"
        )
    randoms = _choose(rng, eligible, len(clues))
    randv = _masked(sample, tuple(sample.object_positions) + tuple(randoms),
                    Variant.MASK_RANDOM, MaskScheme.DETERMINISTIC)
    return keep, drop, randv
