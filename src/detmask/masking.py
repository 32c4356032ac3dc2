"""Tokenization of aligned samples and construction of masked training inputs.

Each aligned sample yields one tokenized sample per distinct object span;
subject and predicate spans of every triplet sharing that object become its
clue tokens, while clue tokens of the paragraph's other triplets are tracked
separately so they are never drawn as "random" context.  A paragraph's one
``Tokens`` feeds the vocabulary and its samples.  Each sample stores its
group as ascending position lists: the object tokens, and the clue tokens
that are not also object tokens; every other token is context.  Masking
replaces a token id with the mask sentinel one-for-one, so restoring the
targets at the mask positions always reconstructs the original sequence.

Three families of outputs:

* plain schemes (random tokens, whole words, one entity span, the object span),
* the contrastive pair: object masked with clues kept vs. clues masked too,
* the classification triple: the pair plus a third input that masks the object
  and as many uniformly chosen context tokens as there are clue tokens.

Each masked input is a ``MaskedSample``, and a training item is a tuple of
one to three of them: a plain input, a pair or a triple.
"""

from __future__ import annotations

from enum import Enum
from itertools import repeat
from random import Random
from typing import Iterable, NamedTuple, Optional, Sequence

from .align import AlignedSample, Span, object_groups
from .errors import DataError, InsufficientContext, NoClues, NoMaskableContent
from .tokenizer import Tokens, count_words, tokens_inside

PAD_ID = 0
MASK_ID = 1
UNK_ID = 2
PAD_TOKEN = "<pad>"
MASK_TOKEN = "<mask>"
UNK_TOKEN = "<unk>"
_RESERVED = (PAD_TOKEN, MASK_TOKEN, UNK_TOKEN)


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


class Vocabulary:
    """Closed vocabulary; ids 0..2 are the pad, mask and unknown sentinels.

    ``token_to_id`` is the index of ``id_to_token``.
    """

    def __init__(self, id_to_token: tuple[str, ...], token_to_id: dict[str, int]) -> None:
        self.id_to_token = id_to_token
        self.token_to_id = token_to_id

    @classmethod
    def from_tokens(cls, content_tokens: Iterable[str]) -> "Vocabulary":
        ordered = _RESERVED + tuple(sorted(set(content_tokens) - set(_RESERVED)))
        return cls(ordered, {t: i for i, t in enumerate(ordered)})

    @classmethod
    def from_stored(cls, tokens, source) -> "Vocabulary":
        """The vocabulary of a stored token list, ids in list order: distinct
        strings, the three sentinels first, then at least one content token.
        Any other list raises ``DataError`` naming ``source``."""
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise DataError(f"{source}: vocabulary tokens must be a list of strings")
        if tuple(tokens[:3]) != _RESERVED or len(tokens) < 4:
            raise DataError(f"{source}: vocabulary must start with {', '.join(_RESERVED)} "
                            "and hold at least one content token")
        index = {t: i for i, t in enumerate(tokens)}
        if len(index) != len(tokens):
            raise DataError(f"{source}: vocabulary repeats a token")
        return cls(tuple(tokens), index)

    @classmethod
    def build(cls, tokenized: Iterable[Tokens]) -> "Vocabulary":
        """The vocabulary of the lowercased tokens of tokenized texts."""
        return cls.from_tokens(t for tokens in tokenized for t in tokens.lower)

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def decode(self, token_id: int) -> str:
        return self.id_to_token[token_id]


class TokenizedSample(NamedTuple):
    doc_id: str
    tokens: tuple[int, ...]
    word_boundaries: tuple[bool, ...]
    # Token-index ranges [start, end) of linked entity spans, for span masking.
    entity_token_spans: tuple[tuple[int, int], ...] = ()
    # Clue positions of the paragraph's other triplet groups; excluded from
    # random draws so a "random" input never masks a real clue.
    foreign_clue_positions: frozenset[int] = frozenset()
    object_word_count: int = 0
    # The group's object positions, and its clue positions that are not objects, ascending.
    object_positions: tuple[int, ...] = ()
    clue_positions: tuple[int, ...] = ()


class MaskedSample(NamedTuple):
    """One masked input line.  ``input_tokens`` is a sequence of ids: a
    tuple made by masking, an int64 array read back by ``formats.read_masked``.
    """

    doc_id: str
    input_tokens: Sequence[int]
    mask_positions: tuple[int, ...]
    targets: tuple[int, ...]
    variant: Variant
    scheme: MaskScheme


def _masked(sample: TokenizedSample, positions: Sequence[int], variant: Variant,
            scheme: MaskScheme) -> MaskedSample:
    order = tuple(sorted(positions))
    inputs = list(sample.tokens)
    targets = tuple(inputs[p] for p in order)
    for p in order:
        inputs[p] = MASK_ID
    return MaskedSample(sample.doc_id, tuple(inputs), order, targets, variant, scheme)


def _entity_token_spans(
    tokens: Tokens, entity_spans: Sequence[tuple[Span, str]]
) -> tuple[tuple[int, int], ...]:
    insides = (tokens_inside(tokens, s.char_start, s.char_end) for s, _eid in entity_spans)
    return tuple((r.start, r.stop) for r in insides if r)


def tokenize_groups(sample: AlignedSample, tokens: Tokens,
                    vocab: Vocabulary) -> list[TokenizedSample]:
    """One TokenizedSample per distinct object span of an aligned sample.

    Triplets sharing the object span pool their subject and predicate tokens
    into the group's clue set; clue tokens of the other groups are recorded as
    foreign so random draws can avoid them.  A span claims only the tokens
    lying fully inside it; a token that is an object is never also a clue.
    """
    base = tokenize_for_spans(sample, tokens, vocab)
    groups = object_groups(sample, tokens)
    clues = set().union(*(g.clues for g in groups))
    out: list[TokenizedSample] = []
    for g in groups:
        a, b = g.span
        out.append(base._replace(
            object_positions=tuple(g.objects),
            clue_positions=tuple(sorted(g.clues.difference(g.objects))),
            foreign_clue_positions=frozenset(clues.difference(g.clues, g.objects)),
            object_word_count=count_words(sample.paragraph.text[a:b])))
    return out


def tokenize_for_spans(sample: AlignedSample, tokens: Tokens,
                       vocab: Vocabulary) -> TokenizedSample:
    """A paragraph with its ``tokens``, keeping only its entity spans (span masking input)."""
    return TokenizedSample(
        doc_id=sample.paragraph.doc_id,
        tokens=tuple(map(vocab.token_to_id.get, tokens.lower, repeat(UNK_ID))),
        word_boundaries=tuple(tokens.word_starts),
        entity_token_spans=_entity_token_spans(tokens, sample.entity_spans),
    )


def apply_mask(sample: TokenizedSample, scheme: MaskScheme,
               rng: Optional[Random]) -> MaskedSample:
    """Mask ``sample`` under one scheme; counts are tied to the object span.

    Random-token masking draws (``rng.sample``) as many positions as the
    object has tokens, whole-word masking as many whole words as the object
    surface has space-separated words; span masking picks one linked entity
    span (``rng.randrange``); the object schemes mask the object, no ``rng``.
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
        return _masked(sample, rng.sample(range(len(sample.tokens)), k), Variant.PLAIN, scheme)
    if scheme is MaskScheme.WHOLE_WORD:
        k = sample.object_word_count
        starts = [i for i, first in enumerate(sample.word_boundaries) if first or i == 0]
        words = [range(a, b) for a, b in zip(starts, starts[1:] + [len(sample.tokens)])]
        if k == 0 or k > len(words):
            raise NoMaskableContent("word budget empty or larger than the sample")
        positions = [p for w in rng.sample(words, k) for p in w]
        return _masked(sample, positions, Variant.PLAIN, scheme)
    if scheme is MaskScheme.SALIENT_SPAN:
        if not sample.entity_token_spans:
            raise NoMaskableContent("no entity spans to mask")
        a, b = sample.entity_token_spans[rng.randrange(len(sample.entity_token_spans))]
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
    drop = _masked(sample, objects + clues, Variant.MASK_CLUES, MaskScheme.DETERMINISTIC)
    return keep, drop


def make_classification_triple(
    sample: TokenizedSample, rng: Random
) -> tuple[MaskedSample, MaskedSample, MaskedSample]:
    """The three classifier inputs: clues kept, clues masked, random context masked.

    The third input masks the object plus as many context tokens as there
    are clue tokens, drawn by ``rng.sample`` from the positions that are
    neither the group's object or clues nor a clue of any other triplet.
    """
    keep, drop = make_contrastive_pair(sample)
    clues = sample.clue_positions
    taken = sample.foreign_clue_positions.union(sample.object_positions, clues)
    eligible = [i for i in range(len(sample.tokens)) if i not in taken]
    if len(eligible) < len(clues):
        raise InsufficientContext(f"need {len(clues)} maskable context tokens, "
                                  f"have {len(eligible)}")
    randoms = rng.sample(eligible, len(clues))
    randv = _masked(sample, sample.object_positions + tuple(randoms),
                    Variant.MASK_RANDOM, MaskScheme.DETERMINISTIC)
    return keep, drop, randv
