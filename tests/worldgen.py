"""Random synthetic worlds: alias tables, triplet KBs, corpora, and samples.

The generators deliberately produce awkward inputs: entities sharing aliases,
aliases that extend one another (longest-match conflicts), predicate surfaces
corrupted by one edit (sometimes eating the space between words), paragraphs
with zero or many mentions, and occasional pre-linked spans.
"""

from __future__ import annotations

import json

import numpy as np

from detmask.align import Paragraph
from detmask.kb import KnowledgeBase, Triplet, build_kb
from detmask.masking import TokenizedSample

ENTITY_WORDS = [
    "arden", "briar", "calder", "dorne", "elvan", "ferris", "galen", "harrow",
    "isolde", "juniper", "kestrel", "lorien", "marrow", "nimbus", "orchid", "piper",
]
PRED_WORDS = [
    "guards", "rules", "borders", "serves", "trades with", "flows into",
    "honors", "rivals", "feeds", "shadows",
]
FILLER = [
    "the", "old", "story", "says", "that", "a", "quiet", "road", "runs", "past",
    "every", "spring", "festival", "here", "and", "people", "recall", "it", "fondly",
]
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def pick(rng: np.random.Generator, seq):
    return seq[int(rng.integers(len(seq)))]


def typo(rng: np.random.Generator, phrase: str) -> str:
    """One random edit: substitution, deletion, or insertion."""
    i = int(rng.integers(len(phrase)))
    op = int(rng.integers(3))
    if op == 0:
        pool = LETTERS.replace(phrase[i], "") if phrase[i] in LETTERS else LETTERS
        return phrase[:i] + pick(rng, pool) + phrase[i + 1 :]
    if op == 1 and len(phrase) > 2:
        return phrase[:i] + phrase[i + 1 :]
    return phrase[:i] + pick(rng, LETTERS) + phrase[i:]


def make_world(
    rng: np.random.Generator,
    n_entities: int = 8,
    n_predicates: int = 4,
    n_triplets: int = 14,
    n_paragraphs: int = 8,
    typo_rate: float = 0.25,
    prelink_rate: float = 0.2,
) -> tuple[KnowledgeBase, list[Paragraph]]:
    entity_aliases: dict[str, tuple[str, ...]] = {}
    for i in range(n_entities):
        k = int(rng.integers(1, 3))
        name = " ".join(pick(rng, ENTITY_WORDS) for _ in range(k))
        aliases = [name]
        if rng.random() < 0.4:
            aliases.append(" ".join(pick(rng, ENTITY_WORDS)
                                    for _ in range(int(rng.integers(1, 3)))))
        if rng.random() < 0.3:
            aliases.append(name + " " + pick(rng, ENTITY_WORDS))
        entity_aliases[f"E{i}"] = tuple(dict.fromkeys(aliases))
    predicate_aliases: dict[str, tuple[str, ...]] = {}
    for i in range(n_predicates):
        aliases = [pick(rng, PRED_WORDS)]
        if rng.random() < 0.3:
            aliases.append(pick(rng, PRED_WORDS))
        predicate_aliases[f"P{i}"] = tuple(dict.fromkeys(aliases))

    triplets: set[Triplet] = set()
    guard = 0
    while len(triplets) < n_triplets and guard < n_triplets * 30:
        guard += 1
        s = f"E{int(rng.integers(n_entities))}"
        o = f"E{int(rng.integers(n_entities))}"
        if s != o:
            triplets.add(Triplet(s, f"P{int(rng.integers(n_predicates))}", o))
    kb = build_kb(triplets, entity_aliases, predicate_aliases)
    triplet_list = sorted(triplets)

    paragraphs: list[Paragraph] = []
    for d in range(n_paragraphs):
        pieces: list[tuple] = []

        def filler(lo: int, hi: int) -> None:
            for _ in range(int(rng.integers(lo, hi + 1))):
                pieces.append(("text", pick(rng, FILLER)))

        if rng.random() < 0.1 or not triplet_list:
            # Mentionless paragraph.
            filler(4, 9)
        else:
            for _ in range(int(rng.integers(1, 4))):
                t = pick(rng, triplet_list)
                surface = pick(rng, predicate_aliases[t.predicate])
                if rng.random() < typo_rate:
                    surface = typo(rng, surface)
                filler(0, 2)
                pieces.append(("ent", pick(rng, entity_aliases[t.subject]), t.subject))
                filler(0, 1)
                pieces.append(("text", surface))
                filler(0, 1)
                pieces.append(("ent", pick(rng, entity_aliases[t.object]), t.object))
                pieces.append(("text", "."))
        text = ""
        placed: list[tuple[int, int, str]] = []
        for kind, *rest in pieces:
            if text and not text.endswith(" "):
                text += " "
            if kind == "ent":
                surface, eid = rest
                placed.append((len(text), len(text) + len(surface), eid))
                text += surface
            else:
                text += rest[0]
        pre = None
        if placed and rng.random() < prelink_rate:
            keep = max(1, int(rng.integers(1, len(placed) + 1)))
            pre = tuple(placed[:keep])
        paragraphs.append(Paragraph(doc_id=f"d{d}", text=text, pre_linked_spans=pre))
    return kb, paragraphs


def random_tokenized_sample(
    rng: np.random.Generator, vocab_size: int = 30, max_len: int = 36
) -> TokenizedSample:
    """A sample with one object span, clues, and spare context."""
    n = int(rng.integers(8, max_len))
    tokens = tuple(int(rng.integers(3, vocab_size)) for _ in range(n))
    object_len = int(rng.integers(1, 4))
    object_start = int(rng.integers(0, n - object_len))
    objects = range(object_start, object_start + object_len)
    spare = [i for i in range(n) if i not in objects]
    order = rng.permutation(len(spare))
    n_clues = int(rng.integers(1, max(2, len(spare) // 2)))
    clue_ids = [spare[int(i)] for i in order[:n_clues]]
    rest = [spare[int(i)] for i in order[n_clues:]]
    n_foreign = int(rng.integers(0, max(1, len(rest) // 3) + 1))
    foreign = frozenset(rest[:n_foreign])
    bounds = [True] + [bool(rng.random() < 0.7) for _ in range(n - 1)]
    # One character width per token, unused, keeps each seed's samples fixed.
    for _ in range(n):
        rng.integers(1, 7)
    words = sum(bounds)
    word_count = int(rng.integers(1, min(3, words) + 1))
    entity_spans = []
    if rng.random() < 0.8:
        a = int(rng.integers(0, n))
        entity_spans.append((a, min(n, a + int(rng.integers(1, 3)))))
    return TokenizedSample(
        doc_id="synthetic",
        tokens=tokens,
        word_boundaries=tuple(bounds),
        entity_token_spans=tuple(entity_spans),
        foreign_clue_positions=foreign,
        object_word_count=word_count,
        object_positions=tuple(objects),
        clue_positions=tuple(sorted(clue_ids)),
    )


def write_world_inputs(root, kb: KnowledgeBase, paragraphs: list[Paragraph]) -> dict:
    """The KB tables and corpus of a world as the files ``build-kb`` and
    ``align`` read; returns their paths by flag name."""
    paths = {name: root / file for name, file in (
        ("entities", "entities.tsv"), ("predicates", "predicates.tsv"),
        ("triplets", "triplets.tsv"), ("corpus", "corpus.jsonl"))}
    paths["entities"].write_text("".join(
        f"{eid}\t{aliases[0]}\t{'|'.join(aliases[1:])}\n"
        for eid, aliases in kb.entity_aliases.items()), encoding="utf-8")
    paths["predicates"].write_text("".join(
        f"{pid}\t{'|'.join(aliases)}\n" for pid, aliases in kb.predicate_aliases.items()),
        encoding="utf-8")
    paths["triplets"].write_text("".join(
        f"{t.subject}\t{t.predicate}\t{t.object}\n" for t in sorted(kb.triplets)),
        encoding="utf-8")
    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        for p in paragraphs:
            row = {"doc_id": p.doc_id, "text": p.text}
            if p.pre_linked_spans is not None:
                row["entity_spans"] = [list(s) for s in p.pre_linked_spans]
            fh.write(json.dumps(row) + "\n")
    return paths
