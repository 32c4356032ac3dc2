"""Seeded synthetic worlds: the input files of each benchmark workload.

A world is written as the plain files the CLI reads (three KB tables, a
corpus, probe templates and facts).  What the program must find in them
(the planted facts, which of them carry a typo) stays in memory in the
returned ``World`` and is never given to the program.

The same (workload, seed) always gives byte-identical files: all draws come
from one ``random.Random(seed)`` in a fixed order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class World:
    """Ground truth of one generated world, kept by the benchmark only."""

    entity_aliases: dict[str, tuple[str, ...]]
    predicate_aliases: dict[str, tuple[str, ...]]
    triplets: list[tuple[str, str, str]]
    # doc_id -> planted (s, p, o, typo) facts, in text order.
    planted: dict[str, list[tuple[str, str, str, bool]]]
    paragraphs: int
    templates: list[tuple[str, str]]
    facts: list[tuple[str, str, str, str, str]]
    sp_objects: dict[tuple[str, str], set[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for s, p, o in self.triplets:
            self.sp_objects.setdefault((s, p), set()).add(o)

    def deterministic(self, s: str, p: str) -> bool:
        return len(self.sp_objects.get((s, p), ())) == 1

    def properties(self) -> dict:
        facts = [f for fs in self.planted.values() for f in fs]
        return {
            "entities": len(self.entity_aliases),
            "predicates": len(self.predicate_aliases),
            "triplets": len(self.triplets),
            "paragraphs": self.paragraphs,
            "planted_facts": len(facts),
            "typo_share": sum(f[3] for f in facts) / len(facts) if facts else 0.0,
            "probe_facts": len(self.facts),
        }


def _word_pool(rng: random.Random, n: int) -> list[str]:
    """``n`` distinct pronounceable pseudo-words of two or three syllables."""
    syllables = [c + v for c in CONSONANTS for v in VOWELS]
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        word = "".join(rng.choice(syllables) for _ in range(rng.choice((2, 3))))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _typo(rng: random.Random, phrase: str) -> str:
    """One edit (substitution, deletion or insertion of a letter); never a no-op."""
    while True:
        i = rng.randrange(len(phrase))
        op = rng.randrange(3)
        if op == 0:
            out = phrase[:i] + rng.choice(LETTERS) + phrase[i + 1:]
        elif op == 1:
            out = phrase[:i] + phrase[i + 1:]
        else:
            out = phrase[:i] + rng.choice(LETTERS) + phrase[i:]
        # Keep the surface a word run: no leading/trailing/double spaces.
        if out != phrase and out.strip() == out and "  " not in out:
            return out


def _unique_sp_triplets(rng, entities, predicates, n):
    """``n`` triplets with distinct (s, p) and s != o: every pair is deterministic."""
    seen: set[tuple[str, str]] = set()
    out: list[tuple[str, str, str]] = []
    while len(out) < n:
        s, o = rng.choice(entities), rng.choice(entities)
        p = rng.choice(predicates)
        if s != o and (s, p) not in seen:
            seen.add((s, p))
            out.append((s, p, o))
    return out


def _templates(predicate_aliases, per_relation):
    shapes = ("[X] {a} [Y] .", "it is said that [X] {a} [Y] .", "[Y] , as [X] {a} .")
    return [
        (p, shapes[k].format(a=aliases[0]))
        for p, aliases in predicate_aliases.items()
        for k in range(per_relation)
    ]


def _facts(rng, triplets, entity_aliases, n):
    picked = rng.sample(triplets, n)
    return [(s, p, o, entity_aliases[s][0], entity_aliases[o][0]) for s, p, o in picked]


def dense_corpus(seed: int, paragraphs: int = 180) -> tuple[World, list[dict]]:
    """The acceptance-9/9 shape: a fact planted every nine tokens.

    Single-token entities and predicates, all surfaces exact, every (s, p)
    deterministic; about 32 entity spans per ~144-token paragraph.
    """
    rng = random.Random(seed)
    filler = _word_pool(rng, 20)
    entity_aliases = {f"E{i}": (f"ent{i}",) for i in range(2000)}
    predicate_aliases = {f"P{k}": (f"pred{k}",) for k in range(10)}
    triplets = _unique_sp_triplets(rng, list(entity_aliases), list(predicate_aliases), 10_000)
    corpus, planted = [], {}
    for j in range(paragraphs):
        doc_id, words, facts = f"d{j}", [], []
        while len(words) < 140:
            words.extend(rng.choice(filler) for _ in range(6))
            s, p, o = rng.choice(triplets)
            words += [entity_aliases[s][0], predicate_aliases[p][0], entity_aliases[o][0]]
            facts.append((s, p, o, False))
        corpus.append({"doc_id": doc_id, "text": " ".join(words)})
        planted[doc_id] = facts
    world = World(entity_aliases, predicate_aliases, triplets, planted, paragraphs,
                  _templates(predicate_aliases, 2),
                  _facts(rng, triplets, entity_aliases, 500))
    return world, corpus


def wide_vocab(seed: int, paragraphs: int = 1000) -> tuple[World, list[dict]]:
    """Short paragraphs with one fact each over a ~4.7k-token vocabulary."""
    rng = random.Random(seed)
    pool = _word_pool(rng, 4000 + 600 + 40)
    filler, names, pred_words = pool[:4000], pool[4000:4600], pool[4600:]
    entity_aliases = {f"E{i}": (names[i],) for i in range(600)}
    predicate_aliases = {
        f"P{k}": (" ".join(pred_words[2 * k: 2 * k + rng.choice((1, 2))]),) for k in range(20)
    }
    triplets = _unique_sp_triplets(rng, list(entity_aliases), list(predicate_aliases), 3000)
    corpus, planted = [], {}
    for j in range(paragraphs):
        doc_id = f"w{j}"
        n = rng.randint(20, 80) - 3
        cut = rng.randint(0, n)
        s, p, o = rng.choice(triplets)
        words = ([rng.choice(filler) for _ in range(cut)]
                 + [entity_aliases[s][0], predicate_aliases[p][0], entity_aliases[o][0]]
                 + [rng.choice(filler) for _ in range(n - cut)])
        corpus.append({"doc_id": doc_id, "text": " ".join(words) + " ."})
        planted[doc_id] = [(s, p, o, False)]
    world = World(entity_aliases, predicate_aliases, triplets, planted, paragraphs,
                  _templates(predicate_aliases, 3),
                  _facts(rng, triplets, entity_aliases, 800))
    return world, corpus


def fuzzy_predicates(seed: int, paragraphs: int = 900) -> tuple[World, list[dict]]:
    """Long paragraphs, few facts, multi-word aliases, 40% of predicate surfaces typo'd.

    About a tenth of the (s, p) keys have two or three objects, so part of
    the candidates are non-deterministic and must be dropped.
    """
    rng = random.Random(seed)
    pool = _word_pool(rng, 900 + 600 + 150 + 300)
    name_words, single, pred_words, filler = (
        pool[:900], iter(pool[900:1500]), pool[1500:1650], pool[1650:])
    pairs = [(a, b) for a in name_words[:30] for b in name_words[30:]]
    entity_aliases = {}
    for i, (a, b) in enumerate(rng.sample(pairs, 600)):
        aliases = [f"{a} {b}"]
        if rng.random() < 0.5:
            aliases.append(next(single))
        entity_aliases[f"E{i}"] = tuple(aliases)
    predicate_aliases = {}
    for k in range(120):
        aliases, want = [], rng.randint(2, 4)
        while len(aliases) < want:
            alias = " ".join(rng.sample(pred_words, rng.choice((2, 3))))
            if alias not in aliases:
                aliases.append(alias)
        predicate_aliases[f"P{k}"] = tuple(aliases)
    entities, predicates = list(entity_aliases), list(predicate_aliases)
    triplets = _unique_sp_triplets(rng, entities, predicates, 7000)
    # Give some (s, p) keys a second or third object.
    known = set(triplets)
    for s, p, _o in rng.sample(triplets, 300):
        for _ in range(rng.choice((1, 2))):
            o = rng.choice(entities)
            if o != s and (s, p, o) not in known:
                known.add((s, p, o))
                triplets.append((s, p, o))
    corpus, planted = [], {}
    for j in range(paragraphs):
        doc_id = f"f{j}"
        n_facts = rng.randint(1, 3)
        budget = rng.randint(100, 250)
        cuts = sorted(rng.randint(0, budget) for _ in range(n_facts))
        words, facts, prev = [], [], 0
        for cut in cuts:
            words += [rng.choice(filler) for _ in range(cut - prev)]
            prev = cut
            s, p, o = rng.choice(triplets)
            surface = rng.choice(predicate_aliases[p])
            typo = rng.random() < 0.4
            if typo:
                surface = _typo(rng, surface)
            subject = rng.choice(entity_aliases[s])
            if rng.random() < 0.2:
                subject = subject.capitalize()
            words += [subject, surface, rng.choice(entity_aliases[o]), "."]
            facts.append((s, p, o, typo))
        words += [rng.choice(filler) for _ in range(budget - prev)]
        corpus.append({"doc_id": doc_id, "text": " ".join(words)})
        planted[doc_id] = facts
    world = World(entity_aliases, predicate_aliases, triplets, planted, paragraphs,
                  _templates(predicate_aliases, 2),
                  _facts(rng, triplets, entity_aliases, 500))
    return world, corpus


GENERATORS = {
    "dense_corpus": dense_corpus,
    "wide_vocab": wide_vocab,
    "fuzzy_predicates": fuzzy_predicates,
}


def _jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def write_world(workload: str, seed: int, out: Path) -> tuple[World, dict[str, str]]:
    """Generate ``workload`` from ``seed`` and write its input files into ``out``.

    Returns the world's ground truth and its corpus as doc_id -> text.
    """
    world, corpus = GENERATORS[workload](seed)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "entities.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for eid, aliases in world.entity_aliases.items():
            extra = "|".join(aliases[1:])
            fh.write(f"{eid}\t{aliases[0]}\t{extra}\n" if extra else f"{eid}\t{aliases[0]}\n")
    with open(out / "predicates.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for pid, aliases in world.predicate_aliases.items():
            fh.write(f"{pid}\t{'|'.join(aliases)}\n")
    with open(out / "triplets.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for s, p, o in world.triplets:
            fh.write(f"{s}\t{p}\t{o}\n")
    _jsonl(out / "corpus.jsonl", corpus)
    _jsonl(out / "templates.jsonl", ({"relation": r, "pattern": t} for r, t in world.templates))
    _jsonl(out / "facts.jsonl", ({"s": s, "p": p, "o": o, "s_surface": ss, "o_surface": os_}
                                 for s, p, o, ss, os_ in world.facts))
    return world, {row["doc_id"]: row["text"] for row in corpus}
