"""Output checks for one pipeline, written against the file formats only.

``Checker.run`` returns ``(stage, message)`` failures; an empty list means
every output is right.  The checks share no code with ``detmask``: tokenization
follows the documented rule (a run of word characters or one punctuation
character) and edit distance is a plain full dynamic program.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from worlds import World

_TOKEN = re.compile(r"\w+|[^\w\s]")


def tokens(text: str) -> list[str]:
    return [t.lower() for t in _TOKEN.findall(text)]


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance, full table."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[-1]


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Checker:
    """Checks the outputs in one pipeline directory against a world."""

    def __init__(self, world: World, corpus: dict[str, str], workdir: Path, steps: int):
        self.world = world
        self.corpus = corpus
        self.dir = workdir
        self.steps = steps
        self.failures: list[tuple[str, str]] = []
        self.aliases = {e: {a.lower() for a in al} for e, al in world.entity_aliases.items()}
        self.triplets = set(world.triplets)
        self._pred_dist: dict[tuple[str, str], int] = {}
        # Filled by the checks for the metrics: lines, questions kept, ...
        self.counts: dict[str, float] = {}

    def fail(self, stage: str, message: str) -> None:
        if len(self.failures) < 50:
            self.failures.append((stage, message))

    def manifest(self, name: str) -> dict:
        return json.loads((self.dir / f"{name}.manifest.json").read_text(encoding="utf-8"))

    def run(self) -> list[tuple[str, str]]:
        """Check every stage's outputs; a file that cannot be read fails its stage."""
        for stage, check in (("build-kb", self.build_kb), ("align", self.align),
                             ("stats", self.stats), ("mask", self.mask),
                             ("train", self.train), ("probe", self.probe),
                             ("report", self.report)):
            try:
                check()
            except (OSError, ValueError, KeyError, TypeError, IndexError,
                    ArithmeticError) as exc:
                self.fail(stage, f"unreadable output: {type(exc).__name__}: {exc}")
        return self.failures

    # -- build-kb ----------------------------------------------------------

    def build_kb(self) -> None:
        kb = self.dir / "kb"
        with open(kb / "triplets.tsv", encoding="utf-8") as fh:
            triplets = {tuple(line.rstrip("\n").split("\t")) for line in fh}
        if triplets != self.triplets:
            self.fail("build-kb", "kb/triplets.tsv does not hold the world's triplets")
        for name, table in (("entities.tsv", self.world.entity_aliases),
                            ("predicates.tsv", self.world.predicate_aliases)):
            with open(kb / name, encoding="utf-8") as fh:
                ids = {line.split("\t", 1)[0] for line in fh}
            if ids != set(table):
                self.fail("build-kb", f"kb/{name} does not hold the world's ids")

    # -- align -------------------------------------------------------------

    def _entity_ok(self, text: str, a: int, b: int, eid: str) -> bool:
        return (isinstance(a, int) and isinstance(b, int) and 0 <= a < b <= len(text)
                and text[a:b].lower() in self.aliases.get(eid, ()))

    def _predicate_distance(self, surface: str, p: str) -> int:
        key = (surface, p)
        if key not in self._pred_dist:
            self._pred_dist[key] = min(
                edit_distance(surface, a.lower()) for a in self.world.predicate_aliases[p])
        return self._pred_dist[key]

    def align(self) -> None:
        samples = _jsonl(self.dir / "samples.jsonl")
        ssm = _jsonl(self.dir / "samples.ssm.jsonl")
        emitted = 0
        found: dict[str, set] = {}
        spans = 0
        for row in ssm:
            text = row["text"]
            if self.corpus.get(row["doc_id"]) != text:
                self.fail("align", f"ssm {row['doc_id']}: text differs from the corpus")
            for a, b, eid in row["entities"]:
                spans += 1
                if not self._entity_ok(text, a, b, eid):
                    self.fail("align", f"ssm {row['doc_id']}: bad entity span {a},{b} {eid}")
        for row in samples:
            doc, text = row["doc_id"], row["text"]
            if self.corpus.get(doc) != text:
                self.fail("align", f"{doc}: text differs from the corpus")
                continue
            for a, b, eid in row["entities"]:
                if not self._entity_ok(text, a, b, eid):
                    self.fail("align", f"{doc}: bad entity span {a},{b} {eid}")
            for t in row["triplets"]:
                s, p, o = t["s"], t["p"], t["o"]
                emitted += 1
                found.setdefault(doc, set()).add((s, p, o))
                if (s, p, o) not in self.triplets:
                    self.fail("align", f"{doc}: {s} {p} {o} is not in the KB")
                elif not self.world.deterministic(s, p):
                    self.fail("align", f"{doc}: ({s}, {p}) is not deterministic")
                if not (self._entity_ok(text, *t["s_span"], s)
                        and self._entity_ok(text, *t["o_span"], o)):
                    self.fail("align", f"{doc}: subject/object span is not an alias")
                a, b = t["p_span"]
                if not (0 <= a < b <= len(text)):
                    self.fail("align", f"{doc}: predicate span outside the text")
                    continue
                dist = self._predicate_distance(text[a:b].lower(), p)
                if dist > 1 or dist != t["edit_distance"]:
                    self.fail("align", f"{doc}: predicate surface {text[a:b]!r} at distance "
                                       f"{dist}, reported {t['edit_distance']}")
        missed = 0
        for doc, facts in self.world.planted.items():
            for s, p, o, _typo in facts:
                if self.world.deterministic(s, p) and (s, p, o) not in found.get(doc, ()):
                    missed += 1
                    self.fail("align", f"{doc}: planted fact {s} {p} {o} not found")
        c = self.manifest("samples.jsonl")["counters"]
        expect = {"paragraphs_processed": self.world.paragraphs, "paragraphs_skipped": 0,
                  "samples_emitted": len(samples), "ssm_emitted": len(ssm),
                  "emitted_triplets": emitted}
        for key, value in expect.items():
            if c.get(key) != value:
                self.fail("align", f"manifest {key} = {c.get(key)}, expected {value}")
        self.counts.update(samples=len(samples), ssm=len(ssm), entity_spans=spans,
                           candidates=c.get("candidate_triplets", 0),
                           non_deterministic=c.get("non_deterministic_triplets", 0),
                           emitted_triplets=emitted, planted_missed=missed)

    # -- stats -------------------------------------------------------------

    def stats(self) -> None:
        rows = dict(line.rsplit(None, 1) for line in
                    (self.dir / "stats.txt").read_text(encoding="utf-8").splitlines()
                    if line and not line.startswith("("))
        if int(rows["paragraphs"]) != self.world.paragraphs:
            self.fail("stats", f"paragraphs {rows['paragraphs']} != {self.world.paragraphs}")
        if int(rows["samples"]) != self.counts.get("samples"):
            self.fail("stats", f"samples {rows['samples']} != {self.counts.get('samples')}")
        c = self.manifest("samples.jsonl")["counters"]
        frac = c["non_deterministic_triplets"] / c["candidate_triplets"]
        if abs(float(rows["nondeterministic frac"]) - frac) > 5e-5:
            self.fail("stats", f"nondeterministic frac {rows['nondeterministic frac']} != {frac}")

    # -- mask --------------------------------------------------------------

    def mask(self) -> None:
        vocab = json.loads((self.dir / "vocab.json").read_text(encoding="utf-8"))["tokens"]
        ids = {t: i for i, t in enumerate(vocab)}
        mask_id, unk_id = ids["<mask>"], ids["<unk>"]
        encoded: dict[str, list[int]] = {}
        lines = rows = forwarded = 0
        with open(self.dir / "masked.jsonl", encoding="utf-8") as fh:
            for line in fh:
                m = json.loads(line)
                lines += 1
                doc = m["doc_id"]
                if doc not in encoded:
                    encoded[doc] = [ids.get(t, unk_id) for t in tokens(self.corpus[doc])]
                restored = list(m["input_ids"])
                positions = m["mask_positions"]
                if len(positions) != len(m["targets"]) or not positions:
                    self.fail("mask", f"{doc}: {len(positions)} positions, "
                                      f"{len(m['targets'])} targets")
                    continue
                for pos, target in zip(positions, m["targets"]):
                    if restored[pos] != mask_id:
                        self.fail("mask", f"{doc}: position {pos} is not masked")
                    restored[pos] = target
                if restored != encoded[doc]:
                    self.fail("mask", f"{doc}: restoring the targets does not rebuild the text")
                rows += len(positions)
                forwarded += len(restored)
        c = self.manifest("masked.jsonl")["counters"]
        if c.get("lines_emitted") != lines:
            self.fail("mask", f"manifest lines_emitted {c.get('lines_emitted')} != {lines}")
        self.counts.update(masked_lines=lines, vocab_size=len(vocab),
                           groups=c.get("groups_processed", 0),
                           groups_skipped=c.get("groups_skipped", 0),
                           mask_row_share=rows / forwarded if forwarded else 0.0)

    # -- train -------------------------------------------------------------

    def train(self) -> None:
        log = _jsonl(self.dir / "model.ckpt.log.jsonl")
        if len(log) != self.steps:
            self.fail("train", f"{len(log)} log entries for {self.steps} steps")
        for entry in log:
            for key in ("L_mlm", "L_con", "L_cls", "L_total"):
                if not math.isfinite(entry[key]):
                    self.fail("train", f"step {entry['step']}: {key} = {entry[key]}")
        with open(self.dir / "model.ckpt", "rb") as fh:
            header = json.loads(fh.readline())
        if header.get("format") != "detmask-checkpoint":
            self.fail("train", "checkpoint header has the wrong format")
        self.counts.update(max_len=header["config"]["max_len"],
                           checkpoint_bytes=(self.dir / "model.ckpt").stat().st_size)

    # -- probe / report ----------------------------------------------------

    def expected_questions(self) -> tuple[int, int]:
        """Questions built and kept after leakage filtering, counted here."""
        by_relation: dict[str, list[str]] = {}
        for relation, pattern in self.world.templates:
            by_relation.setdefault(relation, []).append(pattern)
        built = kept = 0
        for _s, p, _o, s_surface, o_surface in self.world.facts:
            gold = tokens(o_surface)
            for pattern in by_relation.get(p, ()):
                prompt: list[str] = []
                for piece in re.split(r"(\[X\]|\[Y\])", pattern):
                    if piece == "[X]":
                        prompt += tokens(s_surface)
                    elif piece == "[Y]":
                        prompt += ["<mask>"] * len(gold)
                    else:
                        prompt += tokens(piece)
                built += 1
                n = len(gold)
                kept += not any(prompt[i:i + n] == gold for i in range(len(prompt) - n + 1))
        return built, kept

    def probe(self) -> None:
        doc = json.loads((self.dir / "report.json").read_text(encoding="utf-8"))
        built, kept = self.expected_questions()
        counts = doc["counts"]
        if (counts["questions_built"], counts["questions_kept"]) != (built, kept):
            self.fail("probe", f"questions built/kept {counts['questions_built']}/"
                               f"{counts['questions_kept']}, expected {built}/{kept}")
        if counts["facts"] != len(self.world.facts):
            self.fail("probe", f"facts {counts['facts']} != {len(self.world.facts)}")
        if doc["splits"]["total"]["questions"] != kept:
            self.fail("probe", "total split question count differs from questions kept")
        for name, split in doc["splits"].items():
            for key in ("accuracy", "consistency", "joint"):
                if split is not None and not 0.0 <= split[key] <= 1.0:
                    self.fail("probe", f"{name}.{key} = {split[key]} outside [0, 1]")
        self.counts.update(questions_built=built, questions_kept=kept)

    def report(self) -> None:
        text = (self.dir / "report.txt").read_text(encoding="utf-8")
        built, kept = self.expected_questions()
        if f"questions: built {built}, kept {kept}," not in text:
            self.fail("report", "report does not show the question counts")
        if not text.startswith("total"):
            self.fail("report", "report does not start with the total split")
