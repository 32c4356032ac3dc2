"""Multi-prompt factual probing: cloze questions, leakage filtering, metrics.

Facts are rendered through every template of their relation, giving several
prompts per fact.  The answer slot becomes a run of mask sentinels, one per
object token, so the model knows the answer length but nothing else.  Prompts
that already contain the answer tokens are dropped before scoring.

Metrics over the predictions:

* accuracy     fraction of questions answered exactly right,
* consistency  over facts with at least two prompts, the fraction of prompt
               pairs whose answers agree (right or wrong), pooled across
               facts: sum of agreeing pairs / sum of n*(n-1)/2,
* joint        fraction of facts with every prompt answered right.

Each metric is also reported per split: in-domain vs out-of-domain (was the
fact in the pre-training data) and unique-object vs multi-object relations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from .errors import BadTemplate, DataError, MissingPrediction
from .kb import Triplet
from .masking import MASK_TOKEN, Vocabulary
from .tokenizer import tokens_lower

if TYPE_CHECKING:
    from .model import ModelState

# Prompts forwarded together.  A batch's activations grow with its size, and
# this bound keeps the probe's peak memory below that of training.
PROMPTS_PER_BATCH = 64


class RelationType(Enum):
    # Every subject of the relation has exactly one object.
    N1_OR_11 = "n1_or_11"
    # Some subject has several objects.
    NM = "nm"


@dataclass(frozen=True)
class Template:
    relation: str
    pattern: str


@dataclass(frozen=True)
class Fact:
    triplet: Triplet
    subject_surface: str
    object_surface: str
    relation_type: Optional[RelationType] = None
    in_domain: Optional[bool] = None

    @property
    def key(self) -> tuple[str, str, str]:
        t = self.triplet
        return (t.subject, t.predicate, t.object)


@dataclass(frozen=True)
class ClozeQuestion:
    fact: Fact
    prompt_tokens: tuple[str, ...]
    prompt_id: int

    @property
    def question_id(self) -> str:
        s, p, o = self.fact.key
        return f"{s}|{p}|{o}#{self.prompt_id}"

    @property
    def gold_tokens(self) -> tuple[str, ...]:
        return tuple(tokens_lower(self.fact.object_surface))


@dataclass(frozen=True)
class SplitMetrics:
    accuracy: float
    consistency: float
    joint: float
    n_facts: int
    n_questions: int
    n_pairs: int

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "consistency": self.consistency,
            "joint": self.joint,
            "facts": self.n_facts,
            "questions": self.n_questions,
            "pairs": self.n_pairs,
        }


@dataclass(frozen=True)
class MetricsReport:
    total: SplitMetrics
    in_domain: Optional[SplitMetrics] = None
    out_of_domain: Optional[SplitMetrics] = None
    n1_or_11: Optional[SplitMetrics] = None
    nm: Optional[SplitMetrics] = None

    def to_dict(self) -> dict:
        splits = {
            "total": self.total.to_dict(),
            "in_domain": self.in_domain.to_dict() if self.in_domain else None,
            "out_of_domain": self.out_of_domain.to_dict() if self.out_of_domain else None,
            "n1_or_11": self.n1_or_11.to_dict() if self.n1_or_11 else None,
            "nm": self.nm.to_dict() if self.nm else None,
        }
        return {"format": "detmask-report", "version": 1, "splits": splits}


def _split_pattern(pattern: str) -> list[tuple[str, str]]:
    """Decompose a pattern into ("text", piece) / ("X"|"Y", "") segments."""
    for ph in ("[X]", "[Y]"):
        if pattern.count(ph) != 1:
            raise BadTemplate(f"pattern must contain exactly one {ph}: {pattern!r}")
    segments: list[tuple[str, str]] = []
    rest = pattern
    while rest:
        ix = rest.find("[X]")
        iy = rest.find("[Y]")
        nxt = min(i for i in (ix, iy) if i >= 0) if (ix >= 0 or iy >= 0) else -1
        if nxt < 0:
            segments.append(("text", rest))
            break
        if nxt > 0:
            segments.append(("text", rest[:nxt]))
        segments.append(("X" if nxt == ix else "Y", ""))
        rest = rest[nxt + 3 :]
    return segments


def instantiate(template: Template, fact: Fact, prompt_id: int = 0) -> ClozeQuestion:
    """Render one cloze question: subject filled in, object slot masked.

    The placeholders are substituted at the token level, so surfaces that
    happen to contain bracket sequences cannot corrupt the prompt.
    """
    gold = tokens_lower(fact.object_surface)
    if not gold:
        raise DataError(f"object surface {fact.object_surface!r} has no tokens")
    tokens: list[str] = []
    for kind, piece in _split_pattern(template.pattern):
        if kind == "text":
            tokens.extend(tokens_lower(piece))
        elif kind == "X":
            tokens.extend(tokens_lower(fact.subject_surface))
        else:
            tokens.extend([MASK_TOKEN] * len(gold))
    return ClozeQuestion(fact=fact, prompt_tokens=tuple(tokens), prompt_id=prompt_id)


def build_questions(
    templates: Sequence[Template], facts: Sequence[Fact]
) -> list[ClozeQuestion]:
    """All prompts for all facts; prompt ids follow template order per relation."""
    by_relation: dict[str, list[Template]] = {}
    for t in templates:
        by_relation.setdefault(t.relation, []).append(t)
    questions: list[ClozeQuestion] = []
    for fact in facts:
        for i, template in enumerate(by_relation.get(fact.triplet.predicate, [])):
            questions.append(instantiate(template, fact, prompt_id=i))
    return questions


def _contains_run(haystack: Sequence[str], needle: Sequence[str]) -> bool:
    n, m = len(haystack), len(needle)
    if m == 0 or m > n:
        return False
    return any(tuple(haystack[i : i + m]) == tuple(needle) for i in range(n - m + 1))


def filter_leakage(
    questions: Iterable[ClozeQuestion],
) -> tuple[list[ClozeQuestion], list[ClozeQuestion]]:
    """Drop questions whose prompt already contains the answer token run."""
    kept: list[ClozeQuestion] = []
    dropped: list[ClozeQuestion] = []
    for q in questions:
        if _contains_run(q.prompt_tokens, q.gold_tokens):
            dropped.append(q)
        else:
            kept.append(q)
    return kept, dropped


def split_questions(
    facts: Sequence[Fact], unique_object: Mapping[str, bool],
    pretraining_triplets: set[Triplet],
) -> list[Fact]:
    """Stamp each fact with its domain and relation-cardinality split.

    ``unique_object`` flags each predicate whose every subject has one object
    (``kb.load_unique_object_flags``); a predicate without a flag counts as one.
    """
    out = []
    for fact in facts:
        p = fact.triplet.predicate
        rel = RelationType.N1_OR_11 if unique_object.get(p, True) else RelationType.NM
        out.append(
            replace(fact, relation_type=rel, in_domain=fact.triplet in pretraining_triplets)
        )
    return out


def _metrics(questions: Sequence[ClozeQuestion],
             predictions: Mapping[str, Sequence[str]]) -> SplitMetrics:
    by_fact: dict[tuple[str, str, str], list[ClozeQuestion]] = {}
    for q in questions:
        by_fact.setdefault(q.fact.key, []).append(q)
    n_correct = 0
    agreeing = 0
    pairs = 0
    joint_facts = 0
    for fact_questions in by_fact.values():
        answers = []
        all_right = True
        for q in fact_questions:
            if q.question_id not in predictions:
                raise MissingPrediction(q.question_id)
            answer = tuple(t.lower() for t in predictions[q.question_id])
            answers.append(answer)
            if answer == q.gold_tokens:
                n_correct += 1
            else:
                all_right = False
        if all_right:
            joint_facts += 1
        n = len(answers)
        pairs += n * (n - 1) // 2
        for i in range(n):
            for j in range(i + 1, n):
                if answers[i] == answers[j]:
                    agreeing += 1
    n_questions = len(questions)
    n_facts = len(by_fact)
    return SplitMetrics(
        accuracy=n_correct / n_questions if n_questions else 0.0,
        consistency=agreeing / pairs if pairs else 0.0,
        joint=joint_facts / n_facts if n_facts else 0.0,
        n_facts=n_facts,
        n_questions=n_questions,
        n_pairs=pairs,
    )


def evaluate(
    questions: Sequence[ClozeQuestion], predictions: Mapping[str, Sequence[str]]
) -> MetricsReport:
    """Score predictions; split sub-reports appear when facts carry the labels."""
    total = _metrics(questions, predictions)
    in_d = out_d = n1 = nm = None
    if questions and all(q.fact.in_domain is not None for q in questions):
        in_d = _metrics([q for q in questions if q.fact.in_domain], predictions)
        out_d = _metrics([q for q in questions if not q.fact.in_domain], predictions)
    if questions and all(q.fact.relation_type is not None for q in questions):
        n1 = _metrics(
            [q for q in questions if q.fact.relation_type is RelationType.N1_OR_11],
            predictions,
        )
        nm = _metrics(
            [q for q in questions if q.fact.relation_type is RelationType.NM], predictions
        )
    return MetricsReport(total=total, in_domain=in_d, out_of_domain=out_d,
                         n1_or_11=n1, nm=nm)


def length_batches(questions: Sequence[ClozeQuestion]) -> list[list[ClozeQuestion]]:
    """Questions grouped by prompt length and cut into batches of at most
    ``PROMPTS_PER_BATCH``.

    Groups follow the first appearance of their length, so the first prompt
    too long for the model is still the first one reported.
    """
    groups: dict[int, list[ClozeQuestion]] = {}
    for q in questions:
        groups.setdefault(len(q.prompt_tokens), []).append(q)
    return [group[i : i + PROMPTS_PER_BATCH]
            for group in groups.values() for i in range(0, len(group), PROMPTS_PER_BATCH)]


def run_model(
    state: ModelState, vocab: Vocabulary, questions: Sequence[ClozeQuestion]
) -> dict[str, list[str]]:
    """Fill every question's masks with the model; answers as token strings.

    Each of ``length_batches`` is one forward pass; the answers equal those
    of ``predict_fill`` on one question at a time.
    """
    from . import model

    predictions: dict[str, list[str]] = {}
    for batch in length_batches(questions):
        ids = [[vocab.encode(t) for t in q.prompt_tokens] for q in batch]
        for q, filled in zip(batch, model.predict_fill_batch(state, ids)):
            predictions[q.question_id] = [vocab.decode(i) for i in filled]
    return predictions
