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

import re
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import DataError
from .kb import Triplet
from .masking import MASK_TOKEN, Vocabulary
from .tokenizer import tokens_lower

if TYPE_CHECKING:
    from .model import ModelState

# Prompts forwarded together.  A batch's activations grow with its size, and
# this bound keeps the probe's peak memory below that of training.
PROMPTS_PER_BATCH = 64


class Template(NamedTuple):
    relation: str
    pattern: str


class Fact(NamedTuple):
    triplet: Triplet
    subject_surface: str
    object_surface: str
    # Whether every subject of the relation has exactly one object.
    unique_object: Optional[bool] = None
    in_domain: Optional[bool] = None


class ClozeQuestion(NamedTuple):
    """One prompt of one fact, with the object surface's tokens and the
    question's id (``subject|predicate|object#prompt_id``), both made once
    by ``build_questions``."""

    fact: Fact
    prompt_tokens: tuple[str, ...]
    prompt_id: int
    gold_tokens: tuple[str, ...]
    question_id: str


class SplitMetrics(NamedTuple):
    """One split's metrics, its fields named as in ``report.json``."""

    accuracy: float
    consistency: float
    joint: float
    facts: int
    questions: int
    pairs: int


class MetricsReport(NamedTuple):
    total: SplitMetrics
    in_domain: Optional[SplitMetrics] = None
    out_of_domain: Optional[SplitMetrics] = None
    n1_or_11: Optional[SplitMetrics] = None
    nm: Optional[SplitMetrics] = None

    def to_dict(self) -> dict:
        splits = {name: m._asdict() if m else None for name, m in self._asdict().items()}
        return {"format": "detmask-report", "version": 1, "splits": splits}


# The group keeps each placeholder in the split as a piece of its own.
_PLACEHOLDER = re.compile(r"(\[X\]|\[Y\])")


def _template_pieces(template: Template) -> list:
    """The pattern split at its placeholders: each placeholder as its own
    string, every other piece as its token list."""
    pieces = _PLACEHOLDER.split(template.pattern)
    for ph in ("[X]", "[Y]"):
        if pieces.count(ph) != 1:
            raise DataError(f"pattern must contain exactly one {ph}: {template.pattern!r}")
    return [p if p in ("[X]", "[Y]") else tokens_lower(p) for p in pieces]


def build_questions(
    templates: Sequence[Template], facts: Sequence[Fact]
) -> list[ClozeQuestion]:
    """All prompts for all facts, whose triplets must be distinct (they name the
    questions); prompt ids follow template order per relation.

    Each question renders one template for one fact: the subject filled in,
    the object slot a run of masks.  The placeholders are substituted at the
    token level, so surfaces that happen to contain bracket sequences cannot
    corrupt the prompt.  Each fact's surfaces and each template's pieces are
    tokenized once; a template is checked when a fact first uses it.
    """
    by_relation: dict[str, list[Template]] = {}
    for t in templates:
        by_relation.setdefault(t.relation, []).append(t)
    pieces: dict[Template, list] = {}
    questions: list[ClozeQuestion] = []
    for fact in facts:
        relation_templates = by_relation.get(fact.triplet.predicate)
        if not relation_templates:
            continue
        # An object without tokens cannot be asked for.
        gold = tuple(tokens_lower(fact.object_surface))
        if not gold:
            raise DataError(f"object surface {fact.object_surface!r} has no tokens")
        fill = {"[X]": tokens_lower(fact.subject_surface), "[Y]": [MASK_TOKEN] * len(gold)}
        s, p, o = fact.triplet
        for i, template in enumerate(relation_templates):
            if template not in pieces:
                pieces[template] = _template_pieces(template)
            tokens = tuple([t for piece in pieces[template]
                            for t in (fill[piece] if isinstance(piece, str) else piece)])
            questions.append(ClozeQuestion(fact, tokens, i, gold, f"{s}|{p}|{o}#{i}"))
    return questions


def _contains_run(haystack: tuple[str, ...], needle: tuple[str, ...]) -> bool:
    n, m = len(haystack), len(needle)
    if m == 0 or m > n:
        return False
    return any(haystack[i : i + m] == needle for i in range(n - m + 1))


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
    return [fact._replace(unique_object=unique_object.get(fact.triplet.predicate, True),
                          in_domain=fact.triplet in pretraining_triplets)
            for fact in facts]


def _metrics(questions: Sequence[ClozeQuestion],
             answers: Mapping[str, tuple[str, ...]]) -> SplitMetrics:
    """One split's metrics from the lowercased answers by question id."""
    by_fact: dict[Triplet, list[ClozeQuestion]] = {}
    for q in questions:
        by_fact.setdefault(q.fact.triplet, []).append(q)
    n_correct = 0
    agreeing = 0
    pairs = 0
    joint_facts = 0
    for fact_questions in by_fact.values():
        fact_answers = []
        all_right = True
        for q in fact_questions:
            answer = answers.get(q.question_id)
            if answer is None:
                raise DataError(f"no prediction for question {q.question_id}")
            fact_answers.append(answer)
            if answer == q.gold_tokens:
                n_correct += 1
            else:
                all_right = False
        if all_right:
            joint_facts += 1
        n = len(fact_answers)
        pairs += n * (n - 1) // 2
        for i in range(n):
            for j in range(i + 1, n):
                if fact_answers[i] == fact_answers[j]:
                    agreeing += 1
    n_questions = len(questions)
    n_facts = len(by_fact)
    return SplitMetrics(
        accuracy=n_correct / n_questions if n_questions else 0.0,
        consistency=agreeing / pairs if pairs else 0.0,
        joint=joint_facts / n_facts if n_facts else 0.0,
        facts=n_facts,
        questions=n_questions,
        pairs=pairs,
    )


# The labelled splits: name -> (fact label, value kept).  Each is reported
# when every question's fact carries its label.
_LABELLED_SPLITS = MappingProxyType({
    "in_domain": ("in_domain", True),
    "out_of_domain": ("in_domain", False),
    "n1_or_11": ("unique_object", True),
    "nm": ("unique_object", False),
})


def evaluate(
    questions: Sequence[ClozeQuestion], predictions: Mapping[str, Sequence[str]]
) -> MetricsReport:
    """Score predictions, compared case-insensitively; split sub-reports
    appear when facts carry the labels."""
    answers = {qid: tuple(t.lower() for t in answer) for qid, answer in predictions.items()}
    splits = {"total": _metrics(questions, answers)}
    for name, (label, value) in _LABELLED_SPLITS.items():
        if questions and all(getattr(q.fact, label) is not None for q in questions):
            splits[name] = _metrics(
                [q for q in questions if getattr(q.fact, label) == value], answers
            )
    return MetricsReport(**splits)


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

    Each of ``length_batches`` is one ``predict_fill`` call; a question's
    answers equal those of a batch holding it alone.
    """
    from . import model

    predictions: dict[str, list[str]] = {}
    for batch in length_batches(questions):
        ids = [[vocab.encode(t) for t in q.prompt_tokens] for q in batch]
        for q, filled in zip(batch, model.predict_fill(state, ids)):
            predictions[q.question_id] = [vocab.decode(i) for i in filled]
    return predictions
