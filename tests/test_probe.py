"""Cloze probing: templates, leakage, metric arithmetic, model glue."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmask import cli

from detmask.errors import DataError
from detmask.kb import Triplet, build_kb
from detmask.masking import MASK_TOKEN, Vocabulary
from detmask.model import ModelConfig, init, predict_fill
from detmask.probe import (
    PROMPTS_PER_BATCH,
    ClozeQuestion,
    Fact,
    MetricsReport,
    Template,
    build_questions,
    evaluate,
    filter_leakage,
    length_batches,
    run_model,
    split_questions,
)
from detmask.tokenizer import tokens_lower
from oracles import consistency_oracle, instantiate_oracle, unique_object_flags_oracle
from test_model import zero_state


def fact(s: str, p: str, o: str, surface: str) -> Fact:
    return Fact(Triplet(s, p, o), subject_surface=s, object_surface=surface)


def question(f: Fact, prompt_id: int, n_masks: int = 1, prompt=None) -> ClozeQuestion:
    """A question of ``f`` with ``prompt`` (default: ``n_masks`` masks between
    two words), its gold tokens and id made as ``build_questions`` makes them."""
    tokens = prompt or ("about",) + (MASK_TOKEN,) * n_masks + ("indeed",)
    t = f.triplet
    return ClozeQuestion(f, tokens, prompt_id, tuple(tokens_lower(f.object_surface)),
                         f"{t.subject}|{t.predicate}|{t.object}#{prompt_id}")


class TestInstantiate:
    def test_basic_substitution(self):
        t = Template("citizenOf", "[X] is a citizen of [Y].")
        f = fact("Q1", "citizenOf", "Q2", "Poland")
        f = f._replace(subject_surface="Marie Curie")
        q = build_questions([t], [f])[0]
        assert q.prompt_tokens == (
            "marie", "curie", "is", "a", "citizen", "of", MASK_TOKEN, ".",
        )
        assert [i for i, t in enumerate(q.prompt_tokens) if t == MASK_TOKEN] == [6]
        assert q.gold_tokens == ("poland",)

    def test_multi_token_object_gets_one_mask_per_token(self):
        t = Template("bornIn", "[X] was born in [Y]")
        f = fact("Q1", "bornIn", "Q2", "New Zealand")
        q = build_questions([t], [f])[0]
        assert q.prompt_tokens[-2:] == (MASK_TOKEN, MASK_TOKEN)
        assert q.gold_tokens == ("new", "zealand")

    def test_object_slot_may_precede_subject(self):
        t = Template("capitalOf", "the capital [Y] belongs to [X]")
        f = fact("Q1", "capitalOf", "Q2", "Lima")
        f = f._replace(subject_surface="Peru")
        q = build_questions([t], [f])[0]
        assert q.prompt_tokens == ("the", "capital", MASK_TOKEN, "belongs", "to", "peru")

    def test_bad_templates_rejected(self):
        f = fact("Q1", "p", "Q2", "x")
        for pattern in ("[X] only", "no slots", "[X] and [Y] and [Y]", "[X] [X] [Y]"):
            with pytest.raises(DataError, match="pattern must contain exactly one"):
                build_questions([Template("p", pattern)], [f])

    def test_empty_object_surface_rejected(self):
        with pytest.raises(DataError):
            build_questions([Template("p", "[X] is [Y]")], [fact("Q1", "p", "Q2", "  ")])

    def test_build_questions_orders_prompts_per_relation(self):
        templates = [
            Template("p", "[X] first [Y]"),
            Template("q", "[X] other [Y]"),
            Template("p", "[X] second [Y]"),
        ]
        f = fact("Q1", "p", "Q2", "x")
        qs = build_questions(templates, [f])
        assert [q.prompt_id for q in qs] == [0, 1]
        assert qs[0].prompt_tokens[1] == "first"
        assert qs[1].prompt_tokens[1] == "second"
        assert qs[0].question_id == "Q1|p|Q2#0"


class TestFilterLeakage:
    def test_answer_in_template_text_leaks(self):
        t = Template("p", "[X] sits in poland like [Y]")
        q = build_questions([t], [fact("Q1", "p", "Q2", "Poland")])[0]
        kept, dropped = filter_leakage([q])
        assert kept == [] and dropped == [q]

    def test_subword_match_does_not_leak(self):
        t = Template("p", "[X] near yorkshire is [Y]")
        q = build_questions([t], [fact("Q1", "p", "Q2", "York")])[0]
        kept, dropped = filter_leakage([q])
        assert kept == [q] and dropped == []

    def test_run_must_be_contiguous(self):
        f = fact("Q1", "p", "Q2", "New Zealand")
        leaked = build_questions([Template("p", "[X] new zealand hosts [Y]")], [f])[0]
        split = build_questions([Template("p", "[X] new deal in zealand for [Y]")], [f])[0]
        kept, dropped = filter_leakage([leaked, split])
        assert dropped == [leaked] and kept == [split]

    def test_idempotent(self):
        qs = [question(fact("Q1", "p", "Q2", "x"), 0)]
        kept, _ = filter_leakage(qs)
        again, dropped = filter_leakage(kept)
        assert again == kept and dropped == []


class TestEvaluate:
    def worked_example(self):
        f1 = fact("S1", "p", "O1", "alpha")
        f2 = fact("S2", "p", "O1", "alpha")
        questions = [question(f1, i) for i in range(3)]
        questions += [question(f2, i) for i in range(3)]
        predictions = {
            "S1|p|O1#0": ["alpha"],
            "S1|p|O1#1": ["alpha"],
            "S1|p|O1#2": ["alpha"],
            "S2|p|O1#0": ["alpha"],
            "S2|p|O1#1": ["beta"],
            "S2|p|O1#2": ["beta"],
        }
        return questions, predictions

    def test_worked_example(self):
        questions, predictions = self.worked_example()
        report = evaluate(questions, predictions)
        assert report.total.accuracy == pytest.approx(4 / 6)
        assert report.total.consistency == pytest.approx(2 / 3)
        assert report.total.joint == pytest.approx(1 / 2)
        assert report.total.facts == 2
        assert report.total.questions == 6
        assert report.total.pairs == 6

    def test_question_order_does_not_matter(self):
        questions, predictions = self.worked_example()
        shuffled = [questions[i] for i in (5, 2, 0, 4, 1, 3)]
        assert evaluate(shuffled, predictions) == evaluate(questions, predictions)

    def test_predictions_lowercased(self):
        f = fact("S1", "p", "O1", "alpha")
        report = evaluate([question(f, 0)], {"S1|p|O1#0": ["ALPHA"]})
        assert report.total.accuracy == 1.0

    def test_single_prompt_fact_has_no_pairs(self):
        f1 = fact("S1", "p", "O1", "alpha")
        f2 = fact("S2", "p", "O2", "beta")
        questions = [question(f1, 0), question(f2, 0), question(f2, 1)]
        predictions = {
            "S1|p|O1#0": ["wrong"],
            "S2|p|O2#0": ["beta"],
            "S2|p|O2#1": ["gamma"],
        }
        report = evaluate(questions, predictions)
        assert report.total.pairs == 1
        assert report.total.consistency == 0.0
        assert report.total.joint == 0.0

    def test_all_correct(self):
        f = fact("S1", "p", "O1", "alpha")
        questions = [question(f, i) for i in range(4)]
        predictions = {q.question_id: ["alpha"] for q in questions}
        report = evaluate(questions, predictions)
        total = report.total
        assert (total.accuracy, total.consistency, total.joint) == (1.0, 1.0, 1.0)

    def test_missing_prediction_raises(self):
        f = fact("S1", "p", "O1", "alpha")
        with pytest.raises(DataError, match=r"no prediction for question S1\|p\|O1#0"):
            evaluate([question(f, 0)], {})

    def test_empty_question_list(self):
        report = evaluate([], {})
        assert report.total.accuracy == report.total.consistency == report.total.joint == 0.0
        assert report.in_domain is None

    def test_splits_require_full_labels(self):
        f1 = fact("S1", "p", "O1", "alpha")._replace(in_domain=True, unique_object=True)
        f2 = fact("S2", "p", "O2", "beta")  # unlabeled
        questions = [question(f1, 0), question(f2, 0)]
        predictions = {q.question_id: ["alpha"] for q in questions}
        report = evaluate(questions, predictions)
        assert report.in_domain is None and report.n1_or_11 is None

    def test_split_metrics(self):
        f1 = fact("S1", "p", "O1", "alpha")._replace(in_domain=True, unique_object=True)
        f2 = fact("S2", "q", "O2", "beta")._replace(in_domain=False, unique_object=False)
        questions = [question(f1, 0), question(f2, 0)]
        predictions = {"S1|p|O1#0": ["alpha"], "S2|q|O2#0": ["wrong"]}
        report = evaluate(questions, predictions)
        assert report.in_domain.accuracy == 1.0
        assert report.out_of_domain.accuracy == 0.0
        assert report.n1_or_11.questions == 1
        assert report.nm.accuracy == 0.0
        doc = report.to_dict()
        assert doc["format"] == "detmask-report" and doc["version"] == 1
        assert doc["splits"]["in_domain"]["accuracy"] == 1.0


# Template and surface text from bracket pieces, placeholders, whitespace and
# punctuation: slots repeated, missing, split or run together.
SLOTLESS = ["[", "]", "X", "Y", "x", " ", "\t", ".", ",", "'", "-", "is", "of"]
TEXT = st.lists(st.sampled_from(SLOTLESS + ["[X]", "[Y]"]), max_size=8).map("".join)
PLAIN = st.lists(st.sampled_from(SLOTLESS), max_size=6).map("".join)
ONE_SLOT_EACH = st.tuples(PLAIN, PLAIN, PLAIN, st.booleans()).map(
    lambda t: f"{t[0]}[Y]{t[1]}[X]{t[2]}" if t[3] else f"{t[0]}[X]{t[1]}[Y]{t[2]}")


class TestInstantiateOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pattern=st.one_of(TEXT, ONE_SLOT_EACH), subject=TEXT, obj=TEXT)
    def test_matches_find_scan(self, pattern, subject, obj):
        f = fact("S", "p", "O", obj)._replace(subject_surface=subject)
        try:
            expected = instantiate_oracle(pattern, subject, obj)
        except DataError as exc:
            with pytest.raises(type(exc)) as info:
                build_questions([Template("p", pattern)], [f])
            assert str(info.value) == str(exc)
        else:
            assert build_questions([Template("p", pattern)], [f])[0].prompt_tokens == expected


def test_report_splits_match_the_report_stage():
    # `report` reads the splits without loading probe code, so it keeps its own copy.
    assert list(cli._SPLITS) == list(MetricsReport._fields)


class TestConsistencyAgainstOracle:
    def test_random_answer_sets(self):
        rng = np.random.default_rng(77)
        pool = ["a", "b", "c"]
        for trial in range(300):
            n_facts = int(rng.integers(1, 6))
            questions = []
            predictions = {}
            groups = []
            for fi in range(n_facts):
                f = fact(f"S{trial}_{fi}", "p", f"O{fi}", "a")
                n_prompts = int(rng.integers(1, 6))
                answers = []
                for pi in range(n_prompts):
                    q = question(f, pi)
                    questions.append(q)
                    answer = (pool[int(rng.integers(3))],)
                    answers.append(answer)
                    predictions[q.question_id] = list(answer)
                groups.append(answers)
            report = evaluate(questions, predictions)
            assert report.total.consistency == pytest.approx(consistency_oracle(groups))


class TestSplitQuestions:
    def test_cardinality_and_domain_labels(self):
        kb = build_kb(
            [
                Triplet("A", "p", "B"),
                Triplet("C", "p", "D"),
                Triplet("A", "q", "B"),
                Triplet("A", "q", "D"),
            ],
            {"A": ("a",), "B": ("b",), "C": ("c",), "D": ("d",)},
            {"p": ("pp",), "q": ("qq",)},
        )
        facts = [
            fact("A", "p", "B", "b"),
            fact("A", "q", "B", "b"),
        ]
        labeled = split_questions(facts, unique_object_flags_oracle(kb),
                                  {Triplet("A", "p", "B")})
        assert labeled[0].unique_object is True
        assert labeled[0].in_domain is True
        assert labeled[1].unique_object is False
        assert labeled[1].in_domain is False


class TestRunModel:
    def test_uniform_model_answers_lowest_content_token(self):
        vocab = Vocabulary.from_tokens(["apple", "pear", "about", "indeed"])
        f = fact("S1", "p", "O1", "apple")
        qs = [question(f, 0), question(f, 1, n_masks=2)]
        predictions = run_model(zero_state(v=vocab.size, d=4, max_len=8), vocab, qs)
        first = vocab.decode(3)
        assert predictions["S1|p|O1#0"] == [first]
        assert predictions["S1|p|O1#1"] == [first, first]

    def questions(self, vocab: Vocabulary) -> list[ClozeQuestion]:
        """One length group larger than a batch, plus mixed lengths and mask counts."""
        rng = np.random.default_rng(4)
        words = vocab.id_to_token[3:]
        f = fact("S1", "p", "O1", "apple")
        shapes = [(6, 1)] * (PROMPTS_PER_BATCH + 7)
        shapes += [(int(rng.integers(2, 12)), int(rng.integers(1, 4))) for _ in range(60)]
        out = []
        for i, (n, masks) in enumerate(shapes):
            masks = min(masks, n)
            tokens = [words[int(j)] for j in rng.integers(0, len(words), size=n)]
            for j in rng.choice(n, size=masks, replace=False):
                tokens[int(j)] = MASK_TOKEN
            out.append(question(f, i, prompt=tuple(tokens)))
        return out

    def per_question(self, state, vocab, questions) -> dict[str, list[str]]:
        return {
            q.question_id: [vocab.decode(i) for i in
                            predict_fill(state, [[vocab.encode(t) for t in q.prompt_tokens]])[0]]
            for q in questions
        }

    def test_batches_equal_per_question_prediction(self):
        vocab = Vocabulary.from_tokens([f"w{i}" for i in range(40)])
        state = init(ModelConfig(vocab_size=vocab.size, d=8, max_len=12, seed=3))
        for arr in state.params().values():
            arr *= 40.0
        qs = self.questions(vocab)
        batches = length_batches(qs)
        assert max(len(b) for b in batches) == PROMPTS_PER_BATCH
        assert len({len(q.prompt_tokens) for q in qs}) > 5
        assert sum(len(b) for b in batches) == len(qs)
        predictions = run_model(state, vocab, qs)
        assert predictions == self.per_question(state, vocab, qs)
        assert len({tuple(p) for p in predictions.values()}) > 20

    def test_batched_ties_resolve_to_lowest_content_id(self):
        vocab = Vocabulary.from_tokens([f"w{i}" for i in range(40)])
        state = zero_state(v=vocab.size, d=4, max_len=12)
        qs = self.questions(vocab)
        predictions = run_model(state, vocab, qs)
        assert predictions == self.per_question(state, vocab, qs)
        assert all(set(p) == {vocab.decode(3)} for p in predictions.values())
