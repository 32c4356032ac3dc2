"""Subcommand front end wiring the pipeline stages together.

Every stage reads and writes materialized files, so any step can be re-run
in isolation and outputs can be diffed across runs.  Exit codes: 0 success,
1 usage error, 2 data error.  ``main`` runs each stage: once a stage that
returns a ``StageResult`` succeeds, ``main`` writes a manifest JSON next to
its main output, last of all its files, recording the input paths, seed,
configuration, counters, ``started`` (when the stage began) and
``duration_s`` (the whole stage, reading and every write included).  A
failed stage writes no manifest.  Logging verbosity comes from the
DETMASK_LOG environment variable (error, info or debug; default error).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, formats
from .align import AlignCounters, build_dataset, compute_stats
from .errors import DataError, DetmaskError, EmptyDataset
from .kb import load_kb, load_kb_dir, write_kb_dir
from .masking import (
    MaskScheme,
    Vocabulary,
    apply_mask,
    make_classification_triple,
    make_contrastive_pair,
    tokenize_for_spans,
    tokenize_groups,
)
from .model import ModelConfig, load_checkpoint, save_checkpoint, train
from .probe import (
    build_questions,
    evaluate,
    filter_leakage,
    length_batches,
    run_model,
    split_questions,
)

log = logging.getLogger("detmask.cli")

# What a manifest-writing stage returns: main output path, outputs, config, counters.
StageResult = tuple[object, dict, dict, dict]


class UsageError(Exception):
    """Bad flag combination detected after parsing; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; the interface
    # reserves 2 for data errors, so remap.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("DETMASK_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def cmd_build_kb(args) -> StageResult:
    kb = load_kb(args.triplets, args.entities, args.predicates)
    out = Path(args.out)
    write_kb_dir(kb, out)
    counters = {
        "triplets": len(kb.triplets),
        "entities": len(kb.entity_aliases),
        "predicates": len(kb.predicate_aliases),
    }
    return out / "kb", {"kb": str(out)}, {}, counters


def cmd_align(args) -> StageResult:
    kb = load_kb_dir(args.kb)
    corpus = formats.read_corpus(args.corpus)
    result = build_dataset(corpus, kb)
    formats.write_samples(args.out, result.deterministic_samples)
    out = Path(args.out)
    ssm_out = args.ssm_out or out.with_name(out.stem + ".ssm" + out.suffix)
    formats.write_ssm(ssm_out, result.span_samples)
    c = result.counters
    counters = {
        "paragraphs_processed": c.paragraphs,
        "paragraphs_skipped": c.skipped,
        "ssm_emitted": len(result.span_samples),
        "paragraphs_no_output": c.paragraphs - c.skipped - len(result.span_samples),
        "samples_emitted": len(result.deterministic_samples),
        "candidate_triplets": c.candidates,
        "non_deterministic_triplets": c.non_deterministic,
        "unmatched_deterministic_triplets": c.unmatched_deterministic,
        "emitted_triplets": c.emitted_triplets,
    }
    outputs = {"samples": str(args.out), "ssm": str(ssm_out)}
    return args.out, outputs, {"threads": args.threads}, counters


def cmd_mask(args) -> StageResult:
    if (args.scheme is None) == (args.emit is None):
        raise UsageError("exactly one of --scheme or --emit is required")
    samples = formats.read_samples(args.samples) if args.samples else []
    ssm = formats.read_ssm(args.ssm) if args.ssm else []
    texts = [s.paragraph.text for s in samples] + [s.paragraph.text for s in ssm]
    if not texts:
        raise EmptyDataset("no input samples (pass --samples and/or --ssm)")
    vocab = Vocabulary.build(texts)
    vocab_path = args.vocab or Path(args.out).with_name("vocab.json")
    formats.write_vocab(vocab_path, vocab)

    out_lines = []
    skipped: Counter = Counter()
    groups = 0
    scheme = MaskScheme(args.scheme) if args.scheme else None
    if scheme is MaskScheme.SALIENT_SPAN:
        pairs = ((s, tokenize_for_spans(s, vocab)) for s in ssm or samples)
    elif not samples:
        raise UsageError("this mode requires --samples")
    else:
        pairs = ((s, ts) for s in samples for ts in tokenize_groups(s, vocab))
    for sample, ts in pairs:
        rng = np.random.default_rng([args.seed, groups])
        groups += 1
        try:
            if args.emit == "pair":
                out_lines.extend(make_contrastive_pair(ts))
            elif args.emit == "triple":
                out_lines.extend(make_classification_triple(ts, rng))
            else:
                out_lines.append(apply_mask(ts, scheme, rng))
        except DataError as exc:
            skipped[type(exc).__name__] += 1
            log.info("skipping %s: %s", sample.paragraph.doc_id, exc)
    formats.write_masked(args.out, out_lines)
    counters = {
        "groups_processed": groups,
        "lines_emitted": len(out_lines),
        "groups_skipped": sum(skipped.values()),
        "skip_reasons": dict(sorted(skipped.items())),
    }
    outputs = {"masked": str(args.out), "vocab": str(vocab_path)}
    return args.out, outputs, {"scheme": args.scheme, "emit": args.emit}, counters


def cmd_train(args) -> StageResult:
    masked = formats.read_masked(args.data)
    items = formats.group_items(masked)
    vocab = formats.read_vocab(args.vocab)
    for m in masked:
        ids = m.input_tokens + m.targets
        if ids and (min(ids) < 0 or max(ids) >= vocab.size):
            raise DataError(f"{args.data}: {m.doc_id} has a token id outside the "
                            f"{vocab.size}-token vocabulary {args.vocab}")
    longest = 0
    for item in items:
        members = (item,) if not isinstance(item, tuple) else item
        longest = max(longest, max(len(m.input_tokens) for m in members))
    config = ModelConfig(
        vocab_size=vocab.size,
        d=args.dim,
        max_len=max(args.max_len, longest),
        seed=args.seed,
        lambda_con=args.lambda_con,
        lambda_cls=args.lambda_cls,
    )
    state, train_log = train(config, items, args.steps, args.lr)
    save_checkpoint(args.out, state, config, vocab)
    log_path = args.log or str(args.out) + ".log.jsonl"
    formats.write_train_log(log_path, train_log)
    run_config = {
        "steps": args.steps,
        "lr": args.lr,
        "dim": args.dim,
        "max_len": config.max_len,
        "lambda_con": args.lambda_con,
        "lambda_cls": args.lambda_cls,
    }
    last = train_log[-1]
    counters = {
        "items": len(items),
        "steps_run": len(train_log),
        "final_L_mlm": last.l_mlm,
        "final_L_total": last.l_total,
    }
    return args.out, {"checkpoint": str(args.out), "log": str(log_path)}, run_config, counters


def cmd_probe(args) -> StageResult:
    if (args.kb is None) != (args.pretrain is None):
        raise UsageError("--kb and --pretrain must be given together")
    state, _config, vocab = load_checkpoint(args.model)
    if vocab is None:
        raise DataError("checkpoint does not embed a vocabulary")
    templates = formats.read_templates(args.templates)
    facts = formats.read_facts(args.facts)
    if args.kb:
        kb = load_kb_dir(args.kb)
        pretraining = {
            t.triplet for s in formats.read_samples(args.pretrain) for t in s.aligned
        }
        facts = split_questions(facts, kb, pretraining)
    questions = build_questions(templates, facts)
    kept, dropped = filter_leakage(questions)
    if not kept:
        raise EmptyDataset("no questions left after leakage filtering")
    predictions = run_model(state, vocab, kept)
    report = evaluate(kept, predictions)
    doc = report.to_dict()
    doc["counts"] = {
        "facts": len(facts),
        "questions_built": len(questions),
        "questions_kept": len(kept),
        "questions_dropped_leakage": len(dropped),
    }
    formats.write_json(args.out, doc)
    counters = {**doc["counts"], "prediction_batches": len(length_batches(kept))}
    return args.out, {"report": str(args.out)}, {}, counters


_SPLITS = ("total", "in_domain", "out_of_domain", "n1_or_11", "nm")
_METRICS = ("accuracy", "consistency", "joint", "facts", "questions")


def _fmt_metrics(name: str, m: Optional[dict]) -> str:
    if not m:
        return f"{name:<14} -"
    return (
        f"{name:<14} acc {m['accuracy']:.4f}  consis {m['consistency']:.4f}  "
        f"joint {m['joint']:.4f}  ({m['facts']} facts, {m['questions']} questions)"
    )


def cmd_report(args) -> None:
    doc = formats.read_json(args.report)
    if doc.get("format") != "detmask-report":
        raise DataError(f"{args.report} is not a probe report")
    splits = doc.get("splits", {})
    counts = doc.get("counts") or {}
    if not isinstance(splits, dict) or not isinstance(counts, dict):
        raise DataError(f"{args.report}: 'splits' and 'counts' must be objects")
    for name in _SPLITS:
        m = splits.get(name)
        if m and (not isinstance(m, dict)
                  or any(type(m.get(k)) not in (int, float) for k in _METRICS)):
            raise DataError(f"{args.report}: split {name!r} must hold the numbers "
                            + ", ".join(_METRICS))
    for name in _SPLITS:
        print(_fmt_metrics(name, splits.get(name)))
    if counts:
        print(
            f"questions: built {counts.get('questions_built')}, kept "
            f"{counts.get('questions_kept')}, dropped for leakage "
            f"{counts.get('questions_dropped_leakage')}"
        )


def cmd_stats(args) -> None:
    samples = formats.read_samples(args.samples)
    manifest_path = Path(args.manifest or str(args.samples) + ".manifest.json")
    counters = None
    if manifest_path.exists():
        c = formats.read_json(manifest_path).get("counters", {})
        if not isinstance(c, dict) or any(type(v) is not int for v in c.values()):
            raise DataError(f"{manifest_path}: counters must be an object of integers")
        counters = AlignCounters(
            paragraphs=c.get("paragraphs_processed", len(samples)),
            skipped=c.get("paragraphs_skipped", 0),
            candidates=c.get("candidate_triplets", 0),
            non_deterministic=c.get("non_deterministic_triplets", 0),
            unmatched_deterministic=c.get("unmatched_deterministic_triplets", 0),
            emitted_triplets=c.get("emitted_triplets", 0),
        )
    stats = compute_stats(samples, counters)
    print(f"{'paragraphs':<24}{stats.paragraph_count}")
    print(f"{'samples':<24}{stats.sample_count}")
    print(f"{'avg tokens/paragraph':<24}{stats.avg_tokens_per_paragraph:.4f}")
    print(f"{'avg clue tokens':<24}{stats.avg_clue_tokens:.4f}")
    print(f"{'avg object tokens':<24}{stats.avg_object_tokens:.4f}")
    print(f"{'nondeterministic frac':<24}{stats.nondeterministic_fraction:.4f}")
    if counters is None:
        print("(no manifest found: nondeterministic fraction defaults to 0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="detmask", description=__doc__)
    parser.add_argument("--version", action="version", version=f"detmask {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("build-kb", help="validate and canonicalize a knowledge base")
    p.add_argument("--triplets", required=True)
    p.add_argument("--entities", required=True)
    p.add_argument("--predicates", required=True)
    p.add_argument("--out", required=True, help="output KB directory")
    p.set_defaults(func=cmd_build_kb, inputs=("triplets", "entities", "predicates"))

    p = sub.add_parser("align", help="align corpus paragraphs against the KB")
    p.add_argument("--kb", required=True, help="KB directory from build-kb")
    p.add_argument("--corpus", required=True, help="corpus.jsonl")
    p.add_argument("--out", required=True, help="samples.jsonl (deterministic stream)")
    p.add_argument("--ssm-out", help="entity-span stream (default: <out>.ssm.jsonl)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_align, inputs=("kb", "corpus"))

    p = sub.add_parser("mask", help="materialize masked training inputs")
    p.add_argument("--samples", help="samples.jsonl from align")
    p.add_argument("--ssm", help="ssm.jsonl from align (for salient_span)")
    p.add_argument("--out", required=True, help="masked.jsonl")
    p.add_argument("--vocab", help="vocabulary path (default: vocab.json next to --out)")
    p.add_argument("--scheme", choices=[s.value for s in MaskScheme])
    p.add_argument("--emit", choices=["pair", "triple"],
                   help="contrastive pair or classification triple")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mask, inputs=("samples", "ssm"))

    p = sub.add_parser("train", help="train the toy masked language model")
    p.add_argument("--data", required=True, help="masked.jsonl")
    p.add_argument("--vocab", required=True, help="vocab.json")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--dim", type=int, default=16, help="embedding dimension")
    p.add_argument("--max-len", type=int, default=64,
                   help="position table size (grows to fit the data)")
    p.add_argument("--lambda-con", type=float, default=1.0)
    p.add_argument("--lambda-cls", type=float, default=1.0)
    p.add_argument("--log", help="training log path (default: <out>.log.jsonl)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train, inputs=("data", "vocab"))

    p = sub.add_parser("probe", help="score a model on multi-prompt cloze questions")
    p.add_argument("--model", required=True, help="checkpoint from train")
    p.add_argument("--templates", required=True, help="templates.jsonl")
    p.add_argument("--facts", required=True, help="facts.jsonl")
    p.add_argument("--out", required=True, help="report.json")
    p.add_argument("--kb", help="KB directory (enables the split breakdowns)")
    p.add_argument("--pretrain", help="samples.jsonl the model was trained on")
    p.set_defaults(func=cmd_probe, inputs=("model", "templates", "facts", "kb", "pretrain"))

    p = sub.add_parser("report", help="pretty-print a probe report")
    p.add_argument("--report", required=True, help="report.json from probe")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("stats", help="dataset summary for aligned samples")
    p.add_argument("--samples", required=True, help="samples.jsonl from align")
    p.add_argument("--manifest", help="align manifest (default: <samples>.manifest.json)")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    t0 = time.monotonic()
    try:
        result = args.func(args)
        if result is not None:
            main_output, outputs, config, counters = result
            formats.write_json(f"{main_output}.manifest.json", {
                "command": args.command,
                "inputs": {k: str(getattr(args, k)) for k in args.inputs if getattr(args, k)},
                "outputs": outputs,
                "seed": getattr(args, "seed", None),
                "config": config,
                "started": started,
                "duration_s": round(time.monotonic() - t0, 6),
                "counters": counters,
            })
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except (DetmaskError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
