"""Subcommand front end wiring the pipeline stages together.

Every stage reads and writes materialized files, so any step can be re-run
in isolation and outputs can be diffed across runs.  Exit codes: 0 success,
1 usage error, 2 data error.  Each run writes a RunManifest JSON next to its
main output recording paths, seed, configuration, timing and counters.
Logging verbosity comes from the DETMASK_LOG environment variable
(error, info or debug; default error).
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
from .kb import load_kb, load_kb_dir
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
from .probe import build_questions, evaluate, filter_leakage, run_model, split_questions

log = logging.getLogger("detmask.cli")


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


class _Manifest:
    def __init__(self, command: str, seed: Optional[int] = None):
        self.command = command
        self.seed = seed
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.config: dict = {}
        self.counters: dict = {}
        self._started = datetime.now(timezone.utc).isoformat(timespec="seconds")
        self._t0 = time.monotonic()

    def write(self, main_output) -> None:
        doc = {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "seed": self.seed,
            "config": self.config,
            "started": self._started,
            "duration_s": round(time.monotonic() - self._t0, 6),
            "counters": self.counters,
        }
        formats.write_json(str(main_output) + ".manifest.json", doc)


def cmd_build_kb(args) -> int:
    kb = load_kb(args.triplets, args.entities, args.predicates)
    manifest = _Manifest("build-kb")
    manifest.inputs = {
        "triplets": str(args.triplets),
        "entities": str(args.entities),
        "predicates": str(args.predicates),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "triplets.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for t in sorted(kb.triplets):
            fh.write(f"{t.subject}\t{t.predicate}\t{t.object}\n")
    with open(out / "entities.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for eid in sorted(kb.entity_aliases):
            aliases = kb.entity_aliases[eid]
            extra = "|".join(aliases[1:])
            fh.write(f"{eid}\t{aliases[0]}\t{extra}\n" if extra else f"{eid}\t{aliases[0]}\n")
    with open(out / "predicates.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for pid in sorted(kb.predicate_aliases):
            fh.write(f"{pid}\t{'|'.join(kb.predicate_aliases[pid])}\n")
    manifest.outputs = {"kb": str(out)}
    manifest.counters = {
        "triplets": len(kb.triplets),
        "entities": len(kb.entity_aliases),
        "predicates": len(kb.predicate_aliases),
    }
    manifest.write(out / "kb")
    return 0


def cmd_align(args) -> int:
    kb = load_kb_dir(args.kb)
    corpus = formats.read_corpus(args.corpus)
    result = build_dataset(corpus, kb, threads=args.threads)
    formats.write_samples(args.out, result.deterministic_samples)
    out = Path(args.out)
    ssm_out = args.ssm_out or out.with_name(out.stem + ".ssm" + out.suffix)
    formats.write_ssm(ssm_out, result.span_samples)
    c = result.counters
    manifest = _Manifest("align", args.seed)
    manifest.inputs = {"kb": str(args.kb), "corpus": str(args.corpus)}
    manifest.outputs = {"samples": str(args.out), "ssm": str(ssm_out)}
    manifest.config = {"threads": args.threads}
    manifest.counters = {
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
    manifest.write(args.out)
    return 0


def cmd_mask(args) -> int:
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
    manifest = _Manifest("mask", args.seed)
    manifest.inputs = {
        k: str(v) for k, v in (("samples", args.samples), ("ssm", args.ssm)) if v
    }
    manifest.outputs = {"masked": str(args.out), "vocab": str(vocab_path)}
    manifest.config = {"scheme": args.scheme, "emit": args.emit}
    manifest.counters = {
        "groups_processed": groups,
        "lines_emitted": len(out_lines),
        "groups_skipped": sum(skipped.values()),
        "skip_reasons": dict(sorted(skipped.items())),
    }
    manifest.write(args.out)
    return 0


def cmd_train(args) -> int:
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
    manifest = _Manifest("train", args.seed)
    manifest.inputs = {"data": str(args.data), "vocab": str(args.vocab)}
    manifest.outputs = {"checkpoint": str(args.out), "log": str(log_path)}
    manifest.config = {
        "steps": args.steps,
        "lr": args.lr,
        "dim": args.dim,
        "max_len": config.max_len,
        "lambda_con": args.lambda_con,
        "lambda_cls": args.lambda_cls,
    }
    last = train_log[-1]
    manifest.counters = {
        "items": len(items),
        "steps_run": len(train_log),
        "final_L_mlm": last.l_mlm,
        "final_L_total": last.l_total,
    }
    manifest.write(args.out)
    return 0


def cmd_probe(args) -> int:
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
    manifest = _Manifest("probe", args.seed)
    manifest.inputs = {
        k: str(v)
        for k, v in (
            ("model", args.model),
            ("templates", args.templates),
            ("facts", args.facts),
            ("kb", args.kb),
            ("pretrain", args.pretrain),
        )
        if v
    }
    manifest.outputs = {"report": str(args.out)}
    manifest.counters = dict(doc["counts"])
    manifest.write(args.out)
    return 0


def _fmt_metrics(name: str, m: Optional[dict]) -> str:
    if not m:
        return f"{name:<14} -"
    return (
        f"{name:<14} acc {m['accuracy']:.4f}  consis {m['consistency']:.4f}  "
        f"joint {m['joint']:.4f}  ({m['facts']} facts, {m['questions']} questions)"
    )


def cmd_report(args) -> int:
    doc = formats.read_json(args.report)
    if doc.get("format") != "detmask-report":
        raise DataError(f"{args.report} is not a probe report")
    splits = doc.get("splits", {})
    for name in ("total", "in_domain", "out_of_domain", "n1_or_11", "nm"):
        print(_fmt_metrics(name, splits.get(name)))
    counts = doc.get("counts")
    if counts:
        print(
            f"questions: built {counts.get('questions_built')}, kept "
            f"{counts.get('questions_kept')}, dropped for leakage "
            f"{counts.get('questions_dropped_leakage')}"
        )
    return 0


def cmd_stats(args) -> int:
    samples = formats.read_samples(args.samples)
    manifest_path = Path(args.manifest or str(args.samples) + ".manifest.json")
    counters = None
    if manifest_path.exists():
        c = formats.read_json(manifest_path).get("counters", {})
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
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="detmask", description=__doc__)
    parser.add_argument("--version", action="version", version=f"detmask {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("build-kb", help="validate and canonicalize a knowledge base")
    p.add_argument("--triplets", required=True)
    p.add_argument("--entities", required=True)
    p.add_argument("--predicates", required=True)
    p.add_argument("--out", required=True, help="output KB directory")
    p.set_defaults(func=cmd_build_kb)

    p = sub.add_parser("align", help="align corpus paragraphs against the KB")
    p.add_argument("--kb", required=True, help="KB directory from build-kb")
    p.add_argument("--corpus", required=True, help="corpus.jsonl")
    p.add_argument("--out", required=True, help="samples.jsonl (deterministic stream)")
    p.add_argument("--ssm-out", help="entity-span stream (default: <out>.ssm.jsonl)")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("mask", help="materialize masked training inputs")
    p.add_argument("--samples", help="samples.jsonl from align")
    p.add_argument("--ssm", help="ssm.jsonl from align (for salient_span)")
    p.add_argument("--out", required=True, help="masked.jsonl")
    p.add_argument("--vocab", help="vocabulary path (default: vocab.json next to --out)")
    p.add_argument("--scheme", choices=[s.value for s in MaskScheme])
    p.add_argument("--emit", choices=["pair", "triple"],
                   help="contrastive pair or classification triple")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mask)

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
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("probe", help="score a model on multi-prompt cloze questions")
    p.add_argument("--model", required=True, help="checkpoint from train")
    p.add_argument("--templates", required=True, help="templates.jsonl")
    p.add_argument("--facts", required=True, help="facts.jsonl")
    p.add_argument("--out", required=True, help="report.json")
    p.add_argument("--kb", help="KB directory (enables the split breakdowns)")
    p.add_argument("--pretrain", help="samples.jsonl the model was trained on")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_probe)

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
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except DetmaskError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
