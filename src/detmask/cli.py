"""Subcommand front end wiring the pipeline stages together.

Every stage reads and writes materialized files, so any step can be re-run
in isolation and outputs can be diffed across runs.  Exit codes: 0 success,
1 usage error (also an argument that is not valid UTF-8, or an output that
resolves to another of the stage's files), 2 data error (also a failed write
to stdout, which ``main`` flushes before the manifest, or to an output file;
argparse's own writes, as for ``--help`` or ``--version``, fail the same
way).  Once a stage that returns a ``StageResult`` succeeds, ``main`` writes
a manifest JSON next to its main output, last of all its files, recording
the input paths, seed, configuration, counters, ``started`` (when the stage
began) and ``duration_s`` (the whole stage, reading and every write
included); a failed stage writes none.  The counters of ``align`` and ``mask`` end with ``skips``,
the ``[doc_id, reason]`` of each paragraph or object group they skipped, in
input order.  Before ``skips``, ``align`` counts the sums that ``stats``
prints averages of (``tokens``, ``object_groups``, ``clue_tokens`` and
``object_tokens``), and ``mask`` counts its training ``items`` and its
``longest`` input; both manifests end with the ``sha256`` of their outputs
(``samples`` and ``ssm``; ``masked`` and ``vocab``).  ``_vouched`` alone
decides when a manifest vouches for files and its tallies: it is the
manifest of the stage that wrote them, it holds each file's sha256 and each
tally, and every tally is an int >= 0.  It refuses another stage's manifest,
``counters`` or ``sha256`` that is not an object, a digest that differs and
a tally that is not an int >= 0; a missing digest or tally only keeps it
from vouching.  ``stats`` prints from the align manifest alone when it
vouches for ``--samples``, exits 2 when it refuses, and otherwise counts the
samples.  ``train`` reads and checks only the lines of the items it keeps
when the mask manifest beside ``--data`` vouches for ``--data`` and
``--vocab``, and every line otherwise.
Each ``cmd_*`` imports only the modules of its own stage.
``main`` sets OPENBLAS_NUM_THREADS to 1 unless it is already set, before any
stage loads numpy: the stages' matrix products are small, and waking a second
BLAS thread for each costs more than it saves.
Every output and the manifest are closed and renamed before ``main``
returns.  The process entry, ``_run`` (``python -m detmask.cli`` and the
``detmask`` script), then flushes stdout and stderr and ends the process
with ``os._exit``, without interpreter teardown; ``main`` itself only
returns its code.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path
from typing import NoReturn

from . import __version__
from .errors import DataError
from .fileio import read_json, write_json

# What a manifest-writing stage returns: main output path, outputs, config,
# counters, and the sha256 of the outputs it records them for.
StageResult = tuple[object, dict, dict, dict, dict]


class UsageError(Exception):
    """Bad flag combination detected after parsing; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; the interface
    # reserves 2 for data errors, so remap.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    # argparse drops an OSError from its writes (``--help``, ``--version``,
    # usage); let it through, as from a stage's write, for ``main`` to report.
    def _print_message(self, message: str, file=None):
        file = file or sys.stderr
        if message and file is not None:  # None if the process started with it closed
            file.write(message)
            file.flush()


def _int_at_least(low: int):
    """An argparse ``type`` for integers of at least ``low``."""

    def int_(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    int_.__name__ = "int"  # argparse names the type in "invalid int value"
    return int_


def _finite_float(text: str) -> float:
    """An argparse ``type`` for floats other than NaN and the infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


_finite_float.__name__ = "float"  # argparse names the type in "invalid float value"


def _distinct_outputs(args, **paths) -> None:
    """Raise ``UsageError`` if two of a stage's outputs (flag=path, the main
    output first, whose manifest is one too), or an output and one of the
    stage's ``args.inputs``, resolve to one file."""
    flag, path = next(iter(paths.items()))
    paths[f"the {flag} manifest"] = f"{path}.manifest.json"
    seen: dict[str, str] = {}
    for name in args.inputs:
        if path := getattr(args, name):
            seen.setdefault(os.path.realpath(path), f"--{name}")
    for flag, path in paths.items():
        if (other := seen.setdefault(os.path.realpath(path), flag)) != flag:
            raise UsageError(f"{other} and {flag} name the same file {path}")


def cmd_build_kb(args) -> StageResult:
    from .kb import load_kb, write_kb_dir

    kb = load_kb(args.triplets, args.entities, args.predicates)
    out = Path(args.out)
    write_kb_dir(kb, out)
    counters = {
        "triplets": len(kb.triplets),
        "entities": len(kb.entity_aliases),
        "predicates": len(kb.predicate_aliases),
    }
    return out / "kb", {"kb": str(out)}, {}, counters, {}


def cmd_align(args) -> StageResult:
    from . import formats
    from .align import build_dataset
    from .kb import load_kb_dir

    out = Path(args.out)
    ssm_out = args.ssm_out or out.with_name(out.stem + ".ssm" + out.suffix)
    _distinct_outputs(args, **{"--out": out, "--ssm-out": ssm_out})
    kb = load_kb_dir(args.kb)
    corpus = formats.read_corpus(args.corpus)
    result = build_dataset(corpus, kb)
    formats.write_samples(args.out, result.deterministic_samples)
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
        "tokens": c.tokens,
        "object_groups": c.object_groups,
        "clue_tokens": c.clue_tokens,
        "object_tokens": c.object_tokens,
        "skips": result.skips,
    }
    outputs = {"samples": str(args.out), "ssm": str(ssm_out)}
    return args.out, outputs, {"threads": args.threads}, counters, _digests(outputs)


def cmd_mask(args) -> StageResult:
    from random import Random

    from . import formats
    from .masking import (MaskScheme, Vocabulary, apply_mask, make_classification_triple,
                          make_contrastive_pair, tokenize_for_spans, tokenize_groups)
    from .tokenizer import token_spans

    if (args.scheme is None) == (args.emit is None):
        raise UsageError("exactly one of --scheme or --emit is required")
    scheme = MaskScheme(args.scheme) if args.scheme else None
    if scheme is not MaskScheme.SALIENT_SPAN and not args.samples:
        raise UsageError("this mode requires --samples")
    vocab_path = args.vocab or Path(args.out).with_name("vocab.json")
    _distinct_outputs(args, **{"--out": args.out, "--vocab": vocab_path})
    samples = formats.read_samples(args.samples) if args.samples else []
    ssm = formats.read_ssm(args.ssm) if args.ssm else []
    if scheme is not MaskScheme.SALIENT_SPAN and not samples:
        raise DataError(f"{args.samples} holds no samples")
    # One tokenization per distinct paragraph, shared by the vocabulary and the samples.
    tokenized = {text: token_spans(text)
                 for text in dict.fromkeys(s.paragraph.text for s in (*samples, *ssm))}
    if not tokenized:
        raise DataError("no input samples (pass --samples and/or --ssm)")
    vocab = Vocabulary.build(tokenized.values())
    formats.write_vocab(vocab_path, vocab)

    skips: list[tuple[str, str]] = []
    groups = items = longest = 0
    if scheme is MaskScheme.SALIENT_SPAN:
        pairs = ((s, tokenize_for_spans(s, tokenized[s.paragraph.text], vocab))
                 for s in ssm or samples)
    else:
        pairs = ((s, ts) for s in samples
                 for ts in tokenize_groups(s, tokenized[s.paragraph.text], vocab))
    # Pairs and the object schemes draw nothing; the others seed a Random per group.
    draws = args.emit == "triple" or scheme not in (None, MaskScheme.DETERMINISTIC,
                                                     MaskScheme.OBJECT_SPAN)

    def masked_lines():
        """Each output line as soon as it is made; a group that raises
        ``DataError`` is skipped whole and recorded.  Each made pair, triple
        or single line is one training item."""
        nonlocal groups, items, longest
        for sample, ts in pairs:
            rng = Random(f"{args.seed}/{groups}") if draws else None
            groups += 1
            try:
                if args.emit == "pair":
                    made = make_contrastive_pair(ts)
                elif args.emit == "triple":
                    made = make_classification_triple(ts, rng)
                else:
                    made = (apply_mask(ts, scheme, rng),)
            except DataError as exc:
                skips.append((sample.paragraph.doc_id, str(exc)))
                continue
            items += 1
            longest = max(longest, len(made[0].input_tokens))
            yield from made

    lines_emitted = formats.write_masked(args.out, masked_lines())
    counters = {
        "groups_processed": groups,
        "lines_emitted": lines_emitted,
        "groups_skipped": len(skips),
        "items": items,
        "longest": longest,
        "skips": skips,
    }
    outputs = {"masked": str(args.out), "vocab": str(vocab_path)}
    config = {"scheme": args.scheme, "emit": args.emit}
    return args.out, outputs, config, counters, _digests(outputs)


def cmd_train(args) -> StageResult:
    from . import formats
    from .model import ModelConfig, save_checkpoint, train

    log_path = args.log or str(args.out) + ".log.jsonl"
    _distinct_outputs(args, **{"--out": args.out, "--log": log_path})
    vocab = formats.read_vocab(args.vocab)
    # Training reads item ``step % len(items)``, so it never reads past item
    # ``steps``.  The file that ``mask`` wrote passes every check, so with its
    # tallies the reader stops there; a manifest that does not vouch is no error.
    manifest_path, tallies = f"{args.data}.manifest.json", None
    if all(os.path.isfile(p) for p in (manifest_path, args.data, args.vocab)):
        try:
            tallies = _vouched(manifest_path, "mask", {"masked": args.data, "vocab": args.vocab},
                               ("items", "longest"))[1]
        except (DataError, OSError):
            pass
    seen: dict = {}
    items, n_items, longest = formats.read_masked(args.data, vocab.size, args.vocab, args.steps,
                                                  whole=tallies is None, tally=seen)
    n_items, longest = tallies or (n_items, longest)
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
        "items": n_items,
        "lines_read": seen["lines_read"],
        "steps_run": len(train_log),
        "final_L_mlm": last.l_mlm,
        "final_L_total": last.l_total,
    }
    outputs = {"checkpoint": str(args.out), "log": str(log_path)}
    return args.out, outputs, run_config, counters, {}


def cmd_probe(args) -> StageResult:
    from . import formats
    from .kb import load_unique_object_flags
    from .model import load_checkpoint
    from .probe import (build_questions, evaluate, filter_leakage, length_batches,
                        run_model, split_questions)

    if (args.kb is None) != (args.pretrain is None):
        raise UsageError("--kb and --pretrain must be given together")
    _distinct_outputs(args, **{"--out": args.out})
    state, _config, vocab = load_checkpoint(args.model)
    templates = formats.read_templates(args.templates)
    facts = formats.read_facts(args.facts)
    if args.kb:
        facts = split_questions(facts, load_unique_object_flags(args.kb),
                                formats.read_sample_triplets(args.pretrain))
    questions = build_questions(templates, facts)
    kept, dropped = filter_leakage(questions)
    if not kept:
        raise DataError("no questions left after leakage filtering")
    predictions = run_model(state, vocab, kept)
    report = evaluate(kept, predictions)
    doc = report.to_dict()
    doc["counts"] = {
        "facts": len(facts),
        "questions_built": len(questions),
        "questions_kept": len(kept),
        "questions_dropped_leakage": len(dropped),
    }
    write_json(args.out, doc)
    counters = {**doc["counts"], "prediction_batches": len(length_batches(kept))}
    return args.out, {"report": str(args.out)}, {}, counters, {}


# The values of masking.MaskScheme, spelled out so that parsing loads no masking code.
_SCHEMES = ("random_token", "whole_word", "salient_span", "object_span", "deterministic")

_SPLITS = ("total", "in_domain", "out_of_domain", "n1_or_11", "nm")
_METRICS = ("accuracy", "consistency", "joint", "facts", "questions")
_COUNTS = ("questions_built", "questions_kept", "questions_dropped_leakage")


def cmd_report(args) -> None:
    doc = read_json(args.report)
    if doc.get("format") != "detmask-report":
        raise DataError(f"{args.report} is not a probe report")
    splits = doc.get("splits", {})
    counts = doc.get("counts", {})
    if not isinstance(splits, dict) or not isinstance(counts, dict):
        raise DataError(f"{args.report}: 'splits' and 'counts' must be objects")
    for name in _SPLITS:
        m = splits.get(name)
        if m is not None and (not isinstance(m, dict)
                              or any(type(m.get(k)) not in (int, float) for k in _METRICS)):
            raise DataError(f"{args.report}: split {name!r} must hold the numbers "
                            + ", ".join(_METRICS))
    if counts and any(type(counts.get(k)) is not int for k in _COUNTS):
        raise DataError(f"{args.report}: 'counts' must hold the integers " + ", ".join(_COUNTS))
    lines = []
    for name in _SPLITS:
        m = splits.get(name)
        try:
            lines.append(f"{name:<14} acc {m['accuracy']:.4f}  consis {m['consistency']:.4f}  "
                         f"joint {m['joint']:.4f}  ({m['facts']} facts, {m['questions']} "
                         "questions)" if m is not None else f"{name:<14} -")
        except OverflowError:  # an int too large for a float
            raise DataError(f"{args.report}: split {name!r} holds a number too large "
                            "for a float") from None
    print(*lines, sep="\n")
    if counts:
        built, kept, dropped = (counts[k] for k in _COUNTS)
        print(f"questions: built {built}, kept {kept}, dropped for leakage {dropped}")


# The align counters that ``stats`` prints from when the manifest matches the samples.
_TALLIES = ("samples_emitted", "tokens", "object_groups", "clue_tokens", "object_tokens")


def _sha256(path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        # A small buffer: a 1 MiB one would set ``mask``'s peak memory.
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def _digests(outputs: dict) -> dict:
    """The sha256 of each output; a FIFO or device has no content left to hash."""
    return {k: _sha256(path) for k, path in outputs.items() if os.path.isfile(path)}


def _vouched(manifest_path, command: str, files: dict,
             keys: tuple) -> tuple[dict, tuple | None]:
    """The ``counters`` of the ``command`` manifest at ``manifest_path``, and
    the values of ``keys`` in them if it vouches for ``files`` (name: path),
    else None.  Raises ``DataError`` if it refuses them (see the module doc)."""
    manifest = read_json(manifest_path)
    if manifest.get("command") != command:
        raise DataError(f"{manifest_path} is not an {command} manifest")
    counters, digests = manifest.get("counters", {}), manifest.get("sha256", {})
    if not isinstance(counters, dict):
        raise DataError(f"{manifest_path}: counters must be an object")
    if not isinstance(digests, dict):
        raise DataError(f"{manifest_path}: sha256 must be an object")
    if not all(name in digests for name in files):
        return counters, None
    for name, path in files.items():
        if digests[name] != _sha256(path):
            raise DataError(f"{path} is not the {name} file that {manifest_path} describes: "
                            "its sha256 differs")
    if not all(k in counters for k in keys):
        return counters, None
    values = tuple(counters[k] for k in keys)
    if not all(type(v) is int and v >= 0 for v in values):
        raise DataError(f"{manifest_path}: counters must be integers >= 0: " + ", ".join(keys))
    return counters, values


def _print_stats(counters, manifest_path, samples: int, tokens: int, groups: int,
                 clues: int, objects: int) -> None:
    """Check the align ``counters`` (None without a manifest) and print the
    summary of ``samples`` with these tallies."""
    paragraphs, candidates, non_deterministic = samples, 0, 0
    if counters is not None:
        paragraphs = counters.get("paragraphs_processed", samples)
        candidates = counters.get("candidate_triplets", 0)
        non_deterministic = counters.get("non_deterministic_triplets", 0)
        if not (all(type(v) is int for v in (paragraphs, candidates, non_deterministic))
                and 0 <= non_deterministic <= candidates and paragraphs >= samples):
            raise DataError(
                f"{manifest_path}: counters must be integers with 0 <= "
                "non_deterministic_triplets <= candidate_triplets and "
                f"paragraphs_processed at least the {samples} samples")
    if not samples:
        raise DataError("no deterministic samples")
    if not groups:
        raise DataError("no sample has a triplet")
    try:
        averages = (tokens / samples, clues / groups, objects / groups)
    except OverflowError:  # only tallies from a manifest can be that large
        raise DataError(f"{manifest_path}: counters must be small enough to average "
                        "as floats") from None
    print(f"{'paragraphs':<24}{paragraphs}")
    print(f"{'samples':<24}{samples}")
    for label, average in zip(("avg tokens/paragraph", "avg clue tokens", "avg object tokens"),
                              averages):
        print(f"{label:<24}{average:.4f}")
    fraction = non_deterministic / candidates if candidates else 0.0
    print(f"{'nondeterministic frac':<24}{fraction:.4f}")
    if counters is None:
        print("(no manifest found: nondeterministic fraction defaults to 0)")


def cmd_stats(args) -> None:
    manifest_path = Path(args.manifest or str(args.samples) + ".manifest.json")
    counters = tallies = None
    if args.manifest or manifest_path.exists():
        counters, tallies = _vouched(manifest_path, "align", {"samples": args.samples}, _TALLIES)
    if tallies is None:  # no manifest, or one without the samples digest or the sums
        from . import formats
        from .align import AlignCounters
        from .tokenizer import token_spans

        samples = formats.read_samples(args.samples)
        tally = AlignCounters()
        for sample in samples:
            tally.add_sample(sample, token_spans(sample.paragraph.text))
        tallies = (len(samples), tally.tokens, tally.object_groups, tally.clue_tokens,
                   tally.object_tokens)
    _print_stats(counters, manifest_path, *tallies)


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
    p.add_argument("--scheme", choices=_SCHEMES)
    p.add_argument("--emit", choices=["pair", "triple"],
                   help="contrastive pair or classification triple")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_mask, inputs=("samples", "ssm"))

    p = sub.add_parser("train", help="train the toy masked language model")
    p.add_argument("--data", required=True, help="masked.jsonl")
    p.add_argument("--vocab", required=True, help="vocab.json")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--steps", type=_int_at_least(1), default=500)
    p.add_argument("--lr", type=_finite_float, default=0.5)
    p.add_argument("--dim", type=_int_at_least(2), default=16, help="embedding dimension")
    p.add_argument("--max-len", type=int, default=64,
                   help="position table size (grows to fit the data)")
    p.add_argument("--lambda-con", type=_finite_float, default=1.0)
    p.add_argument("--lambda-cls", type=_finite_float, default=1.0)
    p.add_argument("--log", help="training log path (default: <out>.log.jsonl)")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
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
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
        t0 = time.monotonic()
        for name, value in vars(args).items():
            if isinstance(value, str):
                try:
                    value.encode()
                except UnicodeEncodeError:
                    flag = "--" + name.replace("_", "-")
                    raise UsageError(f"{flag} is not valid UTF-8: {value!r}") from None
        result = args.func(args)
        # A failed write to a buffered stdout surfaces here, as the stage's error.
        if sys.stdout is not None:  # None if the process started with stdout closed
            sys.stdout.flush()
        if result is not None:
            main_output, outputs, config, counters, digests = result
            write_json(f"{main_output}.manifest.json", {
                "command": args.command,
                "inputs": {k: str(getattr(args, k)) for k in args.inputs if getattr(args, k)},
                "outputs": outputs,
                "seed": getattr(args, "seed", None),
                "config": config,
                "started": started,
                "duration_s": round(time.monotonic() - t0, 6),
                "counters": counters,
                **({"sha256": digests} if digests else {}),
            })
    except (UsageError, DataError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2
    return 0


def _run() -> NoReturn:
    """The process entry: ``main``, then flush stdout and stderr and end with
    ``main``'s code, skipping interpreter teardown.  ``main`` has reported a
    failed write, so what that left in a buffer is dropped."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    _run()
