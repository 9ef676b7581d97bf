"""Command-line surface: prepare, encode, decode, sample, evaluate,
roundtrip, and bench. Exit codes: 0 success, 1 usage, 2 data error,
3 invariant breach. Set CTMT_LOG to control log verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import shlex
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import corpus_io, lexical, mining, structural
from .errors import CorpusFormatError, CtmtError, OutputParseError
from .metrics import WINDOW, EvalRecord, evaluate_records, score, sentence_metrics
from .types import SerializedExample, TemplateVerdict, TokenSeq
from .vocab import DEFAULT_VOCAB, ReservedVocab

log = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # every option is spelled in full
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


# ---------------------------------------------------------------------------
# translator bridge

def shard_ranges(n: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous index ranges covering 0..n, at most ``shards`` of them."""
    if n <= 0:
        return []
    shards = max(1, min(shards, n))
    base, rem = divmod(n, shards)
    ends = [s * base + min(s, rem) for s in range(shards + 1)]
    return list(zip(ends, ends[1:]))


class TranslatorBridge:
    """Child translator speaking a line protocol on its standard streams.

    Each request line carries the encoder input, a tab, then the forced
    decoder prefix; the child answers with one continuation line and nothing else.
    Nothing is prepended or reordered, so any wrapped model that honors
    forced prefixes can sit behind the bridge. The pipes carry UTF-8 bytes,
    and an answer is read as a --model-output line is: it ends at LF.
    """

    def __init__(self, command: str):
        self.command = command
        self.proc = subprocess.Popen(
            shlex.split(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )

    def translate(self, encoder_tokens: TokenSeq, prefix_tokens: TokenSeq) -> TokenSeq:
        assert self.proc.stdin is not None and self.proc.stdout is not None
        request = " ".join(encoder_tokens) + "\t" + " ".join(prefix_tokens) + "\n"
        self.proc.stdin.write(request.encode("utf-8"))
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise CtmtError(f"translator {self.command!r} closed its output stream")
        try:
            return corpus_io.split_tokens(line.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(f"not valid UTF-8 (translator {self.command!r})") from exc

    def close(self) -> bytes:
        """End the requests and reap the child; return what it wrote after the
        last answer read, buffered or not, or b"" once closed."""
        if self.proc.stdout.closed:
            return b""
        with contextlib.suppress(BrokenPipeError):  # a child that is gone is reaped below
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        with self.proc.stdout as rest:
            return rest.read()

    def __enter__(self) -> "TranslatorBridge":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# shared input handling and the line loop

def _load_vocab(args) -> ReservedVocab:
    if getattr(args, "vocab", None):
        return corpus_io.load_vocab(args.vocab)
    return DEFAULT_VOCAB


def _tagged_vocab(args) -> ReservedVocab:
    """The vocabulary of a command that reads markup in structural mode,
    where only registered tags tell markup from text."""
    vocab = _load_vocab(args)
    if args.mode == "structural" and not vocab.registered_tags:
        raise UsageError("--mode structural needs a --vocab with registered tags")
    return vocab


def _read_corpus(args):
    """The vocabulary and corpus a serializing command names; structural
    lines take no constraints or spans."""
    if args.mode == "structural" and (args.constraints or args.spans):
        raise UsageError("--mode structural takes no --constraints or --spans")
    tgt = getattr(args, "tgt", None)
    return _tagged_vocab(args), corpus_io.read_corpus(args.src, tgt, args.constraints, args.spans)


def _run_lines(n_lines: int, line_fn) -> tuple[list, int]:
    """The results of line_fn(i) for the kept lines, in line order, and the
    number of lines skipped (and logged) because line_fn raised CtmtError."""
    kept, skipped = [], 0
    for i in range(n_lines):
        try:
            kept.append(line_fn(i))
        except CtmtError as exc:
            log.warning("line %d skipped: %s", i + 1, exc)
            skipped += 1
    return kept, skipped


# ---------------------------------------------------------------------------
# prepare / encode

def _span_side(spans, side: int):
    """The source (0) or target (1) spans of a line's span pairs, if given."""
    return None if spans is None else [pair[side] for pair in spans]


def _serialize_line(
    mode: str, corpus, i: int, vocab: ReservedVocab
) -> tuple[SerializedExample, dict]:
    """Line i of a training corpus (as corpus_io.read_corpus returns it)
    serialized, with its meta record."""
    src, tgt, constraint_sets, span_sets = corpus
    if mode == "structural":
        example = structural.build_structural_pair(src[i], tgt[i], vocab=vocab)
    else:
        spans = span_sets[i]
        example = lexical.build_training_pair(
            src[i], tgt[i], constraint_sets[i], _span_side(spans, 1),
            vocab=vocab, src_spans=_span_side(spans, 0),
        )
    return example, corpus_io.meta_record(mode, example, i)


def _write_serialized(out_dir, stem: str, second: str, kept: list, skipped: int) -> int:
    """Write the kept lines' (encoder stream, second stream, meta) triples
    as ``stem.xprime``, ``stem.<second>`` and ``stem.meta.jsonl``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus_io.write_token_lines(out / f"{stem}.xprime", [xp for xp, _, _ in kept])
    corpus_io.write_token_lines(out / f"{stem}.{second}", [s for _, s, _ in kept])
    corpus_io.write_jsonl(out / f"{stem}.meta.jsonl", [meta for _, _, meta in kept])
    print(json.dumps({"written": len(kept), "skipped": skipped}, sort_keys=True))
    return 0


def cmd_prepare(args) -> int:
    vocab, corpus = _read_corpus(args)

    def line(i: int):
        example, meta = _serialize_line(args.mode, corpus, i, vocab)
        return example.encoder_input, example.target_output, meta

    kept, skipped = _run_lines(len(corpus[0]), line)
    return _write_serialized(args.out_dir, "train", "yprime", kept, skipped)


def cmd_encode(args) -> int:
    vocab, (src, _, constraint_sets, span_sets) = _read_corpus(args)

    def line(i: int):
        if args.mode == "structural":
            example = structural.build_structural_input(src[i], vocab=vocab)
        else:
            example = lexical.build_inference_input(
                src[i], constraint_sets[i], vocab=vocab, src_spans=_span_side(span_sets[i], 0)
            )
        meta = corpus_io.meta_record(args.mode, example, i)
        return example.encoder_input, example.decoder_prefix, meta

    kept, skipped = _run_lines(len(src), line)
    return _write_serialized(args.out_dir, "encode", "prefix", kept, skipped)


# ---------------------------------------------------------------------------
# decode

def decode_line(
    mode: str, tail: TokenSeq, meta: dict, vocab: ReservedVocab
) -> tuple[TokenSeq, dict]:
    """Reconstruct one model output line, never raising on bad content.

    ``meta`` is the line's record as corpus_io.read_meta returns it. A line
    that fails to parse or validate is expanded from its best-effort
    reading, where C-nonterminals with no constraint expand to nothing.
    """
    constraints = meta.get("constraints", [])
    audit: dict = {"index": meta.get("index"), "fallback": False, "warnings": []}
    try:
        if mode == "structural":
            parsed = structural.parse_structural_output(tail, vocab)
            verdict = structural.validate_structural_template(
                parsed.template, meta.get("source_tags", []), vocab
            )
        else:
            parsed = lexical.parse_output(tail, vocab, len(constraints))
            verdict = lexical.validate_template(parsed.template, len(constraints))
    except OutputParseError as exc:
        parsed, verdict = exc.parsed, TemplateVerdict(False, str(exc))
        audit.update(fallback=True, omitted_y=0)
    else:
        audit.update(warnings=parsed.warnings, omitted_y=len(parsed.omitted()))
        if mode == "structural":
            audit["tags"] = parsed.template.tags()
        else:
            audit["constraint_indices"] = parsed.template.constraint_indices()
    audit.update(valid=verdict.valid, reason=verdict.reason)
    d_table = lexical.constraint_derivation(constraints)
    if not verdict.valid:
        for nt in parsed.template.nonterminals("C"):
            d_table.setdefault(nt, [])
    return lexical.reconstruct(parsed.template, d_table, parsed.derivation), audit


def _template_accuracy(audits: list[dict]) -> float:
    """Percentage of decode audits whose template is valid; 100 for none."""
    return 100.0 * sum(1 for a in audits if a.get("valid")) / len(audits) if audits else 100.0


def _read_model_outputs(args, metas: list[dict]) -> list[TokenSeq]:
    # Every answer is read or translated before any line is decoded, so the
    # encoder inputs and prefixes are freed first: one translate-then-decode
    # loop per shard raised the infer benchmark's peak RSS by 0.9-1.8 MiB.
    def aligned(path):
        return corpus_io.check_line_count(len(metas), corpus_io.read_token_lines(path), path)

    if args.model_output is not None:
        return aligned(args.model_output)
    enc_dir = Path(args.encode_dir)
    xprime = aligned(enc_dir / "encode.xprime")
    prefixes = aligned(enc_dir / "encode.prefix")

    def translate_range(start: int, end: int) -> list[TokenSeq]:
        with TranslatorBridge(args.translator) as bridge:
            answers = [bridge.translate(xprime[i], prefixes[i]) for i in range(start, end)]
            if surplus := bridge.close():
                lines = surplus.count(b"\n") + (not surplus.endswith(b"\n"))
                raise CorpusFormatError(
                    f"translator {args.translator!r} sent {lines} lines no request asked for"
                )
        return answers

    # one child per contiguous range; threads only overlap the children's latency
    ranges = shard_ranges(len(metas), args.shards)
    if len(ranges) <= 1:
        return translate_range(*ranges[0]) if ranges else []
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        return [a for part in pool.map(lambda r: translate_range(*r), ranges) for a in part]


def cmd_decode(args) -> int:
    if (args.model_output is None) == (args.translator is None):
        raise UsageError("decode takes exactly one of --model-output and --translator")
    if args.model_output is not None and args.shards != 1:
        raise UsageError("--shards counts translator children; --model-output takes none")
    try:
        if args.translator is not None and not shlex.split(args.translator):
            raise UsageError("--translator: empty command")
    except ValueError as exc:
        raise UsageError(f"--translator: {exc}") from exc
    vocab = _load_vocab(args)
    enc_dir = Path(args.encode_dir)
    metas = corpus_io.read_meta(enc_dir / "encode.meta.jsonl")
    tails = _read_model_outputs(args, metas)
    out_dir = Path(args.out_dir) if args.out_dir else enc_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    results = [decode_line(meta["mode"], tail, meta, vocab) for meta, tail in zip(metas, tails)]
    sentences = [s for s, _ in results]
    audits = [a for _, a in results]
    corpus_io.write_token_lines(out_dir / "decode.out", sentences)
    corpus_io.write_jsonl(out_dir / "decode.audit.jsonl", audits)
    summary = {
        "sentences": len(audits),
        "template_accuracy": _template_accuracy(audits),
        "omitted_nonterminals": sum(a.get("omitted_y", 0) for a in audits),
        "fallback_lines": sum(1 for a in audits if a.get("fallback")),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# sample

def cmd_sample(args) -> int:
    try:
        cfg = mining.SamplerConfig(
            max_constraints=args.max_constraints,
            min_len=args.min_len,
            max_len=args.max_len,
            rng_seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    pairs = corpus_io.read_bitext(args.src, args.tgt)
    alignments = corpus_io.read_alignments(args.align, pairs)

    def line(i: int):
        x, y = pairs[i]
        extracted = mining.extract_phrase_pairs(x, y, alignments[i], cfg.max_len)
        return mining.sample_phrase_pairs(extracted, cfg, mining.sentence_rng(cfg.rng_seed, i))

    chosen_sets, _ = _run_lines(len(pairs), line)  # line raises no CtmtError
    constraint_sets = [mining.as_constraints(chosen) for chosen in chosen_sets]
    span_sets = [[(p.src_span, p.tgt_span) for p in chosen] for chosen in chosen_sets]
    corpus_io.write_constraints(f"{args.out}.cons.jsonl", constraint_sets)
    corpus_io.write_spans(f"{args.out}.spans.jsonl", span_sets)
    total = sum(len(cs) for cs in constraint_sets)
    print(json.dumps({"sentences": len(pairs), "constraints": total}, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# evaluate

def cmd_evaluate(args) -> int:
    vocab = _tagged_vocab(args)
    hyps, refs, constraint_sets, _ = corpus_io.read_corpus(args.hyp, args.ref, args.constraints)
    records = [EvalRecord(h, r, c) for h, r, c in zip(hyps, refs, constraint_sets)]
    structural_mode = args.mode == "structural"
    stats = sentence_metrics(records, vocab=vocab, structural=structural_mode, window=args.window)
    report = score(stats, structural_mode)
    payload = json.dumps(report.as_dict(), indent=2, sort_keys=True)
    if args.report:
        Path(args.report).write_text(payload + "\n", encoding="utf-8")
    print(payload)
    if args.per_sentence:
        # each row is its line scored as a one-line corpus, from the report's own statistics
        lines = ["\t".join(["index", *report.values()])]
        for i, line_stats in enumerate(stats):
            values = score([line_stats], structural_mode).values().values()
            lines.append("\t".join([str(i), *(f"{v:.4f}" for v in values)]))
        Path(args.per_sentence).write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# roundtrip

def _gold_decode(
    mode: str, example: SerializedExample, meta: dict, vocab: ReservedVocab
) -> tuple[TokenSeq, dict]:
    """decode_line on the continuation a perfect model would produce after
    the forced prefix."""
    return decode_line(mode, example.target_output[len(example.decoder_prefix) :], meta, vocab)


def cmd_roundtrip(args) -> int:
    """Serialize, echo the gold continuations, decode, and score.

    A perfect model must reproduce every reference exactly and score 100
    on every metric; any deviation is reported with its line number.
    """
    vocab, corpus = _read_corpus(args)
    tgt = corpus[1]

    def line(i: int):
        example, meta = _serialize_line(args.mode, corpus, i, vocab)
        sentence, audit = _gold_decode(args.mode, example, meta, vocab)
        return i, example.constraints, sentence, audit

    kept, skipped = _run_lines(len(tgt), line)

    violations: list[str] = []
    records: list[EvalRecord] = []
    for i, constraints, sentence, audit in kept:
        if sentence != tgt[i]:
            violations.append(f"line {i + 1}: reconstruction differs from reference")
        if not audit.get("valid"):
            violations.append(f"line {i + 1}: invalid template ({audit.get('reason')})")
        records.append(EvalRecord(hypothesis=sentence, reference=tgt[i], constraints=constraints))
    structural_mode = args.mode == "structural"
    report = evaluate_records(records, vocab=vocab, structural=structural_mode)
    for name, value in report.values().items():
        if records and value != 100.0:
            violations.append(f"metric {name} is {value:.4f}, expected 100")

    summary = {
        "sentences": len(kept),
        "skipped": skipped,
        "template_accuracy": _template_accuracy([audit for *_, audit in kept]),
        "metrics": report.as_dict(),
        "violations": violations,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 3 if violations else 0


# ---------------------------------------------------------------------------
# bench

# Decode passes repeat until together they take this long; the fastest counts.
BENCH_MIN_SECONDS = 0.01


def cmd_bench(args) -> int:
    """Throughput of the serialization and reconstruction transforms.

    Lines that fail to serialize are skipped as in roundtrip. Reconstruction
    must stay below the configured fraction of a baseline translation
    budget per token, i.e. be negligible next to model inference. It is
    judged on the fastest of repeated decode passes, as timeit does: noise
    such as a scheduler stall or a GC pause only ever adds time to a pass.
    """
    vocab, corpus = _read_corpus(args)
    t0 = time.perf_counter()
    kept, skipped = _run_lines(
        len(corpus[0]), lambda i: _serialize_line(args.mode, corpus, i, vocab)
    )
    serialize_seconds = time.perf_counter() - t0
    report = {"sentences": len(kept), "skipped": skipped}
    if not kept:
        print(json.dumps({**report, "serialize_tps": None, "reconstruct_tps": None}))
        return 0
    serialize_tokens = sum(len(ex.encoder_input) + len(ex.target_output) for ex, _ in kept)

    reconstruct_seconds = math.inf
    start = time.perf_counter()
    while True:
        t1 = time.perf_counter()
        reconstruct_tokens = sum(
            len(_gold_decode(args.mode, ex, meta, vocab)[0]) for ex, meta in kept
        )
        t2 = time.perf_counter()
        reconstruct_seconds = min(reconstruct_seconds, t2 - t1)
        if t2 - start >= BENCH_MIN_SECONDS:
            break

    per_token = reconstruct_seconds / reconstruct_tokens if reconstruct_tokens else 0.0
    budget = args.budget_fraction / args.baseline_tps
    report.update(
        serialize_tps=serialize_tokens / serialize_seconds if serialize_seconds else None,
        reconstruct_tps=reconstruct_tokens / reconstruct_seconds if reconstruct_seconds else None,
        reconstruct_seconds_per_token=per_token,
        budget_seconds_per_token=budget,
        within_budget=per_token < budget,
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["within_budget"] else 3


# ---------------------------------------------------------------------------
# parser

def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
        return value

    return integer


def _add_corpus(sub, *, target=True):
    sub.add_argument("--src", required=True)
    if target:
        sub.add_argument("--tgt", required=True)
    sub.add_argument("--constraints")
    sub.add_argument("--spans")


def _add_common(sub):
    sub.add_argument("--mode", choices=corpus_io.MODES, default="lexical")
    sub.add_argument("--vocab", help="vocabulary manifest (vocab.json)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ctmt", description=__doc__)
    commands = parser.add_subparsers(dest="command", metavar="command")

    p = commands.add_parser("prepare", help="serialize a training corpus")
    _add_common(p)
    _add_corpus(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_prepare)

    p = commands.add_parser("encode", help="serialize inference inputs")
    _add_common(p)
    _add_corpus(p, target=False)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_encode)

    p = commands.add_parser("decode", help="reconstruct sentences from model outputs")
    p.add_argument("--vocab", help="vocabulary manifest (vocab.json)")
    p.add_argument("--encode-dir", required=True)
    p.add_argument("--model-output", help="file of continuation lines")
    p.add_argument("--translator", help="command run through the line-protocol bridge")
    p.add_argument("--shards", type=_int_at_least(1), default=1, help="translator children")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_decode)

    p = commands.add_parser("sample", help="mine and sample constraints from aligned bitext")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--align", required=True)
    p.add_argument("--out", required=True, help="output stem for .cons.jsonl and .spans.jsonl")
    defaults = mining.SamplerConfig()
    p.add_argument("--seed", type=int, default=defaults.rng_seed)
    p.add_argument("--max-constraints", type=int, default=defaults.max_constraints)
    p.add_argument("--min-len", type=int, default=defaults.min_len)
    p.add_argument("--max-len", type=int, default=defaults.max_len)
    p.set_defaults(func=cmd_sample)

    p = commands.add_parser("evaluate", help="score hypotheses against references")
    _add_common(p)
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--constraints")
    p.add_argument("--window", type=_int_at_least(0), default=WINDOW)
    p.add_argument("--report", help="write the JSON report here as well")
    p.add_argument("--per-sentence", help="write a per-sentence TSV here")
    p.set_defaults(func=cmd_evaluate)

    p = commands.add_parser("roundtrip", help="closed-loop check with a perfect model")
    _add_common(p)
    _add_corpus(p)
    p.set_defaults(func=cmd_roundtrip)

    p = commands.add_parser("bench", help="throughput of the template transforms")
    _add_common(p)
    _add_corpus(p)
    p.add_argument("--baseline-tps", type=_positive_float, default=3390.0)
    p.add_argument("--budget-fraction", type=_positive_float, default=0.05)
    p.set_defaults(func=cmd_bench)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("CTMT_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"ctmt: {exc}", file=sys.stderr)
        return 1
    except (CtmtError, OSError) as exc:
        print(f"ctmt: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
