"""Command-line surface: prepare, encode, decode, sample, evaluate,
roundtrip, and bench.

Corpora are processed in contiguous shards merged back in order, so the
shard count never changes the bytes written. Exit codes: 0 success, 1
usage, 2 data error, 3 invariant breach. Set CTMT_LOG to control log
verbosity.
"""

from __future__ import annotations

import argparse
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
from .metrics import EvalRecord, evaluate_records, score, sentence_metrics
from .types import ConstraintPair, DerivationTable, Nonterminal, SerializedExample, TokenSeq
from .vocab import DEFAULT_VOCAB, ReservedVocab

log = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


# ---------------------------------------------------------------------------
# sharding

def shard_ranges(n: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous index ranges covering 0..n, at most ``shards`` of them."""
    if n <= 0:
        return []
    shards = max(1, min(shards, n))
    base, rem = divmod(n, shards)
    ranges = []
    start = 0
    for s in range(shards):
        size = base + (1 if s < rem else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def run_sharded(n_items: int, shards: int, worker) -> list:
    """Run worker(start, end) per shard and concatenate results in order."""
    ranges = shard_ranges(n_items, shards)
    if not ranges:
        return []
    if len(ranges) == 1:
        return worker(*ranges[0])
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        futures = [pool.submit(worker, a, b) for a, b in ranges]
        merged: list = []
        for fut in futures:
            merged.extend(fut.result())
    return merged


def _run_lines(n_lines: int, shards: int, line_fn) -> list:
    """Run line_fn(i) for every line, sharded, results in line order.

    A line whose function raises CtmtError is logged and skipped: its
    result is None.
    """

    def worker(start: int, end: int) -> list:
        results = []
        for i in range(start, end):
            try:
                results.append(line_fn(i))
            except CtmtError as exc:
                log.warning("line %d skipped: %s", i + 1, exc)
                results.append(None)
        return results

    return run_sharded(n_lines, shards, worker)


# ---------------------------------------------------------------------------
# translator bridge

class TranslatorBridge:
    """Child translator speaking a line protocol on its standard streams.

    Each request line carries the encoder input, a tab, then the forced
    decoder prefix; the child answers with exactly one continuation line.
    Nothing is prepended or reordered, so any wrapped model that honors
    forced prefixes can sit behind the bridge.
    """

    def __init__(self, command: str):
        self.command = command
        self.proc = subprocess.Popen(
            shlex.split(command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            encoding="utf-8",
            bufsize=1,
        )

    def translate(self, encoder_tokens: TokenSeq, prefix_tokens: TokenSeq) -> TokenSeq:
        assert self.proc.stdin is not None and self.proc.stdout is not None
        request = " ".join(encoder_tokens) + "\t" + " ".join(prefix_tokens) + "\n"
        self.proc.stdin.write(request)
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if line == "":
            raise CtmtError(f"translator {self.command!r} closed its output stream")
        return corpus_io.split_tokens(line)

    def close(self) -> None:
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()

    def __enter__(self) -> "TranslatorBridge":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# shared input handling

def _load_vocab(args) -> ReservedVocab:
    if getattr(args, "vocab", None):
        return corpus_io.load_vocab(args.vocab)
    return DEFAULT_VOCAB


def _load_constrained_corpus(args, need_target: bool):
    """Read bitext plus optional constraint and span files, length-checked."""
    src = corpus_io.read_token_lines(args.src)
    tgt = corpus_io.read_token_lines(args.tgt) if need_target else [[] for _ in src]
    if len(src) != len(tgt):
        raise CorpusFormatError(f"line count mismatch {len(src)} vs {len(tgt)}")
    n = len(src)
    constraint_sets = _read_constraint_sets(args.constraints, n)
    if getattr(args, "spans", None):
        span_sets = corpus_io.read_spans(args.spans)
        if len(span_sets) != n:
            raise CorpusFormatError(f"line count mismatch {len(span_sets)} vs {n} (spans)")
        for lineno, (cons, spans) in enumerate(zip(constraint_sets, span_sets), start=1):
            if len(cons) != len(spans):
                raise CorpusFormatError(
                    f"line {lineno}: {len(spans)} spans for {len(cons)} constraints"
                )
    else:
        span_sets = [None] * n
    return src, tgt, constraint_sets, span_sets


def _read_constraint_sets(path, n: int) -> list[list[ConstraintPair]]:
    """One constraint set per corpus line; without a file, no constraints."""
    if not path:
        return [[] for _ in range(n)]
    constraint_sets = corpus_io.read_constraints(path)
    if len(constraint_sets) != n:
        raise CorpusFormatError(f"line count mismatch {len(constraint_sets)} vs {n} (constraints)")
    return constraint_sets


def _constraints_from_meta(meta: dict) -> list[ConstraintPair]:
    return [
        ConstraintPair(src=list(c["src"]), tgt=list(c["tgt"]), index=k + 1)
        for k, c in enumerate(meta.get("constraints", []))
    ]


# ---------------------------------------------------------------------------
# prepare / encode

def _span_side(spans, side: int):
    """The source (0) or target (1) spans of a line's span pairs, if given."""
    return None if spans is None else [pair[side] for pair in spans]


def _serialize_line(mode, x, y, cons, spans, vocab) -> SerializedExample:
    """One training pair serialized."""
    if mode == "structural":
        return structural.build_structural_pair(x, y, vocab=vocab)
    return lexical.build_training_pair(
        x, y, cons, _span_side(spans, 1), vocab=vocab, src_spans=_span_side(spans, 0)
    )


def _meta(mode: str, example: SerializedExample, index: int) -> dict:
    """The metadata record of a serialized line: everything decode and
    evaluate need downstream."""
    if mode == "structural":
        meta = {"mode": mode, "source_tags": example.source_tags}
        if example.target_tags is not None:
            meta["target_tags"] = example.target_tags
    else:
        meta = {
            "mode": mode,
            "constraints": [{"src": c.src, "tgt": c.tgt} for c in example.constraints],
            "src_spans": [list(s) for s in example.src_spans],
        }
    meta["index"] = index
    return meta


def _write_serialized(out_dir, stem: str, second: str, results: list) -> int:
    """Write the kept lines' (encoder stream, second stream, meta) triples
    as ``stem.xprime``, ``stem.<second>`` and ``stem.meta.jsonl``."""
    kept = [r for r in results if r is not None]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus_io.write_token_lines(out / f"{stem}.xprime", [xp for xp, _, _ in kept])
    corpus_io.write_token_lines(out / f"{stem}.{second}", [s for _, s, _ in kept])
    corpus_io.write_jsonl(out / f"{stem}.meta.jsonl", [meta for _, _, meta in kept])
    print(json.dumps({"written": len(kept), "skipped": len(results) - len(kept)}, sort_keys=True))
    return 0


def cmd_prepare(args) -> int:
    vocab = _load_vocab(args)
    src, tgt, constraint_sets, span_sets = _load_constrained_corpus(args, need_target=True)

    def line(i: int):
        example = _serialize_line(
            args.mode, src[i], tgt[i], constraint_sets[i], span_sets[i], vocab
        )
        return example.encoder_input, example.target_output, _meta(args.mode, example, i)

    results = _run_lines(len(src), args.shards, line)
    return _write_serialized(args.out_dir, "train", "yprime", results)


def cmd_encode(args) -> int:
    vocab = _load_vocab(args)
    src, _, constraint_sets, span_sets = _load_constrained_corpus(args, need_target=False)

    def line(i: int):
        if args.mode == "structural":
            example = structural.build_structural_input(src[i], vocab=vocab)
        else:
            example = lexical.build_inference_input(
                src[i], constraint_sets[i], vocab=vocab, src_spans=_span_side(span_sets[i], 0)
            )
        return example.encoder_input, example.decoder_prefix, _meta(args.mode, example, i)

    results = _run_lines(len(src), args.shards, line)
    return _write_serialized(args.out_dir, "encode", "prefix", results)


# ---------------------------------------------------------------------------
# decode

def _lenient_rules(tokens: TokenSeq, vocab: ReservedVocab) -> dict[Nonterminal, TokenSeq]:
    rules: dict[Nonterminal, TokenSeq] = {}
    current: TokenSeq | None = None
    for tok in tokens:
        if tok == vocab.sep_token:
            continue
        nt = vocab.parse_token(tok)
        if nt is None:
            if current is not None and not vocab.is_tag(tok):
                current.append(tok)
        elif nt in rules:
            current = []
        else:
            current = rules.setdefault(nt, [])
    return rules


def _lenient_decode(
    tail: TokenSeq, vocab: ReservedVocab, constraint_rules: DerivationTable
) -> TokenSeq:
    """Best-effort sentence for an unparseable output line.

    The region up to the first separator is treated as the template: tags
    and stray free tokens pass through, nonterminals expand to whatever
    rule the rest of the line provides, missing rules expand to nothing.
    """
    cut = tail.index(vocab.sep_token) if vocab.sep_token in tail else len(tail)
    rules = _lenient_rules(tail[cut + 1 :], vocab)
    out: TokenSeq = []
    for tok in tail[:cut]:
        nt = vocab.parse_token(tok)
        if nt is None:
            out.append(tok)
        elif nt.kind == "C":
            out.extend(constraint_rules.get(nt) or [])
        else:
            out.extend(rules.get(nt) or [])
    return out


def decode_line(
    mode: str, tail: TokenSeq, meta: dict, vocab: ReservedVocab
) -> tuple[TokenSeq, dict]:
    """Reconstruct one model output line, never raising on bad content."""
    audit: dict = {"index": meta.get("index"), "fallback": False, "warnings": []}
    constraints = _constraints_from_meta(meta)
    d_table = lexical.constraint_derivation(constraints)
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
        sentence = _lenient_decode(tail, vocab, d_table)
        audit.update(valid=False, reason=str(exc), fallback=True, omitted_y=0)
        return sentence, audit

    audit["valid"] = verdict.valid
    audit["reason"] = verdict.reason
    audit["warnings"] = parsed.warnings
    audit["omitted_y"] = len(parsed.omitted())
    if mode == "structural":
        audit["tags"] = parsed.template.tags()
    else:
        audit["constraint_indices"] = parsed.template.constraint_indices()
    if verdict.valid:
        sentence = lexical.reconstruct(parsed.template, d_table, parsed.derivation)
    else:
        sentence = _lenient_decode(tail, vocab, d_table)
    return sentence, audit


def _read_model_outputs(args, metas: list[dict]) -> list[TokenSeq]:
    if args.model_output:
        tails = corpus_io.read_token_lines(args.model_output)
        if len(tails) != len(metas):
            raise CorpusFormatError(f"line count mismatch {len(tails)} vs {len(metas)}")
        return tails
    enc_dir = Path(args.encode_dir)
    xprime = corpus_io.read_token_lines(enc_dir / "encode.xprime")
    prefixes = corpus_io.read_token_lines(enc_dir / "encode.prefix")
    if not (len(xprime) == len(prefixes) == len(metas)):
        raise CorpusFormatError("encode manifest files disagree on line count")

    def worker(start: int, end: int) -> list:
        with TranslatorBridge(args.translator) as bridge:
            return [bridge.translate(xprime[i], prefixes[i]) for i in range(start, end)]

    return run_sharded(len(metas), args.shards, worker)


def cmd_decode(args) -> int:
    if not args.model_output and not args.translator:
        raise UsageError("decode needs --model-output or --translator")
    vocab = _load_vocab(args)
    enc_dir = Path(args.encode_dir)
    metas = corpus_io.read_jsonl(enc_dir / "encode.meta.jsonl")
    tails = _read_model_outputs(args, metas)
    out_dir = Path(args.out_dir) if args.out_dir else enc_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    def worker(start: int, end: int) -> list:
        return [
            decode_line(metas[i].get("mode", args.mode), tails[i], metas[i], vocab)
            for i in range(start, end)
        ]

    results = run_sharded(len(metas), args.shards, worker)
    sentences = [s for s, _ in results]
    audits = [a for _, a in results]
    corpus_io.write_token_lines(out_dir / "decode.out", sentences)
    corpus_io.write_jsonl(out_dir / "decode.audit.jsonl", audits)
    valid = sum(1 for a in audits if a.get("valid"))
    summary = {
        "sentences": len(audits),
        "template_accuracy": 100.0 * valid / len(audits) if audits else 100.0,
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

    chosen_sets = _run_lines(len(pairs), args.shards, line)
    constraint_sets = [
        [ConstraintPair(list(p.src_tokens), list(p.tgt_tokens), n + 1) for n, p in enumerate(chosen)]
        for chosen in chosen_sets
    ]
    span_sets = [[(p.src_span, p.tgt_span) for p in chosen] for chosen in chosen_sets]
    corpus_io.write_constraints(f"{args.out}.cons.jsonl", constraint_sets)
    corpus_io.write_spans(f"{args.out}.spans.jsonl", span_sets)
    total = sum(len(cs) for cs in constraint_sets)
    print(json.dumps({"sentences": len(pairs), "constraints": total}, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# evaluate

def cmd_evaluate(args) -> int:
    vocab = _load_vocab(args)
    pairs = corpus_io.read_bitext(args.hyp, args.ref)
    constraint_sets = _read_constraint_sets(args.constraints, len(pairs))
    records = [EvalRecord(h, r, c) for (h, r), c in zip(pairs, constraint_sets)]
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

def _gold_tail(example: SerializedExample) -> TokenSeq:
    """The continuation a perfect model would produce after the forced prefix."""
    return example.target_output[len(example.decoder_prefix) :]


def cmd_roundtrip(args) -> int:
    """Serialize, echo the gold continuations, decode, and score.

    A perfect model must reproduce every reference exactly and score 100
    on every metric; any deviation is reported with its line number.
    """
    vocab = _load_vocab(args)
    src, tgt, constraint_sets, span_sets = _load_constrained_corpus(args, need_target=True)

    def line(i: int):
        example = _serialize_line(
            args.mode, src[i], tgt[i], constraint_sets[i], span_sets[i], vocab
        )
        meta = _meta(args.mode, example, i)
        sentence, audit = decode_line(args.mode, _gold_tail(example), meta, vocab)
        return i, example.constraints, sentence, audit

    results = _run_lines(len(src), args.shards, line)
    kept = [r for r in results if r is not None]
    skipped = len(results) - len(kept)

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

    template_accuracy = (
        100.0 * sum(1 for _, _, _, a in kept if a.get("valid")) / len(kept) if kept else 100.0
    )
    summary = {
        "sentences": len(kept),
        "skipped": skipped,
        "template_accuracy": template_accuracy,
        "metrics": report.as_dict(),
        "violations": violations,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 3 if violations else 0


# ---------------------------------------------------------------------------
# bench

def cmd_bench(args) -> int:
    """Throughput of the serialization and reconstruction transforms.

    Reconstruction must stay below the configured fraction of a baseline
    translation budget per token, i.e. be negligible next to model
    inference.
    """
    vocab = _load_vocab(args)
    src, tgt, constraint_sets, span_sets = _load_constrained_corpus(args, need_target=True)
    n = len(src)
    if n == 0:
        print(json.dumps({"sentences": 0, "serialize_tps": None, "reconstruct_tps": None}))
        return 0

    t0 = time.perf_counter()
    serialized = []
    for i in range(n):
        example = _serialize_line(
            args.mode, src[i], tgt[i], constraint_sets[i], span_sets[i], vocab
        )
        serialized.append((example, _meta(args.mode, example, i)))
    serialize_seconds = time.perf_counter() - t0
    serialize_tokens = sum(len(ex.encoder_input) + len(ex.target_output) for ex, _ in serialized)

    t1 = time.perf_counter()
    reconstruct_tokens = 0
    for example, meta in serialized:
        sentence, _ = decode_line(args.mode, _gold_tail(example), meta, vocab)
        reconstruct_tokens += len(sentence)
    reconstruct_seconds = time.perf_counter() - t1

    per_token = reconstruct_seconds / reconstruct_tokens if reconstruct_tokens else 0.0
    budget = args.budget_fraction / args.baseline_tps
    report = {
        "sentences": n,
        "serialize_tps": serialize_tokens / serialize_seconds if serialize_seconds else None,
        "reconstruct_tps": reconstruct_tokens / reconstruct_seconds
        if reconstruct_seconds
        else None,
        "reconstruct_seconds_per_token": per_token,
        "budget_seconds_per_token": budget,
        "within_budget": per_token < budget,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["within_budget"] else 3


# ---------------------------------------------------------------------------
# parser

def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return value


def _add_common(sub, *, mode=True, vocab=True, shards=True):
    if mode:
        sub.add_argument("--mode", choices=["lexical", "structural"], default="lexical")
    if vocab:
        sub.add_argument("--vocab", help="vocabulary manifest (vocab.json)")
    if shards:
        sub.add_argument("--shards", type=int, default=1, help="contiguous corpus shards")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ctmt", description=__doc__)
    commands = parser.add_subparsers(dest="command", metavar="command")

    p = commands.add_parser("prepare", help="serialize a training corpus")
    _add_common(p)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--constraints")
    p.add_argument("--spans")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_prepare)

    p = commands.add_parser("encode", help="serialize inference inputs")
    _add_common(p)
    p.add_argument("--src", required=True)
    p.add_argument("--constraints")
    p.add_argument("--spans")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_encode)

    p = commands.add_parser("decode", help="reconstruct sentences from model outputs")
    _add_common(p)
    p.add_argument("--encode-dir", required=True)
    p.add_argument("--model-output", help="file of continuation lines")
    p.add_argument("--translator", help="command run through the line-protocol bridge")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_decode)

    p = commands.add_parser("sample", help="mine and sample constraints from aligned bitext")
    _add_common(p, mode=False, vocab=False)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--align", required=True)
    p.add_argument("--out", required=True, help="output stem for .cons.jsonl and .spans.jsonl")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-constraints", type=int, default=3)
    p.add_argument("--min-len", type=int, default=1)
    p.add_argument("--max-len", type=int, default=3)
    p.set_defaults(func=cmd_sample)

    p = commands.add_parser("evaluate", help="score hypotheses against references")
    _add_common(p, shards=False)
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--constraints")
    p.add_argument("--window", type=_non_negative_int, default=2)
    p.add_argument("--report", help="write the JSON report here as well")
    p.add_argument("--per-sentence", help="write a per-sentence TSV here")
    p.set_defaults(func=cmd_evaluate)

    p = commands.add_parser("roundtrip", help="closed-loop check with a perfect model")
    _add_common(p)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--constraints")
    p.add_argument("--spans")
    p.set_defaults(func=cmd_roundtrip)

    p = commands.add_parser("bench", help="throughput of the template transforms")
    _add_common(p, shards=False)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--constraints")
    p.add_argument("--spans")
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
