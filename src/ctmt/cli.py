"""Command-line surface: prepare, encode, decode, sample, evaluate,
roundtrip, and bench. Exit codes: 0 success, 1 usage, 2 data error,
3 invariant breach. Set CTMT_LOG to control log verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import time
from pathlib import Path

from . import _log, corpus_io, lexical
from .errors import CorpusFormatError, CtmtError, OutputParseError
from .types import SerializedExample, TemplateVerdict, TokenSeq
from .vocab import DEFAULT_VOCAB, ReservedVocab

# mining, metrics and structural are imported by the commands and modes that
# use them, so that a command loads only what it runs

log = _log.Logger("ctmt.cli")  # not __name__, which is "__main__" under python -m


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
    """Translator children speaking a line protocol on their standard streams.

    Each request line carries the encoder input, a tab, then the forced
    decoder prefix; a child answers each with one continuation line and
    nothing else, in the order asked. Nothing is prepended or reordered, so
    any wrapped model that honors forced prefixes can sit behind the bridge.
    The bridge only moves lines: an answer is the bytes up to an LF, which
    _translated reads as a --model-output line is read.

    A call sends a chunk of requests, split over the children in contiguous
    ranges, all at once: one selectors loop in the calling thread writes each
    child's requests while its pipe takes them and reads its answers as they
    come, so neither side waits on a full pipe and a child may read ahead and
    batch. The children start on the first chunk, at most one per line of it.
    """

    def __init__(self, command: str, children: int = 1):
        import shlex

        self.command, self.argv, self.children = command, shlex.split(command), children
        self._procs: list = []
        self._unread: list[bytes] = []  # per child: bytes read past the answers asked for

    def _take(self, k: int, wanted: int, answers: list[bytes]) -> int:
        """Move up to ``wanted`` whole answer lines out of child k's unread
        bytes into ``answers``; return how many are still wanted."""
        *lines, self._unread[k] = self._unread[k].split(b"\n", wanted)
        answers.extend(lines)
        return wanted - len(lines)

    def translate(self, requests: list[list[TokenSeq]]) -> list[bytes]:
        """The answer line to each of a chunk's [encoder input, prefix] requests, LF removed."""
        import selectors
        import subprocess

        if not self._procs:
            for _ in range(min(self.children, len(requests))):
                proc = subprocess.Popen(self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
                os.set_blocking(proc.stdin.fileno(), False)  # a write takes what the pipe has room for
                self._procs.append(proc)
                self._unread.append(b"")
        ranges = shard_ranges(len(requests), len(self._procs))
        answers: list[list[bytes]] = [[] for _ in ranges]
        unsent, wanted = [], []
        with selectors.DefaultSelector() as loop:
            for k, (start, end) in enumerate(ranges):
                lines = (" ".join(x) + "\t" + " ".join(prefix) + "\n" for x, prefix in requests[start:end])
                unsent.append(memoryview("".join(lines).encode("utf-8")))
                wanted.append(self._take(k, end - start, answers[k]))
                loop.register(self._procs[k].stdin, selectors.EVENT_WRITE, k)
                if wanted[k]:
                    loop.register(self._procs[k].stdout, selectors.EVENT_READ, k)
            while loop.get_map():
                for key, events in loop.select():
                    k = key.data
                    if events & selectors.EVENT_WRITE:
                        try:
                            unsent[k] = unsent[k][os.write(key.fd, unsent[k]) :]
                        except BlockingIOError:
                            pass
                        except BrokenPipeError:
                            raise CtmtError(f"translator {self.command!r} closed its input stream") from None
                        if not unsent[k]:
                            loop.unregister(key.fileobj)
                        continue
                    data = os.read(key.fd, 1 << 16)
                    if not data:
                        raise CtmtError(f"translator {self.command!r} closed its output stream")
                    self._unread[k] += data
                    wanted[k] = self._take(k, wanted[k], answers[k])
                    if not wanted[k]:
                        loop.unregister(key.fileobj)
        return [answer for share in answers for answer in share]

    def __enter__(self) -> "TranslatorBridge":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        """End every child's requests, then reap them all within 10 s; after a clean
        run, fail on what a child wrote past the last answer read, buffered or not."""
        import subprocess

        for proc in self._procs:  # all at once, so the children shut down side by side
            proc.stdin.close()
            proc.stdin = None  # communicate would flush a closed stream
        deadline, extra = time.monotonic() + 10, b""
        for proc, unread in zip(self._procs, self._unread):
            try:
                rest, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                rest, _ = proc.communicate()
            extra = extra or unread + rest
        if exc_type is None and extra:
            lines = extra.count(b"\n") + (not extra.endswith(b"\n"))
            raise CorpusFormatError(f"translator {self.command!r} sent {lines} lines no request asked for")


# ---------------------------------------------------------------------------
# shared input handling and the line loop

def _load_vocab(args) -> ReservedVocab:
    return DEFAULT_VOCAB if args.vocab is None else corpus_io.load_vocab(args.vocab)


def _tagged_vocab(args) -> ReservedVocab:
    """The vocabulary of a command that reads markup in structural mode,
    where only registered tags tell markup from text."""
    vocab = _load_vocab(args)
    if args.mode == "structural" and not vocab.registered_tags:
        raise UsageError("--mode structural needs a --vocab with registered tags")
    return vocab


def _read_corpus(args):
    """The vocabulary a serializing command names, and its corpus as
    corpus_io.iter_corpus rows; structural lines take no constraints or spans."""
    if args.mode == "structural" and (args.constraints or args.spans):
        raise UsageError("--mode structural takes no --constraints or --spans")
    vocab = _tagged_vocab(args)
    tgt = getattr(args, "tgt", None)
    return vocab, corpus_io.iter_corpus(args.src, tgt, args.constraints, args.spans)


class _LineRun:
    """line_fn(i, row) of each row, in line order as it is read. A line for
    which line_fn raises CtmtError is logged and skipped; ``kept`` and
    ``skipped`` count the lines read so far."""

    def __init__(self, rows, line_fn):
        self.rows, self.line_fn = rows, line_fn
        self.kept = self.skipped = 0

    def __iter__(self):
        for i, row in enumerate(self.rows):
            try:
                result = self.line_fn(i, row)
            except CtmtError as exc:
                log.warning("line %d skipped: %s", i + 1, exc)
                self.skipped += 1
                continue
            self.kept += 1
            yield result


# ---------------------------------------------------------------------------
# prepare / encode

def _span_side(spans, side: int):
    """The source (0) or target (1) spans of a line's span pairs, if given."""
    return None if spans is None else [pair[side] for pair in spans]


def _serialize_line(
    mode: str, row, i: int, vocab: ReservedVocab
) -> tuple[SerializedExample, dict]:
    """Line i of a training corpus (a corpus_io.iter_corpus row) serialized,
    with its meta record."""
    src, tgt, constraints, spans = row
    if mode == "structural":
        from . import structural

        example = structural.build_structural_pair(src, tgt, vocab=vocab)
    else:
        example = lexical.build_training_pair(
            src, tgt, constraints, _span_side(spans, 1),
            vocab=vocab, src_spans=_span_side(spans, 0),
        )
    return example, corpus_io.meta_record(mode, example, i)


def _write_serialized(out_dir, stem: str, second: str, rows, line_fn) -> int:
    """Write the (encoder stream, second stream, meta) triple that
    line_fn(i, row) makes of each kept line, as it is made, to
    ``stem.xprime``, ``stem.<second>`` and ``stem.meta.jsonl``."""
    with corpus_io.StagedOutput() as staged:
        out = staged.directory(out_dir)
        xprime, stream, metas = (
            staged.open(out / f"{stem}.{ext}") for ext in ("xprime", second, "meta.jsonl")
        )
        lines = _LineRun(rows, line_fn)
        for encoder_input, tokens, meta in lines:
            xprime.write(corpus_io.token_line(encoder_input))
            stream.write(corpus_io.token_line(tokens))
            metas.write(corpus_io.json_line(meta))
    print(json.dumps({"written": lines.kept, "skipped": lines.skipped}, sort_keys=True))
    return 0


def cmd_prepare(args) -> int:
    vocab, rows = _read_corpus(args)

    def line(i: int, row):
        example, meta = _serialize_line(args.mode, row, i, vocab)
        return example.encoder_input, example.target_output, meta

    return _write_serialized(args.out_dir, "train", "yprime", rows, line)


def cmd_encode(args) -> int:
    vocab, rows = _read_corpus(args)

    def line(i: int, row):
        src, _, constraints, spans = row
        if args.mode == "structural":
            from . import structural

            example = structural.build_structural_input(src, vocab=vocab)
        else:
            example = lexical.build_inference_input(
                src, constraints, vocab=vocab, src_spans=_span_side(spans, 0)
            )
        meta = corpus_io.meta_record(args.mode, example, i)
        return example.encoder_input, example.decoder_prefix, meta

    return _write_serialized(args.out_dir, "encode", "prefix", rows, line)


# ---------------------------------------------------------------------------
# decode

def decode_line(tail: TokenSeq, meta: dict, vocab: ReservedVocab) -> tuple[TokenSeq, dict]:
    """Reconstruct one model output line, never raising on bad content.

    ``meta`` is the line's record as corpus_io.parse_meta returns it; its
    ``mode`` alone names how the line decodes. A line that fails to parse
    or validate is expanded from its best-effort reading, where
    C-nonterminals with no constraint expand to nothing.
    """
    mode, constraints = meta["mode"], meta.get("constraints", [])
    audit: dict = {"index": meta.get("index"), "fallback": False, "warnings": []}
    try:
        if mode == "structural":
            from . import structural

            parsed = structural.parse_structural_output(tail, vocab)
            verdict = structural.validate_structural_template(
                parsed.template, meta.get("source_tags", []), vocab
            )
            audit["tags"] = parsed.template.tags()
        else:
            parsed = lexical.parse_output(tail, vocab, len(constraints))
            verdict = lexical.validate_template(parsed.template, len(constraints))
            audit["constraint_indices"] = parsed.template.constraint_indices()
    except OutputParseError as exc:
        parsed, verdict = exc.parsed, TemplateVerdict(False, str(exc))
        audit.update(fallback=True, omitted_y=0)
    else:
        audit.update(warnings=parsed.warnings, omitted_y=len(parsed.omitted()))
    audit.update(valid=verdict.valid, reason=verdict.reason)
    d_table = lexical.constraint_derivation(constraints)
    if not verdict.valid:
        for nt in parsed.template.nonterminals("C"):
            d_table.setdefault(nt, [])
    return lexical.reconstruct(parsed.template, d_table, parsed.derivation), audit


def _template_accuracy(valid: int, lines: int) -> float:
    """Percentage of decoded lines whose template is valid; 100 for none."""
    return 100.0 * valid / lines if lines else 100.0


# Lines decode sends a translator at once, and bench decodes in one timed
# pass: their memory is set by this many lines, not by the corpus. Through a
# translator on 2,000 lines of up to 40 tokens, decode peaked at 18.1 MiB
# with 1-line chunks, 19.3 with 256, 23.0 with 1,024, and 29.9 with the
# whole corpus in one pass.
CHUNK_LINES = 256


def _chunks(items, size: int):
    """Up to ``size`` items at a time, in one list refilled for each chunk, so
    that a chunk is freed as the next is read: it is valid until then."""
    items, chunk = iter(items), []
    while True:
        chunk.clear()
        chunk.extend(itertools.islice(items, size))
        if not chunk:
            return
        yield chunk


def _translated(rows, bridge: TranslatorBridge):
    """(meta text, answer text) for each (meta, encoder input, prefix) text
    row, its answer read by corpus_io.line_text as a --model-output line is.
    The rows go to ``bridge`` CHUNK_LINES at a time. A chunk's answers are
    dropped before the next chunk is translated, since decode's peak memory
    is set by the answers it holds: two chunks' worth raised it by about 5%."""
    where = f"translator {bridge.command!r}"
    for chunk in _chunks(enumerate(rows, start=1), CHUNK_LINES):
        answers = bridge.translate([[corpus_io.split_tokens(t) for t in texts[1:]] for _, texts in chunk])
        for (lineno, (meta, *_)), raw in zip(chunk, answers):
            yield meta, corpus_io.line_text(raw, lineno, where)
        del answers


def cmd_decode(args) -> int:
    if (args.model_output is None) == (args.translator is None):
        raise UsageError("decode takes exactly one of --model-output and --translator")
    if args.model_output is not None and args.shards != 1:
        raise UsageError("--shards counts translator children; --model-output takes none")
    enc_dir = Path(args.encode_dir)
    if args.translator is None:
        answers, bridge = [args.model_output], None
    else:
        answers = [enc_dir / "encode.xprime", enc_dir / "encode.prefix"]
        try:
            bridge = TranslatorBridge(args.translator, args.shards)
        except ValueError as exc:
            raise UsageError(f"--translator: {exc}") from exc
        if not bridge.argv:
            raise UsageError("--translator: empty command")
    vocab = _load_vocab(args)
    rows = corpus_io.iter_lines(enc_dir / "encode.meta.jsonl", *answers)
    if bridge:
        rows = _translated(rows, bridge)
    out_dir = Path(args.out_dir) if args.out_dir else enc_dir

    lines = valid = omitted = fallback = 0
    with corpus_io.StagedOutput() as staged, bridge or contextlib.nullcontext():
        out = staged.directory(out_dir)
        sentences, audits = staged.open(out / "decode.out"), staged.open(out / "decode.audit.jsonl")
        for lines, (meta, answer) in enumerate(rows, start=1):
            tail = corpus_io.split_tokens(answer)
            sentence, audit = decode_line(tail, corpus_io.parse_meta(meta, lines), vocab)
            sentences.write(corpus_io.token_line(sentence))
            audits.write(corpus_io.json_line(audit))
            valid += bool(audit.get("valid"))
            omitted += audit.get("omitted_y", 0)
            fallback += bool(audit.get("fallback"))
    summary = {
        "sentences": lines,
        "template_accuracy": _template_accuracy(valid, lines),
        "omitted_nonterminals": omitted,
        "fallback_lines": fallback,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# sample

def cmd_sample(args) -> int:
    from . import mining

    try:
        cfg = mining.SamplerConfig(
            max_constraints=args.max_constraints,
            min_len=args.min_len,
            max_len=args.max_len,
            rng_seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = corpus_io.iter_bitext(args.src, args.tgt, args.align)

    def line(i: int, row):
        x, y, links = row
        extracted = mining.extract_phrase_pairs(x, y, links, cfg.max_len)
        return mining.sample_phrase_pairs(extracted, cfg, mining.sentence_rng(cfg.rng_seed, i))

    total = 0
    with corpus_io.StagedOutput() as staged:
        cons = staged.open(f"{args.out}.cons.jsonl")
        spans = staged.open(f"{args.out}.spans.jsonl")
        lines = _LineRun(rows, line)  # line raises no CtmtError
        for chosen in lines:
            cons.write(corpus_io.json_line(corpus_io.constraints_record(mining.as_constraints(chosen))))
            pairs = [(p.src_span, p.tgt_span) for p in chosen]
            spans.write(corpus_io.json_line(corpus_io.spans_record(pairs)))
            total += len(chosen)
    print(json.dumps({"sentences": lines.kept, "constraints": total}, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# evaluate

def cmd_evaluate(args) -> int:
    from .metrics import EvalRecord, score, sentence_metrics

    outputs = [Path(path).resolve() for path in (args.report, args.per_sentence) if path]
    if len(set(outputs)) < len(outputs):
        raise UsageError("--report and --per-sentence name the same file")
    vocab = _tagged_vocab(args)
    rows = corpus_io.iter_corpus(args.hyp, args.ref, args.constraints)
    structural_mode = args.mode == "structural"
    with corpus_io.StagedOutput() as staged:
        report_out = staged.open(args.report) if args.report else None
        rows_out = staged.open(args.per_sentence) if args.per_sentence else None
        if rows_out is not None:
            rows_out.write("\t".join(["index", *score((), structural_mode).values()]) + "\n")

        def line(i: int, row):
            hyp, ref, constraints, _ = row
            stats = sentence_metrics(
                EvalRecord(hyp, ref, constraints),
                vocab=vocab, structural=structural_mode, window=args.window, lineno=i + 1,
            )
            if rows_out is not None:
                # each row is its line scored as a one-line corpus, from the report's own statistics
                values = score([stats], structural_mode).values().values()
                rows_out.write("\t".join([str(i), *(f"{v:.4f}" for v in values)]) + "\n")
            return stats

        report = score(itertools.starmap(line, enumerate(rows)), structural_mode)
        payload = json.dumps(report.as_dict(), indent=2, sort_keys=True)
        if report_out is not None:
            report_out.write(payload + "\n")
    print(payload)
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
    from .metrics import EvalRecord, score, sentence_metrics

    vocab, rows = _read_corpus(args)
    structural_mode = args.mode == "structural"
    violations: list[str] = []
    valid = 0

    def line(i: int, row):
        """Line i's metric statistics, decoded from its gold continuation and checked."""
        nonlocal valid
        target = row[1]
        example, meta = _serialize_line(args.mode, row, i, vocab)
        sentence, audit = decode_line(_gold_tail(example), meta, vocab)
        if sentence != target:
            violations.append(f"line {i + 1}: reconstruction differs from reference")
        if not audit.get("valid"):
            violations.append(f"line {i + 1}: invalid template ({audit.get('reason')})")
        valid += bool(audit.get("valid"))
        record = EvalRecord(hypothesis=sentence, reference=target, constraints=example.constraints)
        return sentence_metrics(record, vocab=vocab, structural=structural_mode, lineno=i + 1)

    lines = _LineRun(rows, line)
    report = score(lines, structural_mode)
    for name, value in report.values().items():
        if lines.kept and value != 100.0:
            violations.append(f"metric {name} is {value:.4f}, expected 100")

    summary = {
        "sentences": lines.kept,
        "skipped": lines.skipped,
        "template_accuracy": _template_accuracy(valid, lines.kept),
        "metrics": report.as_dict(),
        "violations": violations,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 3 if violations else 0


# ---------------------------------------------------------------------------
# bench

# A chunk's decode pass repeats while the run's decode passes total less
# than this; the fastest pass of each chunk counts.
BENCH_MIN_SECONDS = 0.01


def cmd_bench(args) -> int:
    """Throughput of the serialization and reconstruction transforms.

    Lines that fail to serialize are skipped as in roundtrip. Reconstruction
    must stay below the configured fraction of a baseline translation
    budget per token, i.e. be negligible next to model inference. The kept
    lines are decoded CHUNK_LINES at a time, and each chunk counts with its
    fastest decode pass, as timeit does: noise such as a scheduler stall or
    a GC pause only ever adds time to a pass. A chunk's pass repeats only
    while the run has spent less than BENCH_MIN_SECONDS decoding, so a large
    corpus is decoded once.
    """
    vocab, rows = _read_corpus(args)
    serialize_seconds = decode_seconds = reconstruct_seconds = 0.0
    serialize_tokens = reconstruct_tokens = 0

    def serialize(i: int, row):
        """The line's gold continuation and meta record, all a decode pass needs."""
        nonlocal serialize_seconds, serialize_tokens
        t0 = time.perf_counter()  # reading and parsing the row is not timed
        try:
            example, meta = _serialize_line(args.mode, row, i, vocab)
        finally:
            serialize_seconds += time.perf_counter() - t0
        serialize_tokens += len(example.encoder_input) + len(example.target_output)
        return _gold_tail(example), meta

    lines = _LineRun(rows, serialize)
    for chunk in _chunks(lines, CHUNK_LINES):
        fastest = math.inf
        while True:
            t1 = time.perf_counter()
            tokens = sum(len(decode_line(tail, meta, vocab)[0]) for tail, meta in chunk)
            seconds = time.perf_counter() - t1
            fastest = min(fastest, seconds)
            decode_seconds += seconds
            if decode_seconds >= BENCH_MIN_SECONDS:
                break
        reconstruct_seconds += fastest
        reconstruct_tokens += tokens

    report = {"sentences": lines.kept, "skipped": lines.skipped}
    if not lines.kept:
        report.update(serialize_tps=None, reconstruct_tps=None)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
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


def _path(text: str) -> str:
    if not text:  # an empty path would read as an absent option
        raise argparse.ArgumentTypeError("empty path")
    return text


def _add_corpus(sub, *, target=True):
    _add_common(sub)
    sub.add_argument("--src", required=True, type=_path)
    if target:
        sub.add_argument("--tgt", required=True, type=_path)
    sub.add_argument("--constraints", type=_path)
    sub.add_argument("--spans", type=_path)


def _add_common(sub):
    sub.add_argument("--mode", choices=corpus_io.MODES, default="lexical")
    sub.add_argument("--vocab", type=_path, help="vocabulary manifest (vocab.json)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ctmt", description=__doc__)
    commands = parser.add_subparsers(dest="command", metavar="command")

    p = commands.add_parser("prepare", help="serialize a training corpus")
    _add_corpus(p)
    p.add_argument("--out-dir", required=True, type=_path)
    p.set_defaults(func=cmd_prepare)

    p = commands.add_parser("encode", help="serialize inference inputs")
    _add_corpus(p, target=False)
    p.add_argument("--out-dir", required=True, type=_path)
    p.set_defaults(func=cmd_encode)

    p = commands.add_parser("decode", help="reconstruct sentences from model outputs")
    p.add_argument("--vocab", type=_path, help="vocabulary manifest (vocab.json)")
    p.add_argument("--encode-dir", required=True, type=_path)
    p.add_argument("--model-output", type=_path, help="file of continuation lines")
    p.add_argument("--translator", help="command run through the line-protocol bridge")
    p.add_argument("--shards", type=_int_at_least(1), default=1, help="translator children")
    p.add_argument("--out-dir", type=_path)
    p.set_defaults(func=cmd_decode)

    p = commands.add_parser("sample", help="mine and sample constraints from aligned bitext")
    for name in ("--src", "--tgt", "--align"):
        p.add_argument(name, required=True, type=_path)
    p.add_argument("--out", required=True, type=_path, help="output stem for .cons.jsonl and .spans.jsonl")
    # the defaults of mining.SamplerConfig, which the parser does not import
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-constraints", type=int, default=3)
    p.add_argument("--min-len", type=int, default=1)
    p.add_argument("--max-len", type=int, default=3)
    p.set_defaults(func=cmd_sample)

    p = commands.add_parser("evaluate", help="score hypotheses against references")
    _add_common(p)
    p.add_argument("--hyp", required=True, type=_path)
    p.add_argument("--ref", required=True, type=_path)
    p.add_argument("--constraints", type=_path)
    p.add_argument("--window", type=_int_at_least(0), default=2)  # metrics.WINDOW
    p.add_argument("--report", type=_path, help="write the JSON report here as well")
    p.add_argument("--per-sentence", type=_path, help="write a per-sentence TSV here")
    p.set_defaults(func=cmd_evaluate)

    p = commands.add_parser("roundtrip", help="closed-loop check with a perfect model")
    _add_corpus(p)
    p.set_defaults(func=cmd_roundtrip)

    p = commands.add_parser("bench", help="throughput of the template transforms")
    _add_corpus(p)
    p.add_argument("--baseline-tps", type=_positive_float, default=3390.0)
    p.add_argument("--budget-fraction", type=_positive_float, default=0.05)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    _log.configure(os.environ.get("CTMT_LOG"))
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
