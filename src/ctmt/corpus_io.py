"""Readers and writers for every on-disk artifact.

All files are UTF-8 with LF line endings; a trailing newline is optional.
Sentence files hold one whitespace-tokenized sentence per line and are
split on ASCII whitespace runs only, so upstream tokenization is preserved
bit for bit. Alignments use the Pharaoh ``i-j`` format with 0-based
indices. Constraints and spans are JSON lines.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any

from .errors import CorpusFormatError
from .types import (
    ASCII_WHITESPACE, LONE_SURROGATE, ConstraintPair, SerializedExample, Span, TokenSeq,
)
from .vocab import ReservedVocab

_ALIGN_ITEM = re.compile(r"([0-9]+)-([0-9]+)")


def split_tokens(line: str) -> TokenSeq:
    """Split one line on ASCII whitespace runs; empty line gives no tokens."""
    return [t for t in ASCII_WHITESPACE.split(line) if t]


def join_tokens(tokens: TokenSeq) -> str:
    return " ".join(tokens)


def _read_text(path: str | Path) -> str:
    """A file's text as stored, with no newline translation (a CR stays a
    CR); bytes that are not UTF-8 fail with the 1-based line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(f"line {lineno}: not valid UTF-8 ({path})") from exc


def _read_lines(path: str | Path) -> list[str]:
    text = _read_text(path)
    if text == "":
        return []
    if text.endswith("\n"):
        text = text[:-1]
    return text.split("\n")


def _write_lines(path: str | Path, lines: list[str]) -> None:
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_token_lines(path: str | Path) -> list[TokenSeq]:
    return [split_tokens(line) for line in _read_lines(path)]


def write_token_lines(path: str | Path, sentences: list[TokenSeq]) -> None:
    _write_lines(path, [join_tokens(s) for s in sentences])


def check_line_count(corpus_lines: int, records: list, path: str | Path) -> list:
    """The records read from ``path``, which must hold one per corpus line."""
    if len(records) != corpus_lines:
        raise CorpusFormatError(f"line count mismatch {corpus_lines} vs {len(records)} ({path})")
    return records


def read_bitext(src_path: str | Path, tgt_path: str | Path) -> list[tuple[TokenSeq, TokenSeq]]:
    """Read a parallel corpus as aligned token-sequence pairs."""
    src = read_token_lines(src_path)
    return list(zip(src, check_line_count(len(src), read_token_lines(tgt_path), tgt_path)))


def write_bitext(
    src_path: str | Path, tgt_path: str | Path, pairs: list[tuple[TokenSeq, TokenSeq]]
) -> None:
    write_token_lines(src_path, [x for x, _ in pairs])
    write_token_lines(tgt_path, [y for _, y in pairs])


def read_alignments(
    path: str | Path, pairs: list[tuple[TokenSeq, TokenSeq]]
) -> list[set[tuple[int, int]]]:
    """Read Pharaoh alignments, checking indices against the paired sentences."""
    lines = check_line_count(len(pairs), _read_lines(path), path)
    out: list[set[tuple[int, int]]] = []
    for lineno, (line, (src, tgt)) in enumerate(zip(lines, pairs), start=1):
        links: set[tuple[int, int]] = set()
        for item in split_tokens(line):
            m = _ALIGN_ITEM.fullmatch(item)
            if m is None:
                raise CorpusFormatError(f"line {lineno}: malformed alignment item {item!r}")
            i, j = int(m.group(1)), int(m.group(2))
            if i >= len(src) or j >= len(tgt):
                raise CorpusFormatError(
                    f"line {lineno}: link {i}-{j} out of bounds for "
                    f"{len(src)}x{len(tgt)} sentence pair"
                )
            links.add((i, j))
        out.append(links)
    return out


def write_alignments(path: str | Path, alignments: list[set[tuple[int, int]]]) -> None:
    lines = [" ".join(f"{i}-{j}" for i, j in sorted(links)) for links in alignments]
    _write_lines(path, lines)


def read_jsonl(path: str | Path) -> list[dict]:
    """Read one JSON object per line."""
    records = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise CorpusFormatError(f"line {lineno}: expected a JSON object")
        records.append(record)
    return records


def _json_value(value: Any) -> dict:
    if isinstance(value, ConstraintPair):
        return {"src": value.src, "tgt": value.tgt}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_jsonl(path: str | Path, records: list[dict]) -> None:
    """Write one JSON object per line; a ConstraintPair becomes ``{"src", "tgt"}``."""
    lines = [json.dumps(r, ensure_ascii=False, sort_keys=True, default=_json_value) for r in records]
    _write_lines(path, lines)


def _token_list(value: Any, lineno: int, field: str) -> TokenSeq:
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise CorpusFormatError(f"line {lineno}: {field} must be a list of strings")
    if LONE_SURROGATE.search("".join(value)):
        raise CorpusFormatError(f"line {lineno}: {field} holds a lone surrogate")
    return list(value)


def _constraint_list(items: Any, lineno: int) -> list[ConstraintPair]:
    """A record's constraint array: objects with non-empty src and tgt token lists."""
    if not isinstance(items, list):
        raise CorpusFormatError(f"line {lineno}: 'constraints' must be an array")
    pairs: list[ConstraintPair] = []
    for k, item in enumerate(items):
        if not isinstance(item, dict):
            raise CorpusFormatError(f"line {lineno}: constraint items must be objects")
        src = _token_list(item.get("src"), lineno, "src")
        tgt = _token_list(item.get("tgt"), lineno, "tgt")
        try:
            pairs.append(ConstraintPair(src=src, tgt=tgt, index=k + 1))
        except ValueError as exc:
            raise CorpusFormatError(f"line {lineno}: {exc}") from exc
    return pairs


def read_constraints(path: str | Path) -> list[list[ConstraintPair]]:
    """Read one constraint set per line; empty sets are allowed."""
    return [
        _constraint_list(record.get("constraints"), lineno)
        for lineno, record in enumerate(read_jsonl(path), start=1)
    ]


def write_constraints(path: str | Path, constraint_sets: list[list[ConstraintPair]]) -> None:
    write_jsonl(path, [{"constraints": cs} for cs in constraint_sets])


MODES = ("lexical", "structural")


def meta_record(mode: str, example: SerializedExample, index: int) -> dict:
    """The metadata record of serialized line ``index``, as read_meta returns
    it: everything decode and evaluate need downstream."""
    if mode == "lexical":
        spans = [list(s) for s in example.src_spans]
        return dict(mode=mode, constraints=example.constraints, src_spans=spans, index=index)
    meta = {"mode": mode, "source_tags": example.source_tags, "index": index}
    if example.target_tags is not None:
        meta["target_tags"] = example.target_tags
    return meta


def read_meta(path: str | Path) -> list[dict]:
    """Read metadata records, checking ``constraints`` (read as in
    read_constraints), ``source_tags`` where present, and ``mode``, lexical if absent."""
    records = read_jsonl(path)
    for lineno, record in enumerate(records, start=1):
        if "constraints" in record:
            record["constraints"] = _constraint_list(record["constraints"], lineno)
        _token_list(record.get("source_tags", []), lineno, "source_tags")
        if record.setdefault("mode", "lexical") not in MODES:
            raise CorpusFormatError(f"line {lineno}: mode must be one of {', '.join(MODES)}")
    return records


def read_spans(path: str | Path) -> list[list[tuple[Span, Span]]]:
    """Read chosen constraint spans, aligned item-for-item with a constraint file."""
    out: list[list[tuple[Span, Span]]] = []
    for lineno, record in enumerate(read_jsonl(path), start=1):
        items = record.get("spans")
        if not isinstance(items, list):
            raise CorpusFormatError(f"line {lineno}: missing 'spans' array")
        spans: list[tuple[Span, Span]] = []
        for item in items:
            try:
                (s1, s2), (t1, t2) = item["src"], item["tgt"]
                if any(type(v) is not int for v in (s1, s2, t1, t2)):  # JSON integers, not bools
                    raise TypeError("span bounds must be integers")
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusFormatError(f"line {lineno}: malformed span item {item!r}") from exc
            spans.append(((s1, s2), (t1, t2)))
        out.append(spans)
    return out


def write_spans(path: str | Path, span_sets: list[list[tuple[Span, Span]]]) -> None:
    records = [
        {"spans": [{"src": list(s), "tgt": list(t)} for s, t in spans]} for spans in span_sets
    ]
    write_jsonl(path, records)


def read_corpus(src: str | Path, tgt=None, constraints=None, spans=None) -> tuple[list, ...]:
    """Source sentences and the files aligned with them, each checked to hold
    one record per source line: targets (empty without a file), constraint
    sets (empty without a file) and span pairs (None per line without a
    file), which must match the constraints item for item."""
    sources = read_token_lines(src)

    def aligned(read, path, missing):
        if not path:
            return [missing() for _ in sources]
        return check_line_count(len(sources), read(path), path)

    targets = aligned(read_token_lines, tgt, list)
    constraint_sets = aligned(read_constraints, constraints, list)
    span_sets = aligned(read_spans, spans, lambda: None)
    for lineno, (cons, pairs) in enumerate(zip(constraint_sets, span_sets), start=1):
        if pairs is not None and len(cons) != len(pairs):
            raise CorpusFormatError(f"line {lineno}: {len(pairs)} spans for {len(cons)} constraints")
    return sources, targets, constraint_sets, span_sets


def load_vocab(path: str | Path) -> ReservedVocab:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"invalid vocabulary manifest: {exc}") from exc
    try:
        return ReservedVocab.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise CorpusFormatError(f"invalid vocabulary manifest: {exc}") from exc


def save_vocab(path: str | Path, vocab: ReservedVocab) -> None:
    Path(path).write_text(
        json.dumps(vocab.to_dict(), ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
