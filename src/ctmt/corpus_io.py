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
from .types import ConstraintPair, TokenSeq
from .vocab import ReservedVocab

_ASCII_WS = re.compile(r"[ \t\r\n\f\v]+")

AlignmentSet = set


def split_tokens(line: str) -> TokenSeq:
    """Split one line on ASCII whitespace runs; empty line gives no tokens."""
    return [t for t in _ASCII_WS.split(line) if t]


def join_tokens(tokens: TokenSeq) -> str:
    return " ".join(tokens)


def _read_lines(path: str | Path) -> list[str]:
    text = Path(path).read_text(encoding="utf-8")
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


def read_bitext(src_path: str | Path, tgt_path: str | Path) -> list[tuple[TokenSeq, TokenSeq]]:
    """Read a parallel corpus as aligned token-sequence pairs."""
    src = read_token_lines(src_path)
    tgt = read_token_lines(tgt_path)
    if len(src) != len(tgt):
        raise CorpusFormatError(f"line count mismatch {len(src)} vs {len(tgt)}")
    return list(zip(src, tgt))


def write_bitext(
    src_path: str | Path, tgt_path: str | Path, pairs: list[tuple[TokenSeq, TokenSeq]]
) -> None:
    write_token_lines(src_path, [x for x, _ in pairs])
    write_token_lines(tgt_path, [y for _, y in pairs])


def read_alignments(
    path: str | Path, pairs: list[tuple[TokenSeq, TokenSeq]]
) -> list[set[tuple[int, int]]]:
    """Read Pharaoh alignments, checking indices against the paired sentences."""
    lines = _read_lines(path)
    if len(lines) != len(pairs):
        raise CorpusFormatError(f"line count mismatch {len(lines)} vs {len(pairs)}")
    out: list[set[tuple[int, int]]] = []
    for lineno, (line, (src, tgt)) in enumerate(zip(lines, pairs), start=1):
        links: set[tuple[int, int]] = set()
        for item in split_tokens(line):
            left, sep, right = item.partition("-")
            if not sep or not left.isdigit() or not right.isdigit():
                raise CorpusFormatError(f"line {lineno}: malformed alignment item {item!r}")
            i, j = int(left), int(right)
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


def write_jsonl(path: str | Path, records: list[dict]) -> None:
    _write_lines(path, [json.dumps(r, ensure_ascii=False, sort_keys=True) for r in records])


def _token_list(value: Any, lineno: int, field: str) -> TokenSeq:
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise CorpusFormatError(f"line {lineno}: {field} must be a list of strings")
    return list(value)


def read_constraints(path: str | Path) -> list[list[ConstraintPair]]:
    """Read one constraint set per line; empty sets are allowed."""
    out: list[list[ConstraintPair]] = []
    for lineno, record in enumerate(read_jsonl(path), start=1):
        items = record.get("constraints")
        if not isinstance(items, list):
            raise CorpusFormatError(f"line {lineno}: missing 'constraints' array")
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
        out.append(pairs)
    return out


def write_constraints(path: str | Path, constraint_sets: list[list[ConstraintPair]]) -> None:
    records = [
        {"constraints": [{"src": c.src, "tgt": c.tgt} for c in cs]} for cs in constraint_sets
    ]
    write_jsonl(path, records)


Span = tuple[int, int]


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


def load_vocab(path: str | Path) -> ReservedVocab:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
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
