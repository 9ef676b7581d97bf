"""Readers and writers for every on-disk artifact.

All files are UTF-8 with LF line endings; a trailing newline is optional.
Sentence files hold one whitespace-tokenized sentence per line and are
split on ASCII whitespace runs only, so upstream tokenization is preserved
bit for bit. Alignments use the Pharaoh ``i-j`` format with 0-based
indices. Constraints and spans are JSON lines.

Commands read line-aligned files together, one line of each at a time
(``iter_lines``, under ``iter_corpus`` and ``iter_bitext``), parse a meta
record with ``parse_meta``, and write through ``StagedOutput``, so a failed
run leaves no output. The whole-file ``read_*`` and ``write_*`` functions
are called by no command; the traced benchmark still wraps them.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import re
import stat
from pathlib import Path
from typing import IO, Any, Iterable, Iterator

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
    """A whole small file's text (the vocabulary manifest); bytes that are
    not UTF-8 fail as iter_lines fails on them."""
    return "\n".join(line for line, in iter_lines(path))


def count_lines(path: str | Path) -> int:
    """The number of lines iter_lines yields from a file, from a pass over its bytes."""
    count, last = 0, b"\n"
    with open(path, "rb") as f:
        while chunk := f.read(1 << 16):
            count += chunk.count(b"\n")
            last = chunk[-1:]
    return count + (last != b"\n")


def iter_lines(*paths: str | Path) -> Iterator[tuple[str, ...]]:
    """The line-aligned files read together, one tuple of line texts at a time.

    Each file is read as stored: a line ends at LF (a CR stays a CR), and a
    line whose bytes are not UTF-8 fails with the file and its 1-based line.
    Every file after the first is count-checked against it before this
    returns, so a mismatch fails before any line is read or any work done.
    Each file is read twice, to count and for its lines, so files read
    together must be regular files: a pipe would be empty the second time.
    """
    first, *companions = paths
    if companions:
        for path in paths:
            if not stat.S_ISREG(os.stat(path).st_mode):  # stat does not block on a FIFO
                raise CorpusFormatError(f"line-aligned input is not a regular file ({path})")
        corpus_lines = count_lines(first)
        for path in companions:
            if (lines := count_lines(path)) != corpus_lines:
                raise CorpusFormatError(f"line count mismatch {corpus_lines} vs {lines} ({path})")
    return _zip_lines(paths)


def _zip_lines(paths) -> Iterator[tuple[str, ...]]:
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "rb")) for path in paths]
        for lineno, raws in enumerate(zip(*files), start=1):
            yield tuple(_decode(raw, lineno, path) for raw, path in zip(raws, paths))


def _decode(raw: bytes, lineno: int, path) -> str:
    try:
        return raw.decode("utf-8").removesuffix("\n")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"line {lineno}: not valid UTF-8 ({path})") from exc


def token_line(tokens: TokenSeq) -> str:
    """One token sequence as a file line, LF included."""
    return join_tokens(tokens) + "\n"


def json_line(record: dict) -> str:
    """One JSON object as a file line, LF included; a ConstraintPair becomes ``{"src", "tgt"}``."""
    return json.dumps(record, ensure_ascii=False, sort_keys=True, default=_json_value) + "\n"


def _json_value(value: Any) -> dict:
    if isinstance(value, ConstraintPair):
        return {"src": value.src, "tgt": value.tgt}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_lines(path: str | Path, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(lines)


def read_token_lines(path: str | Path) -> list[TokenSeq]:
    return [split_tokens(line) for line, in iter_lines(path)]


def write_token_lines(path: str | Path, sentences: list[TokenSeq]) -> None:
    _write_lines(path, map(token_line, sentences))


def iter_bitext(
    src_path: str | Path, tgt_path: str | Path, align_path: str | Path | None = None
) -> Iterator[tuple[TokenSeq, TokenSeq, set[tuple[int, int]] | None]]:
    """A parallel corpus as aligned token-sequence pairs, each with its
    Pharaoh links checked against the pair (None without an alignment file)."""
    rows = iter_lines(src_path, tgt_path, *([align_path] if align_path else []))
    for lineno, (x, y, *align) in enumerate(rows, start=1):
        src, tgt = split_tokens(x), split_tokens(y)
        yield src, tgt, (_links(align[0], lineno, src, tgt) if align else None)


def read_bitext(src_path: str | Path, tgt_path: str | Path) -> list[tuple[TokenSeq, TokenSeq]]:
    """Read a parallel corpus as aligned token-sequence pairs."""
    return [(src, tgt) for src, tgt, _ in iter_bitext(src_path, tgt_path)]


def _links(line: str, lineno: int, src: TokenSeq, tgt: TokenSeq) -> set[tuple[int, int]]:
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
    return links


def read_alignments(
    src_path: str | Path, tgt_path: str | Path, align_path: str | Path
) -> list[set[tuple[int, int]]]:
    """Read Pharaoh alignments, checking indices against the paired sentences."""
    return [links for _, _, links in iter_bitext(src_path, tgt_path, align_path)]


def _json_object(line: str, lineno: int) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise CorpusFormatError(f"line {lineno}: expected a JSON object")
    return record


def read_jsonl(path: str | Path) -> list[dict]:
    """Read one JSON object per line."""
    return [_json_object(line, lineno) for lineno, (line,) in enumerate(iter_lines(path), start=1)]


def write_jsonl(path: str | Path, records: list[dict]) -> None:
    """Write one JSON object per line, as json_line does."""
    _write_lines(path, map(json_line, records))


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
    for item in items:
        if not isinstance(item, dict):
            raise CorpusFormatError(f"line {lineno}: constraint items must be objects")
        src = _token_list(item.get("src"), lineno, "src")
        tgt = _token_list(item.get("tgt"), lineno, "tgt")
        try:
            pairs.append(ConstraintPair(src=src, tgt=tgt))
        except ValueError as exc:
            raise CorpusFormatError(f"line {lineno}: {exc}") from exc
    return pairs


def _constraints(line: str, lineno: int) -> list[ConstraintPair]:
    return _constraint_list(_json_object(line, lineno).get("constraints"), lineno)


def read_constraints(path: str | Path) -> list[list[ConstraintPair]]:
    """Read one constraint set per line; empty sets are allowed."""
    return [_constraints(line, lineno) for lineno, (line,) in enumerate(iter_lines(path), start=1)]


def constraints_record(constraints: list[ConstraintPair]) -> dict:
    """One line's record of a constraint file."""
    return {"constraints": constraints}


def write_constraints(path: str | Path, constraint_sets: list[list[ConstraintPair]]) -> None:
    write_jsonl(path, [constraints_record(cs) for cs in constraint_sets])


MODES = ("lexical", "structural")


def meta_record(mode: str, example: SerializedExample, index: int) -> dict:
    """The metadata record of serialized line ``index``, as parse_meta returns
    it: everything decode and evaluate need downstream."""
    if mode == "lexical":
        spans = [list(s) for s in example.src_spans]
        return dict(mode=mode, constraints=example.constraints, src_spans=spans, index=index)
    meta = {"mode": mode, "source_tags": example.source_tags, "index": index}
    if example.target_tags is not None:
        meta["target_tags"] = example.target_tags
    return meta


def parse_meta(line: str, lineno: int) -> dict:
    """One metadata record, checking ``constraints`` (as a constraint file's
    are), ``source_tags`` where present, and ``mode``, lexical if absent."""
    record = _json_object(line, lineno)
    if "constraints" in record:
        record["constraints"] = _constraint_list(record["constraints"], lineno)
    _token_list(record.get("source_tags", []), lineno, "source_tags")
    if record.setdefault("mode", "lexical") not in MODES:
        raise CorpusFormatError(f"line {lineno}: mode must be one of {', '.join(MODES)}")
    return record


def _spans(line: str, lineno: int) -> list[tuple[Span, Span]]:
    items = _json_object(line, lineno).get("spans")
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
    return spans


def read_spans(path: str | Path) -> list[list[tuple[Span, Span]]]:
    """Read chosen constraint spans, aligned item-for-item with a constraint file."""
    return [_spans(line, lineno) for lineno, (line,) in enumerate(iter_lines(path), start=1)]


def spans_record(spans: list[tuple[Span, Span]]) -> dict:
    """One line's record of a span file."""
    return {"spans": [{"src": list(s), "tgt": list(t)} for s, t in spans]}


def write_spans(path: str | Path, span_sets: list[list[tuple[Span, Span]]]) -> None:
    write_jsonl(path, [spans_record(spans) for spans in span_sets])


def iter_corpus(src: str | Path, tgt=None, constraints=None, spans=None) -> Iterator[tuple]:
    """Each source sentence with the lines aligned with it, after every
    given file is count-checked against the source: its target (empty
    without a file), constraint set (empty without a file) and span pairs
    (None without a file), which must match the constraints item for item."""
    rows = iter_lines(src, *filter(None, (tgt, constraints, spans)))
    return _corpus_rows(rows, bool(tgt), bool(constraints), bool(spans))


def _corpus_rows(rows, has_tgt: bool, has_constraints: bool, has_spans: bool) -> Iterator[tuple]:
    for lineno, (source, *rest) in enumerate(rows, start=1):
        lines = iter(rest)
        target = split_tokens(next(lines)) if has_tgt else []
        cons = _constraints(next(lines), lineno) if has_constraints else []
        pairs = _spans(next(lines), lineno) if has_spans else None
        if pairs is not None and len(cons) != len(pairs):
            raise CorpusFormatError(f"line {lineno}: {len(pairs)} spans for {len(cons)} constraints")
        yield split_tokens(source), target, cons, pairs


def load_vocab(path: str | Path) -> ReservedVocab:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"invalid vocabulary manifest: {exc}") from exc
    try:
        return ReservedVocab.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise CorpusFormatError(f"invalid vocabulary manifest: {exc}") from exc


class StagedOutput:
    """Output files written under staging names beside their targets and
    moved into place together when the ``with`` block ends without an
    exception.

    On an exception every staging file is removed, and so is every
    directory ``directory`` created, so a failed run leaves no output and
    an earlier output at the same place untouched. A run killed outright
    may leave a staging file, ``NAME.PID.tmp``, behind.
    """

    def __init__(self) -> None:
        self._files: list[tuple[IO[str], Path, Path]] = []  # (file, staging path, target)
        self._made: list[Path] = []  # directories created, outermost first

    def directory(self, path: str | Path) -> Path:
        """The directory ``path``, made with its missing parents."""
        path = Path(path)
        for d in reversed([path, *path.parents]):
            if not d.exists():
                d.mkdir()
                self._made.append(d)
        return path

    def open(self, path: str | Path) -> IO[str]:
        """A text file to write what will become ``path``. A directory at
        ``path`` fails here, not when the outputs are moved into place."""
        target = Path(path)
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        staging = target.with_name(f"{target.name}.{os.getpid()}.tmp")
        fd = os.open(staging, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        self._files.append((open(fd, "w", encoding="utf-8", newline=""), staging, target))
        return self._files[-1][0]

    def __enter__(self) -> "StagedOutput":
        return self

    def __exit__(self, exc_type, *_) -> None:
        committed = False
        try:
            for f, _, _ in self._files:
                f.close()
            if exc_type is None:
                for _, staging, target in self._files:
                    os.replace(staging, target)
                committed = True
        finally:
            if not committed:
                self._discard()

    def _discard(self) -> None:
        for f, staging, _ in self._files:
            with contextlib.suppress(OSError):
                f.close()
            with contextlib.suppress(FileNotFoundError):
                staging.unlink()
        for d in reversed(self._made):
            with contextlib.suppress(OSError):
                d.rmdir()
