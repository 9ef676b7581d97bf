"""Core value types: token sequences, constraints, templates, derivations.

A sentence is a list of tokens (``TokenSeq``): maximal runs of characters
other than ASCII whitespace, so upstream tokenization survives bit for
bit. A ``Span`` is a half-open range of token positions. Templates
abstract free-token fragments into indexed nonterminals while constraint
phrases and markup tags keep their own slots; derivation tables map each
nonterminal back to its fragment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

TokenSeq = list[str]

# What separates tokens: a run of ASCII whitespace, and nothing else.
ASCII_WHITESPACE = re.compile(r"[ \t\r\n\f\v]+")
# Decoded UTF-8 never holds a lone surrogate; only a JSON escape such as "\ud800" can.
LONE_SURROGATE = re.compile("[\ud800-\udfff]")

# Token positions start..end-1 of a sentence.
Span = tuple[int, int]


def disjoint(a: Span, b: Span) -> bool:
    """Whether two spans share no token position."""
    return a[1] <= b[0] or b[1] <= a[0]

NT_KINDS = ("X", "Y", "C")


@dataclass(frozen=True, order=True)
class Nonterminal:
    """An indexed placeholder: X/Y for free fragments, C for constraints."""

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in NT_KINDS:
            raise ValueError(f"unknown nonterminal kind {self.kind!r}")
        if self.index < 0:
            raise ValueError("nonterminal index must be non-negative")


@dataclass
class ConstraintPair:
    """A source phrase that must be translated as a fixed target phrase."""

    src: TokenSeq
    tgt: TokenSeq

    def __post_init__(self) -> None:
        if not self.src or not self.tgt:
            raise ValueError("constraint phrases must be non-empty")
        for tok in (*self.src, *self.tgt):
            if not tok or ASCII_WHITESPACE.search(tok):
                raise ValueError(f"constraint token {tok!r} is empty or contains whitespace")


@dataclass
class Template:
    """Ordered plan of a sentence: nonterminals plus literal tag tokens."""

    elements: list[Nonterminal | str]

    def nonterminals(self, kind: str) -> list[Nonterminal]:
        return [e for e in self.elements if isinstance(e, Nonterminal) and e.kind == kind]

    def constraint_indices(self) -> list[int]:
        return [nt.index for nt in self.nonterminals("C")]

    def tags(self) -> list[str]:
        return [e for e in self.elements if isinstance(e, str)]


# Rules rewriting each nonterminal into a token fragment, in the order given.
DerivationTable = dict[Nonterminal, TokenSeq]


@dataclass
class SerializedExample:
    """Flattened model-facing views of one sentence pair, plus what
    serialization settled on the way.

    Every builder returns one. ``encoder_input`` is the source stream and
    ``decoder_prefix`` the forced prefix (``d <sep>`` for lexical lines,
    empty for structural ones). ``target_output`` is the full target
    stream of a training pair and empty for an inference input; the model
    continuation is what follows the prefix in it. Lexical builders fill
    ``constraints`` in canonical (source) order, ``C_n`` the n-th, and
    their ascending ``src_spans``; structural builders fill
    ``source_tags`` and, for a training pair, ``target_tags``.
    """

    encoder_input: TokenSeq
    decoder_prefix: TokenSeq
    target_output: TokenSeq = field(default_factory=list)
    constraints: list[ConstraintPair] = field(default_factory=list)
    src_spans: list[Span] = field(default_factory=list)
    source_tags: list[str] = field(default_factory=list)
    target_tags: list[str] | None = None


@dataclass
class TemplateVerdict:
    valid: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.valid


@dataclass
class ParsedOutput:
    """Result of splitting a model continuation into template and rules."""

    template: Template
    derivation: DerivationTable
    warnings: list[str] = field(default_factory=list)

    def omitted(self) -> list[Nonterminal]:
        """Free-token nonterminals of the template with no derivation rule."""
        return [nt for nt in self.template.nonterminals("Y") if self.derivation.get(nt) is None]
