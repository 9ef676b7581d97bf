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
from operator import itemgetter

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


class Value:
    """Base of the value classes. A subclass names its fields in ``FIELDS``,
    in constructor order, and sets them in its own ``__init__``; equality
    (with an instance of the same class) and the repr follow the fields."""

    __slots__ = ()
    FIELDS: tuple[str, ...] = ()

    def _values(self) -> tuple:
        # from a list, so the tuple is allocated at its size: tuple() of a
        # generator allocates at a guess and shrinks, and CPython's tuple free
        # lists then keep one more block per call, up to 2,000 of them
        return tuple([getattr(self, name) for name in self.FIELDS])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__qualname__}({fields})"


class FrozenValue(Value):
    """A value class whose fields cannot be reassigned after ``__init__``,
    which sets them with ``object.__setattr__``; it hashes as its fields do."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):  # copy and pickle rebuild through __init__, as __setattr__ refuses
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Nonterminal(tuple):
    """An indexed placeholder: X/Y for free fragments, C for constraints.

    It is the tuple ``(kind, index)``: it hashes, compares and orders as
    that tuple does (so it equals it), and cannot be changed.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int) -> Nonterminal:
        if kind not in NT_KINDS:
            raise ValueError(f"unknown nonterminal kind {kind!r}")
        if index < 0:
            raise ValueError("nonterminal index must be non-negative")
        return tuple.__new__(cls, (kind, index))

    kind = property(itemgetter(0))
    index = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[str, int]:  # copy and pickle call __new__ with these
        return tuple(self)

    def __repr__(self) -> str:
        return f"Nonterminal(kind={self.kind!r}, index={self.index!r})"


class ConstraintPair(Value):
    """A source phrase that must be translated as a fixed target phrase."""

    __slots__ = FIELDS = ("src", "tgt")

    def __init__(self, src: TokenSeq, tgt: TokenSeq) -> None:
        if not src or not tgt:
            raise ValueError("constraint phrases must be non-empty")
        try:  # one pass over both phrases; the loop finds the first bad token
            clean = all(src) and all(tgt) and not ASCII_WHITESPACE.search("".join((*src, *tgt)))
        except TypeError:  # a token that is not a string fails in the loop as it always has
            clean = False
        if not clean:
            for tok in (*src, *tgt):
                if not tok or ASCII_WHITESPACE.search(tok):
                    raise ValueError(f"constraint token {tok!r} is empty or contains whitespace")
        self.src = src
        self.tgt = tgt


class Template(Value):
    """Ordered plan of a sentence: nonterminals plus literal tag tokens."""

    __slots__ = FIELDS = ("elements",)

    def __init__(self, elements: list[Nonterminal | str]) -> None:
        self.elements = elements

    def nonterminals(self, kind: str) -> list[Nonterminal]:
        return [e for e in self.elements if isinstance(e, Nonterminal) and e.kind == kind]

    def constraint_indices(self) -> list[int]:
        return [nt.index for nt in self.nonterminals("C")]

    def tags(self) -> list[str]:
        return [e for e in self.elements if isinstance(e, str)]


# Rules rewriting each nonterminal into a token fragment, in the order given.
DerivationTable = dict[Nonterminal, TokenSeq]


class SerializedExample(Value):
    """Flattened model-facing views of one sentence pair, plus what
    serialization settled on the way.

    Every builder returns one. ``encoder_input`` is the source stream and
    ``decoder_prefix`` the forced prefix (``d <sep>`` for lexical lines,
    empty for structural ones). ``target_output`` is the full target
    stream of a training pair and empty for an inference input; the model
    continuation is what follows the prefix in it. Lexical builders fill
    ``constraints`` in canonical (source) order, ``C_n`` the n-th, and
    their ascending ``src_spans``; structural builders fill
    ``source_tags`` and, for a training pair, ``target_tags``. A list
    left out is a new empty list.
    """

    __slots__ = FIELDS = (
        "encoder_input", "decoder_prefix", "target_output", "constraints",
        "src_spans", "source_tags", "target_tags",
    )

    def __init__(
        self,
        encoder_input: TokenSeq,
        decoder_prefix: TokenSeq,
        target_output: TokenSeq | None = None,
        constraints: list[ConstraintPair] | None = None,
        src_spans: list[Span] | None = None,
        source_tags: list[str] | None = None,
        target_tags: list[str] | None = None,
    ) -> None:
        self.encoder_input = encoder_input
        self.decoder_prefix = decoder_prefix
        self.target_output = [] if target_output is None else target_output
        self.constraints = [] if constraints is None else constraints
        self.src_spans = [] if src_spans is None else src_spans
        self.source_tags = [] if source_tags is None else source_tags
        self.target_tags = target_tags


class TemplateVerdict(Value):
    __slots__ = FIELDS = ("valid", "reason")

    def __init__(self, valid: bool, reason: str | None = None) -> None:
        self.valid = valid
        self.reason = reason

    def __bool__(self) -> bool:
        return self.valid


class ParsedOutput(Value):
    """Result of splitting a model continuation into template and rules."""

    __slots__ = FIELDS = ("template", "derivation", "warnings")

    def __init__(
        self, template: Template, derivation: DerivationTable, warnings: list[str] | None = None
    ) -> None:
        self.template = template
        self.derivation = derivation
        self.warnings = [] if warnings is None else warnings

    def omitted(self) -> list[Nonterminal]:
        """Free-token nonterminals of the template with no derivation rule."""
        return [nt for nt in self.template.nonterminals("Y") if self.derivation.get(nt) is None]
