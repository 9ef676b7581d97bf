"""Reserved symbol vocabulary: delimiter, nonterminal spellings, markup tags.

Nonterminals are rendered as single angle-bracket tokens such as ``<X_0>``
or ``<C_3>`` so they survive whitespace tokenization. Markup tags are
registered surface forms; a registered ``<name>`` counts as an opening tag
only when ``</name>`` is registered too, and every other registered symbol
(entities, URL placeholders) is treated as a void element.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from functools import cached_property

from .errors import CapacityError, ReservedTokenError
from .types import ASCII_WHITESPACE, LONE_SURROGATE, Nonterminal, TokenSeq

# A registered tag holds no ASCII whitespace (__post_init__ checks it).
_OPEN_RE = re.compile(r"^<([^<>/]+)>$")
_CLOSE_RE = re.compile(r"^</([^<>/]+)>$")


@dataclass(frozen=True)
class ReservedVocab:
    sep_token: str = "<sep>"
    x_prefix: str = "X"
    y_prefix: str = "Y"
    c_prefix: str = "C"
    max_index: int = 64
    registered_tags: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "registered_tags", frozenset(self.registered_tags))
        if self.max_index < 1:
            raise ValueError("max_index must be positive")
        prefixes = (self.x_prefix, self.y_prefix, self.c_prefix)
        if len(set(prefixes)) != 3:
            raise ValueError("nonterminal prefixes must be pairwise distinct")
        for surface in (self.sep_token, *prefixes, *self.registered_tags):
            if not surface or ASCII_WHITESPACE.search(surface):
                raise ValueError(f"reserved surface form {surface!r} must be a single token")
        if self._nt_pattern.match(self.sep_token):
            raise ValueError("separator token collides with a nonterminal spelling")
        for tag in self.registered_tags:
            if tag == self.sep_token or self._nt_pattern.match(tag):
                raise ValueError(f"registered tag {tag!r} collides with a reserved token")

    @cached_property
    def _nt_pattern(self) -> re.Pattern[str]:
        alts = "|".join(
            re.escape(p) for p in (self.x_prefix, self.y_prefix, self.c_prefix)
        )
        return re.compile(rf"^<({alts})_(0|[1-9][0-9]*)>$")

    @cached_property
    def _kind_by_prefix(self) -> dict[str, str]:
        return {self.x_prefix: "X", self.y_prefix: "Y", self.c_prefix: "C"}

    @cached_property
    def _prefix_by_kind(self) -> dict[str, str]:
        return {"X": self.x_prefix, "Y": self.y_prefix, "C": self.c_prefix}

    def render(self, nt: Nonterminal) -> str:
        if nt.index > self.max_index:
            raise CapacityError(
                f"nonterminal index {nt.index} exceeds reserved max_index {self.max_index}"
            )
        return f"<{self._prefix_by_kind[nt.kind]}_{nt.index}>"

    def parse_token(self, token: str) -> Nonterminal | None:
        """Recognize a rendered nonterminal; None for any other token."""
        m = self._nt_pattern.match(token)
        if m is None:
            return None
        index = int(m.group(2))
        if index > self.max_index:
            return None
        return Nonterminal(self._kind_by_prefix[m.group(1)], index)

    def is_reserved(self, token: str) -> bool:
        return token == self.sep_token or self.parse_token(token) is not None

    def is_tag(self, token: str) -> bool:
        return token in self.registered_tags

    def tag_role(self, token: str) -> tuple[str, str]:
        """Classify a registered tag as ('open'|'close'|'void', name)."""
        if token not in self.registered_tags:
            raise ValueError(f"{token!r} is not a registered tag")
        m = _CLOSE_RE.match(token)
        if m:
            return "close", m.group(1)
        m = _OPEN_RE.match(token)
        if m and f"</{m.group(1)}>" in self.registered_tags:
            return "open", m.group(1)
        return "void", token

    def check_plain(self, tokens: TokenSeq, where: str = "sentence") -> None:
        """Reject reserved tokens in a plain (non-serialized) sentence."""
        for tok in tokens:
            if self.is_reserved(tok):
                raise ReservedTokenError(f"reserved token {tok!r} appears in {where}")

    def to_dict(self) -> dict:
        """Every field, as from_dict reads it back; the tags sorted."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**data, "registered_tags": sorted(self.registered_tags)}

    @classmethod
    def from_dict(cls, data: dict) -> "ReservedVocab":
        """The vocabulary of a manifest as to_dict writes it. Each field must
        have its JSON type (an integer that is not a boolean for max_index,
        a list of strings for registered_tags, a string otherwise), and no
        string may hold a lone surrogate; an absent field keeps its default
        and unknown keys are ignored."""
        if not isinstance(data, dict):
            raise ValueError("expected a JSON object")
        given = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        for name, value in given.items():
            if name == "max_index":
                if type(value) is not int:
                    raise ValueError(f"max_index must be an integer, not {value!r}")
                continue
            if name == "registered_tags":
                if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
                    raise ValueError(f"registered_tags must be a list of strings, not {value!r}")
            elif not isinstance(value, str):
                raise ValueError(f"{name} must be a string, not {value!r}")
            if LONE_SURROGATE.search("".join(value)):  # a string joins to itself
                raise ValueError(f"{name} holds a lone surrogate: {value!r}")
        return cls(**given)


DEFAULT_VOCAB = ReservedVocab()
