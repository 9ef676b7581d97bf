"""Reserved symbol vocabulary: delimiter, nonterminal spellings, markup tags.

Nonterminals are rendered as single angle-bracket tokens such as ``<X_0>``
or ``<C_3>`` so they survive whitespace tokenization. Markup tags are
registered surface forms. ``<name>`` opens and ``</name>`` closes when both
are registered; every other registered symbol (entities, URL placeholders,
a ``<name>`` or a ``</name>`` registered alone) is a void element.
"""

from __future__ import annotations

import re

from .errors import CapacityError, ReservedTokenError
from .types import ASCII_WHITESPACE, LONE_SURROGATE, FrozenValue, Nonterminal, TokenSeq

# A registered tag holds no ASCII whitespace (__init__ checks it).
_OPEN_RE = re.compile(r"<([^<>/]+)>")


class ReservedVocab(FrozenValue):
    FIELDS = ("sep_token", "x_prefix", "y_prefix", "c_prefix", "max_index", "registered_tags")
    __slots__ = (
        *FIELDS, "_nt_pattern", "_kind_by_prefix", "_prefix_by_kind", "_spellings", "_parsed", "_roles",
    )

    def __init__(
        self,
        sep_token: str = "<sep>",
        x_prefix: str = "X",
        y_prefix: str = "Y",
        c_prefix: str = "C",
        max_index: int = 64,
        registered_tags: frozenset[str] = frozenset(),
    ) -> None:
        registered_tags = frozenset(registered_tags)
        for name, value in zip(
            self.FIELDS, (sep_token, x_prefix, y_prefix, c_prefix, max_index, registered_tags)
        ):
            object.__setattr__(self, name, value)
        if max_index < 1:
            raise ValueError("max_index must be positive")
        prefixes = (x_prefix, y_prefix, c_prefix)
        if len(set(prefixes)) != 3:
            raise ValueError("nonterminal prefixes must be pairwise distinct")
        for surface in (sep_token, *prefixes, *registered_tags):
            if not surface or ASCII_WHITESPACE.search(surface):
                raise ValueError(f"reserved surface form {surface!r} must be a single token")
        alts = "|".join(re.escape(p) for p in prefixes)
        digits = len(str(max_index)) - 1  # no more than max_index has: int() refuses long runs
        object.__setattr__(self, "_nt_pattern", re.compile(rf"<({alts})_(0|[1-9][0-9]{{0,{digits}}})>"))
        object.__setattr__(self, "_kind_by_prefix", {x_prefix: "X", y_prefix: "Y", c_prefix: "C"})
        object.__setattr__(self, "_prefix_by_kind", {"X": x_prefix, "Y": y_prefix, "C": c_prefix})
        # the spelling of each nonterminal render has made, and the nonterminal
        # of each spelling parse_token has recognized: 3 * (max_index + 1) at most
        object.__setattr__(self, "_spellings", {})
        object.__setattr__(self, "_parsed", {})
        if self.parse_token(sep_token) is not None:
            raise ValueError("separator token collides with a nonterminal spelling")
        if colliding := sorted(filter(self.is_reserved, registered_tags)):  # sorted, so one name every run
            raise ValueError(f"registered tag {colliding[0]!r} collides with a reserved token")
        roles = {tag: ("void", tag) for tag in registered_tags}
        for tag in registered_tags:  # a pair is found from its opening tag
            m = _OPEN_RE.fullmatch(tag)
            if m and (close := f"</{m[1]}>") in roles:
                roles[tag], roles[close] = ("open", m[1]), ("close", m[1])
        object.__setattr__(self, "_roles", roles)

    def render(self, nt: Nonterminal | tuple[str, int]) -> str:
        """The spelling of a Nonterminal, or of the (kind, index) pair it equals."""
        spelling = self._spellings.get(nt)
        if spelling is None:
            kind, index = nt
            if index > self.max_index:
                raise CapacityError(f"nonterminal index {index} exceeds reserved max_index {self.max_index}")
            spelling = f"<{self._prefix_by_kind[kind]}_{index}>"
            if type(index) is int:  # True or 1.0 equals 1 but spells otherwise
                self._spellings[nt] = spelling
        return spelling

    def parse_token(self, token: str) -> Nonterminal | None:
        """Recognize a rendered nonterminal; None for any other token."""
        if token[-1:] != ">":  # every spelling ends in ">"
            return None
        nt = self._parsed.get(token)
        if nt is None:
            m = self._nt_pattern.fullmatch(token)
            if m is None or (index := int(m.group(2))) > self.max_index:
                return None
            nt = self._parsed[token] = Nonterminal(self._kind_by_prefix[m.group(1)], index)
        return nt

    def is_reserved(self, token: str) -> bool:
        return token == self.sep_token or self.parse_token(token) is not None

    def is_tag(self, token: str) -> bool:
        return token in self.registered_tags

    def tag_role(self, token: str) -> tuple[str, str]:
        """Classify a registered tag as ('open'|'close'|'void', name)."""
        role = self._roles.get(token)
        if role is None:
            raise ValueError(f"{token!r} is not a registered tag")
        return role

    def check_plain(self, tokens: TokenSeq, where: str = "sentence") -> None:
        """Reject reserved tokens in a plain (non-serialized) sentence, by
        is_reserved's rule; the error names the first in line order."""
        for tok in tokens:
            # is_reserved's test, inline: a method call per token costs a third more
            if tok == self.sep_token or self.parse_token(tok) is not None:
                raise ReservedTokenError(f"reserved token {tok!r} appears in {where}")

    def to_dict(self) -> dict:
        """Every field, as from_dict reads it back; the tags sorted."""
        data = {name: getattr(self, name) for name in self.FIELDS}
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
        given = {name: data[name] for name in cls.FIELDS if name in data}
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
