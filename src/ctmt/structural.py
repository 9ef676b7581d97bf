"""Structurally constrained templates for markup-bearing sentences.

Registered tag tokens stay literal in the template while the free-token
runs between them become nonterminals, so a sentence with N tags yields
``X0 <tag1> X1 ... <tagN> XN``. Serialization is ``s <sep> e`` on the
source side and ``t <sep> f`` on the target side; there is no forced
decoder prefix. Validity of a generated template means its tag stream
nests properly and recalls exactly the source tags.
"""

from __future__ import annotations

from collections import Counter

from ._log import Logger
from .types import (
    DerivationTable,
    Nonterminal,
    ParsedOutput,
    SerializedExample,
    Template,
    TemplateVerdict,
    TokenSeq,
)
from .lexical import read_output, reconstruct, render_side, strict
from .vocab import ReservedVocab

log = Logger(__name__)


def segment_tagged(x: TokenSeq, vocab: ReservedVocab) -> tuple[list[str], list[TokenSeq]]:
    """Split a tagged sentence into its tag tokens and the free runs between them.

    Returns (tags, fragments) with len(fragments) == len(tags) + 1;
    interleaving fragments and tags reproduces the sentence.
    """
    tags: list[str] = []
    fragments: list[TokenSeq] = [[]]
    for tok in x:
        if vocab.is_tag(tok):
            tags.append(tok)
            fragments.append([])
        else:
            fragments[-1].append(tok)
    return tags, fragments


def build_structural_pair(
    x: TokenSeq, y: TokenSeq, *, vocab: ReservedVocab
) -> SerializedExample:
    """Serialize a tagged sentence pair into flat encoder and target streams.

    The target side keeps whatever tag order y exhibits. A difference
    between the two tag multisets is recorded as a warning; training data
    may legitimately differ and evaluation makes the final call. The
    example carries the streams in ``encoder_input`` and
    ``target_output``, and both tag sequences.
    """
    example = build_structural_input(x, vocab=vocab)
    vocab.check_plain(y, "target sentence")
    tgt_tags, fragments = segment_tagged(y, vocab)
    if Counter(example.source_tags) != Counter(tgt_tags):
        log.warning(
            "tag multiset mismatch: source %s vs target %s",
            sorted(example.source_tags), sorted(tgt_tags),
        )
    example.target_output = render_side("Y", tgt_tags, fragments, vocab)
    example.target_tags = tgt_tags
    return example


def build_structural_input(x: TokenSeq, *, vocab: ReservedVocab) -> SerializedExample:
    """Serialize the source side only; structural decoding has no forced prefix."""
    vocab.check_plain(x, "source sentence")
    tags, fragments = segment_tagged(x, vocab)
    return SerializedExample(
        encoder_input=render_side("X", tags, fragments, vocab), decoder_prefix=[], source_tags=tags
    )


def parse_structural_output(tail: TokenSeq, vocab: ReservedVocab) -> ParsedOutput:
    """Parse a model output ``t <sep> f`` for the structural task.

    The template region admits Y-nonterminals and registered tags; the
    derivation region is parsed exactly as in the lexical task, with tags
    rejected.
    """
    return strict(*read_output(tail, vocab, structural=True))


def _nesting_error(tags: list[str], vocab: ReservedVocab) -> str | None:
    stack: list[str] = []
    for tag in tags:
        role, name = vocab.tag_role(tag)
        if role == "open":
            stack.append(name)
        elif role == "close":
            if not stack or stack[-1] != name:
                return f"closing tag {tag!r} does not match the innermost open element"
            stack.pop()
    if stack:
        return f"unclosed element {stack[-1]!r}"
    return None


def tags_well_formed(tags: list[str], vocab: ReservedVocab) -> bool:
    """True when open/close tags nest properly; void symbols may sit anywhere."""
    return _nesting_error(tags, vocab) is None


def tag_sequence(tokens: TokenSeq, vocab: ReservedVocab) -> list[str]:
    """The ordered stream of registered tag tokens in a sentence."""
    return [tok for tok in tokens if vocab.is_tag(tok)]


def validate_structural_template(
    template: Template, source_tags: list[str], vocab: ReservedVocab
) -> TemplateVerdict:
    """A generated template is valid when its tag stream is well formed and
    its tag multiset equals the source sentence's."""
    for e in template.elements:
        if isinstance(e, Nonterminal) and e.kind != "Y":
            return TemplateVerdict(False, f"{e.kind}{e.index} in a structural template")
        if isinstance(e, str) and not vocab.is_tag(e):
            return TemplateVerdict(False, f"unregistered token {e!r} in a structural template")
    tags = template.tags()
    error = _nesting_error(tags, vocab)
    if error is not None:
        return TemplateVerdict(False, error)
    balance = Counter(source_tags)
    balance.subtract(tags)  # positive: missing from the template; negative: extra in it
    if any(balance.values()):
        pairs = (("missing", +balance), ("extra", -balance))
        detail = ", ".join(f"{word} {sorted(c.elements())}" for word, c in pairs if c)
        return TemplateVerdict(False, f"tag recall failed: {detail}")
    return TemplateVerdict(True)


def reconstruct_structural(template: Template, free_rules: DerivationTable) -> TokenSeq:
    """Expand a structural template: tags pass through literally, free
    nonterminals take their fragments or the empty string."""
    return reconstruct(template, {}, free_rules)
