"""Lexically constrained templates.

A sentence with N constraint phrases splits into N+1 free-token fragments
around the constraint spans. The source side serializes as
``c <sep> s <sep> e`` where ``c`` lists the constraint rewrites
(C-nonterminal followed by its phrase), ``s`` is the template
``X0 C1 X1 ... CN XN``, and ``e`` lists the fragment rewrites. The target
side mirrors this with Y-nonterminals, except that the template may order
the C-nonterminals however the target sentence does. At inference time the
constraint section ``d <sep>`` is forced as the decoder prefix and the
model produces the rest, ``t <sep> f``, which this module parses,
validates, and expands back into a plain sentence.
"""

from __future__ import annotations

from collections import Counter

from .errors import (
    ConstraintMatchError,
    InternalError,
    OutputParseError,
    SpanError,
)
from .types import (
    ConstraintPair,
    DerivationTable,
    Nonterminal,
    ParsedOutput,
    SerializedExample,
    Span,
    Template,
    TemplateVerdict,
    TokenSeq,
    disjoint,
)
from .vocab import ReservedVocab


def occurrences(tokens: TokenSeq, phrases: list[TokenSeq]) -> list[list[Span]]:
    """Each phrase's spans in the sentence, leftmost first; equal phrases
    share one list. Phrases are non-empty, as constraint phrases are.

    One pass over the sentence indexes where each phrase's first token
    stands, so a phrase is compared only at those positions.
    """
    starts: dict[str, list[int]] = {p[0]: [] for p in phrases}
    for position, token in enumerate(tokens):
        if token in starts:
            starts[token].append(position)
    found: dict[tuple[str, ...], list[Span]] = {}
    for phrase in phrases:
        key = tuple(phrase)
        if key not in found:
            width = len(phrase)
            found[key] = [
                (s, s + width) for s in starts[phrase[0]] if tokens[s : s + width] == phrase
            ]
    return [found[tuple(phrase)] for phrase in phrases]


def find_disjoint_assignment(
    tokens: TokenSeq, phrases: list[TokenSeq], node_budget: int = 100_000
) -> list[Span] | None:
    """One non-overlapping occurrence per phrase, or None; None has four causes.

    Two are rejected before any search: a phrase that does not occur at
    all, and phrases that together need more copies of some token than the
    sentence has. Otherwise phrases are placed in the given order, each
    trying its leftmost free occurrence first and backtracking through the
    alternatives; its first descent is plain greedy claiming. The search
    gives None when no disjoint placement exists or when its budget, one
    node per occurrence tried and its only bound, runs out."""
    occs = occurrences(tokens, phrases)
    if not all(occs) or Counter(t for p in phrases for t in p) - Counter(tokens):
        return None
    occupied = bytearray(len(tokens))  # 1 at each position a chosen span covers
    chosen: list[Span] = []  # chosen[k] is phrase k's placement
    untried = [iter(o) for o in occs]  # untried[k]: phrase k's occurrences not yet tried
    nodes = node_budget
    while len(chosen) < len(occs):
        k = len(chosen)
        for start, end in untried[k]:
            nodes -= 1
            if nodes <= 0:
                return None
            if occupied.find(1, start, end) < 0:
                occupied[start:end] = b"\1" * (end - start)
                chosen.append((start, end))
                break
        else:  # phrase k has no free occurrence left: back up past it
            if not chosen:
                return None
            untried[k] = iter(occs[k])
            start, end = chosen.pop()
            occupied[start:end] = bytes(end - start)
    return chosen


def claim_spans(tokens: TokenSeq, phrases: list[TokenSeq]) -> list[Span | None]:
    """One occurrence per phrase, no token position serving two phrases.

    Each phrase in order claims its leftmost free occurrence. Only when that
    leaves a phrase without one does find_disjoint_assignment search for a
    full placement; its result is returned when it finds one, and the greedy
    claim, with None for each phrase left unplaced, when it does not.
    """
    phrases = [list(p) for p in phrases]
    occupied = bytearray(len(tokens))  # 1 at each position a claimed span covers
    # equal phrases share one iterator: an occurrence passed over or claimed
    # stays taken, so the next copy of the phrase resumes after it
    occs = occurrences(tokens, phrases)
    cursors = {id(o): iter(o) for o in occs}
    out: list[Span | None] = []
    for occ in occs:
        found = None
        for start, end in cursors[id(occ)]:
            if occupied.find(1, start, end) < 0:
                occupied[start:end] = b"\1" * (end - start)
                found = (start, end)
                break
        out.append(found)
    if None not in out:
        return out
    return find_disjoint_assignment(tokens, phrases) or out


def _place_phrases(
    tokens: TokenSeq, phrases: list[TokenSeq], spans: list[Span] | None, side: str
) -> list[Span]:
    """One span per phrase, aligned item-for-item: given spans are checked
    for count, coverage and overlap, and otherwise claim_spans places the
    phrases, raising ConstraintMatchError for the first it cannot place."""
    if spans is None:
        spans = claim_spans(tokens, phrases)
        if None in spans:
            phrase = phrases[spans.index(None)]
            raise ConstraintMatchError(
                f"constraint phrase {' '.join(phrase)!r} has no available occurrence"
            )
        return spans
    if len(spans) != len(phrases):
        raise SpanError(f"one {side} span is required per constraint")
    for phrase, (start, end) in zip(phrases, spans):
        if start < 0 or end > len(tokens) or tokens[start:end] != phrase:
            raise SpanError(
                f"{side} span ({start},{end}) does not cover phrase {' '.join(phrase)!r}"
            )
    ordered = sorted(spans)
    for a, b in zip(ordered, ordered[1:]):
        if not disjoint(a, b):
            raise SpanError(f"{side} spans {a} and {b} overlap")
    return spans


def match_constraint_spans(x: TokenSeq, constraints: list[ConstraintPair]) -> list[Span]:
    """Locate each constraint's source phrase in x.

    The spans are those of claim_spans, in the input constraint order: each
    phrase claims its leftmost free occurrence, and the backtracking search
    runs only when that fails. A phrase left unplaced raises
    ConstraintMatchError naming the first such phrase.
    """
    return _place_phrases(x, [c.src for c in constraints], None, "source")


def segment(x: TokenSeq, spans: list[Span]) -> list[TokenSeq]:
    """Split x into the free fragments around ascending, disjoint spans.

    Returns len(spans)+1 fragments; fragments at the sentence boundary or
    between adjacent spans are empty.
    """
    prev_end = 0
    fragments: list[TokenSeq] = []
    for start, end in spans:
        if start < prev_end:
            raise SpanError(f"span ({start},{end}) overlaps or precedes an earlier span")
        if start > end or end > len(x):
            raise SpanError(f"span ({start},{end}) out of bounds for length {len(x)}")
        fragments.append(x[prev_end:start])
        prev_end = end
    fragments.append(x[prev_end:])
    return fragments


def canonical_constraints(
    x: TokenSeq,
    constraints: list[ConstraintPair],
    src_spans: list[Span] | None = None,
) -> tuple[list[ConstraintPair], list[Span], list[int]]:
    """Constraints in canonical (source) order, by ascending source span
    position; ``C_n`` is the n-th.

    Supplied spans are checked; otherwise they are matched as
    match_constraint_spans does. Returns the ordered constraints, their
    ascending spans, and the permutation mapping canonical position to
    input position.
    """
    src_spans = _place_phrases(x, [c.src for c in constraints], src_spans, "source")
    perm = sorted(range(len(src_spans)), key=lambda i: src_spans[i])
    return [constraints[i] for i in perm], [src_spans[i] for i in perm], perm


def _render_source(
    x: TokenSeq,
    ordered: list[ConstraintPair],
    spans: list[Span],
    vocab: ReservedVocab,
) -> SerializedExample:
    """The source stream ``c <sep> s <sep> e`` and the forced prefix
    ``d <sep>`` of canonically ordered constraints."""
    slots = [vocab.render(("C", n)) for n in range(1, len(ordered) + 1)]
    return SerializedExample(
        encoder_input=constraint_section(slots, [c.src for c in ordered], vocab)
        + render_side("X", slots, segment(x, spans), vocab),
        decoder_prefix=constraint_section(slots, [c.tgt for c in ordered], vocab),
        constraints=ordered,
        src_spans=spans,
    )


def constraint_derivation(constraints: list[ConstraintPair]) -> DerivationTable:
    """The C-rules of constraints in canonical (source) order: C_n rewrites
    to the n-th target phrase."""
    return {Nonterminal("C", n): list(c.tgt) for n, c in enumerate(constraints, start=1)}


def build_training_pair(
    x: TokenSeq,
    y: TokenSeq,
    constraints: list[ConstraintPair],
    tgt_spans: list[Span] | None = None,
    *,
    vocab: ReservedVocab,
    src_spans: list[Span] | None = None,
) -> SerializedExample:
    """Serialize a training pair into flat encoder and decoder-target streams.

    Constraints are put in canonical (source) order; ``C_n`` is the n-th.
    The constraint sections always list ascending indices; the target
    template follows the order the constraints take in y. ``tgt_spans``, when given, must
    be aligned item-for-item with ``constraints``; otherwise the target
    phrases are placed in y by claim_spans, in canonical order. The example carries
    the streams in ``encoder_input`` and ``target_output``, the forced
    prefix, and the canonical constraints with their source spans.
    """
    vocab.check_plain(x, "source sentence")
    vocab.check_plain(y, "target sentence")
    ordered, spans, perm = canonical_constraints(x, constraints, src_spans)
    example = _render_source(x, ordered, spans, vocab)

    if tgt_spans is not None and len(tgt_spans) == len(perm):
        # into canonical order; a wrong count reaches _place_phrases as given
        tgt_spans = [tgt_spans[i] for i in perm]
    t_spans = _place_phrases(y, [c.tgt for c in ordered], tgt_spans, "target")

    target_order = sorted(range(len(ordered)), key=lambda i: t_spans[i])
    slots = [vocab.render(("C", i + 1)) for i in target_order]
    example.target_output = example.decoder_prefix + render_side(
        "Y", slots, segment(y, sorted(t_spans)), vocab
    )
    return example


def build_inference_input(
    x: TokenSeq,
    constraints: list[ConstraintPair],
    *,
    vocab: ReservedVocab,
    src_spans: list[Span] | None = None,
) -> SerializedExample:
    """Serialize the source side and the forced decoder prefix ``d <sep>``,
    keeping the canonical constraints and their source spans."""
    vocab.check_plain(x, "source sentence")
    for c in constraints:
        vocab.check_plain(c.tgt, "constraint target phrase")
    ordered, spans, _ = canonical_constraints(x, constraints, src_spans)
    return _render_source(x, ordered, spans, vocab)


def render_side(
    kind: str, slots: list[str], fragments: list[TokenSeq], vocab: ReservedVocab
) -> TokenSeq:
    """One side of a template stream, ``K0 s1 K1 ... sN KN <sep> K0 f0 ... KN fN``.

    The template puts each slot token (a rendered C-nonterminal or a markup
    tag) between kind-K nonterminals; after the separator each nonterminal
    is followed by its fragment. There is one fragment more than slots.
    read_output reads the target side back.
    """
    nts = [vocab.render((kind, n)) for n in range(len(fragments))]
    stream = nts[:1]
    for slot, nt in zip(slots, nts[1:]):
        stream += (slot, nt)
    stream.append(vocab.sep_token)
    for nt, fragment in zip(nts, fragments):
        stream.append(nt)
        stream += fragment
    return stream


def constraint_section(slots: list[str], phrases: list[TokenSeq], vocab: ReservedVocab) -> TokenSeq:
    """The constraint section: each rendered C-nonterminal followed by its
    phrase, then a separator. With source phrases it is ``c <sep>``; with
    target phrases it is the forced decoder prefix ``d <sep>``."""
    section: TokenSeq = []
    for slot, phrase in zip(slots, phrases):
        section.append(slot)
        section += phrase
    section.append(vocab.sep_token)
    return section


def read_output(
    tail: TokenSeq,
    vocab: ReservedVocab,
    *,
    structural: bool = False,
    n_constraints: int | None = None,
) -> tuple[ParsedOutput, str | None]:
    """Tolerant reading of a model continuation ``t <sep> f``, and the first
    violation a strict parse rejects (None if there is none).

    Every token of the template region (up to the first separator, or the
    whole line) becomes an element. In the derivation region each
    nonterminal opens a rule and a repeated one keeps its first; separators,
    rejected tags and free tokens before any rule are dropped.
    """
    sep = vocab.sep_token
    cut = tail.index(sep) if sep in tail else len(tail)
    error = None if cut < len(tail) else "no separator between template and derivations"
    allowed = ("Y",) if structural else ("Y", "C")
    elements: list[Nonterminal | str] = []
    warnings: list[str] = []
    for tok in tail[:cut]:
        if structural and vocab.is_tag(tok):
            elements.append(tok)
            continue
        nt = vocab.parse_token(tok)
        elements.append(tok if nt is None else nt)
        if nt is None or nt.kind not in allowed:
            error = error or f"token {tok!r} is not allowed in the template region"
        elif n_constraints is not None and nt.kind == "C" and nt.index > n_constraints:
            warnings.append(f"constraint index {nt.index} exceeds the {n_constraints} provided")

    rules: DerivationTable = {}
    current: TokenSeq | None = None
    for tok in tail[cut + 1 :]:
        if tok == sep:
            error = error or "unexpected separator inside the derivation region"
        elif structural and vocab.is_tag(tok):
            error = error or f"markup tag {tok!r} inside the derivation region"
        elif (nt := vocab.parse_token(tok)) is None:
            if current is None:
                error = error or f"free token {tok!r} before any derivation nonterminal"
            else:
                current.append(tok)
        else:
            if nt.kind != "Y":
                error = error or f"{tok!r} is not allowed in the derivation region"
            current = []
            if nt in rules:
                warnings.append(f"repeated derivation for {nt.kind}{nt.index}; kept the first rule")
            else:
                rules[nt] = current
    return ParsedOutput(Template(elements), rules, warnings), error


def strict(parsed: ParsedOutput, error: str | None) -> ParsedOutput:
    """The reading of a line a strict parse accepts; otherwise raise
    OutputParseError with the violation, carrying the reading."""
    if error is not None:
        raise OutputParseError(error, parsed)
    return parsed


def scan_derivation_rules(
    tokens: TokenSeq, vocab: ReservedVocab, *, reject_tags: bool = False
) -> tuple[DerivationTable, list[str]]:
    """Parse a derivation region strictly, as read_output does after the
    separator. Returns the table and the repeated-rule warnings."""
    parsed = strict(*read_output([vocab.sep_token, *tokens], vocab, structural=reject_tags))
    return parsed.derivation, parsed.warnings


def parse_output(
    tail: TokenSeq, vocab: ReservedVocab, n_constraints: int | None = None
) -> ParsedOutput:
    """Parse a model continuation ``t <sep> f`` emitted after the prefix.

    The template region before the first separator admits only Y- and
    C-nonterminals. When ``n_constraints`` is given, out-of-range
    constraint indices are reported as warnings for auditing.
    """
    return strict(*read_output(tail, vocab, n_constraints=n_constraints))


def validate_template(template: Template, n_constraints: int) -> TemplateVerdict:
    """Check the required shape Y0 C Y1 ... C YN with index set {1..N}.

    Any permutation of the constraint indices is accepted; duplicates,
    omissions, and out-of-range indices are not.
    """
    elems = template.elements
    if len(elems) % 2 == 0:
        return TemplateVerdict(False, f"template of {len(elems)} elements cannot alternate")
    for pos, e in enumerate(elems):
        if not isinstance(e, Nonterminal):
            return TemplateVerdict(False, f"literal token {e!r} in a lexical template")
        if pos % 2 == 0:
            if e.kind != "Y" or e.index != pos // 2:
                return TemplateVerdict(False, f"expected Y{pos // 2} at position {pos}")
        elif e.kind != "C":
            return TemplateVerdict(False, f"expected a constraint nonterminal at position {pos}")
    found = [e.index for e in elems[1::2]]  # the loop has checked that each is a C
    seen, required = set(found), set(range(1, n_constraints + 1))
    if missing := required - seen:
        return TemplateVerdict(False, f"missing constraint index {min(missing)}")
    if extra := seen - required:
        return TemplateVerdict(False, f"unknown constraint index {min(extra)}")
    if len(found) != len(seen):
        dup = min(i for i in seen if found.count(i) > 1)
        return TemplateVerdict(False, f"duplicated constraint index {dup}")
    return TemplateVerdict(True)


def reconstruct(
    template: Template,
    constraint_rules: DerivationTable,
    free_rules: DerivationTable,
) -> TokenSeq:
    """Expand a template into tokens using the available derivation rules.

    Free-token nonterminals without a rule expand to the empty fragment. A
    constraint nonterminal without a rule cannot happen for a validated
    template and is reported as an internal error.
    """
    out: TokenSeq = []
    for e in template.elements:
        if isinstance(e, str):
            out.append(e)
        elif e.kind == "C":
            fragment = constraint_rules.get(e)
            if fragment is None:
                raise InternalError(f"no derivation for constraint nonterminal C{e.index}")
            out.extend(fragment)
        else:
            fragment = free_rules.get(e)
            if fragment is not None:
                out.extend(fragment)
    return out
