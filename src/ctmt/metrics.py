"""Constraint-aware evaluation metrics.

Lexical metrics: corpus BLEU, exact match of required target phrases,
window overlap of the context around matched phrases, and one minus a
terminology-weighted translation edit rate in which every edit touching a
constrained token costs 2 instead of 1. Structural metrics: the fraction
of hypotheses whose markup nests properly and the fraction whose ordered
tag sequence equals the reference's.

One path computes them all: ``sentence_metrics`` gathers one record's
statistics, ``score`` turns those of any set of records into a
``MetricReport``, and ``evaluate_records`` streams records through both.
``bleu``, ``exact_match``, ``window_overlap``, ``term_score`` and
``structure_metrics`` each read one field of an ``evaluate_records``
call, so each costs a whole evaluation, 1-TERm included.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Iterable
from itertools import accumulate

from ._log import Logger
from .lexical import claim_spans, occurrences
from .types import ConstraintPair, Span, TokenSeq, Value
from .vocab import ReservedVocab

log = Logger(__name__)

# Shifted substrings are capped at this many tokens, as in standard TER.
MAX_SHIFT_LEN = 10
# BLEU counts n-grams up to this order.
MAX_NGRAM = 4
# Window Overlap compares this many tokens on each side of a matched phrase.
WINDOW = 2


class EvalRecord(Value):
    __slots__ = FIELDS = ("hypothesis", "reference", "constraints")

    def __init__(
        self, hypothesis: TokenSeq, reference: TokenSeq,
        constraints: list[ConstraintPair] | None = None,
    ) -> None:
        self.hypothesis = hypothesis
        self.reference = reference
        self.constraints = [] if constraints is None else constraints


class MetricReport(Value):
    __slots__ = FIELDS = (
        "bleu", "exact_match", "window_overlap", "one_minus_term",
        "structure_correct", "structure_match",
    )

    def __init__(
        self, bleu: float, exact_match: float, window_overlap: float, one_minus_term: float,
        structure_correct: float | None = None, structure_match: float | None = None,
    ) -> None:
        self.bleu = bleu
        self.exact_match = exact_match
        self.window_overlap = window_overlap
        self.one_minus_term = one_minus_term
        self.structure_correct = structure_correct
        self.structure_match = structure_match

    def values(self) -> dict[str, float]:
        """The metrics computed, unrounded, in field order."""
        return {name: value for name in self.FIELDS if (value := getattr(self, name)) is not None}

    def as_dict(self) -> dict:
        return {name: round(value, 4) for name, value in self.values().items()}


class SentenceStats(Value):
    """One record's sufficient statistics: ``score`` turns those of any set
    of records, a corpus or one line, into that set's metrics."""

    __slots__ = FIELDS = (
        "ngram_matches", "ngram_totals", "hyp_len", "ref_len", "phrases_found",
        "phrases_required", "window_scores", "term_edits", "term_ref_weight",
        "well_formed", "tags_match",
    )

    def __init__(
        self,
        ngram_matches: list[int],  # clipped, per n-gram order
        ngram_totals: list[int],
        hyp_len: int,
        ref_len: int,
        phrases_found: int,
        phrases_required: int,
        window_scores: list[float],  # one per phrase; concatenated, never summed, across records
        term_edits: int,
        term_ref_weight: int,
        well_formed: bool | None = None,  # structure flags, in structural mode only
        tags_match: bool | None = None,
    ) -> None:
        self.ngram_matches = ngram_matches
        self.ngram_totals = ngram_totals
        self.hyp_len = hyp_len
        self.ref_len = ref_len
        self.phrases_found = phrases_found
        self.phrases_required = phrases_required
        self.window_scores = window_scores
        self.term_edits = term_edits
        self.term_ref_weight = term_ref_weight
        self.well_formed = well_formed
        self.tags_match = tags_match


def _percent(part: float, whole: int) -> float:
    """100 * part / whole; 100 when there is nothing to score."""
    return 100.0 * part / whole if whole else 100.0


def _window(tokens: TokenSeq, span: Span, width: int) -> TokenSeq:
    start, end = span
    return tokens[max(0, start - width) : start] + tokens[end : end + width]


def _window_score(r: EvalRecord, hs: Span | None, rs: Span | None, width: int) -> float:
    if hs is None or rs is None:
        return 0.0
    hw = _window(r.hypothesis, hs, width)
    rw = _window(r.reference, rs, width)
    denom = max(len(hw), len(rw))
    if denom == 0:
        return 1.0
    return sum((Counter(hw) & Counter(rw)).values()) / denom


def _span_weights(length: int, spans: list[Span | None]) -> list[int]:
    """Weight 2 inside any of the spans (None is skipped), 1 elsewhere."""
    weights = [1] * length
    for span in spans:
        if span is not None:
            for k in range(*span):
                weights[k] = 2
    return weights


def _all_occurrence_weights(tokens: TokenSeq, phrases: list[TokenSeq]) -> list[int]:
    return _span_weights(len(tokens), [s for occ in occurrences(tokens, phrases) for s in occ])


def _extend_rows(
    row: list[int], tokens: TokenSeq, weights: list[int],
    ref: TokenSeq, ref_weights: list[int], limit: int | None = None,
) -> list[int] | None:
    """Continue the weighted-Levenshtein DP from ``row`` over ``tokens``.

    ``row`` holds the costs of turning the hypothesis prefix read so far
    into each reference prefix; the result is that row after ``tokens``.
    With weights >= 0 a row's minimum never falls from one row to the
    next, so once it reaches ``limit`` the final distance must too, and
    None is returned at once.
    """
    for h_tok, h_w in zip(tokens, weights):
        left = row[0] + h_w
        cur = [left]
        for r_tok, r_w, diag, up in zip(ref, ref_weights, row, row[1:]):
            if h_tok != r_tok:
                diag += h_w if h_w > r_w else r_w
            up += h_w
            if up < diag:
                diag = up
            left += r_w
            if diag < left:
                left = diag
            cur.append(left)
        if limit is not None and min(cur) >= limit:
            return None
        row = cur
    return row


def weighted_edit_distance(
    hyp: TokenSeq, ref: TokenSeq, hyp_weights: list[int], ref_weights: list[int]
) -> int:
    """Levenshtein distance where deleting or inserting a token costs its
    weight and substituting costs the heavier of the two tokens."""
    first_row = list(accumulate(ref_weights, initial=0))
    return _extend_rows(first_row, hyp, hyp_weights, ref, ref_weights)[-1]


def _ref_substring_positions(ref: TokenSeq) -> dict[tuple[str, ...], list[int]]:
    index: dict[tuple[str, ...], list[int]] = {}
    for j1 in range(len(ref)):
        for j2 in range(j1 + 1, min(j1 + MAX_SHIFT_LEN, len(ref)) + 1):
            index.setdefault(tuple(ref[j1:j2]), []).append(j1)
    return index


def shifted_edit_cost(
    hyp: TokenSeq, ref: TokenSeq, hyp_weights: list[int], ref_weights: list[int]
) -> int:
    """Total weighted edit cost including block shifts, greedy search.

    Following the standard TER loop: repeatedly take the single shift of a
    hypothesis substring (one that occurs in the reference, moved next to
    its reference position) that lowers the weighted edit distance by more
    than the shift's own cost, then stop. A shift costs the weight of its
    heaviest moved token.

    The search is exact, only cheaper than scoring every candidate in full:
    a candidate keeps the current hypothesis's first ``min(i1, k)`` tokens,
    so its DP starts from that row of the current hypothesis, and it is
    dropped once a row shows it cannot beat the best total so far. The
    first candidate with the lowest total still wins, in the same order.
    """
    if hyp == ref:
        return 0
    cur = list(hyp)
    cur_w = list(hyp_weights)
    first_row = list(accumulate(ref_weights, initial=0))  # the empty prefix: insert every token
    distance = weighted_edit_distance(cur, ref, cur_w, ref_weights)
    shift_total = 0
    ref_index = _ref_substring_positions(ref)

    while distance > 0:
        rows = [first_row]  # rows[p]: the DP row after cur[:p]
        for p in range(len(cur)):
            rows.append(_extend_rows(rows[p], cur[p : p + 1], cur_w[p : p + 1], ref, ref_weights))
        best = None  # (new_distance, cost, tokens, weights)
        best_total = distance  # a shift must bring the total below this
        for i1 in range(len(cur)):
            for i2 in range(i1 + 1, min(i1 + MAX_SHIFT_LEN, len(cur)) + 1):
                positions = ref_index.get(tuple(cur[i1:i2]))
                if not positions:
                    continue
                cost = max(cur_w[i1:i2])
                if cost >= best_total:
                    continue
                rest = cur[:i1] + cur[i2:]
                rest_w = cur_w[:i1] + cur_w[i2:]
                tried: set[int] = set()
                for j in positions:
                    k = min(j, len(rest))
                    if k in tried or k == i1:
                        continue
                    tried.add(k)
                    cand = rest[:k] + cur[i1:i2] + rest[k:]
                    cand_w = rest_w[:k] + cur_w[i1:i2] + rest_w[k:]
                    p = min(i1, k)
                    row = _extend_rows(
                        rows[p], cand[p:], cand_w[p:], ref, ref_weights, best_total - cost
                    )
                    if row is not None and row[-1] + cost < best_total:
                        best_total = row[-1] + cost
                        best = (row[-1], cost, cand, cand_w)
        if best is None:
            break
        distance, cost, cur, cur_w = best
        shift_total += cost
    return shift_total + distance


def _term_stats(
    r: EvalRecord, phrases: list[TokenSeq], hyp_spans: list[Span | None], lineno: int
) -> tuple[int, int]:
    """(weighted edits, weighted reference length); an empty reference is skipped."""
    if not r.reference:
        log.warning("line %d: empty reference skipped", lineno)
        return 0, 0
    ref_w = _all_occurrence_weights(r.reference, phrases)
    hyp_w = _span_weights(len(r.hypothesis), hyp_spans)
    return shifted_edit_cost(r.hypothesis, r.reference, hyp_w, ref_w), sum(ref_w)


def _one_minus_term(edits: int, ref_weight: int) -> float:
    """1-TERm of records with these summed weighted edits and reference weight."""
    return max(0.0, min(100.0, 100.0 * (1.0 - edits / ref_weight))) if ref_weight else 100.0


def _ngrams(tokens: TokenSeq, n: int) -> Counter:
    """The sentence's n-grams (tuples of n tokens) and their counts."""
    return Counter(zip(*(tokens[k:] for k in range(n))))


def _bleu_counts(hyp: TokenSeq, ref: TokenSeq) -> tuple[list[int], list[int], int, int]:
    """Clipped matches and hypothesis n-grams per order, and both lengths.

    A sentence's n-grams clipped by its own counts are all of them, so a
    hypothesis equal to its reference matches each order's total."""
    totals = [max(0, len(hyp) - n + 1) for n in range(1, MAX_NGRAM + 1)]
    if hyp == ref:
        matches = list(totals)
    else:
        matches = [
            sum((_ngrams(hyp, n) & _ngrams(ref, n)).values()) for n in range(1, MAX_NGRAM + 1)
        ]
    return matches, totals, len(hyp), len(ref)


def _bleu_score(matches: list[int], totals: list[int], hyp_len: int, ref_len: int) -> float:
    """BLEU of records with these summed counts per order and lengths."""
    if hyp_len == 0:
        return 100.0 if ref_len == 0 else 0.0
    log_sum = 0.0
    orders = 0
    smooth = 1.0
    for n, (correct, total) in enumerate(zip(matches, totals), start=1):
        if total == 0:
            continue
        if correct == 0:
            if n == 1:
                return 0.0
            smooth *= 2.0
            precision = 1.0 / (smooth * total)
        else:
            precision = correct / total
        log_sum += math.log(precision)
        orders += 1
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / orders)


def _structure_flags(r: EvalRecord, vocab: ReservedVocab) -> tuple[bool, bool]:
    from .structural import tag_sequence, tags_well_formed  # loaded by structural mode only

    hyp_tags = tag_sequence(r.hypothesis, vocab)
    return tags_well_formed(hyp_tags, vocab), hyp_tags == tag_sequence(r.reference, vocab)


def sentence_metrics(
    r: EvalRecord, *, vocab: ReservedVocab | None = None,
    structural: bool = False, window: int = WINDOW, lineno: int = 1,
) -> SentenceStats:
    """The record's statistics; a warning about it names line ``lineno``. Its
    phrases are claimed once per side, for Exact Match, Window Overlap and the
    1-TERm weights; a hypothesis equal to its reference is claimed once for both,
    and each placed phrase's windows then score 1, as _window_score gives."""
    if structural and vocab is None:
        raise ValueError("structural evaluation requires a vocabulary")
    if window < 0:
        raise ValueError(f"window must be at least 0, not {window}")
    phrases = [c.tgt for c in r.constraints]
    hyp_spans = claim_spans(r.hypothesis, phrases)
    if r.hypothesis == r.reference:
        windows = [0.0 if span is None else 1.0 for span in hyp_spans]
    else:
        ref_spans = claim_spans(r.reference, phrases)
        windows = [_window_score(r, hs, rs, window) for hs, rs in zip(hyp_spans, ref_spans)]
    return SentenceStats(
        *_bleu_counts(r.hypothesis, r.reference),
        len(phrases) - hyp_spans.count(None),
        len(phrases),
        windows,
        *_term_stats(r, phrases, hyp_spans, lineno),
        *(_structure_flags(r, vocab) if structural else (None, None)),
    )


def score(stats: Iterable[SentenceStats], structural: bool = False) -> MetricReport:
    """The metrics of the records whose statistics are given, read in one pass.

    The counts are kept as running sums. The window scores are kept, 8 bytes
    each, and added up by one sum() as a list of them would be: a running
    ``+=`` would differ in the last bits, since sum() of floats is
    compensated from Python 3.12 on.
    """
    matches, totals = [0] * MAX_NGRAM, [0] * MAX_NGRAM
    hyp_len = ref_len = found = required = edits = ref_weight = 0
    lines = well_formed = tags_match = 0
    window_scores = array("d")
    for s in stats:
        matches = [a + b for a, b in zip(matches, s.ngram_matches)]
        totals = [a + b for a, b in zip(totals, s.ngram_totals)]
        hyp_len += s.hyp_len
        ref_len += s.ref_len
        found += s.phrases_found
        required += s.phrases_required
        window_scores.extend(s.window_scores)
        edits += s.term_edits
        ref_weight += s.term_ref_weight
        lines += 1
        if structural:
            well_formed += s.well_formed
            tags_match += s.tags_match
    report = MetricReport(
        bleu=_bleu_score(matches, totals, hyp_len, ref_len),
        exact_match=_percent(found, required),
        window_overlap=_percent(sum(window_scores), len(window_scores)),
        one_minus_term=_one_minus_term(edits, ref_weight),
    )
    if structural:
        report.structure_correct = _percent(well_formed, lines)
        report.structure_match = _percent(tags_match, lines)
    return report


def evaluate_records(
    records: Iterable[EvalRecord], *, vocab: ReservedVocab | None = None,
    structural: bool = False, window: int = WINDOW,
) -> MetricReport:
    """The metrics of ``records``, scored one at a time and numbered from 1; with
    no records the arguments are never checked and the report is the empty one."""
    stats = (sentence_metrics(r, vocab=vocab, structural=structural, window=window, lineno=i)
             for i, r in enumerate(records, start=1))
    return score(stats, structural)


def bleu(records: list[EvalRecord]) -> float:
    """Corpus BLEU on the given tokens with the usual brevity penalty.

    Modified n-gram precisions up to MAX_NGRAM are combined geometrically;
    a zero count for an order above 1 falls back to 1/(2^k * total)
    exponential smoothing while zero unigram overlap scores 0. Orders for
    which the corpus has no n-grams at all are left out of the mean. Empty
    hypotheses score 0, unless every reference is empty too: then there
    is nothing to get wrong and the score is 100.
    """
    return evaluate_records(records).bleu


def exact_match(records: list[EvalRecord]) -> float:
    """Percentage of required target phrases present in their hypotheses."""
    return evaluate_records(records).exact_match


def window_overlap(records: list[EvalRecord], window: int = WINDOW) -> float:
    """Context agreement around each constraint matched in both sentences.

    For a constraint found in the hypothesis and in the reference, the up
    to ``window`` tokens on each side of the two spans are compared as
    multisets and scored by intersection size over the larger window; a
    constraint missing from either side scores 0.
    """
    return evaluate_records(records, window=window).window_overlap


def term_score(records: list[EvalRecord]) -> float:
    """One minus the terminology-weighted translation edit rate, in percent.

    Reference tokens inside any occurrence of a required target phrase and
    hypothesis tokens inside a matched occurrence weigh 2; everything else
    weighs 1. The corpus rate divides total weighted edits by the total
    weighted reference length; the result is clamped to [0, 100].
    """
    return evaluate_records(records).one_minus_term


def structure_metrics(records: list[EvalRecord], vocab: ReservedVocab) -> tuple[float, float]:
    """(correct%, match%): well-formed markup, and tag order equal to the
    reference's."""
    report = evaluate_records(records, vocab=vocab, structural=True)
    return report.structure_correct, report.structure_match
