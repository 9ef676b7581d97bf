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
call, so each costs a whole evaluation, 1-TERm included. ``sentence_metrics``
alone decides a line's case: a hypothesis equal to its reference is scored
from one side, and an empty reference is logged and adds no 1-TERm weight.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from itertools import accumulate
from operator import add

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
        "phrases_required", "window_shared", "term_edits", "term_ref_weight",
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
        window_shared: dict[int, int],  # window length -> shared tokens, summed over phrases
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
        self.window_shared = window_shared
        self.term_edits = term_edits
        self.term_ref_weight = term_ref_weight
        self.well_formed = well_formed
        self.tags_match = tags_match


def _percent(part: int, whole: int) -> float:
    """100 * part / whole, rounded once; 100 when there is nothing to score."""
    return 100 * part / whole if whole else 100.0


def _window(tokens: TokenSeq, span: Span, width: int) -> TokenSeq:
    start, end = span
    return tokens[max(0, start - width) : start] + tokens[end : end + width]


def _window_score(r: EvalRecord, hs: Span | None, rs: Span | None, width: int) -> tuple[int, int]:
    if hs is None or rs is None:
        return 0, 1
    hw = _window(r.hypothesis, hs, width)
    rw = _window(r.reference, rs, width)
    if not hw and not rw:
        return 1, 1
    return sum((Counter(hw) & Counter(rw)).values()), max(len(hw), len(rw))


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
    rows: list[list[int]] | None = None,
) -> list[int] | None:
    """Continue the weighted-Levenshtein DP from ``row`` over ``tokens``.

    ``row`` holds the costs of turning the hypothesis prefix read so far
    into each reference prefix; the result is that row after ``tokens``,
    and each row on the way is appended to ``rows`` if given.
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
        if rows is not None:
            rows.append(cur)
        row = cur
    return row


def weighted_edit_distance(
    hyp: TokenSeq, ref: TokenSeq, hyp_weights: list[int], ref_weights: list[int]
) -> int:
    """Levenshtein distance where deleting or inserting a token costs its
    weight and substituting costs the heavier of the two tokens."""
    first_row = list(accumulate(ref_weights, initial=0))
    return _extend_rows(first_row, hyp, hyp_weights, ref, ref_weights)[-1]


def _all_rows(
    first_row: list[int], tokens: TokenSeq, weights: list[int],
    ref: TokenSeq, ref_weights: list[int],
) -> list[list[int]]:
    """The DP rows after each prefix of ``tokens``, ``first_row`` included."""
    rows = [first_row]
    _extend_rows(first_row, tokens, weights, ref, ref_weights, rows=rows)
    return rows


def _multiset_floor(
    hyp: TokenSeq, ref: TokenSeq, hyp_weights: list[int], ref_weights: list[int]
) -> int:
    """A lower bound on the weighted edit distance of every arrangement of
    the hypothesis's (token, weight) pairs against the reference.

    Only equal tokens pair up for free, so of a token type that the
    hypothesis holds h times and the reference r times, at least h - r
    hypothesis tokens are deleted or substituted. Either costs at least the
    token's own weight, and no operation pays for two hypothesis tokens, so
    the lightest h - r weights of each type sum to a bound. The same holds
    on the reference side; the bound is the larger of the two sums.
    """

    def surplus(tokens: TokenSeq, weights: list[int], other: TokenSeq) -> int:
        extra = Counter(tokens)
        extra.subtract(other)
        total = 0
        for token, weight in sorted(zip(tokens, weights)):  # each type's lightest first
            if extra[token] > 0:
                extra[token] -= 1
                total += weight
        return total

    return max(surplus(hyp, hyp_weights, ref), surplus(ref, ref_weights, hyp))


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

    The search is exact, only cheaper than scoring every candidate in full.
    A shift must bring the total strictly below the best so far, and each
    rule below drops only a candidate whose total provably cannot, so the
    first candidate with the lowest total still wins, in the same order:

    - Multiset floor. Shifts keep every token with its weight, so no
      arrangement has a distance below ``_multiset_floor``. The loop stops
      once the distance reaches it, and a substring is skipped once its
      cost plus the floor reaches the best total.
    - Prefix/suffix rows. Moving ``cur[i1:i2]`` to ``k`` keeps the first
      ``p = min(i1, k)`` tokens of the current hypothesis and the tokens
      from ``q = p + (i2 - i1) + |k - i1|`` on. The DP row after ``cur[:p]``
      and the row of ``cur[q:]`` against each reference suffix are kept for
      every p and q. A row's minimum never falls as tokens are added, so
      their minima plus the cost bound the candidate's total from below.
    - Alignment split. Every alignment crosses the end of the moved middle
      at some reference position j, so the candidate's distance is the
      least sum of the two rows' entries at j. Only the middle's rows are
      computed, and they stop once their minimum shows the bound above is
      reached.
    """
    cur = list(hyp)
    cur_w = list(hyp_weights)
    distance = weighted_edit_distance(cur, ref, cur_w, ref_weights)
    floor = _multiset_floor(hyp, ref, hyp_weights, ref_weights)
    if distance <= floor:  # no arrangement of the hypothesis does better
        return distance
    first_row = list(accumulate(ref_weights, initial=0))  # the empty prefix: insert every token
    rev_ref, rev_ref_w = ref[::-1], ref_weights[::-1]
    last_row = list(accumulate(rev_ref_w, initial=0))  # the empty suffix
    shift_total = 0
    ref_index = _ref_substring_positions(ref)

    while distance > floor:
        n = len(cur)
        rows = _all_rows(first_row, cur, cur_w, ref, ref_weights)  # rows[p]: after cur[:p]
        # back[q][j]: the distance of cur[q:] to ref[j:], from a DP over both reversed
        back = [row[::-1] for row in _all_rows(last_row, cur[::-1], cur_w[::-1], rev_ref, rev_ref_w)]
        back.reverse()
        row_min = [min(row) for row in rows]
        back_min = [min(row) for row in back]
        best = None  # (new_distance, cost, tokens, weights)
        best_total = distance  # a shift must bring the total below this
        for i1 in range(n):
            for i2 in range(i1 + 1, min(i1 + MAX_SHIFT_LEN, n) + 1):
                # a longer substring from i1 is in the reference no more often, and costs no less
                positions = ref_index.get(tuple(cur[i1:i2]))
                if not positions:
                    break
                cost = max(cur_w[i1:i2])
                if cost + floor >= best_total:
                    break
                tried: set[int] = set()
                for j in positions:
                    k = min(j, n - (i2 - i1))
                    if k in tried or k == i1:
                        continue
                    tried.add(k)
                    if k < i1:  # cur[:k] + cur[i1:i2] + cur[k:i1] + cur[i2:]
                        p, q = k, i2
                        mid = cur[i1:i2] + cur[k:i1]
                        mid_w = cur_w[i1:i2] + cur_w[k:i1]
                    else:  # cur[:i1] + cur[i2:q] + cur[i1:i2] + cur[q:]
                        p, q = i1, i2 + k - i1
                        mid = cur[i2:q] + cur[i1:i2]
                        mid_w = cur_w[i2:q] + cur_w[i1:i2]
                    limit = best_total - cost - back_min[q]
                    if row_min[p] >= limit:
                        continue
                    row = _extend_rows(rows[p], mid, mid_w, ref, ref_weights, limit)
                    if row is None:
                        continue
                    new_distance = min(map(add, row, back[q]))
                    if new_distance + cost < best_total:
                        best_total = new_distance + cost
                        best = (new_distance, cost,
                                cur[:p] + mid + cur[q:], cur_w[:p] + mid_w + cur_w[q:])
        if best is None:
            break
        distance, cost, cur, cur_w = best
        shift_total += cost
    return shift_total + distance


def _one_minus_term(edits: int, ref_weight: int) -> float:
    """1-TERm of records with these summed weighted edits and reference weight."""
    return max(0.0, min(100.0, 100.0 * (1.0 - edits / ref_weight))) if ref_weight else 100.0


def _ngrams(tokens: TokenSeq, n: int) -> Counter:
    """The sentence's n-grams (tuples of n tokens) and their counts."""
    return Counter(zip(*(tokens[k:] for k in range(n))))


def _ngram_totals(tokens: TokenSeq) -> list[int]:
    return [max(0, len(tokens) - n + 1) for n in range(1, MAX_NGRAM + 1)]


def _bleu_counts(hyp: TokenSeq, ref: TokenSeq) -> tuple[list[int], list[int], int, int]:
    """Clipped matches and hypothesis n-grams per order, and both lengths."""
    matches = [sum((_ngrams(hyp, n) & _ngrams(ref, n)).values()) for n in range(1, MAX_NGRAM + 1)]
    return matches, _ngram_totals(hyp), len(hyp), len(ref)


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
    """The record's statistics; a warning about it names line ``lineno``.

    This alone decides a line's case. Its phrases are claimed once per side,
    for Exact Match, Window Overlap and the 1-TERm weights. A hypothesis equal
    to its reference is claimed once for both: its BLEU matches are each
    order's total, each placed phrase's windows score 1/1, as _window_score
    gives, and it has no edits. An empty reference is logged and adds no
    1-TERm weight."""
    if structural and vocab is None:
        raise ValueError("structural evaluation requires a vocabulary")
    if window < 0:
        raise ValueError(f"window must be at least 0, not {window}")
    hyp, ref = r.hypothesis, r.reference
    phrases = [c.tgt for c in r.constraints]
    hyp_spans = claim_spans(hyp, phrases)
    ref_w = _all_occurrence_weights(ref, phrases)
    found = len(phrases) - hyp_spans.count(None)
    edits = 0
    if hyp == ref:
        totals = _ngram_totals(hyp)
        counts = totals, totals, len(hyp), len(ref)
        windows = {1: found}
    else:
        counts = _bleu_counts(hyp, ref)
        windows = Counter()
        for hs, rs in zip(hyp_spans, claim_spans(ref, phrases)):
            shared, length = _window_score(r, hs, rs, window)
            windows[length] += shared
        if ref:
            edits = shifted_edit_cost(hyp, ref, _span_weights(len(hyp), hyp_spans), ref_w)
    if not ref:
        log.warning("line %d: empty reference skipped", lineno)
    return SentenceStats(
        *counts, found, len(phrases), windows, edits, sum(ref_w),
        *(_structure_flags(r, vocab) if structural else (None, None)),
    )


def score(stats: Iterable[SentenceStats], structural: bool = False) -> MetricReport:
    """The metrics of the records whose statistics are given, read in one pass.

    Every statistic is an integer running sum, so line order cannot change
    the report; Window Overlap's mean is exact over the lcm of its lengths.
    """
    matches, totals = [0] * MAX_NGRAM, [0] * MAX_NGRAM
    hyp_len = ref_len = found = required = edits = ref_weight = 0
    lines = well_formed = tags_match = 0
    window_shared: Counter = Counter()
    for s in stats:
        matches = [a + b for a, b in zip(matches, s.ngram_matches)]
        totals = [a + b for a, b in zip(totals, s.ngram_totals)]
        hyp_len += s.hyp_len
        ref_len += s.ref_len
        found += s.phrases_found
        required += s.phrases_required
        window_shared.update(s.window_shared)
        edits += s.term_edits
        ref_weight += s.term_ref_weight
        lines += 1
        if structural:
            well_formed += s.well_formed
            tags_match += s.tags_match
    common = math.lcm(*window_shared)
    report = MetricReport(
        bleu=_bleu_score(matches, totals, hyp_len, ref_len),
        exact_match=_percent(found, required),
        window_overlap=_percent(sum(common // d * s for d, s in window_shared.items()), common * required),
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
