"""Constraint-aware evaluation metrics.

Lexical metrics: corpus BLEU, exact match of required target phrases,
window overlap of the context around matched phrases, and one minus a
terminology-weighted translation edit rate in which every edit touching a
constrained token costs 2 instead of 1. Structural metrics: the fraction
of hypotheses whose markup nests properly and the fraction whose ordered
tag sequence equals the reference's.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field

from .lexical import claim_spans, occurrences
from .structural import tag_sequence, tags_well_formed
from .types import ConstraintPair, TokenSeq
from .vocab import ReservedVocab

log = logging.getLogger(__name__)

Span = tuple[int, int]

# Shifted substrings are capped at this many tokens, as in standard TER.
MAX_SHIFT_LEN = 10
# BLEU counts n-grams up to this order.
MAX_NGRAM = 4


@dataclass
class EvalRecord:
    hypothesis: TokenSeq
    reference: TokenSeq
    constraints: list[ConstraintPair] = field(default_factory=list)


@dataclass
class MetricReport:
    bleu: float
    exact_match: float
    window_overlap: float
    one_minus_term: float
    structure_correct: float | None = None
    structure_match: float | None = None

    def values(self) -> dict[str, float]:
        """The metrics computed, unrounded, in field order."""
        return {name: value for name, value in vars(self).items() if value is not None}

    def as_dict(self) -> dict:
        return {name: round(value, 4) for name, value in self.values().items()}


@dataclass
class SentenceStats:
    """One record's sufficient statistics: ``score`` turns those of any set
    of records, a corpus or one line, into that set's metrics."""

    ngram_matches: list[int]  # clipped, per n-gram order
    ngram_totals: list[int]
    hyp_len: int
    ref_len: int
    phrases_found: int
    phrases_required: int
    window_scores: list[float]  # one per phrase; concatenated, never summed, across records
    term_edits: int
    term_ref_weight: int
    well_formed: bool | None = None  # structure flags, in structural mode only
    tags_match: bool | None = None


def _percent(part: float, whole: int) -> float:
    """100 * part / whole; 100 when there is nothing to score."""
    return 100.0 * part / whole if whole else 100.0


def _phrases(record: EvalRecord) -> list[TokenSeq]:
    return [c.tgt for c in record.constraints]


def exact_match(records: list[EvalRecord]) -> float:
    """Percentage of required target phrases present in their hypotheses."""
    claimed = [claim_spans(r.hypothesis, _phrases(r)) for r in records]
    return _percent(sum(len(c) - c.count(None) for c in claimed), sum(map(len, claimed)))


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


def window_overlap(records: list[EvalRecord], window: int = 2) -> float:
    """Context agreement around each constraint matched in both sentences.

    For a constraint found in the hypothesis and in the reference, the up
    to ``window`` tokens on each side of the two spans are compared as
    multisets and scored by intersection size over the larger window; a
    constraint missing from either side scores 0.
    """
    scores: list[float] = []
    for r in records:
        phrases = _phrases(r)
        spans = zip(claim_spans(r.hypothesis, phrases), claim_spans(r.reference, phrases))
        scores += [_window_score(r, hs, rs, window) for hs, rs in spans]
    return _percent(sum(scores), len(scores))


def _span_weights(length: int, spans: list[Span | None]) -> list[int]:
    """Weight 2 inside any of the spans (None is skipped), 1 elsewhere."""
    weights = [1] * length
    for span in spans:
        if span is not None:
            for k in range(*span):
                weights[k] = 2
    return weights


def _all_occurrence_weights(tokens: TokenSeq, phrases: list[TokenSeq]) -> list[int]:
    return _span_weights(len(tokens), [s for p in phrases for s in occurrences(tokens, p)])


def _matched_occurrence_weights(tokens: TokenSeq, phrases: list[TokenSeq]) -> list[int]:
    return _span_weights(len(tokens), claim_spans(tokens, phrases))


def weighted_edit_distance(
    hyp: TokenSeq, ref: TokenSeq, hyp_weights: list[int], ref_weights: list[int]
) -> int:
    """Levenshtein distance where deleting or inserting a token costs its
    weight and substituting costs the heavier of the two tokens."""
    n, m = len(hyp), len(ref)
    prev = [0] * (m + 1)
    for j in range(1, m + 1):
        prev[j] = prev[j - 1] + ref_weights[j - 1]
    for i in range(1, n + 1):
        cur = [prev[0] + hyp_weights[i - 1]] + [0] * m
        h_tok = hyp[i - 1]
        h_w = hyp_weights[i - 1]
        for j in range(1, m + 1):
            if h_tok == ref[j - 1]:
                sub = prev[j - 1]
            else:
                sub = prev[j - 1] + max(h_w, ref_weights[j - 1])
            cur[j] = min(sub, prev[j] + h_w, cur[j - 1] + ref_weights[j - 1])
        prev = cur
    return prev[m]


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
    """
    if hyp == ref:
        return 0
    cur = list(hyp)
    cur_w = list(hyp_weights)
    distance = weighted_edit_distance(cur, ref, cur_w, ref_weights)
    shift_total = 0
    ref_index = _ref_substring_positions(ref)

    while distance > 0:
        best = None  # (new_distance + cost, new_distance, cost, tokens, weights)
        for i1 in range(len(cur)):
            for i2 in range(i1 + 1, min(i1 + MAX_SHIFT_LEN, len(cur)) + 1):
                positions = ref_index.get(tuple(cur[i1:i2]))
                if not positions:
                    continue
                cost = max(cur_w[i1:i2])
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
                    cand_dist = weighted_edit_distance(cand, ref, cand_w, ref_weights)
                    total = cand_dist + cost
                    if total < distance and (best is None or total < best[0]):
                        best = (total, cand_dist, cost, cand, cand_w)
        if best is None:
            break
        _, distance, cost, cur, cur_w = best
        shift_total += cost
    return shift_total + distance


def _term_stats(r: EvalRecord, hyp_spans: list[Span | None], lineno: int) -> tuple[int, int]:
    """(weighted edits, weighted reference length); an empty reference is skipped."""
    if not r.reference:
        log.warning("line %d: empty reference skipped", lineno)
        return 0, 0
    ref_w = _all_occurrence_weights(r.reference, _phrases(r))
    hyp_w = _span_weights(len(r.hypothesis), hyp_spans)
    return shifted_edit_cost(r.hypothesis, r.reference, hyp_w, ref_w), sum(ref_w)


def _one_minus_term(counts: list[tuple[int, int]]) -> float:
    """1-TERm of the records whose (edits, reference weight) are given."""
    edits = sum(e for e, _ in counts)
    ref_weight = sum(w for _, w in counts)
    return max(0.0, min(100.0, 100.0 * (1.0 - edits / ref_weight))) if ref_weight else 100.0


def term_score(records: list[EvalRecord]) -> float:
    """One minus the terminology-weighted translation edit rate, in percent.

    Reference tokens inside any occurrence of a required target phrase and
    hypothesis tokens inside a matched occurrence weigh 2; everything else
    weighs 1. The corpus rate divides total weighted edits by the total
    weighted reference length; the result is clamped to [0, 100].
    """
    return _one_minus_term([
        _term_stats(r, claim_spans(r.hypothesis, _phrases(r)), lineno)
        for lineno, r in enumerate(records, start=1)
    ])


def _ngrams(tokens: TokenSeq, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _bleu_counts(hyp: TokenSeq, ref: TokenSeq) -> tuple[list[int], list[int], int, int]:
    """Clipped matches and hypothesis n-grams per order, and both lengths."""
    matches = [0] * MAX_NGRAM
    totals = [0] * MAX_NGRAM
    for n in range(1, MAX_NGRAM + 1):
        hyp_counts = _ngrams(hyp, n)
        if hyp_counts:
            matches[n - 1] = sum((hyp_counts & _ngrams(ref, n)).values())
            totals[n - 1] = sum(hyp_counts.values())
    return matches, totals, len(hyp), len(ref)


def _bleu_score(counts: list[tuple[list[int], list[int], int, int]]) -> float:
    """BLEU of the records whose counts are given."""
    matches = [sum(c[0][k] for c in counts) for k in range(MAX_NGRAM)]
    totals = [sum(c[1][k] for c in counts) for k in range(MAX_NGRAM)]
    hyp_len = sum(c[2] for c in counts)
    ref_len = sum(c[3] for c in counts)
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
    if orders == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / orders)


def bleu(records: list[EvalRecord]) -> float:
    """Corpus BLEU on the given tokens with the usual brevity penalty.

    Modified n-gram precisions up to MAX_NGRAM are combined geometrically;
    a zero count for an order above 1 falls back to 1/(2^k * total)
    exponential smoothing while zero unigram overlap scores 0. Orders for
    which the corpus has no n-grams at all are left out of the mean. Empty
    hypotheses score 0, unless every reference is empty too: then there
    is nothing to get wrong and the score is 100.
    """
    return _bleu_score([_bleu_counts(r.hypothesis, r.reference) for r in records])


def _structure_flags(r: EvalRecord, vocab: ReservedVocab) -> tuple[bool, bool]:
    hyp_tags = tag_sequence(r.hypothesis, vocab)
    return tags_well_formed(hyp_tags, vocab), hyp_tags == tag_sequence(r.reference, vocab)


def structure_metrics(records: list[EvalRecord], vocab: ReservedVocab) -> tuple[float, float]:
    """(correct%, match%): well-formed markup, and tag order equal to the
    reference's."""
    n = len(records)
    flags = [_structure_flags(r, vocab) for r in records]
    return _percent(sum(c for c, _ in flags), n), _percent(sum(m for _, m in flags), n)


def sentence_metrics(
    records: list[EvalRecord], *, vocab: ReservedVocab | None = None,
    structural: bool = False, window: int = 2,
) -> list[SentenceStats]:
    """Each record's statistics. Its phrases are claimed once per side, and
    those spans serve Exact Match, Window Overlap and the 1-TERm weights."""
    if structural and vocab is None:
        raise ValueError("structural evaluation requires a vocabulary")
    out: list[SentenceStats] = []
    for lineno, r in enumerate(records, start=1):
        phrases = _phrases(r)
        hyp_spans = claim_spans(r.hypothesis, phrases)
        ref_spans = claim_spans(r.reference, phrases)
        out.append(SentenceStats(
            *_bleu_counts(r.hypothesis, r.reference),
            len(phrases) - hyp_spans.count(None),
            len(phrases),
            [_window_score(r, hs, rs, window) for hs, rs in zip(hyp_spans, ref_spans)],
            *_term_stats(r, hyp_spans, lineno),
            *(_structure_flags(r, vocab) if structural else (None, None)),
        ))
    return out


def score(stats: list[SentenceStats], structural: bool = False) -> MetricReport:
    """The metrics of the records whose statistics are given."""
    window_scores = [w for s in stats for w in s.window_scores]
    report = MetricReport(
        bleu=_bleu_score([(s.ngram_matches, s.ngram_totals, s.hyp_len, s.ref_len) for s in stats]),
        exact_match=_percent(
            sum(s.phrases_found for s in stats), sum(s.phrases_required for s in stats)
        ),
        window_overlap=_percent(sum(window_scores), len(window_scores)),
        one_minus_term=_one_minus_term([(s.term_edits, s.term_ref_weight) for s in stats]),
    )
    if structural:
        report.structure_correct = _percent(sum(s.well_formed for s in stats), len(stats))
        report.structure_match = _percent(sum(s.tags_match for s in stats), len(stats))
    return report


def evaluate_records(
    records: list[EvalRecord], *, vocab: ReservedVocab | None = None,
    structural: bool = False, window: int = 2,
) -> MetricReport:
    stats = sentence_metrics(records, vocab=vocab, structural=structural, window=window)
    return score(stats, structural)
