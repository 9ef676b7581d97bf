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

    def as_dict(self) -> dict:
        out = {
            "bleu": round(self.bleu, 4),
            "exact_match": round(self.exact_match, 4),
            "window_overlap": round(self.window_overlap, 4),
            "one_minus_term": round(self.one_minus_term, 4),
        }
        if self.structure_correct is not None:
            out["structure_correct"] = round(self.structure_correct, 4)
        if self.structure_match is not None:
            out["structure_match"] = round(self.structure_match, 4)
        return out


def exact_match(records: list[EvalRecord]) -> float:
    """Percentage of required target phrases present in their hypotheses."""
    matched = 0
    total = 0
    for r in records:
        spans = claim_spans(r.hypothesis, [c.tgt for c in r.constraints])
        total += len(spans)
        matched += sum(1 for s in spans if s is not None)
    if total == 0:
        return 100.0
    return 100.0 * matched / total


def _window(tokens: TokenSeq, span: Span, width: int) -> TokenSeq:
    start, end = span
    return tokens[max(0, start - width) : start] + tokens[end : end + width]


def window_overlap(records: list[EvalRecord], window: int = 2) -> float:
    """Context agreement around each constraint matched in both sentences.

    For a constraint found in the hypothesis and in the reference, the up
    to ``window`` tokens on each side of the two spans are compared as
    multisets and scored by intersection size over the larger window; a
    constraint missing from either side scores 0.
    """
    scores: list[float] = []
    for r in records:
        phrases = [c.tgt for c in r.constraints]
        hyp_spans = claim_spans(r.hypothesis, phrases)
        ref_spans = claim_spans(r.reference, phrases)
        for hs, rs in zip(hyp_spans, ref_spans):
            if hs is None or rs is None:
                scores.append(0.0)
                continue
            hw = _window(r.hypothesis, hs, window)
            rw = _window(r.reference, rs, window)
            denom = max(len(hw), len(rw))
            if denom == 0:
                scores.append(1.0)
                continue
            inter = sum((Counter(hw) & Counter(rw)).values())
            scores.append(inter / denom)
    if not scores:
        return 100.0
    return 100.0 * sum(scores) / len(scores)


def _all_occurrence_weights(tokens: TokenSeq, phrases: list[TokenSeq]) -> list[int]:
    weights = [1] * len(tokens)
    for phrase in phrases:
        for start, end in occurrences(tokens, phrase):
            for k in range(start, end):
                weights[k] = 2
    return weights


def _matched_occurrence_weights(tokens: TokenSeq, phrases: list[TokenSeq]) -> list[int]:
    weights = [1] * len(tokens)
    for span in claim_spans(tokens, phrases):
        if span is not None:
            for k in range(span[0], span[1]):
                weights[k] = 2
    return weights


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


def term_score(records: list[EvalRecord]) -> float:
    """One minus the terminology-weighted translation edit rate, in percent.

    Reference tokens inside any occurrence of a required target phrase and
    hypothesis tokens inside a matched occurrence weigh 2; everything else
    weighs 1. The corpus rate divides total weighted edits by the total
    weighted reference length; the result is clamped to [0, 100].
    """
    total_edits = 0
    total_ref_weight = 0
    for lineno, r in enumerate(records, start=1):
        if not r.reference:
            log.warning("line %d: empty reference skipped", lineno)
            continue
        phrases = [c.tgt for c in r.constraints]
        ref_w = _all_occurrence_weights(r.reference, phrases)
        hyp_w = _matched_occurrence_weights(r.hypothesis, phrases)
        total_edits += shifted_edit_cost(r.hypothesis, r.reference, hyp_w, ref_w)
        total_ref_weight += sum(ref_w)
    if total_ref_weight == 0:
        return 100.0
    rate = total_edits / total_ref_weight
    return max(0.0, min(100.0, 100.0 * (1.0 - rate)))


def _ngrams(tokens: TokenSeq, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(records: list[EvalRecord], max_ngram: int = 4) -> float:
    """Corpus BLEU on the given tokens with the usual brevity penalty.

    Modified n-gram precisions are combined geometrically; a zero count
    for an order above 1 falls back to 1/(2^k * total) exponential
    smoothing while zero unigram overlap scores 0. Orders for which the
    corpus has no n-grams at all are left out of the mean. Empty
    hypotheses score 0, unless every reference is empty too: then there
    is nothing to get wrong and the score is 100.
    """
    correct = [0] * max_ngram
    total = [0] * max_ngram
    hyp_len = 0
    ref_len = 0
    for r in records:
        hyp_len += len(r.hypothesis)
        ref_len += len(r.reference)
        for n in range(1, max_ngram + 1):
            hyp_counts = _ngrams(r.hypothesis, n)
            if not hyp_counts:
                continue
            ref_counts = _ngrams(r.reference, n)
            correct[n - 1] += sum((hyp_counts & ref_counts).values())
            total[n - 1] += sum(hyp_counts.values())
    if hyp_len == 0:
        return 100.0 if ref_len == 0 else 0.0
    log_sum = 0.0
    orders = 0
    smooth = 1.0
    for n in range(1, max_ngram + 1):
        if total[n - 1] == 0:
            continue
        if correct[n - 1] == 0:
            if n == 1:
                return 0.0
            smooth *= 2.0
            precision = 1.0 / (smooth * total[n - 1])
        else:
            precision = correct[n - 1] / total[n - 1]
        log_sum += math.log(precision)
        orders += 1
    if orders == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / orders)


def structure_metrics(records: list[EvalRecord], vocab: ReservedVocab) -> tuple[float, float]:
    """(correct%, match%): well-formed markup, and tag order equal to the
    reference's."""
    if not records:
        return 100.0, 100.0
    correct = 0
    matched = 0
    for r in records:
        hyp_tags = tag_sequence(r.hypothesis, vocab)
        ref_tags = tag_sequence(r.reference, vocab)
        if tags_well_formed(hyp_tags, vocab):
            correct += 1
        if hyp_tags == ref_tags:
            matched += 1
    return 100.0 * correct / len(records), 100.0 * matched / len(records)


def evaluate_records(
    records: list[EvalRecord],
    *,
    vocab: ReservedVocab | None = None,
    structural: bool = False,
    window: int = 2,
) -> MetricReport:
    report = MetricReport(
        bleu=bleu(records),
        exact_match=exact_match(records),
        window_overlap=window_overlap(records, window),
        one_minus_term=term_score(records),
    )
    if structural:
        if vocab is None:
            raise ValueError("structural evaluation requires a vocabulary")
        report.structure_correct, report.structure_match = structure_metrics(records, vocab)
    return report


def sentence_metrics(
    record: EvalRecord,
    *,
    vocab: ReservedVocab | None = None,
    structural: bool = False,
    window: int = 2,
) -> dict:
    """Per-sentence values for the optional TSV report."""
    single = [record]
    out = {
        "bleu": bleu(single),
        "exact_match": exact_match(single),
        "window_overlap": window_overlap(single, window),
        "one_minus_term": term_score(single),
    }
    if structural and vocab is not None:
        out["structure_correct"], out["structure_match"] = structure_metrics(single, vocab)
    return out
