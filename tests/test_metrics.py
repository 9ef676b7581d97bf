import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmt import ConstraintPair, EvalRecord, bleu, exact_match, structure_metrics, term_score, window_overlap
from ctmt.metrics import (
    MetricReport,
    SentenceStats,
    _bleu_counts,
    _multiset_floor,
    claim_spans,
    evaluate_records,
    score,
    sentence_metrics,
    shifted_edit_cost,
    weighted_edit_distance,
)

from conftest import (
    TAGGED_VOCAB,
    exhaustive_min_shift_cost,
    reference_bleu,
    reference_exact_match,
    reference_shifted_edit_cost,
    reference_structure_metrics,
    reference_term_score,
    reference_ter,
    reference_window_overlap,
    simple_weighted_lev,
)


def rec(hyp, ref, constraints=()):
    return EvalRecord(
        hypothesis=hyp.split() if isinstance(hyp, str) else hyp,
        reference=ref.split() if isinstance(ref, str) else ref,
        constraints=[ConstraintPair(["_"], t.split() if isinstance(t, str) else t) for t in constraints],
    )


# ---------------------------------------------------------------------------
# exact match

def test_exact_match_all_present():
    records = [rec("a 减弱 b 价格上涨", "a 减弱 b 价格上涨", ["减弱", "价格上涨"])]
    assert exact_match(records) == 100.0


def test_exact_match_two_of_three():
    records = [rec("x 来宾 y 中式 z", "来宾 食品文化 中式", ["来宾", "食品文化", "中式"])]
    assert exact_match(records) == pytest.approx(66.7, abs=0.05)


def test_exact_match_vacuous():
    assert exact_match([rec("anything at all", "ref")]) == 100.0


def test_exact_match_positions_not_reused():
    # one "b" in the hypothesis cannot satisfy two required phrases
    records = [rec("a b", "b b", ["b", "b"])]
    assert exact_match(records) == 50.0


def test_exact_match_multi_token_phrase():
    records = [rec("u v w", "u v w", [["u", "v"]])]
    assert exact_match(records) == 100.0


def test_claim_spans_greedy_leftmost():
    assert claim_spans(["a", "b", "a"], [["a"], ["a"]]) == [(0, 1), (2, 3)]
    assert claim_spans(["a"], [["a"], ["a"]]) == [(0, 1), None]


# ---------------------------------------------------------------------------
# window overlap

def test_window_overlap_identity():
    records = [rec("p q r s", "p q r s", ["q"])]
    assert window_overlap(records) == 100.0


def test_window_overlap_disjoint_context():
    records = [rec("u v b y z", "p q b r s", ["b"])]
    assert window_overlap(records) == 0.0


def test_window_overlap_three_quarters():
    # windows around "b": {w,a,c,z} vs {v,a,c,z} share three tokens of four
    records = [rec("w a b c z", "v a b c z", ["b"])]
    assert window_overlap(records) == pytest.approx(75.0, abs=1e-9)


def test_window_overlap_unmatched_scores_zero():
    records = [rec("a b c", "x y z", ["y"])]
    assert window_overlap(records) == 0.0


def test_window_overlap_no_constraints():
    assert window_overlap([rec("a", "a")]) == 100.0


def test_window_overlap_whole_sentence_constraint():
    # both windows empty: perfect context agreement
    records = [rec("b", "b", ["b"])]
    assert window_overlap(records) == 100.0


def test_window_overlap_truncates_at_boundaries():
    records = [rec("b x y", "b x y", ["b"])]
    assert window_overlap(records) == 100.0


def test_window_overlap_asymmetric_windows():
    # hyp window {a}, ref window {x,a,y}: one shared token over the larger size
    records = [rec("a b", "x a b y", ["b"])]
    assert window_overlap(records) == pytest.approx(100.0 / 3, abs=1e-9)


def test_metrics_order_invariant():
    rng = random.Random(31)
    records = []
    for _ in range(40):
        hyp = [rng.choice("abcd") for _ in range(rng.randint(1, 8))]
        ref = [rng.choice("abcd") for _ in range(rng.randint(1, 8))]
        records.append(rec(hyp, ref, [rng.choice("abcd")]))
    shuffled = records[:]
    rng.shuffle(shuffled)
    assert exact_match(records) == exact_match(shuffled)
    assert window_overlap(records) == window_overlap(shuffled)
    assert term_score(records) == term_score(shuffled)
    assert bleu(records) == bleu(shuffled)


def test_window_overlap_is_the_exact_mean_in_either_line_order():
    # window scores 1/2, 2/3 and 1/3; a float sum of them reads 49.99999999999999 in one order
    records = [rec("c d b b b e", "b b c d", ["b", "d"]), rec("a b d c b c", "b a", ["b"])]
    assert window_overlap(records) == window_overlap(records[::-1]) == 50.0


def test_score_holds_constant_memory():
    # every statistic is a running integer sum, so nothing is kept per line
    lines = (SentenceStats([1, 0, 0, 0], [1, 0, 0, 0], 1, 1, 1, 1, {1 + i % 4: 1}, 0, 2)
             for i in range(100_000))
    tracemalloc.start()
    try:
        score(lines)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# ---------------------------------------------------------------------------
# weighted TER

def test_term_identity():
    assert term_score([rec("a b c", "a b c")]) == 100.0


def test_term_single_shift():
    # moving "b" behind "c" fixes the sentence: one unweighted shift
    score = term_score([rec("a b c", "a c b")])
    assert score == pytest.approx(100.0 * (1 - 1 / 3), abs=1e-9)


def test_term_single_shift_weighted():
    # With "b" constrained the same permutation is reachable two ways:
    # moving "b" costs 2, moving the free token "c" costs 1. Both the
    # greedy search and the exhaustive oracle settle on 1, over a
    # reference weight of 4.
    hyp, ref = ["a", "b", "c"], ["a", "c", "b"]
    assert exhaustive_min_shift_cost(hyp, ref, [1, 2, 1], [1, 1, 2]) == 1
    score = term_score([rec(hyp, ref, ["b"])])
    assert score == pytest.approx(100.0 * (1 - 1 / 4), abs=1e-9)


def test_term_weighs_only_the_matched_hypothesis_occurrence():
    # the constraint claims the first "b"; deleting the unclaimed second
    # one costs 1, over a reference weight of 2
    assert term_score([rec("b b", "b", ["b"])]) == 50.0


def test_term_reduces_to_plain_ter_without_constraints():
    rng = random.Random(17)
    records = []
    expected_edits = 0
    expected_len = 0
    for _ in range(80):
        hyp = [rng.choice("abcd") for _ in range(rng.randint(0, 6))]
        ref = [rng.choice("abcd") for _ in range(rng.randint(1, 6))]
        records.append(rec(hyp, ref))
        expected_edits += reference_ter(hyp, ref)
        expected_len += len(ref)
    got = term_score(records)
    want = max(0.0, min(100.0, 100.0 * (1 - expected_edits / expected_len)))
    assert got == pytest.approx(want, abs=1e-9)


def test_term_empty_reference_skipped(caplog):
    records = [rec("a", []), rec("a", "a")]
    assert term_score(records) == 100.0


def test_term_empty_hypothesis():
    assert term_score([rec([], "a b")]) == 0.0


def test_term_clamped_at_zero():
    assert term_score([rec("x y z w q r", "a")]) == 0.0


def test_weighted_edit_distance_costs():
    # substitution charges the heavier side
    assert weighted_edit_distance(["a"], ["b"], [1], [2]) == 2
    assert weighted_edit_distance(["a"], ["b"], [2], [1]) == 2
    assert weighted_edit_distance([], ["b", "c"], [], [2, 1]) == 3
    assert weighted_edit_distance(["b", "c"], [], [2, 1], []) == 3


def test_greedy_never_beats_exhaustive_minimum():
    rng = random.Random(3)
    equal = 0
    trials = 120
    for _ in range(trials):
        hyp = [rng.choice("abcd") for _ in range(rng.randint(1, 6))]
        ref = [rng.choice("abcd") for _ in range(rng.randint(1, 6))]
        hw = [rng.choice([1, 2]) for _ in hyp]
        rw = [rng.choice([1, 2]) for _ in ref]
        greedy = shifted_edit_cost(hyp, ref, hw, rw)
        exact = exhaustive_min_shift_cost(hyp, ref, hw, rw)
        assert greedy >= exact
        equal += greedy == exact
    assert equal / trials >= 0.95


@st.composite
def weighted_pair(draw):
    """Up to 20 tokens a side over 2-6 letters, so tokens repeat and long
    shifts and pruned candidates occur; weights 1 or 2."""
    alphabet = "abcdef"[: draw(st.integers(2, 6))]
    side = st.lists(st.tuples(st.sampled_from(alphabet), st.sampled_from([1, 2])), max_size=20)
    hyp, ref = draw(side), draw(side)
    return [t for t, _ in hyp], [t for t, _ in ref], [w for _, w in hyp], [w for _, w in ref]


@settings(max_examples=150, deadline=None)
@given(weighted_pair())
def test_shift_search_equals_the_full_search(pair):
    hyp, ref, hw, rw = pair
    assert shifted_edit_cost(hyp, ref, hw, rw) == reference_shifted_edit_cost(hyp, ref, hw, rw)
    assert weighted_edit_distance(hyp, ref, hw, rw) == simple_weighted_lev(hyp, ref, hw, rw)


def _weights(rng, tokens):
    return [rng.choice([1, 2]) for _ in tokens]


def _near_miss_pair(rng, n):
    """A reference of n tokens over 300 words, and a hypothesis with about one
    edit per 6 tokens and a block of 2-4 tokens moved; weights 1 or 2."""
    words = [f"w{k}" for k in range(300)]
    ref = [rng.choice(words) for _ in range(n)]
    hyp = list(ref)
    for _ in range(n // 6):
        k = rng.randrange(len(hyp))
        edit = rng.choice("sdi")
        if edit == "s":
            hyp[k] = rng.choice(words)
        elif edit == "d":
            del hyp[k]
        else:
            hyp.insert(k, rng.choice(words))
    size = rng.randint(2, 4)
    start = rng.randrange(len(hyp) - size + 1)
    block = hyp[start : start + size]
    del hyp[start : start + size]
    at = rng.randrange(len(hyp) + 1)
    hyp[at:at] = block
    return hyp, ref, _weights(rng, hyp), _weights(rng, ref)


def test_shift_search_equals_the_full_search_on_near_miss_lines():
    rng = random.Random(29)
    for _ in range(12):
        hyp, ref, hw, rw = _near_miss_pair(rng, rng.randint(20, 40))
        assert shifted_edit_cost(hyp, ref, hw, rw) == reference_shifted_edit_cost(hyp, ref, hw, rw)


def test_shift_search_equals_the_full_search_on_small_vocabulary_lines():
    rng = random.Random(31)
    for _ in range(30):
        types = "abcd"[: rng.randint(2, 4)]
        hyp = [rng.choice(types) for _ in range(rng.randint(10, 20))]
        ref = [rng.choice(types) for _ in range(rng.randint(10, 20))]
        hw, rw = _weights(rng, hyp), _weights(rng, ref)
        assert shifted_edit_cost(hyp, ref, hw, rw) == reference_shifted_edit_cost(hyp, ref, hw, rw)


def test_the_multiset_floor_bounds_every_arrangement():
    rng = random.Random(37)
    cases = 150
    reached = 0
    for _ in range(cases):
        hyp = [rng.choice("abc") for _ in range(rng.randint(0, 6))]
        ref = [rng.choice("abcd") for _ in range(rng.randint(0, 6))]
        hw, rw = _weights(rng, hyp), _weights(rng, ref)
        floor = _multiset_floor(hyp, ref, hw, rw)
        least = min(
            weighted_edit_distance([t for t, _ in arrangement], ref, [w for _, w in arrangement], rw)
            for arrangement in set(itertools.permutations(zip(hyp, hw)))
        )
        assert least >= floor, (hyp, ref, hw, rw)
        reached += least == floor
    assert 2 * reached >= cases  # on such short lines the bound is mostly the least distance


def test_a_pair_at_the_floor_skips_the_shift_search(monkeypatch):
    # substitutions only, each weighing as much as its hypothesis token: no
    # arrangement does better, so the substring index is never built
    hyp, ref = "a b c d".split(), "a x c y".split()
    hw, rw = [1, 2, 1, 2], [1, 1, 1, 2]
    assert _multiset_floor(hyp, ref, hw, rw) == weighted_edit_distance(hyp, ref, hw, rw) == 4

    def index(ref):
        raise AssertionError("the shift search ran")

    monkeypatch.setattr("ctmt.metrics._ref_substring_positions", index)
    assert shifted_edit_cost(hyp, ref, hw, rw) == 4


# ---------------------------------------------------------------------------
# BLEU

def test_bleu_identity():
    records = [rec("a b c d e", "a b c d e"), rec("x y", "x y")]
    assert bleu(records) == 100.0


def test_bleu_hand_check():
    records = [rec("a b c d", "a b c d e")]
    expected = 100.0 * math.exp(1 - 5 / 4)
    assert bleu(records) == pytest.approx(expected, abs=1e-9)
    assert bleu(records) == pytest.approx(77.88, abs=0.05)


def test_bleu_no_overlap_is_zero():
    assert bleu([rec("a b c", "x y z")]) == 0.0


def test_bleu_smoothing_for_higher_orders():
    # unigrams match but no bigram does: smoothed, strictly between 0 and 100
    score = bleu([rec("a c b", "a x b")])
    assert 0.0 < score < 100.0


def test_bleu_brevity_penalty_only_when_short():
    # a short hypothesis with perfect precisions is penalized only by length
    short = [rec("a b c", "a b c d e f")]
    assert bleu(short) == pytest.approx(100.0 * math.exp(1 - 6 / 3), abs=1e-9)
    # a long hypothesis pays through clipped precision, not the penalty
    assert bleu([rec("a b c d e x", "a b c d e")]) < 100.0


def test_bleu_short_identity_corpus():
    # single-token corpus has no higher-order ngrams at all
    assert bleu([rec("a", "a")]) == 100.0


def test_bleu_empty_hypotheses():
    assert bleu([rec([], "a b")]) == 0.0


def test_bleu_all_empty_corpus():
    # nothing to translate and nothing produced: a perfect score
    assert bleu([rec([], []), rec([], [])]) == 100.0


def test_bleu_smoothing_closed_form():
    # unigrams 3/5, higher orders all zero: 1/(2*4), 1/(4*3), 1/(8*2), BP 1
    records = [rec("a x b y c", "a q b r c")]
    want = 100.0 * (3 / 5 * 1 / 8 * 1 / 12 * 1 / 16) ** 0.25
    assert bleu(records) == pytest.approx(want, abs=1e-9)


def _reference_bleu(hyps, refs):
    """Textbook corpus BLEU with explicit clipping loops, for cross-checking
    on corpora where every order has at least one match."""
    import collections

    log_sum = 0.0
    for n in range(1, 5):
        matched = 0
        total = 0
        for hyp, ref in zip(hyps, refs):
            ref_grams = collections.Counter(
                tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)
            )
            seen = collections.Counter()
            for i in range(len(hyp) - n + 1):
                gram = tuple(hyp[i : i + n])
                total += 1
                if seen[gram] < ref_grams.get(gram, 0):
                    matched += 1
                    seen[gram] += 1
        if matched == 0:
            return None
        log_sum += math.log(matched / total)
    c = sum(len(h) for h in hyps)
    r = sum(len(rf) for rf in refs)
    bp = 1.0 if c >= r else math.exp(1 - r / c)
    return 100.0 * bp * math.exp(log_sum / 4)


def test_bleu_agrees_with_textbook_formula():
    # noisy copies keep higher-order matches plentiful, so the unsmoothed
    # paths of both implementations are exercised
    rng = random.Random(71)
    compared = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        hyps = []
        refs = []
        for _ in range(n):
            ref = [rng.choice("abcde") for _ in range(rng.randint(5, 14))]
            hyp = [t if rng.random() < 0.8 else rng.choice("abcde") for t in ref]
            if rng.random() < 0.3:
                hyp = hyp[: rng.randint(4, len(hyp))]
            hyps.append(hyp)
            refs.append(ref)
        want = _reference_bleu(hyps, refs)
        if want is None:
            continue
        records = [rec(h, r) for h, r in zip(hyps, refs)]
        assert bleu(records) == pytest.approx(want, abs=1e-9)
        compared += 1
    assert compared > 100


def _clipped_counts(hyp, ref):
    """BLEU's counts by definition: per order, the hypothesis n-grams clipped
    by the reference's (a Counter intersection), and all hypothesis n-grams."""
    import collections

    matches, totals = [], []
    for n in range(1, 5):
        hyp_grams = collections.Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
        ref_grams = collections.Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        matches.append(sum((hyp_grams & ref_grams).values()))
        totals.append(sum(hyp_grams.values()))
    return matches, totals, len(hyp), len(ref)


def test_bleu_counts_are_the_clipped_ngram_counts():
    # every pair of sentences of 0-5 tokens over two letters, so tokens
    # repeat, equal pairs included; integers, compared exactly
    sentences = [list(s) for n in range(6) for s in itertools.product("ab", repeat=n)]
    for hyp in sentences:
        for ref in sentences:
            assert _bleu_counts(hyp, ref) == _clipped_counts(hyp, ref)


# ---------------------------------------------------------------------------
# monotonicity

def _delete_phrase(tokens, phrase):
    spans = claim_spans(tokens, [phrase])
    if spans[0] is None:
        return tokens
    a, b = spans[0]
    return tokens[:a] + tokens[b:]


def test_deleting_phrase_never_increases_match_metrics():
    # For a constraint whose phrase occurs once, removing the occurrence
    # zeroes its contribution to both metrics. (With duplicated phrases a
    # deletion can promote a better-placed occurrence, so uniqueness is
    # part of the setup.)
    rng = random.Random(29)
    checked = 0
    while checked < 60:
        words = [rng.choice("abcdef") for _ in range(rng.randint(2, 12))]
        phrase = ["P"]
        k = rng.randint(0, len(words))
        hyp = words[:k] + phrase + words[k:]
        ref = ["z"] + phrase + words
        record = rec(hyp, ref, [phrase])
        mutated = rec(_delete_phrase(hyp, phrase), ref, [phrase])
        assert exact_match([record]) == 100.0
        assert exact_match([mutated]) == 0.0
        assert window_overlap([mutated]) <= window_overlap([record])
        checked += 1


# ---------------------------------------------------------------------------
# structure metrics

def srec(hyp, ref):
    return EvalRecord(hypothesis=hyp.split(), reference=ref.split())


def test_structure_identity(tagged_vocab):
    records = [srec("<ph> a </ph>", "<ph> a </ph>")]
    assert structure_metrics(records, tagged_vocab) == (100.0, 100.0)


def test_structure_reordered_siblings(tagged_vocab):
    # well formed but differently ordered: Correct counts it, Match does not
    records = [srec("<g> b </g> <ph> a </ph>", "<ph> a </ph> <g> b </g>")]
    assert structure_metrics(records, tagged_vocab) == (100.0, 0.0)


def test_structure_dropped_closing_tag(tagged_vocab):
    records = [srec("<ph> a", "<ph> a </ph>")]
    assert structure_metrics(records, tagged_vocab) == (0.0, 0.0)


def test_structure_void_tags_ignore_nesting(tagged_vocab):
    records = [srec("&amp; a <url>", "&amp; a <url>")]
    assert structure_metrics(records, tagged_vocab) == (100.0, 100.0)


def test_structure_no_records(tagged_vocab):
    assert structure_metrics([], tagged_vocab) == (100.0, 100.0)


# ---------------------------------------------------------------------------
# aggregation

def test_evaluate_records_identity_suite(tagged_vocab):
    records = [
        EvalRecord(
            hypothesis="<ph> a b </ph>".split(),
            reference="<ph> a b </ph>".split(),
            constraints=[ConstraintPair(["x"], ["a"])],
        )
    ]
    report = evaluate_records(records, vocab=tagged_vocab, structural=True)
    assert report.bleu == 100.0
    assert report.exact_match == 100.0
    assert report.window_overlap == 100.0
    assert report.one_minus_term == 100.0
    assert report.structure_correct == 100.0
    assert report.structure_match == 100.0
    payload = report.as_dict()
    assert set(payload) == {
        "bleu",
        "exact_match",
        "window_overlap",
        "one_minus_term",
        "structure_correct",
        "structure_match",
    }


def test_sentence_metrics_keys(vocab):
    values = score([sentence_metrics(rec("a b", "a b", ["b"]), vocab=vocab)]).values()
    assert values["exact_match"] == 100.0
    assert values["one_minus_term"] == 100.0


_TOKENS = st.sampled_from(["a", "b", "c", "<ph>", "</ph>", "<g>", "</g>", "&amp;"])


@st.composite
def _record(draw):
    ref = draw(st.lists(_TOKENS, max_size=8))
    kind = draw(st.sampled_from(["independent", "equal", "tags permuted"]))
    if kind == "independent":
        hyp = draw(st.lists(_TOKENS, max_size=8))
    else:
        hyp = list(ref)  # an equal pair is scored from one side
    if kind == "tags permuted":  # the same tag multiset, in another order
        at = [k for k, tok in enumerate(ref) if TAGGED_VOCAB.is_tag(tok)]
        for k, tag in zip(at, draw(st.permutations([ref[k] for k in at]))):
            hyp[k] = tag
    phrases = draw(st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=2), max_size=3))
    return EvalRecord(hyp, ref, [ConstraintPair(["s"], p) for p in phrases])


_RECORDS = st.lists(_record(), max_size=5)


def _oracle_values(records, window):
    return MetricReport(
        reference_bleu(records), reference_exact_match(records),
        reference_window_overlap(records, window), reference_term_score(records),
        *reference_structure_metrics(records, TAGGED_VOCAB),
    ).values()


@settings(max_examples=300, deadline=None)
@given(records=_RECORDS, window=st.integers(0, 3))
def test_one_statistics_pass_equals_the_oracles(records, window):
    # the corpus report and each per-sentence row are the values the
    # conftest oracles give on the corpus and on the line alone; the report
    # is exactly evaluate_records, and each row exactly evaluate_records on its line
    def evaluate(recs):
        return evaluate_records(recs, vocab=TAGGED_VOCAB, structural=True, window=window)

    def assert_oracles(report, recs):
        oracle = _oracle_values(recs, window)
        assert report.window_overlap == oracle["window_overlap"]  # the exact mean, rounded once
        assert report.values() == pytest.approx(oracle, abs=1e-9)

    stats = [sentence_metrics(r, vocab=TAGGED_VOCAB, structural=True, window=window) for r in records]
    report = score(stats, structural=True)
    assert report == evaluate(records)
    assert_oracles(report, records)
    for record, line_stats in zip(records, stats):
        row = score([line_stats], structural=True)
        assert row == evaluate([record])
        assert_oracles(row, [record])


@settings(max_examples=300, deadline=None)
@given(records=_RECORDS, window=st.integers(0, 3), rng=st.randoms(use_true_random=False))
def test_the_report_does_not_depend_on_line_order(records, window, rng):
    # equal, not close: every metric, BLEU's log_sum and 1-TERm included
    stats = [sentence_metrics(r, vocab=TAGGED_VOCAB, structural=True, window=window) for r in records]
    shuffled = stats[:]
    rng.shuffle(shuffled)
    assert score(shuffled, structural=True) == score(stats, structural=True)


def test_each_metric_function_is_its_field_of_evaluate_records():
    records = [rec("a P b c", "c P d a", ["P", "q"]), srec("<ph> a", "<ph> a </ph>"), rec("x", [])]
    report = evaluate_records(records, vocab=TAGGED_VOCAB, structural=True, window=1)
    assert bleu(records) == report.bleu
    assert exact_match(records) == report.exact_match
    assert window_overlap(records, 1) == report.window_overlap
    assert term_score(records) == report.one_minus_term
    assert structure_metrics(records, TAGGED_VOCAB) == (report.structure_correct, report.structure_match)


def test_a_negative_window_is_refused():
    # at -1 the windows around P would both be empty and read as equal
    records = [rec("a P b", "c P d", ["P"])]
    assert window_overlap(records, 1) == 0.0
    with pytest.raises(ValueError, match="window"):
        window_overlap(records, -1)
    with pytest.raises(ValueError, match="window"):
        evaluate_records(records, window=-1)
    # the window is checked with each record, so an empty corpus has nothing to refuse
    assert evaluate_records([], window=-1) == score(())


@pytest.mark.parametrize("metric", [
    bleu, exact_match, window_overlap, term_score, lambda recs: structure_metrics(recs, TAGGED_VOCAB),
], ids=["bleu", "exact_match", "window_overlap", "term_score", "structure_metrics"])
def test_each_metric_function_warns_once_per_empty_reference(metric, caplog):
    # line 4 is an identical empty pair, scored from one side, and still warned about
    metric([rec("a b", "a b"), rec("c", []), rec("d", "d"), rec([], [])])
    warnings = [r.getMessage() for r in caplog.records if "empty reference" in r.getMessage()]
    assert warnings == ["line 2: empty reference skipped", "line 4: empty reference skipped"]


def test_structural_statistics_need_a_vocabulary():
    with pytest.raises(ValueError, match="vocabulary"):
        evaluate_records([rec("a", "a")], structural=True)
    assert evaluate_records([], structural=True) == score((), structural=True)
