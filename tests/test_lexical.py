import itertools
import json
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmt import (
    ConstraintMatchError,
    ConstraintPair,
    InternalError,
    Nonterminal,
    OutputParseError,
    SpanError,
    Template,
    TemplateVerdict,
    DerivationTable,
    build_inference_input,
    build_training_pair,
    constraint_derivation,
    match_constraint_spans,
    parse_output,
    reconstruct,
    segment,
    validate_template,
)
from ctmt.cli import main
from ctmt.lexical import (
    canonical_constraints,
    claim_spans,
    find_disjoint_assignment,
    read_output,
    render_side,
)
from ctmt.mining import (
    SamplerConfig, as_constraints, extract_phrase_pairs, sample_phrase_pairs, sentence_rng,
)

from conftest import (
    GOLD_ENC,
    GOLD_OUTPUT,
    GOLD_PREFIX,
    GOLD_REF,
    GOLD_RESULT,
    GOLD_SRC,
    GOLD_YPRIME,
    TAGGED_VOCAB,
    gold_constraints,
    make_lexical_corpus,
    reference_claim_spans,
    reference_disjoint_assignment,
    write_lines,
)


def cp(src, tgt):
    return ConstraintPair(src=src.split(), tgt=tgt.split())


# ---------------------------------------------------------------------------
# span matching

def test_match_spans_golden_pair():
    x = GOLD_SRC.split()
    spans = match_constraint_spans(x, gold_constraints())
    assert [x[a:b] for a, b in spans] == [["slowing", "down"], ["price", "hike"]]
    assert spans == sorted(spans)


def test_match_spans_no_constraints():
    assert match_constraint_spans(["a", "b"], []) == []


def test_match_spans_duplicate_phrases():
    # A full scan over non-overlapping assignments shows ((0,1),(1,2)) is
    # the only feasible one, and greedy finds it.
    x = ["a", "a"]
    constraints = [cp("a", "b"), cp("a", "c")]
    feasible = [
        pair
        for pair in itertools.product([(0, 1), (1, 2)], repeat=2)
        if pair[0] != pair[1]
    ]
    assert ((0, 1), (1, 2)) in feasible
    assert match_constraint_spans(x, constraints) == [(0, 1), (1, 2)]


def test_match_spans_unmatched_names_constraint():
    with pytest.raises(ConstraintMatchError, match="missing phrase"):
        match_constraint_spans(["a"], [cp("missing phrase", "x")])


def test_match_spans_rejects_nested_constraints():
    # "b" only occurs inside the span already claimed by "a b".
    with pytest.raises(ConstraintMatchError):
        match_constraint_spans(["a", "b"], [cp("a b", "x"), cp("b", "y")])


def test_match_spans_keeps_input_order():
    x = ["a", "b", "c"]
    spans = match_constraint_spans(x, [cp("c", "z"), cp("a", "x")])
    assert spans == [(2, 3), (0, 1)]


# ---------------------------------------------------------------------------
# segmentation

def test_segment_middle():
    assert segment(["a", "b", "c"], [(1, 2)]) == [["a"], ["c"]]


def test_segment_adjacent_boundary():
    assert segment(["a", "b"], [(0, 1), (1, 2)]) == [[], [], []]


def test_segment_golden_pair():
    x = GOLD_SRC.split()
    spans = match_constraint_spans(x, gold_constraints())
    p = segment(x, spans)
    assert p[0][:2] == ["Analysts", "are"] and p[0][-1] == "any"
    assert p[1] == ["of", "this"]
    assert p[2][0] == "," and p[2][-1] == "."


def test_segment_rejects_overlap():
    with pytest.raises(SpanError):
        segment(["a", "b", "c"], [(0, 2), (1, 3)])


def test_segment_rejects_out_of_bounds():
    with pytest.raises(SpanError):
        segment(["a"], [(0, 2)])


@given(
    x=st.lists(st.sampled_from("abcd"), min_size=0, max_size=12),
    data=st.data(),
)
def test_segment_interleave_identity(x, data):
    cuts = sorted(
        data.draw(st.lists(st.integers(0, len(x)), min_size=0, max_size=6, unique=True))
    )
    spans = [(a, b) for a, b in zip(cuts, cuts[1:])][::2]
    fragments = segment(x, spans)
    rebuilt = list(fragments[0])
    for (a, b), frag in zip(spans, fragments[1:]):
        rebuilt += x[a:b] + frag
    assert rebuilt == x


# ---------------------------------------------------------------------------
# serialization

def test_training_pair_golden(vocab):
    pair = build_training_pair(
        GOLD_SRC.split(), GOLD_REF.split(), gold_constraints(), vocab=vocab
    )
    xp, yp = pair.encoder_input, pair.target_output
    assert " ".join(xp) == GOLD_ENC
    assert " ".join(yp) == GOLD_YPRIME
    # the reference orders the second constraint first
    t_region = " ".join(yp).split(" <sep> ")[1]
    assert t_region == "<Y_0> <C_2> <Y_1> <C_1> <Y_2>"


def test_training_pair_unconstrained(vocab):
    pair = build_training_pair(["x1", "x2"], ["y1"], [], vocab=vocab)
    xp, yp = pair.encoder_input, pair.target_output
    assert " ".join(xp) == "<sep> <X_0> <sep> <X_0> x1 x2"
    assert " ".join(yp) == "<sep> <Y_0> <sep> <Y_0> y1"


def test_training_pair_single_token_everywhere(vocab):
    pair = build_training_pair(["a"], ["a"], [cp("a", "a")], vocab=vocab)
    xp, yp = pair.encoder_input, pair.target_output
    assert " ".join(xp) == "<C_1> a <sep> <X_0> <C_1> <X_1> <sep> <X_0> <X_1>"
    assert " ".join(yp) == "<C_1> a <sep> <Y_0> <C_1> <Y_1> <sep> <Y_0> <Y_1>"


def test_training_pair_constraint_order_is_canonical(vocab):
    # Input order must not matter: indices follow source positions.
    shuffled = [cp("price hike", "价格上涨"), cp("slowing down", "减弱")]
    pair = build_training_pair(
        GOLD_SRC.split(), GOLD_REF.split(), shuffled, vocab=vocab
    )
    xp, yp = pair.encoder_input, pair.target_output
    assert " ".join(xp) == GOLD_ENC
    assert " ".join(yp) == GOLD_YPRIME


def test_training_pair_unmatched_target(vocab):
    with pytest.raises(ConstraintMatchError):
        build_training_pair(["a"], ["b"], [cp("a", "nope")], vocab=vocab)


def test_training_pair_with_given_spans(vocab):
    x = ["a", "b", "a"]
    y = ["z", "a", "z", "a"]
    constraints = [cp("a", "a")]
    pair = build_training_pair(
        x, y, constraints, [(3, 4)], vocab=vocab, src_spans=[(2, 3)]
    )
    xp1, yp1 = pair.encoder_input, pair.target_output
    assert " ".join(xp1) == "<C_1> a <sep> <X_0> <C_1> <X_1> <sep> <X_0> a b <X_1>"
    assert " ".join(yp1).endswith("<Y_0> z a z <Y_1>")


@pytest.mark.parametrize(
    "constraints, src_spans, tgt_spans, message",
    [
        ([cp("a", "A"), cp("b", "B")], [(0, 1)], None,
         "one source span is required per constraint"),
        ([cp("a", "A"), cp("b", "B")], [(0, 1), (1, 2), (0, 1)], None,
         "one source span is required per constraint"),
        ([cp("a", "A"), cp("b", "B")], [(1, 2), (0, 1)], None,
         "source span (1,2) does not cover phrase 'a'"),
        ([cp("a b", "A"), cp("b", "B")], [(0, 2), (1, 2)], None,
         "source spans (0, 2) and (1, 2) overlap"),
        ([cp("a", "A"), cp("b", "B")], None, [(0, 1)],
         "one target span is required per constraint"),
        ([cp("a", "A"), cp("b", "B")], None, [(0, 1), (1, 2), (0, 1)],
         "one target span is required per constraint"),
        ([cp("a", "A"), cp("b", "B")], None, [(1, 2), (0, 1)],
         "target span (1,2) does not cover phrase 'A'"),
        ([cp("a", "A B"), cp("b", "B")], None, [(0, 2), (1, 2)],
         "target spans (0, 2) and (1, 2) overlap"),
    ],
)
def test_training_pair_checks_given_spans(vocab, constraints, src_spans, tgt_spans, message):
    with pytest.raises(SpanError) as info:
        build_training_pair(
            ["a", "b"], ["A", "B"], constraints, tgt_spans, vocab=vocab, src_spans=src_spans
        )
    assert str(info.value) == message


def test_training_pair_rejects_reserved_tokens(vocab):
    from ctmt import ReservedTokenError

    with pytest.raises(ReservedTokenError):
        build_training_pair(["<sep>"], ["y"], [], vocab=vocab)


def test_training_pair_rejects_too_many_constraints():
    from ctmt import CapacityError, ReservedVocab

    small = ReservedVocab(max_index=2)
    x = ["a", "b", "c"]
    constraints = [cp(tok, tok.upper()) for tok in x]
    with pytest.raises(CapacityError):
        build_training_pair(x, ["A", "B", "C"], constraints, vocab=small)


def test_backtracking_finds_assignment_greedy_misses(vocab):
    # leftmost claiming of "a" would strand "a b"; the matcher backtracks
    x = ["a", "b", "a"]
    constraints = [cp("a", "x"), cp("a b", "y z")]
    assert match_constraint_spans(x, constraints) == [(2, 3), (0, 2)]
    xp = build_training_pair(x, ["y", "z", "c", "x"], constraints, vocab=vocab).encoder_input
    assert " ".join(xp) == "<C_1> a b <C_2> a <sep> <X_0> <C_1> <X_1> <C_2> <X_2> <sep> <X_0> <X_1> <X_2>"


@settings(max_examples=300, deadline=None)
@given(
    x=st.lists(st.sampled_from("ab"), max_size=8),
    phrases=st.lists(st.lists(st.sampled_from("ab"), min_size=1, max_size=2), max_size=4),
)
def test_match_is_claim_then_raise(x, phrases):
    constraints = [ConstraintPair(src=p, tgt=["t"]) for p in phrases]
    claimed = claim_spans(x, phrases)
    if None not in claimed:
        assert match_constraint_spans(x, constraints) == claimed
    else:
        first = " ".join(phrases[claimed.index(None)])
        with pytest.raises(ConstraintMatchError, match=re.escape(repr(first))):
            match_constraint_spans(x, constraints)


@st.composite
def sentence_and_phrases(draw):
    """Up to 12 tokens over 2-3 letters and up to 9 phrases, most of them
    cut from the sentence, so that greedy placement often fails and the
    search backtracks, succeeds, runs out of copies or out of budget."""
    x = draw(st.lists(st.sampled_from("abc"[: draw(st.integers(2, 3))]), max_size=12))
    phrases = []
    for _ in range(draw(st.integers(0, 9))):
        if x and draw(st.booleans()):
            start = draw(st.integers(0, len(x) - 1))
            phrases.append(x[start : start + draw(st.integers(1, 3))])
        else:
            phrases.append(draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=2)))
    return x, phrases


@settings(max_examples=300, deadline=None)
@given(sentence_and_phrases())
def test_span_search_equals_the_plain_search(case):
    x, phrases = case
    for budget in (100_000, 50):
        assert find_disjoint_assignment(x, phrases, budget) == reference_disjoint_assignment(
            x, phrases, budget
        )
    assert claim_spans(x, phrases) == reference_claim_spans(x, phrases)


def test_span_search_fails_fast_on_too_few_copies():
    # nine one-token phrases against eight copies: no placement exists,
    # and the plain search would spend its whole budget finding that out
    x = ["w"] * 8 + ["a", "b"]
    phrases = [["w"]] * 9
    assert find_disjoint_assignment(x, phrases) is None
    assert claim_spans(x, phrases) == [(k, k + 1) for k in range(8)] + [None]


def test_span_search_gives_up_when_its_budget_runs_out():
    # "x" first claims (0, 1), which strands "x y"; the search must back up
    x, phrases = ["x", "y", "x"], [["x"], ["x", "y"]]
    assert find_disjoint_assignment(x, phrases, node_budget=2) is None
    assert find_disjoint_assignment(x, phrases) == [(2, 3), (0, 2)]


def test_span_search_is_exhausted_when_no_disjoint_placement_exists(tmp_path, caplog):
    # both phrases occur and the line has the copies they need, but every
    # "a b" overlaps the one "b a": four nodes tried, well within the budget
    x, phrases = "a b a b".split(), [["a", "b"], ["b", "a"]]
    assert find_disjoint_assignment(x, phrases, node_budget=5) is None
    assert find_disjoint_assignment(x, phrases) is None
    assert reference_disjoint_assignment(x, phrases) is None
    assert claim_spans(x, phrases) == [(0, 2), None]
    src = write_lines(tmp_path / "s.txt", [" ".join(x)])
    pairs = [{"src": p, "tgt": ["T"]} for p in phrases]
    cons = write_lines(tmp_path / "c.jsonl", [json.dumps({"constraints": pairs})])
    assert main(["encode", "--src", src, "--constraints", cons, "--out-dir", str(tmp_path / "enc")]) == 0
    assert "line 1 skipped: constraint phrase 'b a' has no available occurrence" in caplog.text


# "a b" claims (1, 3) and strands "b a", so a thousand one-token phrases
# after them are placed by the search, one level deeper each
DEEP_LINE = ["b", "a", "b", "a", "b"] + [f"z{i}" for i in range(1000)]
DEEP_PHRASES = [["a", "b"], ["b", "a"]] + [[t] for t in DEEP_LINE[5:]]


def test_span_search_places_a_thousand_phrases_without_recursion():
    spans = [(3, 5), (0, 2)] + [(k, k + 1) for k in range(5, len(DEEP_LINE))]
    assert find_disjoint_assignment(DEEP_LINE, DEEP_PHRASES) == spans


@pytest.mark.parametrize("strand", [[], [["a", "b"], ["b", "a"]]], ids=["greedy", "search"])
def test_placement_time_is_linear_in_the_phrases_on_a_line(strand):
    # 20,000 one-token phrases on one line: testing each candidate against
    # every placed span, or scanning the line once per phrase, takes minutes
    words = [f"z{i}" for i in range(20_000)]
    head = ["b", "a", "b", "a", "b"] if strand else []
    started = time.perf_counter()
    spans = claim_spans(head + words, strand + [[w] for w in words])
    assert time.perf_counter() - started < 5.0
    assert spans == [(3, 5), (0, 2)][: len(strand)] + [
        (k, k + 1) for k in range(len(head), len(head) + len(words))
    ]


@pytest.mark.parametrize("token", ["a b", "a\tb", "a\rb", "a\nb", "a\fb", "a\vb", " ", ""])
def test_constraint_tokens_hold_no_ascii_whitespace(token):
    with pytest.raises(ValueError, match="is empty or contains whitespace"):
        ConstraintPair(["ok"], [token])
    with pytest.raises(ValueError, match="is empty or contains whitespace"):
        ConstraintPair([token], ["ok"])


def test_constraint_tokens_may_hold_other_whitespace():
    # only ASCII whitespace separates tokens, so a no-break space is part of one
    assert ConstraintPair(["a\u00a0b"], ["x\u3000y"]).src == ["a\u00a0b"]


def test_builders_return_what_they_settled(vocab):
    shuffled = [cp("price hike", "价格上涨"), cp("slowing down", "减弱")]
    pair = build_training_pair(GOLD_SRC.split(), GOLD_REF.split(), shuffled, vocab=vocab)
    example = build_inference_input(GOLD_SRC.split(), shuffled, vocab=vocab)
    ordered, spans, _ = canonical_constraints(GOLD_SRC.split(), shuffled)
    for ex in (pair, example):
        assert ex.constraints == ordered
        assert ex.src_spans == spans
        assert " ".join(ex.decoder_prefix) == GOLD_PREFIX
    assert pair.target_output[: len(pair.decoder_prefix)] == pair.decoder_prefix


def test_training_and_inference_serialize_a_source_line_alike(vocab):
    # the template invariant: given the spans sampling mined, a line's source
    # side is serialized for training as it is for inference
    cfg = SamplerConfig(rng_seed=3)
    pairs, alignments = make_lexical_corpus(500, seed=3, max_len=30)
    constrained = 0
    for i, ((x, y), links) in enumerate(zip(pairs, alignments)):
        chosen = sample_phrase_pairs(extract_phrase_pairs(x, y, links, cfg.max_len), cfg,
                                     sentence_rng(cfg.rng_seed, i))
        constraints, src_spans = as_constraints(chosen), [p.src_span for p in chosen]
        pair = build_training_pair(x, y, constraints, [p.tgt_span for p in chosen],
                                   vocab=vocab, src_spans=src_spans)
        example = build_inference_input(x, constraints, vocab=vocab, src_spans=src_spans)
        for field in ("encoder_input", "decoder_prefix", "constraints", "src_spans"):
            assert getattr(pair, field) == getattr(example, field), (i, field)
        constrained += bool(chosen)
    assert constrained > 250


def test_inference_input_golden(vocab):
    example = build_inference_input(GOLD_SRC.split(), gold_constraints(), vocab=vocab)
    assert " ".join(example.encoder_input) == GOLD_ENC
    assert " ".join(example.decoder_prefix) == GOLD_PREFIX
    assert example.target_output == []


def test_inference_input_unconstrained(vocab):
    example = build_inference_input(["a", "b"], [], vocab=vocab)
    assert example.decoder_prefix == ["<sep>"]


def test_inference_input_single(vocab):
    example = build_inference_input(["a"], [cp("a", "b")], vocab=vocab)
    assert " ".join(example.decoder_prefix) == "<C_1> b <sep>"


def test_inference_input_rejects_reserved_target_phrase(vocab):
    from ctmt import ReservedTokenError

    with pytest.raises(ReservedTokenError):
        build_inference_input(["a"], [cp("a", "<sep>")], vocab=vocab)


# ---------------------------------------------------------------------------
# output parsing

def test_parse_output_golden(vocab):
    parsed = parse_output(GOLD_OUTPUT.split(), vocab, 2)
    assert parsed.template.elements == [
        Nonterminal("Y", 0),
        Nonterminal("C", 2),
        Nonterminal("Y", 1),
        Nonterminal("C", 1),
        Nonterminal("Y", 2),
    ]
    assert len(list(parsed.derivation.items())) == 3
    assert parsed.derivation.get(Nonterminal("Y", 1)) == ["会"]
    assert parsed.warnings == []


def test_parse_output_unconstrained_shape(vocab):
    parsed = parse_output("<Y_0> <sep> <Y_0> hello".split(), vocab)
    assert parsed.template.elements == [Nonterminal("Y", 0)]
    assert parsed.derivation.get(Nonterminal("Y", 0)) == ["hello"]


def test_parse_output_missing_rule_is_fine(vocab):
    parsed = parse_output("<Y_0> <C_1> <Y_1> <sep> <Y_1> b".split(), vocab)
    assert parsed.derivation.get(Nonterminal("Y", 0)) is None
    assert parsed.omitted() == [Nonterminal("Y", 0)]


def test_parse_output_explicit_empty_rule_is_not_omitted(vocab):
    parsed = parse_output("<Y_0> <C_1> <Y_1> <sep> <Y_0> <Y_1> b".split(), vocab)
    assert parsed.derivation.get(Nonterminal("Y", 0)) == []
    assert parsed.omitted() == []


def test_parse_output_errors(vocab):
    with pytest.raises(OutputParseError, match="no separator"):
        parse_output("<Y_0> hello".split(), vocab)
    with pytest.raises(OutputParseError, match="template region"):
        parse_output("<Y_0> junk <sep> <Y_0> a".split(), vocab)
    with pytest.raises(OutputParseError, match="template region"):
        parse_output("<X_0> <sep> <Y_0> a".split(), vocab)
    with pytest.raises(OutputParseError, match="derivation region"):
        parse_output("<Y_0> <sep> <Y_0> a <C_1> b".split(), vocab)
    with pytest.raises(OutputParseError):
        parse_output("<Y_0> <sep> junk <Y_0> a".split(), vocab)
    with pytest.raises(OutputParseError):
        parse_output("<Y_0> <sep> <Y_0> a <sep> b".split(), vocab)


def test_parse_error_names_the_first_violation_and_carries_the_reading(vocab):
    with pytest.raises(OutputParseError, match="no separator") as info:
        parse_output("<Y_0> junk <C_1>".split(), vocab)
    assert info.value.parsed.template.elements == [Nonterminal("Y", 0), "junk", Nonterminal("C", 1)]
    tail = "<Y_0> junk <X_1> <sep> v <X_1> a <Y_0> b <sep> c <Y_0> d".split()
    with pytest.raises(OutputParseError, match="token 'junk' is not allowed") as info:
        parse_output(tail, vocab)
    parsed = info.value.parsed
    assert parsed.template.elements == [Nonterminal("Y", 0), "junk", Nonterminal("X", 1)]
    assert list(parsed.derivation.items()) == [(Nonterminal("X", 1), ["a"]), (Nonterminal("Y", 0), ["b", "c"])]
    with pytest.raises(OutputParseError, match="unexpected separator"):
        parse_output("<Y_0> <sep> <Y_0> a <sep> <X_1> b".split(), vocab)


def test_parse_output_duplicate_rule_warns(vocab):
    parsed = parse_output("<Y_0> <sep> <Y_0> a <Y_0> b".split(), vocab)
    assert parsed.derivation.get(Nonterminal("Y", 0)) == ["a"]
    assert any("repeated" in w for w in parsed.warnings)


def test_parse_output_out_of_range_index_warns(vocab):
    parsed = parse_output("<Y_0> <C_2> <Y_1> <sep> <Y_0> a".split(), vocab, 1)
    assert any("exceeds" in w for w in parsed.warnings)


# ---------------------------------------------------------------------------
# template validation

def Y(i):
    return Nonterminal("Y", i)


def C(i):
    return Nonterminal("C", i)


def test_validate_reordered_constraints():
    assert validate_template(Template([Y(0), C(2), Y(1), C(1), Y(2)]), 2).valid


def test_validate_unconstrained():
    assert validate_template(Template([Y(0)]), 0).valid


def test_validate_missing_index():
    verdict = validate_template(Template([Y(0), C(1), Y(1)]), 2)
    assert not verdict.valid
    assert "2" in verdict.reason


@pytest.mark.parametrize(
    "elements,n",
    [
        ([Y(0), C(1), Y(1), C(1), Y(2)], 2),  # duplicate index
        ([Y(0), C(3), Y(1), C(1), Y(2)], 2),  # out of range
        ([Y(1), C(1), Y(0)], 1),  # wrong Y order
        ([C(1), Y(0), Y(1)], 1),  # wrong alternation
        ([Y(0), C(1)], 1),  # truncated
        ([], 0),  # empty
    ],
)
def test_validate_rejects_bad_shapes(elements, n):
    assert not validate_template(Template(elements), n).valid


@pytest.mark.parametrize(
    "elements, n, reason",
    [
        ([Y(0), "<ph>", Y(1)], 0, "literal token '<ph>' in a lexical template"),
        ([Y(0), C(1), Y(1), C(2), Y(2), C(3), Y(3)], 2, "unknown constraint index 3"),
        ([Y(0), C(2), Y(1), C(1), Y(2), C(2), Y(3)], 2, "duplicated constraint index 2"),
    ],
)
def test_validate_names_the_violation(elements, n, reason):
    assert validate_template(Template(elements), n) == TemplateVerdict(False, reason)


def test_validate_all_permutations_up_to_4():
    for n in range(5):
        for perm in itertools.permutations(range(1, n + 1)):
            elements = [Y(0)]
            for slot, idx in enumerate(perm, start=1):
                elements += [C(idx), Y(slot)]
            assert validate_template(Template(elements), n).valid


# ---------------------------------------------------------------------------
# reconstruction

def test_reconstruct_golden_output(vocab):
    parsed = parse_output(GOLD_OUTPUT.split(), vocab, 2)
    ordered, _, _ = canonical_constraints(GOLD_SRC.split(), gold_constraints())
    result = reconstruct(parsed.template, constraint_derivation(ordered), parsed.derivation)
    assert " ".join(result) == GOLD_RESULT


def test_constraints_are_numbered_by_position(vocab):
    # C_n is the n-th constraint of the list, however the pairs were built
    constraints = [ConstraintPair(["a"], ["A"]), ConstraintPair(["b"], ["B"])]
    table = constraint_derivation(constraints)
    assert table == {C(1): ["A"], C(2): ["B"]}
    tail = "<Y_0> <C_2> <Y_1> <C_1> <Y_2> <sep> <Y_0> x <Y_1> y <Y_2> z".split()
    parsed = parse_output(tail, vocab, 2)
    assert reconstruct(parsed.template, table, parsed.derivation) == ["x", "B", "y", "A", "z"]


def test_reconstruct_identity():
    table = DerivationTable([(Y(0), ["hi"])])
    assert reconstruct(Template([Y(0)]), DerivationTable(), table) == ["hi"]


def test_reconstruct_empty_fallback():
    template = Template([Y(0), C(1), Y(1)])
    d = DerivationTable([(C(1), ["b"])])
    f = DerivationTable([(Y(1), ["c"])])
    assert reconstruct(template, d, f) == ["b", "c"]


def test_reconstruct_missing_constraint_rule_is_internal_error():
    with pytest.raises(InternalError):
        reconstruct(Template([C(1)]), DerivationTable(), DerivationTable())


# ---------------------------------------------------------------------------
# properties

token_st = st.sampled_from([f"w{i}" for i in range(8)])


@st.composite
def matched_pair(draw):
    """x, y, and constraints whose phrases occupy known disjoint spans."""
    x = draw(st.lists(token_st, min_size=0, max_size=14))
    y = draw(st.lists(token_st, min_size=0, max_size=14))
    n = draw(st.integers(0, 3))

    def carve(seq):
        cuts = sorted(draw(st.lists(st.integers(0, len(seq)), min_size=2 * n, max_size=2 * n)))
        spans = [(cuts[2 * k], cuts[2 * k + 1]) for k in range(n)]
        return [s for s in spans if s[0] < s[1]]

    src_spans = carve(x)
    tgt_spans = carve(y)
    m = min(len(src_spans), len(tgt_spans))
    constraints = [
        ConstraintPair(src=x[a:b], tgt=y[c:d])
        for (a, b), (c, d) in zip(src_spans[:m], tgt_spans[:m])
    ]
    return x, y, constraints, src_spans[:m], tgt_spans[:m]


@settings(max_examples=200, deadline=None)
@given(matched_pair())
def test_round_trip_property(case):
    x, y, constraints, src_spans, tgt_spans = case
    vocab = __import__("ctmt").DEFAULT_VOCAB
    pair = build_training_pair(
        x, y, constraints, tgt_spans, vocab=vocab, src_spans=src_spans
    )
    xp, yp = pair.encoder_input, pair.target_output
    assert xp.count(vocab.sep_token) == 2
    assert yp.count(vocab.sep_token) == 2

    prefix = pair.decoder_prefix
    assert yp[: len(prefix)] == prefix
    parsed = parse_output(yp[len(prefix):], vocab, len(constraints))
    assert validate_template(parsed.template, len(constraints)).valid
    ordered, _, _ = canonical_constraints(x, constraints, src_spans)
    rebuilt = reconstruct(parsed.template, constraint_derivation(ordered), parsed.derivation)
    assert rebuilt == y


def test_round_trip_with_custom_vocab():
    from ctmt import ReservedVocab

    vocab = ReservedVocab(
        sep_token="<BREAK>", x_prefix="SRC", y_prefix="TGT", c_prefix="TERM", max_index=8
    )
    x = "the acute pain persists".split()
    y = "der akute Schmerz bleibt".split()
    constraints = [cp("acute", "akute")]
    pair = build_training_pair(x, y, constraints, vocab=vocab)
    xp, yp = pair.encoder_input, pair.target_output
    assert " ".join(xp) == (
        "<TERM_1> acute <BREAK> <SRC_0> <TERM_1> <SRC_1> <BREAK> "
        "<SRC_0> the <SRC_1> pain persists"
    )
    prefix = pair.decoder_prefix
    assert " ".join(prefix) == "<TERM_1> akute <BREAK>"
    parsed = parse_output(yp[len(prefix):], vocab, 1)
    assert validate_template(parsed.template, 1).valid
    ordered, _, _ = canonical_constraints(x, constraints)
    assert reconstruct(parsed.template, constraint_derivation(ordered), parsed.derivation) == y


@settings(max_examples=200, deadline=None)
@given(matched_pair())
def test_round_trip_without_given_spans(case):
    x, y, constraints, _, _ = case
    vocab = __import__("ctmt").DEFAULT_VOCAB
    try:
        pair = build_training_pair(x, y, constraints, vocab=vocab)
        xp, yp = pair.encoder_input, pair.target_output
    except ConstraintMatchError:
        # duplicated phrases may collide under leftmost matching; that is
        # a rejection, not a wrong serialization
        return
    prefix = pair.decoder_prefix
    parsed = parse_output(yp[len(prefix):], vocab, len(constraints))
    assert validate_template(parsed.template, len(constraints)).valid
    ordered, _, _ = canonical_constraints(x, constraints)
    rebuilt = reconstruct(parsed.template, constraint_derivation(ordered), parsed.derivation)
    assert rebuilt == y


@st.composite
def rendered_target_side(draw):
    """Slots and fragments of one target side, and whether the slots are tags."""
    structural = draw(st.booleans())
    vocab = TAGGED_VOCAB if structural else __import__("ctmt").DEFAULT_VOCAB
    if structural:
        slot_st = st.sampled_from(sorted(vocab.registered_tags))
    else:
        slot_st = st.integers(1, vocab.max_index).map(lambda i: Nonterminal("C", i))
    slots = draw(st.lists(slot_st, max_size=6))
    fragments = draw(
        st.lists(st.lists(token_st, max_size=4), min_size=len(slots) + 1, max_size=len(slots) + 1)
    )
    return structural, vocab, slots, fragments


@settings(max_examples=300, deadline=None)
@given(rendered_target_side())
def test_read_output_inverts_render_side(case):
    structural, vocab, slots, fragments = case
    rendered = [s if isinstance(s, str) else vocab.render(s) for s in slots]
    stream = render_side("Y", rendered, fragments, vocab)
    elements, derivation, _, error, *_ = read_output(stream, vocab, source_tags=[] if structural else None)
    assert error is None
    ys = [Nonterminal("Y", n) for n in range(len(fragments))]
    template = [ys[0]]
    for slot, y in zip(slots, ys[1:]):
        template += [slot, y]
    assert elements == template
    assert list(derivation.items()) == list(zip(ys, fragments))
