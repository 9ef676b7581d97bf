import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmt import (
    DerivationTable,
    Nonterminal,
    OutputParseError,
    Template,
    TemplateVerdict,
    build_structural_pair,
    build_training_pair,
    parse_structural_output,
    reconstruct_structural,
    segment_tagged,
    validate_structural_template,
)
from ctmt.structural import build_structural_input, tag_sequence, tags_well_formed

from conftest import (
    MARKUP_FRAGMENTS,
    MARKUP_REF,
    MARKUP_SRC,
    MARKUP_TAGS,
    MARKUP_XPRIME,
    TAGGED_VOCAB,
    make_structural_corpus,
)


def Y(i):
    return Nonterminal("Y", i)


# ---------------------------------------------------------------------------
# segmentation

def test_segment_tagged_nested_markup(tagged_vocab):
    tags, fragments = segment_tagged(MARKUP_SRC.split(), tagged_vocab)
    assert tags == MARKUP_TAGS
    assert fragments == MARKUP_FRAGMENTS


def test_segment_tagged_no_markup(tagged_vocab):
    tags, fragments = segment_tagged(["hello", "world"], tagged_vocab)
    assert tags == []
    assert fragments == [["hello", "world"]]


def test_segment_tagged_empty_content(tagged_vocab):
    tags, fragments = segment_tagged(["<ph>", "</ph>"], tagged_vocab)
    assert tags == ["<ph>", "</ph>"]
    assert fragments == [[], [], []]


# ---------------------------------------------------------------------------
# serialization

def test_structural_pair_markup_example(tagged_vocab):
    pair = build_structural_pair(MARKUP_SRC.split(), MARKUP_REF.split(), vocab=tagged_vocab)
    xp, yp = pair.encoder_input, pair.target_output
    assert " ".join(xp) == MARKUP_XPRIME
    assert yp[0] == "<Y_0>" and yp.count("<sep>") == 1


def test_structural_builders_return_tags(tagged_vocab):
    pair = build_structural_pair(MARKUP_SRC.split(), ["<ph>", "a", "</ph>"], vocab=tagged_vocab)
    assert pair.source_tags == MARKUP_TAGS
    assert pair.target_tags == ["<ph>", "</ph>"]
    assert pair.decoder_prefix == []
    example = build_structural_input(MARKUP_SRC.split(), vocab=tagged_vocab)
    assert example.source_tags == MARKUP_TAGS
    assert example.target_tags is None


def test_training_and_inference_serialize_a_tagged_line_alike(tagged_vocab):
    # the template invariant: a tagged source line is serialized for training
    # as it is for inference, whatever its target
    pairs = make_structural_corpus(200, seed=5)
    for x, y in pairs + [(x, y[::-1]) for x, y in pairs]:
        pair = build_structural_pair(x, y, vocab=tagged_vocab)
        example = build_structural_input(x, vocab=tagged_vocab)
        assert (pair.encoder_input, pair.source_tags) == (example.encoder_input, example.source_tags)
    assert sum(bool(tag_sequence(x, tagged_vocab)) for x, _ in pairs) > 100


def test_structural_pair_untagged(tagged_vocab):
    pair = build_structural_pair(["hi"], ["bonjour"], vocab=tagged_vocab)
    xp, yp = pair.encoder_input, pair.target_output
    assert " ".join(xp) == "<X_0> <sep> <X_0> hi"
    assert " ".join(yp) == "<Y_0> <sep> <Y_0> bonjour"


def test_structural_pair_single_tag_empty_fragments(tagged_vocab):
    xp = build_structural_pair(["<ph>"], ["<ph>"], vocab=tagged_vocab).encoder_input
    assert " ".join(xp) == "<X_0> <ph> <X_1> <sep> <X_0> <X_1>"


def test_structural_pair_multiset_mismatch_warns(tagged_vocab, caplog):
    with caplog.at_level(logging.WARNING, logger="ctmt.structural"):
        build_structural_pair(["<ph>", "a", "</ph>"], ["a"], vocab=tagged_vocab)
    assert any("tag multiset mismatch" in r.message for r in caplog.records)


def test_structural_input_has_no_prefix(tagged_vocab):
    example = build_structural_input(MARKUP_SRC.split(), vocab=tagged_vocab)
    assert " ".join(example.encoder_input) == MARKUP_XPRIME
    assert example.decoder_prefix == []


def test_degenerate_matches_unconstrained_lexical(tagged_vocab, vocab):
    tokens = ["hello", "world"]
    xp_struct = build_structural_pair(tokens, ["bonjour"], vocab=tagged_vocab).encoder_input
    xp_lex = build_training_pair(tokens, ["bonjour"], [], vocab=vocab).encoder_input
    # identical shapes once the empty constraint section is dropped
    assert xp_lex[0] == vocab.sep_token
    assert xp_lex[1:] == xp_struct


# ---------------------------------------------------------------------------
# output parsing and validation

def test_parse_structural_output(tagged_vocab):
    tail = "<Y_0> <ph> <Y_1> </ph> <Y_2> <sep> <Y_1> bonjour <Y_2> .".split()
    parsed = parse_structural_output(tail, tagged_vocab)
    assert parsed.template.elements == [Y(0), "<ph>", Y(1), "</ph>", Y(2)]
    assert parsed.derivation.get(Y(1)) == ["bonjour"]
    assert parsed.omitted() == [Y(0)]


def test_parse_structural_error_carries_the_reading(tagged_vocab):
    tail = "<Y_0> <ph> junk <Y_1> </ph> <sep> <Y_0> a <ph> b <Y_1> c".split()
    with pytest.raises(OutputParseError, match="token 'junk' is not allowed") as info:
        parse_structural_output(tail, tagged_vocab)
    parsed = info.value.parsed
    assert parsed.template.elements == [Y(0), "<ph>", "junk", Y(1), "</ph>"]
    assert list(parsed.derivation.items()) == [(Y(0), ["a", "b"]), (Y(1), ["c"])]


def test_parse_structural_rejects_bad_tokens(tagged_vocab):
    with pytest.raises(OutputParseError):
        parse_structural_output("<Y_0> junk <sep> <Y_0> a".split(), tagged_vocab)
    with pytest.raises(OutputParseError):
        parse_structural_output("<Y_0> <C_1> <sep> <Y_0> a".split(), tagged_vocab)
    with pytest.raises(OutputParseError, match="derivation region"):
        parse_structural_output("<Y_0> <sep> <Y_0> a <ph> b".split(), tagged_vocab)


def test_validate_structural_balanced(tagged_vocab):
    t = Template([Y(0), "<ph>", Y(1), "</ph>", Y(2)])
    assert validate_structural_template(t, ["<ph>", "</ph>"], tagged_vocab).valid


def test_validate_structural_close_before_open(tagged_vocab):
    t = Template([Y(0), "</ph>", Y(1), "<ph>", Y(2)])
    verdict = validate_structural_template(t, ["<ph>", "</ph>"], tagged_vocab)
    assert not verdict.valid and "closing tag" in verdict.reason


def test_validate_structural_missing_tag(tagged_vocab):
    t = Template([Y(0), "<ph>", Y(1), "</ph>", Y(2)])
    verdict = validate_structural_template(t, ["<ph>", "<ph>", "</ph>", "</ph>"], tagged_vocab)
    assert not verdict.valid and "recall" in verdict.reason


@pytest.mark.parametrize(
    "source_tags, reason",
    [
        ([], "tag recall failed: extra ['</ph>', '<ph>']"),
        (["&amp;"], "tag recall failed: missing ['&amp;'], extra ['</ph>', '<ph>']"),
    ],
)
def test_validate_structural_names_extra_tags(tagged_vocab, source_tags, reason):
    t = Template([Y(0), "<ph>", Y(1), "</ph>", Y(2)])
    verdict = validate_structural_template(t, source_tags, tagged_vocab)
    assert verdict == TemplateVerdict(False, reason)


def test_validate_structural_unclosed(tagged_vocab):
    t = Template([Y(0), "<ph>", Y(1)])
    verdict = validate_structural_template(t, ["<ph>"], tagged_vocab)
    assert not verdict.valid and "unclosed" in verdict.reason


def test_void_tags_do_not_affect_nesting(tagged_vocab):
    assert tags_well_formed(["<url>", "<ph>", "&amp;", "</ph>"], tagged_vocab)
    assert not tags_well_formed(["<ph>", "<g>", "</ph>", "</g>"], tagged_vocab)


def test_validate_structural_rejects_foreign_elements(tagged_vocab):
    from ctmt import Nonterminal

    bad_kind = Template([Nonterminal("C", 1)])
    assert not validate_structural_template(bad_kind, [], tagged_vocab).valid
    bad_literal = Template([Y(0), "plain", Y(1)])
    assert not validate_structural_template(bad_literal, [], tagged_vocab).valid


# ---------------------------------------------------------------------------
# reconstruction

def test_reconstruct_structural_fallback(tagged_vocab):
    t = Template([Y(0), "<ph>", Y(1), "</ph>", Y(2)])
    f = DerivationTable([(Y(1), ["bonjour"])])
    assert reconstruct_structural(t, f) == ["<ph>", "bonjour", "</ph>"]


def test_reconstruct_structural_identity():
    t = Template([Y(0)])
    assert reconstruct_structural(t, DerivationTable([(Y(0), ["a"])])) == ["a"]


def test_reconstruct_markup_reference(tagged_vocab):
    y = MARKUP_REF.split()
    yp = build_structural_pair(MARKUP_SRC.split(), y, vocab=tagged_vocab).target_output
    parsed = parse_structural_output(yp, tagged_vocab)
    src_tags, _ = segment_tagged(MARKUP_SRC.split(), tagged_vocab)
    assert validate_structural_template(parsed.template, src_tags, tagged_vocab).valid
    assert reconstruct_structural(parsed.template, parsed.derivation) == y


# ---------------------------------------------------------------------------
# properties

def test_round_trip_random_corpus(tagged_vocab):
    for x, y in make_structural_corpus(300, seed=11):
        pair = build_structural_pair(x, y, vocab=tagged_vocab)
        xp, yp = pair.encoder_input, pair.target_output
        assert xp.count(tagged_vocab.sep_token) == 1
        assert yp.count(tagged_vocab.sep_token) == 1
        parsed = parse_structural_output(yp, tagged_vocab)
        src_tags = tag_sequence(x, tagged_vocab)
        assert validate_structural_template(parsed.template, src_tags, tagged_vocab).valid
        rebuilt = reconstruct_structural(parsed.template, parsed.derivation)
        assert rebuilt == y
        # tags are conserved through reconstruction
        assert tag_sequence(rebuilt, tagged_vocab) == parsed.template.tags()


def test_gold_templates_always_well_formed(tagged_vocab):
    for x, _ in make_structural_corpus(200, seed=13):
        tags = tag_sequence(x, tagged_vocab)
        assert tags_well_formed(tags, tagged_vocab)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_interleave_identity(data):
    corpus = make_structural_corpus(1, seed=data.draw(st.integers(0, 10_000)))
    x, _ = corpus[0]
    tags, fragments = segment_tagged(x, TAGGED_VOCAB)
    rebuilt = list(fragments[0])
    for tag, fragment in zip(tags, fragments[1:]):
        rebuilt += [tag] + fragment
    assert rebuilt == x
