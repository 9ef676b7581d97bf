"""Bounded exhaustive checks: decoding is total on every model continuation
up to a few tokens over a small alphabet, not only on sampled ones, writes
the bytes it always has for each, and agrees with the strict parsers and the
validators; and the pruned shift search of 1-TERm scores every short pair as
the full one."""

import hashlib
import itertools
import json
import random

import pytest

from ctmt import (
    OutputParseError,
    corpus_io,
    parse_output,
    parse_structural_output,
    validate_structural_template,
    validate_template,
)
from ctmt.cli import decode_line
from ctmt.metrics import shifted_edit_cost
from ctmt.vocab import DEFAULT_VOCAB

from conftest import TAGGED_VOCAB, reference_shifted_edit_cost

# <Y_65> is past max_index, so it is an ordinary word that looks like a nonterminal
LEXICAL_SYMBOLS = ["<sep>", "<Y_0>", "<Y_1>", "<X_0>", "<C_1>", "<C_2>", "<C_3>", "a", "<Y_65>"]
STRUCTURAL_SYMBOLS = ["<sep>", "<Y_0>", "<Y_1>", "<ph>", "</ph>", "<url>", "w"]
CONSTRAINTS = [{"src": ["s"], "tgt": ["K"]}, {"src": ["t"], "tgt": ["L", "M"]}]
SOURCE_TAGS = [[], ["<ph>", "</ph>"], ["<url>"], ["<ph>", "<url>", "</ph>"]]


def _continuations(symbols, max_len):
    for n in range(max_len + 1):
        yield from map(list, itertools.product(symbols, repeat=n))


def _meta(record):
    return corpus_io.parse_meta(json.dumps({**record, "index": 0}), 1)


# sha256 of every (continuation, decode.out line, decode.audit.jsonl line) of
# each domain, recorded from the decoder that parsed, validated and expanded a
# line in separate passes
LEXICAL_DIGESTS = [
    "b2d54d0680e71b52d5b7e1ec58e087eefdc60d1044714fa10057f4940e333187",
    "1a443ee4b558d67af691844085f2d0caa677dded3921602e450fc010cdad533b",
    "8631102af5df241de244012196d153af4ac16de8ce159e06141d78eee36d96bb",
]
STRUCTURAL_DIGESTS = [
    "8eff4844ce99903192e1c4dc33c42220b7c23bcbe42c65395c9102a073b52602",
    "f707baf46c74f4ce611829af82344ba3105f7f13d9c9f62bb18d74fe19a4ef10",
    "30b365fb110d150ffa78f3606503d30061ea02ed253bc99f2fda2f0892112f7c",
    "841084fa88e4fad1bf720cfdc24e9aa20b4e0e842de41412fd129c6abd26cc2d",
]


def _decode_all(tails, meta, vocab, parse, validate):
    """The digest of every tail's decoded line and audit, after checking that
    each line decodes to plain tokens, that the strict parser raises exactly
    on the lines that fall back, and that the validator gives every other
    line's verdict."""
    digest = hashlib.sha256()
    for tail in tails:
        sentence, audit = decode_line(tail, meta, vocab)
        assert not [t for t in sentence if vocab.is_reserved(t)], (tail, sentence)
        try:
            parsed = parse(tail)
        except OutputParseError as exc:
            assert audit["fallback"] and (audit["valid"], audit["reason"]) == (False, str(exc)), tail
        else:
            verdict = validate(parsed.template)
            assert not audit["fallback"] and (audit["valid"], audit["reason"]) == (verdict.valid, verdict.reason)
        line = corpus_io.token_line(tail) + corpus_io.token_line(sentence) + corpus_io.json_line(audit)
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("n_constraints", [0, 1, 2])
def test_every_short_lexical_continuation_decodes(n_constraints):
    meta = _meta({"mode": "lexical", "constraints": CONSTRAINTS[:n_constraints]})
    tails = list(_continuations(LEXICAL_SYMBOLS, 4))
    assert len(tails) == sum(len(LEXICAL_SYMBOLS) ** n for n in range(5))
    digest = _decode_all(
        tails, meta, DEFAULT_VOCAB,
        lambda tail: parse_output(tail, DEFAULT_VOCAB, n_constraints),
        lambda template: validate_template(template, n_constraints),
    )
    assert digest == LEXICAL_DIGESTS[n_constraints]


@pytest.mark.parametrize("source_tags", SOURCE_TAGS, ids=lambda tags: " ".join(tags) or "none")
def test_every_short_structural_continuation_decodes(source_tags):
    meta = _meta({"mode": "structural", "source_tags": source_tags})
    tails = list(_continuations(STRUCTURAL_SYMBOLS, 5))
    assert len(tails) == sum(len(STRUCTURAL_SYMBOLS) ** n for n in range(6))
    digest = _decode_all(
        tails, meta, TAGGED_VOCAB,
        lambda tail: parse_structural_output(tail, TAGGED_VOCAB),
        lambda template: validate_structural_template(template, source_tags, TAGGED_VOCAB),
    )
    assert digest == STRUCTURAL_DIGESTS[SOURCE_TAGS.index(source_tags)]


def test_every_short_pair_over_three_tokens_scores_as_the_full_shift_search():
    rng = random.Random(41)
    sides = list(_continuations("abc", 4))
    cases = 0
    for hyp in sides:
        for ref in sides:
            hw = [rng.choice([1, 2]) for _ in hyp]
            rw = [rng.choice([1, 2]) for _ in ref]
            got = shifted_edit_cost(hyp, ref, hw, rw)
            assert got == reference_shifted_edit_cost(hyp, ref, hw, rw), (hyp, ref, hw, rw)
            cases += 1
    assert cases == 121 ** 2
