"""Bounded exhaustive checks: decoding is total on every model continuation
up to a few tokens over a small alphabet, not only on sampled ones, and the
pruned shift search of 1-TERm scores every short pair as the full one."""

import itertools
import json
import random

import pytest

from ctmt import corpus_io
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


@pytest.mark.parametrize("n_constraints", [0, 1, 2])
def test_every_short_lexical_continuation_decodes(n_constraints):
    meta = _meta({"mode": "lexical", "constraints": CONSTRAINTS[:n_constraints]})
    cases = 0
    for tail in _continuations(LEXICAL_SYMBOLS, 4):
        sentence, audit = decode_line(tail, meta, DEFAULT_VOCAB)
        assert not [t for t in sentence if DEFAULT_VOCAB.is_reserved(t)], (tail, sentence)
        assert isinstance(audit["valid"], bool)
        cases += 1
    assert cases == sum(len(LEXICAL_SYMBOLS) ** n for n in range(5))


@pytest.mark.parametrize("source_tags", SOURCE_TAGS, ids=lambda tags: " ".join(tags) or "none")
def test_every_short_structural_continuation_decodes(source_tags):
    meta = _meta({"mode": "structural", "source_tags": source_tags})
    cases = 0
    for tail in _continuations(STRUCTURAL_SYMBOLS, 5):
        sentence, audit = decode_line(tail, meta, TAGGED_VOCAB)
        assert not [t for t in sentence if TAGGED_VOCAB.is_reserved(t)], (tail, sentence)
        assert isinstance(audit["valid"], bool)
        cases += 1
    assert cases == sum(len(STRUCTURAL_SYMBOLS) ** n for n in range(6))


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
