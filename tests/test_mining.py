import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmt import SamplerConfig, extract_phrase_pairs, sample_constraints
from ctmt.mining import sample_phrase_pairs, sentence_rng

from conftest import brute_force_phrase_pairs, make_lexical_corpus, random_links


def spans_of(pairs):
    return {(p.src_span, p.tgt_span) for p in pairs}


# ---------------------------------------------------------------------------
# extraction

def test_extract_small_example():
    x, y = ["a", "b"], ["x", "y", "z"]
    links = {(0, 0), (1, 2)}
    pairs = extract_phrase_pairs(x, y, links, max_len=3)
    got = spans_of(pairs)
    assert ((0, 1), (0, 1)) in got  # a / x
    assert ((1, 2), (2, 3)) in got  # b / z
    assert ((0, 2), (0, 3)) in got  # a b / x y z
    assert ((0, 1), (1, 2)) not in got  # a / y is inconsistent
    assert got == brute_force_phrase_pairs(x, y, links, 3)


def test_extract_no_links():
    assert extract_phrase_pairs(["a"], ["b"], set(), 3) == []


def test_extract_single_link():
    pairs = extract_phrase_pairs(["a"], ["a"], {(0, 0)}, 3)
    assert spans_of(pairs) == {((0, 1), (0, 1))}
    assert pairs[0].src_tokens == ("a",) and pairs[0].tgt_tokens == ("a",)


def test_extract_unaligned_boundaries_not_attached():
    # y[1] has no link, so it can only ride inside a larger aligned span
    x, y = ["a", "b"], ["u", "v", "w"]
    links = {(0, 0), (1, 2)}
    got = spans_of(extract_phrase_pairs(x, y, links, 3))
    assert ((0, 1), (0, 2)) not in got
    assert ((0, 2), (0, 3)) in got


def test_extract_respects_max_len():
    x = ["a", "b", "c", "d"]
    y = ["w", "x", "y", "z"]
    links = {(i, i) for i in range(4)}
    got = spans_of(extract_phrase_pairs(x, y, links, max_len=2))
    assert all(s[1] - s[0] <= 2 and t[1] - t[0] <= 2 for s, t in got)
    assert ((0, 2), (0, 2)) in got


def test_extract_lexicographic_order():
    x = ["a", "b", "c"]
    y = ["x", "y", "z"]
    links = {(0, 0), (1, 1), (2, 2)}
    pairs = extract_phrase_pairs(x, y, links, 3)
    assert [p.src_span for p in pairs] == sorted(p.src_span for p in pairs)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_extract_matches_brute_force(data):
    src_len = data.draw(st.integers(1, 8))
    tgt_len = data.draw(st.integers(1, 8))
    links = data.draw(
        st.sets(
            st.tuples(st.integers(0, src_len - 1), st.integers(0, tgt_len - 1)),
            max_size=12,
        )
    )
    max_len = data.draw(st.integers(1, 4))
    x = [f"s{i}" for i in range(src_len)]
    y = [f"t{j}" for j in range(tgt_len)]
    got = spans_of(extract_phrase_pairs(x, y, links, max_len))
    assert got == brute_force_phrase_pairs(x, y, links, max_len)


# ---------------------------------------------------------------------------
# sampling

def _pairs_for(seed=5):
    rng = random.Random(seed)
    x = [f"s{i}" for i in range(12)]
    y = [f"t{j}" for j in range(12)]
    links = random_links(rng, 12, 12)
    return x, y, extract_phrase_pairs(x, y, links, 3)


def test_sample_zero_max_constraints():
    _, _, pairs = _pairs_for()
    cfg = SamplerConfig(max_constraints=0)
    for seed in range(10):
        assert sample_constraints(pairs, cfg, random.Random(seed)) == []


def test_sample_empty_pool():
    cfg = SamplerConfig()
    assert sample_constraints([], cfg, random.Random(1)) == []


def test_sample_invariants():
    cfg = SamplerConfig(max_constraints=3, min_len=1, max_len=3)
    for corpus_seed in range(30):
        rng = random.Random(corpus_seed)
        x = [rng.choice("abcdef") for _ in range(rng.randint(1, 12))]
        y = [rng.choice("uvwxyz") for _ in range(rng.randint(1, 12))]
        links = random_links(rng, len(x), len(y))
        pairs = extract_phrase_pairs(x, y, links, cfg.max_len)
        chosen = sample_phrase_pairs(pairs, cfg, random.Random(corpus_seed + 100))
        assert len(chosen) <= cfg.max_constraints
        for p in chosen:
            assert cfg.min_len <= p.src_span[1] - p.src_span[0] <= cfg.max_len
            assert cfg.min_len <= p.tgt_span[1] - p.tgt_span[0] <= cfg.max_len
            assert list(p.src_tokens) == x[p.src_span[0] : p.src_span[1]]
            assert list(p.tgt_tokens) == y[p.tgt_span[0] : p.tgt_span[1]]
        for a in chosen:
            for b in chosen:
                if a is b:
                    continue
                assert a.src_span[1] <= b.src_span[0] or b.src_span[1] <= a.src_span[0]
                assert a.tgt_span[1] <= b.tgt_span[0] or b.tgt_span[1] <= a.tgt_span[0]
        assert [p.src_span for p in chosen] == sorted(p.src_span for p in chosen)


def test_sample_constraints_follow_source_order():
    # C_n is the n-th constraint, so the list itself must be in source order
    _, _, pairs = _pairs_for()
    cfg = SamplerConfig()
    sizes = set()
    for seed in range(20):
        chosen = sample_phrase_pairs(pairs, cfg, random.Random(seed))
        constraints = sample_constraints(pairs, cfg, random.Random(seed))
        assert [p.src_span for p in chosen] == sorted(p.src_span for p in chosen)
        assert [(c.src, c.tgt) for c in constraints] == [
            (list(p.src_tokens), list(p.tgt_tokens)) for p in chosen
        ]
        sizes.add(len(chosen))
    assert max(sizes) > 1


def test_sample_deterministic():
    _, _, pairs = _pairs_for()
    cfg = SamplerConfig(rng_seed=42)
    runs = [
        sample_constraints(pairs, cfg, sentence_rng(cfg.rng_seed, 7)) for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]


def test_sentence_rng_independent_of_processing_order():
    draws_forward = [sentence_rng(9, i).random() for i in range(20)]
    draws_backward = [sentence_rng(9, i).random() for i in reversed(range(20))]
    assert draws_forward == list(reversed(draws_backward))


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(max_constraints=-1)
    with pytest.raises(ValueError):
        SamplerConfig(min_len=0)
    with pytest.raises(ValueError):
        SamplerConfig(min_len=3, max_len=2)


def test_corpus_sampling_smoke():
    pairs, alignments = make_lexical_corpus(50, seed=21, max_len=15)
    cfg = SamplerConfig(rng_seed=5)
    total = 0
    for i, ((x, y), links) in enumerate(zip(pairs, alignments)):
        extracted = extract_phrase_pairs(x, y, links, cfg.max_len)
        total += len(sample_constraints(extracted, cfg, sentence_rng(cfg.rng_seed, i)))
    assert total > 0
