"""Constraint simulation: phrase-pair extraction and randomized sampling.

Phrase pairs are extracted from word-aligned sentence pairs under the
usual consistency condition (no alignment link crosses the span boundary
and at least one link lies inside), restricted to tight phrases whose
boundary tokens are all aligned; unaligned neighbours are never attached.
Constraint sets are then drawn per sentence with a seeded generator.
"""

from __future__ import annotations

import random

from ._log import Logger
from .types import ConstraintPair, FrozenValue, Span, TokenSeq, disjoint

log = Logger(__name__)


class PhrasePair(FrozenValue):
    __slots__ = FIELDS = ("src_span", "tgt_span", "src_tokens", "tgt_tokens")

    def __init__(
        self, src_span: Span, tgt_span: Span,
        src_tokens: tuple[str, ...], tgt_tokens: tuple[str, ...],
    ) -> None:
        object.__setattr__(self, "src_span", src_span)
        object.__setattr__(self, "tgt_span", tgt_span)
        object.__setattr__(self, "src_tokens", src_tokens)
        object.__setattr__(self, "tgt_tokens", tgt_tokens)


class SamplerConfig(FrozenValue):
    __slots__ = FIELDS = ("max_constraints", "min_len", "max_len", "rng_seed")

    def __init__(
        self, max_constraints: int = 3, min_len: int = 1, max_len: int = 3, rng_seed: int = 0
    ) -> None:
        if max_constraints < 0:
            raise ValueError("max_constraints must be non-negative")
        if not (1 <= min_len <= max_len):
            raise ValueError("lengths must satisfy 1 <= min_len <= max_len")
        object.__setattr__(self, "max_constraints", max_constraints)
        object.__setattr__(self, "min_len", min_len)
        object.__setattr__(self, "max_len", max_len)
        object.__setattr__(self, "rng_seed", rng_seed)


def extract_phrase_pairs(
    x: TokenSeq, y: TokenSeq, links: set[tuple[int, int]], max_len: int
) -> list[PhrasePair]:
    """Enumerate every consistent tight phrase pair with spans up to max_len.

    For each source span whose boundary tokens are aligned, the candidate
    target span is the exact projection of its links; the pair is kept
    when no outside link maps into that projection. Pairs come out in
    lexicographic span order.
    """
    if not links:
        return []
    # the lowest and highest linked position of each source and target token;
    # an unlinked target token bounds nothing
    src_lo: dict[int, int] = {}
    src_hi: dict[int, int] = {}
    width = max(j for _, j in links) + 1
    tgt_lo = [len(x)] * width
    tgt_hi = [-1] * width
    for i, j in links:
        src_lo[i] = min(src_lo.get(i, j), j)
        src_hi[i] = max(src_hi.get(i, j), j)
        tgt_lo[j] = min(tgt_lo[j], i)
        tgt_hi[j] = max(tgt_hi[j], i)

    pairs: list[PhrasePair] = []
    for i1 in range(len(x)):
        if i1 not in src_lo:
            continue
        j1, j2 = src_lo[i1], src_hi[i1] + 1  # the projection of x[i1:i2], grown with i2
        for i2 in range(i1 + 1, min(i1 + max_len, len(x)) + 1):
            if (i2 - 1) not in src_lo:
                continue
            j1, j2 = min(j1, src_lo[i2 - 1]), max(j2, src_hi[i2 - 1] + 1)
            if j2 - j1 > max_len:
                break  # the projection only grows
            # consistent: no target token in it links outside x[i1:i2]
            if min(tgt_lo[j1:j2]) < i1 or max(tgt_hi[j1:j2]) >= i2:
                continue
            pairs.append(
                PhrasePair((i1, i2), (j1, j2), tuple(x[i1:i2]), tuple(y[j1:j2]))
            )
    return pairs


def sample_phrase_pairs(
    pairs: list[PhrasePair], cfg: SamplerConfig, rng: random.Random
) -> list[PhrasePair]:
    """Draw up to k phrase pairs with disjoint spans on both sides.

    k is uniform over {0..max_constraints}. Candidates within the length
    bounds are drawn uniformly without replacement and rejected when they
    overlap an accepted pair; if the pool runs out first, the accepted
    pairs are returned as is. The result is sorted by source span.
    """
    k = rng.randint(0, cfg.max_constraints)
    pool = [
        p
        for p in pairs
        if cfg.min_len <= p.src_span[1] - p.src_span[0] <= cfg.max_len
        and cfg.min_len <= p.tgt_span[1] - p.tgt_span[0] <= cfg.max_len
    ]
    chosen: list[PhrasePair] = []
    while pool and len(chosen) < k:
        cand = pool.pop(rng.randrange(len(pool)))
        ok = all(
            disjoint(cand.src_span, c.src_span) and disjoint(cand.tgt_span, c.tgt_span)
            for c in chosen
        )
        if ok:
            chosen.append(cand)
    if len(chosen) < k:
        log.debug("wanted %d constraints but only %d disjoint candidates", k, len(chosen))
    chosen.sort(key=lambda p: p.src_span)
    return chosen


def sample_constraints(
    pairs: list[PhrasePair], cfg: SamplerConfig, rng: random.Random
) -> list[ConstraintPair]:
    """Sample a constraint set in canonical (source) order; ``C_n`` is the n-th."""
    return as_constraints(sample_phrase_pairs(pairs, cfg, rng))


def as_constraints(chosen: list[PhrasePair]) -> list[ConstraintPair]:
    """Sampled phrase pairs as constraints, in their order; ``C_n`` is the n-th."""
    return [ConstraintPair(src=list(p.src_tokens), tgt=list(p.tgt_tokens)) for p in chosen]


def sentence_rng(seed: int, index: int) -> random.Random:
    """Generator for one sentence, reproducible per sentence index."""
    return random.Random(f"{seed}:{index}")
