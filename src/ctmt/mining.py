"""Constraint simulation: phrase-pair extraction and randomized sampling.

Phrase pairs are extracted from word-aligned sentence pairs under the
usual consistency condition (no alignment link crosses the span boundary
and at least one link lies inside), restricted to tight phrases whose
boundary tokens are all aligned; unaligned neighbours are never attached.
Constraint sets are then drawn per sentence with a seeded generator.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

from .types import ConstraintPair, Span, TokenSeq, disjoint

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PhrasePair:
    src_span: Span
    tgt_span: Span
    src_tokens: tuple[str, ...]
    tgt_tokens: tuple[str, ...]


@dataclass(frozen=True)
class SamplerConfig:
    max_constraints: int = 3
    min_len: int = 1
    max_len: int = 3
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_constraints < 0:
            raise ValueError("max_constraints must be non-negative")
        if not (1 <= self.min_len <= self.max_len):
            raise ValueError("lengths must satisfy 1 <= min_len <= max_len")


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
    src_links: dict[int, list[int]] = {}
    tgt_links: dict[int, list[int]] = {}
    for i, j in links:
        src_links.setdefault(i, []).append(j)
        tgt_links.setdefault(j, []).append(i)

    pairs: list[PhrasePair] = []
    for i1 in range(len(x)):
        if i1 not in src_links:
            continue
        for i2 in range(i1 + 1, min(i1 + max_len, len(x)) + 1):
            if (i2 - 1) not in src_links:
                continue
            projected = [j for i in range(i1, i2) for j in src_links.get(i, ())]
            j1, j2 = min(projected), max(projected) + 1
            if j2 - j1 > max_len:
                continue
            consistent = all(
                i1 <= i < i2 for j in range(j1, j2) for i in tgt_links.get(j, ())
            )
            if not consistent:
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
    """Sample a constraint set, indexed 1..k by source position."""
    return as_constraints(sample_phrase_pairs(pairs, cfg, rng))


def as_constraints(chosen: list[PhrasePair]) -> list[ConstraintPair]:
    """Sampled phrase pairs as constraints, indexed 1..k in their order."""
    return [
        ConstraintPair(src=list(p.src_tokens), tgt=list(p.tgt_tokens), index=n + 1)
        for n, p in enumerate(chosen)
    ]


def sentence_rng(seed: int, index: int) -> random.Random:
    """Generator for one sentence, reproducible independently of sharding."""
    return random.Random(f"{seed}:{index}")
