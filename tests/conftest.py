"""Shared fixtures: golden constants, corpus generators, independent oracles.

The oracles here deliberately avoid the package's own algorithms so they
can vouch for them: phrase extraction is checked against a full scan of
every span pair, and the shift-based edit cost against a shortest-path
search over all block moves. The greedy shift search and the span search
are also checked against plain copies that do every step in full, with
no reuse, pruning or early failure. The corpus metrics are recomputed from
their docstrings, line by line, with none of the package's metric code.
"""

from __future__ import annotations

import heapq
import math
import random
import textwrap
from collections import Counter
from fractions import Fraction

import pytest

from ctmt import ConstraintPair, ReservedVocab

# ---------------------------------------------------------------------------
# golden example: English-Chinese pair with two reordered constraints

GOLD_SRC = (
    "Analysts are concerned that since there is no sign yet of any slowing down "
    "of this price hike , the prospect of the British real estate market as where "
    "it is heading now is far from optimistic ."
)
GOLD_REF = (
    "分析家担心 , 由于目前还看不见 价格上涨 趋势有 减弱 的迹象 , 照此发展下去 , "
    "英国房地产市场前景堪忧 。"
)
GOLD_CONSTRAINTS = [
    (["slowing", "down"], ["减弱"]),
    (["price", "hike"], ["价格上涨"]),
]
GOLD_ENC = (
    "<C_1> slowing down <C_2> price hike <sep> <X_0> <C_1> <X_1> <C_2> <X_2> <sep> "
    "<X_0> Analysts are concerned that since there is no sign yet of any <X_1> of this "
    "<X_2> , the prospect of the British real estate market as where it is heading now "
    "is far from optimistic ."
)
GOLD_PREFIX = "<C_1> 减弱 <C_2> 价格上涨 <sep>"
GOLD_YPRIME = (
    "<C_1> 减弱 <C_2> 价格上涨 <sep> <Y_0> <C_2> <Y_1> <C_1> <Y_2> <sep> "
    "<Y_0> 分析家担心 , 由于目前还看不见 <Y_1> 趋势有 <Y_2> 的迹象 , 照此发展下去 , "
    "英国房地产市场前景堪忧 。"
)
GOLD_OUTPUT = (
    "<Y_0> <C_2> <Y_1> <C_1> <Y_2> <sep> <Y_0> 分析师们担心 , 由于目前还没有迹象显示 "
    "<Y_1> 会 <Y_2> , 英国房地产市场的前景远不乐观 。"
)
GOLD_RESULT = "分析师们担心 , 由于目前还没有迹象显示 价格上涨 会 减弱 , 英国房地产市场的前景远不乐观 。"

# golden tagged example: nested placeholder markup

MARKUP_SRC = "<ph> Each dashboard can have up to <ph> 3 </ph> filters . </ph>"
MARKUP_TAGS = ["<ph>", "<ph>", "</ph>", "</ph>"]
MARKUP_FRAGMENTS = [
    [],
    ["Each", "dashboard", "can", "have", "up", "to"],
    ["3"],
    ["filters", "."],
    [],
]
MARKUP_XPRIME = (
    "<X_0> <ph> <X_1> <ph> <X_2> </ph> <X_3> </ph> <X_4> <sep> "
    "<X_0> <X_1> Each dashboard can have up to <X_2> 3 <X_3> filters . <X_4>"
)
MARKUP_REF = "<ph> Chaque tableau de bord peut inclure jusqu'à <ph> 3 </ph> filtres . </ph>"


def gold_constraints() -> list[ConstraintPair]:
    return [ConstraintPair(src=list(s), tgt=list(t)) for s, t in GOLD_CONSTRAINTS]


@pytest.fixture
def vocab() -> ReservedVocab:
    return ReservedVocab()


TAGGED_VOCAB = ReservedVocab(
    registered_tags=frozenset({"<ph>", "</ph>", "<g>", "</g>", "<url>", "&amp;"})
)


@pytest.fixture
def tagged_vocab() -> ReservedVocab:
    return TAGGED_VOCAB


# ---------------------------------------------------------------------------
# translator children

KEYED_TRANSLATOR = textwrap.dedent(
    """\
    #!/usr/bin/env python3
    import json
    import sys

    # test translator: answers by exact request line, safe under sharding
    with open(sys.argv[1], encoding="utf-8") as f:
        table = json.load(f)
    for line in sys.stdin:
        sys.stdout.write(table[line.rstrip("\\n")] + "\\n")
        sys.stdout.flush()
    """
)


# ---------------------------------------------------------------------------
# corpus generators

WORDS = [f"w{i:02d}" for i in range(50)]


def random_sentence(rng: random.Random, max_len: int = 30, min_len: int = 1) -> list[str]:
    return [rng.choice(WORDS) for _ in range(rng.randint(min_len, max_len))]


def random_links(rng: random.Random, src_len: int, tgt_len: int) -> set[tuple[int, int]]:
    n = rng.randint(0, 2 * min(src_len, tgt_len))
    return {(rng.randrange(src_len), rng.randrange(tgt_len)) for _ in range(n)}


def make_lexical_corpus(n: int, seed: int, max_len: int = 30):
    """Random bitext plus random word alignments."""
    rng = random.Random(seed)
    pairs = []
    alignments = []
    for _ in range(n):
        x = random_sentence(rng, max_len)
        y = random_sentence(rng, max_len)
        pairs.append((x, y))
        alignments.append(random_links(rng, len(x), len(y)))
    return pairs, alignments


def _arrange_tags(
    rng: random.Random,
    pair_names: list[str],
    voids: list[str],
    depth: int,
    max_depth: int = 3,
) -> list[str]:
    """A random well-formed token stream using exactly the given tags."""

    def words() -> list[str]:
        return [rng.choice(WORDS) for _ in range(rng.randint(0, 3))]

    tokens = words()
    pair_names = list(pair_names)
    voids = list(voids)
    rng.shuffle(pair_names)
    rng.shuffle(voids)
    while pair_names:
        name = pair_names.pop()
        inner_pairs: list[str] = []
        if depth + 1 < max_depth and pair_names:
            for _ in range(rng.randint(0, len(pair_names))):
                inner_pairs.append(pair_names.pop())
        inner_voids = [voids.pop() for _ in range(rng.randint(0, len(voids)))]
        tokens += [f"<{name}>"]
        tokens += _arrange_tags(rng, inner_pairs, inner_voids, depth + 1, max_depth)
        tokens += [f"</{name}>"] + words()
    for v in voids:
        tokens += [v] + words()
    return tokens


def make_structural_corpus(n: int, seed: int, max_depth: int = 3):
    """Random tagged sentence pairs sharing per-line tag multisets."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        pair_names = [rng.choice(["ph", "g"]) for _ in range(rng.randint(0, 3))]
        voids = [rng.choice(["<url>", "&amp;"]) for _ in range(rng.randint(0, 2))]
        x = _arrange_tags(rng, pair_names, voids, 0, max_depth)
        y = _arrange_tags(rng, pair_names, voids, 0, max_depth)
        pairs.append((x, y))
    return pairs


# ---------------------------------------------------------------------------
# corpus files

def write_lines(path, rows) -> str:
    """Write each row as one LF-terminated line; the path as a string, for an argv."""
    path.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
    return str(path)


def pharaoh_line(links) -> str:
    """A sentence pair's word alignment as a Pharaoh line of sorted ``i-j`` items."""
    return " ".join(f"{i}-{j}" for i, j in sorted(links))


# ---------------------------------------------------------------------------
# independent oracle: phrase extraction by full span-pair scan

def brute_force_phrase_pairs(x, y, links, max_len):
    """All (src_span, tgt_span) pairs passing the consistency predicate:
    no link crosses either boundary, at least one link inside, and every
    boundary token is aligned."""
    out = set()
    src_aligned = {i for i, _ in links}
    tgt_aligned = {j for _, j in links}
    for i1 in range(len(x)):
        for i2 in range(i1 + 1, min(i1 + max_len, len(x)) + 1):
            for j1 in range(len(y)):
                for j2 in range(j1 + 1, min(j1 + max_len, len(y)) + 1):
                    inside = False
                    ok = True
                    for (i, j) in links:
                        src_in = i1 <= i < i2
                        tgt_in = j1 <= j < j2
                        if src_in != tgt_in:
                            ok = False
                            break
                        if src_in:
                            inside = True
                    if not (ok and inside):
                        continue
                    if i1 not in src_aligned or (i2 - 1) not in src_aligned:
                        continue
                    if j1 not in tgt_aligned or (j2 - 1) not in tgt_aligned:
                        continue
                    out.add(((i1, i2), (j1, j2)))
    return out


# ---------------------------------------------------------------------------
# independent oracles: edit distance with block moves

def simple_weighted_lev(hyp, ref, hw, rw):
    """Plain DP edit distance; delete/insert cost the token weight,
    substitution the heavier of the two."""
    rows = len(hyp) + 1
    cols = len(ref) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(1, rows):
        d[i][0] = d[i - 1][0] + hw[i - 1]
    for j in range(1, cols):
        d[0][j] = d[0][j - 1] + rw[j - 1]
    for i in range(1, rows):
        for j in range(1, cols):
            sub = d[i - 1][j - 1]
            if hyp[i - 1] != ref[j - 1]:
                sub += max(hw[i - 1], rw[j - 1])
            d[i][j] = min(sub, d[i - 1][j] + hw[i - 1], d[i][j - 1] + rw[j - 1])
    return d[rows - 1][cols - 1]


def exhaustive_min_shift_cost(hyp, ref, hw, rw):
    """Exact minimum of (sum of shift costs + final edit distance) over all
    sequences of block moves, via shortest-path search on the reachable
    arrangements. Weights travel with their tokens; a move costs the
    weight of its heaviest moved token."""
    start = tuple(zip(hyp, hw))
    ref = list(ref)
    lev_cache: dict[tuple, int] = {}

    def lev(state) -> int:
        got = lev_cache.get(state)
        if got is None:
            toks = [t for t, _ in state]
            ws = [w for _, w in state]
            got = simple_weighted_lev(toks, ref, ws, rw)
            lev_cache[state] = got
        return got

    best = lev(start)
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        d, state = heapq.heappop(heap)
        if d != dist.get(state) or d >= best:
            continue
        n = len(state)
        for i1 in range(n):
            for i2 in range(i1 + 1, n + 1):
                block = state[i1:i2]
                rest = state[:i1] + state[i2:]
                cost = max(w for _, w in block)
                for k in range(len(rest) + 1):
                    if k == i1:
                        continue
                    nxt = rest[:k] + block + rest[k:]
                    nd = d + cost
                    if nd >= best or dist.get(nxt, nd + 1) <= nd:
                        continue
                    dist[nxt] = nd
                    best = min(best, nd + lev(nxt))
                    heapq.heappush(heap, (nd, nxt))
    return best


def reference_ter(hyp, ref):
    """Unweighted TER edit count: greedy best-shift loop over substrings of
    the hypothesis that occur in the reference, then plain edit distance.
    Kept free of package code on purpose."""
    ones_r = [1] * len(ref)

    def lev(seq):
        return simple_weighted_lev(seq, ref, [1] * len(seq), ones_r)

    if hyp == ref:
        return 0
    positions: dict[tuple, list[int]] = {}
    for j1 in range(len(ref)):
        for j2 in range(j1 + 1, min(j1 + 10, len(ref)) + 1):
            positions.setdefault(tuple(ref[j1:j2]), []).append(j1)

    cur = list(hyp)
    edits = lev(cur)
    shifts = 0
    while edits > 0:
        best = None
        for i1 in range(len(cur)):
            for i2 in range(i1 + 1, min(i1 + 10, len(cur)) + 1):
                hits = positions.get(tuple(cur[i1:i2]))
                if not hits:
                    continue
                rest = cur[:i1] + cur[i2:]
                seen = set()
                for j in hits:
                    k = min(j, len(rest))
                    if k in seen or k == i1:
                        continue
                    seen.add(k)
                    cand = rest[:k] + cur[i1:i2] + rest[k:]
                    e = lev(cand)
                    if e + 1 < edits and (best is None or e + 1 < best[0]):
                        best = (e + 1, e, cand)
        if best is None:
            break
        _, edits, cur = best
        shifts += 1
    return shifts + edits


def reference_shifted_edit_cost(hyp, ref, hw, rw):
    """Weighted greedy shift search that scores every candidate with a
    full DP: a shift of a hypothesis substring that occurs in the
    reference, to a reference position, costs its heaviest moved weight,
    and each round takes the first candidate with the lowest total below
    the current distance. Kept free of package code on purpose."""
    if hyp == ref:
        return 0
    positions: dict[tuple, list[int]] = {}
    for j1 in range(len(ref)):
        for j2 in range(j1 + 1, min(j1 + 10, len(ref)) + 1):
            positions.setdefault(tuple(ref[j1:j2]), []).append(j1)

    cur, cur_w = list(hyp), list(hw)
    distance = simple_weighted_lev(cur, ref, cur_w, rw)
    shift_total = 0
    while distance > 0:
        best = None
        for i1 in range(len(cur)):
            for i2 in range(i1 + 1, min(i1 + 10, len(cur)) + 1):
                hits = positions.get(tuple(cur[i1:i2]))
                if not hits:
                    continue
                cost = max(cur_w[i1:i2])
                rest, rest_w = cur[:i1] + cur[i2:], cur_w[:i1] + cur_w[i2:]
                seen = set()
                for j in hits:
                    k = min(j, len(rest))
                    if k in seen or k == i1:
                        continue
                    seen.add(k)
                    cand = rest[:k] + cur[i1:i2] + rest[k:]
                    cand_w = rest_w[:k] + cur_w[i1:i2] + rest_w[k:]
                    d = simple_weighted_lev(cand, ref, cand_w, rw)
                    if d + cost < distance and (best is None or d + cost < best[0]):
                        best = (d + cost, d, cost, cand, cand_w)
        if best is None:
            break
        _, distance, cost, cur, cur_w = best
        shift_total += cost
    return shift_total + distance


# ---------------------------------------------------------------------------
# reference span search: depth-first over occurrences, without fast failures

def reference_occurrences(tokens, phrase):
    return [(s, s + len(phrase)) for s in range(len(tokens) - len(phrase) + 1)
            if tokens[s : s + len(phrase)] == phrase]


def reference_disjoint_assignment(tokens, phrases, node_budget=100_000):
    """Phrases in order, each trying its occurrences leftmost first and
    backtracking; each occurrence tried spends one node of the budget,
    and running out gives None."""
    occs = [reference_occurrences(tokens, list(p)) for p in phrases]
    chosen = []
    nodes = node_budget

    def place(k):
        nonlocal nodes
        if k == len(occs):
            return True
        for b, e in occs[k]:
            nodes -= 1
            if nodes <= 0:
                return False
            if all(ce <= b or e <= cb for cb, ce in chosen):
                chosen.append((b, e))
                if place(k + 1):
                    return True
                chosen.pop()
        return False

    return list(chosen) if place(0) else None


def reference_claim_spans(tokens, phrases):
    """The full assignment when there is one; otherwise leftmost greedy
    claiming, with None for each phrase left without a free occurrence."""
    full = reference_disjoint_assignment(tokens, phrases)
    if full is not None:
        return full
    claimed, out = [], []
    for phrase in phrases:
        found = None
        for b, e in reference_occurrences(tokens, list(phrase)):
            if all(ce <= b or e <= cb for cb, ce in claimed):
                found = (b, e)
                claimed.append(found)
                break
        out.append(found)
    return out


# ---------------------------------------------------------------------------
# independent oracles: the corpus metrics, each from its definition

def _percent(part, whole):
    return 100.0 * part / whole if whole else 100.0


def _phrases(record):
    return [c.tgt for c in record.constraints]


def reference_bleu(records):
    """Corpus BLEU: per order up to 4, hypothesis n-grams clipped by the
    reference's counts, summed over the corpus. The k-th order above 1 with
    no match scores 1/(2^k * total); no unigram match scores 0; an order
    with no n-grams is left out of the geometric mean. The brevity penalty
    applies when the hypotheses are shorter. Empty hypotheses score 0, or
    100 when every reference is empty too."""
    matches, totals = [0] * 4, [0] * 4
    for r in records:
        for n in range(1, 5):
            hyp = Counter(tuple(r.hypothesis[i : i + n]) for i in range(len(r.hypothesis) - n + 1))
            ref = Counter(tuple(r.reference[i : i + n]) for i in range(len(r.reference) - n + 1))
            matches[n - 1] += sum(min(count, ref[gram]) for gram, count in hyp.items())
            totals[n - 1] += sum(hyp.values())
    hyp_len = sum(len(r.hypothesis) for r in records)
    ref_len = sum(len(r.reference) for r in records)
    if hyp_len == 0:
        return 100.0 if ref_len == 0 else 0.0
    if matches[0] == 0:
        return 0.0
    logs, zeros = [], 0
    for matched, total in zip(matches, totals):
        if total == 0:
            continue
        if matched == 0:
            zeros += 1
            logs.append(math.log(1 / (2**zeros * total)))
        else:
            logs.append(math.log(matched / total))
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(sum(logs) / len(logs))


def reference_exact_match(records):
    """Share of required target phrases placed in their hypotheses."""
    spans = [s for r in records for s in reference_claim_spans(r.hypothesis, _phrases(r))]
    return _percent(sum(s is not None for s in spans), len(spans))


def reference_window_overlap(records, window):
    """Mean over phrases of the multiset intersection of the up to ``window``
    tokens on each side of the phrase's hypothesis and reference spans, over
    the larger of the two windows (1 when both are empty); a phrase missing
    from either side scores 0. The mean is exact, rounded once to a float."""
    scores = []
    for r in records:
        phrases = _phrases(r)
        placed = zip(reference_claim_spans(r.hypothesis, phrases), reference_claim_spans(r.reference, phrases))
        for hs, rs in placed:
            if hs is None or rs is None:
                scores.append(Fraction(0))
                continue
            hw = r.hypothesis[max(0, hs[0] - window) : hs[0]] + r.hypothesis[hs[1] : hs[1] + window]
            rw = r.reference[max(0, rs[0] - window) : rs[0]] + r.reference[rs[1] : rs[1] + window]
            shared = sum(min(count, rw.count(tok)) for tok, count in Counter(hw).items())
            scores.append(Fraction(shared, max(len(hw), len(rw))) if hw or rw else Fraction(1))
    return float(100 * sum(scores) / len(scores)) if scores else 100.0


def reference_term_score(records):
    """1-TERm: reference tokens in any occurrence of a required phrase and
    hypothesis tokens in a placed one weigh 2, others 1; the weighted shift
    edits over the weighted reference length, clamped to [0, 100]. Empty
    references are left out."""
    edits = ref_weight = 0
    for r in records:
        if not r.reference:
            continue
        phrases = _phrases(r)
        hw, rw = [1] * len(r.hypothesis), [1] * len(r.reference)
        for b, e in filter(None, reference_claim_spans(r.hypothesis, phrases)):
            hw[b:e] = [2] * (e - b)
        for phrase in phrases:
            for b, e in reference_occurrences(r.reference, list(phrase)):
                rw[b:e] = [2] * (e - b)
        edits += reference_shifted_edit_cost(r.hypothesis, r.reference, hw, rw)
        ref_weight += sum(rw)
    return max(0.0, min(100.0, 100.0 * (1 - edits / ref_weight))) if ref_weight else 100.0


def reference_structure_metrics(records, vocab):
    """(correct%, match%) from a tag stack of its own. A registered </name>
    closes, a registered <name> opens when </name> is registered too, and
    every other registered symbol is void. Correct: every close pops its
    own name and nothing is left open. Match: the hypothesis's tags, in
    order, are the reference's."""
    registered = vocab.registered_tags
    correct = match = 0
    for r in records:
        tags = [t for t in r.hypothesis if t in registered]
        stack, nested = [], True
        for tag in tags:
            if tag.startswith("</"):
                nested = nested and bool(stack) and stack.pop() == tag[2:-1]
            elif f"</{tag[1:-1]}>" in registered:
                stack.append(tag[1:-1])
        correct += nested and not stack
        match += tags == [t for t in r.reference if t in registered]
    return _percent(correct, len(records)), _percent(match, len(records))
