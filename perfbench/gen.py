"""Seeded inputs for the benchmark workloads, with their expected outputs.

Every sentence is assembled here from free fragments and constraint
phrases, so each gold continuation, serialized stream and reconstruction
is known without running ctmt. The random-corpus logic follows the
generators of the test suite but is a copy on purpose: editing the tests
must not shift the benchmark's inputs.

Sentence lengths and line categories are drawn as fixed multisets and
only their order is seeded, so every seed gives the same amount of work
and the figures of different seeds can be compared. ``eval`` goes further:
the shapes of its lines come from one fixed stream and the seed renames
the words and orders the lines, because the cost of its greedy 1-TERm
search depends on which tokens repeat, not only on lengths and kinds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORDS = [f"w{i:02d}" for i in range(50)]
TAGS = ["<ph>", "</ph>", "<g>", "</g>", "<url>", "&amp;"]
SEP = "<sep>"
MAX_LEN = 40

# ``infer``: one line in 500 repeats a one-token constraint more often
# than the token occurs, and the span search spends its whole node budget
# before giving up. 9 copies over 8 occurrences is the smallest such set
# that exhausts the 100k-node budget.
ADVERSARIAL_SHARE = 0.002
ADVERSARIAL_COPIES = 9
ADVERSARIAL_OCCURRENCES = 8
ADVERSARIAL_TOKEN = "w07"
DAMAGED_SHARE = 0.10
DAMAGE_KINDS = ("dropped_separator", "missing_index", "repeated_rule")

# ``eval``: near-miss, unrelated and many-copies hypotheses. 1-TERm costs
# about the fourth power of the sentence length and its greedy shift
# search varies widely from line to line, so the sentences keep to a narrow
# length band and every seed gets the same line shapes (see make_eval).
UNRELATED_SHARE = 0.10
MANY_COPIES_SHARE = 0.02
MANY_COPIES_TOKEN = "w05"
MANY_COPIES_CONSTRAINED = 5
MANY_COPIES_IN_HYPOTHESIS = 7
EDIT_EVERY = 6
EVAL_MIN_LEN = 12
EVAL_MAX_LEN = 18


def nt(kind: str, index: int) -> str:
    return f"<{kind}_{index}>"


def join(tokens: list[str]) -> str:
    return " ".join(tokens)


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_jsonl(path: Path, records: list) -> None:
    write_lines(path, [json.dumps(r, ensure_ascii=False, sort_keys=True) for r in records])


def stratified_lengths(rng: random.Random, n: int, max_len: int = MAX_LEN, min_len: int = 1) -> list[int]:
    """n lengths spread evenly over min_len..max_len, in seeded order."""
    span = max_len - min_len + 1
    out = [min_len + (i * span) // n for i in range(n)]
    rng.shuffle(out)
    return out


def categories(rng: random.Random, n: int, shares: dict[str, float], rest: str) -> list[str]:
    """Exactly round(share * n) lines of each kind, the rest filling up."""
    kinds: list[str] = []
    for kind, share in shares.items():
        kinds += [kind] * round(share * n)
    kinds += [rest] * (n - len(kinds))
    rng.shuffle(kinds)
    return kinds


def random_words(rng: random.Random, n: int, pool: list[str] = WORDS) -> list[str]:
    return [rng.choice(pool) for _ in range(n)]


def split_into(rng: random.Random, tokens: list[str], parts: int) -> list[list[str]]:
    """Cut tokens into ``parts`` consecutive, possibly empty fragments."""
    cuts = sorted(rng.randint(0, len(tokens)) for _ in range(parts - 1))
    bounds = [0, *cuts, len(tokens)]
    return [tokens[a:b] for a, b in zip(bounds, bounds[1:])]


def random_links(rng: random.Random, src_len: int, tgt_len: int) -> set[tuple[int, int]]:
    n = rng.randint(0, 2 * min(src_len, tgt_len))
    return {(rng.randrange(src_len), rng.randrange(tgt_len)) for _ in range(n)}


# ---------------------------------------------------------------------------
# prep: lexical bitext with alignments, tagged bitext


@dataclass
class PrepInputs:
    lexical: list[tuple[list[str], list[str]]]
    tagged: list[tuple[list[str], list[str]]]
    files: dict[str, Path] = field(default_factory=dict)

    @property
    def tokens(self) -> int:
        return sum(len(x) + len(y) for x, y in self.lexical + self.tagged)


def _arrange_tags(rng, pair_names, voids, depth, max_depth=3):
    """A random well-formed token stream using exactly the given tags."""

    def words():
        return random_words(rng, rng.randint(0, 3))

    tokens = words()
    pair_names = list(pair_names)
    voids = list(voids)
    rng.shuffle(pair_names)
    rng.shuffle(voids)
    while pair_names:
        name = pair_names.pop()
        inner_pairs = []
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


def make_prep(seed: int, n_lexical: int, n_tagged: int, out: Path) -> PrepInputs:
    rng = random.Random(f"prep:{seed}")
    src_lens = stratified_lengths(rng, n_lexical)
    tgt_lens = stratified_lengths(rng, n_lexical)
    lexical, links = [], []
    for ls, lt in zip(src_lens, tgt_lens):
        x, y = random_words(rng, ls), random_words(rng, lt)
        lexical.append((x, y))
        links.append(random_links(rng, ls, lt))
    tagged = []
    for i in range(n_tagged):
        # tag counts cycle over fixed values, starting with the most tags
        # so that a one-line corpus is never empty; only the order is seeded
        pair_names = [rng.choice(["ph", "g"]) for _ in range(3 - i % 4)]
        voids = [rng.choice(["<url>", "&amp;"]) for _ in range(2 - i % 3)]
        tagged.append((_arrange_tags(rng, pair_names, voids, 0), _arrange_tags(rng, pair_names, voids, 0)))
    rng.shuffle(tagged)

    inputs = PrepInputs(lexical, tagged)
    files = inputs.files
    for name, lines in [
        ("lex.src", [join(x) for x, _ in lexical]),
        ("lex.tgt", [join(y) for _, y in lexical]),
        ("lex.align", [" ".join(f"{i}-{j}" for i, j in sorted(ls)) for ls in links]),
        ("tag.src", [join(x) for x, _ in tagged]),
        ("tag.tgt", [join(y) for _, y in tagged]),
    ]:
        files[name] = out / name
        write_lines(files[name], lines)
    files["vocab.json"] = out / "vocab.json"
    files["vocab.json"].write_text(json.dumps({"registered_tags": TAGS}) + "\n", encoding="utf-8")
    return inputs


# ---------------------------------------------------------------------------
# infer: sources with constraints, canned model answers, expected decodes


@dataclass
class InferLine:
    source: list[str]
    constraints: list[tuple[list[str], list[str]]]  # as written, in shuffled order
    encoder: list[str]
    prefix: list[str]
    answer: list[str]  # the continuation the stub sends, damaged or not
    sentence: list[str]  # the reference the gold answer reconstructs
    damage: str | None = None
    adversarial: bool = False


@dataclass
class InferInputs:
    lines: list[InferLine]
    files: dict[str, Path] = field(default_factory=dict)

    @property
    def tokens(self) -> int:
        return sum(len(line.source) for line in self.lines)


def _infer_line(rng: random.Random, src_len: int, tgt_len: int, k: int) -> InferLine:
    ids = rng.sample(range(1000), 6 * k)
    src_terms = [[f"S{ids.pop():03d}" for _ in range(rng.randint(1, 3))] for _ in range(k)]
    tgt_terms = [[f"T{ids.pop():03d}" for _ in range(rng.randint(1, 3))] for _ in range(k)]
    free_src = max(0, src_len - sum(map(len, src_terms)))
    p = split_into(rng, random_words(rng, free_src), k + 1)
    q = split_into(rng, random_words(rng, tgt_len), k + 1)
    order = list(range(k))
    rng.shuffle(order)  # target order of the constraints, by canonical index - 1

    source = list(p[0])
    encoder_c, encoder_s, encoder_e = [], [nt("X", 0)], [nt("X", 0), *p[0]]
    prefix = []
    for n in range(1, k + 1):
        source += src_terms[n - 1] + p[n]
        encoder_c += [nt("C", n), *src_terms[n - 1]]
        encoder_s += [nt("C", n), nt("X", n)]
        encoder_e += [nt("X", n), *p[n]]
        prefix += [nt("C", n), *tgt_terms[n - 1]]
    sentence = list(q[0])
    template, rules = [nt("Y", 0)], [nt("Y", 0), *q[0]]
    for slot, c in enumerate(order, start=1):
        sentence += tgt_terms[c] + q[slot]
        template += [nt("C", c + 1), nt("Y", slot)]
        rules += [nt("Y", slot), *q[slot]]
    written = list(zip(src_terms, tgt_terms))
    rng.shuffle(written)
    return InferLine(
        source=source,
        constraints=written,
        encoder=encoder_c + [SEP] + encoder_s + [SEP] + encoder_e,
        prefix=prefix + [SEP],
        answer=template + [SEP] + rules,
        sentence=sentence,
    )


def _adversarial_line(rng: random.Random) -> InferLine:
    others = [w for w in WORDS if w != ADVERSARIAL_TOKEN]
    source = random_words(rng, 16, others) + [ADVERSARIAL_TOKEN] * ADVERSARIAL_OCCURRENCES
    rng.shuffle(source)
    ids = rng.sample(range(1000), ADVERSARIAL_COPIES)
    constraints = [([ADVERSARIAL_TOKEN], [f"T{i:03d}"]) for i in ids]
    return InferLine(source, constraints, [], [], [], [], adversarial=True)


def _damage(line: InferLine, kind: str) -> None:
    answer = line.answer
    cut = answer.index(SEP)
    if kind == "dropped_separator":
        line.answer = answer[:cut] + answer[cut + 1 :]
    elif kind == "missing_index":
        # drop the last "C Y" pair: the template keeps its shape but one index is missing
        line.answer = answer[: cut - 2] + answer[cut:]
    else:
        line.answer = answer + [nt("Y", 0), "w99"]
    line.damage = kind


def make_infer(seed: int, n: int, out: Path) -> InferInputs:
    rng = random.Random(f"infer:{seed}")
    kinds = categories(rng, n, {"adversarial": ADVERSARIAL_SHARE}, "plain")
    src_lens = stratified_lengths(rng, n, min_len=2)
    tgt_lens = stratified_lengths(rng, n)
    lines = []
    requests = set()
    for i, (kind, ls, lt) in enumerate(zip(kinds, src_lens, tgt_lens)):
        if kind == "adversarial":
            lines.append(_adversarial_line(rng))
            continue
        # the stub answers by request, so every request must be unique
        while True:
            line = _infer_line(rng, ls, lt, i % 4)
            request = (join(line.encoder), join(line.prefix))
            if request not in requests:
                break
        requests.add(request)
        lines.append(line)
    candidates = [i for i, line in enumerate(lines) if not line.adversarial and line.constraints]
    damaged = rng.sample(candidates, min(len(candidates), round(DAMAGED_SHARE * n)))
    for j, i in enumerate(damaged):
        _damage(lines[i], DAMAGE_KINDS[j % len(DAMAGE_KINDS)])

    inputs = InferInputs(lines)
    files = inputs.files
    files["src"] = out / "infer.src"
    write_lines(files["src"], [join(line.source) for line in lines])
    files["constraints"] = out / "infer.cons.jsonl"
    write_jsonl(
        files["constraints"],
        [{"constraints": [{"src": s, "tgt": t} for s, t in line.constraints]} for line in lines],
    )
    files["canned"] = out / "infer.canned.jsonl"
    write_jsonl(
        files["canned"],
        [
            [join(line.encoder) + "\t" + join(line.prefix), join(line.answer)]
            for line in lines
            if not line.adversarial
        ],
    )
    return inputs


# ---------------------------------------------------------------------------
# eval: references with target-side constraints, near-miss hypotheses


@dataclass
class EvalLine:
    hypothesis: list[str]
    reference: list[str]
    phrases: list[list[str]]
    kind: str


@dataclass
class EvalInputs:
    lines: list[EvalLine]
    files: dict[str, Path] = field(default_factory=dict)

    @property
    def tokens(self) -> int:
        return sum(len(line.hypothesis) + len(line.reference) for line in self.lines)


def near_miss(rng: random.Random, ref: list[str], first: int) -> list[str]:
    """One edit per EDIT_EVERY tokens: substitution, deletion and 2-token
    move in turn, starting at the ``first`` of the three."""
    hyp = list(ref)
    for e in range(len(ref) // EDIT_EVERY):
        op = (first + e) % 3
        if op == 0:
            hyp[rng.randrange(len(hyp))] = rng.choice(WORDS)
        elif op == 1:
            del hyp[rng.randrange(len(hyp))]
        else:
            i = rng.randrange(len(hyp) - 1)
            block = hyp[i : i + 2]
            rest = hyp[:i] + hyp[i + 2 :]
            k = rng.randint(0, len(rest))
            hyp = rest[:k] + block + rest[k:]
    return hyp


def _phrases_from(rng: random.Random, ref: list[str], k: int) -> list[list[str]]:
    """Up to k disjoint 1-3 token phrases of the reference."""
    phrases: list[list[str]] = []
    taken: set[int] = set()
    for _ in range(k):
        width = rng.randint(1, 3)
        if len(ref) < width:
            break
        start = rng.randrange(len(ref) - width + 1)
        if taken & set(range(start, start + width)):
            continue
        taken |= set(range(start, start + width))
        phrases.append(ref[start : start + width])
    return phrases


def _many_copies_line(rng: random.Random, length: int) -> EvalLine:
    # Copies of one constrained token plus one more phrase; the hypothesis
    # adds copies and loses the phrase, so every span claim on it searches
    # all placements of the copies before it fails.
    others = [w for w in WORDS if w != MANY_COPIES_TOKEN]
    missing = random_words(rng, 2, others)
    # without the phrase's first word, the hypothesis cannot hold the phrase
    body = random_words(rng, length - 2 - MANY_COPIES_CONSTRAINED, [w for w in others if w != missing[0]])
    body += [MANY_COPIES_TOKEN] * MANY_COPIES_CONSTRAINED
    rng.shuffle(body)
    at = rng.randint(0, len(body))
    ref = body[:at] + missing + body[at:]
    hyp = list(body)
    for _ in range(MANY_COPIES_IN_HYPOTHESIS - MANY_COPIES_CONSTRAINED):
        hyp.insert(rng.randint(0, len(hyp)), MANY_COPIES_TOKEN)
    phrases = [[MANY_COPIES_TOKEN]] * MANY_COPIES_CONSTRAINED + [missing]
    return EvalLine(hyp, ref, phrases, "many_copies")


def _eval_shapes(n: int) -> list[EvalLine]:
    """n eval lines drawn from one fixed stream, before the seed renames them."""
    rng = random.Random("eval:shapes")
    kinds = categories(
        rng, n, {"unrelated": UNRELATED_SHARE, "many_copies": MANY_COPIES_SHARE}, "near_miss"
    )
    # (length, constraint count, first edit) triples spread evenly over
    # each kind: a line's cost depends on all three.
    specs = {}
    for kind in sorted(set(kinds)):
        count = kinds.count(kind)
        span = EVAL_MAX_LEN - EVAL_MIN_LEN + 1
        specs[kind] = [(EVAL_MIN_LEN + (r * span) // count, r % 4, r % 3) for r in range(count)]
        rng.shuffle(specs[kind])
    lines = []
    for kind in kinds:
        length, k, first = specs[kind].pop()
        if kind == "many_copies":
            lines.append(_many_copies_line(rng, length))
            continue
        ref = random_words(rng, length)
        phrases = _phrases_from(rng, ref, k)
        hyp = random_words(rng, length) if kind == "unrelated" else near_miss(rng, ref, first)
        lines.append(EvalLine(hyp, ref, phrases, kind))
    return lines


def make_eval(seed: int, n: int, out: Path) -> EvalInputs:
    lines = _eval_shapes(n)
    # The seed renames the words one to one and orders the lines: the
    # tokens that repeat, and so the work of every line, stay the same.
    rng = random.Random(f"eval:{seed}")
    rename = dict(zip(WORDS, rng.sample(WORDS, len(WORDS))))
    lines = [
        EvalLine(
            [rename[w] for w in line.hypothesis],
            [rename[w] for w in line.reference],
            [[rename[w] for w in p] for p in line.phrases],
            line.kind,
        )
        for line in lines
    ]
    rng.shuffle(lines)

    inputs = EvalInputs(lines)
    files = inputs.files
    files["hyp"] = out / "eval.hyp"
    write_lines(files["hyp"], [join(line.hypothesis) for line in lines])
    files["ref"] = out / "eval.ref"
    write_lines(files["ref"], [join(line.reference) for line in lines])
    files["constraints"] = out / "eval.cons.jsonl"
    write_jsonl(
        files["constraints"],
        [
            {"constraints": [{"src": [f"S{k:03d}"], "tgt": p} for k, p in enumerate(line.phrases)]}
            for line in lines
        ],
    )
    return inputs
