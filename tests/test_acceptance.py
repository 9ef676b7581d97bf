"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import json
import math
import random
import sys
import time
from pathlib import Path

import pytest

from ctmt import (
    ConstraintPair,
    EvalRecord,
    Nonterminal,
    Template,
    bleu,
    build_inference_input,
    constraint_derivation,
    extract_phrase_pairs,
    parse_output,
    reconstruct,
    term_score,
    validate_template,
)
from ctmt import corpus_io
from ctmt.cli import main
from ctmt.lexical import canonical_constraints, claim_spans
from ctmt.metrics import _all_occurrence_weights, _span_weights, shifted_edit_cost
from ctmt.mining import SamplerConfig, sample_phrase_pairs, sentence_rng
from ctmt.structural import segment_tagged, tag_sequence
from ctmt.vocab import DEFAULT_VOCAB

from conftest import (
    GOLD_ENC,
    GOLD_OUTPUT,
    GOLD_PREFIX,
    GOLD_RESULT,
    GOLD_SRC,
    KEYED_TRANSLATOR,
    MARKUP_FRAGMENTS,
    MARKUP_SRC,
    MARKUP_TAGS,
    TAGGED_VOCAB,
    brute_force_phrase_pairs,
    exhaustive_min_shift_cost,
    make_lexical_corpus,
    make_structural_corpus,
    pharaoh_line,
    reference_ter,
    gold_constraints,
    write_lines,
)


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start


def report(number: int, label: str, seconds: float) -> None:
    print(f"ACCEPTANCE {number} PASS {label} ({seconds:.2f}s)")


# ---------------------------------------------------------------------------

def test_criterion_1_golden_encode_decode():
    with Timer() as t:
        x = GOLD_SRC.split()
        constraints = gold_constraints()
        example = build_inference_input(x, constraints, vocab=DEFAULT_VOCAB)
        assert " ".join(example.encoder_input) == GOLD_ENC
        assert " ".join(example.decoder_prefix) == GOLD_PREFIX

        parsed = parse_output(GOLD_OUTPUT.split(), DEFAULT_VOCAB, 2)
        assert validate_template(parsed.template, 2).valid
        ordered, _, _ = canonical_constraints(x, constraints)
        result = reconstruct(
            parsed.template, constraint_derivation(ordered), parsed.derivation
        )
        assert " ".join(result) == GOLD_RESULT
    assert t.seconds < 1.0
    report(1, "golden encode and decode are byte-exact", t.seconds)


def test_criterion_2_round_trip_10k(tmp_path, capsys):
    with Timer() as t:
        n = 10_000
        pairs, alignments = make_lexical_corpus(n, seed=2024, max_len=30)
        src = write_lines(tmp_path / "c.src", [" ".join(x) for x, _ in pairs])
        tgt = write_lines(tmp_path / "c.tgt", [" ".join(y) for _, y in pairs])
        cfg = SamplerConfig(max_constraints=3, min_len=1, max_len=3, rng_seed=7)
        constraint_sets = []
        span_sets = []
        for i, ((x, y), links) in enumerate(zip(pairs, alignments)):
            extracted = extract_phrase_pairs(x, y, links, cfg.max_len)
            chosen = sample_phrase_pairs(extracted, cfg, sentence_rng(cfg.rng_seed, i))
            constraint_sets.append(
                [ConstraintPair(list(p.src_tokens), list(p.tgt_tokens)) for p in chosen]
            )
            span_sets.append([(p.src_span, p.tgt_span) for p in chosen])
        cons = tmp_path / "c.cons.jsonl"
        spans = tmp_path / "c.spans.jsonl"
        corpus_io.write_constraints(cons, constraint_sets)
        corpus_io.write_spans(spans, span_sets)

        code = main([
            "roundtrip", "--src", src, "--tgt", tgt,
            "--constraints", str(cons), "--spans", str(spans),
        ])
        out = capsys.readouterr().out
        summary = json.loads(out[out.index("{"):])
        assert code == 0
        assert summary["sentences"] == n and summary["skipped"] == 0
        assert summary["violations"] == []
        assert summary["template_accuracy"] == 100.0
        assert summary["metrics"]["exact_match"] == 100.0
        assert summary["metrics"]["window_overlap"] == 100.0
        assert summary["metrics"]["one_minus_term"] == 100.0
        assert summary["metrics"]["bleu"] == 100.0
        total_constraints = sum(len(cs) for cs in constraint_sets)
        assert total_constraints > 0
    assert t.seconds < 30.0
    with capsys.disabled():
        report(2, f"10k-sentence round trip, {total_constraints} constraints", t.seconds)


def test_criterion_3_template_validity_law():
    def Y(i):
        return Nonterminal("Y", i)

    def C(i):
        return Nonterminal("C", i)

    def shaped(indices):
        elements = [Y(0)]
        for slot, idx in enumerate(indices, start=1):
            elements += [C(idx), Y(slot)]
        return Template(elements)

    with Timer() as t:
        accepted = 0
        rejected = 0
        for n in range(5):
            # every index sequence over a slightly larger alphabet, so
            # duplicates and out-of-range values are all exercised
            for seq in itertools.product(range(1, n + 2), repeat=n):
                verdict = validate_template(shaped(seq), n)
                if sorted(seq) == list(range(1, n + 1)):
                    assert verdict.valid, seq
                    accepted += 1
                else:
                    assert not verdict.valid, seq
                    rejected += 1
            # shape mutations are never valid
            if n:
                perm = list(range(1, n + 1))
                good = shaped(perm).elements
                rejects = [
                    good[:-1],                      # truncated
                    good[1:],                       # starts with C
                    good[::-1],                     # reversed Y order
                    good + [C(1)],                  # dangling constraint
                ]
                for elements in rejects:
                    assert not validate_template(Template(elements), n).valid
                    rejected += 1
        assert accepted == sum(math.factorial(k) for k in range(5))
    assert t.seconds < 1.0
    report(3, f"{accepted} accepts, {rejected} rejects, N <= 4", t.seconds)


def test_criterion_4_phrase_extraction_oracle():
    with Timer() as t:
        rng = random.Random(404)
        for _ in range(1000):
            src_len = rng.randint(1, 8)
            tgt_len = rng.randint(1, 8)
            x = [f"s{i}" for i in range(src_len)]
            y = [f"t{j}" for j in range(tgt_len)]
            links = {
                (rng.randrange(src_len), rng.randrange(tgt_len))
                for _ in range(rng.randint(0, 12))
            }
            max_len = rng.randint(1, 4)
            got = {
                (p.src_span, p.tgt_span)
                for p in extract_phrase_pairs(x, y, links, max_len)
            }
            assert got == brute_force_phrase_pairs(x, y, links, max_len)
    assert t.seconds < 10.0
    report(4, "extraction equals brute force on 1000 random pairs", t.seconds)


def test_criterion_5_weighted_ter_oracle():
    with Timer() as t:
        rng = random.Random(505)
        equal = 0
        trials = 1000
        records = []
        expected_edits = 0
        expected_weight = 0
        for _ in range(trials):
            hyp = [rng.choice("abcd") for _ in range(rng.randint(1, 6))]
            ref = [rng.choice("abcd") for _ in range(rng.randint(1, 6))]
            # a random reference phrase becomes the required constraint for
            # roughly half of the pairs
            constraints = []
            if rng.random() < 0.5:
                a = rng.randrange(len(ref))
                b = min(len(ref), a + rng.randint(1, 2))
                constraints = [ConstraintPair(["_"], ref[a:b])]
            phrases = [c.tgt for c in constraints]
            hw = _span_weights(len(hyp), claim_spans(hyp, phrases))
            rw = _all_occurrence_weights(ref, phrases)
            greedy = shifted_edit_cost(hyp, ref, hw, rw)
            exact = exhaustive_min_shift_cost(hyp, ref, hw, rw)
            assert greedy >= exact
            equal += greedy == exact
            # the unweighted comparison reuses the same sentence pairs
            records.append(EvalRecord(hypothesis=hyp, reference=ref))
            expected_edits += reference_ter(hyp, ref)
            expected_weight += len(ref)
        equality_rate = equal / trials
        assert equality_rate >= 0.95
        got = term_score(records)
        want = max(0.0, min(100.0, 100.0 * (1 - expected_edits / expected_weight)))
        assert got == want
    assert t.seconds < 60.0
    report(5, f"greedy >= exact on 1000 pairs, equality rate {equality_rate:.3f}", t.seconds)


def test_criterion_6_bleu_hand_check():
    with Timer() as t:
        derived = [EvalRecord(hypothesis=list("abcd"), reference=list("abcde"))]
        assert bleu(derived) == pytest.approx(77.9, abs=0.05)
        assert bleu(derived) == pytest.approx(100.0 * math.exp(1 - 5 / 4), abs=1e-9)
        identity = [
            EvalRecord(hypothesis=s.split(), reference=s.split())
            for s in ("a b c d e", "f g", "h")
        ]
        assert bleu(identity) == 100.0
    report(6, "4/5-token example 77.9, identity 100.0", t.seconds)


def test_criterion_7_structural_suite(tmp_path, capsys):
    with Timer() as t:
        tags, fragments = segment_tagged(MARKUP_SRC.split(), TAGGED_VOCAB)
        assert tags == MARKUP_TAGS
        assert fragments == MARKUP_FRAGMENTS

        n = 5000
        corpus = make_structural_corpus(n, seed=77, max_depth=3)
        vocab_path = tmp_path / "vocab.json"
        write_lines(vocab_path, [json.dumps(TAGGED_VOCAB.to_dict())])
        src = write_lines(tmp_path / "s.src", [" ".join(x) for x, _ in corpus])
        tgt = write_lines(tmp_path / "s.tgt", [" ".join(y) for _, y in corpus])
        code = main([
            "roundtrip", "--mode", "structural", "--vocab", str(vocab_path),
            "--src", src, "--tgt", tgt,
        ])
        out = capsys.readouterr().out
        summary = json.loads(out[out.index("{"):])
        assert code == 0
        assert summary["sentences"] == n
        assert summary["violations"] == []
        assert summary["metrics"]["structure_correct"] == 100.0
        assert summary["metrics"]["structure_match"] == 100.0

        # mutations flip exactly the metric they target; breaking
        # well-formedness necessarily breaks the order match too
        from ctmt.metrics import structure_metrics

        base = "<ph> a </ph> <g> b </g> <url>"
        ref = EvalRecord(hypothesis=base.split(), reference=base.split())
        assert structure_metrics([ref], TAGGED_VOCAB) == (100.0, 100.0)

        sibling_swap = "<g> b </g> <ph> a </ph> <url>"
        rec = EvalRecord(hypothesis=sibling_swap.split(), reference=base.split())
        assert structure_metrics([rec], TAGGED_VOCAB) == (100.0, 0.0)

        drop_void = "<ph> a </ph> <g> b </g>"
        rec = EvalRecord(hypothesis=drop_void.split(), reference=base.split())
        assert structure_metrics([rec], TAGGED_VOCAB) == (100.0, 0.0)

        drop_close = "<ph> a <g> b </g> <url>"
        rec = EvalRecord(hypothesis=drop_close.split(), reference=base.split())
        assert structure_metrics([rec], TAGGED_VOCAB) == (0.0, 0.0)

        swap_open_close = "</ph> a <ph> <g> b </g> <url>"
        rec = EvalRecord(hypothesis=swap_open_close.split(), reference=base.split())
        assert structure_metrics([rec], TAGGED_VOCAB) == (0.0, 0.0)
    assert t.seconds < 30.0
    with capsys.disabled():
        report(7, f"{n}-sentence structural round trip and mutations", t.seconds)


def test_criterion_8_decode_robustness(tmp_path, capsys):
    with Timer() as t:
        n = 10_000
        rng = random.Random(808)
        src = write_lines(tmp_path / "f.src", ["a b c d"] * n)
        cons = write_lines(
            tmp_path / "f.cons.jsonl",
            [json.dumps({"constraints": [{"src": ["b"], "tgt": ["B"]}]})] * n,
        )
        enc_dir = tmp_path / "enc"
        code = main([
            "encode", "--src", src, "--constraints", cons, "--out-dir", str(enc_dir),
        ])
        assert code == 0
        capsys.readouterr()

        alphabet = [
            "<Y_0>", "<Y_1>", "<Y_9>", "<C_1>", "<C_7>", "<X_0>", "<sep>",
            "w", "v", "junk", "<", ">", "&", "<Z_1>", "<Y_>",
        ]
        fuzz = [
            " ".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
            for _ in range(n - 1)
        ]
        # one well-formed line that omits Y0 and Y2: empty-string fallback
        fuzz.append("<Y_0> <C_1> <Y_1> <sep> <Y_1> mid")
        model_out = write_lines(tmp_path / "f.out", fuzz)
        code = main([
            "decode", "--encode-dir", str(enc_dir), "--model-output", model_out,
        ])
        out = capsys.readouterr().out
        assert code == 0
        decoded = Path(enc_dir / "decode.out").read_text(encoding="utf-8")
        assert decoded.count("\n") == n
        audits = corpus_io.read_jsonl(enc_dir / "decode.audit.jsonl")
        assert len(audits) == n
        last = corpus_io.read_token_lines(enc_dir / "decode.out")[-1]
        assert last == ["B", "mid"]
        assert audits[-1]["valid"] and audits[-1]["omitted_y"] == 1
    assert t.seconds < 60.0
    with capsys.disabled():
        report(8, "10k corrupted outputs decoded, one line each", t.seconds)


def test_criterion_9_determinism_and_sharding(tmp_path, capsys):
    with Timer() as t:
        n = 200
        pairs, alignments = make_lexical_corpus(n, seed=99, max_len=16)
        src = write_lines(tmp_path / "d.src", [" ".join(x) for x, _ in pairs])
        tgt = write_lines(tmp_path / "d.tgt", [" ".join(y) for _, y in pairs])
        align = write_lines(tmp_path / "d.align", [pharaoh_line(links) for links in alignments])

        blobs = {}
        for name in ("one", "again"):
            stem = tmp_path / f"mined_{name}"
            cons, spans = f"{stem}.cons.jsonl", f"{stem}.spans.jsonl"
            assert main([
                "sample", "--src", src, "--tgt", tgt, "--align", align,
                "--out", str(stem), "--seed", "31",
            ]) == 0
            prep_dir = tmp_path / f"prep_{name}"
            assert main([
                "prepare", "--src", src, "--tgt", tgt, "--constraints", cons,
                "--spans", spans, "--out-dir", str(prep_dir),
            ]) == 0
            enc_dir = tmp_path / f"enc_{name}"
            assert main([
                "encode", "--src", src, "--constraints", cons, "--out-dir", str(enc_dir),
            ]) == 0
            tails = [
                line.split()[line.split().index("<sep>") + 1 :]
                for line in (prep_dir / "train.yprime").read_text(encoding="utf-8").splitlines()
            ]
            model_out = write_lines(tmp_path / f"tails_{name}.txt", [" ".join(s) for s in tails])
            assert main(["decode", "--encode-dir", str(enc_dir), "--model-output", model_out]) == 0
            blobs[name] = tuple(
                path.read_bytes()
                for path in [Path(cons), Path(spans)]
                + [prep_dir / f for f in ("train.xprime", "train.yprime", "train.meta.jsonl")]
                + [enc_dir / f for f in ("encode.xprime", "encode.prefix", "encode.meta.jsonl",
                                         "decode.out", "decode.audit.jsonl")]
            )
        assert blobs["one"] == blobs["again"]

        # shards exist only as translator children: one child or four, each
        # answering by request line, give the bytes that the same answers
        # give from a file (a repeated request gets one answer throughout)
        enc_dir = tmp_path / "enc_one"
        requests = [
            xp + "\t" + pre
            for xp, pre in zip(
                (enc_dir / "encode.xprime").read_text(encoding="utf-8").splitlines(),
                (enc_dir / "encode.prefix").read_text(encoding="utf-8").splitlines(),
            )
        ]
        tails = (tmp_path / "tails_one.txt").read_text(encoding="utf-8").splitlines()
        table = dict(zip(requests, tails))
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps(table), encoding="utf-8")
        script = tmp_path / "keyed_translator.py"
        script.write_text(KEYED_TRANSLATOR, encoding="utf-8")
        translator = f"{sys.executable} {script} {table_path}"
        keyed = write_lines(tmp_path / "keyed.txt", [table[r] for r in requests])
        decoded = set()
        for name, source in [
            ("file", ["--model-output", keyed]),
            ("one", ["--translator", translator, "--shards", "1"]),
            ("four", ["--translator", translator, "--shards", "4"]),
        ]:
            out_dir = tmp_path / f"decode_{name}"
            assert main(["decode", "--encode-dir", str(enc_dir), "--out-dir", str(out_dir),
                         *source]) == 0
            decoded.add(tuple((out_dir / f).read_bytes()
                              for f in ("decode.out", "decode.audit.jsonl")))
        assert len(decoded) == 1
        capsys.readouterr()
    report(9, "same-seed byte-identical outputs, translator shards 1 vs 4 identical", t.seconds)
