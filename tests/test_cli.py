import importlib
import json
import os
import random
import re
import shlex
import stat
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmt import (
    ConstraintPair,
    OutputParseError,
    constraint_derivation,
    corpus_io,
    parse_output,
    parse_structural_output,
    reconstruct,
    validate_structural_template,
    validate_template,
)
from ctmt import cli
from ctmt.cli import TranslatorBridge, build_parser, decode_line, main, shard_ranges
from ctmt.vocab import DEFAULT_VOCAB, ReservedVocab

from conftest import (
    GOLD_ENC,
    GOLD_OUTPUT,
    GOLD_PREFIX,
    GOLD_RESULT,
    GOLD_SRC,
    KEYED_TRANSLATOR,
    MARKUP_REF,
    MARKUP_SRC,
    MARKUP_XPRIME,
    TAGGED_VOCAB,
    make_lexical_corpus,
    make_structural_corpus,
    pharaoh_line,
    write_lines,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_json(out):
    return json.loads(out[out.index("{"):]) if "{" in out else {}


# JSON that json.loads refuses with RecursionError and ValueError, not JSONDecodeError
TOO_DEEP = "[" * 200_000 + "]" * 200_000
TOO_LONG = "1" * 5000
TOO_DEEP_ERROR = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
TOO_LONG_ERROR = "Exceeds the limit (4300 digits) for integer string conversion"


@pytest.fixture
def golden_files(tmp_path):
    src = write_lines(tmp_path / "t.src", [GOLD_SRC])
    from conftest import GOLD_REF

    tgt = write_lines(tmp_path / "t.tgt", [GOLD_REF])
    cons = write_lines(
        tmp_path / "t.cons.jsonl",
        [
            json.dumps(
                {
                    "constraints": [
                        {"src": ["slowing", "down"], "tgt": ["减弱"]},
                        {"src": ["price", "hike"], "tgt": ["价格上涨"]},
                    ]
                },
                ensure_ascii=False,
            )
        ],
    )
    return {"src": src, "tgt": tgt, "cons": cons, "dir": tmp_path}


# ---------------------------------------------------------------------------
# sharding helpers

def test_shard_ranges_cover_everything():
    for n in (0, 1, 5, 10, 11):
        for shards in (1, 2, 3, 4, 20):
            ranges = shard_ranges(n, shards)
            flat = [i for a, b in ranges for i in range(a, b)]
            assert flat == list(range(n))


# ---------------------------------------------------------------------------
# prepare / encode / decode on the golden pair

def test_prepare_golden(golden_files, capsys):
    out_dir = golden_files["dir"] / "prep"
    code, out = run(
        capsys,
        "prepare",
        "--src", golden_files["src"],
        "--tgt", golden_files["tgt"],
        "--constraints", golden_files["cons"],
        "--out-dir", str(out_dir),
    )
    assert code == 0
    assert last_json(out) == {"skipped": 0, "written": 1}
    xprime = (out_dir / "train.xprime").read_text(encoding="utf-8").rstrip("\n")
    assert xprime == GOLD_ENC
    yprime = corpus_io.read_token_lines(out_dir / "train.yprime")[0]
    assert " ".join(yprime[: len(GOLD_PREFIX.split())]) == GOLD_PREFIX
    meta = corpus_io.read_jsonl(out_dir / "train.meta.jsonl")[0]
    assert meta["mode"] == "lexical" and len(meta["constraints"]) == 2


def test_encode_decode_golden(golden_files, capsys):
    enc_dir = golden_files["dir"] / "enc"
    code, out = run(
        capsys,
        "encode",
        "--src", golden_files["src"],
        "--constraints", golden_files["cons"],
        "--out-dir", str(enc_dir),
    )
    assert code == 0
    assert (enc_dir / "encode.xprime").read_text(encoding="utf-8").rstrip("\n") == GOLD_ENC
    assert (enc_dir / "encode.prefix").read_text(encoding="utf-8").rstrip("\n") == GOLD_PREFIX

    model_out = write_lines(golden_files["dir"] / "model.out", [GOLD_OUTPUT])
    code, out = run(
        capsys,
        "decode",
        "--encode-dir", str(enc_dir),
        "--model-output", model_out,
    )
    assert code == 0
    summary = last_json(out)
    assert summary["template_accuracy"] == 100.0
    decoded = (enc_dir / "decode.out").read_text(encoding="utf-8").rstrip("\n")
    assert decoded == GOLD_RESULT
    audit = corpus_io.read_jsonl(enc_dir / "decode.audit.jsonl")[0]
    assert audit["valid"] and audit["constraint_indices"] == [2, 1]


def test_decode_flags_invalid_template(golden_files, capsys):
    enc_dir = golden_files["dir"] / "enc2"
    run(
        capsys,
        "encode",
        "--src", golden_files["src"],
        "--constraints", golden_files["cons"],
        "--out-dir", str(enc_dir),
    )
    # C_2 missing from the template; reconstruction still uses what exists
    bad = "<Y_0> <C_1> <Y_1> <sep> <Y_0> 甲 <Y_1> 乙"
    model_out = write_lines(golden_files["dir"] / "bad.out", [bad])
    code, out = run(capsys, "decode", "--encode-dir", str(enc_dir), "--model-output", model_out)
    assert code == 0
    summary = last_json(out)
    assert summary["template_accuracy"] == 0.0
    audit = corpus_io.read_jsonl(enc_dir / "decode.audit.jsonl")[0]
    assert not audit["valid"] and "missing" in audit["reason"]
    assert (enc_dir / "decode.out").read_text(encoding="utf-8").rstrip("\n") == "甲 减弱 乙"


def test_decode_counts_omissions(golden_files, capsys):
    enc_dir = golden_files["dir"] / "enc3"
    run(
        capsys,
        "encode",
        "--src", golden_files["src"],
        "--constraints", golden_files["cons"],
        "--out-dir", str(enc_dir),
    )
    omitting = "<Y_0> <C_2> <Y_1> <C_1> <Y_2> <sep> <Y_1> 会"
    model_out = write_lines(golden_files["dir"] / "omit.out", [omitting])
    code, out = run(capsys, "decode", "--encode-dir", str(enc_dir), "--model-output", model_out)
    assert code == 0
    summary = last_json(out)
    assert summary["template_accuracy"] == 100.0
    assert summary["omitted_nonterminals"] == 2
    assert (enc_dir / "decode.out").read_text(encoding="utf-8").rstrip("\n") == "价格上涨 会 减弱"


# ---------------------------------------------------------------------------
# structural mode

def test_structural_prepare_and_roundtrip(tmp_path, capsys):
    vocab_path = tmp_path / "vocab.json"
    write_lines(vocab_path, [json.dumps(TAGGED_VOCAB.to_dict())])
    src = write_lines(tmp_path / "s.src", [MARKUP_SRC, "hello world"])
    tgt = write_lines(tmp_path / "s.tgt", [MARKUP_REF, "bonjour tout le monde"])
    out_dir = tmp_path / "prep"
    code, out = run(
        capsys,
        "prepare",
        "--mode", "structural",
        "--vocab", str(vocab_path),
        "--src", src,
        "--tgt", tgt,
        "--out-dir", str(out_dir),
    )
    assert code == 0
    first = (out_dir / "train.xprime").read_text(encoding="utf-8").splitlines()[0]
    assert first == MARKUP_XPRIME

    code, out = run(
        capsys,
        "roundtrip",
        "--mode", "structural",
        "--vocab", str(vocab_path),
        "--src", src,
        "--tgt", tgt,
    )
    assert code == 0
    summary = last_json(out)
    assert summary["violations"] == []
    assert summary["metrics"]["structure_correct"] == 100.0
    assert summary["metrics"]["structure_match"] == 100.0

    code, out = run(capsys, "bench", "--mode", "structural", "--vocab", str(vocab_path),
                    "--src", src, "--tgt", tgt, "--budget-fraction", "1000")  # a gate no run misses
    assert code == 0
    assert (last_json(out)["sentences"], last_json(out)["skipped"]) == (2, 0)


def test_structural_encode_decode(tmp_path, capsys):
    vocab_path = tmp_path / "vocab.json"
    write_lines(vocab_path, [json.dumps(TAGGED_VOCAB.to_dict())])
    src = write_lines(tmp_path / "s.src", [MARKUP_SRC])
    enc_dir = tmp_path / "enc"
    code, _ = run(
        capsys, "encode", "--mode", "structural", "--vocab", str(vocab_path),
        "--src", src, "--out-dir", str(enc_dir),
    )
    assert code == 0
    assert (enc_dir / "encode.xprime").read_text(encoding="utf-8").rstrip("\n") == MARKUP_XPRIME
    # no forced prefix in structural mode
    assert (enc_dir / "encode.prefix").read_text(encoding="utf-8") == "\n"

    model_out = write_lines(
        tmp_path / "m.out",
        ["<Y_0> <ph> <Y_1> <ph> <Y_2> </ph> <Y_3> </ph> <Y_4> <sep> "
         "<Y_1> Chaque tableau <Y_2> 3 <Y_3> filtres ."],
    )
    # decode has no --mode: the meta record names the line's mode
    code, out = run(
        capsys, "decode", "--vocab", str(vocab_path),
        "--encode-dir", str(enc_dir), "--model-output", model_out,
    )
    assert code == 0
    summary = last_json(out)
    assert summary["template_accuracy"] == 100.0
    assert summary["omitted_nonterminals"] == 2  # Y0 and Y4
    decoded = (enc_dir / "decode.out").read_text(encoding="utf-8").rstrip("\n")
    assert decoded == "<ph> Chaque tableau <ph> 3 </ph> filtres . </ph>"


def test_structural_roundtrip_with_non_ascii_space_in_tags(tmp_path, capsys):
    # only ASCII whitespace separates tokens, so a tag may hold U+00A0
    vocab_path = tmp_path / "vocab.json"
    tags = frozenset({"<a\xa0b>", "</a\xa0b>"})
    write_lines(vocab_path, [json.dumps(ReservedVocab(registered_tags=tags).to_dict())])
    line = write_lines(tmp_path / "s.txt", ["<a\xa0b> x </a\xa0b> y"])
    code, out = run(
        capsys, "roundtrip", "--mode", "structural", "--vocab", str(vocab_path),
        "--src", line, "--tgt", line,
    )
    assert code == 0
    summary = last_json(out)
    assert summary["violations"] == []
    assert summary["metrics"]["structure_correct"] == 100.0
    assert summary["metrics"]["structure_match"] == 100.0


def test_structural_roundtrip_with_an_unpaired_close_tag(tmp_path, capsys):
    # a </b> registered without its <b> is void: it closes nothing, so the line is valid
    vocab_path = write_lines(tmp_path / "vocab.json", ['{"registered_tags": ["</b>"]}'])
    src = write_lines(tmp_path / "s.txt", ["a </b> c"])
    tgt = write_lines(tmp_path / "t.txt", ["x </b> z"])
    code, out = run(
        capsys, "roundtrip", "--mode", "structural", "--vocab", vocab_path, "--src", src, "--tgt", tgt,
    )
    assert code == 0
    summary = last_json(out)
    assert summary["violations"] == [] and summary["template_accuracy"] == 100.0
    assert summary["metrics"]["structure_correct"] == 100.0


def test_structural_evaluate(tmp_path, capsys):
    vocab_path = tmp_path / "vocab.json"
    write_lines(vocab_path, [json.dumps(TAGGED_VOCAB.to_dict())])
    hyp = write_lines(tmp_path / "h.txt", ["<g> b </g> <ph> a </ph>", "<ph> x"])
    ref = write_lines(tmp_path / "r.txt", ["<ph> a </ph> <g> b </g>", "<ph> x </ph>"])
    code, out = run(
        capsys, "evaluate", "--mode", "structural", "--vocab", str(vocab_path),
        "--hyp", hyp, "--ref", ref,
    )
    assert code == 0
    report = last_json(out)
    assert report["structure_correct"] == 50.0
    assert report["structure_match"] == 0.0


# ---------------------------------------------------------------------------
# sample

def _write_sample_inputs(tmp_path, n=40, seed=3):
    pairs, alignments = make_lexical_corpus(n, seed=seed, max_len=12)
    src = write_lines(tmp_path / "c.src", [" ".join(x) for x, _ in pairs])
    tgt = write_lines(tmp_path / "c.tgt", [" ".join(y) for _, y in pairs])
    align = write_lines(tmp_path / "c.align", [pharaoh_line(links) for links in alignments])
    return src, tgt, align


def test_sample_outputs_are_usable(tmp_path, capsys):
    src, tgt, align = _write_sample_inputs(tmp_path)
    stem = str(tmp_path / "mined")
    code, out = run(
        capsys, "sample", "--src", src, "--tgt", tgt, "--align", align,
        "--out", stem, "--seed", "7",
    )
    assert code == 0
    cons = corpus_io.read_constraints(stem + ".cons.jsonl")
    spans = corpus_io.read_spans(stem + ".spans.jsonl")
    assert len(cons) == len(spans) == 40
    srcs = corpus_io.read_token_lines(src)
    tgts = corpus_io.read_token_lines(tgt)
    for sentence_cons, sentence_spans, x, y in zip(cons, spans, srcs, tgts):
        for c, (s_span, t_span) in zip(sentence_cons, sentence_spans):
            assert x[s_span[0] : s_span[1]] == c.src
            assert y[t_span[0] : t_span[1]] == c.tgt


def test_sample_deterministic_across_runs(tmp_path, capsys):
    src, tgt, align = _write_sample_inputs(tmp_path)
    outputs = []
    for name in ("a", "b"):
        stem = str(tmp_path / name)
        code, _ = run(
            capsys, "sample", "--src", src, "--tgt", tgt, "--align", align,
            "--out", stem, "--seed", "11",
        )
        assert code == 0
        outputs.append(
            (
                Path(stem + ".cons.jsonl").read_bytes(),
                Path(stem + ".spans.jsonl").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]


def test_sample_different_seeds_differ(tmp_path, capsys):
    src, tgt, align = _write_sample_inputs(tmp_path)
    blobs = []
    for seed in ("1", "2"):
        stem = str(tmp_path / f"s{seed}")
        run(capsys, "sample", "--src", src, "--tgt", tgt, "--align", align,
            "--out", stem, "--seed", seed)
        blobs.append(Path(stem + ".cons.jsonl").read_bytes())
    assert blobs[0] != blobs[1]


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_reports_and_per_sentence(tmp_path, capsys):
    hyp = write_lines(tmp_path / "h.txt", ["a 减弱 b", "x y"])
    ref = write_lines(tmp_path / "r.txt", ["a 减弱 b", "x y"])
    cons = write_lines(
        tmp_path / "c.jsonl",
        [
            json.dumps({"constraints": [{"src": ["s"], "tgt": ["减弱"]}]}, ensure_ascii=False),
            json.dumps({"constraints": []}),
        ],
    )
    report_path = tmp_path / "report.json"
    tsv_path = tmp_path / "per.tsv"
    code, out = run(
        capsys,
        "evaluate",
        "--hyp", hyp, "--ref", ref, "--constraints", cons,
        "--report", str(report_path), "--per-sentence", str(tsv_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["bleu"] == 100.0
    assert report["exact_match"] == 100.0
    assert report["one_minus_term"] == 100.0
    lines = tsv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].split("\t")[0] == "index"
    assert len(lines) == 3

    # identical pairs skip 1-TERm's shift search; this pair runs it:
    # one 2-token shift of cost 1, over a reference weight of 5
    hyp = write_lines(tmp_path / "shift.hyp", ["c d a b e"])
    ref = write_lines(tmp_path / "shift.ref", ["a b c d e"])
    code, _ = run(capsys, "evaluate", "--hyp", hyp, "--ref", ref, "--report", str(report_path))
    assert code == 0
    assert json.loads(report_path.read_text(encoding="utf-8"))["one_minus_term"] == 80.0


def test_evaluate_warns_once_per_empty_reference(tmp_path, capsys, caplog):
    # line 4 is an identical pair, scored from one side, and still warned about
    hyp = write_lines(tmp_path / "h.txt", ["a b", "c", "d", ""])
    ref = write_lines(tmp_path / "r.txt", ["a b", "", "d", ""])
    code, _ = run(capsys, "evaluate", "--hyp", hyp, "--ref", ref,
                  "--per-sentence", str(tmp_path / "per.tsv"))
    assert code == 0
    warnings = [r.getMessage() for r in caplog.records if "empty reference" in r.getMessage()]
    assert warnings == ["line 2: empty reference skipped", "line 4: empty reference skipped"]


def test_evaluate_claims_spans_once_per_side(tmp_path, capsys, monkeypatch):
    import ctmt.metrics as metrics_mod

    calls = []
    real_claim = metrics_mod.claim_spans
    real_shift = metrics_mod.shifted_edit_cost

    def claim(tokens, phrases):
        calls.append(("claim", " ".join(tokens)))
        return real_claim(tokens, phrases)

    def shift(hyp, ref, *weights):
        calls.append(("shift", " ".join(ref)))
        return real_shift(hyp, ref, *weights)

    monkeypatch.setattr(metrics_mod, "claim_spans", claim)
    monkeypatch.setattr(metrics_mod, "shifted_edit_cost", shift)
    # line 4 is an identical pair: its phrases are claimed once, for both
    # sides, and it has no edits to search for
    hyp = write_lines(tmp_path / "h.txt", ["a B c", "x", "D e", "g H"])
    ref = write_lines(tmp_path / "r.txt", ["a c B", "", "D f", "g H"])
    cons = write_lines(
        tmp_path / "c.jsonl",
        [
            json.dumps({"constraints": [{"src": ["b"], "tgt": ["B"]}]}),
            json.dumps({"constraints": []}),
            json.dumps({"constraints": [{"src": ["d"], "tgt": ["D"]}, {"src": ["e"], "tgt": ["E"]}]}),
            json.dumps({"constraints": [{"src": ["h"], "tgt": ["H"]}]}),
        ],
    )
    code, _ = run(capsys, "evaluate", "--hyp", hyp, "--ref", ref, "--constraints", cons,
                  "--per-sentence", str(tmp_path / "per.tsv"))
    assert code == 0
    assert calls == [
        ("claim", "a B c"), ("claim", "a c B"), ("shift", "a c B"),
        ("claim", "x"), ("claim", ""),
        ("claim", "D e"), ("claim", "D f"), ("shift", "D f"),
        ("claim", "g H"),
    ]


def test_structural_evaluate_per_sentence_rows_score_each_line_alone(tmp_path, capsys):
    vocab_path = tmp_path / "vocab.json"
    write_lines(vocab_path, [json.dumps(TAGGED_VOCAB.to_dict())])
    hyps = ["<g> b </g> <ph> a </ph>", "<ph> x y", "a c b q", ""]
    refs = ["<ph> a </ph> <g> b </g>", "<ph> x y </ph>", "a b c", "<ph> z </ph>"]
    cons = [
        json.dumps({"constraints": [{"src": ["s"], "tgt": ["a"]}]}),
        json.dumps({"constraints": []}),
        json.dumps({"constraints": [{"src": ["s"], "tgt": ["b"]}, {"src": ["t"], "tgt": ["c"]}]}),
        json.dumps({"constraints": [{"src": ["s"], "tgt": ["z"]}]}),
    ]

    def per_sentence(stem, rows):
        paths = [write_lines(tmp_path / f"{stem}.{ext}", [r[k] for r in rows])
                 for k, ext in enumerate(["hyp", "ref", "cons"])]
        tsv = tmp_path / f"{stem}.tsv"
        code, _ = run(capsys, "evaluate", "--mode", "structural", "--vocab", str(vocab_path),
                      "--hyp", paths[0], "--ref", paths[1], "--constraints", paths[2],
                      "--per-sentence", str(tsv))
        assert code == 0
        return [line.split("\t") for line in tsv.read_text(encoding="utf-8").splitlines()]

    rows = list(zip(hyps, refs, cons))
    table = per_sentence("all", rows)
    assert table[0] == [
        "index", "bleu", "exact_match", "window_overlap", "one_minus_term",
        "structure_correct", "structure_match",
    ]
    assert [row[0] for row in table[1:]] == ["0", "1", "2", "3"]
    for i, row in enumerate(rows):
        header, alone = per_sentence(f"line{i}", [row])
        assert header == table[0]
        assert alone[1:] == table[i + 1][1:]


def test_evaluate_line_count_mismatch_is_data_error(tmp_path, capsys):
    hyp = write_lines(tmp_path / "h.txt", ["a"])
    ref = write_lines(tmp_path / "r.txt", ["a", "b"])
    code, _ = run(capsys, "evaluate", "--hyp", hyp, "--ref", ref)
    assert code == 2


# ---------------------------------------------------------------------------
# roundtrip and shard invariance

def _write_roundtrip_corpus(tmp_path, n=60, seed=13):
    pairs, alignments = make_lexical_corpus(n, seed=seed, max_len=14)
    src = write_lines(tmp_path / "rt.src", [" ".join(x) for x, _ in pairs])
    tgt = write_lines(tmp_path / "rt.tgt", [" ".join(y) for _, y in pairs])
    align = write_lines(tmp_path / "rt.align", [pharaoh_line(links) for links in alignments])
    return src, tgt, align


def test_roundtrip_with_sampled_constraints(tmp_path, capsys):
    src, tgt, align = _write_roundtrip_corpus(tmp_path)
    stem = str(tmp_path / "mined")
    run(capsys, "sample", "--src", src, "--tgt", tgt, "--align", align,
        "--out", stem, "--seed", "23")
    code, out = run(
        capsys,
        "roundtrip",
        "--src", src, "--tgt", tgt,
        "--constraints", stem + ".cons.jsonl",
        "--spans", stem + ".spans.jsonl",
    )
    assert code == 0
    summary = last_json(out)
    assert summary["violations"] == []
    assert summary["template_accuracy"] == 100.0
    for key in ("bleu", "exact_match", "window_overlap", "one_minus_term"):
        assert summary["metrics"][key] == 100.0


def test_roundtrip_reports_skips_for_unmatched(tmp_path, capsys):
    src = write_lines(tmp_path / "u.src", ["a b", "c d"])
    tgt = write_lines(tmp_path / "u.tgt", ["x y", "z w"])
    cons = write_lines(
        tmp_path / "u.cons.jsonl",
        [
            json.dumps({"constraints": [{"src": ["missing"], "tgt": ["x"]}]}),
            json.dumps({"constraints": []}),
        ],
    )
    code, out = run(capsys, "roundtrip", "--src", src, "--tgt", tgt, "--constraints", cons)
    assert code == 0
    summary = last_json(out)
    assert summary["skipped"] == 1 and summary["sentences"] == 1


# ---------------------------------------------------------------------------
# translator bridge

ECHO_TRANSLATOR = textwrap.dedent(
    """\
    #!/usr/bin/env python3
    import sys

    # test translator: answers each request with the next canned line
    with open(sys.argv[1], encoding="utf-8") as f:
        canned = f.read().splitlines()
    for i, line in enumerate(sys.stdin):
        sys.stdout.write(canned[i] + "\\n")
        sys.stdout.flush()
    """
)


def _make_translator(tmp_path, canned_lines):
    canned = write_lines(tmp_path / "canned.txt", canned_lines)
    script = tmp_path / "echo_translator.py"
    script.write_text(ECHO_TRANSLATOR, encoding="utf-8")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return f"{sys.executable} {script} {canned}"


def test_bridge_protocol(tmp_path):
    command = _make_translator(tmp_path, ["<Y_0> <sep> <Y_0> ok", "second line"])
    with TranslatorBridge(command) as bridge:
        first, second = bridge.translate([[["<sep>", "<X_0>"], ["<sep>"]], [["x"], []]])
        assert first == b"<Y_0> <sep> <Y_0> ok"
        assert second == b"second line"


def test_decode_via_translator_sharded(tmp_path, capsys):
    # an identity table keyed by request line: each shard gets its own child
    n = 9
    pairs = [([f"w{i}", "k"], [f"v{i}", "k"]) for i in range(n)]
    src = write_lines(tmp_path / "b.src", [" ".join(x) for x, _ in pairs])
    tgt = write_lines(tmp_path / "b.tgt", [" ".join(y) for _, y in pairs])
    prep_dir = tmp_path / "prep"
    run(capsys, "prepare", "--src", src, "--tgt", tgt, "--out-dir", str(prep_dir))
    enc_dir = tmp_path / "enc"
    run(capsys, "encode", "--src", src, "--out-dir", str(enc_dir))

    xprime = (enc_dir / "encode.xprime").read_text(encoding="utf-8").splitlines()
    prefix = (enc_dir / "encode.prefix").read_text(encoding="utf-8").splitlines()
    yprime = (prep_dir / "train.yprime").read_text(encoding="utf-8").splitlines()
    table = {}
    for xp, pre, yp in zip(xprime, prefix, yprime):
        tokens = yp.split()
        tail = tokens[tokens.index("<sep>") + 1 :]
        table[xp + "\t" + pre] = " ".join(tail)
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(table, ensure_ascii=False), encoding="utf-8")
    script = tmp_path / "keyed_translator.py"
    script.write_text(KEYED_TRANSLATOR, encoding="utf-8")

    code, out = run(
        capsys, "decode", "--encode-dir", str(enc_dir),
        "--translator", f"{sys.executable} {script} {table_path}",
        "--shards", "3",
    )
    assert code == 0
    assert last_json(out)["template_accuracy"] == 100.0
    decoded = (enc_dir / "decode.out").read_text(encoding="utf-8").splitlines()
    assert decoded == [" ".join(y) for _, y in pairs]


def test_prepare_skips_unmatched_and_stays_aligned(tmp_path, capsys):
    src = write_lines(tmp_path / "p.src", ["a b", "c d", "e f"])
    tgt = write_lines(tmp_path / "p.tgt", ["x", "y", "z"])
    cons = write_lines(
        tmp_path / "p.cons.jsonl",
        [
            json.dumps({"constraints": []}),
            json.dumps({"constraints": [{"src": ["nope"], "tgt": ["y"]}]}),
            json.dumps({"constraints": []}),
        ],
    )
    out_dir = tmp_path / "prep"
    code, out = run(
        capsys, "prepare", "--src", src, "--tgt", tgt,
        "--constraints", cons, "--out-dir", str(out_dir),
    )
    assert code == 0
    assert last_json(out) == {"skipped": 1, "written": 2}
    metas = corpus_io.read_jsonl(out_dir / "train.meta.jsonl")
    assert [m["index"] for m in metas] == [0, 2]
    assert len(corpus_io.read_token_lines(out_dir / "train.xprime")) == 2


def test_decode_via_translator(golden_files, capsys):
    enc_dir = golden_files["dir"] / "enc4"
    run(
        capsys, "encode",
        "--src", golden_files["src"], "--constraints", golden_files["cons"],
        "--out-dir", str(enc_dir),
    )
    command = _make_translator(golden_files["dir"], [GOLD_OUTPUT])
    code, out = run(
        capsys, "decode", "--encode-dir", str(enc_dir), "--translator", command,
    )
    assert code == 0
    assert (enc_dir / "decode.out").read_text(encoding="utf-8").rstrip("\n") == GOLD_RESULT


RAW_TRANSLATOR = textwrap.dedent(
    """\
    #!/usr/bin/env python3
    import sys

    # test translator: answers each request with the next canned line, as raw bytes
    with open(sys.argv[1], "rb") as f:
        canned = f.read().split(b"\\n")[:-1]
    for answer, _ in zip(canned, sys.stdin.buffer):
        sys.stdout.buffer.write(answer + b"\\n")
        sys.stdout.buffer.flush()
    """
)


def _encode_three_lines(tmp_path):
    """An encode directory of three lines; the first has constraint b -> B."""
    src = write_lines(tmp_path / "r.src", ["a b c", "d", "e"])
    cons = write_lines(
        tmp_path / "r.cons.jsonl",
        ['{"constraints": [{"src": ["b"], "tgt": ["B"]}]}', '{"constraints": []}',
         '{"constraints": []}'],
    )
    enc_dir = tmp_path / "enc"
    assert main(["encode", "--src", src, "--constraints", cons, "--out-dir", str(enc_dir)]) == 0
    return enc_dir


def _decode_both_ways(enc_dir, work, answers: bytes):
    """Decode the same answer bytes through --translator and --model-output;
    returns each run's exit code and output directory."""
    canned = work / "answers.txt"
    canned.write_bytes(answers)
    script = work / "raw_translator.py"
    script.write_text(RAW_TRANSLATOR, encoding="utf-8")
    runs = {}
    for name, source in [
        ("translator", ["--translator", f"{sys.executable} {script} {canned}"]),
        ("model-output", ["--model-output", str(canned)]),
    ]:
        out_dir = work / name
        argv = ["decode", "--encode-dir", str(enc_dir), *source, "--out-dir", str(out_dir)]
        runs[name] = main(argv), out_dir
    return runs


def test_translator_answer_ends_at_lf_like_a_model_output_line(tmp_path, capsys):
    # a CR inside an answer is whitespace, not a line end that shifts later answers
    enc_dir = _encode_three_lines(tmp_path)
    answers = [b"<Y_0> <C_1> <Y_1> <sep> <Y_0> x\ry <Y_1> z", b"<Y_0> <sep> <Y_0> second",
               b"<Y_0> <sep> <Y_0> third"]
    runs = _decode_both_ways(enc_dir, tmp_path, b"".join(a + b"\n" for a in answers))
    (t_code, t_dir), (f_code, f_dir) = runs["translator"], runs["model-output"]
    assert t_code == f_code == 0
    assert (t_dir / "decode.out").read_bytes() == b"x y B z\nsecond\nthird\n"
    for name in ("decode.out", "decode.audit.jsonl"):
        assert (t_dir / name).read_bytes() == (f_dir / name).read_bytes()


def test_translator_answer_not_utf8_is_data_error(tmp_path, capsys):
    # named by its line, as a --model-output line is, by either route
    enc_dir = _encode_three_lines(tmp_path)
    capsys.readouterr()
    runs = _decode_both_ways(enc_dir, tmp_path, b"caf\xe9\n<Y_0> <sep>\n<Y_0> <sep>\n")
    canned = tmp_path / "answers.txt"
    command = f"{sys.executable} {tmp_path / 'raw_translator.py'} {canned}"
    assert capsys.readouterr().err.splitlines() == [
        f"ctmt: line 1: not valid UTF-8 (translator {command!r})",
        f"ctmt: line 1: not valid UTF-8 ({canned})",
    ]
    for code, out_dir in runs.values():
        assert code == 2 and not (out_dir / "decode.out").exists()


def test_sharded_translator_names_the_first_bad_answer_in_line_order(tmp_path, capsys):
    # each of two children answers its second request with bytes that are not
    # UTF-8, so lines 2 and 4 are bad: line 2 is named, whichever answer comes first
    src = write_lines(tmp_path / "s.src", ["a", "b", "c", "d"])
    enc_dir = tmp_path / "enc"
    assert main(["encode", "--src", src, "--out-dir", str(enc_dir)]) == 0
    canned = tmp_path / "answers.txt"
    canned.write_bytes(b"<Y_0> <sep> <Y_0> ok\ncaf\xe9\n")
    script = tmp_path / "raw_translator.py"
    script.write_text(RAW_TRANSLATOR, encoding="utf-8")
    command = f"{sys.executable} {script} {canned}"
    capsys.readouterr()
    for _ in range(3):
        assert main(["decode", "--encode-dir", str(enc_dir), "--translator", command, "--shards", "2"]) == 2
        assert capsys.readouterr().err == f"ctmt: line 2: not valid UTF-8 (translator {command!r})\n"
    assert not (enc_dir / "decode.out").exists()


@pytest.mark.parametrize("child", ["pass", "import sys; sys.stdin.buffer.readline()"])
def test_translator_that_exits_early_is_data_error(tmp_path, capsys, child):
    # the message depends on whether the request write or the answer read
    # notices first, so only its shape is pinned
    enc_dir = _encode_three_lines(tmp_path)
    capsys.readouterr()
    out_dir = tmp_path / "out"
    code = main(["decode", "--encode-dir", str(enc_dir), "--out-dir", str(out_dir),
                 "--translator", f"{sys.executable} -c {shlex.quote(child)}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ctmt: ") and err.count("\n") == 1
    assert not (out_dir / "decode.out").exists()


LINGERING_TRANSLATOR = textwrap.dedent(
    """\
    #!/usr/bin/env python3
    import sys
    import time

    # test translator: echoes each request's source words (after the four
    # tokens "<sep> <X_0> <sep> <X_0>" of an unconstrained line), then records
    # when its input ended and takes a second to shut down
    for line in sys.stdin:
        print("<Y_0> <sep> <Y_0>", *line.split("\\t")[0].split()[4:], flush=True)
    with open(sys.argv[1], "a") as f:
        f.write(f"{time.monotonic()}\\n")
    time.sleep(1)
    """
)


def test_translator_children_see_their_input_end_together(tmp_path):
    # every child's input is closed before any child is reaped, so no child
    # waits for another to shut down before it may start to
    src = write_lines(tmp_path / "s.src", ["a b", "c", "d e f", "g"])
    enc_dir = tmp_path / "enc"
    assert main(["encode", "--src", src, "--out-dir", str(enc_dir)]) == 0
    script = tmp_path / "lingering_translator.py"
    script.write_text(LINGERING_TRANSLATOR, encoding="utf-8")
    decoded = {}
    for shards in (1, 2):
        ends = tmp_path / f"ends{shards}.txt"
        out_dir = tmp_path / f"out{shards}"
        assert main(["decode", "--encode-dir", str(enc_dir), "--out-dir", str(out_dir),
                     "--shards", str(shards), "--translator", f"{sys.executable} {script} {ends}"]) == 0
        decoded[shards] = (out_dir / "decode.out").read_bytes()
    first, second = map(float, (tmp_path / "ends2.txt").read_text().split())
    assert abs(first - second) < 0.5
    assert decoded[1] == decoded[2] == b"a b\nc\nd e f\ng\n"


def test_a_translator_child_killed_at_shutdown_is_named(tmp_path, capsys, caplog, monkeypatch):
    # both children answer every request, then outlive the deadline after their
    # input ends: each is killed and named once, and decode is unchanged
    src = write_lines(tmp_path / "s.src", ["a b", "c", "d e f"])
    enc_dir = tmp_path / "enc"
    assert main(["encode", "--src", src, "--out-dir", str(enc_dir)]) == 0
    capsys.readouterr()
    script = tmp_path / "lingering_translator.py"
    script.write_text(LINGERING_TRANSLATOR, encoding="utf-8")
    monkeypatch.setattr(cli, "EXIT_SECONDS", 0.2)
    command = f"{sys.executable} {script} {tmp_path / 'ends.txt'}"
    assert main(["decode", "--encode-dir", str(enc_dir), "--shards", "2", "--translator", command]) == 0
    assert (enc_dir / "decode.out").read_bytes() == b"a b\nc\nd e f\n"
    assert len((enc_dir / "decode.audit.jsonl").read_bytes().splitlines()) == 3
    summary = {"sentences": 3, "template_accuracy": 100.0, "omitted_nonterminals": 0, "fallback_lines": 0}
    assert json.loads(capsys.readouterr().out) == summary
    killed = f"translator {command!r}: killed a child still running 0.2 s after its input ended"
    assert [r.getMessage() for r in caplog.records if "killed" in r.getMessage()] == [killed] * 2


JUNK_TRANSLATOR = textwrap.dedent(
    """\
    #!/usr/bin/env python3
    import sys

    # test translator: writes a line no request asked for before each answer
    for i, _ in enumerate(sys.stdin):
        sys.stdout.write(f"junk\\n<Y_0> <sep> <Y_0> ans{i}\\n")
        sys.stdout.flush()
    """
)


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_translator_surplus_lines_are_data_error(tmp_path, capsys, shards):
    # unchecked, the surplus would shift every later answer by one line; at 4
    # shards a child's one answer and its surplus line arrive in one write
    src = write_lines(tmp_path / "j.src", ["a", "b", "c", "d"])
    enc_dir = tmp_path / "enc"
    assert main(["encode", "--src", src, "--out-dir", str(enc_dir)]) == 0
    script = tmp_path / "junk_translator.py"
    script.write_text(JUNK_TRANSLATOR, encoding="utf-8")
    capsys.readouterr()
    code = main(["decode", "--encode-dir", str(enc_dir), "--shards", str(shards),
                 "--translator", f"{sys.executable} {script}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.endswith(f" sent {4 // shards} lines no request asked for\n")
    assert err.startswith("ctmt: translator ") and err.count("\n") == 1
    assert not (enc_dir / "decode.out").exists()


ANSWER_TOKENS = ["<Y_0>", "<Y_1>", "<C_1>", "<sep>", "x", "y", "B", "é", "語", "<ph>"]


@st.composite
def answer_lines(draw):
    """The bytes of one answer line: tokens joined by spaces, tabs or CRs,
    with or without a CRLF ending, sometimes holding a byte that is not UTF-8."""
    tokens = draw(st.lists(st.sampled_from(ANSWER_TOKENS), max_size=8))
    line = b""
    for tok in tokens:
        line += draw(st.sampled_from([b" ", b"\t", b"\r", b" \r "])) + tok.encode("utf-8")
    line += draw(st.sampled_from([b"", b"\r", b"\t"]))
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(line)))
        line = line[:cut] + draw(st.sampled_from([b"\xe9", b"\xff", b"\xed\xa0\x80"])) + line[cut:]
    return line + b"\n"


def test_translator_and_model_output_read_the_same_answers(tmp_path):
    enc_dir = _encode_three_lines(tmp_path)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(answer_lines(), min_size=3, max_size=3))
    def check(lines):
        answers = b"".join(lines)
        with tempfile.TemporaryDirectory(dir=tmp_path) as work:
            runs = _decode_both_ways(enc_dir, Path(work), answers)
            (t_code, t_dir), (f_code, f_dir) = runs["translator"], runs["model-output"]
            try:
                answers.decode("utf-8")
            except UnicodeDecodeError:
                assert t_code == f_code == 2
                assert not (t_dir / "decode.out").exists() and not (f_dir / "decode.out").exists()
                return
            assert t_code == f_code == 0
            for name in ("decode.out", "decode.audit.jsonl"):
                assert (t_dir / name).read_bytes() == (f_dir / name).read_bytes()

    check()


# ---------------------------------------------------------------------------
# decode robustness

def _corrupted_lines(rng, n):
    tokens = ["<Y_0>", "<Y_1>", "<C_1>", "<C_9>", "<X_2>", "<sep>", "w", "v", "junk", "<", "&"]
    lines = []
    for _ in range(n):
        lines.append(" ".join(rng.choice(tokens) for _ in range(rng.randint(0, 12))))
    return lines


def test_decode_survives_corrupted_outputs(tmp_path, capsys):
    rng = random.Random(99)
    n = 500
    src = write_lines(tmp_path / "f.src", ["a b c"] * n)
    cons = write_lines(
        tmp_path / "f.cons.jsonl",
        [json.dumps({"constraints": [{"src": ["b"], "tgt": ["B"]}]})] * n,
    )
    enc_dir = tmp_path / "enc"
    run(capsys, "encode", "--src", src, "--constraints", cons, "--out-dir", str(enc_dir))
    model_out = write_lines(tmp_path / "f.out", _corrupted_lines(rng, n))
    code, out = run(capsys, "decode", "--encode-dir", str(enc_dir), "--model-output", model_out)
    assert code == 0
    decoded = (enc_dir / "decode.out").read_text(encoding="utf-8")
    assert decoded.count("\n") == n
    audits = corpus_io.read_jsonl(enc_dir / "decode.audit.jsonl")
    assert len(audits) == n


@pytest.mark.parametrize("kind", ["X", "Y"])
def test_a_nonterminal_spelling_of_any_length_past_max_index_is_plain_text(tmp_path, capsys, kind):
    # a source token for encode, a model output token for decode: each line
    # is handled as the same line with <X_65> / <Y_65> in its place
    long = f"<{kind}_{'1' * 5000}>"  # more digits than int() takes
    results = []
    for token in (long, f"<{kind}_65>"):
        d = tmp_path / token[:6]
        if kind == "X":
            argv = ["encode", "--src", write_lines(tmp_path / "s", [f"{token} a"]), "--out-dir", str(d)]
        else:
            run(capsys, "encode", "--src", write_lines(tmp_path / "s", ["a b"]), "--out-dir", str(d))
            argv = ["decode", "--encode-dir", str(d),
                    "--model-output", write_lines(tmp_path / "m", [f"<Y_0> <sep> <Y_0> {token} x"])]
        code, out = run(capsys, *argv)
        results.append((code, out, {f.name: f.read_text(encoding="utf-8") for f in sorted(d.iterdir())}))
    assert results[0][0] == 0
    assert repr(results[0]).replace(long, f"<{kind}_65>") == repr(results[1])
    assert long in results[0][2]["encode.xprime" if kind == "X" else "decode.out"]


SOUP = ["<Y_0>", "<Y_1>", "<Y_2>", "<C_1>", "<C_2>", "<C_7>", "<X_0>", "<X_1>", "<sep>",
        "w", "v", "<ph>", "</ph>", "&amp;", "<Y_99>"]


@st.composite
def model_lines(draw):
    """(mode, vocab, tail, meta): a well-formed continuation with up to three
    random insertions or deletions drawn from a soup of reserved tokens."""
    mode = draw(st.sampled_from(["lexical", "structural"]))
    vocab = draw(st.sampled_from([DEFAULT_VOCAB, TAGGED_VOCAB]))
    if mode == "lexical":
        n = draw(st.integers(0, 3))
        order = draw(st.permutations(range(1, n + 1)))
        template = ["<Y_0>"]
        for slot, c in enumerate(order, start=1):
            template += [f"<C_{c}>", f"<Y_{slot}>"]
        constraints = [ConstraintPair([f"s{k}"], [f"T{k}"]) for k in range(1, n + 1)]
        meta = {"mode": mode, "index": 0, "constraints": constraints}
        words = ["w", "v", "<ph>", "&amp;"] if vocab is TAGGED_VOCAB else ["w", "v"]
    else:
        tags = draw(st.sampled_from([[], ["<ph>", "</ph>"], ["&amp;"]]))
        if vocab is DEFAULT_VOCAB:
            tags = []
        template = ["<Y_0>"]
        for slot, tag in enumerate(tags, start=1):
            template += [tag, f"<Y_{slot}>"]
        meta = {"mode": mode, "index": 0, "source_tags": tags}
        words = ["w", "v"]
    line = template + ["<sep>"]
    for k in range(len(template) // 2 + 1):
        line += [f"<Y_{k}>", *draw(st.lists(st.sampled_from(words), max_size=3))]
    edits = draw(st.lists(st.tuples(st.integers(0, 40), st.sampled_from(SOUP + [None])), max_size=3))
    for pos, tok in edits:
        pos %= len(line) + 1
        if tok is not None:
            line.insert(pos, tok)
        elif pos < len(line):
            del line[pos]
    return mode, vocab, line, meta


@settings(max_examples=400, deadline=None)
@given(model_lines())
def test_decode_line_is_total_and_exact_on_valid_lines(case):
    mode, vocab, tail, meta = case
    sentence, audit = decode_line(tail, meta, vocab)
    assert all(isinstance(tok, str) for tok in sentence)
    constraints = meta.get("constraints", [])
    try:
        if mode == "structural":
            parsed = parse_structural_output(tail, vocab)
            verdict = validate_structural_template(parsed.template, meta["source_tags"], vocab)
        else:
            parsed = parse_output(tail, vocab, len(constraints))
            verdict = validate_template(parsed.template, len(constraints))
    except OutputParseError as exc:
        assert audit["fallback"] and not audit["valid"] and audit["reason"] == str(exc)
        return
    assert not audit["fallback"] and audit["valid"] == verdict.valid
    if verdict.valid:
        assert sentence == reconstruct(
            parsed.template, constraint_derivation(constraints), parsed.derivation
        )


TWO_CONSTRAINTS = {
    "mode": "lexical",
    "index": 0,
    "constraints": [ConstraintPair(["a"], ["T1"]), ConstraintPair(["b"], ["T2"])],
}


@pytest.mark.parametrize(
    "tail, sentence, reason",
    [
        # no separator: the whole line is the template, with no rules
        ("<Y_0> <C_1> w <Y_1>", "T1 w", "no separator between template and derivations"),
        # a stray template token passes through; one before any head is dropped
        ("<Y_0> w <C_2> <C_1> <Y_1> <sep> v <Y_0> a <Y_1> b", "a w T2 T1 b",
         "token 'w' is not allowed in the template region"),
        # X and C heads open rules; an X rule serves an X in the template, a
        # C rule never overrides the constraint
        ("<Y_0> <C_2> <X_1> <C_1> <Y_1> <sep> <Y_0> a <C_1> z <X_1> c <Y_1> b", "a T2 c T1 b",
         "token '<X_1>' is not allowed in the template region"),
        ("<Y_0> <C_2> <Y_1> <C_1> <Y_2> <sep> <Y_0> a <C_2> z <Y_2> b", "a T2 T1 b",
         "'<C_2>' is not allowed in the derivation region"),
        # a C index with no constraint expands to nothing
        ("<Y_0> <C_7> <Y_1> <C_1> <Y_2> <sep> <Y_0> a <Y_2> b", "a T1 b",
         "missing constraint index 2"),
        # a repeated head keeps its first rule; a separator does not end it
        ("<Y_0> <C_1> <Y_1> <C_2> <Y_2> <sep> <Y_0> a <Y_0> x <Y_1> b <sep> c <Y_1> y", "a T1 b c T2",
         "unexpected separator inside the derivation region"),
    ],
    ids=["no-separator", "stray-tokens", "x-head", "c-head", "unknown-c-index", "repeated-head"],
)
def test_decode_line_fallback_expansion(tail, sentence, reason):
    decoded, audit = decode_line(tail.split(), TWO_CONSTRAINTS, DEFAULT_VOCAB)
    assert " ".join(decoded) == sentence
    assert not audit["valid"] and audit["reason"] == reason


def test_decode_line_fallback_keeps_tags_in_lexical_derivations():
    # a registered tag is an ordinary token in a lexical derivation, whether
    # the line is valid, parses but fails validation, or does not parse
    meta = {"mode": "lexical", "index": 0, "constraints": [ConstraintPair(["a"], ["T1"])]}
    cases = [
        ("<Y_0> <C_1> <Y_1> <sep> <Y_0> <ph> a </ph> <Y_1> b", "<ph> a </ph> T1 b", True),
        ("<Y_0> <C_1> <sep> <Y_0> <ph> a </ph>", "<ph> a </ph> T1", False),
        ("<Y_0> <C_1> <Y_1> junk <sep> <Y_0> <ph> a </ph> <Y_1> b", "<ph> a </ph> T1 b junk", False),
    ]
    for tail, sentence, valid in cases:
        decoded, audit = decode_line(tail.split(), meta, TAGGED_VOCAB)
        assert (" ".join(decoded), audit["valid"]) == (sentence, valid)


def test_decode_line_fallback_drops_tags_in_structural_derivations():
    meta = {"mode": "structural", "index": 0, "source_tags": ["<ph>", "</ph>"]}
    tail = "<Y_0> <ph> <Y_1> </ph> <sep> <Y_0> a <Y_1> <g> b".split()
    decoded, audit = decode_line(tail, meta, TAGGED_VOCAB)
    assert decoded == ["a", "<ph>", "b", "</ph>"]
    assert audit["fallback"] and audit["reason"] == "markup tag '<g>' inside the derivation region"


# ---------------------------------------------------------------------------
# bench

def test_bench_reports_throughput(golden_files, capsys):
    code, out = run(
        capsys, "bench",
        "--src", golden_files["src"], "--tgt", golden_files["tgt"],
        "--constraints", golden_files["cons"],
    )
    assert code == 0
    report = last_json(out)
    assert report["within_budget"] is True
    assert report["serialize_tps"] > 0
    assert report["reconstruct_tps"] > 0


def test_bench_gate_fails_a_slow_transform(golden_files, capsys, monkeypatch):
    # the fastest of repeated passes must not hide a reconstruction that is slow every time
    import ctmt.cli as cli_mod

    real = cli_mod.decode_line

    def slow(tail, meta, vocab):
        time.sleep(0.001)
        return real(tail, meta, vocab)

    monkeypatch.setattr(cli_mod, "decode_line", slow)
    code, out = run(
        capsys, "bench",
        "--src", golden_files["src"], "--tgt", golden_files["tgt"],
        "--constraints", golden_files["cons"],
    )
    assert code == 3
    assert last_json(out)["within_budget"] is False


def test_bench_skips_bad_lines_like_roundtrip(golden_files, capsys, caplog):
    from conftest import GOLD_REF

    tmp = golden_files["dir"]
    src = write_lines(tmp / "b.src", [GOLD_SRC, "p r"])
    tgt = write_lines(tmp / "b.tgt", [GOLD_REF, "x y"])
    cons_lines = Path(golden_files["cons"]).read_text(encoding="utf-8").splitlines()
    missing = json.dumps({"constraints": [{"src": ["q"], "tgt": ["x"]}]})
    cons = write_lines(tmp / "b.cons.jsonl", [*cons_lines, missing])
    for command in ("roundtrip", "bench"):
        caplog.clear()
        code, out = run(capsys, command, "--src", src, "--tgt", tgt, "--constraints", cons)
        assert code == 0
        report = last_json(out)
        assert (report["sentences"], report["skipped"]) == (1, 1)
        assert "line 2 skipped: constraint phrase 'q' has no available occurrence" in caplog.text


def test_bench_empty_corpus(tmp_path, capsys):
    src = write_lines(tmp_path / "e.src", [])
    tgt = write_lines(tmp_path / "e.tgt", [])
    code, out = run(capsys, "bench", "--src", src, "--tgt", tgt)
    assert code == 0
    assert last_json(out)["sentences"] == 0


def test_bench_report_without_kept_lines_is_formatted_as_every_report(tmp_path, capsys):
    src = write_lines(tmp_path / "b.src", ["p r"])
    tgt = write_lines(tmp_path / "b.tgt", ["x y"])
    cons = write_lines(tmp_path / "b.cons.jsonl", [json.dumps({"constraints": [{"src": ["q"], "tgt": ["x"]}]})])
    code, out = run(capsys, "bench", "--src", src, "--tgt", tgt, "--constraints", cons)
    assert code == 0
    report = {"sentences": 0, "skipped": 1, "serialize_tps": None, "reconstruct_tps": None}
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def _multi_chunk_corpus(tmp_path):
    """2 * CHUNK_LINES + 3 lines, one of whose constraints cannot be placed."""
    from ctmt.cli import CHUNK_LINES

    n = 2 * CHUNK_LINES + 3
    words = " ".join("abcdefghij")  # so that a line's tokens, not the line, dominate its cost
    src = write_lines(tmp_path / "m.src", [f"w{i} {words} k" for i in range(n)])
    tgt = write_lines(tmp_path / "m.tgt", [f"v{i} {words.upper()} K" for i in range(n)])
    ok, bad = (json.dumps({"constraints": [{"src": [s], "tgt": ["K"]}]}) for s in ("k", "q"))
    cons = write_lines(tmp_path / "m.cons.jsonl", [bad if i == CHUNK_LINES + 1 else ok for i in range(n)])
    return n, ["--src", src, "--tgt", tgt, "--constraints", cons]


def test_bench_counts_lines_like_roundtrip_over_many_chunks(tmp_path, capsys):
    n, corpus = _multi_chunk_corpus(tmp_path)
    counts = []
    for command in ("roundtrip", "bench"):
        code, out = run(capsys, command, *corpus)
        assert code == 0, out
        report = last_json(out)
        counts.append((report["sentences"], report["skipped"]))
    assert counts == [(n - 1, 1), (n - 1, 1)]


def test_bench_gate_fails_a_slow_transform_over_many_chunks(tmp_path, capsys, monkeypatch):
    # a chunk's pass repeats only within the run's first BENCH_MIN_SECONDS, so a
    # transform that is slow on every line must still fail on a large corpus
    import ctmt.cli as cli_mod

    real = cli_mod.decode_line

    def slow(tail, meta, vocab):
        time.sleep(0.001)
        return real(tail, meta, vocab)

    monkeypatch.setattr(cli_mod, "decode_line", slow)
    _, corpus = _multi_chunk_corpus(tmp_path)
    code, out = run(capsys, "bench", *corpus)
    assert code == 3
    assert last_json(out)["within_budget"] is False


def test_bench_deterministic_outputs(golden_files, capsys):
    # the transforms themselves are deterministic: two prepare runs agree
    blobs = []
    for name in ("d1", "d2"):
        out_dir = golden_files["dir"] / name
        run(
            capsys, "prepare",
            "--src", golden_files["src"], "--tgt", golden_files["tgt"],
            "--constraints", golden_files["cons"], "--out-dir", str(out_dir),
        )
        blobs.append((out_dir / "train.xprime").read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# exit codes and environment

def test_usage_error_exit_code(capsys):
    assert main(["prepare"]) == 1  # missing required arguments
    assert main(["nonsense"]) == 1
    assert main([]) == 1


def test_missing_file_is_data_error(tmp_path, capsys):
    code = main(
        ["prepare", "--src", str(tmp_path / "nope"), "--tgt", str(tmp_path / "nope2"),
         "--out-dir", str(tmp_path / "o")]
    )
    assert code == 2


def test_roundtrip_violation_exit_code(tmp_path, capsys, monkeypatch):
    # a wrong reconstruction or an invalid template must surface as exit 3
    src = write_lines(tmp_path / "v.src", ["a b"])
    tgt = write_lines(tmp_path / "v.tgt", ["x y"])
    import ctmt.cli as cli_mod

    real = cli_mod.decode_line
    corruptions = [
        (lambda sentence, audit: (sentence + ["!!"], audit),
         "line 1: reconstruction differs from reference"),
        (lambda sentence, audit: (sentence, {**audit, "valid": False, "reason": "broken"}),
         "line 1: invalid template (broken)"),
    ]
    for corrupt, violation in corruptions:
        monkeypatch.setattr(cli_mod, "decode_line", lambda *a: corrupt(*real(*a)))
        code, out = run(capsys, "roundtrip", "--src", src, "--tgt", tgt)
        assert code == 3
        assert violation in last_json(out)["violations"]


def test_console_script_entry_point(tmp_path, capsys, monkeypatch):
    import ctmt

    package_root = str(Path(ctmt.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "ctmt.cli"],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert result.returncode == 1
    assert result.stderr.startswith("usage: ctmt")

    # the function [project.scripts] names, called as the installed script
    # calls it: with no arguments, on sys.argv (no tomllib before 3.11)
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    module, function = re.search(r'^ctmt = "([\w.]+):(\w+)"$', pyproject, re.MULTILINE).groups()
    entry = getattr(importlib.import_module(module), function)
    src = write_lines(tmp_path / "s.src", ["a b"])
    monkeypatch.setattr(sys, "argv", ["ctmt", "encode", "--src", src, "--out-dir", str(tmp_path / "enc")])
    assert entry() == 0
    assert json.loads(capsys.readouterr().out) == {"skipped": 0, "written": 1}
    assert (tmp_path / "enc" / "encode.xprime").read_text(encoding="utf-8") == "<sep> <X_0> <sep> <X_0> a b\n"


def _run_module(tmp_path, *argv, log_level=None):
    """``python -m ctmt.cli argv`` in a new interpreter, with CTMT_LOG set to
    ``log_level`` or unset."""
    import ctmt

    env = {**os.environ, "PYTHONPATH": str(Path(ctmt.__file__).resolve().parents[1])}
    env.pop("CTMT_LOG", None)
    if log_level is not None:
        env["CTMT_LOG"] = log_level
    return subprocess.run(
        [sys.executable, "-m", "ctmt.cli", *argv], capture_output=True, text=True, cwd=tmp_path, env=env
    )


def _skipping_roundtrip(tmp_path, log_level):
    """A roundtrip run whose one line is skipped."""
    src = write_lines(tmp_path / "l.src", ["p r"])
    tgt = write_lines(tmp_path / "l.tgt", ["x y"])
    cons = write_lines(tmp_path / "l.cons.jsonl", [json.dumps({"constraints": [{"src": ["q"], "tgt": ["x"]}]})])
    return _run_module(tmp_path, "roundtrip", "--src", src, "--tgt", tgt, "--constraints", cons,
                       log_level=log_level)


def test_cli_logs_under_its_module_name_when_run_as_main(tmp_path):
    result = _skipping_roundtrip(tmp_path, "WARNING")
    assert result.returncode == 0
    assert result.stderr.startswith("WARNING ctmt.cli: line 1 skipped: ")


@pytest.mark.parametrize("log_level", [None, "warning", "verbose", "basic_format"])
def test_a_skipped_line_is_logged_alone_on_stderr(tmp_path, log_level):
    # unset, logging loads with the first record; BASIC_FORMAT, a constant of
    # the logging module that names no level, reads as an unknown name does
    result = _skipping_roundtrip(tmp_path, log_level)
    assert result.returncode == 0
    assert result.stderr == "WARNING ctmt.cli: line 1 skipped: constraint phrase 'q' has no available occurrence\n"


@pytest.mark.parametrize("log_level", [None, "DEBUG"])
def test_debug_level_shows_the_sampler_shortfall(tmp_path, log_level):
    src = write_lines(tmp_path / "s.src", ["a"] * 3)
    tgt = write_lines(tmp_path / "s.tgt", ["b"] * 3)
    align = write_lines(tmp_path / "s.align", ["0-0"] * 3)
    result = _run_module(tmp_path, "sample", "--src", src, "--tgt", tgt, "--align", align,
                         "--out", str(tmp_path / "s"), "--seed", "1", log_level=log_level)
    assert result.returncode == 0
    if log_level is None:
        assert result.stderr == ""
    else:
        assert result.stderr.startswith("DEBUG ctmt.mining: wanted 3 constraints but only 1 disjoint candidates\n")


def test_log_level_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CTMT_LOG", "DEBUG")
    src = write_lines(tmp_path / "l.src", ["a"])
    tgt = write_lines(tmp_path / "l.tgt", ["b"])
    code, _ = run(capsys, "prepare", "--src", src, "--tgt", tgt,
                  "--out-dir", str(tmp_path / "o"))
    assert code == 0


# ---------------------------------------------------------------------------
# edge cases and bad input

@pytest.mark.parametrize("mode", ["lexical", "structural"])
def test_roundtrip_all_empty_corpus(tmp_path, capsys, mode):
    vocab_path = tmp_path / "vocab.json"
    write_lines(vocab_path, [json.dumps(TAGGED_VOCAB.to_dict())])
    src = write_lines(tmp_path / "e.src", [""])
    tgt = write_lines(tmp_path / "e.tgt", [""])
    code, out = run(
        capsys, "roundtrip", "--mode", mode, "--vocab", str(vocab_path),
        "--src", src, "--tgt", tgt,
    )
    assert code == 0
    summary = last_json(out)
    assert summary["violations"] == []
    assert summary["metrics"]["bleu"] == 100.0


def test_decode_meta_line_not_an_object_is_data_error(golden_files, capsys):
    enc_dir = golden_files["dir"] / "enc"
    run(
        capsys, "encode", "--src", golden_files["src"],
        "--constraints", golden_files["cons"], "--out-dir", str(enc_dir),
    )
    (enc_dir / "encode.meta.jsonl").write_text("[1]\n", encoding="utf-8")
    model_out = write_lines(golden_files["dir"] / "model.out", [GOLD_OUTPUT])
    code = main(["decode", "--encode-dir", str(enc_dir), "--model-output", model_out])
    assert code == 2
    assert "line 1: expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "record, message",
    [
        ('{"constraints": [{"src": [], "tgt": ["x"]}]}', "constraint phrases must be non-empty"),
        ('{"constraints": [{"tgt": ["x"]}]}', "src must be a list of strings"),
        ('{"constraints": [5]}', "constraint items must be objects"),
        ('{"constraints": 5}', "'constraints' must be an array"),
        ('{"source_tags": 3}', "source_tags must be a list of strings"),
        ('{"constraints": [{"src": ["a"], "tgt": "xy"}]}', "tgt must be a list of strings"),
        ('{"mode": "other"}', "mode must be one of lexical, structural"),
        ('{"index": 1 "mode": "lexical"}', "invalid JSON at column 13"),
        ('{"index": 1} x', "invalid JSON at column 14"),
        ('{"index": 1, "mode": "lex', "invalid JSON at column 22"),
        pytest.param('{"constraints": ' + TOO_DEEP + "}", f"invalid JSON: {TOO_DEEP_ERROR}",
                     id="too-deep"),
        pytest.param('{"constraints": [], "n": ' + TOO_LONG + "}",
                     f"invalid JSON: {TOO_LONG_ERROR}: value has 5000 digits; "
                     "use sys.set_int_max_str_digits() to increase the limit",
                     id="too-long-integer"),
    ],
)
def test_decode_malformed_meta_record_is_data_error(tmp_path, capsys, record, message):
    enc_dir = tmp_path / "enc"
    enc_dir.mkdir()
    write_lines(enc_dir / "encode.meta.jsonl", ['{"index": 0}', record])
    model_out = write_lines(tmp_path / "model.out", ["<Y_0> <sep> <Y_0> a"] * 2)
    code = main(["decode", "--encode-dir", str(enc_dir), "--model-output", model_out])
    assert code == 2
    assert capsys.readouterr().err == f"ctmt: line 2: {message}\n"


@pytest.mark.parametrize(
    "manifest, message",
    [
        ('["<ph>"]', "expected a JSON object"),
        ('{"registered_tags": "<ph>"}', "registered_tags must be a list of strings"),
        ('{"max_index": true}', "max_index must be an integer"),
        ('{"max_index": 2.9}', "max_index must be an integer"),
        # json's position of a trailing comma is its own: the comma from Python 3.13 on
        pytest.param('{"sep_token": "<sep>",}', "invalid JSON at line 1 column ", id="trailing-comma"),
        ('{"sep_token": "<sep>" "max_index": 9}', "invalid JSON at line 1 column 23\n"),
        ('{\n  "sep_token": "<sep>"\n  "x_prefix": "X"\n}', "invalid JSON at line 3 column 3\n"),
        ('{"sep_token": "<se', "invalid JSON at line 1 column 15\n"),
        ("", "invalid JSON at line 1 column 1\n"),
        pytest.param('{"max_index": ' + TOO_DEEP + "}", TOO_DEEP_ERROR, id="too-deep"),
        pytest.param('{"max_index": ' + TOO_LONG + "}", TOO_LONG_ERROR, id="too-long-integer"),
    ],
)
def test_prepare_malformed_vocab_manifest_is_data_error(tmp_path, capsys, manifest, message):
    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_text(manifest, encoding="utf-8")
    src = write_lines(tmp_path / "m.src", ["a < b"])
    tgt = write_lines(tmp_path / "m.tgt", ["x"])
    code = main(["prepare", "--vocab", str(vocab_path), "--src", src, "--tgt", tgt,
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ctmt: invalid vocabulary manifest: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("item", ["\u00b2-0", "\u0661-\u0660"])
def test_sample_non_ascii_alignment_digits_are_data_error(tmp_path, capsys, item):
    src = write_lines(tmp_path / "d.src", ["a b"])
    tgt = write_lines(tmp_path / "d.tgt", ["x y"])
    align = write_lines(tmp_path / "d.align", [item])
    code = main(["sample", "--src", src, "--tgt", tgt, "--align", align,
                 "--out", str(tmp_path / "mined")])
    assert code == 2
    assert capsys.readouterr().err == f"ctmt: line 1: malformed alignment item {item!r}\n"


@pytest.mark.parametrize("command", ["   ", 'cat "x'])
def test_decode_bad_translator_command_is_usage_error(golden_files, capsys, command):
    code = main(["decode", "--encode-dir", str(golden_files["dir"]), "--translator", command])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ctmt: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "vocab", [[], ["--vocab", "no-such-vocab.json"]], ids=["no-vocab", "missing-vocab"]
)
@pytest.mark.parametrize(
    "command, message",
    [("", "empty command"), ("   ", "empty command"), ("'x", "No closing quotation")],
    ids=["empty", "blank", "open-quote"],
)
def test_translator_command_is_checked_before_the_vocabulary(tmp_path, capsys, monkeypatch,
                                                             vocab, command, message):
    enc_dir = _encode_two_lines(tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    argv = ["decode", "--encode-dir", str(enc_dir), "--translator", command, "--out-dir", str(out)]
    assert main(argv + vocab) == 1
    assert capsys.readouterr().err == f"ctmt: --translator: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--src", "s", "--tgt", "t", "--baseline-tps", "0"],
        ["sample", "--src", "s", "--tgt", "t", "--align", "a", "--out", "o", "--max-len", "0"],
        ["sample", "--src", "s", "--tgt", "t", "--align", "a", "--out", "o",
         "--min-len", "3", "--max-len", "1"],
        ["sample", "--src", "s", "--tgt", "t", "--align", "a", "--out", "o",
         "--max-constraints", "-1"],
        ["evaluate", "--hyp", "h", "--ref", "r", "--window", "-1"],
        ["bench", "--src", "s", "--tgt", "t", "--budget-fraction", "0"],
        ["bench", "--src", "s", "--tgt", "t", "--budget-fraction", "-1"],
        ["bench", "--src", "s", "--tgt", "t", "--budget-fraction", "nan"],
        ["bench", "--src", "s", "--tgt", "t", "--baseline-tps", "inf"],
        ["decode", "--encode-dir", "e", "--translator", "t", "--shards", "0"],
        ["decode", "--encode-dir", "e", "--translator", "t", "--shards", "-1"],
        ["prepare", "--mode", "structural", "--src", "s", "--tgt", "t", "--constraints", "c",
         "--out-dir", "o"],
        ["encode", "--mode", "structural", "--src", "s", "--spans", "p", "--out-dir", "o"],
        ["roundtrip", "--mode", "structural", "--src", "s", "--tgt", "t", "--constraints", "c"],
        ["bench", "--mode", "structural", "--src", "s", "--tgt", "t", "--spans", "p"],
        ["decode", "--encode-dir", "e", "--model-output", "m", "--translator", "no-such-command"],
        ["prepare", "--mode", "structural", "--src", "s", "--tgt", "t", "--out-dir", "o"],
        ["encode", "--mode", "structural", "--src", "s", "--out-dir", "o"],
        ["roundtrip", "--mode", "structural", "--src", "s", "--tgt", "t"],
        ["bench", "--mode", "structural", "--src", "s", "--tgt", "t"],
        ["evaluate", "--mode", "structural", "--hyp", "h", "--ref", "r"],
        ["decode", "--mode", "structural", "--encode-dir", "e", "--model-output", "m"],
        ["decode", "--encode-dir", "e", "--model", "m"],
        ["decode", "--encode-dir", "e", "--model-output", "m", "--shards", "2"],
        ["prepare", "--src", "s", "--tgt", "t", "--out-dir", "o", "--shards", "1"],
    ],
)
def test_bad_option_values_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("ctmt: ") and err.count("\n") == 1


def test_each_command_has_a_pinned_option_set():
    # a new option is a deliberate edit here; --shards counts translator children
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    options = {
        name: {o for a in sub._actions if a.dest != "help" for o in a.option_strings}
        for name, sub in commands.choices.items()
    }
    corpus = {"--mode", "--vocab", "--src", "--tgt", "--constraints", "--spans"}
    assert options == {
        "prepare": corpus | {"--out-dir"},
        "encode": corpus - {"--tgt"} | {"--out-dir"},
        "decode": {"--vocab", "--encode-dir", "--model-output", "--translator", "--shards",
                   "--out-dir"},
        "sample": {"--src", "--tgt", "--align", "--out", "--seed", "--max-constraints",
                   "--min-len", "--max-len"},
        "evaluate": {"--mode", "--vocab", "--hyp", "--ref", "--constraints", "--window",
                     "--report", "--per-sentence"},
        "roundtrip": corpus,
        "bench": corpus | {"--baseline-tps", "--budget-fraction"},
    }


# each command's options that name a file, a directory or an output stem
PATH_OPTIONS = {
    "prepare": ["--src", "--tgt", "--constraints", "--spans", "--vocab", "--out-dir"],
    "encode": ["--src", "--constraints", "--spans", "--vocab", "--out-dir"],
    "decode": ["--encode-dir", "--model-output", "--vocab", "--out-dir"],
    "sample": ["--src", "--tgt", "--align", "--out"],
    "evaluate": ["--hyp", "--ref", "--constraints", "--vocab", "--report", "--per-sentence"],
    "roundtrip": ["--src", "--tgt", "--constraints", "--spans", "--vocab"],
    "bench": ["--src", "--tgt", "--constraints", "--spans", "--vocab"],
}


@pytest.mark.parametrize(
    "command, option", [(command, option) for command in PATH_OPTIONS for option in PATH_OPTIONS[command]]
)
def test_an_empty_path_is_a_usage_error(tmp_path, capsys, command, option):
    # read downstream, "" would pass for an absent option: prepare --tgt "" wrote empty targets
    inputs = {
        "--src": "a b", "--tgt": "x y", "--hyp": "x y", "--ref": "x y", "--align": "0-0 1-1",
        "--constraints": json.dumps({"constraints": [{"src": ["a"], "tgt": ["x"]}]}),
        "--spans": json.dumps({"spans": [{"src": [0, 1], "tgt": [0, 1]}]}),
        "--vocab": "{}", "--model-output": "<Y_0> <C_1> <sep> <Y_0> y",
    }
    argv = [command]
    for name in PATH_OPTIONS[command]:
        if name == option:
            argv += [name, ""]
        elif name in inputs:
            argv += [name, write_lines(tmp_path / name[2:], [inputs[name]])]
        else:
            argv += [name, str(tmp_path / "out" / name[2:])]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"ctmt: argument {option}: empty path\n")
    assert not (tmp_path / "out").exists()


def test_parser_defaults_are_the_library_defaults():
    # the parser spells these defaults itself, so that it imports neither module
    from ctmt.metrics import WINDOW
    from ctmt.mining import SamplerConfig

    parse = build_parser().parse_args
    sample = parse(["sample", "--src", "s", "--tgt", "t", "--align", "a", "--out", "o"])
    defaults = SamplerConfig()
    assert (sample.seed, sample.max_constraints, sample.min_len, sample.max_len) == (
        defaults.rng_seed, defaults.max_constraints, defaults.min_len, defaults.max_len
    )
    assert parse(["evaluate", "--hyp", "h", "--ref", "r"]).window == WINDOW


def _encode_two_lines(tmp_path):
    src = write_lines(tmp_path / "e.src", ["a b", "c"])
    assert main(["encode", "--src", src, "--out-dir", str(tmp_path / "enc")]) == 0
    return tmp_path / "enc"


def _one_line_too_many(path):
    with open(path, "a", encoding="utf-8") as f:
        f.write(path.read_text(encoding="utf-8").splitlines()[-1] + "\n")
    return str(path)


@pytest.mark.parametrize(
    "companion", ["target", "constraints", "spans", "alignments", "model-output", "encode.prefix"]
)
def test_every_line_aligned_input_is_count_checked(tmp_path, capsys, companion):
    src = write_lines(tmp_path / "c.src", ["a b", "c"])
    files = {
        "target": tmp_path / "c.tgt",
        "constraints": tmp_path / "c.cons.jsonl",
        "spans": tmp_path / "c.spans.jsonl",
        "alignments": tmp_path / "c.align",
    }
    write_lines(files["target"], ["x", "y"])
    write_lines(files["constraints"], ['{"constraints": [{"src": ["a"], "tgt": ["x"]}]}',
                                       '{"constraints": []}'])
    write_lines(files["spans"], ['{"spans": [{"src": [0, 1], "tgt": [0, 1]}]}', '{"spans": []}'])
    write_lines(files["alignments"], ["0-0", "0-0"])
    out = str(tmp_path / "out")
    if companion in ("model-output", "encode.prefix"):
        enc_dir = _encode_two_lines(tmp_path)
        capsys.readouterr()
        if companion == "model-output":
            bad = _one_line_too_many(enc_dir / "encode.xprime")  # any file of 3 lines
            argv = ["decode", "--encode-dir", str(enc_dir), "--model-output", bad, "--out-dir", out]
        else:
            bad = _one_line_too_many(enc_dir / "encode.prefix")
            argv = ["decode", "--encode-dir", str(enc_dir), "--translator", "no-such-command",
                    "--out-dir", out]
    else:
        bad = _one_line_too_many(files[companion])
        corpus = ["--src", src, "--tgt", str(files["target"])]
        argv = {
            "target": ["prepare", *corpus, "--out-dir", out],
            "constraints": ["encode", "--src", src, "--constraints", bad, "--out-dir", out],
            "spans": ["prepare", *corpus, "--constraints", str(files["constraints"]),
                      "--spans", bad, "--out-dir", out],
            "alignments": ["sample", *corpus, "--align", bad, "--out", out],
        }[companion]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"ctmt: line count mismatch 2 vs 3 ({bad})\n"
    assert not Path(out).exists() and not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize(
    "command", ["prepare", "encode", "decode", "decode-translator", "sample", "evaluate", "roundtrip",
                "bench"],
)
def test_a_short_companion_fails_before_any_output_is_opened(tmp_path, capsys, command):
    # each output is under a directory that is missing: opened before the
    # count check, it would fail first, with the wrong message
    src = write_lines(tmp_path / "c.src", ["a b", "c"])
    short = write_lines(tmp_path / "short", ["x"])
    out = tmp_path / "missing" / "out"
    if command.startswith("decode"):
        enc_dir = _encode_two_lines(tmp_path)
        capsys.readouterr()
        if command == "decode":
            source = ["--model-output", short]
        else:
            short = write_lines(enc_dir / "encode.prefix", [""])
            source = ["--translator", "no-such-command"]
        argv = ["decode", "--encode-dir", str(enc_dir), *source, "--out-dir", str(out)]
    else:
        argv = {
            "prepare": ["prepare", "--src", src, "--tgt", short, "--out-dir", str(out)],
            "encode": ["encode", "--src", src, "--constraints", short, "--out-dir", str(out)],
            "sample": ["sample", "--src", src, "--tgt", src, "--align", short, "--out", str(out)],
            "evaluate": ["evaluate", "--hyp", src, "--ref", short, "--report", str(out)],
            "roundtrip": ["roundtrip", "--src", src, "--tgt", short],
            "bench": ["bench", "--src", src, "--tgt", short],
        }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"ctmt: line count mismatch 2 vs 1 ({short})\n"
    assert not out.parent.exists()


def _pipe(data: bytes) -> int:
    """The read end of a pipe that holds ``data`` and whose write end is closed."""
    r, w = os.pipe()
    os.write(w, data)
    os.close(w)
    return r


def test_a_pipe_is_read_alone_but_not_with_other_files(tmp_path, capsys):
    # counting the lines of a pipe drains it: read beside another file, it would read as empty
    r = _pipe(b"a\n")
    try:
        assert main(["encode", "--src", f"/dev/fd/{r}", "--out-dir", str(tmp_path / "enc")]) == 0
    finally:
        os.close(r)
    r = _pipe(b"<Y_0> <sep> <Y_0> x\n")
    try:
        capsys.readouterr()
        assert main(["decode", "--encode-dir", str(tmp_path / "enc"), "--model-output", f"/dev/fd/{r}",
                     "--out-dir", str(tmp_path / "out")]) == 2
    finally:
        os.close(r)
    assert capsys.readouterr().err == f"ctmt: line-aligned input is not a regular file (/dev/fd/{r})\n"
    assert not (tmp_path / "out").exists()


def _latin1(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"ok\ncaf\xe9\n")
    return str(path)


def _prepare_reading(option, line):
    """make_argv of a one-line prepare whose --OPTION file holds ``line``
    (and whose constraint file, when that is not it, is an empty set)."""
    def make_argv(d):
        files = {"constraints": '{"constraints": []}', option: line}
        argv = ["prepare", "--src", write_lines(d / "s", ["a"]), "--tgt", write_lines(d / "t", ["x"]),
                "--out-dir", str(d / "out")]
        for name, text in files.items():
            argv += [f"--{name}", write_lines(d / name, [text])]
        return argv
    return make_argv


@pytest.mark.parametrize(
    "make_argv, code, message",
    [
        (lambda d: ["prepare", "--src", _latin1(d), "--tgt", write_lines(d / "t", ["x", "y"]),
                    "--out-dir", str(d / "out")],
         2, "line 2: not valid UTF-8 ({d}/latin1.txt)"),
        (lambda d: ["evaluate", "--hyp", write_lines(d / "h", ["x", "y"]), "--ref", _latin1(d),
                    "--report", str(d / "out")],
         2, "line 2: not valid UTF-8 ({d}/latin1.txt)"),
        (lambda d: ["encode", "--src", write_lines(d / "s", ["a"]), "--out-dir", str(d / "out"),
                    "--constraints",
                    write_lines(d / "c", ['{"constraints": [{"src": ["a"], "tgt": ["\\ud800"]}]}'])],
         2, "line 1: tgt holds a lone surrogate"),
        (lambda d: ["prepare", "--src", write_lines(d / "s", ["a"]), "--tgt", write_lines(d / "t", ["x"]),
                    "--out-dir", str(d / "out"),
                    "--vocab", write_lines(d / "v", ['{"sep_token": "<\\ud800>"}'])],
         2, "invalid vocabulary manifest: sep_token holds a lone surrogate"),
        (lambda d: ["encode", "--mode", "structural", "--src", write_lines(d / "s", ["a"]),
                    "--constraints", write_lines(d / "c", ['{"constraints": [{"src": ["zz"], "tgt": ["x"]}]}']),
                    "--out-dir", str(d / "out")],
         1, "--mode structural takes no --constraints or --spans"),
        (lambda d: ["decode", "--encode-dir", str(_encode_two_lines(d)), "--out-dir", str(d / "out"),
                    "--model-output", write_lines(d / "m", ["<Y_0> <sep>"] * 2),
                    "--translator", "no-such-command"],
         1, "decode takes exactly one of --model-output and --translator"),
        (lambda d: ["prepare", "--mode", "structural", "--out-dir", str(d / "out"),
                    "--src", write_lines(d / "s", ["a <b> c </b>"]),
                    "--tgt", write_lines(d / "t", ["x <b> y </b>"])],
         1, "--mode structural needs a --vocab with registered tags"),
        (lambda d: ["evaluate", "--mode", "structural", "--report", str(d / "out"),
                    "--hyp", write_lines(d / "h", ["a <b> c </b>"]),
                    "--ref", write_lines(d / "r", ["a <b> c </b>"]),
                    "--vocab", write_lines(d / "v", ['{"registered_tags": []}'])],
         1, "--mode structural needs a --vocab with registered tags"),
        (lambda d: ["evaluate", "--report", str(d / "out"), "--per-sentence", str(d / "out"),
                    "--hyp", write_lines(d / "h", ["a"]), "--ref", write_lines(d / "r", ["a"])],
         1, "--report and --per-sentence name the same file"),
        (_prepare_reading("constraints", '{"constraints": ' + TOO_DEEP + "}"),
         2, f"line 1: invalid JSON: {TOO_DEEP_ERROR}"),
        (_prepare_reading("constraints", '{"constraints": [], "n": ' + TOO_LONG + "}"),
         2, f"line 1: invalid JSON: {TOO_LONG_ERROR}"),
        (_prepare_reading("spans", '{"spans": ' + TOO_DEEP + "}"),
         2, f"line 1: invalid JSON: {TOO_DEEP_ERROR}"),
        (_prepare_reading("spans", '{"spans": [], "n": ' + TOO_LONG + "}"),
         2, f"line 1: invalid JSON: {TOO_LONG_ERROR}"),
        (_prepare_reading("vocab", '{"max_index": ' + TOO_DEEP + "}"),
         2, f"invalid vocabulary manifest: {TOO_DEEP_ERROR}"),
        (_prepare_reading("vocab", '{"max_index": ' + TOO_LONG + "}"),
         2, f"invalid vocabulary manifest: {TOO_LONG_ERROR}"),
    ],
    ids=["latin1-source", "latin1-ref", "surrogate-constraint", "surrogate-vocab",
         "structural-constraints", "decode-two-sources", "structural-no-vocab",
         "structural-tagless-vocab", "evaluate-one-file-twice",
         "too-deep-constraints", "too-long-integer-constraints", "too-deep-spans",
         "too-long-integer-spans", "too-deep-vocab", "too-long-integer-vocab"],
)
def test_rejected_inputs_write_no_output(tmp_path, capsys, make_argv, code, message):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("ctmt: " + message.format(d=tmp_path)) and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, output, named",
    [
        (["evaluate", "--hyp", "h", "--ref", "r"], ["--report", "nodir/r.json"], "nodir/r.json"),
        (["evaluate", "--hyp", "h", "--ref", "r"], ["--per-sentence", "nodir/s.tsv"], "nodir/s.tsv"),
        (["sample", "--src", "h", "--tgt", "r", "--align", "a"], ["--out", "nodir/m"], "nodir/m.cons.jsonl"),
    ],
    ids=["report", "per-sentence", "sample"],
)
def test_output_under_a_missing_directory_is_named_as_given(
    tmp_path, capsys, monkeypatch, command, output, named
):
    # the staging name beside the output is internal: the error names the path the option gave
    monkeypatch.chdir(tmp_path)
    write_lines(tmp_path / "h", ["a b"])
    write_lines(tmp_path / "r", ["a b"])
    write_lines(tmp_path / "a", ["0-0 1-1"])
    capsys.readouterr()
    assert main([*command, *output]) == 2
    assert capsys.readouterr().err == f"ctmt: [Errno 2] No such file or directory: '{named}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "h", "r"]


def test_encode_searches_spans_once_per_line(tmp_path, capsys, monkeypatch):
    # each line's phrases are claimed once; the backtracking search runs
    # only on the line where greedy claiming fails ("x" strands "x y")
    import ctmt.lexical as lexical_mod

    claims, searches = [], []

    def counting(calls, real):
        def wrapper(tokens, phrases, *args, **kwargs):
            calls.append(list(tokens))
            return real(tokens, phrases, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(lexical_mod, "claim_spans", counting(claims, lexical_mod.claim_spans))
    monkeypatch.setattr(
        lexical_mod,
        "find_disjoint_assignment",
        counting(searches, lexical_mod.find_disjoint_assignment),
    )
    src = write_lines(tmp_path / "c.src", ["a b c", "c d", "e", "x y x"])
    cons = write_lines(
        tmp_path / "c.cons.jsonl",
        [
            json.dumps({"constraints": [{"src": ["b"], "tgt": ["B"]}, {"src": ["a"], "tgt": ["A"]}]}),
            json.dumps({"constraints": [{"src": ["d"], "tgt": ["D"]}]}),
            json.dumps({"constraints": [{"src": ["e"], "tgt": ["E"]}]}),
            json.dumps({"constraints": [{"src": ["x"], "tgt": ["X"]}, {"src": ["x", "y"], "tgt": ["Y"]}]}),
        ],
    )
    code, out = run(capsys, "encode", "--src", src, "--constraints", cons,
                    "--out-dir", str(tmp_path / "enc"))
    assert code == 0 and last_json(out)["written"] == 4
    assert claims == [["a", "b", "c"], ["c", "d"], ["e"], ["x", "y", "x"]]
    assert searches == [["x", "y", "x"]]


def _deep_placement_files(d):
    """One line whose thousand and two constraints only the span search
    places ("a b" claims (1, 3) and strands "b a"), target-side constraints
    for evaluate, and a vocabulary that reserves indices for them all."""
    src = ["b", "a", "b", "a", "b"] + [f"z{i}" for i in range(1000)]
    phrases = [["a", "b"], ["b", "a"]] + [[t] for t in src[5:]]
    upper = [[t.upper() for t in p] for p in phrases]
    return {
        "src": write_lines(d / "deep.src", [" ".join(src)]),
        "tgt": write_lines(d / "deep.tgt", [" ".join(src).upper()]),
        "cons": write_lines(d / "deep.cons.jsonl", [json.dumps(
            {"constraints": [{"src": p, "tgt": u} for p, u in zip(phrases, upper)]})]),
        "tgt_cons": write_lines(d / "deep.tgt.cons.jsonl", [json.dumps(
            {"constraints": [{"src": u, "tgt": u} for u in upper]})]),
        "vocab": write_lines(d / "vocab.json", ['{"max_index": 2000}']),
    }


def test_deep_placement_encode_skips_the_line_over_capacity(tmp_path, capsys, caplog):
    f = _deep_placement_files(tmp_path)
    code, out = run(capsys, "encode", "--src", f["src"], "--constraints", f["cons"],
                    "--out-dir", str(tmp_path / "enc"))
    assert (code, last_json(out)) == (0, {"skipped": 1, "written": 0})
    assert "line 1 skipped: nonterminal index 65 exceeds reserved max_index 64" in caplog.text


@pytest.mark.parametrize("command", ["prepare", "roundtrip", "bench", "evaluate"])
def test_deep_placement_through_every_command(tmp_path, capsys, command):
    f = _deep_placement_files(tmp_path)
    corpus = ["--src", f["src"], "--tgt", f["tgt"], "--constraints", f["cons"], "--vocab", f["vocab"]]
    argv = {
        "prepare": ["prepare", *corpus, "--out-dir", str(tmp_path / "out")],
        "roundtrip": ["roundtrip", *corpus],
        "bench": ["bench", *corpus, "--baseline-tps", "1e-6"],  # a gate no run can miss
        "evaluate": ["evaluate", "--hyp", f["tgt"], "--ref", f["tgt"],
                     "--constraints", f["tgt_cons"]],
    }[command]
    code, out = run(capsys, *argv)
    assert code == 0
    report = last_json(out)
    if command == "prepare":
        assert report == {"skipped": 0, "written": 1}
        assert (tmp_path / "out" / "train.yprime").read_text(encoding="utf-8").count("<C_") == 2 * 1002
    elif command == "evaluate":
        assert set(report.values()) == {100.0}
    else:
        assert (report["sentences"], report["skipped"]) == (1, 0)
    if command == "roundtrip":
        assert report["violations"] == [] and set(report["metrics"].values()) == {100.0}


def test_structural_prepare_segments_each_sentence_once(tmp_path, capsys, monkeypatch):
    import ctmt.structural as structural_mod

    calls = []
    real = structural_mod.segment_tagged

    def counting(x, vocab):
        calls.append(list(x))
        return real(x, vocab)

    monkeypatch.setattr(structural_mod, "segment_tagged", counting)
    vocab_path = tmp_path / "vocab.json"
    write_lines(vocab_path, [json.dumps(TAGGED_VOCAB.to_dict())])
    src = write_lines(tmp_path / "s.src", [MARKUP_SRC, "hello world"])
    tgt = write_lines(tmp_path / "s.tgt", [MARKUP_REF, "bonjour tout le monde"])
    code, _ = run(
        capsys, "prepare", "--mode", "structural", "--vocab", str(vocab_path),
        "--src", src, "--tgt", tgt, "--out-dir", str(tmp_path / "prep"),
    )
    assert code == 0
    assert sorted(map(" ".join, calls)) == sorted(
        [MARKUP_SRC, MARKUP_REF, "hello world", "bonjour tout le monde"]
    )
