import json
import random
import stat
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from ctmt import corpus_io
from ctmt.cli import TranslatorBridge, main, shard_ranges
from ctmt.lexical import decoder_prefix_of
from ctmt.vocab import DEFAULT_VOCAB

from conftest import (
    GOLD_ENC,
    GOLD_OUTPUT,
    GOLD_PREFIX,
    GOLD_RESULT,
    GOLD_SRC,
    MARKUP_REF,
    MARKUP_SRC,
    MARKUP_XPRIME,
    TAGGED_VOCAB,
    make_lexical_corpus,
    make_structural_corpus,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_json(out):
    return json.loads(out[out.index("{"):]) if "{" in out else {}


def write_lines(path, rows):
    path.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
    return str(path)


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
    assert " ".join(decoder_prefix_of(yprime, DEFAULT_VOCAB)) == GOLD_PREFIX
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
    corpus_io.save_vocab(vocab_path, TAGGED_VOCAB)
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


def test_structural_encode_decode(tmp_path, capsys):
    vocab_path = tmp_path / "vocab.json"
    corpus_io.save_vocab(vocab_path, TAGGED_VOCAB)
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
    code, out = run(
        capsys, "decode", "--mode", "structural", "--vocab", str(vocab_path),
        "--encode-dir", str(enc_dir), "--model-output", model_out,
    )
    assert code == 0
    summary = last_json(out)
    assert summary["template_accuracy"] == 100.0
    assert summary["omitted_nonterminals"] == 2  # Y0 and Y4
    decoded = (enc_dir / "decode.out").read_text(encoding="utf-8").rstrip("\n")
    assert decoded == "<ph> Chaque tableau <ph> 3 </ph> filtres . </ph>"


def test_structural_evaluate(tmp_path, capsys):
    vocab_path = tmp_path / "vocab.json"
    corpus_io.save_vocab(vocab_path, TAGGED_VOCAB)
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
    align = tmp_path / "c.align"
    corpus_io.write_alignments(align, alignments)
    return src, tgt, str(align)


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


def test_sample_deterministic_across_runs_and_shards(tmp_path, capsys):
    src, tgt, align = _write_sample_inputs(tmp_path)
    outputs = []
    for name, shards in (("a", "1"), ("b", "1"), ("c", "4")):
        stem = str(tmp_path / name)
        code, _ = run(
            capsys, "sample", "--src", src, "--tgt", tgt, "--align", align,
            "--out", stem, "--seed", "11", "--shards", shards,
        )
        assert code == 0
        outputs.append(
            (
                Path(stem + ".cons.jsonl").read_bytes(),
                Path(stem + ".spans.jsonl").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1] == outputs[2]


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


def test_evaluate_warns_once_per_empty_reference(tmp_path, capsys, caplog):
    hyp = write_lines(tmp_path / "h.txt", ["a b", "c", "d"])
    ref = write_lines(tmp_path / "r.txt", ["a b", "", "d"])
    code, _ = run(capsys, "evaluate", "--hyp", hyp, "--ref", ref,
                  "--per-sentence", str(tmp_path / "per.tsv"))
    assert code == 0
    warnings = [r.getMessage() for r in caplog.records if "empty reference" in r.getMessage()]
    assert warnings == ["line 2: empty reference skipped"]


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
    hyp = write_lines(tmp_path / "h.txt", ["a B c", "x", "D e"])
    ref = write_lines(tmp_path / "r.txt", ["a c B", "", "D f"])
    cons = write_lines(
        tmp_path / "c.jsonl",
        [
            json.dumps({"constraints": [{"src": ["b"], "tgt": ["B"]}]}),
            json.dumps({"constraints": []}),
            json.dumps({"constraints": [{"src": ["d"], "tgt": ["D"]}, {"src": ["e"], "tgt": ["E"]}]}),
        ],
    )
    code, _ = run(capsys, "evaluate", "--hyp", hyp, "--ref", ref, "--constraints", cons,
                  "--per-sentence", str(tmp_path / "per.tsv"))
    assert code == 0
    assert calls == [
        ("claim", "a B c"), ("claim", "a c B"), ("shift", "a c B"),
        ("claim", "x"), ("claim", ""),
        ("claim", "D e"), ("claim", "D f"), ("shift", "D f"),
    ]


def test_structural_evaluate_per_sentence_rows_score_each_line_alone(tmp_path, capsys):
    vocab_path = tmp_path / "vocab.json"
    corpus_io.save_vocab(vocab_path, TAGGED_VOCAB)
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
    align = tmp_path / "rt.align"
    corpus_io.write_alignments(align, alignments)
    return src, tgt, str(align)


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


def test_prepare_shard_invariance(tmp_path, capsys):
    src, tgt, align = _write_roundtrip_corpus(tmp_path, n=37, seed=5)
    stem = str(tmp_path / "m")
    run(capsys, "sample", "--src", src, "--tgt", tgt, "--align", align,
        "--out", stem, "--seed", "3")
    blobs = []
    for shards in ("1", "4"):
        out_dir = tmp_path / f"prep{shards}"
        code, _ = run(
            capsys, "prepare", "--src", src, "--tgt", tgt,
            "--constraints", stem + ".cons.jsonl", "--spans", stem + ".spans.jsonl",
            "--out-dir", str(out_dir), "--shards", shards,
        )
        assert code == 0
        blobs.append(
            tuple((out_dir / name).read_bytes() for name in
                  ("train.xprime", "train.yprime", "train.meta.jsonl"))
        )
    assert blobs[0] == blobs[1]


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
        first = bridge.translate(["<sep>", "<X_0>"], ["<sep>"])
        second = bridge.translate(["x"], [])
        assert first == ["<Y_0>", "<sep>", "<Y_0>", "ok"]
        assert second == ["second", "line"]


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


def test_bench_empty_corpus(tmp_path, capsys):
    src = write_lines(tmp_path / "e.src", [])
    tgt = write_lines(tmp_path / "e.tgt", [])
    code, out = run(capsys, "bench", "--src", src, "--tgt", tgt)
    assert code == 0
    assert last_json(out)["sentences"] == 0


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
    # corrupting the reconstruction comparison must surface as exit 3
    src = write_lines(tmp_path / "v.src", ["a b"])
    tgt = write_lines(tmp_path / "v.tgt", ["x y"])
    import ctmt.cli as cli_mod

    real = cli_mod.decode_line

    def broken(mode, tail, meta, vocab):
        sentence, audit = real(mode, tail, meta, vocab)
        return sentence + ["!!"], audit

    monkeypatch.setattr(cli_mod, "decode_line", broken)
    code, out = run(capsys, "roundtrip", "--src", src, "--tgt", tgt)
    assert code == 3
    assert any("line 1" in v for v in last_json(out)["violations"])


def test_console_script_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "ctmt.cli"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1


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
    corpus_io.save_vocab(vocab_path, TAGGED_VOCAB)
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
    ],
)
def test_bad_option_values_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("ctmt: ") and err.count("\n") == 1


def test_encode_searches_spans_once_per_line(tmp_path, capsys, monkeypatch):
    import ctmt.lexical as lexical_mod

    calls = []
    real = lexical_mod.find_disjoint_assignment

    def counting(tokens, phrases, *args, **kwargs):
        calls.append(len(phrases))
        return real(tokens, phrases, *args, **kwargs)

    monkeypatch.setattr(lexical_mod, "find_disjoint_assignment", counting)
    src = write_lines(tmp_path / "c.src", ["a b c", "c d", "e"])
    cons = write_lines(
        tmp_path / "c.cons.jsonl",
        [
            json.dumps({"constraints": [{"src": ["b"], "tgt": ["B"]}, {"src": ["a"], "tgt": ["A"]}]}),
            json.dumps({"constraints": [{"src": ["d"], "tgt": ["D"]}]}),
            json.dumps({"constraints": [{"src": ["e"], "tgt": ["E"]}]}),
        ],
    )
    code, out = run(capsys, "encode", "--src", src, "--constraints", cons,
                    "--out-dir", str(tmp_path / "enc"))
    assert code == 0 and last_json(out)["written"] == 3
    assert calls == [2, 1, 1]


def test_structural_prepare_segments_each_sentence_once(tmp_path, capsys, monkeypatch):
    import ctmt.structural as structural_mod

    calls = []
    real = structural_mod.segment_tagged

    def counting(x, vocab):
        calls.append(list(x))
        return real(x, vocab)

    monkeypatch.setattr(structural_mod, "segment_tagged", counting)
    vocab_path = tmp_path / "vocab.json"
    corpus_io.save_vocab(vocab_path, TAGGED_VOCAB)
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
