"""Line-aligned commands stream their corpus: memory is set by a line or a
decode chunk, not by the corpus; a failure at any line writes nothing; and
decode's chunks and translator shards leave its output bytes unchanged."""

import json
import os
import stat
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import ctmt
import ctmt.metrics  # imported before any peak is traced, so that no peak counts it
from ctmt import corpus_io, lexical
from ctmt.cli import CHUNK_LINES, decode_line, main
from ctmt.vocab import DEFAULT_VOCAB

from conftest import KEYED_TRANSLATOR, make_lexical_corpus, pharaoh_line, write_lines


def _fresh_interpreter(code: str):
    """What ``code`` prints as JSON, run in a new interpreter that imports ctmt from here."""
    src = str(Path(ctmt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, check=True)
    return json.loads(run.stdout)


# What no command loads at start: the value classes are plain classes, logging
# is imported with the first record, and the structural code by structural mode.
START_UP_FREE = {"dataclasses", "inspect", "logging", "traceback", "ctmt.structural"}


def test_importing_the_cli_loads_no_process_machinery():
    # subprocess, shlex and concurrent.futures are imported on the decode path
    # only, the metrics by evaluate and roundtrip only, and mining by sample only
    added = set(_fresh_interpreter(
        """\
        import json, sys
        before = set(sys.modules)
        import ctmt.cli
        print(json.dumps(sorted(set(sys.modules) - before)))
        """
    ))
    assert "ctmt.cli" in added
    assert not added & {"subprocess", "concurrent.futures", "tempfile", "ctmt.metrics", "ctmt.mining"}
    assert not added & START_UP_FREE


def test_a_lexical_evaluate_loads_no_logging_nor_structural_code(tmp_path):
    hyp = write_lines(tmp_path / "l.hyp", ["a b c"])
    ref = write_lines(tmp_path / "l.ref", ["a c b"])
    cons = write_lines(tmp_path / "l.cons.jsonl", [json.dumps({"constraints": [{"src": ["s"], "tgt": ["b"]}]})])
    code, added = _fresh_interpreter(
        f"""\
        import contextlib, io, json, sys
        before = set(sys.modules)
        from ctmt.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["evaluate", "--hyp", {hyp!r}, "--ref", {ref!r}, "--constraints", {cons!r}])
        print(json.dumps([code, sorted(set(sys.modules) - before)]))
        """
    )
    assert code == 0
    assert "ctmt.metrics" in added
    assert not set(added) & START_UP_FREE


def test_every_public_name_imports_from_the_package():
    names = _fresh_interpreter(
        """\
        import json, ctmt
        from ctmt import *
        print(json.dumps([name for name in ctmt.__all__ if name not in globals()]))
        """
    )
    assert names == []
    assert all(getattr(ctmt, name) is not None for name in ctmt.__all__)
    assert "reconstruct" in dir(ctmt)
    with pytest.raises(AttributeError, match="no_such_name"):
        ctmt.no_such_name


@pytest.mark.parametrize("data", [b"", b"\n", b"a", b"a\n", b"a\nb", b"a\r\nb\n", b"\n\n", b"x" * 70000])
def test_the_count_pass_counts_the_lines_the_reader_yields(tmp_path, data):
    path = tmp_path / "lines.txt"
    path.write_bytes(data)
    lines = [line for line, in corpus_io.iter_lines(path)]
    assert corpus_io.count_lines(path) == len(lines)
    assert "".join(line + "\n" for line in lines).encode() in (data, data + b"\n")


# ---------------------------------------------------------------------------
# memory is bounded


def _corpus(tmp_path, n):
    """A lexical corpus of n lines with mined constraints and spans."""
    pairs, alignments = make_lexical_corpus(n, seed=11, max_len=20)
    d = tmp_path / str(n)
    d.mkdir()
    files = {
        "src": write_lines(d / "c.src", [" ".join(x) for x, _ in pairs]),
        "tgt": write_lines(d / "c.tgt", [" ".join(y) for _, y in pairs]),
        "align": write_lines(d / "c.align", [pharaoh_line(links) for links in alignments]),
    }
    stem = str(d / "mined")
    assert main(["sample", "--src", files["src"], "--tgt", files["tgt"],
                 "--align", files["align"], "--out", stem, "--seed", "3"]) == 0
    files.update(cons=stem + ".cons.jsonl", spans=stem + ".spans.jsonl", dir=d)
    return files


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _stages(f):
    """(name, argv, output files) of prepare, encode and decode on corpus f."""
    d = f["dir"]
    corpus = ["--src", f["src"], "--constraints", f["cons"], "--spans", f["spans"]]
    return [
        ("prepare", ["prepare", *corpus, "--tgt", f["tgt"], "--out-dir", str(d / "prep")],
         [d / "prep" / name for name in ("train.xprime", "train.yprime", "train.meta.jsonl")]),
        ("encode", ["encode", *corpus, "--out-dir", str(d / "enc")],
         [d / "enc" / name for name in ("encode.xprime", "encode.prefix", "encode.meta.jsonl")]),
        ("decode", ["decode", "--encode-dir", str(d / "enc"), "--model-output", str(d / "answers"),
                    "--out-dir", str(d / "dec")],
         [d / "dec" / name for name in ("decode.out", "decode.audit.jsonl")]),
    ]


def _checking_stages(f):
    """(name, argv) of bench, roundtrip and evaluate --per-sentence on corpus f,
    which keep no output per line; evaluate scores the decode output of _stages."""
    d = f["dir"]
    corpus = ["--src", f["src"], "--tgt", f["tgt"], "--constraints", f["cons"], "--spans", f["spans"]]
    return [
        ("bench", ["bench", *corpus, "--budget-fraction", "1"]),  # tracing slows every pass
        ("roundtrip", ["roundtrip", *corpus]),
        ("evaluate", ["evaluate", "--hyp", str(d / "dec" / "decode.out"), "--ref", f["tgt"],
                      "--constraints", f["cons"], "--per-sentence", str(d / "sentences.tsv")]),
    ]


def _whole_file_outputs(f) -> dict[str, list[str]]:
    """Every output of _stages, made line by line by the library functions."""
    train, enc = [], []
    for i, (x, y, c, s) in enumerate(corpus_io.iter_corpus(f["src"], f["tgt"], f["cons"], f["spans"])):
        src_spans, tgt_spans = [a for a, _ in s], [b for _, b in s]
        pair = lexical.build_training_pair(x, y, c, tgt_spans, vocab=DEFAULT_VOCAB, src_spans=src_spans)
        train.append((pair.encoder_input, pair.target_output, corpus_io.meta_record("lexical", pair, i)))
        example = lexical.build_inference_input(x, c, vocab=DEFAULT_VOCAB, src_spans=src_spans)
        enc.append((example.encoder_input, example.decoder_prefix,
                     corpus_io.meta_record("lexical", example, i)))
    answers = corpus_io.read_token_lines(f["dir"] / "answers")
    metas = [corpus_io.parse_meta(corpus_io.json_line(meta), i + 1) for i, (*_, meta) in enumerate(enc)]
    decoded = [decode_line(tail, meta, DEFAULT_VOCAB) for tail, meta in zip(answers, metas)]
    tokens = lambda seqs: [corpus_io.token_line(s) for s in seqs]
    jsons = lambda records: [corpus_io.json_line(r) for r in records]
    return {
        "prepare": tokens(t[0] for t in train) + tokens(t[1] for t in train) + jsons(t[2] for t in train),
        "encode": tokens(e[0] for e in enc) + tokens(e[1] for e in enc) + jsons(e[2] for e in enc),
        "decode": tokens(s for s, _ in decoded) + jsons(a for _, a in decoded),
    }


def test_peak_memory_does_not_grow_with_the_corpus(tmp_path, capsys):
    n = CHUNK_LINES + 44  # so that both runs fill a whole decode chunk
    corpora = [_corpus(tmp_path, size) for size in (n, 10 * n)]
    for f in corpora:
        # the gold continuation of every line is its model output
        prep = f["dir"] / "gold"
        assert main(["prepare", "--src", f["src"], "--tgt", f["tgt"], "--constraints", f["cons"],
                     "--spans", f["spans"], "--out-dir", str(prep)]) == 0
        with open(f["dir"] / "answers", "w", encoding="utf-8") as answers:
            for yprime in corpus_io.read_token_lines(prep / "train.yprime"):
                answers.write(corpus_io.token_line(yprime[yprime.index("<sep>") + 1 :]))
    peaks = {}
    small_stages, large_stages = (_stages(f) + _checking_stages(f) for f in corpora)
    for (name, small, *_), (_, large, *_) in zip(small_stages, large_stages):
        # an unmeasured first run, so that neither peak counts the caches and
        # free lists that earlier tests in this process did or did not fill
        assert main(small) == 0
        peaks[name] = [_traced_peak(small), _traced_peak(large)]
    for f, lines in zip(corpora, (n, 10 * n)):
        expected = _whole_file_outputs(f)
        for name, _, outputs in _stages(f):
            written = []
            for path in outputs:
                with path.open(encoding="utf-8", newline="") as out:
                    written.extend(out)
            assert written == expected[name], name
        assert (f["dir"] / "sentences.tsv").read_bytes().count(b"\n") == 1 + lines
    assert all('"skipped": 0' in line for line in capsys.readouterr().out.splitlines() if "skipped" in line)
    for name, (small, large) in peaks.items():
        assert large < 2 * small, (name, small, large)


# ---------------------------------------------------------------------------
# a failure mid-stream writes nothing

NOT_UTF8_THIRD = textwrap.dedent(
    """\
    #!/usr/bin/env python3
    import sys

    # test translator: its third answer is not UTF-8
    for i, _ in enumerate(sys.stdin.buffer):
        sys.stdout.buffer.write(b"caf\\xe9\\n" if i == 2 else b"<Y_0> <sep> <Y_0> ok\\n")
        sys.stdout.flush()
    """
)


def _encode(tmp_path, n):
    src = write_lines(tmp_path / "s.src", [f"w{i} k" for i in range(n)])
    enc_dir = tmp_path / "enc"
    assert main(["encode", "--src", src, "--out-dir", str(enc_dir)]) == 0
    return enc_dir


def _bad_constraints_last(tmp_path, out):
    n = 2 * CHUNK_LINES + 3
    src = write_lines(tmp_path / "s.src", [f"w{i} k" for i in range(n)])
    cons = tmp_path / "c.jsonl"
    cons.write_bytes(b'{"constraints": [{"src": ["k"], "tgt": ["K"]}]}\n' * (n - 1)
                     + b'{"constraints": [{"src": ["k"], "tgt": ["caf\xe9"]}]}\n')
    argv = ["encode", "--src", src, "--constraints", str(cons), "--out-dir", str(out)]
    return argv, ["encode.xprime", "encode.prefix", "encode.meta.jsonl"], f"line {n}: not valid UTF-8 ({cons})"


def _bad_meta_last(tmp_path, out):
    n = 2 * CHUNK_LINES + 3
    enc_dir = _encode(tmp_path, n)
    meta = enc_dir / "encode.meta.jsonl"
    meta.write_bytes(meta.read_bytes().rsplit(b"\n", 2)[0] + b'\n{"index": \n')
    answers = write_lines(tmp_path / "answers", ["<Y_0> <sep> <Y_0> ok"] * n)
    argv = ["decode", "--encode-dir", str(enc_dir), "--model-output", answers, "--out-dir", str(out)]
    return argv, ["decode.out", "decode.audit.jsonl"], f"line {n}: invalid JSON"


def _bad_third_answer(tmp_path, out):
    enc_dir = _encode(tmp_path, 5)
    script = tmp_path / "not_utf8_third.py"
    script.write_text(NOT_UTF8_THIRD, encoding="utf-8")
    argv = ["decode", "--encode-dir", str(enc_dir), "--translator", f"{sys.executable} {script}",
            "--out-dir", str(out)]
    return argv, ["decode.out", "decode.audit.jsonl"], "not valid UTF-8 (translator "


@pytest.mark.parametrize(
    "make_argv", [_bad_constraints_last, _bad_meta_last, _bad_third_answer],
    ids=["encode-constraints-last-line", "decode-meta-last-line", "translator-third-answer"],
)
@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "earlier-output"])
def test_a_failure_mid_stream_writes_nothing(tmp_path, capsys, make_argv, earlier):
    out = tmp_path / "out" / "run"
    argv, outputs, message = make_argv(tmp_path, out)
    if earlier:
        out.mkdir(parents=True)
        for name in outputs:
            (out / name).write_bytes(b"earlier output of " + name.encode() + b"\n")
    before = {p.name: p.read_bytes() for p in out.iterdir()} if earlier else None
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ctmt: " + message) and err.count("\n") == 1
    if earlier:
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    else:
        assert not (tmp_path / "out").exists()


def test_a_directory_at_an_output_path_fails_before_any_output_moves(tmp_path, capsys):
    src = write_lines(tmp_path / "s.src", ["a"])
    tgt = write_lines(tmp_path / "s.tgt", ["x"])
    out = tmp_path / "out"
    (out / "train.meta.jsonl").mkdir(parents=True)
    assert main(["prepare", "--src", src, "--tgt", tgt, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"ctmt: [Errno 21] Is a directory: '{out / 'train.meta.jsonl'}'\n"
    assert [p.name for p in out.iterdir()] == ["train.meta.jsonl"]


def _evaluate_one_line(tmp_path, *outputs):
    """evaluate of a one-line file against itself, with --report and --per-sentence as given."""
    t = write_lines(tmp_path / "t", ["a b"])
    argv = ["evaluate", "--hyp", t, "--ref", t]
    for option, path in zip(["--report", "--per-sentence"], outputs):
        argv += [option, str(path)]
    return main(argv)


@pytest.mark.parametrize("via_link", [False, True], ids=["fifo", "symlink-to-fifo"])
def test_a_fifo_at_an_output_path_fails_before_any_output_moves(tmp_path, capsys, via_link):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    path = tmp_path / "link" if via_link else fifo
    if via_link:
        path.symlink_to(fifo)
    report = tmp_path / "report.json"
    assert _evaluate_one_line(tmp_path, report, path) == 2
    assert capsys.readouterr().err == f"ctmt: output path is not a regular file ({path})\n"
    assert stat.S_ISFIFO(fifo.lstat().st_mode) and path.is_symlink() == via_link
    assert not report.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["t", "fifo"] + (["link"] if via_link else []))


def test_a_symlinked_output_path_replaces_its_target(tmp_path, capsys):
    real = tmp_path / "real.json"
    real.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    assert _evaluate_one_line(tmp_path, link) == 0
    assert link.is_symlink() and link.resolve() == real
    assert real.read_text(encoding="utf-8") == capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json", "t"]


def test_a_staging_file_left_by_a_killed_run_is_not_in_the_way(tmp_path):
    src = write_lines(tmp_path / "s.src", ["a b"])
    tgt = write_lines(tmp_path / "s.tgt", ["x y"])
    runs = [tmp_path / "out", tmp_path / "clean"]
    stale = runs[0] / f"train.xprime.{os.getpid()}.tmp"  # a killed run's, under this PID
    runs[0].mkdir()
    stale.write_bytes(b"left by a killed run\n")
    for out in runs:
        assert main(["prepare", "--src", src, "--tgt", tgt, "--out-dir", str(out)]) == 0
    assert stale.read_bytes() == b"left by a killed run\n"
    outputs = ["train.xprime", "train.yprime", "train.meta.jsonl"]
    assert sorted(p.name for p in runs[0].iterdir()) == sorted([stale.name, *outputs])
    for name in outputs:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


# ---------------------------------------------------------------------------
# chunk boundaries


def _keyed_decode_setup(tmp_path, n):
    """An encode directory of n lines with constraints, a translator keyed by
    request line, and the same answers as a --model-output file."""
    pairs, _ = make_lexical_corpus(n, seed=5, max_len=12)
    src = write_lines(tmp_path / "k.src", [" ".join(x) for x, _ in pairs])
    cons = write_lines(tmp_path / "k.cons.jsonl", [
        json.dumps({"constraints": [{"src": x[:1], "tgt": y[-1:]}] if i % 3 else []})
        for i, (x, y) in enumerate(pairs)
    ])
    enc_dir = tmp_path / "enc"
    assert main(["encode", "--src", src, "--constraints", cons, "--out-dir", str(enc_dir)]) == 0
    xprime = (enc_dir / "encode.xprime").read_text(encoding="utf-8").splitlines()
    prefix = (enc_dir / "encode.prefix").read_text(encoding="utf-8").splitlines()
    assert len(xprime) == n
    table = {}  # a request repeated on two lines keeps its first answer on both paths
    for (_, y), xp, pre in zip(pairs, xprime, prefix):
        tail = ["<Y_0>", "<sep>", "<Y_0>", *y, *(["<C_1>"] if "<C_1>" in pre.split() else [])]
        table.setdefault(xp + "\t" + pre, " ".join(tail))
    answers = write_lines(tmp_path / "answers", [table[xp + "\t" + pre] for xp, pre in zip(xprime, prefix)])
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(table, ensure_ascii=False), encoding="utf-8")
    return enc_dir, answers, table_path


def test_decode_bytes_are_the_same_across_chunks_and_shards(tmp_path, capsys):
    n = 2 * CHUNK_LINES + 3
    enc_dir, answers, table_path = _keyed_decode_setup(tmp_path, n)
    script = tmp_path / "keyed_translator.py"
    script.write_text(KEYED_TRANSLATOR, encoding="utf-8")
    ref = tmp_path / "ref"
    assert main(["decode", "--encode-dir", str(enc_dir), "--model-output", answers,
                 "--out-dir", str(ref)]) == 0
    expected = [(ref / name).read_bytes() for name in ("decode.out", "decode.audit.jsonl")]
    assert expected[0].count(b"\n") == n
    for shards in (1, 2, 4):
        out = tmp_path / f"shards{shards}"
        assert main(["decode", "--encode-dir", str(enc_dir), "--shards", str(shards), "--out-dir", str(out),
                     "--translator", f"{sys.executable} {script} {table_path}"]) == 0
        assert [(out / name).read_bytes() for name in ("decode.out", "decode.audit.jsonl")] == expected
        assert sorted(p.name for p in out.iterdir()) == ["decode.audit.jsonl", "decode.out"]
    summaries = [json.loads(line) for line in capsys.readouterr().out.splitlines() if "sentences" in line]
    assert len(summaries) == 4 and all(s == summaries[0] for s in summaries)


LATE_SURPLUS = textwrap.dedent(
    """\
    #!/usr/bin/env python3
    import sys

    # test translator: answers every request, then writes one more line once its input ends
    for line in sys.stdin:
        sys.stdout.write("<Y_0> <sep> <Y_0> ok\\n")
        sys.stdout.flush()
    sys.stdout.write("late\\n")
    """
)


@pytest.mark.parametrize("shards", [1, 2])
def test_surplus_after_the_last_chunk_is_data_error(tmp_path, capsys, shards):
    enc_dir = _encode(tmp_path, CHUNK_LINES + 1)
    script = tmp_path / "late_surplus.py"
    script.write_text(LATE_SURPLUS, encoding="utf-8")
    capsys.readouterr()
    assert main(["decode", "--encode-dir", str(enc_dir), "--shards", str(shards),
                 "--translator", f"{sys.executable} {script}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ctmt: translator ") and err.endswith(" sent 1 lines no request asked for\n")
    assert sorted(p.name for p in enc_dir.iterdir()) == ["encode.meta.jsonl", "encode.prefix", "encode.xprime"]
