"""Every per-layer figure of the traced benchmark that a command path fires
still fires: a refactor that moves a traced function off its command path
would turn its figure to 0 without failing any other test.

The stages run in this process under ``perfbench/tracing.py``'s Tracer on a
3-line corpus. The figures listed in READ_ZERO wrap functions that no command
calls; they read 0 here, and a benchmark change that retargets them updates
the list."""

import json
import sys
import textwrap
import time

from ctmt.cli import main

from conftest import pharaoh_line, write_lines
from test_perfbench_names import tracing

READ_ZERO = {
    "metrics.evaluate.self_s",
    "metrics.term.self_s",
    "metrics.bleu.self_s",
    "metrics.exact_match.self_s",
    "metrics.window_overlap.self_s",
    "metrics.structure.self_s",
    "metrics.term.share",
    "corpus_io.write.self_s",
    "corpus_io.lines",
    # decode reads, judges and expands a line with lexical.read_output,
    # template_law and expand, which no span wraps
    "lexical.parse.self_s",
    "lexical.validate.self_s",
    "lexical.validate.invalid",
    "lexical.reconstruct.self_s",
    "structural.parse.self_s",
    "structural.validate.self_s",
    # shifted_edit_cost reads its distance from the rows of its own DP
    # (metrics._all_rows), not from weighted_edit_distance
    "metrics.edit_distance.calls",
}

# The first request is answered with a template that leaves out its
# constraint (valid output, invalid template), the second with garbage.
STUB = textwrap.dedent(
    """\
    import sys

    answers = iter(["<Y_0> <sep> <Y_0> z", "<sep> <sep> <sep>"])
    for request in sys.stdin:
        print(next(answers, ""), flush=True)
    """
)


def _stages(tmp_path):
    """(argv) of every stage, on 3-line corpora written under tmp_path."""
    w = lambda name, rows: write_lines(tmp_path / name, rows)
    src = w("lex.src", ["a b c", "d e", "f g h"])
    tgt = w("lex.tgt", ["x y z", "u v", "p q r"])
    align = w("lex.align", [pharaoh_line({(0, 0), (1, 1), (2, 2)}), pharaoh_line({(0, 0), (1, 1)}),
                            pharaoh_line({(0, 0), (1, 1), (2, 2)})])
    mined = str(tmp_path / "mined")
    lexical = ["--src", src, "--tgt", tgt, "--constraints", mined + ".cons.jsonl", "--spans", mined + ".spans.jsonl"]
    vocab = w("vocab.json", [json.dumps({"registered_tags": ["<b>", "</b>"]})])
    structural = ["--mode", "structural", "--vocab", vocab,
                  "--src", w("tag.src", ["<b> a </b> c", "d e", "f <b> g </b>"]),
                  "--tgt", w("tag.tgt", ["<b> x </b> z", "u v", "p <b> q </b>"])]
    # greedy claiming places "a b" and strands "b a", so the span search runs and finds nothing
    constraint = lambda s, t: {"src": s.split(), "tgt": t.split()}
    enc_src = w("enc.src", ["a b a", "d e", "f g h"])
    enc_cons = w("enc.cons.jsonl", [json.dumps({"constraints": c}) for c in (
        [constraint("a b", "x"), constraint("b a", "y")], [constraint("d", "u")], [constraint("g", "q")],
    )])
    stub = tmp_path / "stub.py"
    stub.write_text(STUB, encoding="utf-8")
    return [
        ["sample", "--src", src, "--tgt", tgt, "--align", align, "--out", mined, "--seed", "1"],
        ["prepare", *lexical, "--out-dir", str(tmp_path / "prep")],
        ["prepare", *structural, "--out-dir", str(tmp_path / "tag")],
        ["roundtrip", *lexical],
        ["roundtrip", *structural],
        ["bench", *lexical, "--budget-fraction", "1000"],
        ["bench", *structural, "--budget-fraction", "1000"],
        ["encode", "--src", enc_src, "--constraints", enc_cons, "--out-dir", str(tmp_path / "enc")],
        ["decode", "--encode-dir", str(tmp_path / "enc"), "--translator", f"{sys.executable} {stub}"],
        ["evaluate", "--hyp", str(tmp_path / "enc" / "decode.out"), "--ref", w("enc.ref", ["u v", "p q r"]),
         "--constraints", w("eval.cons.jsonl", [json.dumps({"constraints": [constraint("d", "u")]}),
                                               json.dumps({"constraints": [constraint("g", "q")]})])],
    ]


def test_every_traced_figure_a_command_fires_is_non_zero(tmp_path, capsys):
    stages = _stages(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        codes = [main(argv) for argv in stages]
        wall_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert codes == [0] * len(stages), capsys.readouterr()
    assert '"skipped": 1, "written": 2' in capsys.readouterr().out  # encode's stranded line
    figures = tracer.summary(wall_s)
    assert {name for name, value in figures.items() if value == 0} == READ_ZERO
