"""No input makes a command raise, and no line shape blows up its run time.

Every command is run on every kind of input it reads, one input at a time
replaced by a line past an interpreter limit: a nonterminal spelling with
more digits than int() takes, JSON nested deeper than the recursion limit,
and an integer too long for int(). Each run must return 0 (the line is text,
or skipped) or 2 (a data error).

Each hostile line shape is run once, at one large size, through the per-line
function it stresses, under an absolute time bound."""

import json
import time

import pytest

from ctmt import ReservedVocab
from ctmt.cli import decode_line, main
from ctmt.corpus_io import iter_bitext, meta_record
from ctmt.metrics import EvalRecord, _structure_flags
from ctmt.mining import SamplerConfig, extract_phrase_pairs
from ctmt.structural import build_structural_pair

from conftest import pharaoh_line, write_lines

DIGITS = "1" * 5000  # more than int() takes
LONG_INDEX = " ".join(f"<{kind}_{DIGITS}>" for kind in "XYC")
DEEP = "[" * 200_000 + "]" * 200_000

# input kind -> the hostile line of each hostile input
HOSTILE = {
    "sentence": {"long-index": f"a {LONG_INDEX}", "deep": DEEP, "long-integer": DIGITS},
    "model-output": {
        "long-index": f"<Y_0> {LONG_INDEX} <sep> <Y_0> {LONG_INDEX} x",
        "deep": f"<Y_0> <sep> <Y_0> {DEEP}",
        "long-integer": f"<Y_0> <sep> <Y_0> {DIGITS}",
    },
    "constraints": {
        "long-index": json.dumps({"constraints": [{"src": [f"<X_{DIGITS}>"], "tgt": [f"<Y_{DIGITS}>"]}]}),
        "deep": '{"constraints": ' + DEEP + "}",
        "long-integer": '{"constraints": [], "n": ' + DIGITS + "}",
    },
    "spans": {  # an index int() still takes, past any sentence's end
        "long-index": json.dumps({"spans": [{"src": [0, 10**4000], "tgt": [0, 1]}]}),
        "deep": '{"spans": ' + DEEP + "}",
        "long-integer": '{"spans": [], "n": ' + DIGITS + "}",
    },
    "meta": {
        "long-index": json.dumps({"constraints": [{"src": [f"<X_{DIGITS}>"], "tgt": [f"<Y_{DIGITS}>"]}],
                                  "source_tags": [f"<X_{DIGITS}>"], "index": 0}),
        "deep": '{"constraints": ' + DEEP + "}",
        "long-integer": '{"index": ' + DIGITS + "}",
    },
    "vocab": {
        "long-index": json.dumps({"sep_token": f"<Y_{DIGITS}>", "registered_tags": [f"<X_{DIGITS}>"]}),
        "deep": '{"registered_tags": ' + DEEP + "}",
        "long-integer": '{"max_index": ' + DIGITS + "}",
    },
    "alignments": {"long-index": f"0-0 1-{DIGITS}", "deep": DEEP, "long-integer": f"{DIGITS}-0"},
}

# each command's options that name an input, with the kind of input each reads
READS = {
    "prepare": {"src": "sentence", "tgt": "sentence", "constraints": "constraints",
                "spans": "spans", "vocab": "vocab"},
    "encode": {"src": "sentence", "constraints": "constraints", "spans": "spans", "vocab": "vocab"},
    "decode": {"meta": "meta", "model-output": "model-output", "vocab": "vocab"},
    "sample": {"src": "sentence", "tgt": "sentence", "align": "alignments"},
    "evaluate": {"hyp": "sentence", "ref": "sentence", "constraints": "constraints", "vocab": "vocab"},
    "roundtrip": {"src": "sentence", "tgt": "sentence", "constraints": "constraints",
                  "spans": "spans", "vocab": "vocab"},
    "bench": {"src": "sentence", "tgt": "sentence", "constraints": "constraints",
              "spans": "spans", "vocab": "vocab"},
}

# a one-line input of each option that every command reads without fault
BENIGN = {
    "src": "a b", "tgt": "x y", "hyp": "x y", "ref": "x y",
    "constraints": json.dumps({"constraints": [{"src": ["a"], "tgt": ["x"]}]}),
    "spans": json.dumps({"spans": [{"src": [0, 1], "tgt": [0, 1]}]}),
    "vocab": "{}", "align": "0-0 1-1", "model-output": "<Y_0> <C_1> <sep> <Y_0> y",
}

CASES = [
    pytest.param(command, option, hostile, id=f"{command}-{option}-{hostile}")
    for command, options in READS.items()
    for option in options
    for hostile in ("long-index", "deep", "long-integer")
]


@pytest.mark.parametrize("command, option, hostile", CASES)
def test_no_hostile_input_makes_a_command_raise(tmp_path, capsys, command, option, hostile):
    lines = {name: BENIGN.get(name) for name in READS[command]}
    lines[option] = HOSTILE[READS[command][option]][hostile]
    files = {name: write_lines(tmp_path / name, [line]) for name, line in lines.items() if name != "meta"}
    out = str(tmp_path / "out")
    if command == "decode":
        enc = ["encode", "--src", write_lines(tmp_path / "s", ["a b"]), "--out-dir", out,
               "--constraints", write_lines(tmp_path / "c", [BENIGN["constraints"]])]
        assert main(enc) == 0
        if option == "meta":
            write_lines(tmp_path / "out" / "encode.meta.jsonl", [lines["meta"]])
        argv = ["decode", "--encode-dir", out]
    else:
        argv = [command, *(["--out-dir", out] if command in ("prepare", "encode") else [])]
        argv += ["--out", out] if command == "sample" else []
        argv += ["--baseline-tps", "1e-9"] if command == "bench" else []  # a gate no run misses
    for name, path in files.items():
        argv += [f"--{name}", path]
    assert main(argv) in (0, 2)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# run time: each shape at N tokens, through the function it stresses

N = 8_000
# Every shape takes at most 0.3 s on a 2-CPU VM. A path that does Python-level
# work for each pair of tokens runs tens of millions of steps at N: a mining
# consistency check that scans every link per candidate pair took 36 s.
BOUND_S = 2.0
# max_index above N, so that the nonterminals do not cap the shapes
TAGS = ReservedVocab(max_index=20_000, registered_tags=frozenset({"<b>", "</b>", "<br/>"}))
NESTED = ["<b>", "w"] * (N // 4) + ["</b>", "w"] * (N // 4)  # tags nested N/4 deep
VOIDS = ["<br/>"] * N


def _nested_pair(tmp_path):
    run = lambda: build_structural_pair(NESTED, NESTED, vocab=TAGS)
    return run, lambda example: example.target_tags == NESTED[::2]


def _nested_decode(tmp_path):
    example = build_structural_pair(NESTED, NESTED, vocab=TAGS)
    meta = meta_record("structural", example, 0)
    run = lambda: decode_line(example.target_output, meta, TAGS)
    return run, lambda out: out[0] == NESTED and out[1]["valid"]


def _void_decode(tmp_path):
    meta = {"mode": "structural", "source_tags": VOIDS, "index": 0}
    run = lambda: decode_line([*VOIDS, "<sep>"], meta, TAGS)
    return run, lambda out: out[0] == VOIDS and out[1]["valid"]


def _nested_structure_flags(tmp_path):
    run = lambda: _structure_flags(EvalRecord(NESTED, NESTED), TAGS)
    return run, lambda flags: flags == (True, True)


def _garbage_derivations(tmp_path):
    # N/4 nonterminals; each rule is followed by a stray separator and a C-nonterminal
    template = [f"<Y_{i}>" for i in range(N // 4)]
    tail = [*template, "<sep>", "g", *(t for y in template for t in (y, "g", "<sep>", "<C_3>"))]
    meta = {"mode": "lexical", "constraints": [], "index": 0}
    run = lambda: decode_line(tail, meta, TAGS)
    return run, lambda out: out[0] == ["g"] * (N // 4) and not out[1]["valid"]


def _identity_aligned_line(tmp_path):
    src = write_lines(tmp_path / "src", [" ".join(f"s{i}" for i in range(N))])
    tgt = write_lines(tmp_path / "tgt", [" ".join(f"t{i}" for i in range(N))])
    align = write_lines(tmp_path / "align", [pharaoh_line((i, i) for i in range(N))])
    max_len = SamplerConfig().max_len

    def mine():
        return [extract_phrase_pairs(x, y, links, max_len) for x, y, links in iter_bitext(src, tgt, align)]

    # every span of up to max_len tokens is a consistent pair
    return mine, lambda pairs: len(pairs[0]) == sum(N - k + 1 for k in range(1, max_len + 1))


SHAPES = [_nested_pair, _nested_decode, _void_decode, _nested_structure_flags,
          _garbage_derivations, _identity_aligned_line]


@pytest.mark.parametrize("shape", SHAPES, ids=[f.__name__.lstrip("_") for f in SHAPES])
def test_no_line_shape_blows_up_its_run_time(tmp_path, shape):
    run, check = shape(tmp_path)
    started = time.perf_counter()
    result = run()
    assert time.perf_counter() - started < BOUND_S
    assert check(result)
