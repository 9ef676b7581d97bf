"""No input makes a command raise. Every command is run on every kind of
input it reads, one input at a time replaced by a line past an interpreter
limit: a nonterminal spelling with more digits than int() takes, JSON nested
deeper than the recursion limit, and an integer too long for int(). Each run
must return 0 (the line is text, or skipped) or 2 (a data error)."""

import json

import pytest

from ctmt.cli import main

from conftest import write_lines

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
