"""The three workloads: their stage commands and the checks on their outputs.

Each workload runs ``ctmt`` stages one after another with default options
and checks every output against what the generator knows. A check
returns the lines lost (skipped by a stage where skipping is allowed),
the lines failed (wrong or missing output) and a message per problem.
"""

from __future__ import annotations

import json
import re
import shlex
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen

HERE = Path(__file__).resolve().parent
STUB = HERE / "stub_translator.py"
NT_RE = re.compile(r"^<([XYC])_(0|[1-9][0-9]*)>$")


@dataclass
class Stage:
    name: str  # the ctmt subcommand
    argv: list[str]  # arguments after ``ctmt``
    lines: int  # input lines the stage attempts
    stdout: str  # file, relative to the output directory, that receives stdout


@dataclass
class StageResult:
    exit_code: int
    stdout: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    scaled_s: float = 0.0  # wall_s at the reference host speed (see run.Runner.stages)


@dataclass
class Outcome:
    attempted: int = 0
    lost: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, lines: int, message: str) -> None:
        self.failed += lines
        self.problems.append(message)


def read_lines(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    return text.split("\n")[:-1] if text else []


def stdout_json(stage: Stage, result: StageResult, outcome: Outcome, lines: int | None = None):
    """The one JSON document a ctmt command prints on stdout, or None,
    failing all lines of the stage, when its stdout is not one."""
    try:
        return json.loads(result.stdout)
    except json.JSONDecodeError:
        outcome.fail(stage.lines if lines is None else lines, f"{stage.name} printed no JSON document")
        return None


def expand(tokens: list[str]) -> list[str]:
    """Rebuild the plain sentence from a serialized stream.

    The template is the second-to-last section; every other section
    lists rules, each opened by a nonterminal. Works for lexical source
    (c s e) and target (d t f) streams and structural ones (s e).
    """
    sections: list[list[str]] = [[]]
    for tok in tokens:
        if tok == gen.SEP:
            sections.append([])
        else:
            sections[-1].append(tok)
    template = sections[-2]
    rules: dict[str, list[str]] = {}
    for section in sections[:-2] + sections[-1:]:
        current = None
        for tok in section:
            if NT_RE.match(tok):
                current = rules.setdefault(tok, [])
            elif current is not None:
                current.append(tok)
    out: list[str] = []
    for tok in template:
        out += rules.get(tok, []) if NT_RE.match(tok) else [tok]
    return out


def check_exit(stage: Stage, result: StageResult, outcome: Outcome, lines: int | None = None) -> bool:
    """False, failing all lines of the stage, when it exited with an error."""
    if result.exit_code != 0:
        outcome.fail(stage.lines if lines is None else lines, f"{stage.name} exited {result.exit_code}")
        return False
    return True


def check_serialized(
    pairs: list[tuple[list[str], list[str]]], out: Path, stage: Stage, result: StageResult, outcome: Outcome
) -> None:
    """prepare: every pair written, in order, and each stream expands back exactly."""
    if not check_exit(stage, result, outcome):
        return
    n = len(pairs)
    summary = stdout_json(stage, result, outcome)
    if summary is None:
        return
    if summary != {"written": n, "skipped": 0}:
        outcome.fail(n, f"prepare summary {summary}, expected {n} written")
        return
    xs = read_lines(out / "train.xprime")
    ys = read_lines(out / "train.yprime")
    metas = read_lines(out / "train.meta.jsonl")
    if not len(xs) == len(ys) == len(metas) == n:
        outcome.fail(n, f"prepare wrote {len(xs)}/{len(ys)}/{len(metas)} lines for {n}")
        return
    bad = [
        i
        for i, ((x, y), xp, yp, meta) in enumerate(zip(pairs, xs, ys, metas))
        if expand(xp.split()) != x or expand(yp.split()) != y or json.loads(meta).get("index") != i
    ]
    if bad:
        outcome.fail(len(bad), f"prepare: {len(bad)} lines do not expand back, first {bad[0] + 1}")


def check_roundtrip(n: int, stage: Stage, result: StageResult, outcome: Outcome) -> None:
    if result.exit_code == 3:
        report = stdout_json(stage, result, outcome, n)
        if report is not None:
            outcome.fail(n, f"roundtrip violations: {report.get('violations', [])[:3]}")
        return
    if not check_exit(stage, result, outcome):
        return
    report = stdout_json(stage, result, outcome, n)
    if report is None:
        return
    if report.get("violations") or report.get("sentences") != n or report.get("skipped") != 0:
        outcome.fail(n, f"roundtrip: {report.get('sentences')} sentences, {report.get('skipped')} skipped")


# ---------------------------------------------------------------------------
# prep


def prep_stages(inputs: gen.PrepInputs, out: Path) -> list[Stage]:
    f = {k: str(v) for k, v in inputs.files.items()}
    lex, tag = len(inputs.lexical), len(inputs.tagged)
    stem = str(out / "mined")
    lexical = ["--src", f["lex.src"], "--tgt", f["lex.tgt"]]
    mined = ["--constraints", stem + ".cons.jsonl", "--spans", stem + ".spans.jsonl"]
    tagged = ["--mode", "structural", "--vocab", f["vocab.json"], "--src", f["tag.src"], "--tgt", f["tag.tgt"]]
    return [
        Stage("sample", ["sample", *lexical, "--align", f["lex.align"], "--out", stem], lex, "sample.json"),
        Stage("prepare", ["prepare", *lexical, *mined, "--out-dir", str(out / "lex")], lex, "prepare.lex.json"),
        Stage("roundtrip", ["roundtrip", *lexical, *mined], lex, "roundtrip.lex.json"),
        Stage("bench", ["bench", *lexical, *mined], lex, "bench.stdout"),
        Stage("prepare", ["prepare", *tagged, "--out-dir", str(out / "tag")], tag, "prepare.tag.json"),
        Stage("roundtrip", ["roundtrip", *tagged], tag, "roundtrip.tag.json"),
    ]


def prep_check(inputs: gen.PrepInputs, out: Path, stages: list[Stage], results: list[StageResult]) -> Outcome:
    outcome = Outcome(attempted=sum(s.lines for s in stages))
    lex = len(inputs.lexical)
    sample, prep_lex, rt_lex, bench, prep_tag, rt_tag = zip(stages, results)
    if check_exit(*sample, outcome) and (summary := stdout_json(*sample, outcome)) is not None:
        cons = read_lines(out / "mined.cons.jsonl")
        spans = read_lines(out / "mined.spans.jsonl")
        if summary.get("sentences") != lex or len(cons) != lex or len(spans) != lex:
            outcome.fail(lex, f"sample wrote {len(cons)}/{len(spans)} lines for {lex}")
    check_serialized(inputs.lexical, out / "lex", *prep_lex, outcome)
    check_roundtrip(lex, *rt_lex, outcome)
    if bench[1].exit_code == 3:
        outcome.fail(lex, "bench: reconstruction over its budget")
    elif check_exit(*bench, outcome) and (report := stdout_json(*bench, outcome)) is not None:
        if report.get("sentences") != lex or report.get("within_budget") is not True:
            outcome.fail(lex, f"bench report {report}")
    check_serialized(inputs.tagged, out / "tag", *prep_tag, outcome)
    check_roundtrip(len(inputs.tagged), *rt_tag, outcome)
    return outcome


PREP_OUTPUTS = [
    "mined.cons.jsonl",
    "mined.spans.jsonl",
    "lex/train.xprime",
    "lex/train.yprime",
    "lex/train.meta.jsonl",
    "roundtrip.lex.json",
    "tag/train.xprime",
    "tag/train.yprime",
    "tag/train.meta.jsonl",
    "roundtrip.tag.json",
]


# ---------------------------------------------------------------------------
# infer


def infer_stages(inputs: gen.InferInputs, out: Path) -> list[Stage]:
    f = inputs.files
    n = len(inputs.lines)
    enc = str(out / "enc")
    translator = shlex.join([sys.executable, str(STUB), str(f["canned"])])
    return [
        Stage(
            "encode",
            ["encode", "--src", str(f["src"]), "--constraints", str(f["constraints"]), "--out-dir", enc],
            n,
            "encode.json",
        ),
        # decode attempts only the lines encode kept; infer_check counts them
        Stage("decode", ["decode", "--encode-dir", enc, "--translator", translator], n, "decode.json"),
    ]


def infer_check(inputs: gen.InferInputs, out: Path, stages: list[Stage], results: list[StageResult]) -> Outcome:
    lines = inputs.lines
    n = len(lines)
    outcome = Outcome(attempted=n)
    (encode, enc_result), (decode, dec_result) = zip(stages, results)
    if not check_exit(encode, enc_result, outcome):
        return outcome
    enc = out / "enc"
    metas = [json.loads(m) for m in read_lines(enc / "encode.meta.jsonl")]
    xprime = read_lines(enc / "encode.xprime")
    prefix = read_lines(enc / "encode.prefix")
    summary = stdout_json(encode, enc_result, outcome)
    if summary is None:
        return outcome
    kept = [m.get("index") for m in metas]
    if (
        summary != {"written": len(metas), "skipped": n - len(metas)}
        or not len(xprime) == len(prefix) == len(metas)
        or kept != sorted(set(kept))
        or not set(kept) <= set(range(n))
    ):
        outcome.fail(n, f"encode output misaligned: summary {summary}, {len(metas)} meta lines")
        return outcome
    kept_set = set(kept)
    for i, line in enumerate(lines):
        if i in kept_set:
            continue
        if line.adversarial:
            outcome.lost += 1
        else:
            outcome.fail(1, f"encode skipped line {i + 1}")
    wrong = [
        i
        for i, xp, pre in zip(kept, xprime, prefix)
        if not lines[i].adversarial and (xp != gen.join(lines[i].encoder) or pre != gen.join(lines[i].prefix))
    ]
    if wrong:
        outcome.fail(len(wrong), f"encode: {len(wrong)} lines serialized wrongly, first {wrong[0] + 1}")

    outcome.attempted += len(kept)
    if not check_exit(decode, dec_result, outcome, len(kept)):
        return outcome
    sentences = read_lines(enc / "decode.out")
    audits = [json.loads(a) for a in read_lines(enc / "decode.audit.jsonl")]
    if not len(sentences) == len(audits) == len(kept):
        outcome.fail(len(kept), f"decode wrote {len(sentences)}/{len(audits)} lines for {len(kept)}")
        return outcome
    fallback = valid = 0
    bad = []
    for i, sentence, audit in zip(kept, sentences, audits):
        line = lines[i]
        if line.adversarial:  # no canned answer: the stub sends an empty line
            ok = audit.get("fallback") is True
        elif line.damage == "dropped_separator":
            ok = audit.get("fallback") is True and audit.get("valid") is False
        elif line.damage == "missing_index":
            ok = audit.get("valid") is False and str(audit.get("reason", "")).startswith(
                "missing constraint index"
            )
        else:
            ok = (
                sentence == gen.join(line.sentence)
                and audit.get("valid") is True
                and bool(audit.get("warnings")) == (line.damage == "repeated_rule")
            )
        ok = ok and audit.get("index") == i
        if not ok:
            bad.append(i)
        fallback += line.adversarial or line.damage == "dropped_separator"
        valid += not line.adversarial and line.damage not in ("dropped_separator", "missing_index")
    if bad:
        outcome.fail(len(bad), f"decode: {len(bad)} lines wrong, first {bad[0] + 1}")
    summary = stdout_json(decode, dec_result, outcome, len(kept))
    expected = {
        "sentences": len(kept),
        "fallback_lines": fallback,
        "omitted_nonterminals": 0,
        "template_accuracy": 100.0 * valid / len(kept) if kept else 100.0,
    }
    if summary is not None and summary != expected:
        outcome.fail(len(kept), f"decode summary {summary}, expected {expected}")
    return outcome


INFER_OUTPUTS = [
    "enc/encode.xprime",
    "enc/encode.prefix",
    "enc/encode.meta.jsonl",
    "enc/decode.out",
    "enc/decode.audit.jsonl",
    "decode.json",
]


# ---------------------------------------------------------------------------
# eval

METRIC_KEYS = ["bleu", "exact_match", "window_overlap", "one_minus_term"]


def eval_stages(inputs: gen.EvalInputs, out: Path) -> list[Stage]:
    f = inputs.files
    argv = [
        "evaluate",
        "--hyp", str(f["hyp"]),
        "--ref", str(f["ref"]),
        "--constraints", str(f["constraints"]),
        "--report", str(out / "report.json"),
        "--per-sentence", str(out / "sentences.tsv"),
    ]
    return [Stage("evaluate", argv, len(inputs.lines), "evaluate.json")]


def eval_check(inputs: gen.EvalInputs, out: Path, stages: list[Stage], results: list[StageResult]) -> Outcome:
    lines = inputs.lines
    n = len(lines)
    outcome = Outcome(attempted=n)
    if not check_exit(stages[0], results[0], outcome):
        return outcome
    report_text = (out / "report.json").read_text(encoding="utf-8")
    report = json.loads(report_text)
    if (
        report_text != results[0].stdout
        or sorted(report) != sorted(METRIC_KEYS)
        or not all(0.0 <= report[k] <= 100.0 for k in METRIC_KEYS)
    ):
        outcome.fail(n, f"evaluate report {report}")
        return outcome
    rows = [row.split("\t") for row in read_lines(out / "sentences.tsv")]
    if len(rows) != n + 1 or rows[0] != ["index", *METRIC_KEYS]:
        outcome.fail(n, f"per-sentence TSV has {len(rows)} rows for {n} lines")
        return outcome
    bad = []
    for i, (line, row) in enumerate(zip(lines, rows[1:])):
        values = [float(v) for v in row[1:]]
        ok = row[0] == str(i) and len(values) == len(METRIC_KEYS)
        if line.hypothesis == line.reference:
            ok = ok and all(v == 100.0 for v in values)
        if line.kind == "many_copies":
            ok = ok and values[1] < 100.0
        if not ok:
            bad.append(i)
    if bad:
        outcome.fail(len(bad), f"per-sentence TSV: {len(bad)} rows wrong, first {bad[0] + 1}")
    return outcome


EVAL_OUTPUTS = ["report.json", "sentences.tsv"]


@dataclass(frozen=True)
class Workload:
    lines: int  # corpus size of a measured run; set-up runs use 1
    generate: Callable  # (seed, lines, input_dir) -> inputs
    stages: Callable  # (inputs, output_dir) -> list[Stage]
    check: Callable  # (inputs, output_dir, stages, results) -> Outcome
    inputs: list[str]  # generated files, relative to the input directory
    outputs: list[str]  # files ctmt writes, relative to the output directory


WORKLOADS = {
    "prep": Workload(
        2000,
        lambda seed, n, out: gen.make_prep(seed, n, max(1, n // 2), out),
        prep_stages,
        prep_check,
        ["lex.src", "lex.tgt", "lex.align", "tag.src", "tag.tgt", "vocab.json"],
        PREP_OUTPUTS,
    ),
    "infer": Workload(
        2000,
        gen.make_infer,
        infer_stages,
        infer_check,
        ["infer.src", "infer.cons.jsonl", "infer.canned.jsonl"],
        INFER_OUTPUTS,
    ),
    "eval": Workload(
        100,
        gen.make_eval,
        eval_stages,
        eval_check,
        ["eval.hyp", "eval.ref", "eval.cons.jsonl"],
        EVAL_OUTPUTS,
    ),
}
