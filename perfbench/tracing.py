"""In-process runs of a workload's stages through ``ctmt.cli.main``.

Usage: python3 tracing.py PLAN_JSON RESULT_JSON

PLAN_JSON holds ``{"trace": bool, "spans": path, "stages": [[name, argv,
stdout_path], ...]}``. Each stage runs in this process with its standard
output sent to ``stdout_path``; RESULT_JSON receives the exit codes and
wall times. With ``trace`` set, wrappers are installed around the public
functions of every ctmt layer first, on every module that binds them,
and the run also writes its spans and per-layer figures.

A span records name, start, end and the index of its parent span. Spans
stay in memory until the run ends. A layer's self time is the time of its
spans minus the time their child spans cover. Functions too small to
time without distorting the figures are only counted.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# span name -> the functions it times, as "module:attribute"
SPANS = {
    "metrics.evaluate": ["ctmt.metrics:evaluate_records"],
    "metrics.sentence_metrics": ["ctmt.metrics:sentence_metrics"],
    "metrics.term": ["ctmt.metrics:term_score"],
    "metrics.shift_search": ["ctmt.metrics:shifted_edit_cost"],
    "metrics.bleu": ["ctmt.metrics:bleu"],
    "metrics.exact_match": ["ctmt.metrics:exact_match"],
    "metrics.window_overlap": ["ctmt.metrics:window_overlap"],
    "metrics.structure": ["ctmt.metrics:structure_metrics"],
    "lexical.span_search": ["ctmt.lexical:find_disjoint_assignment"],
    "lexical.serialize": ["ctmt.lexical:build_training_pair", "ctmt.lexical:build_inference_input"],
    "lexical.parse": ["ctmt.lexical:parse_output", "ctmt.lexical:scan_derivation_rules"],
    "lexical.validate": ["ctmt.lexical:validate_template"],
    "lexical.reconstruct": ["ctmt.lexical:reconstruct"],
    "structural.serialize": [
        "ctmt.structural:build_structural_pair",
        "ctmt.structural:build_structural_input",
    ],
    "structural.parse": ["ctmt.structural:parse_structural_output"],
    "structural.validate": ["ctmt.structural:validate_structural_template"],
    "mining.extract": ["ctmt.mining:extract_phrase_pairs"],
    "mining.sample": ["ctmt.mining:sample_phrase_pairs"],
    "corpus_io.read": [
        "ctmt.corpus_io:read_token_lines",
        "ctmt.corpus_io:read_bitext",
        "ctmt.corpus_io:read_alignments",
        "ctmt.corpus_io:read_jsonl",
        "ctmt.corpus_io:read_constraints",
        "ctmt.corpus_io:read_spans",
        "ctmt.corpus_io:load_vocab",
    ],
    "corpus_io.write": [
        "ctmt.corpus_io:write_token_lines",
        "ctmt.corpus_io:write_jsonl",
        "ctmt.corpus_io:write_constraints",
        "ctmt.corpus_io:write_spans",
    ],
    "cli.decode_line": ["ctmt.cli:decode_line"],
    "cli.bridge": ["ctmt.cli:TranslatorBridge.translate"],
}

# counter name -> functions whose calls it counts, without a span
COUNTED = {
    "metrics.edit_distance": ["ctmt.metrics:weighted_edit_distance"],
    "metrics.claim_spans": ["ctmt.metrics:claim_spans"],
    "lexical.canonical": ["ctmt.lexical:canonical_constraints"],
    "structural.segment": ["ctmt.structural:segment_tagged"],
}


def _lines_read(result, args):
    return len(result)


def _lines_written(result, args):
    return len(args[1])


# function -> (counter, amount a call adds given its result and arguments)
TALLIES = {
    "ctmt.lexical:find_disjoint_assignment": ("lexical.span_search.none", lambda r, a: r is None),
    "ctmt.lexical:validate_template": ("lexical.validate.invalid", lambda r, a: not r.valid),
    "ctmt.mining:extract_phrase_pairs": ("mining.pairs", _lines_read),
    "ctmt.mining:sample_phrase_pairs": ("mining.constraints", _lines_read),
    "ctmt.cli:decode_line": ("cli.decode_line.fallback", lambda r, a: r[1].get("fallback") is True),
    # leaf readers and writers only, so that no line counts twice
    "ctmt.corpus_io:read_token_lines": ("corpus_io.lines", _lines_read),
    "ctmt.corpus_io:read_alignments": ("corpus_io.lines", _lines_read),
    "ctmt.corpus_io:read_jsonl": ("corpus_io.lines", _lines_read),
    "ctmt.corpus_io:write_token_lines": ("corpus_io.lines", _lines_written),
    "ctmt.corpus_io:write_jsonl": ("corpus_io.lines", _lines_written),
}


def _resolve(qualified: str):
    """(owner, function) for "module:attr" or "module:Class.attr"."""
    module_name, _, path = qualified.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, getattr(owner, attr)


class Tracer:
    """Spans and counters for one run; ``install`` patches ctmt, ``uninstall`` restores it."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, tally=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if tally is not None:
                counts[tally[0]] += tally[1](result, args)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        targets = []
        for name, functions in SPANS.items():
            for q in functions:
                owner, original = _resolve(q)
                targets.append((owner, original, self.span(name, original, TALLIES.get(q))))
        for name, functions in COUNTED.items():
            for q in functions:
                owner, original = _resolve(q)
                targets.append((owner, original, self.counter(name, original)))
        modules = [m for n, m in list(sys.modules.items()) if n == "ctmt" or n.startswith("ctmt.")]
        for owner, original, wrapper in targets:
            # every binding: the defining module, importers such as
            # ``from .lexical import reconstruct``, and the package exports
            owners = [owner] if isinstance(owner, type) else modules
            for target in owners:
                for name, value in list(vars(target).items()):
                    if value is original:
                        self._patched.append((target, name, original))
                        setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patched):
            setattr(target, name, original)
        self._patched.clear()

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures: self time per span name, counts, latency quantiles."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _), child in zip(self.spans, covered):
            self_s[name] += end - start - child
            durations[name].append(end - start)
        out = {f"{name}.self_s": self_s.get(name, 0.0) for name in SPANS}
        out.update({f"{name}.calls": self.counts.get(f"{name}.calls", 0) for name in COUNTED})
        out.update({counter: self.counts.get(counter, 0) for counter, _ in TALLIES.values()})
        search = durations["lexical.span_search"]
        bridge = durations["cli.bridge"]
        out["lexical.span_search.calls"] = len(search)
        out["lexical.span_search.p99_ms"] = 1e3 * quantile(search, 0.99)
        out["cli.bridge.requests"] = len(bridge)
        out["cli.bridge.rtt_us.p50"] = 1e6 * quantile(bridge, 0.50)
        out["cli.bridge.rtt_us.p99"] = 1e6 * quantile(bridge, 0.99)
        # term_score never calls itself, so its spans do not overlap
        out["metrics.term.share"] = sum(durations["metrics.term"]) / wall_s if wall_s else 0.0
        return out


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(plan_path: str, result_path: str) -> int:
    import ctmt.cli

    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    tracer = Tracer() if plan["trace"] else None
    stages = []
    if tracer is not None:
        tracer.install()
    try:
        for name, argv, stdout_path in plan["stages"]:
            run = tracer.span(f"cli.{name}", ctmt.cli.main) if tracer else ctmt.cli.main
            with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
                start = time.perf_counter()
                code = run(argv)
                stages.append([name, code, time.perf_counter() - start])
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall_s = sum(wall for _, _, wall in stages)
    result = {"stages": stages, "wall_s": wall_s}
    if tracer is not None:
        result["layers"] = tracer.summary(wall_s)
        with open(plan["spans"], "w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
    Path(result_path).write_text(json.dumps(result, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
