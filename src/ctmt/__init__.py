"""Template toolkit for constrained machine translation.

Serializes sentence/constraint pairs into template and derivation token
streams for sequence-to-sequence models, parses and validates model
outputs, reconstructs final translations, mines lexical constraints from
word-aligned bitext, and scores outputs with constraint-aware metrics.

The public names below are imported from their modules on first use
(PEP 562), so a program that needs one module, such as a ``ctmt`` command,
does not load the others.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "CapacityError", "ConstraintMatchError", "CorpusFormatError", "CtmtError",
        "InternalError", "OutputParseError", "ReservedTokenError", "SpanError",
    ),
    "lexical": (
        "build_inference_input", "build_training_pair", "constraint_derivation",
        "match_constraint_spans", "parse_output", "reconstruct", "segment", "validate_template",
    ),
    "metrics": (
        "EvalRecord", "MetricReport", "bleu", "evaluate_records", "exact_match",
        "structure_metrics", "term_score", "window_overlap",
    ),
    "mining": ("PhrasePair", "SamplerConfig", "extract_phrase_pairs", "sample_constraints"),
    "structural": (
        "build_structural_pair", "parse_structural_output", "reconstruct_structural",
        "segment_tagged", "validate_structural_template",
    ),
    "types": (
        "ConstraintPair", "DerivationTable", "Nonterminal", "ParsedOutput",
        "SerializedExample", "Template", "TemplateVerdict", "TokenSeq",
    ),
    "vocab": ("DEFAULT_VOCAB", "ReservedVocab"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
