"""The value classes keep the contract of the dataclasses they were: the same
constructor forms and defaults, equality, hashing of the frozen ones, the
ordering of nonterminals, immutability, the repr text, and a new list for
each defaulted list field."""

import copy
import pickle

import pytest

from ctmt import (
    ConstraintPair,
    EvalRecord,
    MetricReport,
    Nonterminal,
    ParsedOutput,
    PhrasePair,
    ReservedVocab,
    SamplerConfig,
    SerializedExample,
    Template,
    TemplateVerdict,
)
from ctmt.metrics import SentenceStats

X0, Y1, C2 = Nonterminal("X", 0), Nonterminal("Y", 1), Nonterminal("C", 2)
STATS = [1, 0, 0, 0], [2, 1, 0, 0], 2, 3, 1, 2, {2: 1, 1: 0}, 3, 4

# one instance of each class, built with every field given
INSTANCES = [
    X0,
    ConstraintPair(["a", "b"], ["A"]),
    Template([Y1, "<b>", C2]),
    SerializedExample(["a"], ["A", "<sep>"], ["A", "<sep>", "B"], [ConstraintPair(["a"], ["A"])],
                      [(0, 1)], ["<b>"], ["<b>"]),
    TemplateVerdict(False, "why"),
    ParsedOutput(Template([Y1]), {Y1: ["a"]}, ["a warning"]),
    ReservedVocab("<s>", "P", "Q", "R", 9, frozenset({"<b>", "</b>"})),
    EvalRecord(["a"], ["b"], [ConstraintPair(["a"], ["A"])]),
    MetricReport(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    SentenceStats(*STATS, True, False),
    PhrasePair((0, 1), (1, 3), ("a",), ("A", "B")),
    SamplerConfig(2, 1, 4, 7),
]
FROZEN = [X0, INSTANCES[6], INSTANCES[10], INSTANCES[11]]


def test_keyword_and_positional_forms_build_equal_values():
    assert Nonterminal(kind="C", index=2) == C2
    assert ConstraintPair(tgt=["A"], src=["a", "b"]) == INSTANCES[1]
    assert TemplateVerdict(valid=False, reason="why") == INSTANCES[4]
    assert ReservedVocab(sep_token="<s>", x_prefix="P", y_prefix="Q", c_prefix="R", max_index=9,
                         registered_tags={"</b>", "<b>"}) == INSTANCES[6]
    assert SamplerConfig(rng_seed=7, max_len=4, max_constraints=2) == INSTANCES[11]
    assert PhrasePair(src_span=(0, 1), tgt_span=(1, 3), src_tokens=("a",),
                      tgt_tokens=("A", "B")) == INSTANCES[10]
    assert MetricReport(bleu=1.0, exact_match=2.0, window_overlap=3.0, one_minus_term=4.0,
                        structure_correct=5.0, structure_match=6.0) == INSTANCES[8]


def test_defaults():
    example = SerializedExample(["a"], [])
    assert (example.target_output, example.constraints, example.src_spans, example.source_tags,
            example.target_tags) == ([], [], [], [], None)
    assert TemplateVerdict(True).reason is None
    assert ParsedOutput(Template([]), {}).warnings == []
    assert EvalRecord(["a"], ["b"]).constraints == []
    report = MetricReport(1.0, 2.0, 3.0, 4.0)
    assert (report.structure_correct, report.structure_match) == (None, None)
    stats = SentenceStats(*STATS)
    assert (stats.well_formed, stats.tags_match) == (None, None)
    assert SamplerConfig() == SamplerConfig(3, 1, 3, 0)
    assert ReservedVocab() == ReservedVocab("<sep>", "X", "Y", "C", 64, frozenset())


def test_each_instance_gets_its_own_default_lists():
    first, second = SerializedExample(["a"], []), SerializedExample(["a"], [])
    for name in ("target_output", "constraints", "src_spans", "source_tags"):
        assert getattr(first, name) is not getattr(second, name), name
    assert ParsedOutput(Template([]), {}).warnings is not ParsedOutput(Template([]), {}).warnings
    assert EvalRecord([], []).constraints is not EvalRecord([], []).constraints


def test_equality_is_by_class_and_fields():
    for value in INSTANCES:
        assert value == copy.deepcopy(value), value
    assert ConstraintPair(["a"], ["A"]) != ConstraintPair(["a"], ["B"])
    assert TemplateVerdict(True) != TemplateVerdict(True, "why")
    assert SamplerConfig() != SamplerConfig(rng_seed=1)
    assert ReservedVocab() != ReservedVocab(max_index=9)
    assert Template([X0]) != ParsedOutput(Template([X0]), {})
    assert Nonterminal("X", 0) != Nonterminal("Y", 0)


def test_frozen_values_hash_as_their_fields_and_serve_as_keys():
    for value in FROZEN:
        rebuilt = copy.deepcopy(value)
        assert rebuilt is not value and hash(rebuilt) == hash(value)
        assert {value: "found"}[rebuilt] == "found"
    assert len({ReservedVocab(), ReservedVocab(), ReservedVocab(max_index=9)}) == 2
    assert len({Nonterminal("Y", 1), Y1, X0}) == 2


def test_mutable_values_are_unhashable():
    for value in INSTANCES:
        if value not in FROZEN:
            with pytest.raises(TypeError):
                hash(value)


def test_nonterminals_order_by_kind_then_index():
    assert sorted([Nonterminal("Y", 0), Nonterminal("C", 10), Nonterminal("C", 2), X0]) == [
        C2, Nonterminal("C", 10), X0, Nonterminal("Y", 0)
    ]
    assert Nonterminal("X", 1) > X0 and Nonterminal("X", 1) >= Nonterminal("X", 1)


@pytest.mark.parametrize("value, field", zip(FROZEN, ["index", "max_index", "src_span", "rng_seed"]),
                         ids=[type(v).__name__ for v in FROZEN])
def test_frozen_fields_cannot_be_assigned_or_deleted(value, field):
    before = copy.copy(value)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == before


def test_mutable_fields_can_be_assigned():
    report = MetricReport(1.0, 2.0, 3.0, 4.0)
    report.structure_correct = 100.0
    assert report.values()["structure_correct"] == 100.0


def test_repr_names_every_field_in_order():
    assert [repr(v) for v in INSTANCES] == [
        "Nonterminal(kind='X', index=0)",
        "ConstraintPair(src=['a', 'b'], tgt=['A'])",
        "Template(elements=[Nonterminal(kind='Y', index=1), '<b>', Nonterminal(kind='C', index=2)])",
        "SerializedExample(encoder_input=['a'], decoder_prefix=['A', '<sep>'], "
        "target_output=['A', '<sep>', 'B'], constraints=[ConstraintPair(src=['a'], tgt=['A'])], "
        "src_spans=[(0, 1)], source_tags=['<b>'], target_tags=['<b>'])",
        "TemplateVerdict(valid=False, reason='why')",
        "ParsedOutput(template=Template(elements=[Nonterminal(kind='Y', index=1)]), "
        "derivation={Nonterminal(kind='Y', index=1): ['a']}, warnings=['a warning'])",
        f"ReservedVocab(sep_token='<s>', x_prefix='P', y_prefix='Q', c_prefix='R', max_index=9, "
        f"registered_tags={frozenset({'<b>', '</b>'})!r})",
        "EvalRecord(hypothesis=['a'], reference=['b'], constraints=[ConstraintPair(src=['a'], tgt=['A'])])",
        "MetricReport(bleu=1.0, exact_match=2.0, window_overlap=3.0, one_minus_term=4.0, "
        "structure_correct=5.0, structure_match=6.0)",
        "SentenceStats(ngram_matches=[1, 0, 0, 0], ngram_totals=[2, 1, 0, 0], hyp_len=2, ref_len=3, "
        "phrases_found=1, phrases_required=2, window_shared={2: 1, 1: 0}, term_edits=3, "
        "term_ref_weight=4, well_formed=True, tags_match=False)",
        "PhrasePair(src_span=(0, 1), tgt_span=(1, 3), src_tokens=('a',), tgt_tokens=('A', 'B'))",
        "SamplerConfig(max_constraints=2, min_len=1, max_len=4, rng_seed=7)",
    ]


@pytest.mark.parametrize("value", INSTANCES, ids=lambda v: type(v).__name__)
def test_values_survive_copy_and_pickle(value):
    for rebuilt in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(rebuilt) is type(value) and rebuilt == value


def test_constructors_still_validate():
    for bad in (lambda: Nonterminal("Z", 0), lambda: Nonterminal("X", -1),
                lambda: ConstraintPair([], ["A"]), lambda: ConstraintPair(["a b"], ["A"]),
                lambda: SamplerConfig(max_constraints=-1), lambda: SamplerConfig(min_len=2, max_len=1),
                lambda: ReservedVocab(x_prefix="Y")):
        with pytest.raises(ValueError):
            bad()
