"""The python examples of README's "Library use" section run as printed."""

import re
from pathlib import Path

from ctmt import DEFAULT_VOCAB, ConstraintPair, build_training_pair, evaluate_records

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
SECTION = README[README.index("\n## Library use\n") :].split("\n## ", 2)[1]
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", SECTION, re.MULTILINE | re.DOTALL)


def test_the_section_has_two_examples():
    assert len(EXAMPLES) == 2


def test_a_model_that_gives_the_gold_continuation_reconstructs_its_target():
    target = "der Patient zeigt akute Symptome".split()

    def model(encoder_input, prefix):
        x = "the patient shows acute symptoms".split()
        cons = [ConstraintPair(["acute", "symptoms"], ["akute", "Symptome"])]
        gold = build_training_pair(x, target, cons, vocab=DEFAULT_VOCAB)
        assert gold.encoder_input == encoder_input and gold.decoder_prefix == prefix
        return gold.target_output[len(prefix) :]

    namespace = {"model": model}
    exec(EXAMPLES[0], namespace)
    assert namespace["sentence"] == target


def test_the_scoring_example_gives_the_evaluate_records_report():
    namespace = {}
    exec(EXAMPLES[1], namespace)
    assert namespace["corpus"] == evaluate_records(namespace["records"]).as_dict()
    assert len(namespace["rows"]) == len(namespace["records"])
