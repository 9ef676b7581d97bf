from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctmt import CapacityError, Nonterminal, ReservedVocab


def test_render_defaults(vocab):
    assert vocab.render(Nonterminal("X", 0)) == "<X_0>"
    assert vocab.render(Nonterminal("Y", 7)) == "<Y_7>"
    assert vocab.render(Nonterminal("C", 64)) == "<C_64>"


def test_render_beyond_capacity(vocab):
    with pytest.raises(CapacityError):
        vocab.render(Nonterminal("C", 65))


@given(
    kind=st.sampled_from(["X", "Y", "C"]),
    index=st.integers(min_value=0, max_value=64),
)
def test_parse_inverts_render(kind, index):
    vocab = ReservedVocab()
    nt = Nonterminal(kind, index)
    assert vocab.parse_token(vocab.render(nt)) == nt


@pytest.mark.parametrize(
    "token",
    ["<X_65>", "<X_-1>", "<X_00>", "<X_01>", "x", "<sep>", "<Z_1>", "<X_1", "X_1>", "<X_1 >"],
)
def test_parse_rejects_non_nonterminals(vocab, token):
    assert vocab.parse_token(token) is None


def test_is_reserved(vocab):
    assert vocab.is_reserved("<sep>")
    assert vocab.is_reserved("<C_3>")
    assert not vocab.is_reserved("hello")
    assert not vocab.is_reserved("<ph>")


def test_tag_roles(tagged_vocab):
    assert tagged_vocab.tag_role("<ph>") == ("open", "ph")
    assert tagged_vocab.tag_role("</ph>") == ("close", "ph")
    assert tagged_vocab.tag_role("<url>") == ("void", "<url>")
    assert tagged_vocab.tag_role("&amp;") == ("void", "&amp;")
    with pytest.raises(ValueError):
        tagged_vocab.tag_role("<nope>")


def test_tags_may_hold_non_ascii_whitespace():
    # a token ends only at ASCII whitespace, as corpus_io.split_tokens splits
    vocab = ReservedVocab(registered_tags=frozenset({"<a\xa0b>", "</a\xa0b>", "<c\u2003d/>"}))
    assert vocab.tag_role("<a\xa0b>") == ("open", "a\xa0b")
    assert vocab.tag_role("</a\xa0b>") == ("close", "a\xa0b")
    assert vocab.tag_role("<c\u2003d/>") == ("void", "<c\u2003d/>")
    for tag in ("<a\tb>", "<a\rb>", "<a\x0bb>", "<a\x0cb>"):
        with pytest.raises(ValueError, match="single token"):
            ReservedVocab(registered_tags=frozenset({tag}))


def test_unpaired_open_is_void():
    vocab = ReservedVocab(registered_tags=frozenset({"<ph>"}))
    assert vocab.tag_role("<ph>") == ("void", "<ph>")


def test_colliding_surface_forms_rejected():
    with pytest.raises(ValueError):
        ReservedVocab(x_prefix="X", y_prefix="X")
    with pytest.raises(ValueError):
        ReservedVocab(sep_token="<X_0>")
    with pytest.raises(ValueError):
        ReservedVocab(registered_tags=frozenset({"<Y_1>"}))
    with pytest.raises(ValueError):
        ReservedVocab(registered_tags=frozenset({"two tokens"}))
    with pytest.raises(ValueError):
        ReservedVocab(max_index=0)


def test_manifest_round_trip(tagged_vocab):
    data = tagged_vocab.to_dict()
    assert ReservedVocab.from_dict(data) == tagged_vocab


def test_manifest_holds_every_field(tagged_vocab):
    data = tagged_vocab.to_dict()
    assert list(data) == [f.name for f in fields(ReservedVocab)]
    assert data["registered_tags"] == sorted(tagged_vocab.registered_tags)


def test_manifest_absent_fields_keep_defaults():
    assert ReservedVocab.from_dict({}) == ReservedVocab()
    assert ReservedVocab.from_dict({"max_index": 9, "other": 1}) == ReservedVocab(max_index=9)


@pytest.mark.parametrize(
    "data, message",
    [
        (["<ph>"], "expected a JSON object"),
        ({"registered_tags": "<ph>"}, "registered_tags must be a list of strings"),
        ({"registered_tags": ["<ph>", 3]}, "registered_tags must be a list of strings"),
        ({"max_index": True}, "max_index must be an integer"),
        ({"max_index": 2.9}, "max_index must be an integer"),
        ({"max_index": "8"}, "max_index must be an integer"),
        ({"sep_token": 1}, "sep_token must be a string"),
        ({"c_prefix": None}, "c_prefix must be a string"),
    ],
)
def test_manifest_fields_must_have_their_json_types(data, message):
    with pytest.raises(ValueError, match=message):
        ReservedVocab.from_dict(data)


@pytest.mark.parametrize(
    "data, field",
    [({"sep_token": "<\ud800>"}, "sep_token"), ({"registered_tags": ["<b>", "\udc80"]}, "registered_tags")],
)
def test_manifest_strings_must_be_text(data, field):
    # json.loads turns the escape "\ud800" into a lone surrogate, which no file can hold
    with pytest.raises(ValueError, match=f"{field} holds a lone surrogate"):
        ReservedVocab.from_dict(data)
