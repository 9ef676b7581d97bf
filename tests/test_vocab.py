import pytest

from ctmt import DEFAULT_VOCAB, CapacityError, Nonterminal, ReservedTokenError, ReservedVocab


def test_render_defaults(vocab):
    assert vocab.render(Nonterminal("X", 0)) == "<X_0>"
    assert vocab.render(Nonterminal("Y", 7)) == "<Y_7>"
    assert vocab.render(Nonterminal("C", 64)) == "<C_64>"


def test_render_beyond_capacity(vocab):
    with pytest.raises(CapacityError):
        vocab.render(Nonterminal("C", 65))


MULTI_LETTER = ReservedVocab(sep_token="<SEP>", x_prefix="SRC", y_prefix="TGT", c_prefix="CON",
                             max_index=120)


def test_parse_inverts_render():
    for vocab in (DEFAULT_VOCAB, MULTI_LETTER):
        for kind in ("X", "Y", "C"):
            for index in range(vocab.max_index + 1):
                nt = Nonterminal(kind, index)
                spelling = vocab.render(nt)
                # the second calls return the kept spelling and the kept nonterminal
                assert vocab.render(nt) == spelling and vocab.parse_token(spelling) == nt
                assert vocab.parse_token(spelling) == nt
        for kind in ("X", "Y", "C"):  # an index over capacity is never kept: it raises every time
            for _ in range(2):
                with pytest.raises(CapacityError):
                    vocab.render(Nonterminal(kind, vocab.max_index + 1))
        assert len(vocab._spellings) == len(vocab._parsed) == 3 * (vocab.max_index + 1)


def test_render_keeps_no_spelling_of_an_index_that_is_not_an_int():
    vocab = ReservedVocab()
    assert vocab.render(Nonterminal("X", True)) == "<X_True>"
    assert vocab.render(Nonterminal("X", 1)) == "<X_1>"


@pytest.mark.parametrize(
    "token",
    ["<X_65>", "<X_-1>", "<X_00>", "<X_01>", "x", "<sep>", "<Z_1>", "<X_1", "X_1>", "<X_1 >",
     "<X_100>", "<X_\u0661>", "<X_1>\n", "<sep>\n", "", ">", "<>",
     pytest.param("<X_" + "1" * 5000 + ">", id="more-digits-than-int-takes")],
)
def test_parse_rejects_non_nonterminals(vocab, token):
    assert vocab.parse_token(token) is None
    # twice: a rejected token is not kept, and a kept spelling does not leak to it
    vocab.parse_token("<X_1>")
    assert vocab.parse_token(token) is None


@pytest.mark.parametrize(
    "token", ["<SRC_01>", "<SRC_121>", "<SRC_1", "SRC_1>", "<SRC_\u0661>", "<SRC_1>\n", "<X_1>",
              "<SRC_1000>", "<SEP>"],
)
def test_parse_rejects_non_nonterminals_of_multi_letter_prefixes(token):
    assert MULTI_LETTER.parse_token(token) is None


def test_is_reserved(vocab):
    assert vocab.is_reserved("<sep>")
    assert vocab.is_reserved("<C_3>")
    assert not vocab.is_reserved("hello")
    assert not vocab.is_reserved("<ph>")
    # a spelling is matched whole: "$" would also match before a final LF
    assert not vocab.is_reserved("<X_1>\n") and not vocab.is_reserved("<sep>\n")


@pytest.mark.parametrize(
    "line, first",
    [
        ("a <X_3> b <sep> c", "<X_3>"),  # a nonterminal before the separator
        ("a <sep> b <C_1> c", "<sep>"),  # the separator before a nonterminal
        ("<Y_65> <Y_01> x <Y_64> <sep>", "<Y_64>"),  # past max_index or zero-padded: plain text
    ],
)
def test_check_plain_names_the_first_reserved_token_in_line_order(vocab, line, first):
    with pytest.raises(ReservedTokenError) as excinfo:
        vocab.check_plain(line.split(), "source sentence")
    assert str(excinfo.value) == f"reserved token {first!r} appears in source sentence"


def test_check_plain_passes_nonterminal_spellings_past_max_index(vocab):
    vocab.check_plain(["<Y_65>", "<Y_01>", "<X_100>", "<sep>x", "a", "<X_1>\n", "<sep>\n"])


RULE_TOKENS = [
    f"<{prefix}_{digits}>"
    for prefix in ("X", "Y", "C", "Z", "SRC")
    for digits in ("", "0", "00", "01", "1", "9", "10", "64", "65", "99", "100", "640", "\u0661")
] + ["<sep>", "<sep", "sep>", "<X_1", "X_1>"]
RULE_VOCABS = [
    DEFAULT_VOCAB,
    ReservedVocab(sep_token="<SEP>", x_prefix="SRC", y_prefix="Y", c_prefix="CON", max_index=9),
    ReservedVocab(sep_token="<SEP>", x_prefix="SRC", y_prefix="Y", c_prefix="CON", max_index=100),
]


def _reserved_by_spelling(vocab, token):
    """The rule read off a token's text: the separator, or <PREFIX_N> with N in
    canonical decimal (no sign, no leading zero) and at most max_index."""
    prefix, _, digits = token[1:-1].partition("_") if token[:1] + token[-1:] == "<>" else ("", "", "")
    canonical = digits.isascii() and digits.isdigit() and str(int(digits)) == digits
    return token == vocab.sep_token or (
        prefix in (vocab.x_prefix, vocab.y_prefix, vocab.c_prefix) and canonical and int(digits) <= vocab.max_index
    )


@pytest.mark.parametrize("vocab", RULE_VOCABS, ids=["default", "multi-letter-9", "multi-letter-100"])
@pytest.mark.parametrize("token", RULE_TOKENS)
def test_one_reserved_token_rule(vocab, token):
    # check_plain and the constructor's collision checks refuse exactly what is_reserved calls reserved
    reserved = vocab.is_reserved(token)
    assert reserved == _reserved_by_spelling(vocab, token)
    if reserved:
        with pytest.raises(ReservedTokenError):
            vocab.check_plain(["a", token])
    else:
        vocab.check_plain(["a", token])
    fields = {name: getattr(vocab, name) for name in ReservedVocab.FIELDS}
    for changed, refused in [({"registered_tags": {token}}, reserved),
                             ({"sep_token": token}, vocab.parse_token(token) is not None)]:
        if refused:
            with pytest.raises(ValueError, match="collides"):
                ReservedVocab(**{**fields, **changed})
        else:
            ReservedVocab(**{**fields, **changed})


def test_render_takes_the_pair_a_nonterminal_equals():
    for vocab in RULE_VOCABS:
        fresh = ReservedVocab.from_dict(vocab.to_dict())
        for n in range(vocab.max_index + 1):
            assert fresh.render(("C", n)) == vocab.render(Nonterminal("C", n)) == f"<{vocab.c_prefix}_{n}>"
        with pytest.raises(CapacityError):
            fresh.render(("C", vocab.max_index + 1))


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
        ReservedVocab(registered_tags=frozenset({"<Y_64>"}))
    assert ReservedVocab(registered_tags=frozenset({"<Y_65>"})).is_tag("<Y_65>")  # past max_index: plain
    with pytest.raises(ValueError):
        ReservedVocab(registered_tags=frozenset({"two tokens"}))
    with pytest.raises(ValueError):
        ReservedVocab(max_index=0)


def test_manifest_round_trip(tagged_vocab):
    data = tagged_vocab.to_dict()
    assert ReservedVocab.from_dict(data) == tagged_vocab


def test_manifest_holds_every_field(tagged_vocab):
    data = tagged_vocab.to_dict()
    assert list(data) == list(ReservedVocab.FIELDS)
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
