import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctmt import ConstraintPair, CorpusFormatError, ReservedVocab
from ctmt import corpus_io
from ctmt.types import ASCII_WHITESPACE

from conftest import pharaoh_line, write_lines


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_read_bitext_splits_on_whitespace(tmp_path):
    src = _write(tmp_path / "a.src", "a b\n")
    tgt = _write(tmp_path / "a.tgt", "x y z\n")
    assert list(corpus_io.iter_bitext(src, tgt)) == [(["a", "b"], ["x", "y", "z"], None)]


def test_read_bitext_empty_lines(tmp_path):
    src = _write(tmp_path / "a.src", "\n")
    tgt = _write(tmp_path / "a.tgt", "\n")
    assert list(corpus_io.iter_bitext(src, tgt)) == [([], [], None)]


def test_read_bitext_line_count_mismatch(tmp_path):
    src = _write(tmp_path / "a.src", "a\nb\n")
    tgt = _write(tmp_path / "a.tgt", "x\ny\nz\n")
    with pytest.raises(CorpusFormatError) as info:
        next(corpus_io.iter_bitext(src, tgt))
    assert str(info.value) == f"line count mismatch 2 vs 3 ({tgt})"
    align = _write(tmp_path / "a.align", "0-0\n")
    with pytest.raises(CorpusFormatError) as info:
        next(corpus_io.iter_bitext(src, src, align))
    assert str(info.value) == f"line count mismatch 2 vs 1 ({align})"


def test_read_bitext_trailing_newline_optional(tmp_path):
    with_nl = corpus_io.read_token_lines(_write(tmp_path / "a", "a b\nc\n"))
    without = corpus_io.read_token_lines(_write(tmp_path / "b", "a b\nc"))
    assert with_nl == without == [["a", "b"], ["c"]]


def _links(tmp_path, src: str, tgt: str, align: str):
    """The links iter_bitext reads from a one-line bitext and its alignment line."""
    files = [_write(tmp_path / f"a.{ext}", text + "\n")
             for ext, text in (("src", src), ("tgt", tgt), ("align", align))]
    return [links for _, _, links in corpus_io.iter_bitext(*files)]


def test_read_alignments(tmp_path):
    files = [_write(tmp_path / name, text) for name, text in
             (("a.src", "a b\nc\n"), ("a.tgt", "x y z\nw\n"), ("a.align", "0-0 1-2\n\n"))]
    assert corpus_io.read_alignments(*files) == [{(0, 0), (1, 2)}, set()]
    # an index is its value, whatever its leading zeros
    assert _links(tmp_path, "a b", "x y", "0-0000000001") == [{(0, 1)}]


def test_read_alignments_empty_line(tmp_path):
    assert _links(tmp_path, "a", "b", "") == [set()]


def test_read_alignments_duplicates_collapse(tmp_path):
    assert _links(tmp_path, "a", "b", "0-0 0-0") == [{(0, 0)}]
    # more digits than int() takes, and still index 0
    assert _links(tmp_path, "a", "b", "0-0 0-" + "0" * 5000) == [{(0, 0)}]


@pytest.mark.parametrize("line", ["x-1", "1--2", "1-", "1_2", "1-2-3"])
def test_read_alignments_malformed(tmp_path, line):
    with pytest.raises(CorpusFormatError, match="line 1: malformed alignment item"):
        _links(tmp_path, "a b", "x y z", line)


@pytest.mark.parametrize("item", ["\u00b2-0", "\u0661-\u0660", "0-\uff11", "+1-0", "1-0\u200b"])
def test_read_alignments_accepts_only_ascii_digits(tmp_path, item):
    # str.isdigit admits superscripts and other scripts' digits
    with pytest.raises(CorpusFormatError) as info:
        _links(tmp_path, "a b", "x y z", "0-0 " + item)
    assert str(info.value) == f"line 1: malformed alignment item {item!r}"


def test_read_alignments_out_of_bounds(tmp_path):
    for link in ("5-0", "0-" + "1" * 5000):  # the second has more digits than int() takes
        with pytest.raises(CorpusFormatError) as info:
            _links(tmp_path, "a b", "x", link)
        assert str(info.value) == f"line 1: link {link} out of bounds for 2x1 sentence pair"


def test_read_constraints(tmp_path):
    path = _write(
        tmp_path / "a.cons.jsonl",
        '{"constraints":[{"src":["slowing","down"],"tgt":["减弱"]}]}\n'
        '{"constraints":[]}\n',
    )
    sets = corpus_io.read_constraints(path)
    assert sets[0] == [ConstraintPair(["slowing", "down"], ["减弱"])]
    assert sets[1] == []


def test_read_constraints_empty_phrase_rejected(tmp_path):
    path = _write(tmp_path / "a.cons.jsonl", '{"constraints":[{"src":[],"tgt":["x"]}]}\n')
    with pytest.raises(CorpusFormatError, match="line 1"):
        corpus_io.read_constraints(path)


def test_read_constraints_bad_json(tmp_path):
    path = _write(tmp_path / "a.cons.jsonl", "{nope\n")
    with pytest.raises(CorpusFormatError) as info:
        corpus_io.read_constraints(path)
    assert str(info.value) == "line 1: invalid JSON at column 2"


@pytest.mark.parametrize("line", ["[1]", "7", "null"])
@pytest.mark.parametrize("reader", [corpus_io.read_constraints, corpus_io.read_spans])
def test_jsonl_line_not_an_object_rejected(tmp_path, reader, line):
    path = _write(tmp_path / "a.jsonl", '{"constraints":[],"spans":[]}\n' + line + "\n")
    with pytest.raises(CorpusFormatError, match="line 2: expected a JSON object"):
        reader(path)


@pytest.mark.parametrize("bounds", ["[1.9, 2.2]", '["1", 2]', "[true, 2]", "[1, 2.0]", '"12"'])
def test_span_bounds_must_be_json_integers(tmp_path, bounds):
    path = _write(
        tmp_path / "a.spans.jsonl",
        '{"spans":[]}\n{"spans":[{"src":%s,"tgt":[0,1]}]}\n' % bounds,
    )
    with pytest.raises(CorpusFormatError, match="line 2: malformed span item"):
        corpus_io.read_spans(path)


@pytest.mark.parametrize("record", ['{"spans": 3}', '{"spans": {"src": [0, 1]}}', "{}"])
def test_read_spans_needs_a_spans_array(tmp_path, record):
    path = _write(tmp_path / "a.spans.jsonl", '{"spans": []}\n' + record + "\n")
    with pytest.raises(CorpusFormatError, match="line 2: missing 'spans' array"):
        corpus_io.read_spans(path)


def test_a_line_ends_at_lf_only(tmp_path):
    # a CR, alone or before LF, is whitespace inside the line, as in a translator answer
    path = tmp_path / "cr.txt"
    path.write_bytes(b"a\rb\nc\r\n\r\nd\te\n")
    assert corpus_io.read_token_lines(path) == [["a", "b"], ["c"], [], ["d", "e"]]


def test_constraints_round_trip(tmp_path):
    sets = [
        [ConstraintPair(["a", "b"], ["x"]), ConstraintPair(["c"], ["y", "z"])],
        [],
    ]
    path = tmp_path / "c.cons.jsonl"
    corpus_io.write_constraints(path, sets)
    assert corpus_io.read_constraints(path) == sets


def test_spans_round_trip(tmp_path):
    sets = [[((0, 2), (1, 3)), ((4, 5), (0, 1))], []]
    path = tmp_path / "c.spans.jsonl"
    corpus_io.write_spans(path, sets)
    assert corpus_io.read_spans(path) == sets


def test_alignments_round_trip(tmp_path):
    alignments = [{(0, 0), (1, 2)}, set(), {(2, 1)}]
    src = write_lines(tmp_path / "a.src", ["a b c"] * 3)
    tgt = write_lines(tmp_path / "a.tgt", ["x y z"] * 3)
    align = write_lines(tmp_path / "a.align", [pharaoh_line(links) for links in alignments])
    assert [links for _, _, links in corpus_io.iter_bitext(src, tgt, align)] == alignments


def test_bitext_round_trip(tmp_path):
    pairs = [(["a", "b"], ["x"]), ([], []), (["αβ", "汉字"], ["ß"])]
    src = write_lines(tmp_path / "r.src", [corpus_io.join_tokens(x) for x, _ in pairs])
    tgt = write_lines(tmp_path / "r.tgt", [corpus_io.join_tokens(y) for _, y in pairs])
    assert [(x, y) for x, y, _ in corpus_io.iter_bitext(src, tgt)] == pairs


def test_vocab_manifest_round_trip(tmp_path):
    vocab = ReservedVocab(max_index=12, registered_tags=frozenset({"<ph>", "</ph>"}))
    path = write_lines(tmp_path / "vocab.json", [json.dumps(vocab.to_dict())])
    assert corpus_io.load_vocab(path) == vocab


def test_meta_round_trip():
    lexical = {"mode": "lexical", "index": 0, "src_spans": [[0, 1]],
               "constraints": [ConstraintPair(["a"], ["x", "y"])]}
    structural = {"mode": "structural", "index": 1, "source_tags": ["<b>", "</b>"]}
    lines = [corpus_io.json_line(record) for record in (lexical, structural)]
    assert lines == [
        '{"constraints": [{"src": ["a"], "tgt": ["x", "y"]}], "index": 0, '
        '"mode": "lexical", "src_spans": [[0, 1]]}\n',
        '{"index": 1, "mode": "structural", "source_tags": ["<b>", "</b>"]}\n',
    ]
    assert [corpus_io.parse_meta(line, 1) for line in lines] == [lexical, structural]


def test_meta_record_is_what_parse_meta_returns():
    from ctmt import DEFAULT_VOCAB, build_inference_input, build_structural_pair

    lexical = build_inference_input(["a", "b"], [ConstraintPair(["b"], ["y"])], vocab=DEFAULT_VOCAB)
    vocab = ReservedVocab(registered_tags=frozenset({"<b>", "</b>"}))
    structural = build_structural_pair(["<b>", "a", "</b>"], ["<b>", "x", "</b>"], vocab=vocab)
    records = [
        corpus_io.meta_record("lexical", lexical, 0),
        corpus_io.meta_record("structural", structural, 1),
    ]
    parsed = [corpus_io.parse_meta(corpus_io.json_line(r), n) for n, r in enumerate(records, 1)]
    assert parsed == records == [
        {"mode": "lexical", "index": 0, "src_spans": [[1, 2]],
         "constraints": [ConstraintPair(["b"], ["y"])]},
        {"mode": "structural", "index": 1, "source_tags": ["<b>", "</b>"],
         "target_tags": ["<b>", "</b>"]},
    ]
    # a record without a mode reads as lexical
    assert corpus_io.parse_meta('{"index": 0}', 1) == {"index": 0, "mode": "lexical"}


def test_iter_corpus_without_companion_files(tmp_path):
    src = _write(tmp_path / "a.src", "a b\n\nc\n")
    assert list(corpus_io.iter_corpus(src)) == [
        (["a", "b"], [], [], None), ([], [], [], None), (["c"], [], [], None)
    ]


def test_iter_corpus_reads_every_companion_file(tmp_path):
    src = _write(tmp_path / "a.src", "a b\nc\n")
    tgt = _write(tmp_path / "a.tgt", "x\ny z\n")
    cons = _write(tmp_path / "a.cons.jsonl",
                  '{"constraints": [{"src": ["b"], "tgt": ["x"]}]}\n{"constraints": []}\n')
    spans = _write(tmp_path / "a.spans.jsonl",
                   '{"spans": [{"src": [1, 2], "tgt": [0, 1]}]}\n{"spans": []}\n')
    assert list(corpus_io.iter_corpus(src, tgt, cons, spans)) == [
        (["a", "b"], ["x"], [ConstraintPair(["b"], ["x"])], [((1, 2), (0, 1))]),
        (["c"], ["y", "z"], [], []),
    ]


def test_iter_corpus_needs_one_span_per_constraint(tmp_path):
    src = _write(tmp_path / "a.src", "a b\n")
    cons = _write(tmp_path / "a.cons.jsonl", '{"constraints": [{"src": ["b"], "tgt": ["x"]}]}\n')
    spans = _write(tmp_path / "a.spans.jsonl", '{"spans": []}\n')
    with pytest.raises(CorpusFormatError, match="line 1: 0 spans for 1 constraints"):
        next(corpus_io.iter_corpus(src, constraints=cons, spans=spans))


@pytest.mark.parametrize(
    "reader", [corpus_io.read_token_lines, corpus_io.read_constraints, corpus_io.load_vocab]
)
def test_bytes_that_are_not_utf8_name_file_and_line(tmp_path, reader):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b'{"constraints": []}\n{"caf\xe9": 1}\n')
    with pytest.raises(CorpusFormatError) as exc:
        reader(path)
    assert str(exc.value) == f"line 2: not valid UTF-8 ({path})"


@pytest.mark.parametrize(
    "reader, line, field",
    [
        (corpus_io.read_constraints, '{"constraints": [{"src": ["a"], "tgt": ["\\ud800"]}]}', "tgt"),
        (corpus_io.read_constraints, '{"constraints": [{"src": ["\\udfff"], "tgt": ["x"]}]}', "src"),
    ],
)
def test_lone_surrogate_escapes_are_rejected(tmp_path, reader, line, field):
    path = _write(tmp_path / "a.jsonl", '{"constraints": []}\n' + line + "\n")
    with pytest.raises(CorpusFormatError, match=f"line 2: {field} holds a lone surrogate"):
        reader(path)


def test_meta_source_tags_reject_a_lone_surrogate_escape():
    with pytest.raises(CorpusFormatError, match="line 2: source_tags holds a lone surrogate"):
        corpus_io.parse_meta('{"source_tags": ["<\\ud800>"]}', 2)


token_st = st.text(
    alphabet=st.characters(
        blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs"), min_codepoint=33
    ),
    min_size=1,
    max_size=6,
)


@given(tokens=st.lists(token_st, max_size=12))
def test_join_split_identity(tokens):
    assert corpus_io.split_tokens(corpus_io.join_tokens(tokens)) == tokens


@given(sentences=st.lists(st.lists(token_st, max_size=8), max_size=8))
def test_token_lines_round_trip(sentences, tmp_path_factory):
    path = tmp_path_factory.mktemp("io") / "lines.txt"
    corpus_io.write_token_lines(path, sentences)
    assert corpus_io.read_token_lines(path) == sentences


# every character for which str.isspace() is true, ASCII whitespace first
ISSPACE = (" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005"
           "\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


def test_the_str_split_shortcut_knows_every_other_separator():
    # enumerated on the running Python, so that a new Unicode table shows here
    chars = list(map(chr, range(sys.maxunicode + 1)))
    assert {c for c in chars if c.isspace()} == set(ISSPACE) and len(ISSPACE) == 29
    other = {c for c in chars if corpus_io._OTHER_SPACE.fullmatch(c)}
    assert other == set(ISSPACE) - set(" \t\n\r\x0b\x0c")
    for c in other:  # inside a token on the slow path, and a plain line keeps the shortcut
        assert corpus_io.split_tokens(f" a{c}b\tc ") == [f"a{c}b", "c"]


@given(line=st.text(alphabet=ISSPACE + "\r<>aé中\u0661", max_size=40))
def test_split_tokens_splits_on_ascii_whitespace_runs_only(line):
    assert corpus_io.split_tokens(line) == [t for t in ASCII_WHITESPACE.split(line) if t]


NOT_A_TOKEN_LIST = "must be a list of strings"


@pytest.mark.parametrize(
    "value, message",
    [
        ('"ab"', NOT_A_TOKEN_LIST),
        ("5", NOT_A_TOKEN_LIST),
        ("null", NOT_A_TOKEN_LIST),
        ('{"a": 1}', NOT_A_TOKEN_LIST),
        ("[1]", NOT_A_TOKEN_LIST),
        ('["a", null]', NOT_A_TOKEN_LIST),
        ('[["a"]]', NOT_A_TOKEN_LIST),
        ('["a", "\\udc80"]', "holds a lone surrogate"),
    ],
)
def test_token_lists_are_checked_with_their_messages(value, message):
    records = {
        "src": '{"constraints": [{"src": %s, "tgt": ["x"]}]}' % value,
        "tgt": '{"constraints": [{"src": ["a"], "tgt": %s}]}' % value,
        "source_tags": '{"source_tags": %s}' % value,
    }
    for field, record in records.items():
        with pytest.raises(CorpusFormatError) as info:
            corpus_io.parse_meta(record, 3)
        assert str(info.value) == f"line 3: {field} {message}"
        with pytest.raises(CorpusFormatError) as info:
            corpus_io._token_list(json.loads(value), 3, field)
        assert str(info.value) == f"line 3: {field} {message}"


@pytest.mark.parametrize(
    "src, tgt, bad",
    [
        (["a", ""], ["x"], ""),
        (["a"], ["x\ty", ""], "x\ty"),
        (["a b"], [""], "a b"),
        (["a"], ["x", "y\r"], "y\r"),
        (["a\x0bb", "c\x0cd"], ["x"], "a\x0bb"),
        (["a\n"], ["x"], "a\n"),
    ],
)
def test_constraint_tokens_are_checked_with_the_first_bad_one_named(src, tgt, bad):
    message = f"constraint token {bad!r} is empty or contains whitespace"
    with pytest.raises(ValueError) as info:
        ConstraintPair(src, tgt)
    assert str(info.value) == message
    record = json.dumps({"constraints": [{"src": ["a"], "tgt": ["x"]}, {"src": src, "tgt": tgt}]})
    with pytest.raises(CorpusFormatError) as info:
        corpus_io.parse_meta(record, 3)
    assert str(info.value) == f"line 3: {message}"


def _token_loop(src, tgt):
    """The per-token check ConstraintPair ran on every pair before its one-pass check."""
    for tok in (*src, *tgt):
        if not tok or ASCII_WHITESPACE.search(tok):
            raise ValueError(f"constraint token {tok!r} is empty or contains whitespace")


@pytest.mark.parametrize(
    "src",
    [[1], ["a", None], [0], [b"a"], [b""], [["a"]], "ab", ("a", "b c"),
     ["a\xa0b", "\u3000", "x\x1cy", "\u2028"]],  # a token ends only at ASCII whitespace
)
def test_constraint_pair_accepts_and_refuses_as_the_token_loop(src):
    try:
        _token_loop(src, ["x"])
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as info:
            ConstraintPair(src, ["x"])
        assert str(info.value) == str(exc)
    else:
        assert ConstraintPair(src, ["x"]).src == src


json_value_st = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6)
    | st.builds(ConstraintPair, st.lists(token_st, min_size=1, max_size=3),
                st.lists(token_st, min_size=1, max_size=3)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@given(record=st.dictionaries(st.text(max_size=6), json_value_st, max_size=5))
def test_json_line_is_what_json_dumps_writes(record):
    expected = json.dumps(record, ensure_ascii=False, sort_keys=True, default=corpus_io._json_value)
    assert corpus_io.json_line(record) == expected + "\n"


def test_json_line_refuses_what_json_dumps_refuses():
    for record in ({"a": object()}, {"a": {1, 2}}):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            corpus_io.json_line(record)
    cycle = []
    cycle.append(cycle)
    with pytest.raises(ValueError, match="Circular reference detected"):
        corpus_io.json_line({"a": cycle})
