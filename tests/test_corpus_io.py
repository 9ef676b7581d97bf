import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctmt import ConstraintPair, CorpusFormatError, ReservedVocab
from ctmt import corpus_io


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_read_bitext_splits_on_whitespace(tmp_path):
    src = _write(tmp_path / "a.src", "a b\n")
    tgt = _write(tmp_path / "a.tgt", "x y z\n")
    assert corpus_io.read_bitext(src, tgt) == [(["a", "b"], ["x", "y", "z"])]


def test_read_bitext_empty_lines(tmp_path):
    src = _write(tmp_path / "a.src", "\n")
    tgt = _write(tmp_path / "a.tgt", "\n")
    assert corpus_io.read_bitext(src, tgt) == [([], [])]


def test_read_bitext_line_count_mismatch(tmp_path):
    src = _write(tmp_path / "a.src", "a\nb\n")
    tgt = _write(tmp_path / "a.tgt", "x\ny\nz\n")
    with pytest.raises(CorpusFormatError, match="line count mismatch 2 vs 3"):
        corpus_io.read_bitext(src, tgt)


def test_read_bitext_trailing_newline_optional(tmp_path):
    with_nl = corpus_io.read_token_lines(_write(tmp_path / "a", "a b\nc\n"))
    without = corpus_io.read_token_lines(_write(tmp_path / "b", "a b\nc"))
    assert with_nl == without == [["a", "b"], ["c"]]


def test_read_alignments(tmp_path):
    path = _write(tmp_path / "a.align", "0-0 1-2\n")
    pairs = [(["a", "b"], ["x", "y", "z"])]
    assert corpus_io.read_alignments(path, pairs) == [{(0, 0), (1, 2)}]


def test_read_alignments_empty_line(tmp_path):
    path = _write(tmp_path / "a.align", "\n")
    assert corpus_io.read_alignments(path, [(["a"], ["b"])]) == [set()]


def test_read_alignments_duplicates_collapse(tmp_path):
    path = _write(tmp_path / "a.align", "0-0 0-0\n")
    assert corpus_io.read_alignments(path, [(["a"], ["b"])]) == [{(0, 0)}]


@pytest.mark.parametrize("line", ["x-1", "1--2", "1-", "1_2", "1-2-3"])
def test_read_alignments_malformed(tmp_path, line):
    path = _write(tmp_path / "a.align", line + "\n")
    with pytest.raises(CorpusFormatError, match="line 1"):
        corpus_io.read_alignments(path, [(["a", "b"], ["x", "y", "z"])])


def test_read_alignments_out_of_bounds(tmp_path):
    path = _write(tmp_path / "a.align", "5-0\n")
    with pytest.raises(CorpusFormatError, match="out of bounds"):
        corpus_io.read_alignments(path, [(["a", "b"], ["x"])])


def test_read_constraints(tmp_path):
    path = _write(
        tmp_path / "a.cons.jsonl",
        '{"constraints":[{"src":["slowing","down"],"tgt":["减弱"]}]}\n'
        '{"constraints":[]}\n',
    )
    sets = corpus_io.read_constraints(path)
    assert sets[0] == [ConstraintPair(["slowing", "down"], ["减弱"], index=1)]
    assert sets[1] == []


def test_read_constraints_empty_phrase_rejected(tmp_path):
    path = _write(tmp_path / "a.cons.jsonl", '{"constraints":[{"src":[],"tgt":["x"]}]}\n')
    with pytest.raises(CorpusFormatError, match="line 1"):
        corpus_io.read_constraints(path)


def test_read_constraints_bad_json(tmp_path):
    path = _write(tmp_path / "a.cons.jsonl", "{nope\n")
    with pytest.raises(CorpusFormatError, match="line 1"):
        corpus_io.read_constraints(path)


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


def test_constraints_round_trip(tmp_path):
    sets = [
        [ConstraintPair(["a", "b"], ["x"], 1), ConstraintPair(["c"], ["y", "z"], 2)],
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
    pairs = [(["a", "b", "c"], ["x", "y", "z"])] * 3
    path = tmp_path / "a.align"
    corpus_io.write_alignments(path, alignments)
    assert corpus_io.read_alignments(path, pairs) == alignments


def test_bitext_round_trip(tmp_path):
    pairs = [(["a", "b"], ["x"]), ([], []), (["αβ", "汉字"], ["ß"])]
    corpus_io.write_bitext(tmp_path / "r.src", tmp_path / "r.tgt", pairs)
    assert corpus_io.read_bitext(tmp_path / "r.src", tmp_path / "r.tgt") == pairs


def test_vocab_manifest_round_trip(tmp_path):
    vocab = ReservedVocab(max_index=12, registered_tags=frozenset({"<ph>", "</ph>"}))
    path = tmp_path / "vocab.json"
    corpus_io.save_vocab(path, vocab)
    assert corpus_io.load_vocab(path) == vocab


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
