import gzip
import json
import re
import sys
import unicodedata
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus_forge.alignment import Category, PreferenceExample, read_preferences, write_preferences
from corpus_forge.cli import main
from corpus_forge.documents import (
    SEGMENT,
    CorpusStats,
    Document,
    Extraction,
    ParseError,
    SchemaError,
    corpus_stats,
    parse_document,
    read_documents,
    segment_counts,
    serialize_document,
    write_documents,
)
from corpus_forge.parallel import SentencePair, read_pairs, write_pairs


def test_parse_counts_words():
    doc = parse_document('{"id":"a","text":"ένα δύο","language":"el","dataset":"wiki"}')
    assert doc.num_words == 2
    assert doc.language == "el"
    assert doc.dataset == "wiki"
    assert doc.extraction is Extraction.WEB


def test_parse_empty_text_is_accepted():
    doc = parse_document('{"id":"b","text":""}')
    assert doc.num_words == 0


def test_parse_preserves_unknown_fields():
    doc = parse_document('{"id":"a","text":"x","crawl_date":"2023-09-01","shard":3}')
    assert doc.metadata == {"crawl_date": "2023-09-01", "shard": 3}
    round_trip = parse_document(serialize_document(doc))
    assert round_trip.metadata == doc.metadata


def test_parse_errors():
    with pytest.raises(ParseError, match="line 7"):
        parse_document("{not json", line_no=7)
    with pytest.raises(SchemaError, match="text"):
        parse_document('{"id":"a"}')
    with pytest.raises(SchemaError, match="id"):
        parse_document('{"text":"a"}')
    with pytest.raises(SchemaError):
        parse_document('{"id":"a","text":"x","extraction":"carrier-pigeon"}')


def test_serialize_single_line_and_key_order():
    doc = Document(id="a", text="x\ny", language="el", dataset="d")
    line = serialize_document(doc)
    assert "\n" not in line
    assert line.startswith('{"id":"a","text":"x\\ny","language":"el"')
    assert line == line.rstrip()


def test_serialize_keeps_scores_and_url():
    doc = Document(id="a", text="x", source_url="http://e.gr/p", scores={"fluency": 0.9})
    obj = json.loads(serialize_document(doc))
    assert obj["source_url"] == "http://e.gr/p"
    assert obj["scores"] == {"fluency": 0.9}


_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60
).map(lambda s: __import__("unicodedata").normalize("NFC", s))


@settings(max_examples=150, deadline=None)
@given(
    doc_id=st.text(min_size=1, max_size=10),
    text=_text,
    language=st.sampled_from(["", "el", "en"]),
    dataset=st.sampled_from(["", "wiki", "web"]),
    url=st.none() | st.just("http://example.gr/a"),
    scores=st.none() | st.dictionaries(st.sampled_from(["fluency", "margin"]),
                                       st.floats(0, 1), max_size=2),
    extraction=st.sampled_from(list(Extraction)),
)
def test_parse_serialize_identity(doc_id, text, language, dataset, url, scores, extraction):
    doc = Document(
        id=doc_id, text=text, language=language, dataset=dataset,
        source_url=url, scores=scores, extraction=extraction,
    )
    assert parse_document(serialize_document(doc)) == doc


def test_ten_thousand_line_file_roundtrip_byte_identical(tmp_path):
    docs = [
        Document(id=f"d{i}", text=f"κείμενο νούμερο {i} με λίγες λέξεις",
                 language="el", dataset="x", scores={"fluency": i / 10_000})
        for i in range(10_000)
    ]
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_documents(p1, docs)
    write_documents(p2, read_documents(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_gzip_roundtrip_deterministic(tmp_path):
    docs = [Document(id="1", text="αλφα βήτα")]
    p1 = tmp_path / "a.jsonl.gz"
    p2 = tmp_path / "b.jsonl.gz"
    write_documents(p1, docs)
    write_documents(p2, docs)
    assert p1.read_bytes() == p2.read_bytes()  # mtime pinned
    assert list(read_documents(p1)) == docs
    with gzip.open(p1, "rt", encoding="utf-8") as fh:
        assert json.loads(fh.readline())["id"] == "1"


def test_read_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id":"a","text":"x"}\n{broken\n', encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: malformed JSON")):
        list(read_documents(path))


# Strings that JSON must escape or that a line-oriented reader could split on.
_field = st.text(
    alphabet=st.sampled_from(list("αβγάέΩς ab\n\t\r\u2028\u2029\"\\"))
    | st.characters(blacklist_categories=("Cs",)),
    max_size=20,
).map(lambda s: unicodedata.normalize("NFC", s))
_number = st.floats(allow_nan=False, allow_infinity=False)
_scores = st.dictionaries(_field, _number, max_size=2)

_documents = st.builds(
    Document, id=_field, text=_field, language=_field, dataset=_field,
    source_url=st.none() | _field, scores=st.none() | _scores,
    extraction=st.sampled_from(list(Extraction)),
    metadata=st.dictionaries(_field, _field, max_size=2),
)
_pairs = st.builds(SentencePair, src=_field, tgt=_field, scores=_scores, origin=_field)
_preferences = st.builds(
    PreferenceExample, prompt=_field, chosen=_field, rejected=_field,
    system=st.none() | _field, chosen_rating=st.none() | _number,
    rejected_rating=st.none() | _number, category=st.sampled_from(list(Category)),
    language=_field, id=_field,
)


@settings(max_examples=60, deadline=None)
@given(docs=st.lists(_documents, max_size=4), pairs=st.lists(_pairs, max_size=4),
       prefs=st.lists(_preferences, max_size=4))
def test_record_files_round_trip(tmp_path_factory, docs, pairs, prefs):
    out = tmp_path_factory.mktemp("records")
    for records, write, read in ((docs, write_documents, read_documents),
                                 (pairs, write_pairs, read_pairs),
                                 (prefs, write_preferences, read_preferences)):
        path = out / "records.jsonl"
        assert write(path, records) == len(records)
        assert path.read_bytes().count(b"\n") == len(records)
        assert list(read(path)) == records


@pytest.mark.parametrize("command, good", [
    (["ingest", "{path}", "--out", "{out}"], '{"id":"a","text":"ένα"}'),
    (["parallel", "dedup", "--in", "{path}", "--out", "{out}"], '{"src":"a","tgt":"α"}'),
    (["align", "curate", "--in", "{path}", "--out", "{out}"],
     '{"prompt":"p","chosen":"c","rejected":"r"}'),
    (["align", "render", "--in", "{path}", "--out", "{out}"],
     '{"prompt":"p","chosen":"c","rejected":"r","system":"s"}'),
], ids=["documents", "pairs", "preferences", "rendered"])
@pytest.mark.parametrize("bad", [
    "5", '["x"]', '{"id": "a", "te',
    '{"prompt": "p", "chosen": "c", "rejected": "r", "chosen_rating": "x"}',
], ids=["int", "list", "cut", "rating"])
def test_cli_names_path_and_line_of_a_bad_record(tmp_path, capsys, command, good, bad):
    path = tmp_path / "in.jsonl"
    path.write_text(f"{good}\n\n{bad}\n", encoding="utf-8")
    argv = [arg.format(path=path, out=tmp_path / "out.jsonl") for arg in command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:3: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("bad", [
    '{"id":"b","text":"x\\ud800y"}',
    '{"id":"b","text":"x\\udc00"}',
    '{"id":"b","text":"\\udc00\\ud800"}',
    '{"id":"\\uDBFF","text":"x"}',
    '{"id":"b","text":"x","metadata":{"\\udfff":1}}',
], ids=["high", "low", "reversed", "id", "key"])
def test_cli_names_path_and_line_of_a_lone_surrogate(tmp_path, capsys, bad):
    # UTF-8 cannot encode a lone surrogate; a JSON escape is the only way a
    # UTF-8 file can carry one, so the record is rejected where it is read.
    path = tmp_path / "in.jsonl"
    path.write_text(f'{{"id":"a","text":"ένα"}}\n{bad}\n', encoding="utf-8")
    assert main(["ingest", str(path), "--out", str(tmp_path / "out.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: lone surrogate") and err.count("\n") == 1, err


@pytest.mark.parametrize("bad", [b"\xff", b"\xed\xa0\x80"], ids=["0xff", "surrogate"])
@pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
def test_cli_names_path_and_line_of_bytes_that_are_not_utf8(tmp_path, capsys, bad, suffix):
    # Line 2 ends in CR alone, which text-mode reading also counts as a line end.
    data = b'{"id":"a","text":"\xce\xad\xce\xbd\xce\xb1"}\r\n{"id":"b","text":"b"}\r' \
        + b'{"id":"c","text":"x' + bad + b'y"}\n{"id":"d","text":"d"}\n'
    path = tmp_path / f"in{suffix}"
    path.write_bytes(gzip.compress(data, mtime=0) if suffix.endswith(".gz") else data)
    with pytest.raises(ParseError, match=re.escape(f"{path}:3: not valid UTF-8 (byte ")):
        list(read_documents(path))
    assert main(["ingest", str(path), "--out", str(tmp_path / "out.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:3: not valid UTF-8") and err.count("\n") == 1, err


def test_escaped_surrogate_pair_loads(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text('{"id":"a","text":"\\ud83d\\ude00 \\uD83D\\uDE00 \\ud7ff"}\n',
                    encoding="utf-8")
    assert [d.text for d in read_documents(path)] == ["\U0001f600 \U0001f600 \ud7ff"]


@pytest.mark.parametrize("read, line", [
    (read_documents, '{"id":"a","text":"x","scores":{"fluency":"high"}}'),
    (read_pairs, '{"src":"a","tgt":5}'),
    (read_pairs, '{"src":"a","tgt":"b","scores":[1]}'),
    (read_pairs, '{"src":"a","tgt":"b","scores":{"margin":"high"}}'),
    (read_preferences, '{"prompt":1,"chosen":"c","rejected":"r"}'),
    (read_documents, '{"id":"a","text":"x","source_url":5}'),
    (read_documents, '{"id":"a","text":"x","num_words":true}'),
    (read_documents, '{"id":"a","text":"x","num_words":1.5}'),
    (read_documents, '{"id":"a","text":"x","language":null}'),
    (read_documents, '{"id":"a","text":"x","dataset":["d"]}'),
    (read_preferences, '{"prompt":"p","chosen":["c"],"rejected":"r"}'),
    (read_preferences, '{"prompt":"p","chosen":"c","rejected":null}'),
    (read_preferences, '{"prompt":"p","chosen":"c","rejected":"r","system":1}'),
    (read_preferences, '{"prompt":"p","chosen":"c","rejected":"r","chosen_rating":"x"}'),
    (read_preferences, '{"prompt":"p","chosen":"c","rejected":"r","rejected_rating":false}'),
])
def test_bad_field_names_path_and_line(tmp_path, read, line):
    path = tmp_path / "in.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(f"{path}:1: ")):
        list(read(path))


_SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


def test_regex_whitespace_is_str_isspace():
    # segment_counts splits words with str.split and counts runs with `\s`;
    # the two must agree on every code point, or its counts are wrong.
    matches = re.compile(r"\s").fullmatch
    differ = [hex(c) for c in range(sys.maxunicode + 1)
              if bool(matches(chr(c))) != chr(c).isspace()]
    assert differ == []


_PIECES = st.one_of(
    st.text(alphabet="αβγδεζηθάέΩΣabcxyzABC019.,;", min_size=1, max_size=6),
    st.sampled_from(["😀", "🎉🐍", "漢字", "\u200b", "\ufeff"]),
    st.sampled_from(_SPACES),
    st.builds(lambda c, n: c * n, st.sampled_from(_SPACES), st.integers(2, 4)),
    st.just(" "),
    st.just(""),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_PIECES, max_size=12).map("".join), max_size=6))
@example(["", " ", "a", "a b", " a b", "a b ", "a  b", "a\tb", "a\u00a0b", "a \n b", "\n\n"])
def test_segment_counts_equal_regex_segments(texts):
    expected = Counter(seg for text in texts for seg in SEGMENT.findall(text))
    got = segment_counts(texts)
    assert got == expected
    assert all(n > 0 for n in got.values())
    into = Counter({" ": 1, "x": 2})
    assert segment_counts(texts, into) is into
    assert into == expected + Counter({" ": 1, "x": 2})


class _OneTokenPerWord:
    def encode(self, text):
        return list(range(len(text.split())))


def test_corpus_stats_manual_oracle(tiny_docs):
    # Oracle: whitespace tokenization, counted by hand: 8 + 4 words.
    stats = corpus_stats(tiny_docs, _OneTokenPerWord())
    assert stats.total_tokens == 12
    assert stats.per_subcorpus == {"default": 12}

    docs = [
        tiny_docs[0],  # 8 tokens
        Document(id="t3", text="ένα δύο", dataset="b"),  # 2 tokens
        Document(id="t4", text="x y z", dataset="b"),  # 3 tokens
    ]
    stats = corpus_stats(docs, _OneTokenPerWord())
    assert stats.per_subcorpus == {"default": 8, "b": 5}
    assert stats.total_tokens == 13
    assert abs(sum(stats.percentages.values()) - 1.0) < 1e-9


def test_corpus_stats_published_accounting():
    counts = {
        "Greek": 43_383_244_502,
        "English": 10_538_413_259,
        "Parallel": 633_816_023,
    }
    stats = CorpusStats.from_counts(counts)
    assert stats.total_tokens == 54_555_473_784
    rounded = stats.rounded_percentages()
    assert rounded == {"Greek": 79.5, "English": 19.3, "Parallel": 1.2}
    assert abs(sum(stats.percentages.values()) - 1.0) < 1e-9


def test_corpus_stats_degenerate_cases():
    assert CorpusStats.from_counts({}).total_tokens == 0
    single = CorpusStats.from_counts({"only": 10})
    assert single.percentages == {"only": 1.0}
    empty = corpus_stats([], _OneTokenPerWord())
    assert empty.total_tokens == 0


def test_stats_merge_order_independent():
    a = CorpusStats.from_counts({"x": 5, "y": 1})
    b = CorpusStats.from_counts({"y": 2, "z": 7})
    left = a.merged_with(b)
    right = b.merged_with(a)
    assert left.per_subcorpus == right.per_subcorpus
    assert left.total_tokens == right.total_tokens == 15


def test_rounding_never_changes_argmax():
    stats = CorpusStats.from_counts({"a": 501, "b": 499})
    exact_max = max(stats.percentages, key=stats.percentages.get)
    rounded = stats.rounded_percentages()
    assert max(rounded, key=rounded.get) == exact_max
