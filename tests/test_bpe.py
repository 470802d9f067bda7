import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_forge.bpe import (
    ExtendedVocab,
    Vocab,
    bytes_to_unicode,
    extend_vocab,
    fertility,
    fertility_counts,
    load_vocab,
    map_text,
    save_vocab,
    train_bpe,
)
from corpus_forge.cli import main
from corpus_forge.documents import Document


def _doc(text):
    return Document(id="d", text=text)


def test_byte_unicode_map_bijective():
    table = bytes_to_unicode()
    assert len(table) == 256
    assert len(set(table.values())) == 256
    assert " " not in table.values()


def test_single_dominant_pair():
    vocab = train_bpe([_doc("aaaa aaaa aaaa")], 1)
    assert vocab.merges == [("a", "a")]


def test_hand_traced_merge_sequence():
    # Segment frequencies: low x3, lower x2, newest x1, " " x5.
    # Pair totals: (l,o)=5 (o,w)=5 (w,e)=3 (e,r)=2 rest 1.
    # Merge 1: tie at 5 -> lexicographically smallest (l,o).
    # Merge 2: (lo,w)=5.
    # Merge 3: tie at 2 between (low,e) and (e,r) -> (e,r).
    vocab = train_bpe([_doc("low low low lower lower newest")], 3)
    assert vocab.merges == [("l", "o"), ("lo", "w"), ("e", "r")]
    assert vocab.tokens[256:] == ["lo", "low", "er"]
    ids = vocab.encode("lower")
    assert [vocab.tokens[i] for i in ids] == ["low", "er"]


def test_training_deterministic(tmp_path):
    docs = [_doc("το καλοκαίρι ήρθε νωρίς φέτος και η θάλασσα ζεστή")]
    v1 = train_bpe(docs, 20)
    v2 = train_bpe(docs, 20)
    assert v1.merges == v2.merges
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_vocab(v1, p1)
    save_vocab(v2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_exhausted_corpus_returns_fewer(caplog):
    vocab = train_bpe([_doc("ab")], 50)
    assert len(vocab.merges) < 50
    assert vocab.encode("ab") == [vocab.token_to_id["ab"]]


def test_empty_string_encodes_empty():
    vocab = train_bpe([_doc("abc abc")], 2)
    assert vocab.encode("") == []


@settings(max_examples=120, deadline=None)
@given(st.text(max_size=60))
def test_roundtrip_arbitrary_text(text):
    vocab = Vocab.byte_vocab()
    ext = ExtendedVocab.from_base(vocab)
    assert vocab.decode(vocab.encode(text)) == text
    assert ext.decode(ext.encode(text)) == text


def test_roundtrip_after_training(greek_docs):
    vocab = train_bpe(greek_docs[:5], 200)
    for doc in greek_docs[:5]:
        assert vocab.decode(vocab.encode(doc.text)) == doc.text


# Reference merge interpreter: apply merges one at a time in rank order,
# each to fixpoint with leftmost-nonoverlapping replacement.
def _interpret(mapped, merges):
    symbols = list(mapped)
    for a, b in merges:
        while True:
            out, i, changed = [], 0, False
            while i < len(symbols):
                if i < len(symbols) - 1 and symbols[i] == a and symbols[i + 1] == b:
                    out.append(a + b)
                    i += 2
                    changed = True
                else:
                    out.append(symbols[i])
                    i += 1
            symbols = out
            if not changed:
                break
    return symbols


def test_encode_matches_reference_interpreter(greek_docs):
    vocab = train_bpe(greek_docs[:4], 150)
    for doc in greek_docs[:6]:
        fast = [vocab.tokens[i] for i in vocab.encode(doc.text)]
        slow = []
        import re

        for seg in re.findall(r"\S+|\s+", doc.text):
            slow.extend(_interpret(map_text(seg), vocab.merges))
        assert fast == slow


def test_extend_skips_tokens_already_in_base():
    base = train_bpe([_doc("abab abab abab")], 2)
    learned = train_bpe([_doc("ab cd cd ab cd")], 3)
    ext = extend_vocab(base, learned)
    assert "ab" in base.tokens
    assert "ab" not in ext.added_tokens
    assert len(set(ext.added_tokens)) == len(ext.added_tokens)
    for token in ext.added_tokens:
        assert token not in base.tokens


def test_extension_size_arithmetic_at_published_scale():
    byte_tokens = Vocab.byte_vocab().tokens
    base = Vocab(tokens=byte_tokens + [f"t{i}" for i in range(31_744)], merges=[])
    ext = ExtendedVocab(base=base, added_tokens=[f"n{i}" for i in range(29_362)])
    assert ext.total_size == 61_362


def test_extend_preserves_base_ids_and_continues_numbering():
    base = train_bpe([_doc("low low lower")], 3)
    learned = train_bpe([_doc("καλό καλό καλημέρα")], 4)
    ext = extend_vocab(base, learned)
    assert ext.total_size == len(base.tokens) + len(ext.added_tokens)
    for i, token in enumerate(base.tokens):
        assert ext.token_string(i) == token
    for k, token in enumerate(ext.added_tokens):
        assert ext.token_string(len(base.tokens) + k) == token
        assert ext.provenance[token]["source"] == "learned"


def test_ascii_encoding_unchanged_when_added_tokens_not_ascii():
    base = train_bpe([_doc("the cat sat on the mat")], 10)
    learned = train_bpe([_doc("γάτα γάτα σκύλος γάτα σκύλος")], 10)
    ext = extend_vocab(base, learned)
    ascii_only = all(any(ord(ch) > 127 for ch in tok) for tok in ext.added_tokens)
    assert ascii_only, "fixture should add only non-ASCII tokens"
    sample = "the cat sat on a mat"
    assert ext.encode(sample) == base.encode(sample)


def test_adding_merges_never_increases_token_count(greek_docs):
    base = train_bpe(greek_docs[:3], 60)
    learned = train_bpe(greek_docs[3:8], 120)
    ext = extend_vocab(base, learned)
    base_wrapped = ExtendedVocab.from_base(base)
    for doc in greek_docs[:8]:
        assert len(ext.encode(doc.text)) <= len(base_wrapped.encode(doc.text))


def test_fertility_lower_bound_and_exact_counts(tiny_docs):
    vocab = ExtendedVocab.from_base(Vocab.byte_vocab())
    value = fertility(vocab, tiny_docs)
    assert value >= 1.0
    (tokens,), words = fertility_counts([vocab], tiny_docs)
    # Brute-force oracle: independent per-document counting loop.
    oracle_tokens = sum(len(vocab.encode(d.text)) for d in tiny_docs)
    oracle_words = sum(len(d.text.split()) for d in tiny_docs)
    assert (tokens, words) == (oracle_tokens, oracle_words)
    assert value == oracle_tokens / oracle_words


def test_fertility_single_token_words():
    vocab = train_bpe([_doc("aa bb aa bb aa bb")], 4)
    only_words = [Document(id="w", text="aa bb aa")]
    (tokens,), words = fertility_counts([ExtendedVocab.from_base(vocab)], only_words)
    # words are single tokens; separators add one token per gap
    assert tokens == 3 + 2
    assert words == 3


def test_fertility_zero_words_errors():
    vocab = ExtendedVocab.from_base(Vocab.byte_vocab())
    with pytest.raises(ValueError):
        fertility(vocab, [Document(id="e", text="   ")])


def test_vocab_json_roundtrip(tmp_path):
    base = train_bpe([_doc("low lower lowest")], 5)
    learned = train_bpe([_doc("καλό καλύτερο")], 5)
    ext = extend_vocab(base, learned)
    base_path = tmp_path / "base.json"
    ext_path = tmp_path / "ext.json"
    save_vocab(base, base_path)
    save_vocab(ext, ext_path)

    loaded_base = load_vocab(base_path)
    assert isinstance(loaded_base, Vocab)
    assert loaded_base.tokens == base.tokens
    assert loaded_base.merges == base.merges

    loaded_ext = load_vocab(ext_path)
    assert isinstance(loaded_ext, ExtendedVocab)
    assert loaded_ext.added_tokens == ext.added_tokens
    assert loaded_ext.added_merges == ext.added_merges
    sample = "low καλό"
    assert loaded_ext.encode(sample) == ext.encode(sample)

    payload = json.loads(ext_path.read_text(encoding="utf-8"))
    assert set(payload) == {"tokens", "merges", "added_tokens", "added_merges", "provenance"}


# BYTES stands for the 256 byte tokens, so a payload fails for its own fault.
@pytest.mark.parametrize("payload, reason", [
    ("{}", "missing key 'tokens'"),
    ('{"tokens": 5, "merges": []}', "'tokens' must be a list of strings"),
    ('{"tokens": ["a"', "Expecting"),
    ("[]", "expected a JSON object"),
    ('{"tokens": [BYTES, 7], "merges": []}', "'tokens' must be a list of strings"),
    ('{"tokens": [BYTES, "ab"], "merges": ["ab"]}', "malformed merge entry 'ab'"),
    ('{"tokens": [BYTES, "ab"], "merges": [["a", "b"]]}', "'merges' must be a list of strings"),
    ('{"tokens": [BYTES], "merges": [], "added_tokens": "ab"}', "'added_tokens' must be"),
    ('{"tokens": [BYTES], "merges": [], "added_tokens": [], "provenance": []}',
     "'provenance' must be an object"),
    ('{"tokens": [BYTES], "merges": [], "added_tokens": ["ab"], "added_merges": ["a"]}',
     "malformed merge entry 'a'"),
    ('{"tokens": ["a"], "merges": []}', "byte token 'Ā' (byte 0) missing"),
    ('{"tokens": [BYTES], "merges": [], "added_tokens": [], "added_merges": ["a b"]}',
     "added merge result 'ab' missing"),
], ids=["empty", "tokens-int", "cut", "list", "token-int", "merge-unsplit", "merge-list",
        "added-str", "provenance-list", "added-merge", "no-byte-tokens",
        "added-merge-result"])
def test_cli_names_the_path_of_a_malformed_vocabulary(tmp_path, capsys, payload, reason):
    path = tmp_path / "v.json"
    byte_tokens = json.dumps(Vocab.byte_vocab().tokens, ensure_ascii=False)[1:-1]
    path.write_text(payload.replace("BYTES", byte_tokens), encoding="utf-8")
    assert main(["tok", "encode", "--vocab", str(path), "--text", "abc"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert reason in err, err


def test_vocab_validation():
    with pytest.raises(ValueError):
        Vocab(tokens=["a", "a"], merges=[])
    byte_tokens = Vocab.byte_vocab().tokens
    with pytest.raises(ValueError, match="merge result 'ab'"):
        Vocab(tokens=byte_tokens, merges=[("a", "b")])  # "ab" missing
    with pytest.raises(ValueError, match=r"byte token 'a' \(byte 97\)"):
        Vocab(tokens=[t for t in byte_tokens if t != "a"] + ["ab"], merges=[])
    with pytest.raises(ValueError):
        ExtendedVocab(base=Vocab.byte_vocab(), added_tokens=["a"])  # already in base
