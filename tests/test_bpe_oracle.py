"""Oracles for BPE training and encoding.

The training oracle recounts every adjacent pair of every segment occurrence
after each merge; `train_bpe` counts each distinct segment once and updates
pair counts only around the merged positions, and must pick the same merges.
The encoding oracle maps and merges every segment afresh, with no cache.
"""

import re
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_forge.bpe import Vocab, bytes_to_unicode, extend_vocab, fertility_counts, train_bpe
from corpus_forge.documents import Document, corpus_stats

_SEGMENT = re.compile(r"\S+|\s+")


def _mapped(segment):
    table = bytes_to_unicode()
    return [table[b] for b in segment.encode("utf-8")]


def _merge(symbols, pair):
    out, i = [], 0
    while i < len(symbols):
        if tuple(symbols[i:i + 2]) == pair:
            out.append(pair[0] + pair[1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def naive_merges(texts, k):
    """Greedy BPE by full recount over every segment occurrence: the most
    frequent adjacent pair, ties to the smallest pair."""
    words = [_mapped(seg) for text in texts for seg in _SEGMENT.findall(text)]
    merges = []
    while len(merges) < k:
        counts = Counter(p for w in words for p in zip(w, w[1:]))
        if not counts:
            break
        best = min(counts, key=lambda p: (-counts[p], p))
        merges.append(best)
        words = [_merge(w, best) for w in words]
    return merges


def reference_encode(text, phases, token_to_id):
    """Per segment: map its bytes, then in each phase merge the lowest-ranked
    adjacent pair everywhere until none is ranked."""
    ids = []
    for seg in _SEGMENT.findall(text):
        symbols = _mapped(seg)
        for merges in phases:
            ranks = {pair: r for r, pair in enumerate(merges)}
            while True:
                ranked = [p for p in zip(symbols, symbols[1:]) if p in ranks]
                if not ranked:
                    break
                symbols = _merge(symbols, min(ranked, key=ranks.__getitem__))
        ids.extend(token_to_id[s] for s in symbols)
    return ids


# Segments that share letters, including the overlapping runs where one
# merge changes its neighbours' pairs (aaaa, abab, ababab), plus whitespace
# runs; sampled segments repeat across documents.
_WORDS = st.one_of(
    st.sampled_from(["a", "aa", "aaa", "aaaa", "aaaaa", "ab", "abab", "ababab", "abababa",
                     "ba", "aab", "αα", "αβαβ", "λόγος", "aαaα", "ααααα"]),
    st.text(alphabet="abαβλ", min_size=1, max_size=9),
)
_GAPS = st.sampled_from([" ", "  ", "\t", "\n", "\n\n", " \n\t "])
_TEXTS = st.lists(st.tuples(_WORDS, _GAPS), max_size=10).map(
    lambda parts: "".join(w + g for w, g in parts))


@settings(max_examples=150, deadline=None)
@given(st.lists(_TEXTS, min_size=1, max_size=6), st.integers(1, 40))
def test_train_bpe_matches_full_recount(texts, k):
    vocab = train_bpe([Document(id=str(i), text=t) for i, t in enumerate(texts)], k)
    # Document text is NFC-normalized; the oracle sees the same text.
    assert vocab.merges == naive_merges([Document(id="x", text=t).text for t in texts], k)


@settings(max_examples=80, deadline=None)
@given(st.lists(_TEXTS, min_size=2, max_size=8), st.integers(1, 40), st.data())
def test_merges_do_not_depend_on_document_order(texts, k, data):
    docs = [Document(id=str(i), text=t) for i, t in enumerate(texts)]
    shuffled = data.draw(st.permutations(docs))
    assert train_bpe(shuffled, k).merges == train_bpe(docs, k).merges


_BASE = train_bpe([Document(id="en", text="the cat sat on the mat\tthe hat\n\nthat is all ")], 25)
_GREEK = "ο λόγος του λόγου, το αλφάβητο 😀😀 \U0001d49c\t\tκαι λόγια\n\nο κόσμος 😀"
_LEARNED = train_bpe([Document(id="el", text=_GREEK)], 40)

# Mixed scripts, non-BMP characters, tabs and newline runs.
_CHARS = st.one_of(
    st.sampled_from(list("the catmλόγοςαβ,") + [" ", "  ", "\t", "\n", "\n\n\n", "😀"]),
    st.characters(min_codepoint=0x10000, max_codepoint=0x1FFFF, categories=["L", "S"]),
    st.characters(),
)
_ENCODE_TEXTS = st.lists(_CHARS, max_size=40).map("".join)


def _vocabs():
    """Fresh copies, so every example starts with an empty segment cache."""
    base = Vocab(_BASE.tokens, _BASE.merges)
    ext = extend_vocab(base, _LEARNED)
    return [
        (base, [base.merges], base.token_to_id),
        (ext, [base.merges, ext.added_merges],
         {ext.token_string(i): i for i in range(ext.total_size)}),
    ]


@settings(max_examples=100, deadline=None)
@given(st.lists(_ENCODE_TEXTS, min_size=1, max_size=5))
def test_encoder_and_counts_match_cache_free_reference(texts):
    docs = [Document(id=str(i), text=t, dataset="ab"[i % 2]) for i, t in enumerate(texts)]
    for vocab, phases, token_to_id in _vocabs():
        for text in texts + texts:  # the second pass reads the segment cache
            ids = vocab.encode(text)
            assert ids == reference_encode(text, phases, token_to_id)
            assert vocab.decode(ids) == text
        per_doc = [len(vocab.encode(d.text)) for d in docs]
        words = sum(len(d.text.split()) for d in docs)
        assert fertility_counts(vocab, docs) == (sum(per_doc), words)
        by_dataset = {}
        for d, n in zip(docs, per_doc):
            by_dataset[d.dataset] = by_dataset.get(d.dataset, 0) + n
        assert corpus_stats(docs, vocab).per_subcorpus == by_dataset
