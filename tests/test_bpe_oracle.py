"""Oracles for BPE training and encoding.

The training oracle recounts every adjacent pair of every segment occurrence
after each merge; `train_bpe` counts each distinct segment once and updates
pair counts only around the merged positions, and must pick the same merges.
The encoding oracle maps and merges every segment afresh, with no cache,
by the encoder's former loop, which rescans the segment after each merge;
the encoder takes its merges from a heap and must give the same ids.
"""

import random
import re
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus_forge.bpe import (
    ExtendedVocab,
    Vocab,
    bytes_to_unicode,
    extend_vocab,
    fertility_counts,
    train_bpe,
    unmap_to_bytes,
)
from corpus_forge.documents import Document, corpus_stats

_SEGMENT = re.compile(r"\S+|\s+")


def _mapped(segment):
    table = bytes_to_unicode()
    return [table[b] for b in segment.encode("utf-8", errors="surrogatepass")]


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


def rescan_apply_merges(symbols, ranks):
    """The encoder's former loop, kept as the oracle for its heap: find the
    lowest-rank adjacent pair, merge its leftmost non-overlapping
    occurrences, and rescan the whole segment."""
    if not ranks:
        return symbols
    while len(symbols) >= 2:
        best_pair = None
        best_rank = None
        for pair in zip(symbols, symbols[1:]):
            rank = ranks.get(pair)
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank = rank
                best_pair = pair
        if best_pair is None:
            break
        symbols = _merge(symbols, best_pair)
    return symbols


def reference_encode(text, phases, token_to_id):
    """Per segment: map its bytes, then run each phase's merges through the
    rescan loop. Ranks come from the same dict comprehension as the
    encoder's, so a repeated pair keeps its later rank."""
    ids = []
    for seg in _SEGMENT.findall(text):
        symbols = _mapped(seg)
        for merges in phases:
            symbols = rescan_apply_merges(symbols, {pair: r for r, pair in enumerate(merges)})
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
# Lone surrogates, as st.characters() may draw and as argv or a file read
# with surrogateescape may hold, encode and decode back unchanged.
@example(["\ud800", "a\udcff b\udfff", "\ud83d\ude00 😀"])
def test_encoder_and_counts_match_cache_free_reference(texts):
    docs = [Document(id=str(i), text=t, dataset="ab"[i % 2]) for i, t in enumerate(texts)]
    for vocab, phases, token_to_id in _vocabs():
        for text in texts + texts:  # the second pass reads the segment cache
            ids = vocab.encode(text)
            assert ids == reference_encode(text, phases, token_to_id)
            assert vocab.decode(ids) == text
        per_doc = [len(vocab.encode(d.text)) for d in docs]
        words = sum(len(d.text.split()) for d in docs)
        assert fertility_counts([vocab], docs) == ([sum(per_doc)], words)
        by_dataset = {}
        for d, n in zip(docs, per_doc):
            by_dataset[d.dataset] = by_dataset.get(d.dataset, 0) + n
        assert corpus_stats(docs, vocab).per_subcorpus == by_dataset


@st.composite
def _merge_lists(draw):
    """Merges over a, b and, when α's two bytes are merged, α, whose operands
    are earlier results; then shuffled, so an operand may come from a later
    merge. Sometimes one pair is repeated. Two routes to one string make a
    result that is already a token."""
    pool = ["a", "b"]
    merges = []
    if draw(st.booleans()):
        merges.append(tuple(_mapped("α")))  # α is two byte symbols
        pool.append("".join(_mapped("α")))
    for _ in range(draw(st.integers(0, 10))):
        pair = (draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))
        merges.append(pair)
        if pair[0] + pair[1] not in pool:
            pool.append(pair[0] + pair[1])
    merges = list(draw(st.permutations(merges)))
    if merges and draw(st.booleans()):
        merges.insert(draw(st.integers(0, len(merges))), draw(st.sampled_from(merges)))
    return merges


def _results(merges, known):
    """Merge results not in `known`, in merge order, each once."""
    out = []
    for a, b in merges:
        if a + b not in known and a + b not in out:
            out.append(a + b)
    return out


def _adversarial_vocabs(base_merges, added_merges):
    """A Vocab, and an ExtendedVocab over it, each with the merge phases and
    the token ids the oracle encodes with."""
    byte_tokens = [bytes_to_unicode()[b] for b in range(256)]
    base = Vocab(byte_tokens + _results(base_merges, set(byte_tokens)), base_merges)
    ext = ExtendedVocab(base=base, added_tokens=_results(added_merges, set(base.tokens)),
                        added_merges=added_merges)
    return [
        (base, [base_merges], base.token_to_id),
        (ext, [base_merges, added_merges],
         {ext.token_string(i): i for i in range(ext.total_size)}),
    ]


@st.composite
def _merge_cases(draw):
    """Two merge lists, and texts built from their results' text, from runs
    such as aaaa and ababab, and from a, b, α and spaces."""
    base_merges, added_merges = draw(_merge_lists()), draw(_merge_lists())
    results = {unmap_to_bytes(a + b).decode("utf-8", "ignore")
               for a, b in base_merges + added_merges}
    pieces = st.sampled_from(sorted(results - {""}) + ["a", "b", "α", " ", "\n"])
    runs = st.sampled_from(["aaaa", "aaaaa", "ababab", "abababa", "aabab", "αααα", "aαaα"])
    texts = st.lists(st.one_of(pieces, runs, st.text(alphabet="abα ", max_size=8)), max_size=12)
    return base_merges, added_merges, draw(st.lists(texts.map("".join), min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(_merge_cases())
# A merge of rank 1 forms a rank-0 pair (ab, a) mid-round; it must wait.
@example(([("ab", "a"), ("a", "b")], [], ["abab ababa"]))
# ("a", "b") comes twice: the later rank, 2, holds, so (b, a) merges first.
@example(([("a", "b"), ("b", "a"), ("a", "b")], [("ab", "ab")], ["abab baba"]))
# "aba" is made by either route, and the added phase repeats a base result.
@example(([("a", "b"), ("ab", "a"), ("b", "a"), ("a", "ba")], [("a", "ba"), ("aba", "b")],
          ["ababa abab aaba"]))
def test_heap_encoder_matches_rescan_loop_on_adversarial_merges(case):
    base_merges, added_merges, texts = case
    for vocab, phases, token_to_id in _adversarial_vocabs(base_merges, added_merges):
        for text in texts:
            assert vocab.encode(text) == reference_encode(text, phases, token_to_id)


@settings(max_examples=12, deadline=None)
@given(_merge_lists(), _merge_lists(), st.sampled_from(["a", "ab", "abα", "aab"]),
       st.integers(0, 2**32 - 1))
def test_heap_encoder_matches_rescan_loop_on_a_long_unspaced_segment(
    base_merges, added_merges, alphabet, seed
):
    segment = "".join(random.Random(seed).choices(alphabet, k=20_000))
    for vocab, phases, token_to_id in _adversarial_vocabs(base_merges, added_merges):
        assert vocab.encode(segment) == reference_encode(segment, phases, token_to_id)
