"""Oracle for the character language model.

The oracle is the model's former code: it counts every order at every
position, keeps a nested table per order (context -> successor probabilities
and back-off weight), and runs the interpolation recursion from the uniform
distribution up through every order for each query. `NGramLM` counts the top
order only, keeps each order's grams, counts and interpolated probabilities
in sorted arrays and looks them up, and must give the same counts and the
same floats, bit for bit: every assertion here is `==`.
"""

import math
import random
import tempfile
from collections import Counter
from pathlib import Path

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus_forge import fluency
from corpus_forge.documents import Document
from corpus_forge.fluency import (
    BOS,
    UNK,
    TrainError,
    _holdout_pick,
    normalize_text,
    read_model,
    score_documents,
    split_paragraphs,
    train_ngram_lm,
    write_model,
)


def oracle_count_levels(sequences, order):
    raw = [Counter() for _ in range(order)]  # raw[m-1] for order m
    vocab = set()
    n_chars = 0
    pad = order - 1
    for seq in sequences:
        vocab.update(seq)
        n_chars += len(seq)
        padded = BOS * pad + seq
        for t in range(pad, len(padded)):
            hi = t + 1
            for m in range(1, order + 1):
                raw[m - 1][padded[hi - m : hi]] += 1
    levels = [Counter() for _ in range(order)]
    levels[order - 1] = raw[order - 1]
    for m in range(order - 1, 0, -1):
        cont = levels[m - 1]
        for gram in raw[m]:
            cont[gram[1:]] += 1
    return levels, vocab, n_chars


def oracle_discounts(count_of_counts):
    """Chen & Goodman's modified Kneser-Ney estimates; the fixed (0.5, 1, 1.5)
    when a bucket t1..t4 is empty or an estimate is not positive."""
    t1, t2, t3, t4 = (count_of_counts.get(k, 0) for k in (1, 2, 3, 4))
    if min(t1, t2, t3, t4) == 0:
        return (0.5, 1.0, 1.5)
    y = t1 / (t1 + 2.0 * t2)
    d1 = 1.0 - 2.0 * y * t2 / t1
    d2 = 2.0 - 3.0 * y * t3 / t2
    d3 = 3.0 - 4.0 * y * t4 / t3
    if min(d1, d2, d3) <= 0.0:
        return (0.5, 1.0, 1.5)
    return (d1, d2, d3)


class OracleLM:
    def __init__(self, order, level_counts, vocab, h_ref):
        self.order = order
        self.level_counts = level_counts
        self.vocab = frozenset(vocab) | {UNK}
        self.h_ref = h_ref
        self._uniform = 1.0 / len(self.vocab)
        self._discounts = [
            oracle_discounts(Counter(level_counts[m].values())) for m in range(order)
        ]
        self._tables = self._build_tables()

    def _build_tables(self):
        tables = []
        for m in range(1, self.order + 1):
            grouped = {}
            for gram, c in self.level_counts[m - 1].items():
                ctx, w = gram[:-1], gram[-1]
                grouped.setdefault(ctx, {})[w] = c
            d1, d2, d3 = self._discounts[m - 1]
            table = {}
            for ctx, successors in grouped.items():
                total = sum(successors.values())
                n1 = n2 = n3p = 0
                probs = {}
                for w, c in successors.items():
                    if c == 1:
                        d = d1
                        n1 += 1
                    elif c == 2:
                        d = d2
                        n2 += 1
                    else:
                        d = d3
                        n3p += 1
                    probs[w] = max(c - d, 0.0) / total
                gamma = (d1 * n1 + d2 * n2 + d3 * n3p) / total
                table[ctx] = (probs, gamma)
            tables.append(table)
        return tables

    def prob(self, char, context=""):
        context = normalize_text(context)
        char = normalize_text(char) if char else char
        if len(char) != 1:
            raise ValueError("prob() scores exactly one character")
        ctx = (BOS * (self.order - 1) + context)[-(self.order - 1) :]
        return self._prob_padded(char, ctx)

    def _prob_padded(self, w, ctx):
        if w not in self.vocab:
            w = UNK
        p = self._uniform
        order = self.order
        for m in range(1, order + 1):
            entry = self._tables[m - 1].get(ctx[order - m :] if m > 1 else "")
            if entry is not None:
                probs, gamma = entry
                p = probs.get(w, 0.0) + gamma * p
        return p

    def log_prob(self, text):
        seq = normalize_text(text)
        if not seq:
            return 0.0
        pad = self.order - 1
        padded = BOS * pad + seq
        total = 0.0
        for t in range(pad, len(padded)):
            total += math.log(self._prob_padded(padded[t], padded[t - pad : t]))
        return total

    def cross_entropy(self, text):
        seq = normalize_text(text)
        if not seq:
            raise ValueError("cannot score empty text")
        return -self.log_prob(seq) / len(seq)

    def fluency_score(self, paragraph):
        h = self.cross_entropy(paragraph)
        if h <= 0.0:
            return 1.0
        return min(1.0, self.h_ref / h)

    def document_score(self, text):
        weighted = 0.0
        total_len = 0
        for para in split_paragraphs(text):
            seq = normalize_text(para)
            if not seq:
                continue
            weighted += len(seq) * self.fluency_score(seq)
            total_len += len(seq)
        if total_len == 0:
            raise ValueError("document has no scoreable paragraphs")
        return weighted / total_len


def oracle_train(corpus, order, holdout_fraction, seed):
    train_seqs, held_seqs = [], []
    for index, doc in enumerate(corpus):
        target = held_seqs if _holdout_pick(seed, index, holdout_fraction) else train_seqs
        for para in split_paragraphs(doc.text):
            seq = normalize_text(para)
            if seq:
                target.append(seq)
    if not train_seqs and held_seqs:
        train_seqs, held_seqs = held_seqs, []
    levels, vocab, n_chars = oracle_count_levels(train_seqs, order)
    if n_chars < order:
        raise TrainError(f"training corpus has {n_chars} characters, fewer than order {order}")
    lm = OracleLM(order, levels, vocab, 1.0)
    ref_seqs = held_seqs if held_seqs else train_seqs
    log_total = 0.0
    len_total = 0
    for seq in ref_seqs:
        log_total += lm.log_prob(seq)
        len_total += len(seq)
    h_ref = -log_total / len_total
    if not h_ref > 0.0:
        raise TrainError("reference cross-entropy is not positive; corpus too degenerate")
    lm.h_ref = h_ref
    return lm


# Greek and Latin letters, digits, the reserved BOS and UNK, and whitespace;
# queries add characters no corpus holds.
SEEN = "αβγάaby09" + BOS + UNK + " "
UNSEEN = "ωqZ☃"
SEPARATORS = ["\n\n", "\n \n", "\n\t\n\n"]
paragraphs = st.text(alphabet=SEEN, max_size=30)
documents = st.lists(paragraphs, min_size=1, max_size=3).flatmap(
    lambda ps: st.sampled_from(SEPARATORS).map(lambda sep: sep.join(ps))
)


@st.composite
def skewed_corpora(draw):
    """A few hundred characters per paragraph under skewed character
    weights: enough for every count-of-count bucket 1..4 to fill, so the
    discounts are estimated, not the fixed fallback whose gammas multiply
    exactly."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    weights = [rng.random() ** 3 for _ in SEEN]
    return [
        rng.choice(SEPARATORS).join(
            "".join(rng.choices(SEEN, weights, k=rng.randint(20, 300)))
            for _ in range(rng.randint(1, 3))
        )
        for _ in range(rng.randint(1, 4))
    ]


corpora = st.one_of(st.lists(documents, min_size=1, max_size=6), skewed_corpora())
queries = st.lists(
    st.tuples(st.sampled_from(SEEN + UNSEEN), st.text(alphabet=SEEN + UNSEEN, max_size=10)),
    max_size=25,
)
texts = st.lists(st.text(alphabet=SEEN + UNSEEN + "\n", max_size=200), max_size=4)


# Skewed text whose order-2 level estimates a discount <= 0, so that level
# falls back to the fixed discounts.
CLAMPED = "".join(random.Random(4).choices("abcdef", weights=[50, 25, 12, 8, 4, 1], k=685))


def _value(f, *args):
    """f(*args), or the message of the ValueError it raises: a TrainError, or
    a text with nothing to score. The log of a zero probability is no such
    error: every probability is positive."""
    try:
        return f(*args)
    except ValueError as exc:
        if str(exc) == "math domain error":
            raise
        return f"{type(exc).__name__}: {exc}"


def _train(train, texts_, *args):
    lm = _value(train, [Document(id=str(i), text=t) for i, t in enumerate(texts_)], *args)
    return (None, lm) if isinstance(lm, str) else (lm, None)


def _level_counts(lm):
    """The model's count tables as one {gram: count} dict per order."""
    return [dict(zip(g.tolist(), c.tolist())) for g, c in lm.levels()]


def _outputs(lm, query_list, text_list):
    out = [lm.prob(char, ctx) for char, ctx in query_list]
    assert all(p > 0.0 for p in out)
    out += [_value(lm.log_prob, t) for t in text_list]
    out += [_value(lm.document_score, t) for t in text_list]
    return out


@settings(max_examples=250, deadline=None)
@given(
    corpus=corpora,
    order=st.integers(2, 8),
    holdout=st.sampled_from([0.0, 0.4]),
    seed=st.integers(0, 3),
    query_list=queries,
    text_list=texts,
)
@example(
    corpus=["αβγ αβ αβγα\n\nbaby 09 ab\n\nαβγ" + UNK + "αβ", "aaaa bbbb aaaa"],
    order=5, holdout=0.0, seed=0,
    query_list=[("ω", "αβγ"), ("q", "ab"), ("a", ""), ("γ", "☃β"), ("β", "aaaaaaaa")],
    text_list=["αβγω aqb", "☃☃ αβ\n\nbaby"],
)
@example(
    corpus=[CLAMPED], order=2, holdout=0.0, seed=0,
    query_list=[("f", "f"), ("q", "a"), ("a", "e")],
    text_list=["abcdefabcdeffedcbaaffeeddc"],
)
def test_model_matches_the_recursion_oracle(corpus, order, holdout, seed, query_list, text_list):
    lm, error = _train(train_ngram_lm, corpus, order, holdout, seed)
    oracle, oracle_error = _train(oracle_train, corpus, order, holdout, seed)
    assert error == oracle_error
    if oracle is None:
        return
    assert _level_counts(lm) == oracle.level_counts
    assert lm.vocab == oracle.vocab
    assert lm.h_ref == oracle.h_ref
    expected = _outputs(oracle, query_list, text_list)
    assert _outputs(lm, query_list, text_list) == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.nglm"
        write_model(lm, path)
        loaded = read_model(path)
    assert _level_counts(loaded) == oracle.level_counts
    assert loaded.h_ref == oracle.h_ref
    assert _outputs(loaded, query_list, text_list) == expected


@settings(max_examples=30, deadline=None)
@given(corpus=corpora, order=st.integers(2, 8))
def test_every_seen_gram_in_every_context_matches_the_oracle(corpus, order):
    """All contexts the corpus holds, at each length, with every character."""
    lm, _ = _train(train_ngram_lm, corpus, order, 0.0, 0)
    oracle, _ = _train(oracle_train, corpus, order, 0.0, 0)
    if oracle is None:
        return
    contexts = {gram[:-1] for level in oracle.level_counts for gram in level}
    for ctx in sorted(contexts):
        for char in SEEN + UNSEEN:
            assert lm.prob(char, ctx) == oracle.prob(char, ctx), (char, ctx)


@settings(max_examples=60, deadline=None)
@given(
    corpus=corpora,
    order=st.integers(2, 8),
    chunk=st.sampled_from([1, 2, 3, 7]),
    query_list=queries,
    text_list=texts,
)
def test_chunks_of_any_size_count_and_score_as_the_oracle(
    corpus, order, chunk, query_list, text_list
):
    """Counting, h_ref and scoring cut sequences into pieces, and scoring
    batches documents, of about `_CHUNK` characters; tiny chunks cut inside
    every sequence and document."""
    oracle, oracle_error = _train(oracle_train, corpus, order, 0.4, 1)
    with mock.patch.object(fluency, "_CHUNK", chunk):
        lm, error = _train(train_ngram_lm, corpus, order, 0.4, 1)
        assert error == oracle_error
        if oracle is None:
            return
        assert _level_counts(lm) == oracle.level_counts
        assert lm.h_ref == oracle.h_ref
        assert _outputs(lm, query_list, text_list) == _outputs(oracle, query_list, text_list)
        docs = [Document(id=str(i), text=t) for i, t in enumerate(text_list)]
        scores = [doc.scores["fluency"] for doc in score_documents(lm, docs)]
    assert scores == [oracle.document_score(t) if t.strip() else 0.0 for t in text_list]
