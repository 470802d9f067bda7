"""Character n-gram language model with interpolated modified Kneser-Ney
smoothing, used to score text fluency in [0, 1].

The score for a paragraph is min(1, h_ref / h_para), where h_para is the
model's per-character cross-entropy on the paragraph (nats) and h_ref the
held-out cross-entropy measured at training time. A document scores as the
length-weighted mean over its blank-line-separated paragraphs.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
import operator
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import binfile
from .documents import Document

log = logging.getLogger(__name__)

BOS = "\x00"  # reserved context padding symbol
UNK = "\x01"  # reserved unknown-character symbol

# Used when count-of-count buckets are too sparse to estimate discounts.
FALLBACK_DISCOUNTS = (0.5, 1.0, 1.5)

_PARAGRAPH_SPLIT = re.compile(r"\n\s*\n")


class TrainError(ValueError):
    """Raised when the training corpus cannot support the requested model."""


class ModelFormatError(binfile.FormatError):
    """Raised for corrupt or foreign model files."""


def normalize_text(text: str) -> str:
    """NFC-normalize and map the reserved BOS/UNK code points to UNK."""
    text = unicodedata.normalize("NFC", text)
    if BOS in text:
        text = text.replace(BOS, UNK)
    return text


def split_paragraphs(text: str) -> list[str]:
    return [p.strip() for p in _PARAGRAPH_SPLIT.split(text) if p.strip()]


def _estimate_discounts(counts: np.ndarray) -> tuple[float, float, float]:
    """Modified Kneser-Ney discounts from the count-of-counts of one level.

    Falls back to fixed discounts when any of t1..t4 is empty (tiny corpora)
    or any estimate is not positive, as KenLM's --discount_fallback does: a
    zero discount leaves a context no back-off mass, so an unseen successor
    would get probability 0. Each D_k < k, since y and every t_k are positive.
    """
    t1, t2, t3, t4 = np.bincount(np.minimum(counts, 5), minlength=6)[1:5].tolist()
    if min(t1, t2, t3, t4) == 0:
        return FALLBACK_DISCOUNTS
    y = t1 / (t1 + 2.0 * t2)
    d1 = 1.0 - 2.0 * y * t2 / t1
    d2 = 2.0 - 3.0 * y * t3 / t2
    d3 = 3.0 - 4.0 * y * t4 / t3
    if min(d1, d2, d3) <= 0.0:
        return FALLBACK_DISCOUNTS
    return (d1, d2, d3)


# Rows of code points per chunk of grams counted or scored at once.
_CHUNK = 1 << 16


def _keys(codes: np.ndarray) -> np.ndarray:
    """Each row of an (n, m) array of code points as one `U{m}` string. numpy
    orders these by code point, as Python orders str, but reads trailing NULs
    as padding, so no gram may end in BOS."""
    return np.ascontiguousarray(codes, "<u4").view(f"<U{codes.shape[1]}").reshape(-1)


def _find(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each query's index in the sorted `keys`, and whether it is there. The
    queries are searched in sorted order: numpy's binary search is about
    twice as fast that way, even with the sort."""
    order = np.argsort(queries)
    at = np.empty(len(queries), np.intp)
    at[order] = np.searchsorted(keys, queries[order])
    if not len(keys):
        return at, np.zeros(len(queries), bool)
    return at, keys.take(at, mode="clip") == queries


def _grams(seqs: Iterable[str], order: int) -> Iterator[np.ndarray]:
    """The gram of each character of `seqs`, in order: its order-1
    predecessors, BOS-padded at the start of its sequence, and itself. Yields
    (rows, order) arrays of code points, a chunk of about _CHUNK rows at a
    time; a longer sequence is cut into pieces, each led by its context."""
    pad = order - 1
    pieces: list[str] = []
    rows = 0
    for seq in seqs:
        padded = BOS * pad + seq
        for a in range(0, len(seq), _CHUNK):
            pieces.append(padded[a : a + _CHUNK + pad])
            rows += len(pieces[-1]) - pad
            if rows >= _CHUNK:
                yield _piece_grams(pieces, order)
                pieces, rows = [], 0
    if pieces:
        yield _piece_grams(pieces, order)


def _piece_grams(pieces: list[str], order: int) -> np.ndarray:
    """The grams ending past the leading order-1 characters of each piece."""
    codes = np.frombuffer("".join(pieces).encode("utf-32-le", "surrogatepass"), "<u4")
    starts = np.cumsum([0, *map(len, pieces[:-1])])
    ends = np.ones(len(codes), bool)
    ends[(starts[:, None] + np.arange(order - 1)).reshape(-1)] = False
    return np.lib.stride_tricks.sliding_window_view(codes, order)[ends[order - 1 :]]


class NGramLM:
    """Immutable after training; queries are thread-safe.

    keys[m-1] holds the sorted distinct grams of order m, each as one int64:
    the code point of its first character times the number of order-(m-1)
    grams, plus the index of its suffix gram[1:] among them (at order 1, the
    code point alone). A gram's last character is the predicted symbol, and
    sorted keys are sorted grams. counts[m-1] holds their counts: raw n-gram
    counts at the top order, continuation counts below it. The levels must be
    suffix-closed (each gram of order m >= 2 drops its first character to a
    gram of order m-1), as counting makes them and `read_model` checks.
    """

    def __init__(self, order: int, keys: list[np.ndarray], counts: list[np.ndarray],
                 vocab: set[str], h_ref: float):
        if order < 2:
            raise ValueError("order must be at least 2")
        self.order = order
        self.keys = keys
        self.counts = counts
        self.vocab = frozenset(vocab) | {UNK}
        self.h_ref = h_ref
        self._uniform = 1.0 / len(self.vocab)
        self._vocab_codes = np.array(sorted(map(ord, self.vocab)), np.uint32)
        self._discounts = [_estimate_discounts(c) for c in counts]
        self._build_tables()

    def levels(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Each order's sorted grams, as `U{m}` strings, and their counts."""
        codes = np.zeros((1, 0), np.uint32)  # the empty gram
        for keys, counts in zip(self.keys, self.counts):
            first, below = np.divmod(keys, len(codes))
            codes = np.column_stack([first.astype(np.uint32), codes[below]])
            yield _keys(codes), counts

    def _build_tables(self) -> None:
        """Per order m (index m-1): probs, each gram's interpolated
        P(gram[-1] | gram[:-1]); contexts, the sorted distinct contexts gram[:-1],
        keyed as grams are but over the contexts one order down (the empty
        context is 0); gammas, their back-off weights.

        Built bottom-up as max(c - d, 0) / total + gamma * probs[m-1][gram[1:]]:
        the recursion's float operations in its order, elementwise, so the
        values are bit-identical while a context's total stays below 2**53.
        The grams are sorted, so each context's grams are contiguous."""
        self._probs: list[np.ndarray] = []
        self._contexts: list[np.ndarray] = []
        self._gammas: list[np.ndarray] = []
        at = np.zeros(1, np.intp)  # the context index of each gram one order down
        for m, keys in enumerate(self.keys, 1):
            if m == 1:
                context = np.zeros(len(keys), np.int64)
                lower = self._uniform
            else:
                first, below = np.divmod(keys, len(self.keys[m - 2]))
                context = first * len(self._contexts[m - 2]) + at[below]
                lower = self._probs[m - 2][below]
            new = np.ones(len(keys), bool)
            new[1:] = context[1:] != context[:-1]
            at = np.cumsum(new) - 1
            self._contexts.append(context[new])
            k = len(self._contexts[-1])

            c = self.counts[m - 1].astype(np.float64)
            total = np.bincount(at, weights=c, minlength=k)
            n1, n2, n3p = (np.bincount(at[hit], minlength=k) for hit in (c == 1, c == 2, c > 2))
            d1, d2, d3 = self._discounts[m - 1]
            gamma = (d1 * n1 + d2 * n2 + d3 * n3p) / total
            self._gammas.append(gamma)
            d = np.where(c == 1, d1, np.where(c == 2, d2, d3))
            self._probs.append(np.maximum(c - d, 0.0) / total[at] + gamma[at] * lower)

    def _gram_probs(self, grams: np.ndarray) -> np.ndarray:
        """P(w | ctx) for each row ctx + w of an (n, order) array of code
        points, whose last column it rewrites to UNK where w is out of the
        vocabulary. Each row's suffixes are looked up from order 1 up; the
        levels are suffix-closed, so the first miss ends the longest suffix
        that is a gram, which gives the probability up to its order. Each
        order above it whose context was seen then scales it by its gamma, in
        ascending order, as the recursion does."""
        order = self.order
        last = grams[:, -1]
        grams[:, -1] = np.where(_find(self._vocab_codes, last)[1], last, ord(UNK))
        p = np.full(len(grams), self._uniform)
        k = np.zeros(len(grams), np.intp)  # order of the longest suffix found
        rows, index, size = np.arange(len(grams)), 0, 1
        for m in range(1, order + 1):
            if not len(rows):
                break
            queries = grams[rows, order - m] * np.int64(size) + index
            at, found = _find(self.keys[m - 1], queries)
            rows, index = rows[found], at[found]
            p[rows] = self._probs[m - 1][index]
            k[rows] = m
            size = len(self.keys[m - 1])
        rows, index, size = np.flatnonzero(k < order), 0, 0  # the empty context is 0
        for m in range(1, order + 1):
            if not len(rows):
                break
            queries = grams[rows, order - m] * np.int64(size) + index
            at, found = _find(self._contexts[m - 1], queries)
            rows, index = rows[found], at[found]
            up = k[rows] < m
            p[rows[up]] = 0.0 + self._gammas[m - 1][index[up]] * p[rows[up]]
            size = len(self._contexts[m - 1])
        return p

    def prob(self, char: str, context: str = "") -> float:
        """P(char | context); context shorter than order-1 is BOS-padded."""
        context = normalize_text(context)
        char = normalize_text(char) if char else char
        if len(char) != 1:
            raise ValueError("prob() scores exactly one character")
        ctx = (BOS * (self.order - 1) + context)[-(self.order - 1) :]
        return float(self._gram_probs(np.array([list(map(ord, ctx + char))], np.uint32))[0])

    def log_prob(self, text: str) -> float:
        """Total log probability of text as one sequence (nats); empty -> 0.0."""
        return next(self._log_probs([normalize_text(text)]))

    def _log_probs(self, seqs: list[str]) -> Iterator[float]:
        """log_prob of each already normalised sequence, all scored in one
        pass; each sequence's logs are added left to right."""
        probs = np.concatenate([np.empty(0)] + [self._gram_probs(g)
                                                for g in _grams(seqs, self.order)])
        for part in np.split(probs, np.cumsum([len(seq) for seq in seqs[:-1]], dtype=np.intp)):
            yield functools.reduce(operator.add, map(math.log, part.tolist()), 0.0)

    def cross_entropy(self, text: str) -> float:
        """Per-character cross-entropy in nats."""
        seq = normalize_text(text)
        if not seq:
            raise ValueError("cannot score empty text")
        return -next(self._log_probs([seq])) / len(seq)

    def fluency_score(self, paragraph: str) -> float:
        """min(1, h_ref / h_paragraph); monotone decreasing in cross-entropy."""
        return self._score(self.cross_entropy(paragraph))

    def _score(self, h: float) -> float:
        if h <= 0.0:
            return 1.0
        return min(1.0, self.h_ref / h)

    def document_score(self, text: str) -> float:
        """Length-weighted mean of paragraph scores; empty paragraphs skipped."""
        (score,) = self._document_scores([text])
        if score is None:
            raise ValueError("document has no scoreable paragraphs")
        return score

    def _document_scores(self, texts: list[str]) -> list[float | None]:
        """document_score of each text, None for one with no scoreable
        paragraph; the paragraphs of all texts are scored in one pass."""
        docs = [[seq for seq in map(normalize_text, split_paragraphs(text)) if seq]
                for text in texts]
        log_probs = self._log_probs([seq for seqs in docs for seq in seqs])
        scores: list[float | None] = []
        for seqs in docs:
            weighted = 0.0
            total_len = 0
            for seq, log_prob in zip(seqs, log_probs):
                weighted += len(seq) * self._score(-log_prob / len(seq))
                total_len += len(seq)
            scores.append(weighted / total_len if seqs else None)
        return scores


def _holdout_pick(seed: int, index: int, fraction: float) -> bool:
    if fraction <= 0.0:
        return False
    digest = hashlib.blake2b(
        f"{seed}:{index}".encode(), digest_size=8, key=b"lm-holdout"
    ).digest()
    return int.from_bytes(digest, "little") / 2**64 < fraction


def _count_levels(
    sequences: Iterable[str], order: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The keys and counts of each order (see NGramLM). The top order's
    grams are counted as `U{order}` strings, chunk by chunk; below it, the
    counts are continuation counts (distinct left extensions). Every lower
    gram at a position is a suffix of that position's top gram, so the
    distinct tails of each level are the next level down."""
    grams = np.empty(0, f"<U{order}")
    counts = np.empty(0, np.int64)
    for chunk in _grams(sequences, order):
        new, new_counts = np.unique(_keys(chunk), return_counts=True)
        at, found = _find(grams, new)
        counts[at[found]] += new_counts[found]
        grams = np.insert(grams, at[~found], new[~found])
        counts = np.insert(counts, at[~found], new_counts[~found])
    keys, level_counts = [], [counts]
    for m in range(order, 1, -1):
        codes = grams.view("<u4").reshape(-1, m)
        first, tails = codes[:, 0].astype(np.int64), _keys(codes[:, 1:])
        codes = grams = None  # freed before the sort of the tails
        # grams and counts of order m-1; below indexes each order-m gram's tail
        grams, below, counts = np.unique(tails, return_inverse=True, return_counts=True)
        keys.append(first * len(grams) + below)
        level_counts.append(counts)
    keys.append(grams.view("<u4").astype(np.int64))
    return keys[::-1], level_counts[::-1]


@dataclass(frozen=True)
class FluencyConfig:
    """The `fluency` config section; without `model_path` the stage trains a model."""

    enabled: bool = False
    model_path: Path | None = None
    order: int = 7
    holdout_fraction: float = 0.1
    train_dataset: str | None = None
    max_train_chars: int = 1_000_000

    def __post_init__(self) -> None:
        if not 2 <= self.order <= 8:
            raise ValueError("order must lie in [2, 8]")


def train_ngram_lm(
    corpus: Iterable[Document],
    order: int = FluencyConfig.order,
    holdout_fraction: float = FluencyConfig.holdout_fraction,
    seed: int = 0,
) -> NGramLM:
    """Train on blank-line-separated paragraphs, each BOS-padded independently.

    Deterministic given corpus order and seed; the held-out split feeds the
    h_ref cross-entropy reference.
    """
    if not 2 <= order <= 8:
        raise ValueError("order must lie in [2, 8]")
    train_seqs: list[str] = []
    held_seqs: list[str] = []
    for index, doc in enumerate(corpus):
        target = held_seqs if _holdout_pick(seed, index, holdout_fraction) else train_seqs
        for para in split_paragraphs(doc.text):
            seq = normalize_text(para)
            if seq:
                target.append(seq)
    if not train_seqs and held_seqs:
        # Degenerate split on tiny corpora: train on everything.
        train_seqs, held_seqs = held_seqs, []
    n_chars = sum(map(len, train_seqs))
    if n_chars < order:
        raise TrainError(f"training corpus has {n_chars} characters, fewer than order {order}")
    keys, counts = _count_levels(train_seqs, order)
    lm = NGramLM(order=order, keys=keys, counts=counts, vocab=set(map(chr, keys[0].tolist())),
                 h_ref=1.0)
    ref_seqs = held_seqs if held_seqs else train_seqs
    if not held_seqs:
        log.warning("empty holdout split; h_ref measured on the training split")
    log_total = 0.0
    len_total = 0
    for seq, log_prob in zip(ref_seqs, lm._log_probs(ref_seqs)):
        log_total += log_prob
        len_total += len(seq)
    h_ref = -log_total / len_total
    if not h_ref > 0.0:
        raise TrainError("reference cross-entropy is not positive; corpus too degenerate")
    lm.h_ref = h_ref
    return lm


MAGIC, VERSION = b"NGLM", 2


def write_model(lm: NGramLM, path: str | Path) -> None:
    """`NGLM` body (see binfile): order u32, h_ref f64, the u32-length-prefixed
    UTF-8 vocabulary, then per order a u64 entry count and the sorted entries,
    each a u16-length-prefixed UTF-8 gram and a u64 count."""
    with binfile.Writer(path, MAGIC, VERSION) as out:
        out.pack("Id", lm.order, lm.h_ref)
        blob = "".join(sorted(lm.vocab - {UNK})).encode("utf-8")
        out.pack(f"I{len(blob)}s", len(blob), blob)
        for grams, counts in lm.levels():
            out.pack("Q", len(grams))
            for a in range(0, len(grams), _CHUNK):  # as str, a slice at a time
                for gram, count in zip(grams[a : a + _CHUNK].tolist(),
                                       counts[a : a + _CHUNK].tolist()):
                    raw = gram.encode("utf-8")
                    out.pack(f"H{len(raw)}sQ", len(raw), raw, count)


def read_model(path: str | Path) -> NGramLM:
    """Raises ModelFormatError, and no other error, for a file that does not
    decode as a model."""
    with binfile.Reader(path, MAGIC, VERSION, ModelFormatError) as r:
        order, h_ref = r.unpack("Id")
        vocab = set(r.text(*r.unpack("I"), "vocabulary"))
        keys: list[np.ndarray] = []
        counts: list[np.ndarray] = []
        shorter = np.empty(0, "<U1")  # the grams one order down
        for m in range(1, order + 1):
            grams: list[str] = []
            level_counts: list[int] = []
            prev = None
            for _ in range(*r.unpack("Q")):
                gram = r.text(*r.unpack("H"), "gram entry")
                (count,) = r.unpack("Q")
                # BOS only pads on the left, as counting makes it: as a `U{m}`
                # string, a gram ending in BOS would read as a shorter one.
                body = gram.lstrip(BOS)
                if len(gram) != m or not 0 < count < 2**63 or not body or BOS in body:
                    raise r.fail(f"bad order-{m} entry {gram!r}")
                if prev is not None and gram <= prev:
                    raise r.fail(f"order-{m} gram {gram!r} not after {prev!r}")
                grams.append(gram)
                level_counts.append(count)
                prev = gram
            level = np.array(grams, f"<U{m}")
            codes = level.view("<u4").reshape(-1, m).astype(np.int64)
            if m == 1:
                keys.append(codes[:, 0])
            else:
                at, found = _find(shorter, _keys(codes[:, 1:]))
                if not found.all():
                    raise r.fail(f"order-{m} gram {grams[np.argmin(found)]!r} "
                                 f"has no order-{m - 1} suffix")
                keys.append(codes[:, 0] * len(shorter) + at)
            counts.append(np.array(level_counts, np.int64))
            shorter = level
        return NGramLM(order=order, keys=keys, counts=counts, vocab=vocab, h_ref=h_ref)


def score_documents(lm: NGramLM, docs: Iterable[Document]) -> Iterator[Document]:
    """Attach a 'fluency' score to each document (existing scores preserved),
    scoring a batch of documents of about _CHUNK characters at a time."""
    batch: list[Document] = []
    chars = 0
    for doc in docs:
        batch.append(doc)
        chars += len(doc.text)
        if chars >= _CHUNK:
            yield from _score_batch(lm, batch)
            batch, chars = [], 0
    yield from _score_batch(lm, batch)


def _score_batch(lm: NGramLM, docs: list[Document]) -> Iterator[Document]:
    """A blank document scores 0.0."""
    scored = [bool(doc.scores and "fluency" in doc.scores) for doc in docs]
    scores = lm._document_scores(["" if done else doc.text for done, doc in zip(scored, docs)])
    for done, doc, score in zip(scored, docs, scores):
        yield doc if done else doc.with_score("fluency", 0.0 if score is None else score)


def drop_disfluent(
    lm: NGramLM,
    docs: Iterable[Document],
    threshold: float | None,
    dropped: list[tuple[str, tuple[str, ...]]],
) -> Iterator[Document]:
    """Score `docs` and yield those at or above `threshold` (all of them when
    it is None); each one below it is appended to `dropped` as
    (id, ("fluency",))."""
    for doc in score_documents(lm, docs):
        if threshold is not None and doc.scores["fluency"] < threshold:
            dropped.append((doc.id, ("fluency",)))
            continue
        yield doc
