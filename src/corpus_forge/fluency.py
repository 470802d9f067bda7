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
import itertools
import logging
import math
import operator
import re
import unicodedata
from collections import Counter
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

# A gram's context, its suffix one order down, and its predicted symbol.
_HEAD = operator.itemgetter(slice(None, -1))
_TAIL = operator.itemgetter(slice(1, None))
_LAST = operator.itemgetter(-1)


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


def _estimate_discounts(count_of_counts: Counter) -> tuple[float, float, float]:
    """Modified Kneser-Ney discounts from count-of-count buckets.

    Falls back to fixed discounts when any of t1..t4 is empty (tiny corpora)
    or any estimate is not positive, as KenLM's --discount_fallback does: a
    zero discount leaves a context no back-off mass, so an unseen successor
    would get probability 0. Each D_k < k, since y and every t_k are positive.
    """
    t1, t2, t3, t4 = (count_of_counts.get(k, 0) for k in (1, 2, 3, 4))
    if min(t1, t2, t3, t4) == 0:
        return FALLBACK_DISCOUNTS
    y = t1 / (t1 + 2.0 * t2)
    d1 = 1.0 - 2.0 * y * t2 / t1
    d2 = 2.0 - 3.0 * y * t3 / t2
    d3 = 3.0 - 4.0 * y * t4 / t3
    if min(d1, d2, d3) <= 0.0:
        return FALLBACK_DISCOUNTS
    return (d1, d2, d3)


class NGramLM:
    """Immutable after training; queries are thread-safe.

    level_counts[m] holds the count table used at order m: raw n-gram counts
    at the top order, continuation counts below it. Grams are plain strings
    whose last character is the predicted symbol. The levels must be
    suffix-closed (each gram of order m >= 2 drops its first character to a
    gram of order m-1), as counting makes them.
    """

    def __init__(self, order: int, level_counts: list[Counter], vocab: set[str], h_ref: float):
        if order < 2:
            raise ValueError("order must be at least 2")
        self.order = order
        self.level_counts = level_counts  # index m-1 -> Counter for order m
        self.vocab = frozenset(vocab) | {UNK}
        self.h_ref = h_ref
        self._uniform = 1.0 / len(self.vocab)
        self._discounts = [
            _estimate_discounts(Counter(level_counts[m].values())) for m in range(order)
        ]
        self._probs, self._gammas = self._build_tables()

    def _build_tables(self) -> tuple[list[dict[str, float]], list[dict[str, float]]]:
        """probs[m]: order-m gram -> interpolated P(gram[-1] | gram[:-1]);
        gammas[m]: order-m context -> back-off weight. Index 0 is empty.

        Built bottom-up as max(c - d, 0) / total + gamma * probs[m-1][gram[1:]]:
        the recursion's float operations in its order, elementwise, so the
        values are bit-identical while a context's total stays below 2**53.
        Only grams whose last character is in the vocabulary get a
        probability: no query asks for any other."""
        probs: list[dict[str, float]] = [{}]
        gammas: list[dict[str, float]] = [{}]
        for m in range(1, self.order + 1):
            counts = self.level_counts[m - 1]
            grams = list(counts)
            n = len(grams)
            c = np.fromiter(counts.values(), np.float64, n)
            contexts = dict(zip(dict.fromkeys(map(_HEAD, grams)), itertools.count()))
            at = np.fromiter(map(contexts.__getitem__, map(_HEAD, grams)), np.intp, n)
            k = len(contexts)
            total = np.bincount(at, weights=c, minlength=k)
            n1, n2, n3p = (np.bincount(at[hit], minlength=k) for hit in (c == 1, c == 2, c > 2))
            d1, d2, d3 = self._discounts[m - 1]
            gamma = (d1 * n1 + d2 * n2 + d3 * n3p) / total
            gammas.append(dict(zip(contexts, gamma.tolist())))

            keep = np.fromiter(map(self.vocab.__contains__, map(_LAST, grams)), bool, n)
            kept = list(itertools.compress(grams, keep))
            if m == 1:
                lower = self._uniform
            else:
                below = self.level_counts[m - 2]
                if not all(map(below.__contains__, map(_TAIL, grams))):
                    gram = next(g for g in grams if g[1:] not in below)
                    raise ValueError(f"order-{m} gram {gram!r} has no order-{m - 1} suffix")
                lower = np.fromiter(map(probs[m - 1].__getitem__, map(_TAIL, kept)),
                                    np.float64, len(kept))
            d = np.where(c == 1, d1, np.where(c == 2, d2, d3))
            at = at[keep]
            p = np.maximum(c - d, 0.0)[keep] / total[at] + gamma[at] * lower
            probs.append(dict(zip(kept, p.tolist())))
        return probs, gammas

    def prob(self, char: str, context: str = "") -> float:
        """P(char | context); context shorter than order-1 is BOS-padded."""
        context = normalize_text(context)
        char = normalize_text(char) if char else char
        if len(char) != 1:
            raise ValueError("prob() scores exactly one character")
        ctx = (BOS * (self.order - 1) + context)[-(self.order - 1) :]
        return self._prob_padded(char, ctx)

    def _prob_padded(self, w: str, ctx: str) -> float:
        """P(w | ctx) for a context of exactly order-1 characters: the longest
        suffix of ctx+w that is a gram gives the probability up to its order;
        each order above it whose context was seen scales it by its gamma."""
        if w not in self.vocab:
            w = UNK
        gram = ctx + w
        order = self.order
        probs = self._probs
        k = order
        while k and (p := probs[k].get(gram[order - k :])) is None:
            k -= 1
        if not k:
            p = self._uniform
        gammas = self._gammas
        for m in range(k + 1, order + 1):
            gamma = gammas[m].get(ctx[order - m :])
            if gamma is not None:
                p = 0.0 + gamma * p
        return p

    def log_prob(self, text: str) -> float:
        """Total log probability of text as one sequence (nats); empty -> 0.0."""
        return self._log_prob(normalize_text(text))

    def _log_prob(self, seq: str) -> float:
        """log_prob of an already normalised sequence: each seen top-order
        gram is one lookup; the rest go through _prob_padded. The logs are
        added left to right."""
        if not seq:
            return 0.0
        order = self.order
        pad = order - 1
        padded = BOS * pad + seq
        n = len(seq)
        grams = map(padded.__getitem__, map(slice, range(n), range(order, n + order)))
        probs = list(map(self._probs[order].get, grams))
        prob_padded = self._prob_padded
        for i in [i for i, p in enumerate(probs) if p is None]:
            probs[i] = prob_padded(padded[i + pad], padded[i : i + pad])
        return functools.reduce(operator.add, map(math.log, probs), 0.0)

    def cross_entropy(self, text: str) -> float:
        """Per-character cross-entropy in nats."""
        seq = normalize_text(text)
        if not seq:
            raise ValueError("cannot score empty text")
        return -self._log_prob(seq) / len(seq)

    def fluency_score(self, paragraph: str) -> float:
        """min(1, h_ref / h_paragraph); monotone decreasing in cross-entropy."""
        return self._score(self.cross_entropy(paragraph))

    def _score(self, h: float) -> float:
        if h <= 0.0:
            return 1.0
        return min(1.0, self.h_ref / h)

    def document_score(self, text: str) -> float:
        """Length-weighted mean of paragraph scores; empty paragraphs skipped."""
        weighted = 0.0
        total_len = 0
        for para in split_paragraphs(text):
            seq = normalize_text(para)
            if not seq:
                continue
            weighted += len(seq) * self._score(-self._log_prob(seq) / len(seq))
            total_len += len(seq)
        if total_len == 0:
            raise ValueError("document has no scoreable paragraphs")
        return weighted / total_len


def _holdout_pick(seed: int, index: int, fraction: float) -> bool:
    if fraction <= 0.0:
        return False
    digest = hashlib.blake2b(
        f"{seed}:{index}".encode(), digest_size=8, key=b"lm-holdout"
    ).digest()
    return int.from_bytes(digest, "little") / 2**64 < fraction


def _count_levels(sequences: Iterable[str], order: int) -> tuple[list[Counter], set[str], int]:
    """Raw counts of the top-order grams, one slice per character; below it,
    continuation counts (distinct left extensions). Every lower gram at a
    position is a suffix of that position's top gram, so the distinct keys of
    each level yield the next level down."""
    top: Counter = Counter()
    vocab: set[str] = set()
    n_chars = 0
    pad = order - 1
    for seq in sequences:
        vocab.update(seq)
        n = len(seq)
        n_chars += n
        padded = BOS * pad + seq
        top.update(map(padded.__getitem__, map(slice, range(n), range(order, n + order))))
    levels: list[Counter] = [top]
    for _ in range(order - 1):
        levels.append(Counter(map(_TAIL, levels[-1])))
    levels.reverse()  # levels[m-1] for order m
    return levels, vocab, n_chars


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
    levels, vocab, n_chars = _count_levels(train_seqs, order)
    if n_chars < order:
        raise TrainError(f"training corpus has {n_chars} characters, fewer than order {order}")
    lm = NGramLM(order=order, level_counts=levels, vocab=vocab, h_ref=1.0)
    ref_seqs = held_seqs if held_seqs else train_seqs
    if not held_seqs:
        log.warning("empty holdout split; h_ref measured on the training split")
    log_total = 0.0
    len_total = 0
    for seq in ref_seqs:
        log_total += lm._log_prob(seq)
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
        for table in lm.level_counts:
            out.pack("Q", len(table))
            for gram in sorted(table):
                raw = gram.encode("utf-8")
                out.pack(f"H{len(raw)}sQ", len(raw), raw, table[gram])


def read_model(path: str | Path) -> NGramLM:
    """Raises ModelFormatError, and no other error, for a file that does not
    decode as a model."""
    with binfile.Reader(path, MAGIC, VERSION, ModelFormatError) as r:
        order, h_ref = r.unpack("Id")
        vocab = set(r.text(*r.unpack("I"), "vocabulary"))
        levels = []
        for m in range(1, order + 1):
            table: Counter = Counter()
            prev = None
            for _ in range(*r.unpack("Q")):
                gram = r.text(*r.unpack("H"), "gram entry")
                (count,) = r.unpack("Q")
                if len(gram) != m or count == 0:
                    raise r.fail(f"bad order-{m} entry {gram!r}")
                if prev is not None and gram <= prev:
                    raise r.fail(f"order-{m} gram {gram!r} not after {prev!r}")
                table[gram] = count
                prev = gram
            levels.append(table)
        return NGramLM(order=order, level_counts=levels, vocab=vocab, h_ref=h_ref)


def score_documents(lm: NGramLM, docs: Iterable[Document]) -> Iterator[Document]:
    """Attach a 'fluency' score to each document (existing scores preserved)."""
    for doc in docs:
        if doc.scores and "fluency" in doc.scores:
            yield doc
            continue
        if not doc.text.strip():
            yield doc.with_score("fluency", 0.0)
            continue
        yield doc.with_score("fluency", lm.document_score(doc.text))


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
