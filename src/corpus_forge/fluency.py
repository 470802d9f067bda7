"""Character n-gram language model with interpolated modified Kneser-Ney
smoothing, used to score text fluency in [0, 1].

The score for a paragraph is min(1, h_ref / h_para), where h_para is the
model's per-character cross-entropy on the paragraph (nats) and h_ref the
held-out cross-entropy measured at training time. A document scores as the
length-weighted mean over its blank-line-separated paragraphs.
"""

from __future__ import annotations

import hashlib
import logging
import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

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


def _estimate_discounts(count_of_counts: Counter) -> tuple[float, float, float]:
    """Modified Kneser-Ney discounts from count-of-count buckets.

    Falls back to fixed discounts when any of t1..t4 is empty (tiny corpora),
    and clamps at zero so probability mass never goes negative.
    """
    t1, t2, t3, t4 = (count_of_counts.get(k, 0) for k in (1, 2, 3, 4))
    if min(t1, t2, t3, t4) == 0:
        return FALLBACK_DISCOUNTS
    y = t1 / (t1 + 2.0 * t2)
    d1 = 1.0 - 2.0 * y * t2 / t1
    d2 = 2.0 - 3.0 * y * t3 / t2
    d3 = 3.0 - 4.0 * y * t4 / t3
    return (max(d1, 0.0), max(d2, 0.0), max(d3, 0.0))


class NGramLM:
    """Immutable after training; queries are thread-safe.

    level_counts[m] holds the count table used at order m: raw n-gram counts
    at the top order, continuation counts below it. Grams are plain strings
    whose last character is the predicted symbol.
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
        self._tables = self._build_tables()

    def _build_tables(self) -> list[dict]:
        tables: list[dict] = []
        for m in range(1, self.order + 1):
            grouped: dict[str, dict[str, int]] = {}
            for gram, c in self.level_counts[m - 1].items():
                ctx, w = gram[:-1], gram[-1]
                grouped.setdefault(ctx, {})[w] = c
            d1, d2, d3 = self._discounts[m - 1]
            table: dict[str, tuple[dict[str, float], float]] = {}
            for ctx, successors in grouped.items():
                total = sum(successors.values())
                n1 = n2 = n3p = 0
                probs: dict[str, float] = {}
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

    def prob(self, char: str, context: str = "") -> float:
        """P(char | context); context shorter than order-1 is BOS-padded."""
        context = normalize_text(context)
        char = normalize_text(char) if char else char
        if len(char) != 1:
            raise ValueError("prob() scores exactly one character")
        ctx = (BOS * (self.order - 1) + context)[-(self.order - 1) :]
        return self._prob_padded(char, ctx)

    def _prob_padded(self, w: str, ctx: str) -> float:
        if w not in self.vocab:
            w = UNK
        p = self._uniform
        order = self.order
        tables = self._tables
        for m in range(1, order + 1):
            entry = tables[m - 1].get(ctx[order - m :] if m > 1 else "")
            if entry is not None:
                probs, gamma = entry
                p = probs.get(w, 0.0) + gamma * p
        return p

    def log_prob(self, text: str) -> float:
        """Total log probability of text as one sequence (nats); empty -> 0.0."""
        seq = normalize_text(text)
        if not seq:
            return 0.0
        pad = self.order - 1
        padded = BOS * pad + seq
        total = 0.0
        prob_padded = self._prob_padded
        for t in range(pad, len(padded)):
            total += math.log(prob_padded(padded[t], padded[t - pad : t]))
        return total

    def cross_entropy(self, text: str) -> float:
        """Per-character cross-entropy in nats."""
        seq = normalize_text(text)
        if not seq:
            raise ValueError("cannot score empty text")
        return -self.log_prob(seq) / len(seq)

    def fluency_score(self, paragraph: str) -> float:
        """min(1, h_ref / h_paragraph); monotone decreasing in cross-entropy."""
        h = self.cross_entropy(paragraph)
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
            weighted += len(seq) * self.fluency_score(seq)
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
    raw: list[Counter] = [Counter() for _ in range(order)]  # raw[m-1] for order m
    vocab: set[str] = set()
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
    # Continuation counts below the top order: distinct left extensions.
    levels: list[Counter] = [Counter() for _ in range(order)]
    levels[order - 1] = raw[order - 1]
    for m in range(order - 1, 0, -1):
        cont = levels[m - 1]
        for gram in raw[m]:  # raw (m+1)-grams
            cont[gram[1:]] += 1
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
        log_total += lm.log_prob(seq)
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
            for _ in range(*r.unpack("Q")):
                gram = r.text(*r.unpack("H"), "gram entry")
                (count,) = r.unpack("Q")
                if len(gram) != m or count == 0:
                    raise r.fail(f"bad order-{m} entry {gram!r}")
                table[gram] = count
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
