"""Byte-level BPE: vocabulary training, base-vocabulary extension, encoding,
and fertility (tokens per whitespace word) measurement.

Text is segmented into whitespace runs and non-whitespace words; merges never
cross segment boundaries. Every byte is representable, so encoding cannot
fail and decode(encode(t)) == t.
"""

from __future__ import annotations

import heapq
import json
import logging
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable

from .documents import SEGMENT, Document, count_words, token_count

log = logging.getLogger(__name__)


@lru_cache(maxsize=1)
def bytes_to_unicode() -> dict[int, str]:
    """Bijective byte -> printable-unicode map (whitespace/control bytes are
    pushed above U+0100 so token strings never contain literal spaces)."""
    bs = (
        list(range(ord("!"), ord("~") + 1))
        + list(range(ord("¡"), ord("¬") + 1))
        + list(range(ord("®"), ord("ÿ") + 1))
    )
    cs = bs[:]
    n = 0
    for b in range(256):
        if b not in bs:
            bs.append(b)
            cs.append(256 + n)
            n += 1
    return dict(zip(bs, (chr(c) for c in cs)))


@lru_cache(maxsize=1)
def unicode_to_bytes() -> dict[str, int]:
    return {c: b for b, c in bytes_to_unicode().items()}


def map_bytes(raw: bytes) -> str:
    # latin-1 turns each byte into the character of the same ordinal.
    return raw.decode("latin-1").translate(bytes_to_unicode())


def map_text(text: str) -> str:
    return map_bytes(text.encode("utf-8"))


def unmap_to_bytes(mapped: str) -> bytes:
    table = unicode_to_bytes()
    return bytes(table[c] for c in mapped)


def _merge_pair(
    symbols: list[str],
    pair: tuple[str, str],
    merged: str,
    delta: defaultdict[tuple[str, str], int] | None = None,
) -> list[str]:
    """Replace the leftmost non-overlapping occurrences of pair by merged.

    With `delta`, the same walk adds the change in the word's adjacent-pair
    counts: -1 for each old pair beside a merged position, +1 for each new
    pair beside a merged symbol. Pairs away from the merges keep their
    counts. The entry for `pair` itself is incomplete; no occurrence of it
    survives the walk.
    """
    a, b = pair
    out: list[str] = []
    joined = False  # out[-1] is a merged symbol
    i, n = 0, len(symbols)
    while i < n:
        if i + 1 < n and symbols[i] == a and symbols[i + 1] == b:
            if delta is not None:
                if out:
                    delta[out[-1], merged] += 1
                    if not joined:  # else the previous merge counted (b, a)
                        delta[out[-1], a] -= 1
                if i + 2 < n:
                    delta[b, symbols[i + 2]] -= 1
            out.append(merged)
            i += 2
            joined = True
        else:
            if joined and delta is not None:
                delta[merged, symbols[i]] += 1
            out.append(symbols[i])
            i += 1
            joined = False
    return out


def _apply_merges(symbols: list[str], ranks: dict[tuple[str, str], int]) -> list[str]:
    """Repeatedly apply the lowest-rank adjacent merge until none applies."""
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
        symbols = _merge_pair(symbols, best_pair, best_pair[0] + best_pair[1])
    return symbols


class _SegmentEncoder:
    """The encode loop shared by both vocabulary classes. Each distinct raw
    segment is mapped and merged once, by each merge list of `_phases` in
    turn, and its ids are cached under the segment."""

    _phases: tuple[dict[tuple[str, str], int], ...]
    _ids: dict[str, int]
    _strings: list[str]
    _cache: dict[str, tuple[int, ...]]

    def _segment_ids(self, seg: str) -> tuple[int, ...]:
        ids = self._cache.get(seg)
        if ids is None:
            symbols = list(map_text(seg))
            for ranks in self._phases:
                symbols = _apply_merges(symbols, ranks)
            ids = self._cache[seg] = tuple(self._ids[s] for s in symbols)
        return ids

    def encode(self, text: str) -> list[int]:
        ids: list[int] = []
        for seg in SEGMENT.findall(text):
            ids.extend(self._segment_ids(seg))
        return ids

    def decode(self, ids: Iterable[int]) -> str:
        mapped = "".join(self._strings[i] for i in ids)
        return unmap_to_bytes(mapped).decode("utf-8", errors="replace")


class Vocab(_SegmentEncoder):
    """Base vocabulary: 256 byte tokens plus learned merge results."""

    def __init__(self, tokens: list[str], merges: list[tuple[str, str]], byte_fallback: bool = True):
        self.tokens = list(tokens)
        self.merges = [tuple(m) for m in merges]
        self.byte_fallback = byte_fallback
        self.token_to_id = {}
        for i, tok in enumerate(self.tokens):
            self.token_to_id.setdefault(tok, i)
        self.ranks = {pair: i for i, pair in enumerate(self.merges)}
        self._phases = (self.ranks,)
        self._ids = self.token_to_id
        self._strings = self.tokens
        self._cache = {}
        self.validate()

    def validate(self) -> None:
        if len(self.token_to_id) != len(self.tokens):
            raise ValueError("duplicate token strings in vocabulary")
        for a, b in self.merges:
            if a + b not in self.token_to_id:
                raise ValueError(f"merge result {a + b!r} missing from tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def byte_vocab(cls) -> "Vocab":
        table = bytes_to_unicode()
        return cls(tokens=[table[b] for b in range(256)], merges=[])


@dataclass
class ExtendedVocab(_SegmentEncoder):
    """Base vocabulary plus appended tokens/merges; base ids are preserved and
    base merges always run to completion before the added ones."""

    base: Vocab
    added_tokens: list[str] = field(default_factory=list)
    added_merges: list[tuple[str, str]] = field(default_factory=list)
    provenance: dict[str, dict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        base_set = set(self.base.tokens)
        for tok in self.added_tokens:
            if tok in base_set:
                raise ValueError(f"added token {tok!r} already in base vocabulary")
        if len(set(self.added_tokens)) != len(self.added_tokens):
            raise ValueError("duplicate added tokens")
        self._phases = (self.base.ranks, {pair: i for i, pair in enumerate(self.added_merges)})
        self._ids = dict(self.base.token_to_id)
        for i, tok in enumerate(self.added_tokens):
            self._ids[tok] = len(self.base.tokens) + i
        self._strings = self.base.tokens + self.added_tokens
        self._cache = {}

    @property
    def total_size(self) -> int:
        return len(self._strings)

    @classmethod
    def from_base(cls, base: Vocab) -> "ExtendedVocab":
        return cls(base=base)

    def token_string(self, token_id: int) -> str:
        return self._strings[token_id]


@dataclass(frozen=True)
class TokenizerConfig:
    """The `tokenizer` config section; a document limit of None reads every document."""

    base_vocab_path: Path | None = None
    base_dataset: str | None = None
    base_target_tokens: int = 2000
    new_target_tokens: int = 2000
    max_train_docs: int | None = None
    fertility_sample_docs: int | None = 2000

    def __post_init__(self) -> None:
        for name in ("max_train_docs", "fertility_sample_docs"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive or null")


def train_bpe(corpus: Iterable[Document], target_new_tokens: int) -> Vocab:
    """Greedy byte-level BPE by pair frequency.

    Each distinct segment is counted once with its frequency. Ties break on
    the lexicographically smallest pair, so the merges do not depend on
    document order. Returns fewer merges (with a warning) when the corpus
    exhausts its pairs early.
    """
    seg_freqs: Counter[str] = Counter()
    for doc in corpus:
        seg_freqs.update(SEGMENT.findall(doc.text))
    words = [list(map_text(seg)) for seg in seg_freqs]
    freqs = list(seg_freqs.values())
    stats: defaultdict[tuple[str, str], int] = defaultdict(int)
    where: defaultdict[tuple[str, str], set[int]] = defaultdict(set)  # words that may hold it
    for idx, symbols in enumerate(words):
        for pair in zip(symbols, symbols[1:]):
            stats[pair] += freqs[idx]
            where[pair].add(idx)

    # A pair is pushed at each new count; an entry whose count is no longer
    # the pair's is stale and skipped when popped.
    heap = [(-f, pair) for pair, f in stats.items()]
    heapq.heapify(heap)

    table = bytes_to_unicode()
    tokens = [table[b] for b in range(256)]
    token_set = set(tokens)
    merges: list[tuple[str, str]] = []

    while len(merges) < target_new_tokens and heap:
        neg, pair = heapq.heappop(heap)
        if stats.get(pair) != -neg:
            continue
        merged = pair[0] + pair[1]
        merges.append(pair)
        if merged not in token_set:
            tokens.append(merged)
            token_set.add(merged)
        changes: defaultdict[tuple[str, str], int] = defaultdict(int)
        for idx in where.pop(pair):
            delta: defaultdict[tuple[str, str], int] = defaultdict(int)
            words[idx] = _merge_pair(words[idx], pair, merged, delta)
            for p, d in delta.items():
                if d:
                    changes[p] += d * freqs[idx]
                    if d > 0:
                        where[p].add(idx)
        del stats[pair]
        for p, d in changes.items():
            if d == 0 or p == pair:
                continue
            total = stats.get(p, 0) + d
            if total:
                stats[p] = total
                heapq.heappush(heap, (-total, p))
            else:
                stats.pop(p, None)

    if len(merges) < target_new_tokens:
        log.warning(
            "corpus exhausted after %d merges (target %d)", len(merges), target_new_tokens
        )
    return Vocab(tokens=tokens, merges=merges)


def extend_vocab(base: Vocab, learned: Vocab) -> ExtendedVocab:
    """Append learned merges whose results are not single base tokens.

    Base token ids are untouched; added ids continue after the base. Each
    added token records which learned merge produced it.
    """
    base_set = set(base.tokens)
    added_tokens: list[str] = []
    added_merges: list[tuple[str, str]] = []
    added_set: set[str] = set()
    provenance: dict[str, dict] = {}
    for rank, (a, b) in enumerate(learned.merges):
        token = a + b
        if token in base_set or token in added_set:
            continue
        added_tokens.append(token)
        added_merges.append((a, b))
        added_set.add(token)
        provenance[token] = {"source": "learned", "learned_rank": rank}
    return ExtendedVocab(
        base=base,
        added_tokens=added_tokens,
        added_merges=added_merges,
        provenance=provenance,
    )


def encode(vocab: Vocab | ExtendedVocab, text: str) -> list[int]:
    return vocab.encode(text)


def fertility_counts(vocab: Vocab | ExtendedVocab, corpus: Iterable[Document]) -> tuple[int, int]:
    """(tokens, words) of the corpus, each distinct segment encoded once."""
    segments: Counter[str] = Counter()
    words = 0
    for doc in corpus:
        segments.update(SEGMENT.findall(doc.text))
        words += count_words(doc.text)
    return token_count(vocab, segments), words


def fertility(vocab: Vocab | ExtendedVocab, corpus: Iterable[Document]) -> float:
    """Total encoded tokens divided by total whitespace words."""
    tokens, words = fertility_counts(vocab, corpus)
    if words == 0:
        raise ValueError("corpus contains no words")
    return tokens / words


def save_vocab(vocab: Vocab | ExtendedVocab, path: str | Path) -> None:
    if isinstance(vocab, ExtendedVocab):
        payload = {
            "tokens": vocab.base.tokens,
            "merges": [f"{a} {b}" for a, b in vocab.base.merges],
            "byte_fallback": vocab.base.byte_fallback,
            "added_tokens": vocab.added_tokens,
            "added_merges": [f"{a} {b}" for a, b in vocab.added_merges],
            "provenance": vocab.provenance,
        }
    else:
        payload = {
            "tokens": vocab.tokens,
            "merges": [f"{a} {b}" for a, b in vocab.merges],
            "byte_fallback": vocab.byte_fallback,
        }
    Path(path).write_text(
        json.dumps(payload, ensure_ascii=False, indent=0, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _split_merge(entry: str) -> tuple[str, str]:
    a, sep, b = entry.partition(" ")
    if not sep or not a or not b:
        raise ValueError(f"malformed merge entry {entry!r}")
    return a, b


def _strings(payload: dict, key: str, default: list | None = None) -> list[str]:
    value = payload[key] if default is None else payload.get(key, default)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{key!r} must be a list of strings")
    return value


def load_vocab(path: str | Path) -> Vocab | ExtendedVocab:
    """Raises ValueError naming `path` for a file that does not decode as a
    vocabulary: bad JSON, a missing key, a wrong type or a bad merge entry."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("expected a JSON object")
        byte_fallback = payload.get("byte_fallback", True)
        provenance = payload.get("provenance", {})
        if not isinstance(byte_fallback, bool):
            raise ValueError("'byte_fallback' must be a boolean")
        if not isinstance(provenance, dict):
            raise ValueError("'provenance' must be an object")
        base = Vocab(
            tokens=_strings(payload, "tokens"),
            merges=[_split_merge(m) for m in _strings(payload, "merges")],
            byte_fallback=byte_fallback,
        )
        if "added_tokens" not in payload:
            return base
        return ExtendedVocab(
            base=base,
            added_tokens=_strings(payload, "added_tokens"),
            added_merges=[_split_merge(m) for m in _strings(payload, "added_merges", [])],
            provenance=provenance,
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
