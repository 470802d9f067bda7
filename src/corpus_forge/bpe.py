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
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
import re
from typing import Iterable

from .documents import Document, count_words

log = logging.getLogger(__name__)

_SEGMENT = re.compile(r"\S+|\s+")


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
    table = bytes_to_unicode()
    return "".join(table[b] for b in raw)


def map_text(text: str) -> str:
    return map_bytes(text.encode("utf-8"))


def unmap_to_bytes(mapped: str) -> bytes:
    table = unicode_to_bytes()
    return bytes(table[c] for c in mapped)


def _pair_counts(symbols: tuple[str, ...]) -> dict[tuple[str, str], int]:
    counts: dict[tuple[str, str], int] = {}
    for pair in zip(symbols, symbols[1:]):
        counts[pair] = counts.get(pair, 0) + 1
    return counts


def _merge_word(
    symbols: tuple[str, ...], pair: tuple[str, str], merged: str
) -> tuple[str, ...]:
    """Replace leftmost non-overlapping occurrences of pair."""
    a, b = pair
    out: list[str] = []
    i = 0
    n = len(symbols)
    while i < n:
        if i < n - 1 and symbols[i] == a and symbols[i + 1] == b:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


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
        symbols = list(_merge_word(tuple(symbols), best_pair, best_pair[0] + best_pair[1]))
    return symbols


class Vocab:
    """Base vocabulary: 256 byte tokens plus learned merge results."""

    def __init__(
        self,
        tokens: list[str],
        merges: list[tuple[str, str]],
        byte_fallback: bool = True,
    ):
        self.tokens = list(tokens)
        self.merges = [tuple(m) for m in merges]
        self.byte_fallback = byte_fallback
        self.token_to_id = {}
        for i, tok in enumerate(self.tokens):
            self.token_to_id.setdefault(tok, i)
        self.ranks = {pair: i for i, pair in enumerate(self.merges)}
        self._cache: dict[str, tuple[int, ...]] = {}
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

    def encode_mapped(self, mapped: str) -> tuple[int, ...]:
        cached = self._cache.get(mapped)
        if cached is None:
            merged = _apply_merges(list(mapped), self.ranks)
            cached = tuple(self.token_to_id[s] for s in merged)
            self._cache[mapped] = cached
        return cached

    def encode(self, text: str) -> list[int]:
        ids: list[int] = []
        for seg in _SEGMENT.findall(text):
            ids.extend(self.encode_mapped(map_text(seg)))
        return ids

    def decode(self, ids: Iterable[int]) -> str:
        mapped = "".join(self.tokens[i] for i in ids)
        return unmap_to_bytes(mapped).decode("utf-8", errors="replace")


@dataclass
class ExtendedVocab:
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
        self._added_ranks = {pair: i for i, pair in enumerate(self.added_merges)}
        self._token_to_id = dict(self.base.token_to_id)
        for i, tok in enumerate(self.added_tokens):
            self._token_to_id[tok] = len(self.base.tokens) + i
        self._cache: dict[str, tuple[int, ...]] = {}

    @property
    def total_size(self) -> int:
        return len(self.base.tokens) + len(self.added_tokens)

    @classmethod
    def from_base(cls, base: Vocab) -> "ExtendedVocab":
        return cls(base=base)

    def token_string(self, token_id: int) -> str:
        if token_id < len(self.base.tokens):
            return self.base.tokens[token_id]
        return self.added_tokens[token_id - len(self.base.tokens)]

    def encode_mapped(self, mapped: str) -> tuple[int, ...]:
        cached = self._cache.get(mapped)
        if cached is None:
            symbols = _apply_merges(list(mapped), self.base.ranks)
            symbols = _apply_merges(symbols, self._added_ranks)
            cached = tuple(self._token_to_id[s] for s in symbols)
            self._cache[mapped] = cached
        return cached

    def encode(self, text: str) -> list[int]:
        ids: list[int] = []
        for seg in _SEGMENT.findall(text):
            ids.extend(self.encode_mapped(map_text(seg)))
        return ids

    def decode(self, ids: Iterable[int]) -> str:
        mapped = "".join(self.token_string(i) for i in ids)
        return unmap_to_bytes(mapped).decode("utf-8", errors="replace")


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


def train_bpe(
    corpus: Iterable[Document], target_new_tokens: int, seed: int = 0
) -> Vocab:
    """Greedy byte-level BPE by pair frequency.

    Ties break on the lexicographically smallest pair, which makes training
    fully deterministic; the seed is accepted for interface stability but
    never consulted. Returns fewer merges (with a warning) when the corpus
    exhausts its pairs early.
    """
    del seed
    seg_freqs: dict[str, int] = {}
    for doc in corpus:
        for seg in _SEGMENT.findall(doc.text):
            mapped = map_text(seg)
            seg_freqs[mapped] = seg_freqs.get(mapped, 0) + 1

    words: list[list] = [[tuple(mapped), freq] for mapped, freq in seg_freqs.items()]
    stats: dict[tuple[str, str], int] = {}
    indices: dict[tuple[str, str], dict[int, int]] = {}
    for idx, (syms, freq) in enumerate(words):
        for pair, cnt in _pair_counts(syms).items():
            stats[pair] = stats.get(pair, 0) + cnt * freq
            indices.setdefault(pair, {})[idx] = cnt

    heap = [(-f, pair) for pair, f in stats.items()]
    heapq.heapify(heap)

    table = bytes_to_unicode()
    tokens = [table[b] for b in range(256)]
    token_set = set(tokens)
    merges: list[tuple[str, str]] = []

    while len(merges) < target_new_tokens and heap:
        neg, pair = heapq.heappop(heap)
        current = stats.get(pair, 0)
        if current == 0 or current != -neg:
            continue  # stale heap entry
        merged = pair[0] + pair[1]
        merges.append(pair)
        if merged not in token_set:
            tokens.append(merged)
            token_set.add(merged)
        for idx in list(indices[pair].keys()):
            syms, freq = words[idx]
            old_counts = _pair_counts(syms)
            new_syms = _merge_word(syms, pair, merged)
            new_counts = _pair_counts(new_syms)
            words[idx][0] = new_syms
            for p in old_counts.keys() | new_counts.keys():
                delta = new_counts.get(p, 0) - old_counts.get(p, 0)
                if delta == 0:
                    continue
                total = stats.get(p, 0) + delta * freq
                occ = indices.setdefault(p, {})
                new_occ = occ.get(idx, 0) + delta
                if new_occ:
                    occ[idx] = new_occ
                else:
                    occ.pop(idx, None)
                if total:
                    stats[p] = total
                    heapq.heappush(heap, (-total, p))
                else:
                    stats.pop(p, None)
        stats.pop(pair, None)
        indices.pop(pair, None)

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


def decode(vocab: Vocab | ExtendedVocab, ids: Iterable[int]) -> str:
    return vocab.decode(ids)


def fertility_counts(vocab: Vocab | ExtendedVocab, corpus: Iterable[Document]) -> tuple[int, int]:
    tokens = 0
    words = 0
    for doc in corpus:
        tokens += len(vocab.encode(doc.text))
        words += count_words(doc.text)
    return tokens, words


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


def load_vocab(path: str | Path) -> Vocab | ExtendedVocab:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    base = Vocab(
        tokens=payload["tokens"],
        merges=[_split_merge(m) for m in payload["merges"]],
        byte_fallback=payload.get("byte_fallback", True),
    )
    if "added_tokens" not in payload:
        return base
    return ExtendedVocab(
        base=base,
        added_tokens=payload["added_tokens"],
        added_merges=[_split_merge(m) for m in payload.get("added_merges", [])],
        provenance=payload.get("provenance", {}),
    )
