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
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

from .documents import SEGMENT, Document, segment_counts, token_count

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
    # A lone surrogate (from argv or a file read with surrogateescape, say)
    # has no UTF-8 form; surrogatepass gives it the three bytes that
    # `_SegmentEncoder.decode` turns back into it.
    return map_bytes(text.encode("utf-8", errors="surrogatepass"))


def unmap_to_bytes(mapped: str) -> bytes:
    table = unicode_to_bytes()
    return bytes(table[c] for c in mapped)


def _merge_pair(
    symbols: list[str],
    pair: tuple[str, str],
    merged: str,
    idx: int,
    freq: int,
    changes: defaultdict[tuple[str, str], int],
    where: defaultdict[tuple[str, str], list[int]],
) -> list[str]:
    """Replace the leftmost non-overlapping occurrences of pair in word `idx`
    by merged.

    The same walk adds the change in pair counts into `changes`: -freq for
    each old pair beside a merged position, +freq for each new pair beside a
    merged symbol, and each new pair's `where` list gains the word unless it
    already ends with it. Pairs away from the merges keep their counts. The
    entry for `pair` itself is incomplete; no occurrence of it survives the
    walk. Every word shares the caller's `merged` string, and each new pair is
    one tuple keying both tables, so training holds no copies of either.
    """
    a, b = pair
    out: list[str] = []
    joined = False  # out[-1] is a merged symbol
    i, n = 0, len(symbols)
    while i < n:
        if i + 1 < n and symbols[i] == a and symbols[i + 1] == b:
            if out:
                new = out[-1], merged
                changes[new] += freq
                held = where[new]
                if not held or held[-1] != idx:
                    held.append(idx)
                if not joined:  # else the previous merge counted (b, a)
                    changes[out[-1], a] -= freq
            if i + 2 < n:
                changes[b, symbols[i + 2]] -= freq
            out.append(merged)
            i += 2
            joined = True
        else:
            if joined:
                new = merged, symbols[i]
                changes[new] += freq
                held = where[new]
                if not held or held[-1] != idx:
                    held.append(idx)
            out.append(symbols[i])
            i += 1
            joined = False
    return out


def _apply_merges(symbols: list[str], ranks: dict[tuple[str, str], int]) -> list[str]:
    """Merge the lowest-rank adjacent pair until no ranked pair is left.

    A min-heap of (rank, left position) runs over a linked list of symbols,
    in rounds. A round pops every entry of the lowest rank and merges the
    occurrences that still hold that rank's pair, left to right, so each
    round merges the leftmost non-overlapping occurrences of one pair. A
    merge pushes only the pairs it forms with its two neighbours; a pair of
    lower rank formed mid-round waits for the next round. An entry whose
    position was consumed or whose pair has changed is skipped.
    """
    n = len(symbols)
    heap = [(r, i) for i, pair in enumerate(zip(symbols, symbols[1:]))
            if (r := ranks.get(pair)) is not None]
    if not heap:
        return symbols
    heapq.heapify(heap)
    sym: list[str | None] = symbols[:]
    nxt = list(range(1, n + 1))  # n ends the list
    prv = list(range(-1, n - 1))
    rank_of, push, pop = ranks.get, heapq.heappush, heapq.heappop
    while heap:
        rank = heap[0][0]
        batch = []
        while heap and heap[0][0] == rank:
            batch.append(pop(heap)[1])
        for i in batch:
            left = sym[i]
            j = nxt[i]
            if left is None or j == n or rank_of((left, sym[j])) != rank:
                continue
            merged = sym[i] = left + sym[j]
            sym[j] = None
            k = nxt[i] = nxt[j]
            h = prv[i]
            if h >= 0 and (r := rank_of((sym[h], merged))) is not None:
                push(heap, (r, h))
            if k < n:
                prv[k] = i
                if (r := rank_of((merged, sym[k]))) is not None:
                    push(heap, (r, i))
    return [s for s in sym if s is not None]


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
        raw = unmap_to_bytes("".join(self._strings[i] for i in ids))
        try:
            return raw.decode("utf-8", errors="surrogatepass")
        except UnicodeDecodeError:  # ids that split a character
            return raw.decode("utf-8", errors="replace")


class Vocab(_SegmentEncoder):
    """Base vocabulary: 256 byte tokens plus learned merge results."""

    def __init__(self, tokens: list[str], merges: list[tuple[str, str]]):
        self.tokens = list(tokens)
        self.merges = [tuple(m) for m in merges]
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
        table = bytes_to_unicode()
        for b in range(256):
            if table[b] not in self.token_to_id:
                raise ValueError(f"byte token {table[b]!r} (byte {b}) missing from tokens")
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
        for a, b in self.added_merges:
            if a + b not in self._ids:
                raise ValueError(f"added merge result {a + b!r} missing from tokens")
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
    seg_freqs = segment_counts(doc.text for doc in corpus)
    words = [list(map_text(seg)) for seg in seg_freqs]
    freqs = list(seg_freqs.values())
    stats: defaultdict[tuple[str, str], int] = defaultdict(int)
    # The words that may hold each pair. A word may be listed twice, or no
    # longer hold the pair: a merge de-duplicates the list it pops, and a
    # stale word has nothing to merge. The heap keys are (-count, pair), so
    # the order of the words does not change the merges.
    where: defaultdict[tuple[str, str], list[int]] = defaultdict(list)
    for idx, symbols in enumerate(words):
        for pair in zip(symbols, symbols[1:]):
            stats[pair] += freqs[idx]
            held = where[pair]
            if not held or held[-1] != idx:
                held.append(idx)

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
        for idx in dict.fromkeys(where.pop(pair)):
            words[idx] = _merge_pair(words[idx], pair, merged, idx, freqs[idx], changes, where)
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


def fertility_counts(
    vocabs: Sequence[Vocab | ExtendedVocab], corpus: Iterable[Document]
) -> tuple[list[int], int]:
    """(tokens under each vocabulary, words) of the corpus. The corpus is
    segmented once, its words are its non-whitespace segments, and each
    distinct segment is encoded once per vocabulary."""
    segments = segment_counts(doc.text for doc in corpus)
    words = sum(n for seg, n in segments.items() if not seg.isspace())
    return [token_count(vocab, segments) for vocab in vocabs], words


def fertility(vocab: Vocab | ExtendedVocab, corpus: Iterable[Document]) -> float:
    """Total encoded tokens divided by total whitespace words."""
    (tokens,), words = fertility_counts([vocab], corpus)
    if words == 0:
        raise ValueError("corpus contains no words")
    return tokens / words


def save_vocab(vocab: Vocab | ExtendedVocab, path: str | Path) -> None:
    if isinstance(vocab, ExtendedVocab):
        payload = {
            "tokens": vocab.base.tokens,
            "merges": [f"{a} {b}" for a, b in vocab.base.merges],
            "added_tokens": vocab.added_tokens,
            "added_merges": [f"{a} {b}" for a, b in vocab.added_merges],
            "provenance": vocab.provenance,
        }
    else:
        payload = {
            "tokens": vocab.tokens,
            "merges": [f"{a} {b}" for a, b in vocab.merges],
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
        provenance = payload.get("provenance", {})
        if not isinstance(provenance, dict):
            raise ValueError("'provenance' must be an object")
        base = Vocab(
            tokens=_strings(payload, "tokens"),
            merges=[_split_merge(m) for m in _strings(payload, "merges")],
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
