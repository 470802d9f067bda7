"""Bitext pipeline: sentence-pair normalization, either-side deduplication,
and threshold filtering on externally supplied pair scores."""

from __future__ import annotations

import hashlib
import math
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .documents import SchemaError, read_jsonl, write_jsonl

# Score keys recognized in SentencePair.scores (see the pairs JSONL schema).
MARGIN_KEY = "margin"
CLASSIFIER_KEY = "classifier"

_WS_RUN = re.compile(r"\s+")


@dataclass(frozen=True)
class SentencePair:
    src: str
    tgt: str
    scores: dict[str, float] = field(default_factory=dict)
    origin: str = ""


@dataclass(frozen=True)
class ParallelFilterConfig:
    """The `parallel` config section: pairs file, step order and thresholds."""

    path: Path | None = None
    order: str = "filter-then-dedup"
    margin_threshold: float = 1.06
    classifier_threshold: float = 0.7
    require_scores: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.margin_threshold) and math.isfinite(self.classifier_threshold)):
            raise ValueError("thresholds must be finite")
        if self.order not in ("filter-then-dedup", "dedup-then-filter"):
            raise ValueError(f"order {self.order!r} unknown")


def normalize_sentence(text: str) -> str:
    """NFC, lowercase, strip Unicode digits and punctuation, collapse spaces."""
    text = unicodedata.normalize("NFC", text).lower()
    kept = [ch for ch in text if unicodedata.category(ch)[0] not in ("N", "P")]
    return _WS_RUN.sub(" ", "".join(kept)).strip()


def _content_key(normalized: str) -> bytes:
    # 128-bit digest keeps the seen-sets small at corpus scale.
    return hashlib.blake2b(normalized.encode("utf-8"), digest_size=16).digest()


def dedup_parallel(pairs: Iterable[SentencePair]) -> tuple[list[SentencePair], dict]:
    """Keep a pair iff neither its normalized source nor target was seen.

    First occurrence wins; both seen-sets update only on keep, so the output
    has globally unique normalized sources and targets.
    """
    seen_src: set[bytes] = set()
    seen_tgt: set[bytes] = set()
    kept: list[SentencePair] = []
    dropped = dup_src_hits = dup_tgt_hits = 0
    for pair in pairs:
        src_key = _content_key(normalize_sentence(pair.src))
        tgt_key = _content_key(normalize_sentence(pair.tgt))
        dup_src = src_key in seen_src
        dup_tgt = tgt_key in seen_tgt
        if dup_src or dup_tgt:
            dropped += 1
            dup_src_hits += dup_src
            dup_tgt_hits += dup_tgt
            continue
        seen_src.add(src_key)
        seen_tgt.add(tgt_key)
        kept.append(pair)
    report = {
        "input": len(kept) + dropped,
        "kept": len(kept),
        "dropped": dropped,
        "duplicate_source": dup_src_hits,
        "duplicate_target": dup_tgt_hits,
    }
    return kept, report


def pair_passes(pair: SentencePair, cfg: ParallelFilterConfig) -> bool:
    """Inclusive thresholds; absent scores pass unless require_scores is set."""
    margin = pair.scores.get(MARGIN_KEY)
    classifier = pair.scores.get(CLASSIFIER_KEY)
    if cfg.require_scores and (margin is None or classifier is None):
        return False
    if margin is not None and margin < cfg.margin_threshold:
        return False
    if classifier is not None and classifier < cfg.classifier_threshold:
        return False
    return True


def threshold_filter(
    pairs: Iterable[SentencePair], cfg: ParallelFilterConfig
) -> list[SentencePair]:
    return [p for p in pairs if pair_passes(p, cfg)]


def read_pairs(path: str | Path) -> Iterator[SentencePair]:
    """JSONL {src, tgt, scores, origin} or TSV (src TAB tgt), by extension."""
    path = Path(path)
    if path.suffix.lower() == ".tsv":
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                cols = line.split("\t")
                if len(cols) < 2:
                    raise ValueError(f"{path}:{line_no}: expected src TAB tgt")
                yield SentencePair(src=cols[0], tgt=cols[1])
        return
    for line_no, obj in read_jsonl(path):
        if not (isinstance(obj.get("src"), str) and isinstance(obj.get("tgt"), str)):
            raise SchemaError(f"{path}:{line_no}: pair needs string 'src' and 'tgt'")
        try:
            scores = {str(k): float(v) for k, v in (obj.get("scores") or {}).items()}
        except (AttributeError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}:{line_no}: 'scores' must map names to numbers") from exc
        yield SentencePair(
            src=obj["src"], tgt=obj["tgt"], scores=scores, origin=obj.get("origin", "")
        )


def _pair_record(pair: SentencePair) -> dict:
    record = {"src": pair.src, "tgt": pair.tgt}
    if pair.scores:
        record["scores"] = pair.scores
    if pair.origin:
        record["origin"] = pair.origin
    return record


def write_pairs(path: str | Path, pairs: Iterable[SentencePair]) -> int:
    return write_jsonl(path, map(_pair_record, pairs))
