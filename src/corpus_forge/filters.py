"""Rule-based document quality filters and PDF-artifact cleanup.

Every rule is evaluated (no short-circuit) so a drop report lists the full
set of triggered rules for each document.
"""

from __future__ import annotations

import logging
import re
import unicodedata
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Collection, Iterable, Iterator, Optional
from urllib.parse import urlsplit

from .config import NOT_A_KEY
from .documents import Document, Extraction, write_jsonl

log = logging.getLogger(__name__)

RULE_MIN_CHARS = "min_chars"
RULE_MIN_WORDS = "min_words"
RULE_MAX_WORD_LEN = "max_word_len"
RULE_BAD_WORDS = "bad_words"
RULE_FORBIDDEN_SUBSTRING = "forbidden_substring"
RULE_URL_BLACKLIST = "url_blacklist"
RULE_FLUENCY = "fluency"


def read_wordlist(path: str | Path) -> list[str]:
    """One entry per line, UTF-8; blank lines and #-comments ignored."""
    entries = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            entries.append(line)
    return entries


def _norm(text: str) -> str:
    return unicodedata.normalize("NFC", text).casefold()


@dataclass(frozen=True)
class FilterConfig:
    """The `filters` config section; `with_wordlists` reads the word lists."""

    min_chars: int = 300
    min_words: int = 6
    max_word_len: Optional[int] = 60
    bad_word_threshold: int = 2
    bad_words_path: Optional[Path] = None
    url_blacklist_path: Optional[Path] = None
    forbidden_substrings: tuple[str, ...] = ("lorem ipsum",)
    fluency_threshold: float = 0.7
    fluency_applies_to: frozenset[Extraction] = frozenset({Extraction.PDF})
    bad_words: tuple[str, ...] = field(default=(), metadata=NOT_A_KEY)
    url_blacklist: frozenset[str] = field(default=frozenset(), metadata=NOT_A_KEY)

    def __post_init__(self) -> None:
        for name in ("min_chars", "min_words", "bad_word_threshold"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.max_word_len is not None and self.max_word_len < 0:
            raise ValueError("max_word_len must be nonnegative")
        if not 0.0 <= self.fluency_threshold <= 1.0:
            raise ValueError("fluency_threshold must lie in [0, 1]")
        object.__setattr__(self, "bad_words", tuple(_norm(w) for w in self.bad_words))
        object.__setattr__(
            self, "forbidden_substrings", tuple(_norm(s) for s in self.forbidden_substrings)
        )
        object.__setattr__(
            self, "url_blacklist", frozenset(d.lower().strip(".") for d in self.url_blacklist)
        )

    def with_wordlists(self) -> "FilterConfig":
        """This config with `bad_words` and `url_blacklist` read from their paths."""
        words, urls = self.bad_words_path, self.url_blacklist_path
        return replace(self, bad_words=tuple(read_wordlist(words)) if words else self.bad_words,
                       url_blacklist=frozenset(read_wordlist(urls)) if urls else
                       self.url_blacklist)


@dataclass(frozen=True)
class Verdict:
    keep: bool
    reasons: tuple[str, ...] = ()
    cleaned_text: Optional[str] = None

    def __post_init__(self) -> None:
        if self.keep and self.reasons:
            raise ValueError("keep verdicts must carry no reasons")


@lru_cache(maxsize=64)
def _bad_word_pattern(entries: tuple[str, ...]) -> Optional[re.Pattern]:
    if not entries:
        return None
    # Longest-first so a phrase wins over an entry that prefixes it.
    ordered = sorted((_norm(e) for e in entries), key=len, reverse=True)
    alternation = "|".join(re.escape(e) for e in ordered)
    return re.compile(rf"(?<!\w)(?:{alternation})(?!\w)")


def count_bad_words(text: str, entries: tuple[str, ...]) -> int:
    """Total occurrences of list entries (case-insensitive, whole-word, NFC)."""
    pattern = _bad_word_pattern(entries)
    if pattern is None:
        return 0
    return len(pattern.findall(_norm(text)))


def url_blacklisted(url: Optional[str], blacklist: Collection[str]) -> bool:
    """True iff the url host equals a blacklisted domain or is a subdomain of
    one. `blacklist` holds lowercase domains without outer dots, as
    `FilterConfig.url_blacklist` does once `__post_init__` has normalised it;
    the host and each of its suffixes after a dot are looked up in it."""
    if not url or not blacklist:
        return False
    try:
        host = urlsplit(url).hostname
    except ValueError:
        log.warning("unparseable url treated as non-blacklisted: %r", url)
        return False
    if not host:
        # Bare host given without a scheme, e.g. "bad.example.gr/path".
        try:
            host = urlsplit("//" + url).hostname
        except ValueError:
            host = None
        if not host:
            log.warning("unparseable url treated as non-blacklisted: %r", url)
            return False
    host = host.lower().strip(".")
    return host in blacklist or any(
        host[i + 1:] in blacklist for i, c in enumerate(host) if c == ".")


# Runs of >=5 single alphabetic characters separated by single spaces.
_SINGLE_RUN = re.compile(r"(?:^|(?<=\s))[^\W\d_](?: [^\W\d_]){4,}(?=\s|$)")


def clean_pdf_artifacts(text: str, max_word_len: int = FilterConfig.max_word_len) -> str:
    """Drop lines containing glued words or single-character runs; keep the rest verbatim."""
    kept = []
    for line in text.splitlines():
        if any(len(word) > max_word_len for word in line.split()):
            continue
        if _SINGLE_RUN.search(line):
            continue
        kept.append(line)
    return "\n".join(kept)


def filter_document(doc: Document, cfg: FilterConfig) -> Verdict:
    """Evaluate all enabled rules against one document.

    PDF-extracted documents are artifact-cleaned first and judged on the
    cleaned text. The fluency rule applies to a document whose extraction
    kind is in cfg.fluency_applies_to and that carries a precomputed
    doc.scores["fluency"] (from `fluency score` or the pipeline's fluency
    stage); a document without one is not judged by it.
    """
    cleaned_text: Optional[str] = None
    text = doc.text
    if doc.extraction is Extraction.PDF:
        limit = cfg.max_word_len if cfg.max_word_len is not None else FilterConfig.max_word_len
        cleaned = clean_pdf_artifacts(text, max_word_len=limit)
        if cleaned != text:
            cleaned_text = cleaned
            text = cleaned

    words = text.split()
    reasons = []

    if cfg.min_chars and len(text) < cfg.min_chars:
        reasons.append(RULE_MIN_CHARS)
    if cfg.min_words and len(words) < cfg.min_words:
        reasons.append(RULE_MIN_WORDS)
    if cfg.max_word_len is not None and any(len(w) > cfg.max_word_len for w in words):
        reasons.append(RULE_MAX_WORD_LEN)
    if cfg.bad_words and count_bad_words(text, cfg.bad_words) >= cfg.bad_word_threshold:
        reasons.append(RULE_BAD_WORDS)
    if cfg.forbidden_substrings:
        lowered = _norm(text)
        if any(sub in lowered for sub in cfg.forbidden_substrings):
            reasons.append(RULE_FORBIDDEN_SUBSTRING)
    if cfg.url_blacklist and url_blacklisted(doc.source_url, cfg.url_blacklist):
        reasons.append(RULE_URL_BLACKLIST)
    if doc.extraction in cfg.fluency_applies_to and doc.scores:
        score = doc.scores.get("fluency")
        if score is not None and score < cfg.fluency_threshold:
            reasons.append(RULE_FLUENCY)

    return Verdict(keep=not reasons, reasons=tuple(reasons), cleaned_text=cleaned_text)


def filter_documents(
    docs: Iterable[Document],
    cfg: FilterConfig,
    dropped: list[tuple[str, tuple[str, ...]]],
) -> Iterator[Document]:
    """Survivors of filter_document, with PDF-cleaned text applied; each
    dropped document's (id, reasons) is appended to `dropped`."""
    for doc in docs:
        verdict = filter_document(doc, cfg)
        if not verdict.keep:
            dropped.append((doc.id, verdict.reasons))
            continue
        yield doc.with_text(verdict.cleaned_text) if verdict.cleaned_text else doc


def write_drop_report(path: str | Path, dropped: Iterable[tuple[str, tuple[str, ...]]]) -> int:
    """JSONL report of {id, reasons} for dropped documents."""
    return write_jsonl(path, ({"id": i, "reasons": list(r)} for i, r in dropped))
