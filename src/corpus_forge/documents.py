"""Canonical document records, streaming JSONL corpus I/O, and corpus accounting."""

from __future__ import annotations

import gzip
import io
import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import groupby
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping


class Extraction(str, Enum):
    WEB = "web"
    PDF = "pdf"
    STRUCTURED = "structured"


class ParseError(ValueError):
    """Malformed JSONL input."""


class SchemaError(ValueError):
    """Well-formed JSON that does not describe the expected record."""


def count_words(text: str) -> int:
    """Whitespace-delimited word count (Unicode whitespace split)."""
    return len(text.split())


# A segment is a maximal run of whitespace or of other characters. Tokenizers
# here never merge across segments, so a text's tokens are its segments'.
SEGMENT = re.compile(r"\S+|\s+")
_SPACE_RUNS = re.compile(r"\s+")


def segment_counts(texts: Iterable[str], counts: Counter[str] | None = None) -> Counter[str]:
    """The multiset of SEGMENT.findall over every text, added into `counts`.

    Words come from str.split, which splits on exactly the characters `\\s`
    matches. A text whose whitespace is only single spaces between words
    (as many words as spaces plus one, their lengths summing to the text's)
    adds its spaces by count; any other text adds its whitespace runs from
    one findall.
    """
    counts = Counter() if counts is None else counts
    for text in texts:
        words = text.split()
        counts.update(words)
        spaces = text.count(" ")
        if len(words) == spaces + 1 and len(text) == sum(map(len, words)) + spaces:
            if spaces:
                counts[" "] += spaces
        else:
            counts.update(_SPACE_RUNS.findall(text))
    return counts


def token_count(tokenizer, segments: Mapping[str, int]) -> int:
    """Tokens in text given as segment -> occurrences, each distinct segment
    encoded once (duck-typed .encode)."""
    return sum(n * len(tokenizer.encode(seg)) for seg, n in segments.items())


# Fixed serialization order so corpus files diff cleanly.
CANONICAL_KEYS = (
    "id",
    "text",
    "language",
    "num_words",
    "dataset",
    "source_url",
    "scores",
    "extraction",
    "metadata",
)


@dataclass(frozen=True)
class Document:
    """One text record. Immutable after construction; text is NFC-normalized
    and num_words is recomputed whenever it is not supplied."""

    id: str
    text: str
    language: str = ""
    num_words: int | None = None
    dataset: str = ""
    source_url: str | None = None
    scores: dict[str, float] | None = None
    extraction: Extraction = Extraction.WEB
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        norm = unicodedata.normalize("NFC", self.text)
        if norm != self.text:
            object.__setattr__(self, "text", norm)
        if self.num_words is None:
            object.__setattr__(self, "num_words", count_words(self.text))
        if not isinstance(self.extraction, Extraction):
            object.__setattr__(self, "extraction", Extraction(self.extraction))

    def with_text(self, text: str) -> "Document":
        """Copy with replaced text and recomputed word count."""
        return replace(self, text=text, num_words=None)

    def with_score(self, name: str, value: float) -> "Document":
        return replace(self, scores={**(self.scores or {}), name: float(value)})


# Valid UTF-8 decodes to no surrogate, so only a JSON escape can put one in a string.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _loads(line: str, where: str) -> dict[str, Any]:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: malformed JSON ({exc.msg} at column {exc.colno})") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    if "\\" in line and _SURROGATE_ESCAPE.search(line):
        try:
            _dumps(obj).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise SchemaError(
                f"{where}: lone surrogate {exc.object[exc.start]!r} in a string"
            ) from None
    return obj


def _dumps(record: Mapping[str, Any]) -> str:
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def parse_document(line: str, line_no: int | None = None) -> Document:
    """Parse one JSONL line into a Document.

    Recognized fields are populated, unknown fields are preserved in the
    metadata map, and num_words is recomputed when absent.
    """
    where = f"line {line_no}" if line_no is not None else "line"
    return _document_from_record(_loads(line, where), where)


def check_field_types(obj: Mapping[str, Any], where: str, fields: Mapping[str, tuple]) -> None:
    """Raise SchemaError naming `where` for a key of `obj` that `fields` maps to
    (types, description) and whose value's exact type, as json.loads makes
    it, is none of those types; so a bool is never a number."""
    for key, value in obj.items():
        spec = fields.get(key)
        if spec is not None and type(value) not in spec[0]:
            raise SchemaError(f"{where}: field {key!r} must be {spec[1]}")


_DOCUMENT_FIELDS = {
    "text": ((str,), "a string"),
    "language": ((str,), "a string"),
    "num_words": ((int, type(None)), "an integer or null"),
    "dataset": ((str,), "a string"),
    "source_url": ((str, type(None)), "a string or null"),
    "scores": ((dict, type(None)), "an object"),
    "metadata": ((dict, type(None)), "an object"),
}


def _document_from_record(obj: dict[str, Any], where: str) -> Document:
    """A Document from one decoded JSONL object; error messages start with `where`."""
    if "text" not in obj:
        raise SchemaError(f"{where}: missing required field 'text'")
    if "id" not in obj:
        raise SchemaError(f"{where}: missing required field 'id'")
    check_field_types(obj, where, _DOCUMENT_FIELDS)

    known: dict[str, Any] = {}
    metadata: dict[str, Any] = {}
    explicit_meta = obj.get("metadata")
    for key, value in obj.items():
        if key == "metadata":
            continue
        if key in CANONICAL_KEYS:
            known[key] = value
        else:
            metadata[key] = value
    if explicit_meta:
        metadata = {**explicit_meta, **metadata}

    scores = known.get("scores")
    if scores is not None:
        try:
            scores = {str(k): float(v) for k, v in scores.items()}
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{where}: field 'scores' must map names to numbers") from exc

    try:
        extraction = Extraction(known.get("extraction", "web"))
    except ValueError as exc:
        raise SchemaError(f"{where}: unknown extraction kind {known.get('extraction')!r}") from exc

    return Document(
        id=str(known["id"]),
        text=known["text"],
        language=known.get("language", ""),
        num_words=known.get("num_words"),
        dataset=known.get("dataset", ""),
        source_url=known.get("source_url"),
        scores=scores,
        extraction=extraction,
        metadata=metadata,
    )


def _document_record(doc: Document) -> dict[str, Any]:
    out: dict[str, Any] = {"id": doc.id, "text": doc.text}
    if doc.language:
        out["language"] = doc.language
    out["num_words"] = doc.num_words
    if doc.dataset:
        out["dataset"] = doc.dataset
    if doc.source_url is not None:
        out["source_url"] = doc.source_url
    if doc.scores is not None:
        out["scores"] = doc.scores
    out["extraction"] = doc.extraction.value
    if doc.metadata:
        out["metadata"] = doc.metadata
    return out


def serialize_document(doc: Document) -> str:
    """Single-line JSON with canonical key order; empty optionals are omitted."""
    return _dumps(_document_record(doc))


def open_text(path: str | Path, mode: str = "rt") -> io.TextIOBase:
    """Open a text file, transparently gzip'd by extension.

    Gzip writes pin mtime=0 so identical content produces identical bytes.
    """
    path = Path(path)
    if path.suffix == ".gz":
        if "r" in mode:
            return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
        raw = open(path, "wb")
        gz = gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
        return io.TextIOWrapper(gz, encoding="utf-8", newline="\n")
    if "r" in mode:
        return open(path, "r", encoding="utf-8")
    return open(path, "w", encoding="utf-8", newline="\n")


# The record-file format shared by every JSONL file the program reads or
# writes: UTF-8 (gzip'd when the name ends in .gz), one compact JSON object
# per LF-terminated line, blank lines skipped on reading.


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """(line number, object) for each non-blank line. Raises ParseError for
    malformed JSON or bytes that are not UTF-8, and SchemaError for a value
    that is not an object, each naming `path:line`."""
    try:
        with open_text(path, "rt") as handle:
            for line_no, line in enumerate(handle, 1):
                if line.strip():
                    yield line_no, _loads(line, f"{path}:{line_no}")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}:{_first_undecodable_line(path)}: not valid UTF-8 "
            f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
        ) from None


def _first_undecodable_line(path: str | Path) -> int | None:
    """Number of the first line of `path` that is not valid UTF-8, with the
    lines numbered as text-mode reading numbers them (ended by LF, CR or
    CRLF). The decoder reads ahead, so only a rescan finds the line."""
    path = Path(path)
    line_no = 0
    with (gzip.open(path, "rb") if path.suffix == ".gz" else open(path, "rb")) as handle:
        for chunk in handle:
            for line in chunk.splitlines():
                line_no += 1
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    return line_no
    return None


def write_jsonl(path: str | Path, records: Iterable[Mapping[str, Any]]) -> int:
    """Write one record per line; returns the number written."""
    n = 0
    with open_text(path, "wt") as handle:
        for record in records:
            handle.write(_dumps(record))
            handle.write("\n")
            n += 1
    return n


def write_json(path: str | Path, payload: Any) -> None:
    """One JSON document: UTF-8, indent 2, sorted keys, trailing newline."""
    with open_text(path, "wt") as handle:
        json.dump(payload, handle, ensure_ascii=False, indent=2, sort_keys=True)
        handle.write("\n")


def read_documents(path: str | Path) -> Iterator[Document]:
    """Stream documents from a JSONL (optionally .gz) file."""
    for line_no, obj in read_jsonl(path):
        yield _document_from_record(obj, f"{path}:{line_no}")


class DocumentFile:
    """A JSONL document file read anew on each iteration, for consumers that
    make more than one pass."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def __iter__(self) -> Iterator[Document]:
        return read_documents(self.path)


def write_documents(path: str | Path, docs: Iterable[Document]) -> int:
    """Write documents as JSONL. Returns number written."""
    return write_jsonl(path, map(_document_record, docs))


def canonicalize(
    docs: Iterable[Document],
    dataset: str = "",
    language: str = "",
    extraction: Extraction | None = None,
) -> Iterator[Document]:
    """Documents with recomputed word counts and filled-in provenance: a
    given dataset or extraction kind replaces the document's own, a given
    language only fills in a missing one."""
    for doc in docs:
        yield replace(
            doc,
            language=doc.language or language,
            num_words=None,
            dataset=dataset or doc.dataset,
            extraction=extraction or doc.extraction,
        )


@dataclass(frozen=True)
class CorpusStats:
    """Per-subcorpus token accounting with full-precision percentages."""

    per_subcorpus: dict[str, int]
    total_tokens: int
    percentages: dict[str, float]

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> "CorpusStats":
        counts = {str(k): int(v) for k, v in counts.items()}
        total = sum(counts.values())
        if total > 0:
            pct = {k: v / total for k, v in counts.items()}
        else:
            pct = {k: 0.0 for k in counts}
        return cls(per_subcorpus=counts, total_tokens=total, percentages=pct)

    def as_dict(self) -> dict[str, Any]:
        return {
            "per_subcorpus": self.per_subcorpus,
            "total_tokens": self.total_tokens,
            "percentages": self.percentages,
        }

    def merged_with(self, other: "CorpusStats") -> "CorpusStats":
        counts = dict(self.per_subcorpus)
        for k, v in other.per_subcorpus.items():
            counts[k] = counts.get(k, 0) + v
        return CorpusStats.from_counts(counts)

    def rounded_percentages(self, digits: int = 1) -> dict[str, float]:
        """Percentages in points, rounded for reporting (0.1pp by default)."""
        return {k: round(100.0 * v, digits) for k, v in self.percentages.items()}

    def formatted(self) -> str:
        width = max((len(k) for k in self.per_subcorpus), default=5)
        lines = [
            f"{name:<{width}}  {count:>18,}  {pct:>5.1f}%"
            for name, count, pct in sorted(
                (
                    (k, self.per_subcorpus[k], 100.0 * self.percentages[k])
                    for k in self.per_subcorpus
                ),
                key=lambda row: -row[1],
            )
        ]
        lines.append(f"{'total':<{width}}  {self.total_tokens:>18,}  100.0%")
        return "\n".join(lines)


def corpus_stats(docs: Iterable[Document], tokenizer) -> CorpusStats:
    """Token counts per dataset under the given tokenizer (duck-typed .encode,
    which must not merge across segments)."""
    segments: dict[str, Counter[str]] = {}
    for name, run in groupby(docs, lambda doc: doc.dataset or "default"):
        segment_counts((doc.text for doc in run), segments.setdefault(name, Counter()))
    return CorpusStats.from_counts({k: token_count(tokenizer, c) for k, c in segments.items()})
