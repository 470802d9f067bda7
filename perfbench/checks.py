"""Output checks made apart from the program.

Every check compares a run's output tree with the generator's ground truth,
with the benchmark's own exact-Jaccard shingler and greedy BPE recount, or
with a small reference encoder; none compares with a stored copy of earlier
output. Each check returns a list of problems; an empty list is a pass.

The only calls into corpus_forge are the round trip `decode(encode(t)) == t`
and the id-for-id comparison of its encoder with the reference encoder.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from pathlib import Path

DOC_STAGES = ("ingest", "filter", "fluency", "dedup")  # stages that rewrite documents
FILTER_BAIT = {"url_blacklist", "bad_words", "forbidden_substring", "too_short", "long_word"}
KEEP_BELOW = 0.5  # a document this far from every other one must survive dedup
GREEDY_MERGES = 8  # leading merges recounted naively
ROUND_TRIP_DOCS = 200


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def stage_inputs(out: Path, stages: list[str], stage: str, datasets: list[str]) -> dict[str, list[dict]]:
    """Documents each dataset had on entering `stage`: the file written by the
    latest earlier document stage of the configured order."""
    before = stages[: stages.index(stage)]
    inputs = {}
    for ds in datasets:
        for st in reversed(before):
            path = out / st / f"{ds}.jsonl"
            if st in DOC_STAGES and path.exists():
                inputs[ds] = read_jsonl(path)
                break
        else:
            raise FileNotFoundError(f"no input of stage {stage} for dataset {ds}")
    return inputs


def check_report(out: Path, stages: list[str]) -> list[str]:
    report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
    names = [s["name"] for s in report["stages"]]
    problems = [] if names == stages else [f"run_report stages {names} != configured {stages}"]
    for s in report["stages"]:
        if s["input"] != s["kept"] + s["dropped"]:
            problems.append(f"run_report {s['name']}: input {s['input']} != kept "
                            f"{s['kept']} + dropped {s['dropped']}")
    return problems


def check_filter(out: Path, datasets: list[str], truth: dict) -> list[str]:
    """Every planted filter bait is dropped and named in the drop report."""
    kept = {d["id"] for ds in datasets for d in read_jsonl(out / "filter" / f"{ds}.jsonl")}
    reported = {d["id"] for d in read_jsonl(out / "filter" / "drop_report.jsonl")}
    return [f"filter bait {doc_id} ({label['bait']}) survived or went unreported"
            for doc_id, label in sorted(truth.items())
            if label.get("bait") in FILTER_BAIT and (doc_id in kept or doc_id not in reported)]


def shingles(text: str, n: int = 5) -> frozenset[str]:
    """Word n-grams of the lowercased text; shorter texts are one shingle."""
    words = text.lower().split()
    if len(words) < n:
        return frozenset([" ".join(words)] if words else [])
    return frozenset(" ".join(words[i : i + n]) for i in range(len(words) - n + 1))


def jaccard(a: frozenset, b: frozenset) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def check_dedup(out: Path, stages: list[str], datasets: list[str], truth: dict,
                shingle_n: int) -> list[str]:
    inputs = stage_inputs(out, stages, "dedup", datasets)
    docs = [d for ds in datasets for d in inputs[ds]]
    index = {d["id"]: i for i, d in enumerate(docs)}
    text = {d["id"]: d["text"] for d in docs}
    kept_list = [d["id"] for ds in datasets for d in read_jsonl(out / "dedup" / f"{ds}.jsonl")]
    kept = set(kept_list)
    problems = []
    if len(kept) != len(kept_list) or not kept <= index.keys():
        problems.append("dedup output repeats documents or invents ones not in its input")
    cluster_of: dict[str, list[str]] = {}
    reported_removed: set[str] = set()
    for st in ("intra", "cross"):
        for rec in read_jsonl(out / "dedup" / f"clusters_{st}.jsonl"):
            for member in rec["cluster"]:
                if member != rec["kept"]:
                    reported_removed.add(member)
                    cluster_of[member] = rec["cluster"]
    removed = index.keys() - kept
    if removed != reported_removed or kept & reported_removed:
        problems.append(f"kept and removed do not partition the dedup input: "
                        f"{len(removed ^ reported_removed)} ids disagree with the cluster reports")

    families: dict[int, list[str]] = {}
    for doc_id, label in truth.items():
        if label["kind"] == "exact_copy":
            src = label["source"]
            if doc_id not in index or src not in index:
                problems.append(f"planted copy {doc_id} or its source {src} never reached dedup")
            elif doc_id in kept or src not in kept:
                problems.append(f"exact copy {doc_id} of {src}: copy kept={doc_id in kept}, "
                                f"source kept={src in kept}")
        elif label["kind"] == "template" and doc_id in index:
            families.setdefault(label["family"], []).append(doc_id)
    for family, members in sorted(families.items()):
        members.sort(key=index.__getitem__)
        if members[0] not in kept or kept & set(members[1:]):
            problems.append(f"template family {family}: want only {members[0]} of "
                            f"{len(members)} kept, got {len(kept & set(members))}")

    # Contrapositive of "Jaccard < 0.5 with every other document => kept":
    # each removed document needs a partner at >= 0.5, looked for in its
    # cluster first and then through an inverted shingle index.
    cache: dict[str, frozenset] = {}

    def sh(doc_id: str) -> frozenset:
        if doc_id not in cache:
            cache[doc_id] = shingles(text[doc_id], shingle_n)
        return cache[doc_id]

    postings: dict[str, list[str]] | None = None
    for doc_id in sorted(removed, key=index.__getitem__):
        if any(m != doc_id and m in text and jaccard(sh(doc_id), sh(m)) >= KEEP_BELOW
               for m in cluster_of.get(doc_id, ())):
            continue
        if postings is None:
            postings = {}
            for other in docs:
                for s in sh(other["id"]):
                    postings.setdefault(s, []).append(other["id"])
        near = {m for s in sh(doc_id) for m in postings[s]} - {doc_id}
        if not any(jaccard(sh(doc_id), sh(m)) >= KEEP_BELOW for m in near):
            problems.append(f"{doc_id} was removed but its Jaccard with every other "
                            f"document is below {KEEP_BELOW}")
    return problems


# --- byte-level BPE reference -------------------------------------------------

def _byte_chars() -> str:
    """The GPT-2 byte -> printable character table, indexed by byte."""
    printable = set(range(33, 127)) | set(range(161, 173)) | set(range(174, 256))
    chars, extra = [], 0
    for b in range(256):
        if b in printable:
            chars.append(chr(b))
        else:
            chars.append(chr(256 + extra))
            extra += 1
    return "".join(chars)


_TRANSLATE = str.maketrans({chr(b): c for b, c in enumerate(_byte_chars())})
_SEGMENT = re.compile(r"\S+|\s+")


def map_text(segment: str) -> str:
    return segment.encode("utf-8").decode("latin-1").translate(_TRANSLATE)


def _merge(symbols: list[str], a: str, b: str) -> list[str]:
    out, i = [], 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == a and symbols[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def _split_merge(entry: str) -> tuple[str, str]:
    a, _, b = entry.partition(" ")
    return a, b


class RefEncoder:
    """Applies merges in rank order: the lowest-ranked adjacent pair is merged
    everywhere, left to right, until none applies; the base merge list runs to
    completion before the added one."""

    def __init__(self, vocab: dict):
        self.phases = [{_split_merge(m): r for r, m in enumerate(vocab["merges"])}]
        tokens = list(vocab["tokens"]) + list(vocab.get("added_tokens", []))
        if "added_merges" in vocab:
            self.phases.append({_split_merge(m): r for r, m in enumerate(vocab["added_merges"])})
        self.token_id: dict[str, int] = {}
        for i, tok in enumerate(tokens):
            self.token_id.setdefault(tok, i)
        self._cache: dict[str, list[int]] = {}

    def _segment(self, seg: str) -> list[int]:
        ids = self._cache.get(seg)
        if ids is None:
            symbols = list(map_text(seg))
            for ranks in self.phases:
                while len(symbols) > 1:
                    best = min(((ranks[p], p) for p in zip(symbols, symbols[1:]) if p in ranks),
                               default=None)
                    if best is None:
                        break
                    symbols = _merge(symbols, *best[1])
            ids = self._cache[seg] = [self.token_id[s] for s in symbols]
        return ids

    def encode(self, text: str) -> list[int]:
        return [i for seg in _SEGMENT.findall(text) for i in self._segment(seg)]

    def count(self, segments: Counter) -> int:
        """Token total of text given as segment -> occurrences."""
        return sum(n * len(self._segment(seg)) for seg, n in segments.items())


def segment_counts(texts) -> Counter:
    return Counter(seg for t in texts for seg in _SEGMENT.findall(t))


def greedy_merges(texts: list[str], k: int) -> list[tuple[str, str]]:
    """The first k BPE merges by full recount: the most frequent adjacent pair,
    ties to the smallest pair, merged, then everything counted again."""
    words = [[list(map_text(seg)), n] for seg, n in segment_counts(texts).items()]
    merges = []
    for _ in range(k):
        counts: Counter = Counter()
        for symbols, n in words:
            for pair in zip(symbols, symbols[1:]):
                counts[pair] += n
        if not counts:
            break
        best = min(counts, key=lambda p: (-counts[p], p))
        merges.append(best)
        a, b = best
        for word in words:
            if a in word[0] and b in word[0]:
                word[0] = _merge(word[0], a, b)
    return merges


def check_bpe(out: Path, stages: list[str], config: dict) -> list[str]:
    tok = config["tokenizer"]
    tdir = out / "tokenizer"
    base = json.loads((tdir / "base_vocab.json").read_text(encoding="utf-8"))
    ext = json.loads((tdir / "extended_vocab.json").read_text(encoding="utf-8"))
    problems = []
    base_tokens = set(base["tokens"])
    if ext["tokens"] != base["tokens"] or ext["merges"] != base["merges"]:
        problems.append("base tokens and merges are not a prefix of the extended vocabulary")
    if base_tokens & set(ext["added_tokens"]) or len(set(ext["added_tokens"])) != len(ext["added_tokens"]):
        problems.append("added tokens repeat each other or base tokens")

    datasets = [d["name"] for d in config["datasets"]]
    greek = [d["name"] for d in config["datasets"] if d.get("language") == "el"] or datasets
    inputs = stage_inputs(out, stages, "tokenizer", datasets)
    limit = tok["max_train_docs"]
    base_texts = [d["text"] for d in inputs[tok["base_dataset"]][:limit]]
    greek_docs = [d for ds in greek for d in inputs[ds]]

    base_merges = [_split_merge(m) for m in base["merges"]]
    want = greedy_merges(base_texts, GREEDY_MERGES)
    if base_merges[: len(want)] != want:
        problems.append(f"first base merges {base_merges[:len(want)]} != greedy recount {want}")
    added, seen = [], set(base_tokens)
    for a, b in greedy_merges([d["text"] for d in greek_docs[:limit]], GREEDY_MERGES):
        if a + b not in seen:
            added.append((a, b))
            seen.add(a + b)
    got = [_split_merge(m) for m in ext["added_merges"][: len(added)]]
    if got != added:
        problems.append(f"first added merges {got} != greedy recount {added}")

    ref_base, ref_ext = RefEncoder(base), RefEncoder(ext)
    sample = [d["text"] for d in greek_docs[: tok["fertility_sample_docs"]]]
    sample_segments = segment_counts(sample)
    fert = json.loads((tdir / "fertility.json").read_text(encoding="utf-8"))
    want_fert = {
        "sample_docs": len(sample),
        "sample_words": sum(len(t.split()) for t in sample),
        "base_tokens": ref_base.count(sample_segments),
        "extended_tokens": ref_ext.count(sample_segments),
    }
    got_fert = {"sample_docs": fert["sample_docs"], "sample_words": fert["sample_words"],
                "base_tokens": fert["base"]["tokens"], "extended_tokens": fert["extended"]["tokens"]}
    if got_fert != want_fert:
        problems.append(f"fertility.json {got_fert} != reference {want_fert}")

    if "stats" in stages:
        every = int(config["stats"].get("sample_every", 1))
        by_name: dict[str, list[str]] = {}
        for docs in stage_inputs(out, stages, "stats", datasets).values():
            for d in docs[::every]:
                by_name.setdefault(d.get("dataset") or "default", []).append(d["text"])
        counts = {name: ref_ext.count(segment_counts(texts)) for name, texts in by_name.items()}
        stats = json.loads((out / "stats" / "corpus_stats.json").read_text(encoding="utf-8"))
        if stats["per_subcorpus"] != counts or stats["total_tokens"] != sum(counts.values()):
            problems.append(f"corpus_stats {stats['per_subcorpus']}, total {stats['total_tokens']}"
                            f" != reference {counts}, total {sum(counts.values())}")

    from corpus_forge import bpe  # the program's encoder, for the round trip

    program = bpe.load_vocab(tdir / "extended_vocab.json")
    step = max(1, len(sample) // ROUND_TRIP_DOCS)
    for t in sample[::step] + ["  mixed ASCII, ελληνικά\n\ttabs 😀 ﬁ"]:
        ids = program.encode(t)
        if program.decode(ids) != t:
            problems.append(f"decode(encode(t)) != t for {t[:40]!r}")
            break
        if ids != ref_ext.encode(t):
            problems.append(f"program ids differ from the reference encoder on {t[:40]!r}")
            break
    return problems


def check_all(out: Path, config: dict, truth: dict) -> list[str]:
    stages = config["stages"]
    datasets = [d["name"] for d in config["datasets"]]
    problems = check_report(out, stages)
    if "filter" in stages:
        problems += check_filter(out, datasets, truth)
    if "dedup" in stages:
        problems += check_dedup(out, stages, datasets, truth, config["dedup"]["shingle_n"])
    if "tokenizer" in stages:
        problems += check_bpe(out, stages, config)
    return problems
