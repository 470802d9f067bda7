"""Seeded inputs for the pipeline benchmark, labelled with their ground truth.

Nothing here imports corpus_forge: a change to the program cannot change a
workload. The same seed gives byte-identical files (`random.Random` is
stable across Python versions for `random()`, `choices` and `randrange`).

A workload directory gets `input/`, the only thing the program sees:
corpus files, word lists, bitext, preference data and `config.json`. The
ground truth stays with the caller: a map from labelled document ids to what
the generator planted, an exact or near copy and its source, a template
family, or a filter bait kind.
"""

from __future__ import annotations

import json
import random
from itertools import accumulate
from pathlib import Path

ALL_STAGES = [
    "ingest", "filter", "fluency", "dedup", "parallel",
    "tokenizer", "embedding", "plan", "alignment", "stats",
]

_GREEK_FUNCTION = (
    "και το να η ο του της των με σε για από που δεν είναι θα τα οι στο στη "
    "στην ένα μια αλλά ή αν όταν ότι μετά πριν χωρίς πολύ πιο όπως επίσης "
    "ακόμα τώρα εδώ εκεί αυτό αυτή ήταν έχει μπορεί πρέπει κάθε όλα μόνο"
).split()
_GREEK_CONS = "βγδζθκλμνξπρστφχ"
_GREEK_VOWELS = "αεηιουω"
_GREEK_ACCENT = dict(zip("αεηιουω", "άέήίόύώ"))

_ENGLISH_FUNCTION = (
    "the of and to in a is that it was for on are as with they at be this "
    "from or one had by but not what all were we when can there an each which"
).split()
_LATIN_CONS = "bcdfghklmnprstvw"
_LATIN_VOWELS = "aeiou"

_BAD_WORDS = ["βρομόλογος", "χαζοκέφαλος", "σαπιόξυλο", "κουτορνίθι"]
_BLACKLISTED = ["kazino-spam.example.gr", "bonus-free.example.gr", "bad-host.example.com"]
_CATEGORIES = ["general", "rag", "cot", "math", "code"]


def _word(rng: random.Random, cons: str, vowels: str, accent: dict | None) -> str:
    syllables = [rng.choice(cons) + rng.choice(vowels) for _ in range(rng.randint(2, 5))]
    if accent is not None and len(syllables) > 1:
        k = rng.randrange(len(syllables))
        syllables[k] = syllables[k][0] + accent[syllables[k][1]]
    word = "".join(syllables)
    if accent is not None and word[-1] in "οα" and rng.random() < 0.4:
        word += "ς"
    return word


def _inventory(function_words: list[str], size: int, make) -> tuple[list[str], list[float]]:
    """Function words first, then generated words; Zipf-like weights by rank."""
    rng = random.Random(0x5EED)  # fixed: the vocabulary is the same for every seed
    words = list(dict.fromkeys(function_words))
    seen = set(words)
    while len(words) < size:
        w = make(rng)
        if w not in seen:
            seen.add(w)
            words.append(w)
    weights = [1.0 / (rank + 2.7) ** 1.07 for rank in range(len(words))]
    return words, list(accumulate(weights))


GREEK = _inventory(_GREEK_FUNCTION, 1400, lambda r: _word(r, _GREEK_CONS, _GREEK_VOWELS, _GREEK_ACCENT))
ENGLISH = _inventory(_ENGLISH_FUNCTION, 900, lambda r: _word(r, _LATIN_CONS, _LATIN_VOWELS, None))


class _Writer:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def words(self, lang, n: int) -> list[str]:
        words, cum = lang
        return self.rng.choices(words, cum_weights=cum, k=n)

    def compose(self, words: list[str], paragraph_every: int = 0) -> str:
        """Sentences of 6-14 words with commas, numbers and paragraph breaks."""
        rng = self.rng
        out: list[str] = []
        i = since_break = 0
        while i < len(words):
            length = min(rng.randint(6, 14), len(words) - i)
            sent = words[i : i + length]
            sent[0] = sent[0][:1].upper() + sent[0][1:]
            if length > 8 and rng.random() < 0.6:
                k = rng.randint(3, length - 3)
                sent[k] += ","
            if length > 2 and rng.random() < 0.25:
                sent[rng.randrange(1, length)] = str(rng.randrange(10000))
            sent[-1] += "." if rng.random() < 0.9 else rng.choice(";!")
            out.append(" ".join(sent))
            i += length
            since_break += length
            if paragraph_every and since_break >= paragraph_every and i < len(words):
                out.append("\n")
                since_break = 0
        return " ".join(out).replace(" \n ", "\n\n")

    def text(self, lang, lo: int, hi: int, paragraph_every: int = 0) -> str:
        return self.compose(self.words(lang, self.rng.randint(lo, hi)), paragraph_every)


def _doc(doc_id: str, text: str, **extra) -> dict:
    return {"id": doc_id, "text": text, **extra}


def _web_docs(w: _Writer, n: int, truth: dict) -> list[dict]:
    """Greek web pages with ~5 % filter bait; bait ids are labelled."""
    rng = w.rng
    docs = []
    for i in range(n):
        doc_id = f"web-{i:06d}"
        text = w.text(GREEK, 28, 61)
        extra = {}
        roll = rng.random()
        if roll < 0.02:
            extra["source_url"] = f"http://{rng.choice(_BLACKLISTED)}/p{i}"
            truth[doc_id] = {"kind": "bait", "bait": "url_blacklist"}
        elif roll < 0.30:
            extra["source_url"] = f"http://site{rng.randrange(50)}.example.gr/a{i}"
        bait = rng.random()
        if bait < 0.01:
            words = text.split()
            words.insert(3, _BAD_WORDS[i % 4])
            words.insert(9, _BAD_WORDS[(i + 1) % 4])
            text = " ".join(words)
            truth[doc_id] = {"kind": "bait", "bait": "bad_words"}
        elif bait < 0.015:
            text += " Lorem ipsum dolor sit amet."
            truth[doc_id] = {"kind": "bait", "bait": "forbidden_substring"}
        elif bait < 0.035:
            text = " ".join(text.split()[:4])
            truth[doc_id] = {"kind": "bait", "bait": "too_short"}
        elif bait < 0.04:
            text += " " + "σ" * 70
            truth[doc_id] = {"kind": "bait", "bait": "long_word"}
        docs.append(_doc(doc_id, text, **extra))
    return docs


def _plant_copies(w: _Writer, sources: list[dict], n_exact: int, n_near: int,
                  prefix: str, truth: dict) -> list[dict]:
    """Exact copies and one-word variants of clean source documents."""
    rng = w.rng
    out = []
    for k in range(n_exact):
        src = rng.choice(sources)
        doc_id = f"{prefix}-dup-{k:05d}"
        out.append(_doc(doc_id, src["text"]))
        truth[doc_id] = {"kind": "exact_copy", "source": src["id"]}
    for k in range(n_near):
        src = rng.choice(sources)
        words = src["text"].split()
        words[rng.randrange(len(words))] = "παραλλαγή"
        doc_id = f"{prefix}-near-{k:05d}"
        out.append(_doc(doc_id, " ".join(words)))
        truth[doc_id] = {"kind": "near_copy", "source": src["id"]}
    return out


def _pdf_docs(w: _Writer, n: int, truth: dict) -> list[dict]:
    rng = w.rng
    docs = []
    for i in range(n):
        doc_id = f"pdf-{i:06d}"
        text = w.text(GREEK, 40, 89, paragraph_every=50)
        if rng.random() < 0.3:
            lines = text.split("\n")
            lines.insert(min(1, len(lines)), "α β γ δ ε ζ η θ ι κ")
            if rng.random() < 0.5:
                lines.append("κολλημένο" * 8)
            text = "\n".join(lines)
        if rng.random() < 0.1:
            alphabet = "αβγδεζηθικλμνξοπρστυφχψω0123456789qwxyz"
            noise = "".join(rng.choice(alphabet) for _ in range(400))
            text = " ".join(noise[j : j + 9] for j in range(0, 400, 9))
            truth[doc_id] = {"kind": "bait", "bait": "fluency_noise"}
        docs.append(_doc(doc_id, text, extraction="pdf"))
    return docs


def _bitext(w: _Writer, n: int) -> list[dict]:
    rng = w.rng
    pairs = []
    for _ in range(n):
        scores = {}
        if rng.random() < 0.9:
            scores["margin"] = round(rng.uniform(0.95, 1.40), 4)
        if rng.random() < 0.9:
            scores["classifier"] = round(rng.uniform(0.40, 1.0), 4)
        pairs.append({"src": w.text(ENGLISH, 6, 17), "tgt": w.text(GREEK, 6, 17),
                      "scores": scores, "origin": "perfbench"})
    for k in range(n // 50):  # either-side duplicates, with case/punctuation variants
        base = pairs[rng.randrange(n)]
        if k % 2 == 0:
            pairs.append({**base, "tgt": pairs[(k * 13) % n]["tgt"]})
        else:
            pairs.append({**base, "src": base["src"].upper() + "!!"})
    return pairs


def _preferences(w: _Writer, n: int) -> list[dict]:
    rng = w.rng
    out = []
    for i in range(n):
        rec = {
            "id": f"pref-{i:05d}",
            "prompt": w.text(GREEK, 6, 15),
            "chosen": w.text(GREEK, 20, 59),
            "rejected": w.text(GREEK, 8, 29),
            "chosen_rating": rng.randint(5, 10),
            "rejected_rating": rng.randint(1, 5),
            "category": rng.choice(_CATEGORIES),
            "language": "el",
        }
        roll = rng.random()
        if roll < 0.05:
            rec["rejected_rating"] = rec["chosen_rating"]
        elif roll < 0.08:
            rec["chosen"] += " 😀🎉🐍💡🔥漢字仮名交漢字仮名交"
        elif roll < 0.11:
            rec["rejected"] = w.text(ENGLISH, 10, 24)
        elif roll < 0.14:
            rec["chosen_rating"] = 2
        out.append(rec)
    return out


def write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for rec in records:
            handle.write(json.dumps(rec, ensure_ascii=False, separators=(",", ":")))
            handle.write("\n")


def _base_config(threads: int, stages: list[str], datasets: list[dict]) -> dict:
    return {
        "seed": 7,
        "threads": threads,
        "output_dir": "out",
        "stages": stages,
        "datasets": datasets,
        "filters": {
            "min_chars": 100, "min_words": 6, "max_word_len": 60,
            "bad_word_threshold": 2, "bad_words_path": "bad_words.txt",
            "url_blacklist_path": "url_blacklist.txt",
            "forbidden_substrings": ["lorem ipsum"], "fluency_threshold": 0.7,
            "fluency_applies_to": ["pdf"],
        },
        "fluency": {"enabled": True, "model_path": None, "order": 5,
                    "holdout_fraction": 0.1, "train_dataset": "el_wiki",
                    "max_train_chars": 400_000},
        "dedup": {"shingle_n": 5, "num_perm": 128, "jaccard_threshold": 0.8,
                  "bands": None, "rows": None, "verify_candidates": False},
        "parallel": {"path": "parallel.jsonl", "margin_threshold": 1.06,
                     "classifier_threshold": 0.7, "require_scores": False,
                     "order": "filter-then-dedup"},
        "tokenizer": {"base_vocab_path": None, "base_dataset": "en_wiki",
                      "base_target_tokens": 1500, "new_target_tokens": 1500,
                      "max_train_docs": 20_000, "fertility_sample_docs": 2_000},
        "embedding": {"dims": 64, "base_matrix_path": None, "pad_multiple": 8,
                      "tie_lm_head": False},
        "alignment": {"preferences_path": "preferences.jsonl", "min_rating": 5.0,
                      "max_foreign_ratio": 0.05,
                      "system_messages_path": "system_messages.json"},
        "stats": {"sample_every": 20},
    }


def _mixed_corpus(w: _Writer, n_docs: int, truth: dict) -> dict[str, list[dict]]:
    """55 % Greek web, 20 % Greek wiki, 5 % Greek PDF, 20 % English wiki, with
    ~0.5 % exact and ~0.5 % near copies of clean web pages."""
    n_web, n_wiki, n_pdf = int(n_docs * 0.55), int(n_docs * 0.20), int(n_docs * 0.05)
    n_en = n_docs - n_web - n_wiki - n_pdf
    web = _web_docs(w, n_web, truth)
    clean = [d for d in web if d["id"] not in truth]
    n_exact = n_docs // 200
    web += _plant_copies(w, clean, n_exact * 4 // 5, n_docs // 200, "web", truth)
    wiki = [_doc(f"wiki-{i:06d}", w.text(GREEK, 40, 89, paragraph_every=60))
            for i in range(n_wiki)]
    wiki += _plant_copies(w, clean, n_exact - n_exact * 4 // 5, 0, "wiki", truth)
    pdf = _pdf_docs(w, n_pdf, truth)
    en = [_doc(f"en-{i:06d}", w.text(ENGLISH, 40, 89, paragraph_every=70))
          for i in range(n_en)]
    return {"el_web": web, "el_wiki": wiki, "el_pdf": pdf, "en_wiki": en}


def _boilerplate_corpus(w: _Writer, n_docs: int, truth: dict) -> dict[str, list[dict]]:
    """Greek web pages of which ~30 % are one of two 100-word templates plus
    one unique trailing word; members are spread at random.

    One word, not more: each unique word adds a shingle outside the template,
    and with three of them about 1 % of the members shared no LSH band with
    any other member, so the family check would fail on most seeds."""
    rng = w.rng
    templates = [" ".join(w.words(GREEK, 100)) for _ in range(2)]
    n_members = int(n_docs * 0.30)
    member_slots = set(rng.sample(range(n_docs), n_members))
    docs = []
    for i in range(n_docs):
        doc_id = f"web-{i:06d}"
        if i in member_slots:
            family = rng.randrange(2)
            text = f"{templates[family]} {rng.randrange(10**9)}"
            truth[doc_id] = {"kind": "template", "family": family}
        else:
            text = w.text(GREEK, 28, 61)
        docs.append(_doc(doc_id, text))
    return {"el_web": docs}


_DATASET_SPECS = {
    "el_web": {"language": "el", "pre_deduplicated": False, "extraction": "web"},
    "el_wiki": {"language": "el", "pre_deduplicated": True, "extraction": "web"},
    "el_pdf": {"language": "el", "pre_deduplicated": False, "extraction": "pdf"},
    "en_wiki": {"language": "en", "pre_deduplicated": True, "extraction": "web"},
}

# name -> (corpus maker, documents, threads, stages, config overrides)
WORKLOADS = {
    "pipeline_20k": (_mixed_corpus, 20_000, 1, ALL_STAGES, {}),
    "boilerplate_dedup": (_boilerplate_corpus, 12_000, 2, ["ingest", "dedup"], {}),
    "greek_tokenize": (_mixed_corpus, 20_000, 1,
                       ["ingest", "tokenizer", "embedding", "stats"],
                       {"stats": {"sample_every": 1}}),
}


def generate(workload: str, seed: int, work_dir: Path, n_docs: int | None = None) -> dict:
    """Write `work_dir/input/*`; return the config (path and contents), the
    document count, the configured stages and the ground-truth labels.
    `n_docs` scales the corpus down for the checkers' self-test."""
    make_corpus, size, threads, stages, overrides = WORKLOADS[workload]
    n_docs = n_docs or size
    w = _Writer(seed)
    truth: dict[str, dict] = {}
    corpus = make_corpus(w, n_docs, truth)
    inp = work_dir / "input"
    inp.mkdir(parents=True, exist_ok=True)
    datasets = []
    for name, docs in corpus.items():
        write_jsonl(inp / f"{name}.jsonl", docs)
        datasets.append({"name": name, "path": f"{name}.jsonl", **_DATASET_SPECS[name]})
    config = _base_config(threads, stages, datasets)
    for section, values in overrides.items():
        config[section].update(values)
    if "parallel" in stages:
        write_jsonl(inp / "parallel.jsonl", _bitext(w, n_docs // 4))
    if "alignment" in stages:
        write_jsonl(inp / "preferences.jsonl", _preferences(w, n_docs // 8))
        messages = {c: [w.text(GREEK, 8, 16) for _ in range(3)] for c in _CATEGORIES}
        (inp / "system_messages.json").write_text(
            json.dumps(messages, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")
    (inp / "bad_words.txt").write_text("\n".join(_BAD_WORDS) + "\n", encoding="utf-8")
    (inp / "url_blacklist.txt").write_text("\n".join(_BLACKLISTED) + "\n", encoding="utf-8")
    config_path = inp / "config.json"
    config_path.write_text(json.dumps(config, ensure_ascii=False, indent=1) + "\n",
                           encoding="utf-8")
    total = sum(len(docs) for docs in corpus.values())
    return {"config": config_path, "docs": total, "stages": stages, "truth": truth,
            "config_data": config}
