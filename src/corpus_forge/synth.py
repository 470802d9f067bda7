"""Deterministic synthetic Greek/English corpora.

Provides the bundled text samples (seeded generators instead of megabyte
fixtures) and a demo-corpus writer that plants duplicates, filter bait, and
noisy preference data so every pipeline stage has work to do.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from .documents import Document, write_documents, write_json, write_jsonl

_GREEK_FUNCTION = (
    "και να το η ο του της των με σε για από που δεν είναι θα τα οι στο στη "
    "στην στον ένα μια ως αλλά ή αν όταν πως ότι μετά πριν κατά χωρίς μέχρι "
    "πολύ πιο όπως επίσης ακόμα τώρα εδώ εκεί αυτό αυτή αυτός εμείς εσείς "
    "ήταν έχει έχουν είχε μπορεί πρέπει κάθε όλα όλοι μόνο τόσο ώστε ενώ "
    "δηλαδή λοιπόν όμως ίσως σχεδόν αρκετά λίγο μαζί ξανά πάντα ποτέ συχνά "
    "σήμερα χθες αύριο φέτος πέρυσι"
).split()

_GREEK_STEMS = (
    "άνθρωπ παιδ θάλασσ βιβλί πόλ χώρ γλώσσ ιστορί κυβέρνησ οικονομί "
    "εκπαίδευσ επιστήμ τεχνολογί κοινωνί μουσικ ταινί εφημερίδ δάσκαλ μαθητ "
    "γιατρ νοσοκομεί πανεπιστήμι εργασί κατοικί αυτοκίνητ τρέν αεροπλάν νησ "
    "βουν ποτάμ λίμν καιρ καλοκαίρ χειμών άνοιξ φθινόπωρ κυβερνήτ υπουργ "
    "βουλευτ δημοσιογράφ καλλιτέχν συγγραφέ ποιητ ζωγράφ αρχιτέκτον μηχανικ "
    "αγρότ ναυτικ έμπορ τραπεζίτ δικηγόρ δικαστ αστυνομικ στρατιώτ αθλητ "
    "ποδοσφαιριστ κολυμβητ δρομέ γυμναστ θέατρ κινηματογράφ μουσεί βιβλιοθήκ "
    "σχολεί εκκλησί πλατεί δρόμ γέφυρ λιμάν σταθμ αγορ κατάστημ εστιατόρι "
    "ξενοδοχεί παραλί ακρογιαλι ήλι φεγγάρ αστέρ ουραν σύννεφ βροχ χιόν άνεμ "
    "φωτι νερ χώμ αέρ δέντρ λουλούδ χορτάρ καρπ ρίζ κλαδ φύλλωμ"
).split()

_GREEK_ENDINGS = (
    "ος", "ου", "ο", "α", "ας", "ες", "ων", "ια",
    "ικός", "ική", "ικό", "ότητα", "ισμός", "ιστής",
)

_ENGLISH_WORDS = (
    "the of and to in a is that it was for on are as with his they at be "
    "this have from or one had by word but not what all were we when your "
    "can said there use an each which she do how their if will up other "
    "about out many then them these so some her would make like him into "
    "time has look two more write go see number no way could people my "
    "than first water been call who oil its now find long down day did get "
    "come made may part over new sound take only little work know place "
    "year live me back give most very after thing our just name good "
    "sentence man think say great where help through much before line "
    "right too mean old any same tell boy follow came want show also "
    "around form three small set put end does another well large must big "
    "even such because turn here why ask went men read need land different "
    "home us move try kind hand picture again change off play spell air "
    "away animal house point page letter mother answer found study still "
    "learn should america world high every near add food between own below "
    "country plant last school father keep tree never start city earth eye "
    "light thought head under story saw left dont few while along might "
    "close something seem next hard open example begin life always those "
    "both paper together got group often run important until children side "
    "feet car mile night walk white sea began grow took river four carry "
    "state once book hear stop without second later miss idea enough eat "
    "face watch far indian real almost let above girl sometimes mountain "
    "cut young talk soon list song being leave family ship"
).split()


_ENGLISH_SUFFIXES = ("", "s", "ed", "ing", "er", "ly", "est", "ion")


def _inventory(words: list[str]) -> tuple[np.ndarray, np.ndarray]:
    arr = np.array(words, dtype=object)
    ranks = np.arange(len(words), dtype=np.float64)
    weights = 1.0 / (ranks + 2.7) ** 1.07
    return arr, weights / weights.sum()


def greek_inventory() -> list[str]:
    words = list(_GREEK_FUNCTION)
    for stem in _GREEK_STEMS:
        for ending in _GREEK_ENDINGS:
            words.append(stem + ending)
    return words


def english_inventory() -> list[str]:
    words = list(_ENGLISH_WORDS)
    for word in _ENGLISH_WORDS:
        if len(word) >= 4:
            words.extend(word + suffix for suffix in _ENGLISH_SUFFIXES[1:])
    return words


_GREEK_ARR, _GREEK_W = _inventory(greek_inventory())
_EN_ARR, _EN_W = _inventory(english_inventory())


def _compose(words: list[str], rng: np.random.Generator, paragraph_every: int = 0) -> str:
    """Sentences of 6-14 words with light punctuation, occasional numbers,
    and optional blank-line paragraph breaks."""
    out: list[str] = []
    i = 0
    since_break = 0
    n = len(words)
    while i < n:
        length = min(int(rng.integers(6, 15)), n - i)
        sent = list(words[i : i + length])
        sent[0] = sent[0][:1].upper() + sent[0][1:]
        if length > 8 and rng.random() < 0.6:
            comma_at = int(rng.integers(3, length - 2))
            sent[comma_at] = sent[comma_at] + ","
        if length > 2 and rng.random() < 0.25:
            sent[int(rng.integers(1, length))] = str(int(rng.integers(0, 10000)))
        ending = "." if rng.random() < 0.9 else (";" if rng.random() < 0.5 else "!")
        sent[-1] = sent[-1] + ending
        out.append(" ".join(sent))
        i += length
        since_break += length
        if paragraph_every and since_break >= paragraph_every and i < n:
            out.append("\n")
            since_break = 0
    text = " ".join(out).replace(" \n ", "\n\n")
    return text


def _sample_words(arr: np.ndarray, weights: np.ndarray, n: int, rng: np.random.Generator):
    return list(arr[rng.choice(len(arr), size=n, p=weights)])


def greek_text(n_words: int, seed: int = 0, paragraph_every: int = 80) -> str:
    rng = np.random.Generator(np.random.PCG64(seed))
    return _compose(_sample_words(_GREEK_ARR, _GREEK_W, n_words, rng), rng, paragraph_every)


def english_text(n_words: int, seed: int = 0, paragraph_every: int = 80) -> str:
    rng = np.random.Generator(np.random.PCG64(seed))
    return _compose(_sample_words(_EN_ARR, _EN_W, n_words, rng), rng, paragraph_every)


_BAD_WORD_BAIT = ("βλάκας", "ηλίθιος", "κορόιδο", "σκουπίδι")
_EMOJI_NOISE = "😀🎉🐍💡🔥🌊🚀🍀🧩🌟"
_CJK_NOISE = "漢字仮名交漢字仮名交"


def _doc_words(rng: np.random.Generator, lo: int = 28, hi: int = 62) -> int:
    return int(rng.integers(lo, hi))


def make_demo_datasets(
    n_docs: int = 2_000, seed: int = 42
) -> dict[str, list[Document]]:
    """Synthetic dataset map with planted duplicates and filter bait.

    Roughly: 55% Greek web, 20% Greek wiki (treated as pre-deduplicated),
    5% Greek PDF extractions with artifacts, 20% English wiki.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    n_web = int(n_docs * 0.55)
    n_wiki = int(n_docs * 0.20)
    n_pdf = int(n_docs * 0.05)
    n_en = n_docs - n_web - n_wiki - n_pdf

    def greek_words(n: int) -> list[str]:
        return _sample_words(_GREEK_ARR, _GREEK_W, n, rng)

    def english_words(n: int) -> list[str]:
        return _sample_words(_EN_ARR, _EN_W, n, rng)

    datasets: dict[str, list[Document]] = {}

    web: list[Document] = []
    for i in range(n_web):
        text = _compose(greek_words(_doc_words(rng)), rng)
        url = None
        roll = rng.random()
        if roll < 0.02:
            url = f"http://spam-kazino.example.gr/p{i}"
        elif roll < 0.30:
            url = f"http://site{int(rng.integers(0, 50))}.example.gr/a{i}"
        bait = rng.random()
        if bait < 0.01:
            words = text.split()
            words.insert(3, _BAD_WORD_BAIT[i % len(_BAD_WORD_BAIT)])
            words.insert(9, _BAD_WORD_BAIT[(i + 1) % len(_BAD_WORD_BAIT)])
            text = " ".join(words)
        elif bait < 0.015:
            text = text + " Lorem ipsum dolor sit amet."
        elif bait < 0.035:
            text = " ".join(text.split()[:4])  # too short
        elif bait < 0.04:
            text = text + " " + "σ" * 70  # one glued word
        web.append(
            Document(
                id=f"web-{i:06d}", text=text, language="el", dataset="el_web",
                source_url=url,
            )
        )
    # Exact and near duplicates inside el_web.
    n_dup = max(2, n_web // 100)
    for k in range(n_dup):
        src = web[int(rng.integers(0, n_web))]
        web.append(
            Document(
                id=f"web-dup-{k:05d}", text=src.text, language="el", dataset="el_web",
            )
        )
    for k in range(n_dup):
        src = web[int(rng.integers(0, n_web))]
        words = src.text.split()
        if len(words) > 10:
            words[int(rng.integers(0, len(words)))] = "παραλλαγή"
        web.append(
            Document(
                id=f"web-near-{k:05d}", text=" ".join(words), language="el",
                dataset="el_web",
            )
        )
    datasets["el_web"] = web

    wiki = [
        Document(
            id=f"wiki-{i:06d}",
            text=_compose(greek_words(_doc_words(rng, 40, 90)), rng, paragraph_every=60),
            language="el",
            dataset="el_wiki",
        )
        for i in range(n_wiki)
    ]
    # Cross-dataset duplicates: wiki copies of web documents.
    for k in range(max(1, n_wiki // 200)):
        src = web[int(rng.integers(0, n_web))]
        wiki.append(
            Document(id=f"wiki-xdup-{k:05d}", text=src.text, language="el", dataset="el_wiki")
        )
    datasets["el_wiki"] = wiki

    pdf: list[Document] = []
    for i in range(n_pdf):
        text = _compose(greek_words(_doc_words(rng, 40, 90)), rng, paragraph_every=50)
        if rng.random() < 0.3:
            lines = text.split("\n")
            lines.insert(
                min(1, len(lines)), "α β γ δ ε ζ η θ ι κ"
            )
            if rng.random() < 0.5:
                lines.append("συγκολλημένο" * 8)
            text = "\n".join(lines)
        if rng.random() < 0.1:
            # Pure noise page: uniform characters defeat the fluency model.
            alphabet = list("αβγδεζηθικλμνξοπρστυφχψω0123456789qwxyz")
            noise = "".join(
                np.array(alphabet, dtype=object)[rng.integers(0, len(alphabet), 400)]
            )
            text = " ".join(noise[j : j + 9] for j in range(0, len(noise), 9))
        pdf.append(
            Document(
                id=f"pdf-{i:06d}", text=text, language="el", dataset="el_pdf",
                extraction="pdf",
            )
        )
    datasets["el_pdf"] = pdf

    datasets["en_wiki"] = [
        Document(
            id=f"en-{i:06d}",
            text=_compose(english_words(_doc_words(rng, 40, 90)), rng, paragraph_every=70),
            language="en",
            dataset="en_wiki",
        )
        for i in range(n_en)
    ]
    return datasets


def make_parallel_pairs(n_pairs: int = 600, seed: int = 7) -> list[dict]:
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = []
    for i in range(n_pairs):
        src = _compose(_sample_words(_EN_ARR, _EN_W, int(rng.integers(6, 18)), rng), rng)
        tgt = _compose(_sample_words(_GREEK_ARR, _GREEK_W, int(rng.integers(6, 18)), rng), rng)
        scores = {}
        if rng.random() < 0.9:
            scores["margin"] = round(float(rng.uniform(0.95, 1.40)), 4)
        if rng.random() < 0.9:
            scores["classifier"] = round(float(rng.uniform(0.40, 1.0)), 4)
        pairs.append({"src": src, "tgt": tgt, "scores": scores, "origin": "synth"})
    # Planted either-side duplicates (case/punctuation variants included).
    for k in range(max(2, n_pairs // 50)):
        base = pairs[int(rng.integers(0, n_pairs))]
        if k % 2 == 0:
            pairs.append({**base, "tgt": pairs[(k * 13) % n_pairs]["tgt"]})
        else:
            pairs.append({**base, "src": base["src"].upper() + "!!"})
    return pairs


def make_preferences(n: int = 400, seed: int = 11) -> list[dict]:
    rng = np.random.Generator(np.random.PCG64(seed))
    categories = ["general", "general", "rag", "cot", "math", "code"]
    out = []
    for i in range(n):
        prompt = _compose(_sample_words(_GREEK_ARR, _GREEK_W, int(rng.integers(6, 16)), rng), rng)
        chosen = _compose(_sample_words(_GREEK_ARR, _GREEK_W, int(rng.integers(20, 60)), rng), rng)
        rejected = _compose(_sample_words(_GREEK_ARR, _GREEK_W, int(rng.integers(8, 30)), rng), rng)
        record = {
            "id": f"pref-{i:05d}",
            "prompt": prompt,
            "chosen": chosen,
            "rejected": rejected,
            "chosen_rating": int(rng.integers(5, 11)),
            "rejected_rating": int(rng.integers(1, 6)),
            "category": categories[int(rng.integers(0, len(categories)))],
            "language": "el",
        }
        roll = rng.random()
        if roll < 0.05:
            record["rejected_rating"] = record["chosen_rating"]  # tie
        elif roll < 0.08:
            record["chosen"] = chosen + " " + _EMOJI_NOISE + _CJK_NOISE + _EMOJI_NOISE
        elif roll < 0.11:
            record["rejected"] = _compose(
                _sample_words(_EN_ARR, _EN_W, int(rng.integers(10, 25)), rng), rng
            )  # script mismatch
        elif roll < 0.14:
            record["chosen_rating"] = 2  # below min rating
        elif roll < 0.20:
            record["system"] = "Είσαι προσαρμοσμένος βοηθός."
        out.append(record)
    return out


def write_demo_corpus(out_dir: str | Path, n_docs: int = 2_000, seed: int = 42) -> Path:
    """Write datasets, auxiliary word lists, preference data, and a ready
    pipeline config under out_dir. Returns the config path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data_dir = Path(__file__).parent / "data"

    datasets = make_demo_datasets(n_docs=n_docs, seed=seed)
    for name, docs in datasets.items():
        write_documents(out / f"{name}.jsonl", docs)
    write_jsonl(out / "parallel.jsonl", make_parallel_pairs(max(200, n_docs // 4), seed=seed + 1))
    write_jsonl(out / "preferences.jsonl", make_preferences(max(200, n_docs // 8), seed=seed + 2))

    for fname in ("bad_words_sample.txt", "url_blacklist_sample.txt", "system_messages_el.json"):
        shutil.copy(data_dir / fname, out / fname)

    # Only the values where the demo departs from the section defaults.
    config = {
        "seed": seed,
        "datasets": [
            {"name": "el_web", "path": "el_web.jsonl", "language": "el"},
            {"name": "el_wiki", "path": "el_wiki.jsonl", "language": "el", "pre_deduplicated": True},
            {"name": "el_pdf", "path": "el_pdf.jsonl", "language": "el", "extraction": "pdf"},
            {"name": "en_wiki", "path": "en_wiki.jsonl", "language": "en", "pre_deduplicated": True},
        ],
        "filters": {
            "min_chars": 100,
            "bad_words_path": "bad_words_sample.txt",
            "url_blacklist_path": "url_blacklist_sample.txt",
        },
        "fluency": {
            "enabled": True,
            "order": 5,
            "train_dataset": "el_wiki",
            "max_train_chars": 400_000,
        },
        "dedup": {},
        "parallel": {"path": "parallel.jsonl"},
        "tokenizer": {
            "base_dataset": "en_wiki",
            "base_target_tokens": 1500,
            "new_target_tokens": 1500,
            "max_train_docs": 20_000,
        },
        "embedding": {},
        "alignment": {
            "preferences_path": "preferences.jsonl",
            "min_rating": 5.0,
            "system_messages_path": "system_messages_el.json",
        },
        "stats": {"sample_every": 20},
    }
    config_path = out / "config.json"
    write_json(config_path, config)
    return config_path
