import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from corpus_forge import binfile
from corpus_forge.documents import Document
from corpus_forge.fluency import (
    BOS,
    FALLBACK_DISCOUNTS,
    MAGIC,
    VERSION,
    UNK,
    ModelFormatError,
    TrainError,
    normalize_text,
    read_model,
    split_paragraphs,
    train_ngram_lm,
    write_model,
)


def _lm(text, order=2):
    return train_ngram_lm([Document(id="d", text=text)], order=order, holdout_fraction=0.0)


# Hand computation, order 2, corpus "abab" -----------------------------------
#
# Padded sequence: BOS a b a b. Bigram counts: (BOS,a):1 (a,b):2 (b,a):1.
# Continuation unigrams: a:2 b:1. Both levels have sparse count-of-counts
# (no bucket with count 3 and 4), so the fixed discounts (0.5, 1.0, 1.5) apply.
# Vocabulary {a, b, UNK}, uniform 1/3.


def test_hand_computed_two_symbol_corpus():
    lm = _lm("abab")
    d1, d2 = Fraction(1, 2), Fraction(1, 1)
    uniform = Fraction(1, 3)

    # Level 1 (continuation counts a:2, b:1; total 3).
    gamma1 = (d1 * 1 + d2 * 1) / 3
    p1_a = (2 - d2) / 3 + gamma1 * uniform
    p1_b = (1 - d1) / 3 + gamma1 * uniform
    p1_unk = gamma1 * uniform
    assert math.isclose(lm.prob("a", "zz"), float(p1_a), abs_tol=1e-12)  # unseen ctx
    assert float(p1_a) == 0.5 and float(p1_b) == pytest.approx(1 / 3)

    # Context "a" at the top level: successors {b: 2}, total 2.
    gamma_a = d2 / 2
    p_b_a = (2 - d2) / 2 + gamma_a * p1_b
    p_a_a = gamma_a * p1_a
    p_unk_a = gamma_a * p1_unk
    assert math.isclose(lm.prob("b", "a"), float(p_b_a), abs_tol=1e-12)
    assert math.isclose(lm.prob("a", "a"), float(p_a_a), abs_tol=1e-12)
    assert math.isclose(lm.prob("z", "a"), float(p_unk_a), abs_tol=1e-12)
    assert lm.prob("b", "a") == pytest.approx(2 / 3)

    # Sequence start: context BOS has successors {a: 1}, total 1.
    p_a_bos = (1 - d1) / 1 + (d1 / 1) * p1_a
    assert math.isclose(lm.prob("a", ""), float(p_a_bos), abs_tol=1e-12)
    assert lm.prob("a", "") == pytest.approx(0.75)


@pytest.mark.parametrize("seed", [4, 16])
def test_level_with_a_discount_estimate_at_zero_falls_back(seed):
    # Skewed text whose order-2 level estimates D3+ <= 0 (seed 4) or D2 and
    # D3+ <= 0 (seed 16). That level takes the fixed discounts, so a context
    # whose successors all occur three or more times keeps back-off mass and
    # an unseen successor a positive probability.
    text = "".join(random.Random(seed).choices("abcdef", weights=[50, 25, 12, 8, 4, 1], k=685))
    lm = _lm(text)
    assert lm._discounts[1] == FALLBACK_DISCOUNTS
    assert math.isfinite(lm.log_prob("abcdefabcdeffedcbaaffeeddc"))
    for ctx in "abcdef" + BOS:
        assert sum(lm.prob(w, ctx) for w in lm.vocab) == pytest.approx(1.0)
        assert min(lm.prob(w, ctx) for w in lm.vocab) > 0.0


def test_hand_computed_four_symbol_corpus():
    # Corpus "abcdabcdabab": bigrams (BOS,a):1 (a,b):4 (b,c):2 (c,d):2
    # (d,a):2 (b,a):1; continuation unigrams a:3 b:1 c:1 d:1.
    lm = _lm("abcdabcdabab")
    d1, d2, d3 = Fraction(1, 2), Fraction(1, 1), Fraction(3, 2)
    uniform = Fraction(1, 5)  # {a, b, c, d, UNK}

    gamma1 = (d1 * 3 + d3 * 1) / 6
    p1 = {
        "a": (3 - d3) / 6 + gamma1 * uniform,
        "b": (1 - d1) / 6 + gamma1 * uniform,
        "c": (1 - d1) / 6 + gamma1 * uniform,
        "d": (1 - d1) / 6 + gamma1 * uniform,
        UNK: gamma1 * uniform,
    }
    assert sum(p1.values()) == 1

    # Context "a": {b: 4}, total 4.
    gamma_a = d3 / 4
    expected = {
        "b": (4 - d3) / 4 + gamma_a * p1["b"],
        "a": gamma_a * p1["a"],
        "c": gamma_a * p1["c"],
        "d": gamma_a * p1["d"],
    }
    assert math.isclose(lm.prob("b", "a"), float(expected["b"]), abs_tol=1e-12)
    assert lm.prob("b", "a") == pytest.approx(0.69375)
    assert math.isclose(lm.prob("a", "a"), float(expected["a"]), abs_tol=1e-12)
    assert lm.prob("a", "a") == pytest.approx(0.13125)

    # Context "b": {c: 2, a: 1}, total 3.
    gamma_b = (d1 * 1 + d2 * 1) / 3
    p_c_b = (2 - d2) / 3 + gamma_b * p1["c"]
    p_a_b = (1 - d1) / 3 + gamma_b * p1["a"]
    assert math.isclose(lm.prob("c", "b"), float(p_c_b), abs_tol=1e-12)
    assert math.isclose(lm.prob("a", "b"), float(p_a_b), abs_tol=1e-12)
    assert lm.prob("c", "b") == pytest.approx(51 / 120)

    # Unseen one-char context backs off to the interpolated unigram.
    assert math.isclose(lm.prob("b", "x"), float(p1["b"]), abs_tol=1e-12)


def test_repeated_corpus_b_after_a_dominates():
    lm = _lm("\n\n".join(["abab"] * 50))
    others = [lm.prob(c, "a") for c in ("a", "\x01")]
    assert lm.prob("b", "a") > 0.9 > max(others)


def test_single_character_corpus():
    lm = _lm("a" * 40)
    assert lm.prob("a", "a") > lm.prob(UNK, "a")
    assert lm.prob("a", "a") > 0.5


def test_normalization_sums_to_one(greek_lm):
    rng = np.random.default_rng(0)
    chars = sorted(greek_lm.vocab - {UNK})
    pool = chars + ["☃", "q", "7"]
    for _ in range(200):
        k = int(rng.integers(0, greek_lm.order))
        ctx = "".join(rng.choice(pool, size=k))
        total = sum(greek_lm.prob(c, ctx) for c in chars) + greek_lm.prob("￿", ctx)
        assert abs(total - 1.0) < 1e-9


def test_log_prob_chain_rule():
    lm = _lm("abab")
    expected = math.log(lm.prob("a", "")) + math.log(lm.prob("b", "a"))
    assert math.isclose(lm.log_prob("ab"), expected, rel_tol=1e-12)


def test_log_prob_empty_and_additivity():
    lm = _lm("abab")
    assert lm.log_prob("") == 0.0
    assert math.isclose(
        lm.log_prob("ab") + lm.log_prob("ba"),
        lm.log_prob("ab") + lm.log_prob("ba"),
    )


def test_fluency_score_bounds_and_monotonicity(greek_lm):
    text = "καλημέρα σας φίλοι μου"
    score = greek_lm.fluency_score(text)
    assert 0.0 <= score <= 1.0
    # score is h_ref / h clipped at one: larger cross-entropy, smaller score
    h = greek_lm.cross_entropy(text)
    if h > greek_lm.h_ref:
        assert score == pytest.approx(greek_lm.h_ref / h)


def test_ratio_one_at_reference_entropy():
    lm = _lm("abab abba baab bbaa" * 10)
    lm.h_ref = lm.cross_entropy("abab")
    assert lm.fluency_score("abab") == pytest.approx(1.0)


def test_self_score_high_noise_score_low(greek_lm, greek_docs):
    sample = greek_docs[3].text
    assert greek_lm.document_score(sample) >= 0.9
    rng = np.random.default_rng(1)
    alphabet = list("αβγδεζηθικλμνξοπρστυφχψωqwxyz0123456789#@%&")
    noise = "".join(rng.choice(alphabet, size=2000))
    noise = " ".join(noise[i : i + 9] for i in range(0, len(noise), 9))
    assert greek_lm.document_score(noise) < 0.7


def test_document_score_weights_by_length(greek_lm):
    p1 = "καλημέρα σας"
    p2 = "χθες πήγαμε στην θάλασσα με τα παιδιά και τον σκύλο"
    doc = f"{p1}\n\n{p2}"
    s1, s2 = greek_lm.fluency_score(p1), greek_lm.fluency_score(p2)
    l1, l2 = len(normalize_text(p1)), len(normalize_text(p2))
    assert greek_lm.document_score(doc) == pytest.approx((l1 * s1 + l2 * s2) / (l1 + l2))


def test_document_score_invariant_to_paragraph_order(greek_lm):
    p1 = "καλημέρα σας φίλοι"
    p2 = "χθες πήγαμε στην θάλασσα με τα παιδιά"
    forward = greek_lm.document_score(f"{p1}\n\n{p2}")
    reverse = greek_lm.document_score(f"{p2}\n\n{p1}")
    assert forward == pytest.approx(reverse, rel=1e-12)


def test_paragraph_splitting():
    assert split_paragraphs("a\n\nb\n \nc") == ["a", "b", "c"]
    assert split_paragraphs("  \n\n ") == []


def test_reserved_characters_map_to_unknown():
    assert normalize_text("a\x00b") == f"a{UNK}b"
    lm = _lm("abab")
    assert lm.prob(BOS, "a") == lm.prob(UNK, "a")


def test_training_errors():
    with pytest.raises(TrainError):
        train_ngram_lm([Document(id="d", text="ab")], order=5, holdout_fraction=0.0)
    with pytest.raises(ValueError):
        train_ngram_lm([Document(id="d", text="abcdef")], order=1)


def test_holdout_reference_entropy(greek_docs):
    lm = train_ngram_lm(greek_docs, order=3, holdout_fraction=0.2, seed=7)
    assert lm.h_ref > 0.0


def test_model_file_roundtrip_and_determinism(tmp_path, greek_docs):
    docs = greek_docs[:5]
    lm1 = train_ngram_lm(docs, order=3, holdout_fraction=0.25, seed=9)
    lm2 = train_ngram_lm(docs, order=3, holdout_fraction=0.25, seed=9)
    p1, p2 = tmp_path / "m1.nglm", tmp_path / "m2.nglm"
    write_model(lm1, p1)
    write_model(lm2, p2)
    assert p1.read_bytes() == p2.read_bytes()

    loaded = read_model(p1)
    assert loaded.order == lm1.order
    assert loaded.h_ref == lm1.h_ref
    for ctx in ("", "αβ", "καλ"):
        assert loaded.prob("α", ctx) == lm1.prob("α", ctx)


def test_model_format_errors(tmp_path):
    bad = tmp_path / "bad.nglm"
    bad.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ModelFormatError):
        read_model(bad)
    lm = _lm("abab")
    good = tmp_path / "good.nglm"
    write_model(lm, good)
    truncated = tmp_path / "trunc.nglm"
    truncated.write_bytes(good.read_bytes()[:-5])
    with pytest.raises(ModelFormatError):
        read_model(truncated)
    trailing = tmp_path / "trail.nglm"
    trailing.write_bytes(good.read_bytes() + b"\x00")
    with pytest.raises(ModelFormatError):
        read_model(trailing)


def _write_levels(path, levels, vocab="abqz"):
    """An order-len(levels) model file with the given (gram, count) entries
    per level, written in the order given."""
    with binfile.Writer(path, MAGIC, VERSION) as out:
        out.pack("Id", len(levels), 1.5)
        blob = vocab.encode("utf-8")
        out.pack(f"I{len(blob)}s", len(blob), blob)
        for entries in levels:
            out.pack("Q", len(entries))
            for gram, count in entries:
                raw = gram.encode("utf-8")
                out.pack(f"H{len(raw)}sQ", len(raw), raw, count)


UNIGRAMS = [("a", 1), ("b", 2), ("q", 1)]


def test_hand_built_model_loads(tmp_path):
    path = tmp_path / "ok.nglm"
    _write_levels(path, [UNIGRAMS, [("ab", 2), ("zq", 1)]])
    lm = read_model(path)
    grams, counts = list(lm.levels())[1]
    assert dict(zip(grams.tolist(), counts.tolist())) == {"ab": 2, "zq": 1}
    assert lm.prob("b", "a") > lm.prob("q", "a")


@pytest.mark.parametrize(
    "bigrams",
    [[("ab", 2), ("ab", 5)], [("zq", 1), ("ab", 2)]],
    ids=["repeated", "descending"],
)
def test_model_with_unsorted_level_is_rejected(tmp_path, bigrams):
    path = tmp_path / "unsorted.nglm"
    _write_levels(path, [UNIGRAMS, bigrams])
    with pytest.raises(ModelFormatError, match="order-2 gram"):
        read_model(path)


def test_model_with_missing_suffix_is_rejected(tmp_path):
    # `zq` needs the unigram `q`, which this file lacks.
    path = tmp_path / "open.nglm"
    _write_levels(path, [[("a", 1), ("b", 2)], [("ab", 2), ("zq", 1)]])
    with pytest.raises(ModelFormatError, match="'zq' has no order-1 suffix"):
        read_model(path)


@pytest.mark.parametrize(
    "levels, bad",
    [
        ([[(BOS, 1), ("a", 1), ("b", 2)], [("a" + BOS, 1), ("ab", 2)]], r"order-1 entry '\x00'"),
        ([[("a", 1), ("b", 2)], [(BOS + "b", 1), ("ab", 1)], [("a" + BOS + "b", 1)]],
         r"order-3 entry 'a\x00b'"),
    ],
    ids=["predicts-bos", "inner-bos"],
)
def test_model_with_bos_past_the_leading_padding_is_rejected(tmp_path, levels, bad):
    # Suffix-closed and sorted, but BOS only ever pads a gram on the left:
    # as a fixed-width string, a gram ending in BOS reads as a shorter one.
    path = tmp_path / "bos.nglm"
    _write_levels(path, levels)
    with pytest.raises(ModelFormatError, match=re.escape(bad)):
        read_model(path)
