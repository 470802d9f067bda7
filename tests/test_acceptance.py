"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line with its runtime against the stated limit.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    build_cluster_corpus,
    cli_with_peak,
    english_sample,
    greek_sample,
    oracle_clusters,
    oracle_pairs,
    sample_documents,
)

from corpus_forge import synth
from corpus_forge.alignment import orpo_loss, orpo_loss_with_grad
from corpus_forge.bpe import ExtendedVocab, Vocab, extend_vocab, fertility_counts, train_bpe
from corpus_forge.dedup import (
    DedupConfig,
    dedup_corpus,
    kept_documents,
    estimate_jaccard,
    exact_jaccard,
    minhash_signature,
)
from corpus_forge.documents import CorpusStats, Document
from corpus_forge.embeddings import (
    EmbeddingMatrix,
    MatrixRole,
    init_new_embeddings,
    pad_to_multiple,
    read_matrix,
    write_matrix,
)
from corpus_forge.fluency import UNK, train_ngram_lm
from corpus_forge.parallel import (
    ParallelFilterConfig,
    SentencePair,
    dedup_parallel,
    pair_passes,
)
from corpus_forge.schedule import builtin_plans, lr_at, schedule_table


@contextmanager
def criterion(number: int, title: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number:>2}: {title}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit_s
    print(
        f"\n[{'PASS' if ok else 'FAIL'}] criterion {number:>2}: {title} "
        f"({elapsed:.1f}s / limit {limit_s:.0f}s)",
        flush=True,
    )
    assert ok, f"runtime {elapsed:.1f}s exceeded the {limit_s:.0f}s limit"


def test_c01_subcorpus_accounting():
    with criterion(1, "subcorpus token accounting", 1.0):
        stats = CorpusStats.from_counts(
            {
                "Greek": 43_383_244_502,
                "English": 10_538_413_259,
                "Parallel": 633_816_023,
            }
        )
        assert stats.total_tokens == 54_555_473_784
        expected_pp = {"Greek": 79.5, "English": 19.3, "Parallel": 1.2}
        for name, pp in expected_pp.items():
            assert abs(100.0 * stats.percentages[name] - pp) <= 0.05


def test_c02_fertility_improvement_and_oracle():
    with criterion(2, "vocabulary extension halves Greek fertility", 120.0):
        greek_docs = sample_documents(greek_sample(100_000), "el", "greek_sample", "el")
        english_docs = sample_documents(english_sample(100_000), "en", "english_sample", "en")
        base = train_bpe(english_docs, 8_000)
        assert len(base.merges) == 8_000
        learned = train_bpe(greek_docs, 8_000)
        assert len(learned.merges) == 8_000
        ext = extend_vocab(base, learned)
        base_only = ExtendedVocab.from_base(base)

        (f_base_tokens, f_ext_tokens), f_words = fertility_counts([base_only, ext], greek_docs)
        fert_base = f_base_tokens / f_words
        fert_ext = f_ext_tokens / f_words

        # Brute-force oracle: plain per-document counting loops.
        oracle_tokens_base = oracle_tokens_ext = oracle_words = 0
        for doc in greek_docs:
            oracle_tokens_base += len(base_only.encode(doc.text))
            oracle_tokens_ext += len(ext.encode(doc.text))
            oracle_words += len(doc.text.split())
        assert (f_base_tokens, f_ext_tokens, f_words) == (
            oracle_tokens_base, oracle_tokens_ext, oracle_words
        )
        assert fert_base == oracle_tokens_base / oracle_words
        assert fert_ext == oracle_tokens_ext / oracle_words

        assert fert_base >= 2.0 * fert_ext, (fert_base, fert_ext)


def _exact_jaccard_sets(shared: int, only: int, tag: str):
    common = {f"s{tag}k{i}" for i in range(shared)}
    a = common | {f"a{tag}k{i}" for i in range(only)}
    b = common | {f"b{tag}k{i}" for i in range(only)}
    return a, b


def test_c03_minhash_estimator_quality():
    with criterion(3, "minhash estimator accuracy and bias", 60.0):
        # 1,000 pairs spanning exact Jaccard 0.1 .. 0.9 (shared + 2*only = 200).
        levels = [(20 * j, 100 - 10 * j) for j in range(1, 10)]
        within = 0
        total = 1_000
        for trial in range(total):
            shared, only = levels[trial % len(levels)]
            a, b = _exact_jaccard_sets(shared, only, f"t{trial}")
            truth = exact_jaccard(a, b)
            assert truth == pytest.approx(shared / 200.0, abs=1e-12)
            cfg = DedupConfig(seed=trial)
            est = estimate_jaccard(
                minhash_signature(a, cfg), minhash_signature(b, cfg)
            )
            within += abs(est - truth) <= 0.15
        assert within >= 990, f"only {within}/1000 within 0.15"

        # Mean bias over 10,000 independent hash families at J = 0.5.
        a, b = _exact_jaccard_sets(100, 50, "bias")
        assert exact_jaccard(a, b) == 0.5
        total_est = 0.0
        trials = 10_000
        for seed in range(trials):
            cfg = DedupConfig(seed=100_000 + seed)
            total_est += estimate_jaccard(
                minhash_signature(a, cfg), minhash_signature(b, cfg)
            )
        bias = abs(total_est / trials - 0.5)
        assert bias <= 0.01, f"mean bias {bias:.4f}"


def test_c04_dedup_matches_exact_oracle():
    with criterion(4, "near-duplicate clusters match the exact oracle", 30.0):
        docs, planted = build_cluster_corpus(n_clusters=20, n_docs=100, seed=0)
        assert len(planted) == 20

        cfg = DedupConfig(seed=5, verify_candidates=True)
        result = dedup_corpus([("synthetic", docs)], cfg)
        got = sorted(sorted(c) for c in result.reports["intra"].clusters)
        expected = oracle_clusters(docs, cfg.shingle_n, cfg.jaccard_threshold)
        assert got == expected

        cfg_fast = DedupConfig(seed=5, verify_candidates=False)
        fast = dedup_corpus([("synthetic", docs)], cfg_fast)
        member: dict[str, int] = {}
        for i, cluster in enumerate(fast.reports["intra"].clusters):
            for doc_id in cluster:
                member[doc_id] = i
        pairs = oracle_pairs(docs, cfg_fast.shingle_n, 0.85)
        assert pairs
        recalled = sum(
            1 for x, y in pairs if member.get(x, -1) == member.get(y, -2)
        )
        assert recalled / len(pairs) >= 0.95


def test_c05_two_stage_semantics():
    with criterion(5, "cross-dataset duplicates removed only at stage two", 5.0):
        shared = "ena dyo tria tessera pente exi epta okto ennia deka"
        ds_a = [
            Document(id="a0", text=shared, dataset="a"),
            Document(id="a1", text=shared, dataset="a"),
            Document(id="a2", text="entirely different text with its own words", dataset="a"),
        ]
        ds_b = [
            Document(id="b0", text=shared, dataset="b"),
            Document(id="b1", text="another unrelated document lives here quietly", dataset="b"),
        ]
        result = dedup_corpus([("a", ds_a), ("b", ds_b)], DedupConfig(seed=3))
        intra, cross = result.reports["intra"], result.reports["cross"]
        # a1 is an intra-dataset duplicate; b0 survives stage 1.
        assert intra.removed == {"a1"}
        assert "b0" in intra.kept
        assert cross.removed == {"b0"}
        intra.validate([d.id for d in ds_a + ds_b])
        cross.validate(sorted(intra.kept))
        survivors = kept_documents([("a", ds_a), ("b", ds_b)], result.removed_indices())
        assert {d.id for d in survivors} == {"a0", "a2", "b1"}


def test_c06_learning_rate_schedule():
    with criterion(6, "stage-2 learning-rate schedule", 1.0):
        sched = builtin_plans()["stage2"].schedule
        assert lr_at(248, sched) == pytest.approx(2.5e-5, rel=1e-12)
        mid = sched.warmup_steps + (sched.plateau_start - sched.warmup_steps) // 2
        assert lr_at(mid, sched) == pytest.approx(1.375e-5, rel=1e-12)
        for step in range(22_320, 24_801, 40):
            assert lr_at(step, sched) == 2.5e-6
        # continuity at both joins, relative 1e-12
        w = sched.warmup_steps
        warm_end = sched.lr_peak * w / w
        cos_start = sched.lr_min + 0.5 * (sched.lr_peak - sched.lr_min) * (1 + math.cos(0.0))
        assert abs(warm_end - cos_start) <= 1e-12 * sched.lr_peak
        cos_end = sched.lr_min + 0.5 * (sched.lr_peak - sched.lr_min) * (1 + math.cos(math.pi))
        assert abs(cos_end - sched.lr_min) <= 1e-12 * sched.lr_peak
        # monotone non-increasing across every step after warmup
        table = schedule_table(sched)
        assert table.shape == (24_801,)
        assert (np.diff(table[w:]) <= 1e-18).all()


def test_c07_embedding_surgery():
    with criterion(7, "embedding surgery and matrix format", 30.0):
        # Base vocabulary of the 256 byte tokens plus three merges, over a
        # 259x4 matrix; the rows the added tokens draw on are set by hand.
        byte_tokens = Vocab.byte_vocab().tokens
        base = Vocab(
            tokens=byte_tokens + ["ab", "cd", "abc"],
            merges=[("a", "b"), ("c", "d"), ("ab", "c")],
        )
        ext = ExtendedVocab(
            base=base,
            added_tokens=["abcd", "abx"],
            added_merges=[("ab", "cd"), ("ab", "x")],
        )
        data = np.arange(259 * 4, dtype=np.float32).reshape(259, 4)
        data[base.token_to_id["x"]] = [-4.0, -2.0, 0.0, 2.0]
        data[256] = [1.0, 3.0, 5.0, 7.0]    # ab
        data[257] = [2.0, 4.0, 6.0, 8.0]    # cd
        data[258] = [9.0, 9.0, 9.0, 9.0]    # abc
        matrix = EmbeddingMatrix(data=data, role=MatrixRole.INPUT_EMBEDDINGS)
        grown = init_new_embeddings(matrix, base, ext)
        assert grown.rows == ext.total_size == 261
        # "abcd" -> base tokens [ab, cd]; "abx" -> [ab, x]; means by hand:
        assert (grown.data[259] == np.array([1.5, 3.5, 5.5, 7.5], dtype=np.float32)).all()
        assert (grown.data[260] == np.array([-1.5, 0.5, 2.5, 4.5], dtype=np.float32)).all()
        assert grown.data[:259].tobytes() == data.tobytes()

        padded = pad_to_multiple(grown, 8)
        assert padded.rows == 264 and padded.rows % 8 == 0
        mean_row = grown.data.astype(np.float64).mean(axis=0).astype(np.float32)
        for i in padded.padding_rows:
            assert (padded.data[i] == mean_row).all()

        # 1,000-matrix round-trip fuzz, bit-exact.
        rng = np.random.Generator(np.random.PCG64(99))
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.emb"
            for trial in range(1_000):
                rows = int(rng.integers(1, 40))
                dims = int(rng.integers(1, 24))
                scale = 10.0 ** float(rng.integers(-3, 4))
                values = (rng.standard_normal((rows, dims)) * scale).astype(np.float32)
                role = MatrixRole.LM_HEAD if trial % 3 == 0 else MatrixRole.INPUT_EMBEDDINGS
                n_pad = int(rng.integers(0, min(rows, 4)))
                original = EmbeddingMatrix(
                    data=values, role=role,
                    padding_rows=tuple(range(rows - n_pad, rows)),
                )
                write_matrix(original, path)
                loaded = read_matrix(path)
                assert loaded.data.tobytes() == original.data.tobytes()
                assert loaded.role == original.role
                assert loaded.padding_rows == original.padding_rows


def test_c08_preference_loss():
    with criterion(8, "preference loss values and gradients", 10.0):
        scalar = orpo_loss([math.log(0.9)], [math.log(0.5)], lam=0.0)
        assert abs(scalar["loss"] - (-math.log(0.9))) <= 1e-9

        sym = orpo_loss([-0.3, -1.7], [-0.3, -1.7], lam=1.0)
        assert sym["or_term"] == pytest.approx(math.log(2), rel=1e-15)
        assert sym["log_odds_ratio"] == 0.0

        rng = np.random.Generator(np.random.PCG64(8))
        h = 1e-6
        for _ in range(100):
            n, m = int(rng.integers(1, 16)), int(rng.integers(1, 16))
            chosen = -rng.uniform(0.05, 3.5, n)
            rejected = -rng.uniform(0.05, 3.5, m)
            lam = float(rng.uniform(0.0, 2.0))
            _, grad_c, grad_r = orpo_loss_with_grad(chosen, rejected, lam)
            for i in range(n):
                hi, lo = chosen.copy(), chosen.copy()
                hi[i] += h
                lo[i] -= h
                fd = (
                    orpo_loss(hi, rejected, lam)["loss"]
                    - orpo_loss(lo, rejected, lam)["loss"]
                ) / (2 * h)
                assert fd == pytest.approx(grad_c[i], rel=1e-5, abs=1e-10)
            for j in range(m):
                hi, lo = rejected.copy(), rejected.copy()
                hi[j] += h
                lo[j] -= h
                fd = (
                    orpo_loss(chosen, hi, lam)["loss"]
                    - orpo_loss(chosen, lo, lam)["loss"]
                ) / (2 * h)
                assert fd == pytest.approx(grad_r[j], rel=1e-5, abs=1e-10)


def test_c09_character_language_model():
    with criterion(9, "character language model probabilities", 60.0):
        # Hand-derived smoothing on the 4-symbol corpus "abcdabcdabab",
        # order 2. Bigram counts: (BOS,a):1 (a,b):4 (b,c):2 (c,d):2 (d,a):2
        # (b,a):1; continuation unigrams a:3 b:1 c:1 d:1. Sparse
        # count-of-count buckets put both levels on the fixed discounts.
        lm = train_ngram_lm(
            [Document(id="h", text="abcdabcdabab")], order=2, holdout_fraction=0.0
        )
        d1, d3 = Fraction(1, 2), Fraction(3, 2)
        uniform = Fraction(1, 5)
        gamma1 = (d1 * 3 + d3 * 1) / 6
        p1 = {
            "a": (3 - d3) / 6 + gamma1 * uniform,
            "b": (1 - d1) / 6 + gamma1 * uniform,
            "c": (1 - d1) / 6 + gamma1 * uniform,
        }
        gamma_a = d3 / 4
        expected_b_a = (4 - d3) / 4 + gamma_a * p1["b"]
        expected_a_a = gamma_a * p1["a"]
        assert abs(lm.prob("b", "a") - float(expected_b_a)) <= 1e-9
        assert abs(lm.prob("a", "a") - float(expected_a_a)) <= 1e-9
        assert abs(lm.prob("b", "a") - 0.69375) <= 1e-9
        assert abs(lm.prob("a", "a") - 0.13125) <= 1e-9
        gamma_b = (d1 + Fraction(1)) / 3  # one count-1 type, one count-2 type
        expected_c_b = (2 - 1) / Fraction(3) + gamma_b * p1["c"]
        assert abs(lm.prob("c", "b") - float(expected_c_b)) <= 1e-9
        assert abs(lm.prob("c", "b") - 0.425) <= 1e-9

        # Order-7 model over the bundled sample: distributions sum to one
        # for 1,000 random contexts, training text scores high, noise low.
        docs = sample_documents(
            synth.greek_text(60_000, seed=77), "lm", "lm_corpus", "el"
        )
        lm7 = train_ngram_lm(docs, order=7, holdout_fraction=0.1, seed=4)
        chars = sorted(lm7.vocab - {UNK})
        rng = np.random.Generator(np.random.PCG64(17))
        pool = chars + ["q", "9", "☃"]
        for _ in range(1_000):
            k = int(rng.integers(0, lm7.order))
            ctx = "".join(rng.choice(pool, size=k))
            total = sum(lm7.prob(c, ctx) for c in chars) + lm7.prob("￿", ctx)
            assert abs(total - 1.0) <= 1e-9

        train_sample = docs[10].text
        assert lm7.document_score(train_sample) >= 0.9
        alphabet = list("αβγδεζηθικλμνξοπρστυφχψωqwxyz0123456789#@%&;:")
        noise_chars = rng.choice(alphabet, size=3_000)
        noise = "".join(noise_chars)
        noise = " ".join(noise[i : i + 9] for i in range(0, len(noise), 9))
        assert lm7.document_score(noise) < 0.7


def test_c10_parallel_pipeline():
    with criterion(10, "bitext dedup fixture and threshold boundaries", 5.0):
        rows = [
            ("The cat sat", "η γάτα κάθισε"),
            ("the cat sat!", "ο σκύλος έτρεξε"),
            ("A new source", "η γάτα κάθισε."),
            ("Fresh line here", "καινούρια γραμμή"),
            ("FRESH LINE HERE", "άλλη μετάφραση"),
            ("Sixth sentence", "έκτη πρόταση"),
            ("Seventh sentence", "έκτη πρόταση;"),
            ("Eighth sentence", "όγδοη πρόταση"),
            ("Ninth sentence", "ένατη πρόταση"),
            ("ninth sentence?", "ένατη, πρόταση"),
        ]
        pairs = [SentencePair(src=s, tgt=t) for s, t in rows]
        kept, report = dedup_parallel(pairs)
        assert [p.src for p in kept] == [rows[i][0] for i in (0, 3, 5, 7, 8)]
        assert report["input"] == 10 and report["kept"] == 5

        cfg = ParallelFilterConfig()
        assert pair_passes(SentencePair("s", "t", scores={"margin": 1.06}), cfg)
        assert not pair_passes(SentencePair("s", "t", scores={"margin": 1.0599999}), cfg)
        assert pair_passes(SentencePair("s", "t", scores={"classifier": 0.7}), cfg)
        assert not pair_passes(SentencePair("s", "t", scores={"classifier": 0.699}), cfg)


@pytest.mark.slow
def test_c11_pipeline_determinism_and_performance(tmp_path):
    with criterion(11, "100k-document pipeline: speed, memory, determinism", 1_500.0):
        corpus_dir = tmp_path / "corpus"
        config_path = synth.write_demo_corpus(corpus_dir, n_docs=100_000, seed=7)
        doc_bytes = sum(
            len(Document(id="x", text=json.loads(line)["text"]).text.encode("utf-8"))
            for name in ("el_web", "el_wiki", "el_pdf", "en_wiki")
            for line in open(corpus_dir / f"{name}.jsonl", encoding="utf-8")
        )
        assert doc_bytes >= 40_000_000  # ~50MB of document text

        def run(out_dir: Path, threads: int) -> tuple[float, float]:
            """Wall seconds and the run's own peak RSS in GB."""
            peak_file = out_dir.with_name(out_dir.name + ".peak")
            start = time.perf_counter()
            proc = subprocess.run(
                cli_with_peak(
                    peak_file, "run", "--config", str(config_path),
                    "--out", str(out_dir), "--threads", str(threads),
                ),
                capture_output=True,
                text=True,
            )
            elapsed = time.perf_counter() - start
            assert proc.returncode == 0, proc.stderr[-2000:]
            return elapsed, int(peak_file.read_text(encoding="ascii")) / 1e6

        (t1, peak1), (t2, peak2) = run(tmp_path / "run_t1", 1), run(tmp_path / "run_t2", 2)
        assert t1 < 600.0 and t2 < 600.0, (t1, t2)
        assert peak1 < 2.0 and peak2 < 2.0, f"peak memory {peak1:.2f}, {peak2:.2f} GB"

        files1 = sorted(p.relative_to(tmp_path / "run_t1")
                        for p in (tmp_path / "run_t1").rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(tmp_path / "run_t2")
                        for p in (tmp_path / "run_t2").rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            b1 = (tmp_path / "run_t1" / rel).read_bytes()
            b2 = (tmp_path / "run_t2" / rel).read_bytes()
            assert b1 == b2, f"outputs differ at {rel}"
        print(f"  runs: {t1:.0f}s, peak {peak1:.2f} GB (1 thread); {t2:.0f}s, peak "
              f"{peak2:.2f} GB (2 threads); {len(files1)} files byte-identical")
