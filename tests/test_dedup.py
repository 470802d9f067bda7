import tracemalloc
from collections import deque

import numpy as np
import pytest
from helpers import build_cluster_corpus, oracle_clusters
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_forge.dedup import (
    DedupConfig,
    _buckets,
    _cluster,
    _signature_matrix,
    band_digests,
    candidate_pairs,
    collision_probability,
    dedup_corpus,
    estimate_jaccard,
    exact_jaccard,
    kept_documents,
    minhash_signature,
    optimal_bands,
    shingle,
    signature_values,
    write_cluster_report,
)
from corpus_forge.documents import Document


def test_shingle_window():
    assert shingle("a b c d e f", 5) == {"a b c d e", "b c d e f"}


def test_shingle_short_text_fallback():
    assert shingle("a b c", 5) == {"a b c"}
    assert shingle("", 5) == set()


def test_shingle_normalization():
    assert shingle("Η  Καλή\tΜέρα εδώ τώρα πάλι", 5) == shingle(
        "η καλή μέρα εδώ  τώρα  πάλι", 5
    )


def _sets_with_jaccard(n_shared: int, n_only: int, tag: str):
    shared = {f"sh{tag}{i}" for i in range(n_shared)}
    a = shared | {f"a{tag}{i}" for i in range(n_only)}
    b = shared | {f"b{tag}{i}" for i in range(n_only)}
    return a, b


def test_identical_sets_identical_signatures():
    cfg = DedupConfig(seed=5)
    s = {"one two", "three four", "five six"}
    sig_a = minhash_signature(s, cfg, "a")
    sig_b = minhash_signature(set(sorted(s)), cfg, "b")
    assert (sig_a.values == sig_b.values).all()
    assert estimate_jaccard(sig_a, sig_b) == 1.0


def test_disjoint_sets_estimate_near_zero():
    cfg = DedupConfig(seed=1)
    a = {f"x{i}" for i in range(500)}
    b = {f"y{i}" for i in range(500)}
    est = estimate_jaccard(minhash_signature(a, cfg), minhash_signature(b, cfg))
    assert est <= 0.1


def test_estimate_against_exact_oracle_sigma_bounds():
    cfg = DedupConfig(seed=2)
    rng = np.random.Generator(np.random.PCG64(3))
    beyond_three_sigma = 0
    for trial in range(30):
        n_shared = int(rng.integers(20, 150))
        n_only = int(rng.integers(5, 120))
        a, b = _sets_with_jaccard(n_shared, n_only, f"t{trial}")
        truth = exact_jaccard(a, b)
        est = estimate_jaccard(minhash_signature(a, cfg), minhash_signature(b, cfg))
        sigma = (truth * (1 - truth) / cfg.num_perm) ** 0.5
        assert abs(est - truth) <= 4.5 * sigma + 1e-9
        beyond_three_sigma += abs(est - truth) > 3 * sigma
    assert beyond_three_sigma <= 2


def test_estimate_half_jaccard_spread():
    # |shared|=100, |only|=50 each: J = 100/200 = 0.5 exactly.
    misses = 0
    for trial in range(200):
        cfg = DedupConfig(seed=1000 + trial)
        a, b = _sets_with_jaccard(100, 50, f"h{trial}")
        assert exact_jaccard(a, b) == 0.5
        est = estimate_jaccard(minhash_signature(a, cfg), minhash_signature(b, cfg))
        misses += abs(est - 0.5) > 0.15
    assert misses <= 2


def test_estimate_counts_agreeing_positions():
    cfg = DedupConfig(seed=1)
    a = minhash_signature({"x y z one two"}, cfg, "a")
    values = a.values.copy()
    values[64:] += np.uint64(1)  # disagree in exactly half the slots
    from corpus_forge.dedup import Signature

    b = Signature(doc_id="b", values=values, seed=cfg.seed)
    assert estimate_jaccard(a, b) == 0.5


def test_mismatched_signatures_rejected():
    a = minhash_signature({"x"}, DedupConfig(seed=1))
    b = minhash_signature({"x"}, DedupConfig(seed=2))
    with pytest.raises(ValueError):
        estimate_jaccard(a, b)
    c = minhash_signature({"x"}, DedupConfig(num_perm=64, seed=1))
    with pytest.raises(ValueError):
        estimate_jaccard(a, c)


def test_empty_shingles_sentinel():
    cfg = DedupConfig()
    sig = minhash_signature(set(), cfg)
    assert sig.empty
    assert (sig.values == np.uint64(0xFFFFFFFFFFFFFFFF)).all()


def test_signature_deterministic_across_runs():
    cfg = DedupConfig(seed=11)
    sh = shingle("το γρήγορο καφέ πόδι πηδά πάνω από το τεμπέλικο σκυλί", 5)
    v1 = signature_values(sh, cfg)
    v2 = signature_values(sh, cfg)
    assert (v1 == v2).all()


# optimal_bands ---------------------------------------------------------------


def _error_area_oracle(num_perm, threshold):
    """Trapezoid-rule oracle over all valid (b, r); independent quadrature."""
    grid = np.linspace(0.0, 1.0, 10_001)
    best_key, best = None, None
    for rows in range(1, num_perm + 1):
        for bands in range(1, num_perm // rows + 1):
            p = 1.0 - (1.0 - grid**rows) ** bands
            below = grid <= threshold
            fp = np.trapezoid(p[below], grid[below])
            fn = np.trapezoid(1.0 - p[~below], grid[~below])
            key = (fp + fn, -bands, rows)
            if best_key is None or key < best_key:
                best_key, best = key, (bands, rows)
    return best


def test_optimal_bands_minimal_case():
    assert optimal_bands(1, 0.8) == (1, 1)


@pytest.mark.parametrize("num_perm,threshold", [(16, 0.5), (32, 0.8), (64, 0.7)])
def test_optimal_bands_matches_quadrature_oracle(num_perm, threshold):
    assert optimal_bands(num_perm, threshold) == _error_area_oracle(num_perm, threshold)


def test_optimal_bands_reference_configuration():
    # Pinned via the quadrature oracle for the default configuration.
    assert optimal_bands(128, 0.8) == (9, 13)


def test_s_curve_midpoint_identity():
    b, r = optimal_bands(128, 0.8)
    midpoint = (1.0 / b) ** (1.0 / r)
    assert collision_probability(midpoint, b, r) == pytest.approx(1 - (1 - 1 / b) ** b)


# dedup_corpus ----------------------------------------------------------------


def _docs(texts, prefix="d", dataset="x"):
    return [
        Document(id=f"{prefix}{i}", text=t, dataset=dataset) for i, t in enumerate(texts)
    ]


def _survivors(datasets, result, stages=("intra", "cross")):
    return list(kept_documents(datasets, result.removed_indices(stages)))


def test_exact_duplicates_removed_within_dataset():
    text = "ένα δύο τρία τέσσερα πέντε έξι επτά οκτώ εννιά δέκα"
    docs = _docs([text, text, "άλλο κείμενο εντελώς διαφορετικό από όλα τα υπόλοιπα εδώ"])
    result = dedup_corpus([("x", docs)], DedupConfig(seed=1))
    intra = result.reports["intra"]
    assert intra.removed == {"d1"}
    assert intra.clusters == [["d0", "d1"]]
    assert [d.id for d in _survivors([("x", docs)], result)] == ["d0", "d2"]


def test_cross_dataset_duplicates_survive_stage_one():
    text = "ena dyo tria tessera pente exi epta okto ennia deka"
    a = [Document(id="a0", text=text, dataset="a")]
    b = [Document(id="b0", text=text, dataset="b"),
         Document(id="b1", text="completely different words appear here in this one",
                  dataset="b")]
    result = dedup_corpus([("a", a), ("b", b)], DedupConfig(seed=2))
    assert result.reports["intra"].removed == set()
    assert result.reports["cross"].removed == {"b0"}  # keep-first by ingestion order
    assert {d.id for d in _survivors([("a", a), ("b", b)], result)} == {"a0", "b1"}


def test_repeated_id_in_another_dataset_is_not_lost():
    # A = {x, y} where y copies x; B = {y} with unique text. Only A's y goes.
    text = "ena dyo tria tessera pente exi epta okto ennia deka"
    a = [Document(id="x", text=text, dataset="a"), Document(id="y", text=text, dataset="a")]
    b = [Document(id="y", text="completely different words appear here in this one",
                  dataset="b")]
    result = dedup_corpus([("a", a), ("b", b)], DedupConfig(seed=2))
    assert result.reports["intra"].clusters == [["x", "y"]]
    datasets = [("a", a), ("b", b)]
    intra_survivors = _survivors(datasets, result, ("intra",))
    assert [(d.dataset, d.id) for d in intra_survivors] == [("a", "x"), ("b", "y")]
    assert [(d.dataset, d.id) for d in _survivors(datasets, result)] == [("a", "x"), ("b", "y")]


def test_skip_intra_datasets():
    text = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    docs = _docs([text, text], dataset="pre")
    result = dedup_corpus([("pre", docs)], DedupConfig(seed=3), skip_intra={"pre"})
    assert result.reports["intra"].removed == set()
    # stage 2 still collapses them
    assert result.reports["cross"].removed == {"d1"}


def test_report_partition_invariants():
    docs, _ = build_cluster_corpus(n_clusters=5, n_docs=30, seed=4)
    result = dedup_corpus([("synthetic", docs)], DedupConfig(seed=4))
    ids = [d.id for d in docs]
    for report in result.reports.values():
        if report.stage == "intra":
            report.validate(ids)
        else:
            report.validate(sorted(result.reports["intra"].kept))


def test_verified_clusters_match_exact_oracle():
    cfg = DedupConfig(seed=77, verify_candidates=True)
    docs, _ = build_cluster_corpus(n_clusters=8, n_docs=40, seed=5)
    result = dedup_corpus([("synthetic", docs)], cfg)
    got = sorted(sorted(c) for c in result.reports["intra"].clusters)
    expected = oracle_clusters(docs, cfg.shingle_n, cfg.jaccard_threshold)
    assert got == expected


def test_empty_documents_never_cluster_together():
    docs = [Document(id=f"e{i}", text="", dataset="x") for i in range(3)]
    docs.append(Document(id="full", text="some actual words in here for shingling now",
                         dataset="x"))
    result = dedup_corpus([("x", docs)], DedupConfig(seed=1))
    assert result.reports["intra"].clusters == []
    assert len(_survivors([("x", docs)], result)) == 4


def test_removing_unrelated_doc_keeps_other_clusters():
    docs, planted = build_cluster_corpus(n_clusters=4, n_docs=20, seed=8)
    cfg = DedupConfig(seed=8, verify_candidates=True)
    full = dedup_corpus([("synthetic", docs)], cfg)
    target = planted[0][0]
    reduced_docs = [d for d in docs if d.id != target]
    reduced = dedup_corpus([("synthetic", reduced_docs)], cfg)
    full_other = {frozenset(c) for c in full.reports["intra"].clusters
                  if not set(c) & set(planted[0])}
    reduced_other = {frozenset(c) for c in reduced.reports["intra"].clusters
                     if not set(c) & set(planted[0])}
    assert full_other == reduced_other


def _bucket_graph_clusters(matrix, bands, rows, members, texts, threshold):
    """Scalar oracle: connected components (by BFS) of the graph joining every
    two nonempty members that agree on all rows of some band, and, when
    threshold is given, have exact word-set Jaccard >= threshold."""
    words = {i: set(texts[i].split()) for i in members}
    adjacency = {i: [] for i in members}
    for x, a in enumerate(members):
        for b in members[x + 1 :]:
            if not words[a] or not words[b]:
                continue
            shared = any(
                all(matrix[a][band * rows + r] == matrix[b][band * rows + r] for r in range(rows))
                for band in range(bands)
            )
            union = len(words[a] | words[b])
            if shared and (threshold is None or len(words[a] & words[b]) / union >= threshold):
                adjacency[a].append(b)
                adjacency[b].append(a)
    seen, clusters = set(), []
    for start in members:
        if start in seen:
            continue
        seen.add(start)
        component, queue = [], deque([start])
        while queue:
            node = queue.popleft()
            component.append(node)
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if len(component) > 1:
            clusters.append(sorted(component))
    return clusters


@pytest.mark.parametrize("verify", [False, True])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_clusters_match_all_pairs_bucket_oracle(verify, data):
    bands, rows = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    n = data.draw(st.integers(0, 14))
    cells = st.lists(st.integers(0, 2), min_size=bands * rows, max_size=bands * rows)
    matrix = data.draw(st.lists(cells, min_size=n, max_size=n))
    texts = data.draw(st.lists(
        st.lists(st.sampled_from("abcd"), max_size=4).map(" ".join), min_size=n, max_size=n))
    members = sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)))) if n else [])
    cfg = DedupConfig(shingle_n=1, num_perm=bands * rows, jaccard_threshold=0.5,
                      bands=bands, rows=rows, verify_candidates=verify)
    array = np.array(matrix, dtype=np.uint64).reshape(n, bands * rows)
    empty = np.array([not text.split() for text in texts], dtype=bool)
    shingles = {i: frozenset(shingle(text, 1)) for i, text in enumerate(texts)}
    digests = band_digests(array, bands, rows)
    got = _cluster(np.array(members, dtype=np.int64), digests, empty, cfg, shingles)
    threshold = cfg.jaccard_threshold if verify else None
    assert got == _bucket_graph_clusters(matrix, bands, rows, members, texts, threshold)


def _exact_byte_banding(matrix, bands, rows, active):
    """Oracle: banding as it was before band digests, each bucket keyed by
    its band's exact bytes. (buckets of two or more per band, chained pairs)."""
    buckets, pairs = [], []
    for band in range(bands):
        keyed: dict[bytes, list[int]] = {}
        for i in active:
            keyed.setdefault(matrix[i, band * rows:(band + 1) * rows].tobytes(), []).append(i)
        buckets.append(sorted(m for m in keyed.values() if len(m) > 1))
        for members in keyed.values():
            pairs.extend(zip(members, members[1:]))
    return buckets, pairs


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_digest_buckets_match_exact_byte_buckets(data):
    bands, rows = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    width = bands * rows
    value = st.integers(0, 2**64 - 1) | st.sampled_from([0, 1, 2**63, 2**64 - 1])
    matrix: list[list[int]] = []
    empty: list[bool] = []
    for _ in range(data.draw(st.integers(0, 16))):
        kind = data.draw(st.sampled_from(["fresh", "copy", "one_off", "empty"]))
        if kind == "empty":
            row = [2**64 - 1] * width  # the sentinel of a text without shingles
        elif kind == "fresh" or not matrix:
            row = data.draw(st.lists(value, min_size=width, max_size=width))
        else:
            row = list(data.draw(st.sampled_from(matrix)))
            if kind == "one_off":
                row[data.draw(st.integers(0, width - 1))] = data.draw(value)
        matrix.append(row)
        empty.append(kind == "empty")
    array = np.array(matrix, dtype=np.uint64).reshape(len(matrix), width)
    digests = band_digests(array, bands, rows)
    for active in (np.arange(len(matrix)), np.flatnonzero(~np.array(empty, dtype=bool))):
        buckets, pairs = _exact_byte_banding(array, bands, rows, active.tolist())
        got = [sorted(_buckets(digests[:, band:band + 1], active)) for band in range(bands)]
        assert got == buckets
        assert sorted(candidate_pairs(digests, active)) == sorted(pairs)


def test_template_family_pairs_grow_linearly():
    # 400 near-copies of one template share whole buckets; chaining bucket
    # members keeps the candidate pairs within bands*(n-1).
    template = " ".join(f"tpl{i}" for i in range(100))
    docs = _docs([f"{template} own{i}" for i in range(400)])
    cfg = DedupConfig(seed=6)
    result = dedup_corpus([("x", docs)], cfg)
    bands, rows = cfg.banding()
    matrix, _ = _signature_matrix([d.text for d in docs], cfg)
    assert len(candidate_pairs(band_digests(matrix, bands, rows), np.arange(400))) <= bands * 399
    assert [d.id for d in _survivors([("x", docs)], result)] == ["d0"]


def test_verify_memory_is_a_bounded_multiple_of_the_unverified_run():
    # 400 near-copies of one template share every bucket of every band, so
    # listing each bucket's pairs would hold bands*400*399/2 tuples. Walking
    # them one at a time holds the shingles of the documents that share a
    # bucket. The bound, 20x, was fixed before measuring.
    template = " ".join(f"tpl{i}" for i in range(100))
    docs = _docs([f"{template} own{i}" for i in range(400)])

    def peak(verify: bool) -> int:
        cfg = DedupConfig(seed=6, verify_candidates=verify)
        dedup_corpus([("x", docs[:3])], cfg)  # fill the hash-family and banding caches
        tracemalloc.start()
        try:
            dedup_corpus([("x", docs)], cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain, verified = peak(False), peak(True)
    assert verified <= 20 * plain, (verified, plain)


def test_cluster_report_jsonl(tmp_path):
    text = "uno dos tres cuatro cinco seis siete ocho nueve diez"
    docs = _docs([text, text])
    result = dedup_corpus([("x", docs)], DedupConfig(seed=2))
    path = tmp_path / "clusters.jsonl"
    n = write_cluster_report(path, result.reports["intra"])
    assert n == 1
    import json

    record = json.loads(path.read_text().strip())
    assert record == {"stage": "intra", "cluster": ["d0", "d1"], "kept": "d0"}
