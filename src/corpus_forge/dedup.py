"""MinHashLSH near-deduplication: shingling, signatures, banding, and the
two-stage (within-dataset, then cross-dataset) duplicate removal."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

from .config import NOT_A_KEY
from .documents import Document, write_jsonl
from .kernels import U64_MAX, hash_byte_strings, minhash_values


@dataclass(frozen=True)
class DedupConfig:
    """The `dedup` config section; `seed` is the run's seed, not a key."""

    shingle_n: int = 5
    num_perm: int = 128
    jaccard_threshold: float = 0.8
    bands: int | None = None  # None -> chosen by optimal_bands
    rows: int | None = None
    seed: int = field(default=0, metadata=NOT_A_KEY)
    verify_candidates: bool = False

    def __post_init__(self) -> None:
        if self.shingle_n < 1 or self.num_perm < 1:
            raise ValueError("shingle_n and num_perm must be positive")
        if not 0.0 < self.jaccard_threshold < 1.0:
            raise ValueError("jaccard_threshold must lie strictly in (0, 1)")
        if (self.bands is None) != (self.rows is None):
            raise ValueError("bands and rows must be given together")
        if self.bands is not None and self.bands * self.rows > self.num_perm:
            raise ValueError(f"bands*rows {self.bands}*{self.rows} exceeds num_perm {self.num_perm}")

    def banding(self) -> tuple[int, int]:
        if self.bands is not None:
            return self.bands, self.rows
        return optimal_bands(self.num_perm, self.jaccard_threshold)


@dataclass(frozen=True)
class Signature:
    doc_id: str
    values: np.ndarray  # uint64, length num_perm
    seed: int
    empty: bool = False

    @property
    def num_perm(self) -> int:
        return int(self.values.shape[0])


@dataclass
class DedupReport:
    stage: str  # "intra" | "cross"
    ids: Sequence[str]  # every input id of the run, by ingestion index
    members: Sequence[int]  # ascending ingestion indices of the documents the stage saw
    index_clusters: list[list[int]]  # ascending ingestion indices; the first is kept

    @property
    def clusters(self) -> list[list[str]]:
        """Ids per duplicate cluster in ingestion order; the first is kept."""
        return [[self.ids[i] for i in cluster] for cluster in self.index_clusters]

    def removed_indices(self) -> set[int]:
        """Every member of each cluster but its first (lowest) index."""
        return {i for cluster in self.index_clusters for i in cluster[1:]}

    @property
    def kept(self) -> set[str]:
        removed = self.removed_indices()
        return {self.ids[i] for i in self.members if i not in removed}

    @property
    def removed(self) -> set[str]:
        return {self.ids[i] for i in self.removed_indices()}

    def summary(self) -> dict[str, int]:
        removed = len(self.removed_indices())
        return {
            "input": len(self.members),
            "kept": len(self.members) - removed,
            "removed": removed,
            "clusters": len(self.index_clusters),
        }

    def validate(self, input_ids: Collection[str]) -> None:
        """Raise AssertionError unless the stage saw `input_ids` and its kept and
        removed documents, by ingestion index, partition them, one kept per cluster."""
        members = set(self.members)
        removed = self.removed_indices()
        if {self.ids[i] for i in members} != set(input_ids) or not removed <= members:
            raise AssertionError("kept/removed must partition the input documents")
        for cluster in self.index_clusters:
            if sum(i in members and i not in removed for i in cluster) != 1:
                raise AssertionError("each cluster must keep exactly one member")


def shingle(text: str, n: int) -> set[str]:
    """Word n-grams over lowercased, whitespace-normalized text.

    Texts shorter than n words collapse to a single whole-text shingle.
    """
    if n < 1:
        raise ValueError("n must be positive")
    words = text.lower().split()
    if not words:
        return set()
    if len(words) < n:
        return {" ".join(words)}
    return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}


@lru_cache(maxsize=32)
def _hash_family(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded multiply-shift parameters: odd multipliers and offsets."""
    rng = np.random.Generator(np.random.PCG64(seed))
    mul = rng.integers(0, 2**64, size=num_perm, dtype=np.uint64) | np.uint64(1)
    add = rng.integers(0, 2**64, size=num_perm, dtype=np.uint64)
    return mul, add


def signature_values(shingles: Collection[str], cfg: DedupConfig) -> np.ndarray:
    """MinHash minima over the seeded hash family; sentinel row when empty."""
    mul, add = _hash_family(cfg.num_perm, cfg.seed)
    if not shingles:
        return np.full(cfg.num_perm, U64_MAX, dtype=np.uint64)
    base = hash_byte_strings([s.encode("utf-8") for s in shingles], cfg.seed)
    return minhash_values(base, mul, add)


def minhash_signature(shingles: Collection[str], cfg: DedupConfig, doc_id: str = "") -> Signature:
    return Signature(
        doc_id=doc_id,
        values=signature_values(shingles, cfg),
        seed=cfg.seed,
        empty=not shingles,
    )


def estimate_jaccard(a: Signature, b: Signature) -> float:
    """Fraction of agreeing signature positions."""
    if a.num_perm != b.num_perm or a.seed != b.seed:
        raise ValueError("signatures built with different configurations")
    return float(np.count_nonzero(a.values == b.values)) / a.num_perm


def exact_jaccard(a: Collection[str], b: Collection[str]) -> float:
    a, b = set(a), set(b)
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union


def collision_probability(s: np.ndarray | float, bands: int, rows: int):
    """Probability that two documents at similarity s share an LSH bucket."""
    return 1.0 - (1.0 - np.asarray(s, dtype=float) ** rows) ** bands


@lru_cache(maxsize=64)
def optimal_bands(num_perm: int, threshold: float, step: float = 1e-4) -> tuple[int, int]:
    """(bands, rows) minimizing false-positive area below the threshold plus
    false-negative area above it; ties prefer more bands, then fewer rows."""
    if num_perm < 1:
        raise ValueError("num_perm must be positive")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly in (0, 1)")
    # Midpoint rule on a fixed grid.
    grid = np.arange(step / 2.0, 1.0, step)
    below = grid < threshold
    best: tuple[float, int, int] | None = None
    for rows in range(1, num_perm + 1):
        for bands in range(1, num_perm // rows + 1):
            p = collision_probability(grid, bands, rows)
            fp = float(p[below].sum()) * step
            fn = float((1.0 - p[~below]).sum()) * step
            key = (fp + fn, -bands, rows)
            if best is None or key < best:
                best = key
                choice = (bands, rows)
    return choice


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        px, py = self.find(x), self.find(y)
        if px == py:
            return
        if self.rank[px] < self.rank[py]:
            px, py = py, px
        self.parent[py] = px
        if self.rank[px] == self.rank[py]:
            self.rank[px] += 1


def candidate_pairs(
    matrix: np.ndarray, bands: int, rows: int, active: Sequence[int] | None = None,
    all_pairs: bool = False,
) -> list[tuple[int, int]]:
    """Index pairs linking the members of each LSH band bucket, per band.

    Each bucket member is paired with the one before it: at most bands*(n-1)
    pairs, with the connected components of all pairs sharing a bucket.
    `all_pairs` returns every pair of each bucket instead, for callers that
    drop pairs. `active` restricts banding to a subset of rows of the
    signature matrix (used to exclude empty-shingle sentinel signatures).
    """
    indices = range(matrix.shape[0]) if active is None else active
    pairs: list[tuple[int, int]] = []
    for band in range(bands):
        lo, hi = band * rows, (band + 1) * rows
        buckets: dict[bytes, list[int]] = {}
        for i in indices:
            buckets.setdefault(matrix[i, lo:hi].tobytes(), []).append(i)
        for members in buckets.values():
            if all_pairs:
                pairs.extend(itertools.combinations(members, 2))
            else:
                pairs.extend(zip(members, members[1:]))
    return pairs


def _signature_matrix(texts: Sequence[str], cfg: DedupConfig) -> tuple[np.ndarray, list[bool]]:
    """Signatures for all texts as one (n, num_perm) array plus empty flags."""
    matrix = np.empty((len(texts), cfg.num_perm), dtype=np.uint64)
    empty = []
    for i, text in enumerate(texts):
        sh = shingle(text, cfg.shingle_n)
        empty.append(not sh)
        matrix[i, :] = signature_values(sh, cfg)
    return matrix, empty


def _cluster(
    members: Sequence[int],
    texts: Sequence[str],
    matrix: np.ndarray,
    empty: Sequence[bool],
    cfg: DedupConfig,
) -> list[list[int]]:
    """Duplicate clusters among `members` (ascending indices into texts,
    matrix and empty): connected components of the LSH candidate pairs, each
    pair verified by exact Jaccard if verify_candidates. Clusters are
    ascending and ordered by their first member."""
    bands, rows = cfg.banding()
    active = [i for i in members if not empty[i]]
    pairs = candidate_pairs(matrix, bands, rows, active, all_pairs=cfg.verify_candidates)
    uf = _UnionFind(len(matrix))

    @lru_cache(maxsize=None)
    def shingles_of(i: int) -> frozenset[str]:
        return frozenset(shingle(texts[i], cfg.shingle_n))

    for a, b in pairs:
        if uf.find(a) == uf.find(b):
            continue
        if (cfg.verify_candidates
                and exact_jaccard(shingles_of(a), shingles_of(b)) < cfg.jaccard_threshold):
            continue
        uf.union(a, b)
    groups: dict[int, list[int]] = {}
    for i in members:
        groups.setdefault(uf.find(i), []).append(i)
    return [group for group in groups.values() if len(group) > 1]


def _report(
    stage: str, ids: Sequence[str], members: Sequence[int], clusters: list[list[int]]
) -> DedupReport:
    """Report of a stage that saw `members` (ingestion indices into ids)."""
    report = DedupReport(stage=stage, ids=ids, members=members, index_clusters=clusters)
    report.validate([ids[i] for i in members])
    return report


@dataclass
class DedupResult:
    reports: dict[str, DedupReport]
    survivors: list[Document]  # ingestion order
    intra_survivors: list[Document]  # survivors of stage "intra" alone, ingestion order
    ids: list[str]  # all input ids, ingestion order


def dedup_corpus(
    datasets: Sequence[tuple[str, Iterable[Document]]],
    cfg: DedupConfig,
    skip_intra: Collection[str] = (),
) -> DedupResult:
    """Two-stage near-deduplication.

    Stage "intra" removes duplicates within each dataset not listed in
    skip_intra; stage "cross" concatenates the survivors and removes
    duplicates across datasets. Within a cluster the member with the lowest
    ingestion index is kept. Survivors are decided by ingestion index, so
    documents that share an id are kept or removed independently.
    """
    skip = set(skip_intra)
    docs: list[Document] = []
    ids: list[str] = []
    dataset_slices: list[tuple[str, int, int]] = []
    for name, stream in datasets:
        start = len(docs)
        for doc in stream:
            docs.append(doc)
            ids.append(doc.id)
        dataset_slices.append((name, start, len(docs)))

    texts = [d.text for d in docs]
    matrix, empty = _signature_matrix(texts, cfg)

    intra_clusters = [
        cluster
        for name, start, stop in dataset_slices
        if name not in skip
        for cluster in _cluster(range(start, stop), texts, matrix, empty, cfg)
    ]
    intra = _report("intra", ids, range(len(ids)), intra_clusters)
    intra_removed = intra.removed_indices()
    survivors = [i for i in range(len(docs)) if i not in intra_removed]
    cross = _report("cross", ids, survivors, _cluster(survivors, texts, matrix, empty, cfg))
    cross_removed = cross.removed_indices()
    return DedupResult(
        reports={"intra": intra, "cross": cross},
        survivors=[docs[i] for i in survivors if i not in cross_removed],
        intra_survivors=[docs[i] for i in survivors],
        ids=ids,
    )


def write_dedup_outputs(
    path: Callable[[str], Path],
    result: DedupResult,
    stages: Sequence[str] = ("intra", "cross"),
) -> None:
    """One cluster report per stage, each written to `path(file_name)`."""
    for st in stages:
        write_cluster_report(path(f"clusters_{st}.jsonl"), result.reports[st])


def write_cluster_report(path: str | Path, report: DedupReport) -> int:
    """One JSONL line per duplicate cluster: {stage, cluster, kept}, where
    kept is the cluster's first (lowest-index) member."""
    return write_jsonl(
        path, ({"stage": report.stage, "cluster": c, "kept": c[0]} for c in report.clusters)
    )

