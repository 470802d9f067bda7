"""MinHashLSH near-deduplication: shingling, signatures, banding, and the
two-stage (within-dataset, then cross-dataset) duplicate removal."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

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
        if {self.ids[i] for i in self.members} != set(input_ids):
            raise AssertionError("the stage must see exactly the input documents")
        self.check_clusters()

    def check_clusters(self) -> None:
        """Raise AssertionError unless the clusters are disjoint sets of the
        stage's members, so each keeps exactly its first."""
        members = np.asarray(self.members, dtype=np.int64)
        flat = np.fromiter(itertools.chain.from_iterable(self.index_clusters), dtype=np.int64)
        pos = np.minimum(np.searchsorted(members, flat), max(len(members) - 1, 0))
        if len(flat) and (not len(members) or (members[pos] != flat).any()):
            raise AssertionError("kept/removed must partition the input documents")
        if len(np.unique(flat)) != len(flat):
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
    """Union by rank with path compression over the indices that get joined;
    an index never joined is its own root and holds no entry."""

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}
        self.rank: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while (up := parent.get(root, root)) != root:
            root = up
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        px, py = self.find(x), self.find(y)
        if px == py:
            return
        rank = self.rank
        if rank.get(px, 0) < rank.get(py, 0):
            px, py = py, px
        self.parent[py] = px
        self.parent.setdefault(px, px)
        if rank.get(px, 0) == rank.get(py, 0):
            rank[px] = rank.get(px, 0) + 1

    def groups(self) -> list[list[int]]:
        """Every set of joined indices, ascending, ordered by first index."""
        groups: dict[int, list[int]] = {}
        for i in sorted(self.parent):
            groups.setdefault(self.find(i), []).append(i)
        return list(groups.values())


def band_digests(matrix: np.ndarray, bands: int, rows: int) -> np.ndarray:
    """(n, bands, 2) uint64: the 128-bit BLAKE2b digest of each signature
    row's values in each band. Rows that agree on a band share its digest;
    rows that differ share it only by a collision."""
    width = rows * 8
    blob = memoryview(np.ascontiguousarray(matrix[:, : bands * rows]).tobytes())
    digests = b"".join(
        hashlib.blake2b(blob[o : o + width], digest_size=16).digest()
        for o in range(0, len(blob), width)
    )
    return np.frombuffer(digests, dtype=np.uint64).reshape(matrix.shape[0], bands, 2)


def _sorted_band(
    digests: np.ndarray, members: np.ndarray, band: int
) -> tuple[np.ndarray, np.ndarray]:
    """`members` sorted by their digest of `band`, ties by index, so each
    LSH bucket is a run of ascending indices; and for each position after
    the first, whether it shares the bucket of the one before."""
    keys = digests[members, band]
    order = np.lexsort((members, keys[:, 1], keys[:, 0]))
    keys = keys[order]
    return members[order], (keys[1:] == keys[:-1]).all(axis=1)


def candidate_pairs(digests: np.ndarray, members: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs linking the members of each LSH band bucket, per band.

    `members` are ascending ingestion indices into `digests` (see
    `band_digests`). Each bucket member is paired with the one before it:
    at most bands*(n-1) pairs, with the connected components of all pairs
    sharing a bucket.
    """
    pairs: list[tuple[int, int]] = []
    for band in range(digests.shape[1]):
        ranked, same = _sorted_band(digests, members, band)
        pairs.extend(zip(ranked[:-1][same].tolist(), ranked[1:][same].tolist()))
    return pairs


def _buckets(digests: np.ndarray, members: np.ndarray) -> Iterator[list[int]]:
    """Each LSH bucket of two or more `members`, per band, ascending."""
    for band in range(digests.shape[1]):
        ranked, same = _sorted_band(digests, members, band)
        edges = np.diff(np.concatenate(([0], same.view(np.int8), [0])))
        starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) + 1
        for start, stop in zip(starts.tolist(), stops.tolist()):
            yield ranked[start:stop].tolist()


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
    members: np.ndarray,
    digests: np.ndarray,
    empty: np.ndarray,
    cfg: DedupConfig,
    shingles: Mapping[int, frozenset[str]] | None = None,
) -> list[list[int]]:
    """Duplicate clusters among `members` (ascending ingestion indices into
    digests and empty): connected components of the pairs sharing an LSH
    bucket, each pair checked by the exact Jaccard of its `shingles` if
    verify_candidates. Clusters are ascending and ordered by their first
    member."""
    active = members[~empty[members]]
    uf = _UnionFind()
    if cfg.verify_candidates:
        # A pair that fails the check does not decide any other, so every
        # pair of a bucket is walked, one at a time, unless an earlier
        # band already joined the whole bucket.
        for bucket in _buckets(digests, active):
            if len({uf.find(i) for i in bucket}) == 1:
                continue
            for a, b in itertools.combinations(bucket, 2):
                if (uf.find(a) != uf.find(b)
                        and exact_jaccard(shingles[a], shingles[b]) >= cfg.jaccard_threshold):
                    uf.union(a, b)
    else:
        for a, b in candidate_pairs(digests, active):
            uf.union(a, b)
    return uf.groups()


def _report(
    stage: str, ids: Sequence[str], members: Sequence[int], clusters: list[list[int]]
) -> DedupReport:
    """Report of a stage that saw `members` (ingestion indices into ids)."""
    report = DedupReport(stage=stage, ids=ids, members=members, index_clusters=clusters)
    report.check_clusters()
    return report


@dataclass
class DedupResult:
    reports: dict[str, DedupReport]
    ids: list[str]  # all input ids, ingestion order
    bounds: list[int]  # each dataset's first ingestion index, then the total

    def removed_indices(self, stages: Sequence[str] = ("intra", "cross")) -> set[int]:
        """Ingestion indices of the documents that `stages` removed."""
        return set().union(*(self.reports[st].removed_indices() for st in stages))


_CHUNK = 256  # documents per signature matrix


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

    Documents are streamed: per document only its id, its empty flag and
    one 128-bit digest per LSH band are held. Each dataset must be
    re-iterable (a list or a DocumentFile): with verify_candidates it is
    read a second time for the texts of the documents that share a bucket,
    and the survivors are not returned but read again by `kept_documents`.
    """
    if any(iter(docs) is docs for _, docs in datasets):
        raise TypeError("dedup_corpus needs re-iterable datasets, not iterators")
    bands, rows = cfg.banding()
    ids: list[str] = []
    flags = bytearray()
    digest_bytes = bytearray()
    bounds = [0]
    for _, docs in datasets:
        stream = iter(docs)
        while chunk := list(itertools.islice(stream, _CHUNK)):
            matrix, empty = _signature_matrix([d.text for d in chunk], cfg)
            ids.extend(d.id for d in chunk)
            flags.extend(empty)
            digest_bytes += band_digests(matrix, bands, rows).data
        bounds.append(len(ids))
    n = len(ids)
    digests = np.frombuffer(digest_bytes, dtype=np.uint64).reshape(n, bands, 2)
    empty = np.frombuffer(flags, dtype=bool)

    shingles = None
    if cfg.verify_candidates:
        shared = np.zeros(n, dtype=bool)
        for bucket in _buckets(digests, np.flatnonzero(~empty)):
            shared[bucket] = True
        docs = itertools.chain.from_iterable(docs for _, docs in datasets)
        shingles = {i: frozenset(shingle(doc.text, cfg.shingle_n))
                    for i, doc in enumerate(docs) if shared[i]}

    skip = set(skip_intra)
    intra_clusters = [
        cluster
        for (name, _), start, stop in zip(datasets, bounds, bounds[1:])
        if name not in skip
        for cluster in _cluster(np.arange(start, stop), digests, empty, cfg, shingles)
    ]
    intra = _report("intra", ids, range(n), intra_clusters)
    kept = np.ones(n, dtype=bool)
    kept[np.fromiter(intra.removed_indices(), dtype=np.int64)] = False
    survivors = np.flatnonzero(kept)
    cross = _report("cross", ids, survivors, _cluster(survivors, digests, empty, cfg, shingles))
    return DedupResult(reports={"intra": intra, "cross": cross}, ids=ids, bounds=bounds)


def kept_documents(
    datasets: Sequence[tuple[str, Iterable[Document]]], removed: Collection[int]
) -> Iterator[Document]:
    """The second pass: the documents of `datasets`, read again in ingestion
    order, whose ingestion index is not in `removed`."""
    docs = itertools.chain.from_iterable(docs for _, docs in datasets)
    return (doc for i, doc in enumerate(docs) if i not in removed)


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

