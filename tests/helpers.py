"""Shared test fixtures: synthetic sample documents, planted near-duplicate
corpora, brute-force oracles, and a command that reports its own peak memory.

    python tests/helpers.py PEAK_FILE ARGS...

runs `corpus-forge ARGS` in that process, then writes the process's own
peak resident set (VmHWM, kB) to PEAK_FILE."""

import sys
from collections import deque
from pathlib import Path

import numpy as np

from corpus_forge.dedup import exact_jaccard, shingle
from corpus_forge.documents import Document
from corpus_forge.synth import english_text, greek_text


def greek_sample(n_words: int = 100_000, seed: int = 1001) -> str:
    """The Greek measurement sample (deterministic)."""
    return greek_text(n_words, seed=seed)


def english_sample(n_words: int = 100_000, seed: int = 2002) -> str:
    """The English training sample (deterministic, ASCII-only)."""
    return english_text(n_words, seed=seed)


def sample_documents(
    text: str, doc_id_prefix: str, dataset: str, language: str, words_per_doc: int = 500
) -> list[Document]:
    """Split a large sample into document records."""
    words = text.split()
    return [
        Document(
            id=f"{doc_id_prefix}-{i // words_per_doc:05d}",
            text=" ".join(words[i : i + words_per_doc]),
            language=language,
            dataset=dataset,
        )
        for i in range(0, len(words), words_per_doc)
    ]


def build_cluster_corpus(
    n_clusters: int = 20,
    n_docs: int = 100,
    seed: int = 0,
    base_words: int = 204,
):
    """Documents with planted near-duplicate clusters.

    Each cluster uses a private word inventory, so cross-cluster similarity
    is zero. Cluster members are single-word substitutions of a shared base
    at positions spaced five words apart, giving pairwise word-5-gram
    Jaccard of (S-5)/(S+5) >= 0.95 against the base and (S-10)/(S+10) >= 0.9
    between variants, where S = base_words - 4.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    docs: list[Document] = []
    planted: list[list[str]] = []
    sizes = [2 + int(rng.integers(0, 5)) for _ in range(n_clusters)]
    for c, size in enumerate(sizes):
        words = [f"w{c}q{i}" for i in range(base_words)]
        members = [f"c{c}m0"]
        docs.append(Document(id=members[0], text=" ".join(words), dataset="synthetic"))
        positions = list(range(10, base_words - 10, 7))
        rng.shuffle(positions)
        for v in range(size - 1):
            variant = list(words)
            variant[positions[v]] = f"v{c}z{v}"
            member = f"c{c}m{v + 1}"
            members.append(member)
            docs.append(Document(id=member, text=" ".join(variant), dataset="synthetic"))
        planted.append(members)
    n_singletons = n_docs - len(docs)
    for s in range(n_singletons):
        words = [f"s{s}y{i}" for i in range(base_words)]
        docs.append(Document(id=f"solo{s}", text=" ".join(words), dataset="synthetic"))
    order = rng.permutation(len(docs))
    return [docs[i] for i in order], planted


def oracle_clusters(docs, shingle_n: int, threshold: float) -> list[list[str]]:
    """O(n^2) exact-Jaccard clustering: connected components by BFS."""
    sets = [frozenset(shingle(doc.text, shingle_n)) for doc in docs]
    n = len(docs)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if exact_jaccard(sets[i], sets[j]) >= threshold:
                adjacency[i].append(j)
                adjacency[j].append(i)
    seen = [False] * n
    clusters = []
    for start in range(n):
        if seen[start] or not adjacency[start]:
            continue
        component = []
        queue = deque([start])
        seen[start] = True
        while queue:
            node = queue.popleft()
            component.append(node)
            for nxt in adjacency[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    queue.append(nxt)
        clusters.append(sorted(docs[i].id for i in component))
    return sorted(clusters)


def oracle_pairs(docs, shingle_n: int, threshold: float) -> set[tuple[str, str]]:
    """All unordered id pairs with exact Jaccard >= threshold."""
    sets = [frozenset(shingle(doc.text, shingle_n)) for doc in docs]
    pairs = set()
    for i in range(len(docs)):
        for j in range(i + 1, len(docs)):
            if exact_jaccard(sets[i], sets[j]) >= threshold:
                pairs.add(tuple(sorted((docs[i].id, docs[j].id))))
    return pairs


def peak_rss_kb() -> int:
    """This process's own peak resident set (VmHWM), in kB. Unlike
    `ru_maxrss`, it starts afresh at exec, so it never holds the peak of
    the process that spawned this one."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def cli_with_peak(peak_path: Path, *args: str) -> list[str]:
    """The command that runs `corpus-forge ARGS` and writes its own VmHWM
    (kB) to `peak_path` when it ends."""
    return [sys.executable, __file__, str(peak_path), *args]


if __name__ == "__main__":
    from corpus_forge.cli import main

    code = main(sys.argv[2:])
    Path(sys.argv[1]).write_text(f"{peak_rss_kb()}\n", encoding="ascii")
    sys.exit(code)
