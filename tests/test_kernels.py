"""The vectorized kernels must agree bit-for-bit with scalar pure-Python oracles."""

import numpy as np

from corpus_forge import kernels

MASK = 2**64 - 1


def _fnv1a_oracle(item: bytes, seed: int) -> int:
    h = kernels.FNV_OFFSET ^ seed
    for byte in item:
        h = ((h ^ byte) * kernels.FNV_PRIME) & MASK
    return h


def _minhash_oracle(hashes, mul, add) -> list[int]:
    return [
        min([(int(m) * int(h) + int(a)) & MASK for h in hashes], default=MASK)
        for m, a in zip(mul, add)
    ]


def _random_items(rng, n):
    return [
        bytes(rng.integers(0, 256, size=int(rng.integers(0, 80))).astype(np.uint8))
        for _ in range(n)
    ]


def test_hashes_match_scalar_oracle():
    rng = np.random.Generator(np.random.PCG64(0))
    items = _random_items(rng, 500)
    data, offsets = kernels.pack_byte_strings(items)
    for seed in (0, 1, 2**63):
        got = kernels.fnv1a_hashes(data, offsets, np.uint64(seed))
        assert [int(h) for h in got] == [_fnv1a_oracle(it, seed) for it in items]
        assert (kernels.hash_byte_strings(items, seed) == got).all()


def test_minhash_matches_scalar_oracle():
    rng = np.random.Generator(np.random.PCG64(1))
    # More hashes than one 4096-row chunk, so the chunked minimum is covered.
    hashes = rng.integers(0, 2**64, size=5000, dtype=np.uint64)
    mul = rng.integers(0, 2**64, size=16, dtype=np.uint64) | np.uint64(1)
    add = rng.integers(0, 2**64, size=16, dtype=np.uint64)
    got = kernels.minhash_values(hashes, mul, add)
    assert [int(v) for v in got] == _minhash_oracle(hashes, mul, add)


def test_empty_inputs():
    data, offsets = kernels.pack_byte_strings([])
    assert kernels.fnv1a_hashes(data, offsets, np.uint64(0)).shape == (0,)
    mul = np.ones(8, dtype=np.uint64)
    add = np.zeros(8, dtype=np.uint64)
    out = kernels.minhash_values(np.empty(0, np.uint64), mul, add)
    assert (out == np.uint64(kernels.U64_MAX)).all()


def test_seed_changes_hashes():
    data, offsets = kernels.pack_byte_strings([b"abc", b"xyz"])
    h0 = kernels.fnv1a_hashes(data, offsets, np.uint64(0))
    h1 = kernels.fnv1a_hashes(data, offsets, np.uint64(1))
    assert (h0 != h1).any()


def test_hash_depends_on_content_not_position():
    a1, o1 = kernels.pack_byte_strings([b"hello", b"world"])
    a2, o2 = kernels.pack_byte_strings([b"world", b"hello"])
    h1 = kernels.fnv1a_hashes(a1, o1, np.uint64(5))
    h2 = kernels.fnv1a_hashes(a2, o2, np.uint64(5))
    assert h1[0] == h2[1] and h1[1] == h2[0]
