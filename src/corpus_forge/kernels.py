"""Hot numeric kernels: seeded 64-bit shingle hashing and MinHash minima."""

from __future__ import annotations

import numpy as np

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
U64_MAX = 0xFFFFFFFFFFFFFFFF


def fnv1a_hashes(data, offsets, seed):
    """FNV-1a over data[offsets[i]:offsets[i+1]], state seeded by XOR."""
    n = offsets.shape[0] - 1
    lengths = offsets[1:] - offsets[:-1]
    h = np.full(n, FNV_OFFSET ^ int(seed) & U64_MAX, dtype=np.uint64)
    if n == 0:
        return h
    starts = offsets[:-1]
    prime = np.uint64(FNV_PRIME)
    # Column-wise sweep over the padded byte positions; uint64 wraps mod 2**64.
    for col in range(int(lengths.max())):
        active = lengths > col
        idx = starts[active] + col
        h[active] = (h[active] ^ data[idx].astype(np.uint64)) * prime
    return h


def minhash_values(hashes, mul, add):
    """out[j] = min_i (mul[j] * hashes[i] + add[j]) mod 2**64."""
    out = np.full(mul.shape[0], U64_MAX, dtype=np.uint64)
    chunk = 4096
    for s in range(0, hashes.shape[0], chunk):
        block = hashes[s : s + chunk]
        vals = block[:, None] * mul[None, :] + add[None, :]
        np.minimum(out, vals.min(axis=0), out=out)
    return out


def pack_byte_strings(items) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate byte strings into (data, offsets) arrays for the kernels."""
    if not items:
        return np.empty(0, np.uint8), np.zeros(1, np.int64)
    blob = b"".join(items)
    offsets = np.zeros(len(items) + 1, np.int64)
    np.cumsum([len(it) for it in items], out=offsets[1:])
    data = np.frombuffer(blob, dtype=np.uint8)
    return data, offsets


def hash_byte_strings(items, seed: int) -> np.ndarray:
    """Seeded 64-bit hash of each byte string."""
    data, offsets = pack_byte_strings(items)
    return fnv1a_hashes(data, offsets, np.uint64(seed))
