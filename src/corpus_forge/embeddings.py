"""Embedding-matrix surgery for vocabulary extension: mean-of-subtoken row
initialization, multiple-of-8 padding, and a bit-exact binary matrix format."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import binfile
from .bpe import ExtendedVocab, Vocab, _apply_merges


class MatrixRole(str, Enum):
    INPUT_EMBEDDINGS = "input_embeddings"
    LM_HEAD = "lm_head"


class MatrixFormatError(binfile.FormatError):
    """Corrupt, truncated, or foreign matrix file."""


class InitError(ValueError):
    """A new-token row could not be initialized."""


@dataclass(frozen=True)
class EmbeddingConfig:
    """The `embedding` config section; without `base_matrix_path` it is synthetic."""

    dims: int = 64
    base_matrix_path: Path | None = None
    pad_multiple: int = 8
    tie_lm_head: bool = False

    def __post_init__(self) -> None:
        if self.dims < 1:
            raise ValueError("dims must be positive")
        if self.pad_multiple < 1:
            raise ValueError("pad_multiple must be positive")


@dataclass(frozen=True)
class EmbeddingMatrix:
    data: np.ndarray  # float32, shape (rows, dims)
    role: MatrixRole = MatrixRole.INPUT_EMBEDDINGS
    padding_rows: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        if self.data.dtype != np.float32:
            object.__setattr__(self, "data", self.data.astype(np.float32))
        if not np.isfinite(self.data).all():
            raise ValueError("matrix contains non-finite values")
        if not isinstance(self.role, MatrixRole):
            object.__setattr__(self, "role", MatrixRole(self.role))

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def dims(self) -> int:
        return int(self.data.shape[1])


def base_token_ids(base: Vocab, token: str) -> list[int]:
    """Base-vocabulary encoding of an added token's mapped string."""
    symbols = _apply_merges(list(token), base.ranks)
    return [base.token_to_id[s] for s in symbols]


def init_new_embeddings(
    base: EmbeddingMatrix, base_vocab: Vocab, ext_vocab: ExtendedVocab
) -> EmbeddingMatrix:
    """Rows for added tokens are the mean of the base rows the base tokenizer
    would produce for the token. Base rows are copied bit-exactly; the same
    op serves both the input-embedding and LM-head roles.
    """
    n_base = len(base_vocab.tokens)
    if base.rows < n_base:
        raise ValueError(f"base matrix has {base.rows} rows < base vocab {n_base}")
    if ext_vocab.base.tokens != base_vocab.tokens:
        raise ValueError("extended vocabulary was not built from this base vocabulary")
    out = np.empty((ext_vocab.total_size, base.dims), dtype=np.float32)
    out[:n_base] = base.data[:n_base]
    for offset, token in enumerate(ext_vocab.added_tokens):
        ids = base_token_ids(base_vocab, token)
        if not ids:
            raise InitError(f"added token {token!r} has an empty base encoding")
        # 64-bit accumulation in ascending id order avoids summation drift.
        acc = np.zeros(base.dims, dtype=np.float64)
        for i in sorted(ids):
            acc += base.data[i].astype(np.float64)
        out[n_base + offset] = (acc / len(ids)).astype(np.float32)
    return EmbeddingMatrix(data=out, role=base.role)


def pad_to_multiple(matrix: EmbeddingMatrix, multiple: int) -> EmbeddingMatrix:
    """Round the row count up; padding rows get the column-wise mean of the
    real rows so they stay in-distribution if ever touched by a gradient."""
    if multiple < 1:
        raise ValueError("multiple must be positive")
    target = -(-matrix.rows // multiple) * multiple
    if target == matrix.rows:
        return matrix
    real = np.ones(matrix.rows, dtype=bool)
    for i in matrix.padding_rows:
        real[i] = False
    mean_row = matrix.data[real].astype(np.float64).mean(axis=0).astype(np.float32)
    out = np.empty((target, matrix.dims), dtype=np.float32)
    out[: matrix.rows] = matrix.data
    out[matrix.rows :] = mean_row
    new_padding = tuple(matrix.padding_rows) + tuple(range(matrix.rows, target))
    return EmbeddingMatrix(data=out, role=matrix.role, padding_rows=new_padding)


MAGIC, VERSION = b"EMB1", 2
_ROLE_CODES = {MatrixRole.INPUT_EMBEDDINGS: 0, MatrixRole.LM_HEAD: 1}
_CODE_ROLES = {v: k for k, v in _ROLE_CODES.items()}


def write_matrix(matrix: EmbeddingMatrix, path: str | Path) -> None:
    """`EMB1` body (see binfile): role u8, rows u64, dims u32, row-major
    float32, then the padding-row indices as a u32 count and a u64 each."""
    with binfile.Writer(path, MAGIC, VERSION) as out:
        out.pack("BQI", _ROLE_CODES[matrix.role], matrix.rows, matrix.dims)
        out.write(np.ascontiguousarray(matrix.data, dtype="<f4").tobytes())
        padding = matrix.padding_rows
        out.pack(f"I{len(padding)}Q", len(padding), *padding)


def read_matrix(path: str | Path) -> EmbeddingMatrix:
    with binfile.Reader(path, MAGIC, VERSION, MatrixFormatError) as r:
        role_code, rows, dims = r.unpack("BQI")
        if role_code not in _CODE_ROLES:
            raise r.fail(f"unknown role code {role_code}")
        values = r.array("<f4", rows * dims, "matrix payload")
        padding = r.array("<u8", *r.unpack("I"), "padding index block")
        return EmbeddingMatrix(data=values.reshape(rows, dims), role=_CODE_ROLES[role_code],
                               padding_rows=tuple(padding.tolist()))


def matrix_info(matrix: EmbeddingMatrix) -> dict:
    return {
        "role": matrix.role.value,
        "rows": matrix.rows,
        "dims": matrix.dims,
        "padding_rows": len(matrix.padding_rows),
        "first_padding_row": matrix.padding_rows[0] if matrix.padding_rows else None,
    }


def synthetic_base_matrix(
    rows: int, dims: int, seed: int, role: MatrixRole = MatrixRole.INPUT_EMBEDDINGS
) -> EmbeddingMatrix:
    """Deterministic stand-in base matrix for runs without a real checkpoint."""
    rng = np.random.Generator(np.random.PCG64(seed))
    data = (rng.standard_normal((rows, dims)) * 0.02).astype(np.float32)
    return EmbeddingMatrix(data=data, role=role)
