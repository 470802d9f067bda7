import numpy as np
import pytest

from corpus_forge.bpe import Vocab, extend_vocab, train_bpe
from corpus_forge.documents import Document
from corpus_forge.embeddings import (
    EmbeddingMatrix,
    MatrixFormatError,
    MatrixRole,
    base_token_ids,
    init_new_embeddings,
    matrix_info,
    pad_to_multiple,
    read_matrix,
    synthetic_base_matrix,
    write_matrix,
)


def _toy_setup():
    """Base vocab of two merges over 'ab'; extension adds 'abab'."""
    base = train_bpe([Document(id="b", text="ab ab ab")], 2)
    # merges: (a,b) -> ab, then (Ġ?, ...) depends; assert what we rely on
    assert ("a", "b") in base.merges
    learned = train_bpe([Document(id="l", text="abab abab")], 3)
    ext = extend_vocab(base, learned)
    assert "abab" in ext.added_tokens
    return base, ext


def test_mean_init_hand_computed_toy_matrix():
    base, ext = _toy_setup()
    n_base = len(base.tokens)
    rng = np.random.Generator(np.random.PCG64(0))
    data = rng.standard_normal((n_base, 4)).astype(np.float32)
    matrix = EmbeddingMatrix(data=data, role=MatrixRole.INPUT_EMBEDDINGS)

    out = init_new_embeddings(matrix, base, ext)
    assert out.rows == ext.total_size

    for offset, token in enumerate(ext.added_tokens):
        ids = base_token_ids(base, token)
        expected = np.zeros(4, dtype=np.float64)
        for i in sorted(ids):
            expected += data[i].astype(np.float64)
        expected = (expected / len(ids)).astype(np.float32)
        got = out.data[n_base + offset]
        assert (got == expected).all()
        # element-wise within the min/max envelope of the source rows
        lo = data[ids].min(axis=0)
        hi = data[ids].max(axis=0)
        assert (got >= lo - 1e-6).all() and (got <= hi + 1e-6).all()


def test_mean_of_two_rows_exact():
    # 8x4 toy matrix with hand-readable values; token "abab" -> base ids of
    # "ab","ab" (single distinct row) unless base merged further.
    base, ext = _toy_setup()
    ids = base_token_ids(base, "abab")
    assert [base.tokens[i] for i in ids] == ["ab", "ab"]
    n_base = len(base.tokens)
    data = np.zeros((n_base, 4), dtype=np.float32)
    row = base.token_to_id["ab"]
    data[row] = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
    out = init_new_embeddings(EmbeddingMatrix(data=data), base, ext)
    k = ext.added_tokens.index("abab")
    assert (out.data[n_base + k] == np.array([1, 2, 3, 4], dtype=np.float32)).all()


def test_single_distinct_subtoken_row_copied_exactly():
    # An added token never encodes to one base token (it would then be in the
    # base and skipped), but an encoding repeating a single distinct id must
    # copy that row bit-exactly: mean([x, x]) == x.
    base, ext = _toy_setup()
    token = "abab"
    ids = base_token_ids(base, token)
    assert len(set(ids)) == 1
    n_base = len(base.tokens)
    rng = np.random.Generator(np.random.PCG64(3))
    data = rng.standard_normal((n_base, 8)).astype(np.float32)
    out = init_new_embeddings(EmbeddingMatrix(data=data), base, ext)
    assert (out.data[n_base + ext.added_tokens.index(token)] == data[ids[0]]).all()


def test_base_rows_bit_preserved():
    base, ext = _toy_setup()
    n_base = len(base.tokens)
    rng = np.random.Generator(np.random.PCG64(1))
    data = (rng.standard_normal((n_base, 16)) * 1e-3).astype(np.float32)
    out = init_new_embeddings(EmbeddingMatrix(data=data), base, ext)
    assert out.data[:n_base].tobytes() == data.tobytes()


def test_init_requires_matching_vocabs():
    base, ext = _toy_setup()
    other = Vocab.byte_vocab()
    matrix = synthetic_base_matrix(len(other.tokens), 4, seed=0)
    with pytest.raises(ValueError):
        init_new_embeddings(matrix, other, ext)
    short = synthetic_base_matrix(len(base.tokens) - 1, 4, seed=0)
    with pytest.raises(ValueError):
        init_new_embeddings(short, base, ext)


def test_pad_row_arithmetic():
    matrix = synthetic_base_matrix(61_362, 2, seed=0)
    padded = pad_to_multiple(matrix, 8)
    assert padded.rows == 61_368
    assert len(padded.padding_rows) == 6
    assert padded.rows % 8 == 0


def test_pad_noop_when_aligned():
    matrix = synthetic_base_matrix(64, 4, seed=1)
    padded = pad_to_multiple(matrix, 8)
    assert padded is matrix


def test_padding_rows_equal_global_mean():
    rng = np.random.Generator(np.random.PCG64(2))
    data = rng.standard_normal((10, 3)).astype(np.float32)
    padded = pad_to_multiple(EmbeddingMatrix(data=data), 8)
    assert padded.rows == 16
    expected = data.astype(np.float64).mean(axis=0).astype(np.float32)
    for i in padded.padding_rows:
        assert (padded.data[i] == expected).all()
    # previously padded rows are excluded from later means
    repadded = pad_to_multiple(padded, 5)
    assert repadded.rows == 20
    assert (repadded.data[16:] == expected).all() or True  # mean over real rows only
    real_mean = data.astype(np.float64).mean(axis=0).astype(np.float32)
    for i in range(16, 20):
        assert (repadded.data[i] == real_mean).all()


def test_matrix_roundtrip_small_fuzz(tmp_path):
    rng = np.random.Generator(np.random.PCG64(4))
    for trial in range(50):
        rows = int(rng.integers(1, 33))
        dims = int(rng.integers(1, 17))
        data = rng.standard_normal((rows, dims)).astype(np.float32)
        role = MatrixRole.LM_HEAD if trial % 2 else MatrixRole.INPUT_EMBEDDINGS
        matrix = EmbeddingMatrix(data=data, role=role)
        path = tmp_path / f"m{trial}.emb"
        write_matrix(matrix, path)
        loaded = read_matrix(path)
        assert loaded.role == role
        assert loaded.data.tobytes() == matrix.data.tobytes()
        assert loaded.padding_rows == matrix.padding_rows


def test_zero_matrix_roundtrips(tmp_path):
    matrix = EmbeddingMatrix(data=np.zeros((4, 4), dtype=np.float32))
    path = tmp_path / "zero.emb"
    write_matrix(matrix, path)
    assert (read_matrix(path).data == 0).all()


def test_format_errors(tmp_path):
    bad_magic = tmp_path / "bad.emb"
    bad_magic.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(MatrixFormatError):
        read_matrix(bad_magic)

    good = tmp_path / "good.emb"
    write_matrix(EmbeddingMatrix(data=np.ones((3, 3), dtype=np.float32)), good)
    truncated = tmp_path / "trunc.emb"
    truncated.write_bytes(good.read_bytes()[:-7])
    with pytest.raises(MatrixFormatError):
        read_matrix(truncated)


def test_non_finite_rejected():
    data = np.ones((2, 2), dtype=np.float32)
    data[0, 0] = np.nan
    with pytest.raises(ValueError):
        EmbeddingMatrix(data=data)


def test_matrix_info():
    padded = pad_to_multiple(synthetic_base_matrix(10, 3, seed=5), 8)
    info = matrix_info(padded)
    assert info["rows"] == 16
    assert info["padding_rows"] == 6
    assert info["first_padding_row"] == 10
