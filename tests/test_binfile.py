"""The binary container shared by NGLM, MHSG and EMB1: every flipped byte,
every cut and every other version of a file raises the format's own error."""

import numpy as np
import pytest

from corpus_forge import binfile, dedup, embeddings, fluency
from corpus_forge.documents import Document


def _write_nglm(path):
    docs = [Document(id="d", text="καλημέρα κόσμε abab\n\nγεια σου κόσμε")]
    fluency.write_model(fluency.train_ngram_lm(docs, order=3), path)


def _write_mhsg(path):
    cfg = dedup.DedupConfig(num_perm=4, seed=1)
    matrix = np.arange(12, dtype=np.uint64).reshape(3, 4) * np.uint64(0x0101010101)
    dedup.write_signatures(path, ["a", "βήτα", ""], matrix, cfg)


def _write_emb1(path):
    data = np.linspace(-1.0, 1.0, 15, dtype=np.float32).reshape(5, 3)
    matrix = embeddings.EmbeddingMatrix(data=data, role=embeddings.MatrixRole.LM_HEAD)
    embeddings.write_matrix(embeddings.pad_to_multiple(matrix, 8), path)


FORMATS = {
    "NGLM": (_write_nglm, fluency.read_model, fluency.ModelFormatError, fluency.VERSION),
    "MHSG": (_write_mhsg, dedup.read_signatures, binfile.FormatError, dedup.SIG_VERSION),
    "EMB1": (_write_emb1, embeddings.read_matrix, embeddings.MatrixFormatError,
             embeddings.VERSION),
}


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_every_flip_cut_and_version_raises_the_format_error(tmp_path, fmt):
    write, read, error, version = FORMATS[fmt]
    good, bad = tmp_path / "good", tmp_path / "bad"
    write(good)
    read(good)
    data = good.read_bytes()
    assert data[:4] == fmt.encode()
    for i in range(len(data)):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(data)
            flipped[i] ^= mask
            bad.write_bytes(flipped)
            with pytest.raises(error):
                read(bad)
    for cut in range(len(data)):
        bad.write_bytes(data[:cut])
        with pytest.raises(error):
            read(bad)
    for other in (version - 1, version + 1):  # checksummed, so only the version is wrong
        with binfile.Writer(bad, data[:4], other) as out:
            out.write(data[8:-4])
        with pytest.raises(error, match=f"unsupported version {other}$"):
            read(bad)


def test_sound_checksum_over_a_bad_body_raises_the_format_error(tmp_path):
    path = tmp_path / "sigs.mhsg"
    with binfile.Writer(path, dedup.SIG_MAGIC, dedup.SIG_VERSION) as out:
        out.pack("IQ", 1, 0)
        out.pack("I2sQ", 2, b"\xff\xfe", 7)  # an id that is not UTF-8
    with pytest.raises(binfile.FormatError, match="utf-8"):
        dedup.read_signatures(path)

    with binfile.Writer(path, fluency.MAGIC, fluency.VERSION) as out:
        out.pack("IdIQ", 1, 1.0, 0, 0)  # an order-1 model with one empty table
    with pytest.raises(fluency.ModelFormatError, match="order must be at least 2"):
        fluency.read_model(path)

    good = tmp_path / "good.emb"
    _write_emb1(good)
    body = good.read_bytes()[8:-4]
    with binfile.Writer(path, embeddings.MAGIC, embeddings.VERSION) as out:
        out.write(body + b"\x00")
    with pytest.raises(embeddings.MatrixFormatError, match="trailing bytes"):
        embeddings.read_matrix(path)
    with binfile.Writer(path, embeddings.MAGIC, embeddings.VERSION) as out:
        out.write(body[:13] + np.float32("nan").tobytes() + body[17:])
    with pytest.raises(embeddings.MatrixFormatError, match="non-finite"):
        embeddings.read_matrix(path)


def test_failed_write_leaves_no_checksum(tmp_path):
    path = tmp_path / "sigs.mhsg"
    with pytest.raises(KeyError):
        with binfile.Writer(path, dedup.SIG_MAGIC, dedup.SIG_VERSION) as out:
            out.pack("IQ", 4, 1)
            raise KeyError("writer failed")
    assert path.stat().st_size == 20
    with pytest.raises(binfile.FormatError, match="checksum"):
        dedup.read_signatures(path)
