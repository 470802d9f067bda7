"""The container of every binary file (`NGLM`, `EMB1`): a 4-byte
magic, a u32 version, the format's body, then the CRC-32 (zlib) of every
byte before it, as PNG checksums its chunks. Little-endian throughout. A
reader accepts one version of its format and no other."""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np


class FormatError(ValueError):
    """A corrupt, truncated or foreign binary file, or one of another version."""


class Writer:
    """Streams magic, version and body to `path`; a clean exit appends the checksum."""

    def __init__(self, path: str | Path, magic: bytes, version: int):
        self._out, self._crc = open(path, "wb"), 0
        self.pack("4sI", magic, version)

    def write(self, data: bytes) -> None:
        self._crc = zlib.crc32(data, self._crc)
        self._out.write(data)

    def pack(self, fmt: str, *values) -> None:
        self.write(struct.pack("<" + fmt, *values))

    def __enter__(self) -> "Writer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._out:
            if exc_type is None:
                self._out.write(struct.pack("<I", self._crc))


class Reader:
    """A file, its magic, version and checksum checked, read by bounds-checked calls. Any
    failure, or ValueError in the `with` block, raises `error`; a clean exit checks the end."""

    def __init__(self, path: str | Path, magic: bytes, version: int, error: type[FormatError]):
        self.path, self._error, self._pos = path, error, 8
        data = Path(path).read_bytes()
        if data[:4] != magic:
            raise self.fail(f"not a {magic.decode()} file")
        found = int.from_bytes(data[4:8], "little")
        if len(data) >= 8 and found != version:
            raise self.fail(f"unsupported version {found}")
        self._body = memoryview(data)[:-4]
        if len(data) < 12 or zlib.crc32(self._body) != int.from_bytes(data[-4:], "little"):
            raise self.fail("checksum mismatch: the file is truncated or corrupt")

    def fail(self, message: str) -> FormatError:
        return self._error(f"{self.path}: {message}")

    def _take(self, size: int, what: str) -> memoryview:
        if not 0 <= size <= len(self._body) - self._pos:
            raise self.fail(f"truncated {what}")
        self._pos += size
        return self._body[self._pos - size : self._pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack("<" + fmt, self._take(struct.calcsize("<" + fmt), "record"))

    def text(self, size: int, what: str) -> str:
        return str(self._take(size, what), "utf-8")

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        raw = self._take(count * np.dtype(dtype).itemsize, what)
        return np.frombuffer(raw, dtype=dtype).copy()

    def __enter__(self) -> "Reader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self._pos != len(self._body):
            raise self.fail("trailing bytes after the data")
        if isinstance(exc, ValueError) and not isinstance(exc, FormatError):
            raise self.fail(str(exc)) from exc  # e.g. bad UTF-8, or a value the type rejects
