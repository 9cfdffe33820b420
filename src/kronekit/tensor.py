"""Dense matrix core: the shared error types, seeded RNG construction, and
the KTS1 checkpoint format.

Matrices are plain 2-D numpy arrays (float64 by default, float32 allowed for
benchmarking), treated as immutable. Apart from ``save`` and ``load``,
everything here is pure. Checkpoint I/O streams: ``load`` reads each payload
straight into its own array, which a model built from the store shares, and
``save`` writes tensor by tensor, so neither holds a second copy of the file.
"""

from __future__ import annotations

import os
import struct
from typing import Iterator

import numpy as np


class ShapeError(ValueError):
    """Shapes do not fit, or a config field is missing or malformed."""


class StoreError(Exception):
    """Base class for KTS1 checkpoint errors."""


class BadMagicError(StoreError):
    """File does not start with the KTS magic bytes."""


class UnsupportedVersionError(StoreError):
    """KTS file with a version this library does not read."""


class TruncatedFileError(StoreError):
    """KTS file ends before the declared payload is complete."""


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator: identical seed gives an identical stream."""
    return np.random.default_rng(seed)


_MAGIC = b"KTS"
_VERSION = b"1"
_DTYPE_CODES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}  # KTS is little-endian
_U16_MAX = 0xFFFF  # tensor count and name length are stored as uint16
_CODE_FOR_DTYPE = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}


class NamedTensorStore:
    """Ordered name -> matrix map; iteration order is insertion order."""

    def __init__(self) -> None:
        self._entries: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> np.ndarray:
        return self._entries[name]

    def add(self, name: str, matrix: np.ndarray) -> None:
        if name in self._entries:
            raise ValueError(f"duplicate tensor name {name!r}")
        m = np.asarray(matrix)
        if m.ndim != 2:
            raise ShapeError(f"store holds matrices only, {name!r} has ndim={m.ndim}")
        if m.dtype not in (np.float64, np.float32):
            m = m.astype(np.float64)
        self._entries[name] = m

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._entries.items())

    def save(self, path) -> None:
        """Write the store as KTS1, one tensor at a time: each header, then
        the tensor's own bytes, so no copy of the whole file is built. The
        count and every name length are checked before the file is opened,
        so a store KTS cannot hold leaves no file behind."""
        if len(self._entries) > _U16_MAX:
            raise StoreError(f"{path}: {len(self._entries)} tensors, "
                             f"a KTS file holds at most {_U16_MAX}")
        raw_names = [name.encode("utf-8") for name in self._entries]
        for name, raw_name in zip(self._entries, raw_names):
            if len(raw_name) > _U16_MAX:
                raise StoreError(f"{path}: tensor name {name[:40]!r}... is {len(raw_name)} "
                                 f"bytes in UTF-8, at most {_U16_MAX} fit")
        with open(path, "wb") as fh:
            fh.write(_MAGIC + _VERSION + struct.pack("<H", len(self._entries)))
            for raw_name, m in zip(raw_names, self._entries.values()):
                code = _CODE_FOR_DTYPE[m.dtype]
                fh.write(struct.pack("<H", len(raw_name)) + raw_name
                         + struct.pack("<BII", code, m.shape[0], m.shape[1]))
                fh.write(np.ascontiguousarray(m, dtype=_DTYPE_CODES[code]))

    @classmethod
    def load(cls, path) -> "NamedTensorStore":
        """Read a KTS1 file: the header fields by small reads, and each
        payload, once its size is checked against the file's, straight into
        its own fresh array, so loading holds the payload once."""
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            magic = fh.read(4)
            if len(magic) < 4 or magic[:3] != _MAGIC:
                raise BadMagicError(f"{path}: not a KTS file")
            if magic[3:4] != _VERSION:
                raise UnsupportedVersionError(f"{path}: unsupported KTS version {magic[3:4]!r}")
            store = cls()

            def unpack(fmt):
                off, n = fh.tell(), struct.calcsize(fmt)
                if size < off + n:
                    raise struct.error(f"{n} bytes needed at byte {off}, the file has {size}")
                return struct.unpack(fmt, fh.read(n))

            try:
                (count,) = unpack("<H")
                for _ in range(count):
                    (name_len,) = unpack("<H")
                    off = fh.tell()
                    raw_name = fh.read(name_len)
                    if len(raw_name) < name_len:
                        raise struct.error("name truncated")
                    try:
                        name = raw_name.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise StoreError(f"{path}: tensor name at byte {off} is not "
                                         f"valid UTF-8 ({exc.reason})") from exc
                    if name in store:
                        raise StoreError(f"{path}: duplicate tensor name {name!r} at byte {off}")
                    code, rows, cols = unpack("<BII")
                    if code not in _DTYPE_CODES:
                        raise StoreError(f"{path}: unknown dtype code {code}")
                    dtype = _DTYPE_CODES[code]
                    nbytes = rows * cols * dtype.itemsize
                    if size < fh.tell() + nbytes:
                        raise TruncatedFileError(f"{path}: payload of {name!r} truncated")
                    m = np.empty((rows, cols), dtype)
                    if fh.readinto(m) != nbytes:  # the file shrank meanwhile
                        raise TruncatedFileError(f"{path}: payload of {name!r} truncated")
                    store.add(name, m)
            except struct.error as exc:
                raise TruncatedFileError(f"{path}: header truncated ({exc})") from exc
        return store
