"""Dense matrix core: shape-checked ops, the column-stacking vec/reshape pair,
seeded RNG construction, and the KTS1 checkpoint format.

Matrices are plain 2-D numpy arrays (float64 by default, float32 allowed for
benchmarking). Everything here is pure; arrays are treated as immutable.
"""

from __future__ import annotations

import struct
from typing import Iterator

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


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


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit dimension check."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    return a @ b


def vec(m: np.ndarray) -> np.ndarray:
    """Stack the columns of ``m`` into a single column vector.

    Entry k of the result is m[k mod rows, k div rows].
    """
    return m.reshape(-1, 1, order="F")


def reshape_vec(x: np.ndarray, r: int, c: int) -> np.ndarray:
    """Inverse of :func:`vec`: split a vector into c columns of length r."""
    flat = np.asarray(x).reshape(-1)
    if flat.size != r * c:
        raise ShapeError(f"reshape: vector of length {flat.size} cannot fill {r}x{c}")
    return flat.reshape(r, c, order="F")


_MAGIC = b"KTS"
_VERSION = b"1"
_DTYPE_CODES = {0: np.float64, 1: np.float32}
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
        if len(self._entries) > _U16_MAX:
            raise StoreError(f"{path}: {len(self._entries)} tensors, "
                             f"a KTS file holds at most {_U16_MAX}")
        blob = bytearray()
        blob += _MAGIC + _VERSION
        blob += struct.pack("<H", len(self._entries))
        for name, m in self._entries.items():
            raw_name = name.encode("utf-8")
            if len(raw_name) > _U16_MAX:
                raise StoreError(f"{path}: tensor name {name[:40]!r}... is {len(raw_name)} "
                                 f"bytes in UTF-8, at most {_U16_MAX} fit")
            code = _CODE_FOR_DTYPE[m.dtype]
            blob += struct.pack("<H", len(raw_name))
            blob += raw_name
            blob += struct.pack("<BII", code, m.shape[0], m.shape[1])
            blob += np.ascontiguousarray(m).astype(m.dtype).tobytes()
        with open(path, "wb") as fh:
            fh.write(bytes(blob))

    @classmethod
    def load(cls, path) -> "NamedTensorStore":
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < 4 or data[:3] != _MAGIC:
            raise BadMagicError(f"{path}: not a KTS file")
        if data[3:4] != _VERSION:
            raise UnsupportedVersionError(f"{path}: unsupported KTS version {data[3:4]!r}")
        store = cls()
        off = 4
        try:
            (count,) = struct.unpack_from("<H", data, off)
            off += 2
            for _ in range(count):
                (name_len,) = struct.unpack_from("<H", data, off)
                off += 2
                if len(data) < off + name_len:
                    raise struct.error("name truncated")
                try:
                    name = data[off : off + name_len].decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise StoreError(f"{path}: tensor name at byte {off} is not "
                                     f"valid UTF-8 ({exc.reason})") from exc
                if name in store:
                    raise StoreError(f"{path}: duplicate tensor name {name!r} at byte {off}")
                off += name_len
                code, rows, cols = struct.unpack_from("<BII", data, off)
                off += 9
                if code not in _DTYPE_CODES:
                    raise StoreError(f"{path}: unknown dtype code {code}")
                dtype = np.dtype(_DTYPE_CODES[code])
                nbytes = rows * cols * dtype.itemsize
                if len(data) < off + nbytes:
                    raise TruncatedFileError(f"{path}: payload of {name!r} truncated")
                m = np.frombuffer(data[off : off + nbytes], dtype=dtype).reshape(rows, cols)
                off += nbytes
                store.add(name, m.copy())
        except struct.error as exc:
            raise TruncatedFileError(f"{path}: header truncated ({exc})") from exc
        return store
