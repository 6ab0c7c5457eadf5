"""Keyed store of fixed-dimension embedding vectors.

One binary format serves image, region, and tag-text embeddings. Vectors are
stored as 32-bit little-endian floats and widened to 64-bit for all in-memory
computation, so a load/save round trip is bitwise exact.

Format EMB1:
    magic    4 bytes  b"EMB1"
    count    u32 LE
    dim      u32 LE
    normed   u8       1 if every vector is unit length
    records  count times:
        key_len  u16 LE
        key      key_len bytes, UTF-8
        vector   dim * f32 LE
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import TagforgeError

MAGIC = b"EMB1"
NORM_TOLERANCE = 1e-4


class EmbeddingFormatError(TagforgeError):
    pass


class EmbeddingTable:
    """Immutable mapping key -> vector, all vectors sharing one dimension."""

    def __init__(self, keys: Iterable[str], matrix: np.ndarray, normalized: bool = False):
        keys = tuple(keys)
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise EmbeddingFormatError("matrix must be 2-dimensional")
        if matrix.shape[0] != len(keys):
            raise EmbeddingFormatError(
                f"key count {len(keys)} does not match row count {matrix.shape[0]}"
            )
        if matrix.shape[1] < 1:
            raise EmbeddingFormatError("dimension must be positive")
        index: dict[str, int] = {}
        for i, key in enumerate(keys):
            if key in index:
                raise EmbeddingFormatError(f"duplicate key {key!r}")
            index[key] = i
        if not np.isfinite(matrix).all():
            bad = keys[int(np.argwhere(~np.isfinite(matrix))[0][0])]
            raise EmbeddingFormatError(f"non-finite value in vector for key {bad!r}")
        if normalized:
            _check_unit_norms(keys, np.linalg.norm(matrix, axis=1))
        self._set(keys, matrix, normalized, index)

    def _set(self, keys: tuple[str, ...], matrix: np.ndarray, normalized: bool, index: dict):
        self.keys = keys
        self.matrix = matrix
        self.matrix.setflags(write=False)
        self.dim: int = matrix.shape[1]
        self.normalized = normalized
        self._index = index

    @classmethod
    def _checked(cls, keys: tuple[str, ...], matrix: np.ndarray, normalized: bool, index: dict):
        """A table of a 2-d float64 matrix whose rows are finite and whose
        keys are distinct, index mapping each key to its row: the caller has
        checked all of it, so nothing is checked again."""
        table = cls.__new__(cls)
        table._set(keys, matrix, normalized, index)
        return table

    @classmethod
    def from_vectors(cls, vectors: Mapping[str, np.ndarray], normalized: bool = False):
        keys = list(vectors)
        if not keys:
            raise EmbeddingFormatError("cannot infer dimension from an empty mapping")
        matrix = np.asarray([np.asarray(vectors[k], dtype=np.float64) for k in keys])
        return cls(keys, matrix, normalized)

    def vector(self, key: str) -> np.ndarray:
        i = self._index.get(key)
        if i is None:
            raise KeyError(key)
        return self.matrix[i]

    def row_indices(self, keys: Iterable[str]) -> list[int | None]:
        """The matrix row of each key, None for a key not in the table."""
        get = self._index.get
        return [get(key) for key in keys]

    def rows(self, keys: Iterable[str]) -> np.ndarray:
        """The vectors of keys, stacked in order into a new (len(keys), dim) array."""
        return self.matrix[[self._index[key] for key in keys]]

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self.keys)


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Parse an EMB1 file, validating structure and values.

    Every failure mode is a distinct error naming the byte offset and, where
    one exists, the offending key.
    """
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != MAGIC:
        raise EmbeddingFormatError(f"{path}: bad magic at offset 0, expected {MAGIC!r}")
    if len(data) < 13:
        raise EmbeddingFormatError(f"{path}: truncated header at offset {len(data)}")
    count, dim = struct.unpack_from("<II", data, 4)
    normalized = data[12] != 0
    if dim < 1:
        raise EmbeddingFormatError(f"{path}: dimension 0 at offset 8")

    # one pass over the key lengths proves the structure; a structural error
    # is raised only after the finiteness check of the records before it, so
    # every file reports the error a record-by-record reader meets first
    size = len(data)
    vec_bytes = dim * 4
    offset = 13
    keys: list[str] = []
    index: dict[str, int] = {}  # key -> row
    starts: list[int] = []  # byte offset of each record's vector
    error = None
    for _ in range(count):
        if offset + 2 > size:
            error = f"truncated payload at offset {offset}"
            break
        key_len = data[offset] | data[offset + 1] << 8
        offset += 2
        if offset + key_len > size:
            error = f"truncated key at offset {offset}"
            break
        try:
            key = data[offset : offset + key_len].decode("utf-8")
        except UnicodeDecodeError:
            error = f"invalid UTF-8 key at offset {offset}"
            break
        offset += key_len
        if key in index:
            error = f"duplicate key {key!r} at offset {offset}"
            break
        if offset + vec_bytes > size:
            error = f"truncated vector for key {key!r} at offset {offset}"
            break
        index[key] = len(keys)
        keys.append(key)
        starts.append(offset)
        offset += vec_bytes
    else:
        if offset != size:
            error = f"{size - offset} trailing bytes at offset {offset}"

    # the vectors exist in the file, so the matrices below are bounded by its size
    view = memoryview(data)
    vectors = np.frombuffer(
        b"".join([view[start : start + vec_bytes] for start in starts]), dtype="<f4"
    ).reshape(len(starts), dim)
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise EmbeddingFormatError(
            f"{path}: non-finite value for key {keys[bad]!r} at offset {starts[bad]}"
        )
    if error is not None:
        raise EmbeddingFormatError(f"{path}: {error}")
    # widening keeps every value finite, and the scan proved the keys distinct
    matrix = vectors.astype(np.float64)
    if normalized:
        try:
            _check_unit_norms(keys, np.linalg.norm(matrix, axis=1))
        except EmbeddingFormatError as exc:
            raise EmbeddingFormatError(f"{path}: {exc}") from None
    return EmbeddingTable._checked(tuple(keys), matrix, normalized, index)


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", len(table), table.dim))
        fh.write(struct.pack("<B", 1 if table.normalized else 0))
        f32 = table.matrix.astype("<f4")
        for i, key in enumerate(table.keys):
            encoded = key.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise EmbeddingFormatError(f"key too long: {key[:40]!r}...")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(f32[i].tobytes())


def _check_unit_norms(keys: tuple[str, ...] | list[str], norms: np.ndarray) -> None:
    off = np.abs(norms - 1.0) > NORM_TOLERANCE
    if off.any():
        bad = int(np.argmax(off))
        raise EmbeddingFormatError(
            f"normalized flag set but key {keys[bad]!r} has norm {norms[bad]:.6g}"
        )


def normalize(table: EmbeddingTable) -> EmbeddingTable:
    """Scale every vector to unit L2 norm; errors on zero vectors."""
    norms = np.linalg.norm(table.matrix, axis=1)
    zero = norms == 0.0
    if zero.any():
        bad = table.keys[int(np.argmax(zero))]
        raise EmbeddingFormatError(f"cannot normalize zero vector for key {bad!r}")
    # finite values divided by nonzero norms stay finite, and the keys are
    # the table's own: only the unit norms are checked
    matrix = table.matrix / norms[:, None]
    _check_unit_norms(table.keys, np.linalg.norm(matrix, axis=1))
    return EmbeddingTable._checked(table.keys, matrix, True, table._index)
