"""Bit-exact binary snapshot format.

Layout, all integers little-endian u32 and floats little-endian f64:

    magic bytes  b"NEMF1\\n"
    dim
    n per axis (dim values)
    field_count
    per field: name_length, UTF-8 name bytes, components
    per field: data, component-major, row-major (last axis fastest)

The writer and reader round-trip byte for byte.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

MAGIC = b"NEMF1\n"


class SnapshotFormatError(ValueError):
    """The file is not a well-formed snapshot."""


@dataclass(frozen=True)
class SnapshotHeader:
    dim: int
    shape: tuple[int, ...]
    fields: tuple[tuple[str, int], ...]  # (name, components)


def write_snapshot(path: str | Path, shape: tuple[int, ...],
                   fields: dict[str, np.ndarray]) -> None:
    """Write named sample arrays of shape (components, *shape).

    The bytes go to a temporary file beside path that is then renamed into
    place, so an interrupted writer never leaves a partial snapshot at path;
    a failed write removes the temporary file and re-raises.
    """
    dim = len(shape)
    chunks = [MAGIC, struct.pack("<I", dim)]
    chunks.extend(struct.pack("<I", n) for n in shape)
    chunks.append(struct.pack("<I", len(fields)))
    for name, values in fields.items():
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", values.shape[0]))
    for name, values in fields.items():
        if values.shape[1:] != shape:
            raise ValueError(f"field {name!r} shape {values.shape} does not match {shape}")
        chunks.append(np.ascontiguousarray(values, dtype="<f8"))
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as out:
            for chunk in chunks:  # an array is written from its own buffer, row-major
                out.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Cursor:
    """Sequential reader over an open snapshot file; never asks for bytes
    past the end of the file."""

    def __init__(self, stream: BinaryIO):
        self.stream = stream
        self.size = os.fstat(stream.fileno()).st_size
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > self.size:
            raise SnapshotFormatError("snapshot truncated")
        self.pos += count
        return self.stream.read(count)

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _parse_header(cur: _Cursor) -> SnapshotHeader:
    if cur.take(len(MAGIC)) != MAGIC:
        raise SnapshotFormatError("bad magic bytes; not a snapshot file")
    dim = cur.u32()
    if dim not in (2, 3):
        raise SnapshotFormatError(f"unsupported dim {dim}")
    shape = tuple(cur.u32() for _ in range(dim))
    count = cur.u32()
    fields = []
    for _ in range(count):
        raw = cur.take(cur.u32())
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotFormatError(f"field name is not valid UTF-8: {exc}") from None
        comps = cur.u32()
        fields.append((name, comps))
    return SnapshotHeader(dim, shape, tuple(fields))


def read_header(path: str | Path) -> SnapshotHeader:
    """Parse the header only; no payload bytes are read."""
    with open(path, "rb") as stream:
        return _parse_header(_Cursor(stream))


def read_snapshot(path: str | Path) -> tuple[SnapshotHeader, dict[str, np.ndarray]]:
    with open(path, "rb") as stream:
        cur = _Cursor(stream)
        header = _parse_header(cur)
        npts = int(np.prod(header.shape))
        fields = {}
        for name, comps in header.fields:
            raw = cur.take(8 * comps * npts)
            fields[name] = np.frombuffer(raw, dtype="<f8").reshape(comps, *header.shape).copy()
        if cur.pos != cur.size:
            raise SnapshotFormatError("trailing bytes after snapshot payload")
    return header, fields
