"""Raw field snapshots: 32-byte header + little-endian float64 samples.

Header layout (little endian): magic ``FSF1`` (4 bytes), points per axis as
uint32, box length as float64, component index as uint32, 12 padding bytes.
The payload is the n^3 row-major sample array.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .grid import Grid3, ScalarField

__all__ = ["write_snapshot", "read_snapshot", "HEADER_STRUCT", "MAGIC"]

MAGIC = b"FSF1"
HEADER_STRUCT = struct.Struct("<4sIdI12x")
assert HEADER_STRUCT.size == 32


def write_snapshot(field: ScalarField, component_index: int, path) -> Path:
    """Write the header, then the samples straight from the array's buffer (no bytes copy)."""
    path = Path(path)
    header = HEADER_STRUCT.pack(
        MAGIC, field.grid.points_per_axis, field.grid.box_length, component_index
    )
    payload = np.ascontiguousarray(field.values, dtype="<f8")
    with path.open("wb") as fh:
        fh.write(header)
        fh.write(memoryview(payload).cast("B"))
    return path


def read_snapshot(path) -> tuple[ScalarField, int]:
    raw = Path(path).read_bytes()
    if len(raw) < HEADER_STRUCT.size:
        raise ValueError("snapshot file is shorter than its header")
    magic, n, box_length, component = HEADER_STRUCT.unpack(raw[: HEADER_STRUCT.size])
    if magic != MAGIC:
        raise ValueError(f"bad snapshot magic {magic!r}")
    expected = n**3 * 8
    payload = raw[HEADER_STRUCT.size :]
    if len(payload) != expected:
        raise ValueError(f"snapshot payload has {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape((n, n, n))
    return ScalarField(Grid3(box_length, n), values.astype(np.float64)), component
