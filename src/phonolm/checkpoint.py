"""Binary container for named float64 tensors.

Layout (all integers little-endian):

    magic    4 bytes  b"PHLM"
    version  u32
    record*  until EOF, each:
        name_len  u32
        name      UTF-8 bytes
        rank      u64
        dims      u64 * rank
        payload   little-endian f64 * prod(dims)

Model parameters, K-means codebooks and RVQ layers all serialize through this
one container; configs travel in JSON sidecars.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"PHLM"
VERSION = 1


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


def save_tensors(path, tensors: dict) -> None:
    """Write {name: array} to `path`. Order follows dict insertion order.

    The bytes go to a temporary file in the same directory, which then
    replaces `path` in one step: a reader sees the old file or the new one,
    never part of one, and a write that fails leaves `path` as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            for name, arr in tensors.items():
                arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
                nb = name.encode("utf-8")
                f.write(struct.pack("<I", len(nb)))
                f.write(nb)
                f.write(struct.pack("<Q", arr.ndim))
                for dim in arr.shape:
                    f.write(struct.pack("<Q", dim))
                f.write(arr.astype("<f8", copy=False).tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_tensors(path) -> dict:
    """Read a container back into {name: float64 array}, preserving order.

    Every malformed file raises CheckpointError: bad magic or version, a
    record cut short, a name that is not UTF-8, or a rank or shape that does
    not fit the file.
    """
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}")
    total = len(blob)
    off = 4

    def take(n: int) -> int:
        """Offset of the next `n` bytes, which must all lie inside the file."""
        nonlocal off
        if n > total - off:
            raise CheckpointError(f"{path}: truncated at byte {off} ({n} bytes needed)")
        off += n
        return off - n

    (version,) = struct.unpack_from("<I", blob, take(4))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    out = {}
    while off < total:
        (name_len,) = struct.unpack_from("<I", blob, take(4))
        start = take(name_len)
        try:
            name = blob[start:off].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: tensor name at byte {start} is not UTF-8") from exc
        (rank,) = struct.unpack_from("<Q", blob, take(8))
        dims = struct.unpack_from(f"<{rank}Q", blob, take(8 * rank))
        count = math.prod(dims)
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=take(8 * count))
        try:
            out[name] = arr.astype(np.float64).reshape(dims)
        except ValueError as exc:
            raise CheckpointError(f"{path}: bad shape {dims} for {name!r}") from exc
    return out
