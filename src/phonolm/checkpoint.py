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

import contextlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .numerics import ContractError

MAGIC = b"PHLM"
VERSION = 1


class CheckpointError(ContractError):
    """Corrupt or incompatible checkpoint file."""


@contextlib.contextmanager
def sidecar(path):
    """Yield the JSON value in the sidecar `path`. A missing or unreadable
    file, bad JSON, or a KeyError, TypeError or ValueError that the block
    raises while it reads the value raises CheckpointError naming `path`."""
    try:
        yield json.loads(Path(path).read_text())
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {type(exc).__name__}: {exc}") from exc


def write_atomic(path, data) -> None:
    """Write `data` to `path`: bytes, a str (as UTF-8), or an iterable of
    bytes chunks, written as they come.

    The bytes go to a temporary file in the same directory, which then
    replaces `path` in one step: a reader sees the old file or the new one,
    never part of one, and a write that fails (the chunks' producer
    included) leaves `path` as it was and no temporary file behind.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, bytes):
        data = (data,)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_tensors(path, tensors: dict) -> None:
    """Write {name: array} to `path` atomically (`write_atomic`). Order
    follows dict insertion order."""
    write_atomic(path, _records(tensors))


def _records(tensors: dict):
    yield MAGIC
    yield struct.pack("<I", VERSION)
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
        nb = name.encode("utf-8")
        yield struct.pack("<I", len(nb)) + nb + struct.pack(f"<Q{arr.ndim}Q", arr.ndim, *arr.shape)
        yield arr.astype("<f8", copy=False).tobytes()


def load_tensors(path) -> dict:
    """Read a container back into {name: float64 array}, preserving order.

    A file that cannot be read, and every malformed file, raises
    CheckpointError: bad magic or version, a record cut short, a name that
    is not UTF-8 or that an earlier record holds, or a rank or shape that
    does not fit the file.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: {type(exc).__name__}: {exc}") from exc
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
        if name in out:
            raise CheckpointError(f"{path}: tensor {name!r} appears twice")
        (rank,) = struct.unpack_from("<Q", blob, take(8))
        dims = struct.unpack_from(f"<{rank}Q", blob, take(8 * rank))
        count = math.prod(dims)
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=take(8 * count))
        try:
            out[name] = arr.astype(np.float64).reshape(dims)
        except ValueError as exc:
            raise CheckpointError(f"{path}: bad shape {dims} for {name!r}") from exc
    return out
