"""Byte-exact tensor container for parameter sets.

Layout (all integers little-endian, no alignment padding):

    offset  size      field
    0       8         magic ``b"HFLTNSR1"``
    8       4         u32 entry count N
    then, for each of the N entries in ascending name order:
            2         u16 byte length L of the UTF-8 name
            L         name bytes
            1         u8 ndim D
            4*D       u32 dims
            8*prod    float64 payload, row-major, IEEE-754 bit pattern as-is

Entries are written sorted by name, so two parameter sets with equal content
serialize to identical bytes regardless of insertion order.  Payload bytes
are copied verbatim: NaNs, infinities and signed zeros survive a round trip
bit-for-bit.
"""

from __future__ import annotations

import json
import os
import struct
import threading
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import FormatError

MAGIC = b"HFLTNSR1"
_MAX_NDIM = 32


def dump_params(params: Mapping[str, np.ndarray]) -> bytes:
    """Serialize a name -> tensor map to the container format."""
    chunks = [MAGIC, struct.pack("<I", len(params))]
    for name in sorted(params):
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FormatError(f"tensor name too long ({len(raw)} bytes)")
        # asarray only: ascontiguousarray would promote 0-d arrays to 1-d
        arr = np.asarray(params[name], dtype=np.float64)
        if arr.ndim > _MAX_NDIM:
            raise FormatError(f"{name}: ndim {arr.ndim} exceeds container limit {_MAX_NDIM}")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8", copy=False).tobytes(order="C"))
    return b"".join(chunks)


def load_params(data: bytes) -> dict[str, np.ndarray]:
    """Parse container bytes back into a name -> float64 array map."""
    if len(data) < len(MAGIC) + 4:
        raise FormatError("container truncated before header")
    if data[: len(MAGIC)] != MAGIC:
        raise FormatError(f"bad magic {data[:len(MAGIC)]!r}, expected {MAGIC!r}")
    pos = len(MAGIC)
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4

    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        if pos + 2 > len(data):
            raise FormatError("container truncated inside entry header")
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        if pos + name_len + 1 > len(data):
            raise FormatError("container truncated inside entry name")
        try:
            name = data[pos : pos + name_len].decode("utf-8")
        except UnicodeDecodeError as err:
            raise FormatError(f"entry name is not valid UTF-8: {err}") from err
        pos += name_len
        if name in out:
            raise FormatError(f"duplicate tensor name {name!r}")
        (ndim,) = struct.unpack_from("<B", data, pos)
        pos += 1
        if ndim > _MAX_NDIM:
            raise FormatError(f"{name}: ndim {ndim} exceeds container limit {_MAX_NDIM}")
        if pos + 4 * ndim > len(data):
            raise FormatError(f"{name}: container truncated inside dims")
        dims = struct.unpack_from(f"<{ndim}I", data, pos)
        pos += 4 * ndim
        n_values = 1
        for d in dims:
            n_values *= d
        nbytes = 8 * n_values
        if pos + nbytes > len(data):
            raise FormatError(f"{name}: payload truncated ({len(data) - pos} of {nbytes} bytes)")
        arr = np.frombuffer(data, dtype="<f8", count=n_values, offset=pos).reshape(dims)
        out[name] = arr.astype(np.float64, copy=True)
        pos += nbytes

    if pos != len(data):
        raise FormatError(f"{len(data) - pos} trailing bytes after last entry")
    return out


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``: a crash mid-write leaves the previous file as it was.
    """
    path = Path(path)
    # one temporary name per writing thread: concurrent writers never share it
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    """``obj`` as indented, key-sorted JSON plus a newline, written atomically."""
    write_atomic(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def write_checkpoint(path: str | Path, params: Mapping[str, np.ndarray]) -> None:
    """Write ``params`` to ``path`` atomically (see :func:`write_atomic`)."""
    write_atomic(path, dump_params(params))


def read_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    return load_params(Path(path).read_bytes())
