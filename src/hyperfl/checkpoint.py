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

One encoder, :func:`encode_chunks`, yields the container piece by piece and
serves both sinks: :func:`dump_params` joins the pieces into bytes for the
wire, and :func:`write_checkpoint` streams them into the file, so a snapshot
is never held in memory as a whole.

One parser, :func:`load_params`, reads the container from a seekable binary
stream and serves both sources: wire payloads are wrapped in
:class:`io.BytesIO`, and :func:`read_checkpoint` hands it the open file.
Every size is checked against what the stream has left before anything is
allocated, and each payload is read straight into its own fresh array, so
no container-sized buffer ever exists.

Given a name predicate, the parser loads only the entries it keeps.  A
rejected entry gets every check a kept one gets up to its payload, which is
then seeked past unread and comes back as a :class:`Skipped` record of its
shape: a reader that needs a few tensors of a large snapshot, such as the
attack, never allocates the rest.

The module also owns the table format of every CSV artifact: a header row,
then comma-separated rows with ``\n`` line ends.  :func:`write_csv` writes
one atomically; :func:`read_csv` reads one back, raising one
:class:`FormatError` that names the line of any fault.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import FormatError

MAGIC = b"HFLTNSR1"
_MAX_NDIM = 32


def encode_chunks(params: Mapping[str, np.ndarray]) -> Iterator[bytes | np.ndarray]:
    """The container encoding of a name -> tensor map, as consecutive byte chunks.

    A tensor that is already C-contiguous little-endian float64 is yielded
    as its own buffer, not copied; any other is converted once.
    """
    yield MAGIC + struct.pack("<I", len(params))
    for name in sorted(params):
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FormatError(f"tensor name too long ({len(raw)} bytes)")
        # the dims come from asarray: ascontiguousarray would promote 0-d arrays to 1-d
        arr = np.asarray(params[name], dtype=np.float64)
        if arr.ndim > _MAX_NDIM:
            raise FormatError(f"{name}: ndim {arr.ndim} exceeds container limit {_MAX_NDIM}")
        yield struct.pack(f"<H{len(raw)}sB{arr.ndim}I", len(raw), raw, arr.ndim, *arr.shape)
        yield np.ascontiguousarray(arr, dtype="<f8")


def dump_params(params: Mapping[str, np.ndarray]) -> bytes:
    """Serialize a name -> tensor map to the container format."""
    return b"".join(encode_chunks(params))


def _read(src: BinaryIO, n: int, message: str) -> bytes:
    chunk = src.read(n)
    if len(chunk) < n:
        raise FormatError(message)
    return chunk


@dataclass(frozen=True)
class Skipped:
    """An entry :func:`load_params` checked but did not load: its shape, no data."""

    shape: tuple[int, ...]


def load_params(
    source: bytes | BinaryIO, keep: Callable[[str], bool] | None = None
) -> dict[str, np.ndarray | Skipped]:
    """Parse a container, as bytes or a seekable binary stream, into a name -> float64 array map.

    The stream is read from its current position to its end; each payload
    goes from the stream straight into a fresh array.  With ``keep``, an
    entry whose name it rejects is checked like any other, its payload is
    seeked past, and it maps to a :class:`Skipped` record of its shape.
    """
    src = io.BytesIO(source) if isinstance(source, bytes) else source
    pos = src.tell()
    end = src.seek(0, io.SEEK_END)
    src.seek(pos)
    header = _read(src, len(MAGIC) + 4, "container truncated before header")
    if header[: len(MAGIC)] != MAGIC:
        raise FormatError(f"bad magic {header[:len(MAGIC)]!r}, expected {MAGIC!r}")
    (count,) = struct.unpack_from("<I", header, len(MAGIC))

    out: dict[str, np.ndarray | Skipped] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", _read(src, 2, "container truncated inside entry header"))
        # the name and the ndim byte
        raw = _read(src, name_len + 1, "container truncated inside entry name")
        try:
            name = raw[:name_len].decode("utf-8")
        except UnicodeDecodeError as err:
            raise FormatError(f"entry name is not valid UTF-8: {err}") from err
        if name in out:
            raise FormatError(f"duplicate tensor name {name!r}")
        ndim = raw[name_len]
        if ndim > _MAX_NDIM:
            raise FormatError(f"{name}: ndim {ndim} exceeds container limit {_MAX_NDIM}")
        dims = struct.unpack(f"<{ndim}I", _read(src, 4 * ndim, f"{name}: container truncated inside dims"))
        nbytes = 8 * math.prod(dims)
        left = end - src.tell()
        # checked before allocating: a forged header cannot ask for more than the source holds
        if nbytes > left:
            raise FormatError(f"{name}: payload truncated ({left} of {nbytes} bytes)")
        if keep is not None and not keep(name):
            src.seek(nbytes, io.SEEK_CUR)
            out[name] = Skipped(dims)
            continue
        arr = np.empty(dims, dtype="<f8")
        if src.readinto(arr) != nbytes:
            raise FormatError(f"{name}: payload truncated while reading")
        out[name] = arr.astype(np.float64, copy=False)  # a no-op on little-endian hosts

    left = end - src.tell()
    if left:
        raise FormatError(f"{left} trailing bytes after last entry")
    return out


def write_atomic(path: str | Path, data: bytes | Iterable[bytes | np.ndarray]) -> None:
    """Write ``data``, bytes or byte chunks written in order, to ``path`` atomically.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``: a crash anywhere mid-write, producing a chunk
    included, leaves the previous file as it was and no temporary file.
    """
    path = Path(path)
    # one temporary name per writing thread: concurrent writers never share it
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines([data] if isinstance(data, bytes) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    """``obj`` as indented, key-sorted JSON plus a newline, written atomically."""
    write_atomic(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """``header`` then ``rows``, written atomically; a float cell is its exact ``repr``, so pass ``float(x)``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buf.getvalue().encode("utf-8"))


def read_csv(path: str | Path, header: Sequence[str], parse: Callable[[list[str]], object]) -> list:
    """``parse`` of each row after ``header``; a wrong header, a row of the wrong width or a
    :class:`ValueError` from ``parse`` raises one :class:`FormatError` naming the file and line."""
    with open(path, "rb") as fh:
        reader = csv.reader(line.decode("utf-8") for line in fh)
        try:
            if tuple(next(reader, ())) != tuple(header):
                raise ValueError(f"expected header {','.join(header)!r}")
            out = []
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, expected {len(header)}")
                out.append(parse(row))
        except UnicodeDecodeError as e:  # raised before the reader counts the line
            raise FormatError(f"{path} line {reader.line_num + 1}: {e.reason}") from None
        except (ValueError, csv.Error) as e:
            raise FormatError(f"{path} line {max(reader.line_num, 1)}: {e}") from None
    return out


def write_checkpoint(path: str | Path, params: Mapping[str, np.ndarray]) -> None:
    """Stream ``params`` into ``path`` atomically (see :func:`write_atomic`)."""
    write_atomic(path, encode_chunks(params))


def read_checkpoint(
    path: str | Path, keep: Callable[[str], bool] | None = None
) -> dict[str, np.ndarray | Skipped]:
    """The name -> float64 array map stored in the container file ``path``.

    The file is parsed as it is read, tensor by tensor: only the arrays
    that come back are held in memory, never the file's bytes as a whole.
    Entries ``keep`` rejects are checked and skipped (see :func:`load_params`).
    """
    with open(path, "rb") as fh:
        return load_params(fh, keep)
