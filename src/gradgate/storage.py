"""Binary container of every array artifact: checkpoints, sets, features, scores.

Layout: ascii magic, little-endian u16 format version, a length-prefixed
UTF-8 metadata block of ``key=value`` lines, then a u32 record count followed
by named tensor records. Each record is u16 name length, name bytes, u8 rank,
rank u32 dims, and the row-major float64 payload (little-endian).

Writers emit metadata keys in sorted order and floats with 17 significant
digits, so identical inputs produce byte-identical files. Every artifact,
container or text, is written through :func:`atomic_open`, so a file at its
final path is always complete.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

FORMAT_VERSION = 1


class ContainerError(Exception):
    """Base class for container read failures."""


class BadMagicError(ContainerError):
    pass


class VersionError(ContainerError):
    pass


class TruncatedError(ContainerError):
    pass


class RecordError(ContainerError):
    """A tensor record disagrees with what the reader expects."""


def fmt_float(x: float) -> str:
    """Render a float with enough digits to round-trip exactly."""
    return format(float(x), ".17g")


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` for writing; on a clean exit
    it replaces ``path`` with ``os.replace``. On an exception the temporary
    file is removed and ``path`` is left as it was; a process killed
    mid-write leaves only the temporary file, which no artifact name
    matches. So the cache never trusts a truncated artifact. There is no
    fsync: this covers a process crash, not a power loss."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_container(path, magic: bytes, metadata: dict, records: list) -> None:
    """Write named float64 arrays. ``records`` is a list of (name, ndarray)."""
    if len(magic) != 5:
        raise ValueError("magic must be 5 bytes")
    meta_lines = []
    for key in sorted(metadata):
        value = metadata[key]
        if isinstance(value, float):
            value = fmt_float(value)
        meta_lines.append(f"{key}={value}")
    meta_blob = "\n".join(meta_lines).encode("utf-8")

    with atomic_open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<H", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(meta_blob)))
        fh.write(meta_blob)
        fh.write(struct.pack("<I", len(records)))
        for name, arr in records:
            arr = np.ascontiguousarray(arr, dtype="<f8")
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.tobytes())


def read_container(path, magic: bytes):
    """Read a container, returning (metadata dict, list of (name, ndarray)).

    Raises BadMagicError / VersionError / TruncatedError for the matching
    failure mode; no partial result is ever returned.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    view = memoryview(blob)
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise TruncatedError(f"file ends inside {what}")
        chunk = view[pos:pos + n]
        pos += n
        return chunk

    got_magic = bytes(take(5, "magic"))
    if got_magic != magic:
        raise BadMagicError(f"expected magic {magic!r}, found {got_magic!r}")
    (version,) = struct.unpack("<H", take(2, "version"))
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported format version {version}")

    (meta_len,) = struct.unpack("<I", take(4, "metadata length"))
    meta_blob = bytes(take(meta_len, "metadata")).decode("utf-8")
    metadata = {}
    if meta_blob:
        for line in meta_blob.split("\n"):
            key, _, value = line.partition("=")
            metadata[key] = value

    (n_records,) = struct.unpack("<I", take(4, "record count"))
    records = []
    for _ in range(n_records):
        (name_len,) = struct.unpack("<H", take(2, "record name length"))
        name = bytes(take(name_len, "record name")).decode("utf-8")
        (rank,) = struct.unpack("<B", take(1, f"rank of {name}"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"dims of {name}"))
        count = 1
        for d in dims:
            count *= d
        payload = take(8 * count, f"payload of {name}")
        arr = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
        records.append((name, arr))
    if pos != len(view):
        raise TruncatedError(f"{len(view) - pos} trailing bytes after last record")
    return metadata, records
