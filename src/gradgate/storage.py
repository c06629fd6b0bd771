"""Binary container of every array artifact: checkpoints, sets, features, scores.

Layout: ascii magic, little-endian u16 format version, a length-prefixed
UTF-8 metadata block of ``key=value`` lines, then a u32 record count followed
by named tensor records. Each record is u16 name length, name bytes, u8 rank,
rank u32 dims, and the row-major float64 payload (little-endian).

Writers emit metadata keys in sorted order and floats with 17 significant
digits, so identical inputs produce byte-identical files. Every artifact,
container or text, is written through :func:`atomic_open`, so a file at its
final path is always complete, and :func:`read_header` checks that a file
is whole without reading its payloads.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct
from dataclasses import dataclass

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


def remove_stale_temporaries(directory) -> None:
    """Remove each ``<name>.<pid>.tmp`` in ``directory`` that
    :func:`atomic_open` left when process ``pid`` died before its rename.
    A live process's temporary file, a concurrent writer's, is kept."""
    for entry in os.scandir(directory):
        stem, _, pid = entry.name.removesuffix(".tmp").rpartition(".")
        if entry.name.endswith(".tmp") and stem and pid.isdigit():
            with contextlib.suppress(PermissionError, OverflowError, FileNotFoundError):
                try:
                    os.kill(int(pid), 0)  # PermissionError: another user's live process
                except ProcessLookupError:
                    os.remove(entry.path)


def write_container(path, magic: bytes, metadata: dict, records: list) -> None:
    """Write named float64 arrays, a rank-0 array as a rank-0 record.
    ``records`` is a list of (name, ndarray)."""
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
            arr = np.asarray(arr, dtype="<f8")
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.tobytes())  # row-major whatever the memory order


@dataclass
class Header:
    """A container without its payloads: the metadata and, per record, its
    name, dims and payload offset."""

    path: str
    metadata: dict
    records: list  # (name, dims, offset)

    def rows(self, name: str) -> int:
        """The first dim of record ``name``."""
        dims = next((dims for record, dims, _ in self.records if record == name), ())
        if not dims:
            raise RecordError(f"{self.path}: no {name!r} record of rank 1 or more")
        return dims[0]


def _parse(fh, size: int, path: str, magic: bytes) -> Header:
    """Parse a container's header from ``fh``, seeking past each payload,
    and check that the ``size``-byte file ends where its last payload does."""
    def take(n: int, what: str) -> bytes:
        chunk = fh.read(n)
        if len(chunk) < n:
            raise TruncatedError(f"{path}: file ends inside {what}")
        return chunk

    got_magic = take(5, "magic")
    if got_magic != magic:
        raise BadMagicError(f"{path}: expected magic {magic!r}, found {got_magic!r}")
    (version,) = struct.unpack("<H", take(2, "version"))
    if version != FORMAT_VERSION:
        raise VersionError(f"{path}: unsupported format version {version}")

    (meta_len,) = struct.unpack("<I", take(4, "metadata length"))
    meta_blob = take(meta_len, "metadata").decode("utf-8")
    metadata = {}
    if meta_blob:
        for line in meta_blob.split("\n"):
            key, _, value = line.partition("=")
            metadata[key] = value

    (n_records,) = struct.unpack("<I", take(4, "record count"))
    records = []
    for _ in range(n_records):
        (name_len,) = struct.unpack("<H", take(2, "record name length"))
        name = take(name_len, "record name").decode("utf-8")
        (rank,) = struct.unpack("<B", take(1, f"rank of {name}"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"dims of {name}"))
        offset = fh.tell()
        end = offset + 8 * math.prod(dims)
        if end > size:
            raise TruncatedError(f"{path}: file ends inside payload of {name}")
        records.append((name, dims, offset))
        fh.seek(end)
    if fh.tell() != size:
        raise TruncatedError(f"{path}: {size - fh.tell()} trailing bytes after last record")
    return Header(os.fspath(path), metadata, records)


def read_header(path, magic: bytes) -> Header:
    """Read a container's header and check that the file is whole, reading
    no payload. BadMagicError, VersionError and TruncatedError name the file."""
    with open(path, "rb") as fh:
        return _parse(fh, os.fstat(fh.fileno()).st_size, path, magic)


def read_container(path, magic: bytes):
    """Read a container, returning (metadata dict, list of (name, ndarray)).

    Fails as :func:`read_header` does; no partial result is ever returned.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    header = _parse(io.BytesIO(blob), len(blob), path, magic)
    return header.metadata, [
        (name, np.frombuffer(blob, "<f8", math.prod(dims), offset).reshape(dims).astype(np.float64))
        for name, dims, offset in header.records]
