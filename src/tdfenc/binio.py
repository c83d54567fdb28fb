"""Little-endian layout helpers shared by the TDF* binary file family.

Every file starts with a 4-byte magic, a uint32 format version, then a
format-specific sequence of uint32 header fields and packed float payloads.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

FORMAT_VERSION = 1


def pack_header(magic: bytes, *fields: int) -> bytes:
    return magic + struct.pack("<" + "I" * (len(fields) + 1), FORMAT_VERSION, *fields)


def atomic_write(path, *chunks: bytes) -> None:
    """Write the chunks to ``path`` through a temporary file in its directory.

    ``os.replace`` swaps the finished file in, so a failure midway leaves the
    previous file untouched and the temporary removed. This guards against a
    failing process, not against power loss: nothing is fsynced.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(temporary, "xb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def read_exact(fh, count: int, path) -> bytes:
    # counts come from file headers: never ask read() for more than the file holds
    data = fh.read(min(count, os.fstat(fh.fileno()).st_size - fh.tell()))
    if len(data) != count:
        raise FormatError(f"corrupt file: {path}: expected {count} more bytes, found {len(data)}")
    return data


def check_magic(fh, magic: bytes, path) -> None:
    found = fh.read(len(magic))
    if found != magic:
        raise FormatError(f"unsupported format: {path}: bad magic {found!r}")
    (version,) = struct.unpack("<I", read_exact(fh, 4, path))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format: {path}: unknown version {version}")


def check_eof(fh, path) -> None:
    if fh.read(1) != b"":
        raise FormatError(f"corrupt file: {path}: trailing bytes after payload")


def read_u32(fh, count: int, path) -> tuple[int, ...]:
    return struct.unpack("<" + "I" * count, read_exact(fh, 4 * count, path))


def read_f32(fh, count: int, path) -> np.ndarray:
    return np.frombuffer(read_exact(fh, 4 * count, path), dtype="<f4").copy()


def read_f64(fh, count: int, path) -> np.ndarray:
    return np.frombuffer(read_exact(fh, 8 * count, path), dtype="<f8").copy()


def f32_bytes(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype="<f4").tobytes()


def f64_bytes(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()
