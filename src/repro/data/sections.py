"""The one row framing, shared by sketch rows (:meth:`TableSketch.to_bytes
<repro.lake.profiles.TableSketch.to_bytes>`) and prepared rows
(:mod:`repro.discovery.prepared_codec`); integers little-endian::

    magic | u32 skeleton length | skeleton | (u64 length | bytes) per section

The skeleton is JSON with fixed separators and ASCII escapes, so equal rows
give equal bytes; a section is little-endian numbers for ``np.frombuffer``.
A bad frame is a ``ValueError``.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Iterable

import numpy as np

__all__ = ["pack", "section_array", "unpack"]

_SKELETON = struct.Struct("<I")
_SECTION = struct.Struct("<Q")


def pack(magic: bytes, skeleton: object, sections: Iterable[bytes]) -> bytes:
    text = json.dumps(skeleton, separators=(",", ":")).encode("ascii")
    parts = [magic, _SKELETON.pack(len(text)), text]
    for section in sections:
        parts += [_SECTION.pack(len(section)), section]
    return b"".join(parts)


def unpack(magic: bytes, blob: bytes) -> tuple[object, list[memoryview]]:
    """The skeleton and the sections of a :func:`pack` row."""
    view = memoryview(blob)
    start = len(magic) + _SKELETON.size
    if view[: len(magic)] != magic or len(view) < start:
        raise ValueError("bad magic")
    (length,) = _SKELETON.unpack_from(view, len(magic))
    if start + length > len(view):
        raise ValueError("short skeleton")
    skeleton = json.loads(bytes(view[start : start + length]))
    sections, offset = [], start + length
    while offset < len(view):
        if offset + _SECTION.size > len(view):
            raise ValueError("short section length")
        (size,) = _SECTION.unpack_from(view, offset)
        offset += _SECTION.size
        if offset + size > len(view):
            raise ValueError("short section")
        sections.append(view[offset : offset + size])
        offset += size
    return skeleton, sections


def section_array(section: memoryview, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    """*section* as a read-only array of *dtype* and *shape*."""
    if len(section) != math.prod(shape) * np.dtype(dtype).itemsize:
        raise ValueError("section size disagrees with its shape")
    return np.frombuffer(section, dtype=dtype).reshape(shape)
