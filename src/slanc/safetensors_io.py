"""Reader and writer for the safetensors single-file layout.

Byte layout: 8-byte little-endian unsigned header length N, then N
bytes of UTF-8 JSON mapping tensor name to {"dtype", "shape",
"data_offsets"} (plus an optional "__metadata__" object), then the data
section.  Shapes and offsets are lists of non-negative integers;
offsets are relative to the first byte after the header; tensor
payloads are little-endian row-major and must not overlap.
Supported dtypes are F32, F16 and BF16.

Reading streams: read_header validates the header of an open file
without touching a payload, and read_tensor reads one payload, or a
range of its rows, by offset into a buffer the caller owns, so a loader
can pass every tensor through one reused buffer of a fixed size instead
of holding the whole file or a whole payload.  Tensors keep their
stored precision, except that BF16 widens exactly to float32.  Every
supported dtype widens exactly to float32, so slanc.model holds weight
matrices as float32 and only gains and shifts as float64.

Writing streams too: save_tensors lays the header out from the tensors'
shapes alone, then encodes and writes one payload at a time, each cast
into C order by the same cast_into the reader uses.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import serialization

# BF16 has no numpy dtype: it is stored and read as raw 16-bit words.
_STORAGE_DTYPE = {
    "F32": np.dtype("<f4"),
    "F16": np.dtype("<f2"),
    "BF16": np.dtype("<u2"),
}


class SafetensorsError(Exception):
    """Malformed file or unsupported content; names the tensor if known."""

    def __init__(self, message: str, tensor: str | None = None):
        self.tensor = tensor
        super().__init__(message if tensor is None else f"{message} (tensor {tensor!r})")


# Columns per block of a strided cast: a block of a transposed 2-D view
# and its C-order destination both fit in cache.
_CAST_BLOCK = 128


def cast_into(out: np.ndarray, values: np.ndarray) -> None:
    """out[...] = values.

    A non-C-contiguous 2-D view (a transposed tensor) is copied one
    block of columns at a time; one strided cast over the whole view
    misses the cache on nearly every element.
    """
    if values.ndim != 2 or values.flags.c_contiguous:
        out[...] = values
        return
    for j in range(0, values.shape[1], _CAST_BLOCK):
        out[:, j : j + _CAST_BLOCK] = values[:, j : j + _CAST_BLOCK]


def _encode_payload(dtype: str, values: np.ndarray) -> np.ndarray:
    """values cast once to the little-endian storage dtype, C order."""
    out = np.empty(np.shape(values), "<f2" if dtype == "F16" else "<f4")
    if dtype == "F16":
        with np.errstate(over="ignore"):
            cast_into(out, values)
        return out
    cast_into(out, values)
    if dtype == "BF16":
        # Round to nearest even on the dropped 16 bits, in place: bits +=
        # 0x7FFF + (bits >> 16 & 1), then bits >>= 16.
        bits = out.view(np.uint32)
        carry = bits >> 16
        carry &= 1
        carry += 0x7FFF
        bits += carry
        del carry
        bits >>= 16
        return bits.astype("<u2")
    return out


def _is_index_list(value) -> bool:
    """Whether value is a list of non-negative ints.  JSON floats and
    booleans are not: int() would silently truncate them."""
    return isinstance(value, list) and all(type(n) is int and n >= 0 for n in value)


@dataclass(frozen=True)
class TensorEntry:
    """One tensor of a validated header.  Its payload is the nbytes
    bytes at offset, counted from the start of the file."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int
    nbytes: int


def open_file(path: str):
    """path opened for binary reading; SafetensorsError if it cannot be."""
    try:
        return open(path, "rb")
    except OSError as err:
        raise SafetensorsError(f"cannot read {path}: {err}") from err


def read_header(handle) -> dict[str, TensorEntry]:
    """The tensor entries of an open file, in header order.

    Every entry has a known dtype, a shape and data_offsets that are
    lists of non-negative integers, a payload of exactly the bytes its
    shape needs that lies inside the file, and no payload overlaps
    another.  The "__metadata__" entry is skipped.  No payload is read.
    """
    size = os.fstat(handle.fileno()).st_size
    handle.seek(0)
    head = handle.read(8)
    if len(head) < 8:
        raise SafetensorsError("file too short for the 8-byte header length")
    (header_len,) = struct.unpack("<Q", head)
    if 8 + header_len > size:
        raise SafetensorsError(f"header length {header_len} exceeds file size {size}")
    raw = handle.read(header_len)
    if len(raw) != header_len:
        raise SafetensorsError(f"short read of the header: {len(raw)} of "
                               f"{header_len} bytes")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise SafetensorsError(f"malformed header JSON: {err}") from err
    if not isinstance(header, dict):
        raise SafetensorsError("header is not a JSON object")
    data_start = 8 + header_len
    data_len = size - data_start
    entries: dict[str, TensorEntry] = {}
    spans: list[tuple[int, int, str]] = []
    for name, entry in header.items():
        if name == "__metadata__":
            continue
        if not isinstance(entry, dict):
            raise SafetensorsError("tensor entry is not an object", tensor=name)
        try:
            dtype, shape, offsets = (
                entry[key] for key in ("dtype", "shape", "data_offsets")
            )
        except KeyError as err:
            raise SafetensorsError(
                f"bad tensor entry: missing {err}", tensor=name
            ) from err
        if not isinstance(dtype, str) or dtype not in _STORAGE_DTYPE:
            raise SafetensorsError(f"unknown dtype {dtype!r}", tensor=name)
        if not _is_index_list(shape):
            raise SafetensorsError(
                f"shape must be a list of non-negative integers, got {shape!r}",
                tensor=name,
            )
        if not _is_index_list(offsets) or len(offsets) != 2:
            raise SafetensorsError(
                f"data_offsets must be two non-negative integers, got {offsets!r}",
                tensor=name,
            )
        begin, end = offsets
        expected = math.prod(shape) * _STORAGE_DTYPE[dtype].itemsize
        if end > data_len or begin > end:
            raise SafetensorsError(
                f"data_offsets [{begin}, {end}] outside data section "
                f"of {data_len} bytes",
                tensor=name,
            )
        if end - begin != expected:
            raise SafetensorsError(
                f"payload is {end - begin} bytes, shape {shape} as {dtype} "
                f"needs {expected}",
                tensor=name,
            )
        if begin < end:
            spans.append((begin, end, name))
        entries[name] = TensorEntry(name, dtype, tuple(shape), data_start + begin,
                                    expected)
    spans.sort()
    for (_, prev_end, prev_name), (begin, end, name) in zip(spans, spans[1:]):
        if begin < prev_end:
            raise SafetensorsError(
                f"data_offsets [{begin}, {end}] overlap those of {prev_name!r}",
                tensor=name,
            )
    return entries


def read_tensor(handle, entry: TensorEntry, buffer: np.ndarray,
                rows: range | None = None) -> np.ndarray:
    """entry's tensor, or only the rows of its first axis that rows names,
    in stored precision, read by offset from the open file into the head
    of buffer (a uint8 array at least as long as the bytes read).

    F32 and F16 tensors are views of buffer, so they hold only until
    buffer is read into again; BF16 tensors are widened exactly to a new
    float32 array.  buffer need not be zero-filled: a read that stops
    short is an error, so no stale byte reaches a tensor.  The error
    counts the bytes the file holds from the start of the payload, not
    of the rows, so a payload read in row ranges fails as one read whole.
    """
    shape, skip, nbytes = entry.shape, 0, entry.nbytes
    if rows is not None:
        row = math.prod(entry.shape[1:]) * _STORAGE_DTYPE[entry.dtype].itemsize
        shape, skip, nbytes = (len(rows), *entry.shape[1:]), rows.start * row, len(rows) * row
    view = buffer[:nbytes]
    handle.seek(entry.offset + skip)
    got = handle.readinto(view)
    if got != nbytes:
        raise SafetensorsError(f"short read: the file ends {skip + got} bytes into a "
                               f"{entry.nbytes}-byte payload", tensor=entry.name)
    flat = np.frombuffer(view, dtype=_STORAGE_DTYPE[entry.dtype])
    if entry.dtype == "BF16":
        # BF16 is the high half of a float32: widen exactly, zero-filled.
        wide = flat.astype(np.uint32)
        wide <<= 16
        flat = wide.view(np.float32)
    try:
        return flat.reshape(shape)
    except ValueError as err:
        # An empty tensor whose other dimensions overflow numpy's size.
        raise SafetensorsError(f"shape {list(entry.shape)} is too large: {err}",
                               tensor=entry.name) from err


def save_tensors(path: str, tensors: dict[str, np.ndarray], dtype: str = "F32") -> None:
    """Write tensors (any float array in, stored as dtype) atomically.

    The header is laid out from each tensor's shape alone, names in
    sorted order with sorted keys, so the same tensors always produce
    the same bytes.  Each tensor is then cast to its storage dtype and
    written after the header one at a time, so only one encoded payload
    is held.
    """
    if dtype not in _STORAGE_DTYPE:
        raise SafetensorsError(f"unknown dtype {dtype!r}")
    header: dict[str, dict] = {}
    offset = 0
    for name in sorted(tensors):
        shape = list(np.shape(tensors[name]))
        nbytes = math.prod(shape) * _STORAGE_DTYPE[dtype].itemsize
        header[name] = {"dtype": dtype, "shape": shape,
                        "data_offsets": [offset, offset + nbytes]}
        offset += nbytes
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    serialization.atomic_write_bytes(path, itertools.chain(
        (struct.pack("<Q", len(head)), head),
        (_encode_payload(dtype, tensors[name]) for name in header)))
