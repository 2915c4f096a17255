"""Reader and writer for the safetensors single-file layout.

Byte layout: 8-byte little-endian unsigned header length N, then N
bytes of UTF-8 JSON mapping tensor name to {"dtype", "shape",
"data_offsets"} (plus an optional "__metadata__" object), then the data
section.  Shapes and offsets are lists of non-negative integers;
offsets are relative to the first byte after the header; tensor
payloads are little-endian row-major and must not overlap.
Supported dtypes are F32, F16 and BF16.  Loading keeps the stored
precision (BF16 widens exactly to float32); callers widen to float64.
"""

from __future__ import annotations

import json
import math
import os
import struct

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


def _decode_payload(dtype: str, buf: np.ndarray, offset: int, count: int) -> np.ndarray:
    """View count values of buf at offset in their stored precision."""
    flat = np.frombuffer(buf, dtype=_STORAGE_DTYPE[dtype], count=count, offset=offset)
    if dtype == "BF16":
        # BF16 is the high half of a float32: widen exactly, zero-filled.
        return (flat.astype(np.uint32) << 16).view(np.float32)
    return flat


# Columns per block of a strided cast: a block of a transposed 2-D view
# and its C-order destination both fit in cache.
_CAST_BLOCK = 128


def cast_c_order(values: np.ndarray, dtype) -> np.ndarray:
    """values cast to dtype in C order: the bits of
    np.ascontiguousarray(values, dtype=dtype).

    A non-C-contiguous 2-D view (a transposed tensor) is copied one
    block of columns at a time; one strided cast over the whole view
    misses the cache on nearly every element.
    """
    if values.ndim != 2 or values.flags.c_contiguous:
        return np.ascontiguousarray(values, dtype=dtype)
    out = np.empty(values.shape, dtype=dtype)
    for j in range(0, values.shape[1], _CAST_BLOCK):
        out[:, j : j + _CAST_BLOCK] = values[:, j : j + _CAST_BLOCK]
    return out


def _encode_payload(dtype: str, values: np.ndarray) -> np.ndarray:
    """values cast once to the little-endian storage dtype, C order."""
    if dtype == "F16":
        with np.errstate(over="ignore"):
            return cast_c_order(values, "<f2")
    if dtype == "BF16":
        bits = cast_c_order(values, np.float32).view(np.uint32)
        # Round to nearest even on the dropped 16 bits.
        rounded = (bits + 0x7FFF + ((bits >> 16) & 1)) >> 16
        return rounded.astype("<u2")
    return cast_c_order(values, "<f4")


def _is_index_list(value) -> bool:
    """Whether value is a list of non-negative ints.  JSON floats and
    booleans are not: int() would silently truncate them."""
    return isinstance(value, list) and all(type(n) is int and n >= 0 for n in value)


def load_tensors(path: str) -> dict[str, np.ndarray]:
    """Read every tensor in the file in one pass, in stored precision.

    The file is read once into a single buffer; F32 and F16 tensors are
    writable views of it, BF16 tensors are widened exactly to float32.
    Payloads must not overlap, so no two arrays share memory.  The
    buffer is not zero-filled first: a read that falls short of the
    file size is an error, so no uninitialised byte reaches an array.
    """
    try:
        with open(path, "rb") as handle:
            blob = np.empty(os.fstat(handle.fileno()).st_size, dtype=np.uint8)
            size = handle.readinto(blob)
    except OSError as err:
        raise SafetensorsError(f"cannot read {path}: {err}") from err
    if size != len(blob):
        raise SafetensorsError(f"short read of {path}: {size} of {len(blob)} bytes")
    if len(blob) < 8:
        raise SafetensorsError("file too short for the 8-byte header length")
    (header_len,) = struct.unpack_from("<Q", blob, 0)
    if 8 + header_len > len(blob):
        raise SafetensorsError(
            f"header length {header_len} exceeds file size {len(blob)}"
        )
    try:
        header = json.loads(blob[8 : 8 + header_len].tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise SafetensorsError(f"malformed header JSON: {err}") from err
    if not isinstance(header, dict):
        raise SafetensorsError("header is not a JSON object")
    data_start = 8 + header_len
    data_len = len(blob) - data_start
    tensors: dict[str, np.ndarray] = {}
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
        count = math.prod(shape)
        expected = count * _STORAGE_DTYPE[dtype].itemsize
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
        flat = _decode_payload(dtype, blob, data_start + begin, count)
        try:
            tensors[name] = flat.reshape(shape)
        except ValueError as err:
            # An empty tensor whose other dimensions overflow numpy's size.
            raise SafetensorsError(f"shape {shape} is too large: {err}",
                                   tensor=name) from err
    spans.sort()
    for (_, prev_end, prev_name), (begin, end, name) in zip(spans, spans[1:]):
        if begin < prev_end:
            raise SafetensorsError(
                f"data_offsets [{begin}, {end}] overlap those of {prev_name!r}",
                tensor=name,
            )
    return tensors


def save_tensors(path: str, tensors: dict[str, np.ndarray], dtype: str = "F32") -> None:
    """Write tensors (any float array in, stored as dtype) atomically.

    Each tensor is cast once to its storage dtype and streamed to the
    file after the header.  Names are laid out in sorted order with a
    sorted-key header, so the same tensors always produce the same
    bytes.
    """
    if dtype not in _STORAGE_DTYPE:
        raise SafetensorsError(f"unknown dtype {dtype!r}")
    header: dict[str, dict] = {}
    payloads: list[np.ndarray] = []
    offset = 0
    for name in sorted(tensors):
        raw = _encode_payload(dtype, tensors[name])
        header[name] = {
            "dtype": dtype,
            "shape": list(raw.shape),
            "data_offsets": [offset, offset + raw.nbytes],
        }
        payloads.append(raw)
        offset += raw.nbytes
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    serialization.atomic_write_bytes(
        path, struct.pack("<Q", len(header_bytes)), header_bytes, *payloads
    )
