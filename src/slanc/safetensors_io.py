"""Reader and writer for the safetensors single-file layout.

Byte layout: 8-byte little-endian unsigned header length N, then N
bytes of UTF-8 JSON mapping tensor name to {"dtype", "shape",
"data_offsets"} (plus an optional "__metadata__" object), then the data
section.  Offsets are relative to the first byte after the header;
tensor payloads are little-endian row-major and must not overlap.
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


def _decode_payload(dtype: str, buf: bytearray, offset: int, count: int) -> np.ndarray:
    """View count values of buf at offset in their stored precision."""
    flat = np.frombuffer(buf, dtype=_STORAGE_DTYPE[dtype], count=count, offset=offset)
    if dtype == "BF16":
        # BF16 is the high half of a float32: widen exactly, zero-filled.
        return (flat.astype(np.uint32) << 16).view(np.float32)
    return flat


def _encode_payload(dtype: str, values: np.ndarray) -> np.ndarray:
    """values cast once to the little-endian storage dtype, C order."""
    if dtype == "F16":
        with np.errstate(over="ignore"):
            return np.ascontiguousarray(values, dtype="<f2")
    if dtype == "BF16":
        bits = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
        # Round to nearest even on the dropped 16 bits.
        rounded = (bits + 0x7FFF + ((bits >> 16) & 1)) >> 16
        return rounded.astype("<u2")
    return np.ascontiguousarray(values, dtype="<f4")


def load_tensors(path: str) -> dict[str, np.ndarray]:
    """Read every tensor in the file in one pass, in stored precision.

    The file is read once into a single buffer; F32 and F16 tensors are
    writable views of it, BF16 tensors are widened exactly to float32.
    Payloads must not overlap, so no two arrays share memory.
    """
    try:
        with open(path, "rb") as handle:
            blob = bytearray(os.fstat(handle.fileno()).st_size)
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
        header = json.loads(blob[8 : 8 + header_len].decode("utf-8"))
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
            dtype = entry["dtype"]
            shape = [int(n) for n in entry["shape"]]
            begin, end = (int(n) for n in entry["data_offsets"])
        except (KeyError, TypeError, ValueError) as err:
            raise SafetensorsError(f"bad tensor entry: {err}", tensor=name) from err
        if dtype not in _STORAGE_DTYPE:
            raise SafetensorsError(f"unknown dtype {dtype!r}", tensor=name)
        count = math.prod(shape) if shape else 1
        expected = count * _STORAGE_DTYPE[dtype].itemsize
        if begin < 0 or end > data_len or begin > end:
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
        tensors[name] = flat.reshape(shape)
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
