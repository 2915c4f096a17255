"""Tests for the safetensors reader and writer.

Oracles: files assembled by hand with struct.pack straight from the
layout definition, and numpy's float32/float16 codecs for payloads.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from slanc.safetensors_io import SafetensorsError, load_tensors, save_tensors


def _build_file(path, header: dict, data: bytes) -> None:
    header_bytes = json.dumps(header).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(struct.pack("<Q", len(header_bytes)))
        handle.write(header_bytes)
        handle.write(data)


def test_minimal_f32_file_decodes_written_bytes(tmp_path):
    path = tmp_path / "one.safetensors"
    values = [1.5, -2.25, 0.0, 3.0]
    _build_file(
        path,
        {"w": {"dtype": "F32", "shape": [2, 2], "data_offsets": [0, 16]}},
        struct.pack("<4f", *values),
    )
    tensors = load_tensors(str(path))
    assert set(tensors) == {"w"}
    assert tensors["w"].shape == (2, 2)
    assert tensors["w"].tolist() == [[1.5, -2.25], [0.0, 3.0]]


def test_f16_known_patterns(tmp_path):
    # 0x3C00 and 0x4000 are the binary16 encodings of 1.0 and 2.0.
    path = tmp_path / "half.safetensors"
    _build_file(
        path,
        {"v": {"dtype": "F16", "shape": [2], "data_offsets": [0, 4]}},
        struct.pack("<2H", 0x3C00, 0x4000),
    )
    assert load_tensors(str(path))["v"].tolist() == [1.0, 2.0]


def test_bf16_is_high_half_of_float32(tmp_path):
    path = tmp_path / "bf.safetensors"
    patterns = [0x3F80, 0xC049, 0x0000, 0x4000]
    _build_file(
        path,
        {"v": {"dtype": "BF16", "shape": [4], "data_offsets": [0, 8]}},
        struct.pack("<4H", *patterns),
    )
    expected = [
        struct.unpack("<f", struct.pack("<I", p << 16))[0] for p in patterns
    ]
    assert load_tensors(str(path))["v"].tolist() == expected


def test_header_length_exceeding_file_size(tmp_path):
    path = tmp_path / "trunc.safetensors"
    path.write_bytes(struct.pack("<Q", 10_000) + b"{}")
    with pytest.raises(SafetensorsError, match="exceeds file size"):
        load_tensors(str(path))


def test_file_too_short_for_header(tmp_path):
    path = tmp_path / "short.safetensors"
    path.write_bytes(b"\x01\x02\x03")
    with pytest.raises(SafetensorsError, match="too short"):
        load_tensors(str(path))


def test_malformed_header_json(tmp_path):
    path = tmp_path / "bad.safetensors"
    garbage = b"{not json"
    path.write_bytes(struct.pack("<Q", len(garbage)) + garbage)
    with pytest.raises(SafetensorsError, match="malformed header JSON"):
        load_tensors(str(path))
    path.write_bytes(struct.pack("<Q", 2) + b"[]")
    with pytest.raises(SafetensorsError, match="not a JSON object"):
        load_tensors(str(path))


def test_unknown_dtype_names_tensor(tmp_path):
    path = tmp_path / "dtype.safetensors"
    _build_file(
        path,
        {"odd": {"dtype": "F64", "shape": [1], "data_offsets": [0, 8]}},
        b"\x00" * 8,
    )
    with pytest.raises(SafetensorsError, match="'odd'"):
        load_tensors(str(path))


def test_bad_offsets_name_tensor(tmp_path):
    path = tmp_path / "offsets.safetensors"
    _build_file(
        path,
        {"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 64]}},
        b"\x00" * 8,
    )
    with pytest.raises(SafetensorsError, match="outside data section.*'w'"):
        load_tensors(str(path))


def test_payload_size_mismatch_names_tensor(tmp_path):
    path = tmp_path / "size.safetensors"
    _build_file(
        path,
        {"w": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}},
        b"\x00" * 8,
    )
    with pytest.raises(SafetensorsError, match="needs 12.*'w'"):
        load_tensors(str(path))


def test_metadata_entry_is_skipped(tmp_path):
    path = tmp_path / "meta.safetensors"
    _build_file(
        path,
        {
            "__metadata__": {"format": "pt"},
            "v": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
        },
        struct.pack("<f", 7.0),
    )
    assert set(load_tensors(str(path))) == {"v"}


def test_save_load_round_trip_f32(tmp_path):
    rng = np.random.default_rng(5)
    tensors = {
        "a": rng.standard_normal((3, 4)).astype(np.float32).astype(np.float64),
        "b": rng.standard_normal(6).astype(np.float32).astype(np.float64),
    }
    path = tmp_path / "rt.safetensors"
    save_tensors(str(path), tensors, dtype="F32")
    loaded = load_tensors(str(path))
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])


def test_save_load_round_trip_f16(tmp_path):
    # Values already on the binary16 grid survive exactly.
    rng = np.random.default_rng(6)
    values = rng.standard_normal((2, 5)).astype(np.float16).astype(np.float64)
    path = tmp_path / "rt16.safetensors"
    save_tensors(str(path), {"v": values}, dtype="F16")
    assert np.array_equal(load_tensors(str(path))["v"], values)


def test_save_f16_rounds_like_numpy(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.standard_normal(257) * 10.0
    path = tmp_path / "round16.safetensors"
    save_tensors(str(path), {"v": values}, dtype="F16")
    expected = values.astype(np.float16).astype(np.float64)
    assert np.array_equal(load_tensors(str(path))["v"], expected)


def test_save_load_round_trip_bf16(tmp_path):
    # Build values directly from BF16 bit patterns, save, load: exact.
    patterns = np.array([0x0000, 0x3F80, 0xBF80, 0x4049, 0x7F7F], dtype=np.uint32)
    values = (patterns << 16).view(np.float32).astype(np.float64)
    path = tmp_path / "rtbf.safetensors"
    save_tensors(str(path), {"v": values}, dtype="BF16")
    assert np.array_equal(load_tensors(str(path))["v"], values)


def test_bf16_write_rounds_to_nearest_even(tmp_path):
    # 1 + 2^-8 sits exactly between BF16 neighbours 1.0 and 1 + 2^-7;
    # ties-to-even keeps the even mantissa, 1.0.  1 + 3*2^-9 is above
    # the midpoint and must go up.
    path = tmp_path / "bfround.safetensors"
    save_tensors(
        str(path),
        {"v": np.array([1.0 + 2.0**-8, 1.0 + 3.0 * 2.0**-9])},
        dtype="BF16",
    )
    assert load_tensors(str(path))["v"].tolist() == [1.0, 1.0 + 2.0**-7]


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(8)
    tensors = {"z": rng.standard_normal(9), "a": rng.standard_normal((2, 2))}
    first, second = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
    save_tensors(str(first), tensors)
    save_tensors(str(second), dict(reversed(tensors.items())))
    assert first.read_bytes() == second.read_bytes()


def test_missing_file_is_an_error(tmp_path):
    with pytest.raises(SafetensorsError, match="cannot read"):
        load_tensors(str(tmp_path / "absent.safetensors"))


def test_load_keeps_stored_precision_in_writable_arrays(tmp_path):
    values = np.array([[1.5, -2.0], [0.25, 3.0]])
    for dtype, want in (("F32", np.float32), ("F16", np.float16), ("BF16", np.float32)):
        path = tmp_path / f"{dtype}.safetensors"
        save_tensors(str(path), {"a": values, "b": -values}, dtype=dtype)
        loaded = load_tensors(str(path))
        assert loaded["a"].dtype == want and loaded["b"].dtype == want, dtype
        loaded["a"][0, 0] = 7.0  # writable, and no two tensors share memory
        assert loaded["a"].tolist() == [[7.0, -2.0], [0.25, 3.0]]
        assert loaded["b"].tolist() == (-values).tolist()


def test_overlapping_offsets_are_rejected(tmp_path):
    path = tmp_path / "overlap.safetensors"
    _build_file(
        path,
        {
            "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
            "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
        },
        b"\x00" * 12,
    )
    with pytest.raises(SafetensorsError, match="overlap those of 'a'.*'b'"):
        load_tensors(str(path))
    # Adjacent payloads and an empty tensor at a shared offset are fine.
    _build_file(
        path,
        {
            "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
            "e": {"dtype": "F32", "shape": [0], "data_offsets": [4, 4]},
            "b": {"dtype": "F32", "shape": [1], "data_offsets": [8, 12]},
        },
        struct.pack("<3f", 1.0, 2.0, 3.0),
    )
    loaded = load_tensors(str(path))
    assert loaded["a"].tolist() == [1.0, 2.0] and loaded["b"].tolist() == [3.0]
    assert loaded["e"].shape == (0,)
