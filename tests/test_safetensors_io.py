"""Tests for the safetensors reader and writer.

Oracles: files assembled by hand with struct.pack straight from the
layout definition, and numpy's float32/float16 codecs for payloads.
"""

from __future__ import annotations

import gc
import json
import os
import struct
import types
import warnings

import numpy as np
import pytest

from checkpoints import load_tensors
from memory_gates import traced_peak
from slanc import safetensors_io
from slanc.safetensors_io import (
    SafetensorsError,
    cast_into,
    read_header,
    read_tensor,
    save_tensors,
)


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


@pytest.mark.parametrize(
    "shape, offsets",
    [
        ([-2, -1], [0, 8]),  # product 2: numpy's reshape rejected it
        ([1 << 40, 1 << 40, 0], [0, 0]),  # empty, but past numpy's size
        ([2.7], [0, 8]),  # int() truncated it to [2]
        ([True], [0, 4]),  # int() read it as [1]
        ("2", [0, 8]),
        (None, [0, 8]),
    ],
    ids=["negative", "past-numpy-size", "float", "bool", "string", "null"],
)
def test_malformed_shape_names_tensor(tmp_path, shape, offsets):
    path = tmp_path / "shape.safetensors"
    _build_file(
        path,
        {"w": {"dtype": "F32", "shape": shape, "data_offsets": offsets}},
        b"\x00" * 8,
    )
    with pytest.raises(SafetensorsError, match=r"shape.*'w'"):
        load_tensors(str(path))


def test_malformed_offsets_name_tensor(tmp_path):
    path = tmp_path / "offsets.safetensors"
    for offsets in ([0.0, 8.0], [0, 8, 8], [-4, 4], [0, True], "0,8"):
        _build_file(
            path,
            {"w": {"dtype": "F32", "shape": [2], "data_offsets": offsets}},
            b"\x00" * 8,
        )
        with pytest.raises(SafetensorsError, match="data_offsets.*'w'"):
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
        "s": np.float64(3.0),  # 0-d: stored with shape [], not [1]
    }
    path = tmp_path / "rt.safetensors"
    save_tensors(str(path), tensors, dtype="F32")
    loaded = load_tensors(str(path))
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert loaded[name].shape == np.shape(tensors[name]), name
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


def test_a_failed_encode_leaves_the_old_file(tmp_path, monkeypatch):
    # Payloads are encoded while the temp file is open: a failure there
    # keeps the destination's bytes, removes the temp file and leaks no
    # file handle.
    path = tmp_path / "m.safetensors"
    path.write_bytes(b"old bytes")
    encode, calls = safetensors_io._encode_payload, []

    def failing_encode(dtype, values):
        calls.append(dtype)
        if len(calls) == 2:
            raise RuntimeError("encode failed")
        return encode(dtype, values)

    monkeypatch.setattr(safetensors_io, "_encode_payload", failing_encode)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="encode failed"):
            save_tensors(str(path), {"a": np.ones(3), "b": np.ones(3), "c": np.ones(3)})
        gc.collect()
    assert len(calls) == 2
    assert path.read_bytes() == b"old bytes"
    assert os.listdir(tmp_path) == ["m.safetensors"]
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_save_holds_one_encoded_payload(tmp_path):
    # Eight transposed ~1 MiB payloads: each is encoded and written in
    # turn, so the peak is about one payload and the header, not all 8.
    # Every dtype encodes through one float32 buffer (F16 straight into
    # its own); BF16 rounds on that buffer in place with one uint32
    # carry the buffer's size, then keeps the high halves.
    rng = np.random.default_rng(13)
    tensors = {f"t{i}": rng.standard_normal((512, 512 + 8 * i), dtype=np.float32).T
               for i in range(8)}
    largest = max(array.nbytes for array in tensors.values())  # as float32
    for dtype, bound, storage in (("F32", 1.5, np.float32), ("F16", 1.0, np.float16),
                                  ("BF16", 2.25, None)):
        path = tmp_path / f"{dtype}.safetensors"
        peak = traced_peak(lambda: save_tensors(str(path), tensors, dtype=dtype))
        header = 8 + struct.unpack("<Q", path.read_bytes()[:8])[0]
        assert peak <= bound * largest + header, (dtype, peak, largest, header)
        loaded = load_tensors(str(path))
        for name, array in tensors.items():
            if storage is None:  # BF16 keeps 8 significand bits
                np.testing.assert_allclose(loaded[name], array, rtol=2.0**-8)
            else:
                assert np.array_equal(loaded[name], array.astype(storage)), (dtype, name)


def test_missing_file_is_an_error(tmp_path):
    with pytest.raises(SafetensorsError, match="cannot read"):
        load_tensors(str(tmp_path / "absent.safetensors"))


def test_short_read_is_an_error(tmp_path, monkeypatch):
    # Read buffers are not zero-filled: a payload the file stops short of
    # (it shrank after its size was taken) must fail, naming the tensor,
    # before any array is made from it.
    path = tmp_path / "m.safetensors"
    save_tensors(str(path), {"w": np.arange(6.0).reshape(2, 3)})
    os.truncate(path, path.stat().st_size - 16)
    real_fstat = os.fstat
    monkeypatch.setattr(
        safetensors_io.os, "fstat",
        lambda fd: types.SimpleNamespace(st_size=real_fstat(fd).st_size + 16),
    )
    with pytest.raises(SafetensorsError,
                       match="short read: the file ends 8 bytes into a 24-byte payload.*'w'"):
        load_tensors(str(path))


def test_tensors_stream_through_one_caller_buffer(tmp_path):
    # read_header reads no payload; read_tensor fills the head of the
    # caller's buffer, and F32/F16 tensors are views of it.
    values = {"big": np.arange(12.0).reshape(3, 4) - 5.5, "small": np.array([0.25, -8.0])}
    for dtype in ("F32", "F16", "BF16"):
        path = tmp_path / f"{dtype}.safetensors"
        save_tensors(str(path), values, dtype=dtype)
        with open(path, "rb") as handle:
            entries = read_header(handle)
            assert handle.tell() == 8 + struct.unpack("<Q", path.read_bytes()[:8])[0]
            assert [(e.name, e.shape) for e in entries.values()] == [
                ("big", (3, 4)), ("small", (2,))]
            buffer = np.empty(max(e.nbytes for e in entries.values()), dtype=np.uint8)
            for name, entry in entries.items():
                tensor = read_tensor(handle, entry, buffer)
                assert tensor.tolist() == values[name].tolist(), (dtype, name)
                assert np.shares_memory(tensor, buffer) == (dtype != "BF16"), dtype


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


def _cast_inputs():
    """(label, array) pairs: transposed views that do and do not cross
    the 128-column block edge, plus the inputs that skip the blocks."""
    rng = np.random.default_rng(11)
    for cols in (1, 127, 128, 129, 300):
        stored = rng.standard_normal((cols, 37)) * 1e3
        yield f"{cols} columns", stored.T
        yield f"{cols} columns from float32", stored.astype(np.float32).T
    yield "zero rows", np.zeros((5, 0)).T
    yield "zero columns", np.zeros((0, 5)).T
    yield "C-contiguous", rng.standard_normal((9, 300))
    yield "1-D", rng.standard_normal(300)
    yield "strided slice", rng.standard_normal((6, 600))[:, ::2]


@pytest.mark.parametrize("dtype", [np.float64, "<f4", "<f2"])
def test_cast_into_matches_the_plain_cast(dtype):
    for label, values in _cast_inputs():
        got = np.empty(values.shape, dtype)
        with np.errstate(over="ignore"):
            cast_into(got, values)
            want = np.ascontiguousarray(values, dtype=dtype)
        assert got.tobytes() == want.tobytes(), label


def test_f16_save_of_a_wide_transposed_tensor_overflows_quietly(tmp_path):
    # 1e6 is past binary16's largest finite value: inf, not a warning.
    stored = np.random.default_rng(12).standard_normal((300, 7))
    stored[::3] = np.copysign(1e6, stored[::3])
    path = tmp_path / "wide16.safetensors"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        save_tensors(str(path), {"v": stored.T}, dtype="F16")
        loaded = load_tensors(str(path))["v"]
    with np.errstate(over="ignore"):
        want = stored.T.astype(np.float16)
    assert np.isinf(loaded[:, ::3]).all() and np.isfinite(loaded[:, 1::3]).all()
    assert loaded.tobytes() == want.tobytes()
