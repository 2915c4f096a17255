"""Tests for deterministic JSON emission and atomic writes.

Oracle: Python's float parser.  Parsing what we emit must recover the
exact bit pattern of every double.
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct

import numpy as np
import pytest

from slanc.cli import main
from slanc.serialization import atomic_write, atomic_write_text, dumps


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _round_trip_bits(values):
    back = json.loads(dumps(values))
    return [_bits(x) for x in back], [_bits(x) for x in values]


def test_format_double_round_trips_landmarks():
    got, want = _round_trip_bits(
        [0.0, -0.0, 1.0, -1.0, 0.1, 1e-5, 65504.0, 2.0**-24, 1e300, 5e-324]
    )
    assert got == want


def test_format_double_round_trips_random_doubles():
    rng = np.random.default_rng(123)
    mantissas = rng.uniform(-1.0, 1.0, size=20000)
    exponents = rng.integers(-300, 300, size=20000)
    got, want = _round_trip_bits(
        [math.ldexp(m, int(e)) for m, e in zip(mantissas.tolist(), exponents.tolist())]
    )
    assert got == want


def test_dumps_writes_non_finite_as_json_tokens():
    text = dumps({"x": math.nan, "y": math.inf, "z": -math.inf})
    assert ": NaN," in text and ": Infinity," in text and ": -Infinity\n" in text
    back = json.loads(text)
    assert math.isnan(back["x"]) and back["y"] == math.inf and back["z"] == -math.inf


def test_dumps_loads_round_trip():
    doc = {
        "name": "table",
        "count": 3,
        "ok": True,
        "missing": None,
        "values": [0.1, 2.0**-30, 1.0 / 3.0, -65504.0],
        "nested": {"s": 16.078829222430947, "flags": [False, True]},
    }
    assert json.loads(dumps(doc)) == doc


def test_dumps_deterministic_with_trailing_newline():
    doc = {"a": [1.5, 2], "b": {"c": "text"}}
    first, second = dumps(doc), dumps(doc)
    assert first == second
    assert first.endswith("\n")


def test_dumps_preserves_insertion_order():
    text = dumps({"zebra": 1, "apple": 2})
    assert text.index('"zebra"') < text.index('"apple"')


def test_dumps_rejects_unsupported():
    with pytest.raises(TypeError):
        dumps({"x": object()})


def test_dumps_empty_containers():
    assert json.loads(dumps({"a": [], "b": {}})) == {"a": [], "b": {}}


def test_atomic_write_replaces_contents(tmp_path):
    path = tmp_path / "out.json"
    atomic_write_text(str(path), "first\n")
    atomic_write_text(str(path), "second\n")
    assert path.read_text() == "second\n"
    atomic_write(str(path), lambda handle: handle.writelines([b"\x00", b"\x01"]))
    assert path.read_bytes() == b"\x00\x01"
    # No temp litter left behind.
    assert os.listdir(tmp_path) == ["out.json"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_written_files_get_the_mode_the_umask_gives(tmp_path, umask, mode):
    # What open(path, "w") gives a new file, for a table or report and
    # for gen-model's checkpoint and config sidecar.
    old = os.umask(umask)
    try:
        atomic_write_text(str(tmp_path / "t.json"), "{}\n")
        assert main(["gen-model", "--d", "8", "--layers", "1",
                     "-o", str(tmp_path / "m.safetensors")]) == 0
    finally:
        os.umask(old)
    for name in ("t.json", "m.safetensors", "m.config.json"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode, name
