"""Whole-file checkpoint loaders, for tests.

Every `slanc` command reads a checkpoint in one streamed walk of
`slanc.model.open_safetensors`, one group of tensors at a time.  Tests
that want a whole file at once, as raw tensors or as a `ModelGraph`,
use these.  Test files import this module as they import `conftest`;
pytest does not collect it.
"""

from __future__ import annotations

import numpy as np

from slanc import safetensors_io
from slanc.model import (
    ModelConfig,
    ModelGraph,
    NameMap,
    config_sidecar_path,
    load_config,
    open_safetensors,
)


def load_tensors(path: str) -> dict[str, np.ndarray]:
    """Every tensor in the file, in stored precision, in header order.

    Each tensor is read by read_tensor into a buffer of its own, so every
    array is writable and no two share memory.
    """
    with safetensors_io.open_file(path) as handle:
        return {name: safetensors_io.read_tensor(handle, entry,
                                                 np.empty(entry.nbytes, dtype=np.uint8))
                for name, entry in safetensors_io.read_header(handle).items()}


def load_safetensors(path: str, name_map: NameMap | None = None,
                     config: ModelConfig | None = None) -> ModelGraph:
    """The whole graph of a checkpoint: the one walk of open_safetensors
    with every tensor it reads kept in its (role, layer) slot.  Its
    arrays are read-only and share no memory with each other.  Without
    config it reads the checkpoint's sidecar, as `slanc` does."""
    config = config or load_config(config_sidecar_path(path))
    with open_safetensors(path, config, name_map) as stream:
        return ModelGraph(stream.config, {(role, layer): array
                                          for (layer, _), held in stream._read()
                                          for role, array in held.items()
                                          if array is not None})
