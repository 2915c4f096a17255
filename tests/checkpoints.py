"""The in-memory model oracle and whole-file checkpoint helpers, for tests.

Every `slanc` command reads a checkpoint in one streamed walk of
`slanc.model.open_safetensors`, one group of tensors at a time, and
`gen-model` writes one in one walk of `draw_synthetic` through
`save_safetensors`, one tensor at a time.  Tests that want a whole model
at once use the oracle here instead: a `ModelGraph` holds every tensor
in memory, `generate_synthetic` collects the draw walk into one,
`load_safetensors` the read walk, and `save_graph` writes one through
`to_tensor_dict` and the whole-dict save, `save_tensor_dict`.  A graph's
walks are built on `slanc.model`'s own slot order (`_slots`, `_grouped`,
`_steps`) and hashing (`_hash_tensor`), so norm order and the
fingerprint are still defined once.  Test files import this module as
they import `conftest`; pytest does not collect it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from slanc import model, safetensors_io
from slanc.model import (
    InitSpec,
    ModelConfig,
    NameMap,
    NormSite,
    config_sidecar_path,
    default_name_map,
    draw_synthetic,
    load_config,
    norm_sites,
    open_safetensors,
)
from slanc.scales import check_fingerprint, entry_scales


@dataclass(frozen=True)
class ModelGraph:
    """A whole model: its config and its C-contiguous tensors by slot,
    {(role, layer): array}, held as slanc.model._held_dtype says; a slot
    the config lacks has no key, and the walks ignore the map's
    insertion order.  It offers what the engine, compute_scale_table
    and the reports read of a ModelStream, and may be walked any number
    of times."""

    config: ModelConfig
    tensors: dict

    @property
    def norm_sites(self) -> list[NormSite]:
        return norm_sites(self.config)

    @property
    def norm_ids(self) -> list[str]:
        return [site.norm_id for site in self.norm_sites]

    def execution_order(self):
        """Each NormSite and Sublayer in the order engine.forward runs
        them, built from the graph's role groups as a stream builds them
        from its reads (see slanc.model._steps)."""
        yield from model._steps(self.config, (
            (key, {role: self.tensors.get((role, layer)) for role, layer in slots})
            for key, slots in model._grouped(model._slots(self.config.n_layers))))

    def fingerprint(self) -> str:
        """SHA-256 over every held tensor in slot order, each tagged with
        its name, shape and held dtype (see slanc.model._hash_tensor)."""
        digest = hashlib.sha256()
        for slot in model._slots(self.config.n_layers):
            if slot in self.tensors:
                model._hash_tensor(digest, *slot, self.tensors[slot])
        return digest.hexdigest()


def generate_synthetic(config: ModelConfig, init: InitSpec, seed: int) -> ModelGraph:
    """Every draw of draw_synthetic's walk, kept in its slot."""
    draws = draw_synthetic(config, init, seed)
    return ModelGraph(config, {(role, layer): array for role, layer, array in draws})


def read_scale_table(doc, graph: ModelGraph) -> dict[str, float]:
    """Each norm's s from a scale table document, once the document is
    shown to be the one compute_scale_table writes for this graph and
    these s: check_fingerprint, then entry_scales, as the engine runs
    them on a stream.  Raises ScaleTableError, naming the field, when it
    is not."""
    check_fingerprint(doc, graph)
    return entry_scales(doc, graph.config)


def to_tensor_dict(graph: ModelGraph, name_map: NameMap | None = None) -> dict:
    """Flatten a graph to {tensor name: array} in storage orientation, in
    slot order (model._slots), the order open_safetensors reads and hashes."""
    nm = name_map or default_name_map()
    named = [(*slot, nm.tensor_name(*slot), graph.tensors[slot])
             for slot in model._slots(graph.config.n_layers) if slot in graph.tensors]
    model._check_distinct(named)
    return {name: array.T if role in nm.transpose else array
            for role, _, name, array in named}


def save_tensor_dict(path: str, tensors: dict, dtype: str = "F32") -> None:
    """tensors, {name: array}, written by save_tensors as one file."""
    safetensors_io.save_tensors(path, {name: np.shape(array)
                                       for name, array in tensors.items()},
                                tensors.items(), dtype=dtype)


def save_graph(graph: ModelGraph, path: str, name_map: NameMap | None = None,
               dtype: str = "F32") -> None:
    """graph's checkpoint, saved whole from to_tensor_dict: a graph that
    save_safetensors would refuse (a tensor missing, misshapen or in no
    slot of the config) is written as it is, for the loader to refuse."""
    save_tensor_dict(path, to_tensor_dict(graph, name_map), dtype)


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
