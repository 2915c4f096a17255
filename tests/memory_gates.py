"""What the memory gates measure with, for tests.

`traced_peak` is the one measure every gate uses: the largest total of
allocations tracemalloc traced (numpy arrays included) while a call
ran.  `product_tile_bytes` and `gram_tile_bytes` give the widest tiles
linalg widens for a shape, from its tile plan alone, and `forward_plan`
the widest blocks and tiles the engine runs a sublayer's tokens in.
`gate_checkpoint` writes the checkpoint the streamed-walk gates read
and says what a walk over it may hold besides a command's temporaries.  Test files import
this module as they import `conftest`; pytest does not collect it.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
from pathlib import Path
from typing import NamedTuple

from slanc import engine, linalg, serialization
from slanc.model import (
    ATTENTION_ROLES,
    GATE_ROLES,
    MLP_ROLES,
    UP_DOWN_ROLES,
    InitSpec,
    ModelConfig,
    ModelGraph,
    _staging_bytes,
    config_sidecar_path,
    generate_synthetic,
    save_safetensors,
)
from slanc.safetensors_io import read_header


def traced_peak(run) -> int:
    """Peak bytes traced while run() ran, its result included."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _widest(spans) -> int:
    return max((span.stop - span.start for span in spans), default=0)


def product_tile_bytes(n: int, k: int, p: int) -> tuple[int, int]:
    """Bytes of the widest outer and inner tile linalg.matmul widens for
    an n x k by k x p product of two float32 operands."""
    rows, cols = linalg._product_tiles(n, k, p, False, False)
    return 8 * k * _widest(cols), 8 * k * _widest(rows)


def gram_tile_bytes(side: int, k: int) -> tuple[int, int]:
    """Bytes of the widest outer and inner tile linalg.gram_lower widens
    for the Gram of side rows k long."""
    plan = linalg._gram_tiles(side, k)
    return (8 * k * _widest(span for span, _ in plan),
            8 * k * _widest(here for _, below in plan for here in below))


class ForwardPlan(NamedTuple):
    query_rows: int  # the widest query block of engine.attention_forward
    mlp_rows: int  # the widest row block of engine.mlp_forward
    hidden_width: int  # the widest of its hidden column tiles
    output_width: int  # the widest of its output column tiles


def forward_plan(n: int, cfg: ModelConfig) -> ForwardPlan:
    """The widest blocks and tiles the engine runs n tokens of cfg in."""
    d = cfg.d_model
    rows, hidden, output = engine._mlp_plan(n, d, cfg.mlp_hidden)
    return ForwardPlan(_widest(engine._attention_blocks(n, d, cfg.head_dim)),
                       _widest(rows), _widest(hidden), _widest(output))


@dataclasses.dataclass(frozen=True)
class GateCheckpoint:
    path: Path  # the checkpoint, with a config sidecar
    # Its first layer n_layers times over, one set of arrays: a walk over
    # it runs every step and keeps every norm's results, holding one layer.
    repeated: ModelGraph
    sublayer: int  # bytes of the larger sublayer's held matrices
    group: int  # bytes of the largest group of matrices a walk reads together
    staging: int  # bytes of the walk's staging buffer (model._staging_bytes)


def gate_checkpoint(directory: Path, cfg: ModelConfig, seed: int = 5) -> GateCheckpoint:
    """A synthetic checkpoint of cfg in directory, saved with its config
    sidecar, and the sizes a streamed walk over it is bounded by."""
    graph = generate_synthetic(cfg, InitSpec(), seed=seed)
    path = directory / "m.safetensors"
    save_safetensors(graph, str(path))
    Path(config_sidecar_path(str(path))).write_text(serialization.dumps(cfg.to_dict()))
    with open(path, "rb") as handle:
        staging = _staging_bytes(read_header(handle).values())

    def largest(*groups) -> int:
        return max(sum(array.nbytes for (role, i), array in graph.tensors.items()
                       if i == 0 and role in roles) for roles in groups)

    repeated = ModelGraph(cfg, {(role, i): graph.tensors[role, None if i is None else 0]
                                for role, i in graph.tensors})
    return GateCheckpoint(path, repeated, largest(ATTENTION_ROLES, MLP_ROLES),
                          largest(ATTENTION_ROLES, GATE_ROLES, UP_DOWN_ROLES), staging)
