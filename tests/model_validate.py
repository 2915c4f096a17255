"""Structural check of a graph built in memory, for tests.

`slanc.model.open_safetensors`, the one way a checkpoint is read, checks
each tensor as it plans and walks it, so the package needs no separate
pass; tests that build or edit graphs by hand use this one to see every
broken invariant at once.  Test files import
it as they import `conftest`; pytest does not collect it.
"""

from __future__ import annotations

from checkpoints import ModelGraph
from slanc.model import (
    _role_shapes,
    _shape_problem,
    _slots,
    _unused_reason,
    _value_problem,
)


def validate(graph: ModelGraph) -> list[str]:
    """Every broken structural invariant of graph, one message each; an
    empty list means valid."""
    cfg = graph.config
    shapes = _role_shapes(cfg)
    slots = list(_slots(cfg.n_layers))
    problems = [f"tensor {key!r}: not a slot of a {cfg.n_layers}-layer model"
                for key in graph.tensors if key not in slots]
    for role, layer in slots:
        label = (f"final norm {role.removeprefix('final_')}" if layer is None
                 else f"layer {layer}: {role}")
        array = graph.tensors.get((role, layer))
        unused = _unused_reason(cfg, role)
        if array is None:
            if unused is None:
                problems.append(f"{label}: missing")
            continue
        if unused is not None:
            problems.append(f"{label}: present but {unused}")
        problem = _shape_problem(array.shape, shapes[role]) or _value_problem(array)
        if problem:
            problems.append(f"{label}: {problem}")
    return problems
