"""Structural check of a graph built in memory, for tests.

`slanc.model.open_safetensors`, the one way a checkpoint is read, checks
each tensor as it plans and walks it, so the package needs no separate
pass; tests that build or edit graphs by hand use this one to see every
broken invariant at once.  Test files import
it as they import `conftest`; pytest does not collect it.
"""

from __future__ import annotations

from slanc.model import (
    LAYER_ROLES,
    ModelGraph,
    _role_shapes,
    _shape_problem,
    _unused_reason,
    _value_problem,
)


def validate(graph: ModelGraph) -> list[str]:
    """Every broken structural invariant of graph, one message each; an
    empty list means valid."""
    cfg = graph.config
    shapes = _role_shapes(cfg)
    problems: list[str] = []
    if len(graph.layers) != cfg.n_layers:
        problems.append(
            f"graph has {len(graph.layers)} layers, config says {cfg.n_layers}"
        )
    slots = [(f"layer {i}: {role}", role, getattr(layer, role))
             for i, layer in enumerate(graph.layers) for role in LAYER_ROLES]
    slots += [("final norm gamma", "final_gamma", graph.final_gamma),
              ("final norm beta", "final_beta", graph.final_beta)]
    for label, role, array in slots:
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
