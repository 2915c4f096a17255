"""Dynamic (activation-based) calibration: the baseline the static scale
table is checked against.

The package computes each norm's s offline from the weights alone
(`slanc.scales`).  This module observes it instead: it runs the
double-precision forward over calibration data and takes a statistic of
each norm's input norms.  Acceptance 6 holds the static table to it
within a pinned factor.  Tests import it by module name, as they import
`conftest`; pytest does not collect it.
"""

from __future__ import annotations

import numpy as np

from checkpoints import ModelGraph
from slanc.engine import REFERENCE_POLICY, forward


def calibrate_dynamic(model: ModelGraph, calibration_inputs: list,
                      statistic: str = "Median") -> dict[str, float]:
    """{norm_id: s}, in execution order, with s the statistic (Mean or
    Median) of the norm's pre-scaling input Euclidean norms over every
    token of every calibration matrix."""
    if statistic not in ("Mean", "Median"):
        raise ValueError(f"statistic must be 'Mean' or 'Median', got {statistic!r}")
    if not calibration_inputs:
        raise ValueError("empty calibration set")
    observed: dict[str, list[np.ndarray]] = {site.norm_id: [] for site in model.norm_sites}
    for x in calibration_inputs:
        for norm_id, audit in forward(model, x, REFERENCE_POLICY).audit.items():
            observed[norm_id].append(np.sqrt(audit.raw_sums))
    reduce = np.mean if statistic == "Mean" else np.median
    return {norm_id: float(reduce(np.concatenate(values)))
            for norm_id, values in observed.items()}
