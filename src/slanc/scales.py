"""Static norm-input scale factors computed from the preceding weights.

Because normalization is scale-invariant, a norm's input can be
multiplied by a fixed 1/s without changing the model's output, provided
epsilon is divided by s^2.  The table walks ModelGraph.execution_order()
and takes each norm's s from the sublayer that ran since the previous
norm, with the previous norm's diagonal gain as Gamma (all ones at the
raw embeddings; s = 1, "Unit", when no sublayer ran):

  standard MLP   s = ||Gamma (E G + I)||_F
  gated MLP      s = ||Gamma (||Gamma E|| B G + I)||_F
  attention      s = ||Gamma (W_V P + I)||_F

where the I term carries the residual and ||.|| is the spectral norm
(one eigenvalue solve, see linalg); softmax rows are convex weights, so
attention has no softmax term.  These are the paper's estimates of how
much the sublayer grows a normalized row, not upper bounds: they assume
it sees a normalized row and acts linearly.  ROADMAP items 2 and 3
measure counterexamples: deep pre-LN stacks, activation cancellation,
the gate's missing sqrt(d) and a LayerNorm shift.  The per-norm results
go into a ScaleTable keyed by the model fingerprint.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import serialization
from .linalg import ConvergenceError, frobenius_norm, spectral_norm
from .model import MlpKind, ModelGraph, Sublayer

# Scales below binary16 subnormal resolution mean the feeding block
# cancelled the residual almost exactly; that is a modeling error, not
# something to clamp away.
DEGENERATE_THRESHOLD = 2.0**-24


class Formula(str, Enum):
    STANDARD_MLP = "StandardMlp"
    LLAMA_MLP = "LlamaMlp"
    ATTENTION = "Attention"
    UNIT = "Unit"
    DYNAMIC = "Dynamic"  # produced by the runtime calibration baseline


class DegenerateScaleError(Exception):
    """Scale collapsed below the representable threshold."""

    def __init__(self, value: float, norm_id: str | None = None):
        super().__init__(value)
        self.value = value
        self.norm_id = norm_id  # set by compute_scale_table when None

    def __str__(self) -> str:
        where = f" at norm {self.norm_id!r}" if self.norm_id else ""
        return (f"degenerate scale {self.value:.6g}{where}: below threshold "
                f"{DEGENERATE_THRESHOLD:.6g}")


@dataclass(frozen=True)
class NormScale:
    """One norm's scale: s, its reciprocal, and the adjusted epsilon."""

    s: float
    reciprocal: float
    epsilon_adjusted: float
    formula: Formula
    layer_index: int
    norm_id: str

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s) and self.s > 0):
            raise ValueError(f"scale must be positive and finite, got {self.s!r}")
        if abs(self.reciprocal * self.s - 1.0) > 1e-15 * max(1.0, abs(self.s)):
            raise ValueError(
                f"reciprocal {self.reciprocal!r} is not 1/{self.s!r}"
            )
        if not (math.isfinite(self.epsilon_adjusted) and self.epsilon_adjusted > 0):
            raise ValueError(
                f"adjusted epsilon must be positive, got {self.epsilon_adjusted!r}"
            )


def make_norm_scale(
    s: float,
    epsilon: float,
    formula: Formula,
    layer_index: int,
    norm_id: str,
) -> NormScale:
    """Build a NormScale, filling the reciprocal and adjusted epsilon."""
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"scale must be positive and finite, got {s!r}")
    if s < DEGENERATE_THRESHOLD:
        raise DegenerateScaleError(s, norm_id)
    return NormScale(
        s=s,
        reciprocal=1.0 / s,
        epsilon_adjusted=adjust_epsilon(epsilon, s),
        formula=formula,
        layer_index=layer_index,
        norm_id=norm_id,
    )


@dataclass(frozen=True)
class ScaleTable:
    """Ordered per-norm scales plus the weight fingerprint they match."""

    fingerprint: str
    entries: dict  # norm_id -> NormScale, in graph execution order

    def to_json_text(self) -> str:
        doc = {
            "fingerprint": self.fingerprint,
            "entries": [
                {
                    "norm_id": entry.norm_id,
                    "layer": entry.layer_index,
                    "formula": entry.formula.value,
                    "s": entry.s,
                    "reciprocal": entry.reciprocal,
                    "eps_adjusted": entry.epsilon_adjusted,
                }
                for entry in self.entries.values()
            ],
        }
        return serialization.dumps(doc)

    @classmethod
    def from_json_text(cls, text: str) -> "ScaleTable":
        doc = json.loads(text)
        try:
            entries = {}
            for row in doc["entries"]:
                entry = NormScale(
                    s=float(row["s"]),
                    reciprocal=float(row["reciprocal"]),
                    epsilon_adjusted=float(row["eps_adjusted"]),
                    formula=Formula(row["formula"]),
                    layer_index=int(row["layer"]),
                    norm_id=str(row["norm_id"]),
                )
                entries[entry.norm_id] = entry
            return cls(fingerprint=str(doc["fingerprint"]), entries=entries)
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"bad scale table document: {err}") from err


# ── the three closed forms ───────────────────────────────────────────────


def _check_dims(gamma: np.ndarray, pairs: list[tuple[str, np.ndarray, tuple[int, int]]]):
    for name, mat, shape in pairs:
        if np.shape(mat) != shape:
            raise ValueError(
                f"dimension mismatch: {name} is {np.shape(mat)}, expected {shape} "
                f"for gamma of length {gamma.size}"
            )


def _finish(value: float) -> float:
    if value < DEGENERATE_THRESHOLD:
        raise DegenerateScaleError(value)
    return value


def scale_standard_mlp(gamma: np.ndarray, e: np.ndarray, g: np.ndarray) -> float:
    """||Gamma (E G + I)||_F for a plain two-projection MLP."""
    d, m = gamma.size, np.shape(e)[-1]
    _check_dims(gamma, [("e", e, (d, m)), ("g", g, (m, d))])
    return _finish(frobenius_norm(gamma[:, None] * (e @ g + np.eye(d))))


def scale_llama_mlp(
    gamma: np.ndarray, e: np.ndarray, b: np.ndarray, g: np.ndarray
) -> float:
    """||Gamma (||Gamma E|| B G + I)||_F for the gated MLP.

    The gate path contributes through its spectral norm: ||Gamma E||
    stands in for the gate activations' magnitude on normalized inputs
    (an estimate; see the module docstring).  A spectral-norm
    ConvergenceError propagates to the caller.
    """
    d, m = gamma.size, np.shape(e)[-1]
    _check_dims(gamma, [("e", e, (d, m)), ("b", b, (d, m)), ("g", g, (m, d))])
    gate_gain = spectral_norm(gamma[:, None] * e)
    return _finish(frobenius_norm(gamma[:, None] * (gate_gain * (b @ g) + np.eye(d))))


def scale_attention(gamma: np.ndarray, w_v: np.ndarray, p: np.ndarray) -> float:
    """||Gamma (W_V P + I)||_F for the attention sublayer.

    w_v is the fused per-head value projection (d x h*head_dim), p the
    output projection.  Softmax mixing is a convex combination of value
    rows, so it cannot grow the bound and does not appear.
    """
    d, k = gamma.size, np.shape(w_v)[-1]
    _check_dims(gamma, [("w_v", w_v, (d, k)), ("p", p, (k, d))])
    return _finish(frobenius_norm(gamma[:, None] * (w_v @ p + np.eye(d))))


def adjust_epsilon(epsilon: float, s: float) -> float:
    """epsilon / s^2: keeps the normalized output invariant under 1/s."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"scale must be positive and finite, got {s!r}")
    return epsilon / (s * s)


# ── whole-model table ────────────────────────────────────────────────────


def _feeding_scale(sublayer: Sublayer | None, gamma: np.ndarray,
                   mlp_kind: MlpKind) -> tuple[float, Formula]:
    """s and its formula for a norm fed by sublayer, whose own input
    came through a norm of gain gamma; Unit when no sublayer ran."""
    if sublayer is None:
        return 1.0, Formula.UNIT
    w = sublayer.weights
    if not sublayer.mlp:
        return scale_attention(gamma, w.w_v, w.p), Formula.ATTENTION
    if mlp_kind is MlpKind.LLAMA_GATED:
        return scale_llama_mlp(gamma, w.e, w.b, w.g), Formula.LLAMA_MLP
    return scale_standard_mlp(gamma, w.e, w.g), Formula.STANDARD_MLP


def compute_scale_table(model: ModelGraph) -> ScaleTable:
    """One NormScale per norm operator, in execution order.

    Walks model.execution_order() as the module docstring describes.
    Deterministic: every formula, the gated-MLP spectral norm included,
    is a fixed sequence of float64 operations, so identical weights give
    bitwise-identical tables.  Degenerate and spectral-norm failures
    name the norm.
    """
    cfg = model.config
    gamma = np.ones(cfg.d_model)
    fed_by: Sublayer | None = None
    entries: dict[str, NormScale] = {}
    for step in model.execution_order():
        if isinstance(step, Sublayer):
            fed_by = step
            continue
        try:
            s, formula = _feeding_scale(fed_by, gamma, cfg.mlp_kind)
        except (DegenerateScaleError, ConvergenceError) as err:
            err.norm_id = step.norm_id
            raise
        entries[step.norm_id] = make_norm_scale(
            s, cfg.epsilon, formula, step.layer, step.norm_id
        )
        gamma, fed_by = step.gamma, None
    return ScaleTable(fingerprint=model.fingerprint(), entries=entries)
