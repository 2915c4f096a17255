"""Static norm-input scale factors computed from the preceding weights.

Each norm operator in the decoder chain is fed by exactly one block
(attention or MLP) whose output, plus the residual, becomes the norm's
input.  Because normalization is scale-invariant, that input can be
multiplied by a fixed 1/s without changing the model's output, provided
epsilon is divided by s^2.  The right s is an upper bound on how much
the feeding block can grow a normalized vector, and it is a closed form
in the block's weights:

  standard MLP   s = ||Gamma (E G + I)||_F
  gated MLP      s = ||Gamma (||Gamma E|| B G + I)||_F
  attention      s = ||Gamma (W_V P + I)||_F

where Gamma is the diagonal gain of the norm whose output feeds the
block (identity when the feeding path starts at the raw embeddings),
the I term carries the residual, and ||.|| is the spectral norm.  The
attention case needs no softmax term: softmax rows are convex weights,
so mixing value rows never increases the bound.  All of this runs
offline in double precision; the spectral norm is one eigenvalue solve
on the smaller Gram side (see linalg).  The per-norm results go into a
ScaleTable keyed by the model fingerprint.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import serialization
from .linalg import ConvergenceError, frobenius_norm, spectral_norm
from .model import MlpKind, ModelGraph, ResidualPlacement

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
        self.value = value
        self.norm_id = norm_id
        where = f" at norm {norm_id!r}" if norm_id else ""
        super().__init__(
            f"degenerate scale {value:.6g}{where}: below threshold "
            f"{DEGENERATE_THRESHOLD:.6g}"
        )


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

    The gate path contributes through its spectral norm: the
    elementwise product is bounded by the gate activations' magnitude,
    itself bounded by ||Gamma E|| on normalized inputs.  A spectral-norm
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


def _norm_sites(model: ModelGraph):
    """Yield (norm_id, layer_index, feeding kind, gamma or None, block layer).

    The feeding block is the sublayer whose output (plus residual) the
    norm consumes; gamma is the gain of the norm whose output feeds
    that block, None when that path starts at the raw embeddings.
    """
    cfg = model.config
    n = cfg.n_layers
    sites = []
    if cfg.residual_placement is ResidualPlacement.POST_LN:
        for i in range(n):
            prev_gamma = model.layers[i - 1].gamma2 if i > 0 else None
            sites.append((f"layer{i}.norm1", i, "attention", prev_gamma, i))
            sites.append((f"layer{i}.norm2", i, "mlp", model.layers[i].gamma1, i))
    else:
        for i in range(n):
            if i == 0:
                sites.append((f"layer{i}.norm1", i, "unit", None, None))
            else:
                sites.append(
                    (f"layer{i}.norm1", i, "mlp", model.layers[i - 1].gamma2, i - 1)
                )
            sites.append((f"layer{i}.norm2", i, "attention", model.layers[i].gamma1, i))
        if model.final_gamma is not None:
            if n > 0:
                sites.append(
                    ("final_norm", n, "mlp", model.layers[n - 1].gamma2, n - 1)
                )
            else:
                sites.append(("final_norm", 0, "unit", None, None))
    return sites


def compute_scale_table(model: ModelGraph) -> ScaleTable:
    """One NormScale per norm operator, in execution order.

    Deterministic: every formula, the gated-MLP spectral norm included,
    is a fixed sequence of float64 operations, so identical weights give
    bitwise-identical tables.  Degenerate and spectral-norm failures are
    re-raised with the norm id.
    """
    cfg = model.config
    epsilon = cfg.epsilon
    ones = np.ones(cfg.d_model)
    entries: dict[str, NormScale] = {}
    for norm_id, layer_index, feeding, gamma, block_layer in _norm_sites(model):
        gamma = gamma if gamma is not None else ones
        if feeding == "unit":
            s, formula = 1.0, Formula.UNIT
        elif feeding == "attention":
            weights = model.layers[block_layer]
            try:
                s = scale_attention(gamma, weights.w_v, weights.p)
            except DegenerateScaleError as err:
                raise DegenerateScaleError(err.value, norm_id) from None
            formula = Formula.ATTENTION
        else:
            weights = model.layers[block_layer]
            try:
                if cfg.mlp_kind is MlpKind.LLAMA_GATED:
                    s = scale_llama_mlp(gamma, weights.e, weights.b, weights.g)
                    formula = Formula.LLAMA_MLP
                else:
                    s = scale_standard_mlp(gamma, weights.e, weights.g)
                    formula = Formula.STANDARD_MLP
            except DegenerateScaleError as err:
                raise DegenerateScaleError(err.value, norm_id) from None
            except ConvergenceError as err:
                raise ConvergenceError(err.message, norm_id) from None
        entries[norm_id] = make_norm_scale(s, epsilon, formula, layer_index, norm_id)
    assert list(entries) == model.norm_ids
    return ScaleTable(fingerprint=model.fingerprint(), entries=entries)
