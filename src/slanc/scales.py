"""Static norm-input scale factors computed from the preceding weights.

Because normalization is scale-invariant, a norm's input can be
multiplied by a fixed 1/s without changing the model's output, provided
epsilon is divided by s^2.  The table walks the execution_order() of a
ModelGraph, or of a ModelStream that reads one group of matrices at a
time (model.open_safetensors), and takes each norm's s from the
sublayer that ran since the previous norm, with the previous norm's
diagonal gain as Gamma (all ones at the raw embeddings; s = 1, "Unit",
when no sublayer ran):

  standard MLP   s = ||Gamma (E G + I)||_F
  gated MLP      s = ||Gamma (||Gamma E|| B G + I)||_F
  attention      s = ||Gamma (W_V P + I)||_F

where the I term carries the residual and ||.|| is the spectral norm
(one eigenvalue solve, see linalg); softmax rows are convex weights, so
attention has no softmax term.  These are the paper's estimates of how
much the sublayer grows a normalized row, not upper bounds: they assume
it sees a normalized row and acts linearly.  ROADMAP items 2 and 3
measure counterexamples: deep pre-LN stacks, activation cancellation,
the gate's missing sqrt(d) and a LayerNorm shift.  The table is its
JSON document, {fingerprint, entries}, each entry built by scale_entry.
read_scale_table is the one way back from a document to the scales,
and refuses any table not written for this model and its epsilon;
entry_scales runs its entry checks alone, before a stream's walk.

A graph holds its matrices as float32, yet every formula runs in
float64: linalg widens each weight one tile at a time, with the bits of
the one-shot products, and _grown works in place on the d x d product,
so a formula holds that product or the Gram matrix and two tiles.  The
gated formula runs in two steps, as the walk reads its MLP: ||Gamma E||
once E is read, then the rest once B and G are, so E is not held with
them.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

import numpy as np

from .linalg import ConvergenceError, matmul, spectral_norm
from .model import MlpKind, ModelConfig, ModelGraph, ModelStream, NormSite, Sublayer, outline

# Scales below binary16 subnormal resolution mean the feeding block
# cancelled the residual almost exactly; that is a modeling error, not
# something to clamp away.  The formulas refuse such an s, and so does
# the table reader.
DEGENERATE_THRESHOLD = 2.0**-24


class Formula(str, Enum):
    STANDARD_MLP = "StandardMlp"
    LLAMA_MLP = "LlamaMlp"
    ATTENTION = "Attention"
    UNIT = "Unit"


class DegenerateScaleError(Exception):
    """Scale collapsed below the representable threshold."""

    def __init__(self, value: float):
        super().__init__(value)
        self.value = value
        self.norm_id = None  # set by compute_scale_table

    def __str__(self) -> str:
        where = f" at norm {self.norm_id!r}" if self.norm_id else ""
        return (f"degenerate scale {self.value:.6g}{where}: below threshold "
                f"{DEGENERATE_THRESHOLD:.6g}")


# ── the three closed forms ───────────────────────────────────────────────


def _check_dims(gamma: np.ndarray, pairs: list[tuple[str, np.ndarray, tuple[int, int]]]):
    for name, mat, shape in pairs:
        if np.shape(mat) != shape:
            raise ValueError(
                f"dimension mismatch: {name} is {np.shape(mat)}, expected {shape} "
                f"for gamma of length {gamma.size}"
            )


def _grown(gamma: np.ndarray, m: np.ndarray) -> float:
    """||Gamma (m + I)||_F in place on m, a float64 d x d product; a value
    that overflows float64 (ConvergenceError) or is below
    DEGENERATE_THRESHOLD is refused.  Adding I only on the diagonal
    skips the off-diagonal -0.0 + 0.0, whose square is +0 either way."""
    with np.errstate(over="ignore", invalid="ignore"):
        m.flat[:: gamma.size + 1] += 1.0
        m *= gamma[:, None]
        m *= m
        value = math.sqrt(float(np.sum(m)))
    if not math.isfinite(value):
        raise ConvergenceError(f"scale formula overflowed float64 (got {value})")
    if value < DEGENERATE_THRESHOLD:
        raise DegenerateScaleError(value)
    return value


def scale_standard_mlp(gamma: np.ndarray, e: np.ndarray, g: np.ndarray) -> float:
    """||Gamma (E G + I)||_F for a plain two-projection MLP."""
    d, m = gamma.size, np.shape(e)[-1]
    _check_dims(gamma, [("e", e, (d, m)), ("g", g, (m, d))])
    return _grown(gamma, matmul(e, g))


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
    _check_dims(gamma, [("e", e, (d, m))])
    return _gated_growth(gamma, spectral_norm(e, gamma), b, g)


def _gated_growth(gamma: np.ndarray, gate_gain: float, b: np.ndarray,
                  g: np.ndarray) -> float:
    """scale_llama_mlp once ||Gamma E|| is known: E is not needed."""
    d, m = gamma.size, np.shape(b)[-1]
    _check_dims(gamma, [("b", b, (d, m)), ("g", g, (m, d))])
    gated = matmul(b, g)
    gated *= gate_gain
    return _grown(gamma, gated)


def scale_attention(gamma: np.ndarray, w_v: np.ndarray, p: np.ndarray) -> float:
    """||Gamma (W_V P + I)||_F for the attention sublayer.

    w_v is the fused per-head value projection (d x h*head_dim), p the
    output projection.  Softmax mixing is a convex combination of value
    rows, so it cannot grow the bound and does not appear.
    """
    d, k = gamma.size, np.shape(w_v)[-1]
    _check_dims(gamma, [("w_v", w_v, (d, k)), ("p", p, (k, d))])
    return _grown(gamma, matmul(w_v, p))


def adjust_epsilon(epsilon: float, s: float) -> float:
    """epsilon / s^2: keeps the normalized output invariant under 1/s."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"scale must be positive and finite, got {s!r}")
    return epsilon / (s * s)


# ── whole-model table ────────────────────────────────────────────────────


class ScaleTableError(Exception):
    """A scale table document that is malformed or does not fit the model."""


def scale_entry(norm_id: str, layer: int, formula: Formula, s: float,
                epsilon: float) -> dict:
    """One table entry in document order: s with its reciprocal and the
    adjusted epsilon."""
    eps_adjusted = adjust_epsilon(epsilon, s)  # refuses a non-positive s
    return {"norm_id": norm_id, "layer": layer, "formula": formula.value, "s": s,
            "reciprocal": 1.0 / s, "eps_adjusted": eps_adjusted}


def _norm_formulas(cfg: ModelConfig):
    """Each norm of cfg, in execution order, with the formula for its s:
    that of the sublayer that ran since the previous norm (Unit when
    none ran)."""
    mlp = (Formula.LLAMA_MLP if cfg.mlp_kind is MlpKind.LLAMA_GATED
           else Formula.STANDARD_MLP)
    formula = Formula.UNIT
    for step in outline(cfg).execution_order():
        if isinstance(step, NormSite):
            yield step, formula
            formula = Formula.UNIT
        else:
            formula = mlp if step.mlp else Formula.ATTENTION


def compute_scale_table(model: ModelGraph | ModelStream) -> dict:
    """The scale table document: the weight fingerprint and one entry
    per norm, in execution order.

    Walks model.execution_order() once, as the module docstring
    describes, and reads model.fingerprint() after it.  Each formula
    runs at the steps of its sublayer, as the walk reads them, and its s
    is recorded at the norm it feeds: a gated MLP's ||Gamma E|| runs on
    its gate step, so a ModelStream holds one group of matrices
    (attention's four, E, or B and G; a standard MLP keeps E until G)
    and fails at the first fault in walk order: a degenerate scale, or a
    spectral norm that fails, comes before a bad payload in a later
    group, even B or G of the same MLP.
    Deterministic: every formula, the gated-MLP spectral norm included,
    is a fixed sequence of float64 operations, so identical weights give
    bitwise-identical tables.  Degenerate and spectral-norm failures
    name the norm.
    """
    cfg = model.config
    gated = cfg.mlp_kind is MlpKind.LLAMA_GATED
    sites = list(_norm_formulas(cfg))
    entries = []
    gamma, s, gate = np.ones(cfg.d_model), 1.0, None
    for step in model.execution_order():
        try:
            if isinstance(step, NormSite):
                formula = sites[len(entries)][1]
                entries.append(scale_entry(step.norm_id, step.layer, formula, s,
                                           cfg.epsilon))
                gamma, s = step.gamma, 1.0
            elif step.gate:  # a gated MLP needs only ||Gamma E|| past this step
                gate = spectral_norm(step.weights.e, gamma) if gated else step.weights.e
            else:
                s, gate = _scale(step, gated, gamma, gate), None
        except (DegenerateScaleError, ConvergenceError) as err:
            err.norm_id = sites[len(entries)][0].norm_id
            raise
        del step  # its weights go before the walk reads the next group
    return {"fingerprint": model.fingerprint(), "entries": entries}


def _scale(sublayer: Sublayer, gated: bool, gamma: np.ndarray, gate) -> float:
    """s of an attention Sublayer, or of the rest of an MLP whose gate
    step left gate: ||Gamma E|| when gated, else E."""
    w = sublayer.weights
    if not sublayer.mlp:
        return scale_attention(gamma, w.w_v, w.p)
    if gated:
        return _gated_growth(gamma, gate, w.b, w.g)
    return scale_standard_mlp(gamma, gate, w.g)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_scale_table(doc, model: ModelGraph | ModelStream) -> dict[str, float]:
    """Each norm's s from a scale table document, once the document is
    shown to be one compute_scale_table could have written for this
    model: its fingerprint is model.fingerprint() (a stream's is known
    once its walk is done), then entry_scales accepts it.  Raises
    ScaleTableError, naming the field, when it is not."""
    if not isinstance(doc, dict):
        raise ScaleTableError(f"scale table must be a JSON object, got "
                              f"{type(doc).__name__}")
    fingerprint = doc.get("fingerprint")
    if not isinstance(fingerprint, str):
        raise ScaleTableError(f"scale table fingerprint must be a string, got "
                              f"{fingerprint!r}")
    if fingerprint != model.fingerprint():
        raise ScaleTableError("scale table fingerprint does not match the model weights")
    return entry_scales(doc, model.config)


def entry_scales(doc, cfg: ModelConfig) -> dict[str, float]:
    """Each norm's s from the entries of a scale table document, checked
    against cfg alone.  Raises ScaleTableError, naming the norm and the
    field, when a norm of the model has no entry, or an entry names a
    norm twice or one the model lacks; or when an entry's layer is not
    the norm's (a JSON integer), its formula is not the norm's, its s is
    not a finite number of at least DEGENERATE_THRESHOLD (a smaller one
    compute_scale_table never writes), or its reciprocal or eps_adjusted
    differs in any bit from 1/s or adjust_epsilon(cfg.epsilon, s).
    Booleans are not numbers here, and nothing is coerced."""
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ScaleTableError(f"scale table entries must be a list, got "
                              f"{type(entries).__name__}")
    sites = {site.norm_id: (site.layer, formula)
             for site, formula in _norm_formulas(cfg)}
    found: dict[str, float] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ScaleTableError(f"scale table entries[{i}] must be a JSON object, "
                                  f"got {type(entry).__name__}")
        norm_id = entry.get("norm_id")
        if not isinstance(norm_id, str) or norm_id not in sites:
            raise ScaleTableError(f"scale table entries[{i}]: norm_id {norm_id!r} "
                                  f"names no norm of the model")
        if norm_id in found:
            raise ScaleTableError(f"scale table entry {norm_id!r}: norm_id appears "
                                  f"more than once")
        layer, formula = sites[norm_id]

        def refuse(field: str, wanted: str) -> ScaleTableError:
            return ScaleTableError(f"scale table entry {norm_id!r}: {field} must be "
                                   f"{wanted}, got {entry.get(field)!r}")

        if type(entry.get("layer")) is not int or entry["layer"] != layer:  # not bool
            raise refuse("layer", f"the integer {layer}")
        if entry.get("formula") != formula.value:
            raise refuse("formula", repr(formula.value))
        s = entry.get("s")
        if not (_number(s) and 0 < s <= sys.float_info.max):
            raise refuse("s", "a finite positive number")
        if s < DEGENERATE_THRESHOLD:
            raise refuse("s", f"at least 2^-24 ({DEGENERATE_THRESHOLD!r})")
        s = float(s)
        epsilon = cfg.epsilon
        for field, wanted, how in (
            ("reciprocal", 1.0 / s, "1/s"),
            ("eps_adjusted", adjust_epsilon(epsilon, s),
             f"epsilon/s^2 for the model's epsilon {epsilon!r}"),
        ):
            if not (_number(entry.get(field)) and entry[field] == wanted):
                raise refuse(field, f"{wanted!r} ({how})")
        found[norm_id] = s
    for norm_id in sites:
        if norm_id not in found:
            raise ScaleTableError(f"scale table has no entry for norm {norm_id!r}")
    return found
