"""Static norm-input scale factors computed from the preceding weights.

Because normalization is scale-invariant, a norm's input can be
multiplied by a fixed 1/s without changing the model's output, provided
epsilon is divided by s^2.  The table walks the execution_order() of a
ModelStream, which reads one group of matrices at a time
(model.open_safetensors), and takes each norm's s from the
sublayer that ran since the previous norm (a Sublayer step, whose
weights are its matrices by role), with the previous norm's diagonal
gain as Gamma (all ones at the raw embeddings; s = 1, "Unit", when no
sublayer ran).  Each NormSite of the walk names its formula
(model._steps sets it as it orders the walk):

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
A table applies only if it was written for this model and its
epsilon, which two checks establish: its fingerprint must be the
weights' (check_fingerprint), and entry_scales, which needs only the
config, rebuilds each entry with scale_entry from its s and compares.
The engine runs the two halves apart, entry_scales as a pass starts
and check_fingerprint once its walk is done (a stream's fingerprint is
known only then).

A model holds its matrices as float32, yet every formula runs in
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

import numpy as np

from .linalg import ConvergenceError, matmul, spectral_norm
from .model import (Formula, MlpKind, ModelConfig, ModelStream, NormSite, Sublayer,
                    norm_sites)

# Scales below binary16 subnormal resolution mean the feeding block
# cancelled the residual almost exactly; that is a modeling error, not
# something to clamp away.  The formulas refuse such an s, and so does
# the table reader.
DEGENERATE_THRESHOLD = 2.0**-24


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


def compute_scale_table(model: ModelStream) -> dict:
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
    bitwise-identical tables on one numpy/OpenBLAS build, kernel and
    thread count (another can move an s by 1-2 ulps; ROADMAP item 20).
    Degenerate and spectral-norm failures name the norm.
    """
    cfg = model.config
    gated = cfg.mlp_kind is MlpKind.LLAMA_GATED
    entries = []
    gamma, s, gate = np.ones(cfg.d_model), 1.0, None
    for step in model.execution_order():
        try:
            if isinstance(step, NormSite):
                entries.append(scale_entry(step.norm_id, step.layer, step.formula, s,
                                           cfg.epsilon))
                gamma, s = step.gamma, 1.0
            elif step.gate:  # a gated MLP needs only ||Gamma E|| past this step
                gate = step.weights["e"]
                gate = spectral_norm(gate, gamma) if gated else gate
            else:
                s, gate = _scale(step, gated, gamma, gate), None
        except (DegenerateScaleError, ConvergenceError) as err:
            err.norm_id = norm_sites(cfg)[len(entries)].norm_id
            raise
        del step  # its weights go before the walk reads the next group
    return {"fingerprint": model.fingerprint(), "entries": entries}


def _scale(sublayer: Sublayer, gated: bool, gamma: np.ndarray, gate) -> float:
    """s of an attention Sublayer, or of the rest of an MLP whose gate
    step left gate: ||Gamma E|| when gated, else E."""
    w = sublayer.weights
    if not sublayer.mlp:
        return scale_attention(gamma, w["w_v"], w["p"])
    if gated:
        return _gated_growth(gamma, gate, w["b"], w["g"])
    return scale_standard_mlp(gamma, gate, w["g"])


def check_fingerprint(doc, model: ModelStream) -> None:
    """Refuse (ScaleTableError) a document whose fingerprint is not
    model.fingerprint(); a stream's is known once its walk is done."""
    if not isinstance(doc, dict):
        raise ScaleTableError(f"scale table must be a JSON object, got "
                              f"{type(doc).__name__}")
    fingerprint = doc.get("fingerprint")
    if not isinstance(fingerprint, str):
        raise ScaleTableError(f"scale table fingerprint must be a string, got "
                              f"{fingerprint!r}")
    if fingerprint != model.fingerprint():
        raise ScaleTableError("scale table fingerprint does not match the model weights")


def entry_scales(doc, cfg: ModelConfig) -> dict[str, float]:
    """Each norm's s from the entries of a scale table document, checked
    against cfg alone: entries[i] must be the i-th norm's, with an s that
    is a finite JSON number of at least DEGENERATE_THRESHOLD (the
    formulas never produce a smaller one), and exactly the fields
    scale_entry builds from that norm, float(s) and cfg.epsilon, each
    equal in value and in JSON type (a bool is no integer, 2 is not
    2.0).  Raises ScaleTableError naming the entry (its index when its
    norm_id is wrong) and the first field that differs, or the first
    norm with no entry."""
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ScaleTableError(f"scale table entries must be a list, got "
                              f"{type(entries).__name__}")
    sites = norm_sites(cfg)
    found: dict[str, float] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ScaleTableError(f"scale table entries[{i}] must be a JSON object, "
                                  f"got {type(entry).__name__}")
        norm_id = entry.get("norm_id")
        if i == len(sites):
            raise ScaleTableError(f"scale table entries[{i}]: norm_id {norm_id!r} "
                                  f"comes after the model's {len(sites)} norms")
        site = sites[i]
        if norm_id != site.norm_id:
            raise ScaleTableError(f"scale table entries[{i}]: norm_id must be "
                                  f"{site.norm_id!r}, got {norm_id!r}")

        def refuse(field: str, wanted: str) -> ScaleTableError:
            return ScaleTableError(f"scale table entry {norm_id!r}: {field} must be "
                                   f"{wanted}, got {entry.get(field)!r}")

        s = entry.get("s")
        if not (type(s) in (int, float) and 0 < s <= sys.float_info.max):  # not bool
            raise refuse("s", "a finite positive number")
        if s < DEGENERATE_THRESHOLD:
            raise refuse("s", f"at least 2^-24 ({DEGENERATE_THRESHOLD!r})")
        want = scale_entry(norm_id, site.layer, site.formula, float(s), cfg.epsilon)
        for field, value in want.items():
            if not (type(entry.get(field)) is type(value) and entry[field] == value):
                raise refuse(field, repr(value) + (
                    f" (epsilon/s^2 for the model's epsilon {cfg.epsilon!r})"
                    if field == "eps_adjusted" else ""))
        for extra in sorted(entry.keys() - want.keys()):  # the first, if any
            raise ScaleTableError(f"scale table entry {norm_id!r}: {extra!r} is not "
                                  f"a field of a table entry")
        found[norm_id] = s
    if len(entries) < len(sites):
        raise ScaleTableError(f"scale table has no entry for norm "
                              f"{sites[len(entries)].norm_id!r}")
    return found
