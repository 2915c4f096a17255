"""Model configuration, synthetic weight generation, and checkpoint
ingestion.

A model is a chain of identical decoder layers (attention sublayer +
MLP sublayer, each with its own norm) plus, for pre-norm residual
placement, one final norm after the last decoder.  Weights use the
row-vector convention throughout: activations are row vectors and every
projection multiplies from the right, so e is d_model x mlp_hidden and
a checkpoint storing the transposed convention is fixed up by the name
map's per-role transpose list.
"""

from __future__ import annotations

import hashlib
import json
import math
import queue
import threading
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import safetensors_io


class NormKind(str, Enum):
    LAYER_NORM = "LayerNorm"
    RMS_NORM = "RMSNorm"


class ResidualPlacement(str, Enum):
    POST_LN = "PostLN"
    PRE_LN = "PreLN"


class MlpKind(str, Enum):
    STANDARD = "Standard"
    LLAMA_GATED = "LlamaGated"


class Nonlinearity(str, Enum):
    RELU = "ReLU"
    GELU = "GeLU"
    SILU = "SiLU"


# Per-layer tensor roles, in canonical (generation and fingerprint) order.
VECTOR_ROLES = ("gamma1", "beta1", "gamma2", "beta2")
MATRIX_ROLES = ("w_q", "w_k", "w_v", "p", "e", "b", "g")
LAYER_ROLES = VECTOR_ROLES + MATRIX_ROLES
FINAL_ROLES = ("final_gamma", "final_beta")


class ModelError(Exception):
    """Configuration or checkpoint content that cannot form a model."""


@dataclass(frozen=True)
class ModelConfig:
    d_model: int
    n_heads: int
    head_dim: int
    mlp_hidden: int
    n_layers: int
    norm_kind: NormKind
    residual_placement: ResidualPlacement
    mlp_kind: MlpKind
    nonlinearity: Nonlinearity
    epsilon: float

    def __post_init__(self) -> None:
        for name in ("d_model", "n_heads", "head_dim", "mlp_hidden"):
            if getattr(self, name) <= 0:
                raise ModelError(f"{name} must be positive, got {getattr(self, name)}")
        # n_layers 0 is allowed: a bare embedding pass (plus the final
        # norm under pre-norm placement) is useful as a degenerate case.
        if self.n_layers < 0:
            raise ModelError(f"n_layers must be non-negative, got {self.n_layers}")
        if self.n_heads * self.head_dim != self.d_model:
            raise ModelError(
                f"n_heads x head_dim must equal d_model: "
                f"{self.n_heads} x {self.head_dim} != {self.d_model}"
            )
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ModelError(f"epsilon must be positive and finite, got {self.epsilon}")

    @property
    def has_final_norm(self) -> bool:
        return self.residual_placement is ResidualPlacement.PRE_LN

    def to_dict(self) -> dict:
        return {
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "head_dim": self.head_dim,
            "mlp_hidden": self.mlp_hidden,
            "n_layers": self.n_layers,
            "norm_kind": self.norm_kind.value,
            "residual_placement": self.residual_placement.value,
            "mlp_kind": self.mlp_kind.value,
            "nonlinearity": self.nonlinearity.value,
            "epsilon": self.epsilon,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        try:
            return cls(
                d_model=int(doc["d_model"]),
                n_heads=int(doc["n_heads"]),
                head_dim=int(doc["head_dim"]),
                mlp_hidden=int(doc["mlp_hidden"]),
                n_layers=int(doc["n_layers"]),
                norm_kind=NormKind(doc["norm_kind"]),
                residual_placement=ResidualPlacement(doc["residual_placement"]),
                mlp_kind=MlpKind(doc["mlp_kind"]),
                nonlinearity=Nonlinearity(doc["nonlinearity"]),
                epsilon=float(doc["epsilon"]),
            )
        except (KeyError, ValueError) as err:
            raise ModelError(f"bad model config: {err}") from err


@dataclass(frozen=True)
class DecoderWeights:
    """One decoder layer of C-contiguous float64 arrays.  beta* only for
    LayerNorm; b only for gated MLP."""

    gamma1: np.ndarray
    gamma2: np.ndarray
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    p: np.ndarray
    e: np.ndarray
    g: np.ndarray
    beta1: np.ndarray | None = None
    beta2: np.ndarray | None = None
    b: np.ndarray | None = None


@dataclass(frozen=True)
class NormSite:
    """A norm operator: its id, decoder index, gain and (LayerNorm) shift."""

    norm_id: str
    layer: int  # one past the last decoder for the final norm
    gamma: np.ndarray
    beta: np.ndarray | None


@dataclass(frozen=True)
class Sublayer:
    """The attention or MLP sublayer of one decoder layer."""

    mlp: bool  # False for attention
    weights: DecoderWeights


@dataclass(frozen=True)
class ModelGraph:
    """Immutable model: config, decoder weights, optional final norm."""

    config: ModelConfig
    layers: tuple[DecoderWeights, ...]
    final_gamma: np.ndarray | None = None
    final_beta: np.ndarray | None = None
    # (digest, ((name, array), ...)) recorded by load_safetensors as it
    # hashed each array; see fingerprint().
    _loaded_digest: tuple | None = field(default=None, init=False, repr=False,
                                         compare=False)

    def execution_order(self):
        """Each NormSite and Sublayer in the order engine.forward runs them:
        per layer attention, norm1, MLP, norm2 (PostLN) or norm1, attention,
        norm2, MLP (PreLN), then any final norm."""
        post_ln = self.config.residual_placement is ResidualPlacement.POST_LN
        for i, layer in enumerate(self.layers):
            norm1 = NormSite(f"layer{i}.norm1", i, layer.gamma1, layer.beta1)
            norm2 = NormSite(f"layer{i}.norm2", i, layer.gamma2, layer.beta2)
            attention = Sublayer(mlp=False, weights=layer)
            mlp = Sublayer(mlp=True, weights=layer)
            yield from ((attention, norm1, mlp, norm2) if post_ln
                        else (norm1, attention, norm2, mlp))
        if self.final_gamma is not None:
            yield NormSite("final_norm", len(self.layers), self.final_gamma,
                           self.final_beta)

    @property
    def norm_sites(self) -> list[NormSite]:
        """The norms of execution_order(), in order."""
        return [step for step in self.execution_order() if isinstance(step, NormSite)]

    @property
    def norm_ids(self) -> list[str]:
        """Norm operator ids in execution order."""
        return [site.norm_id for site in self.norm_sites]

    def fingerprint(self) -> str:
        """SHA-256 over the canonical weight bytes (shape-tagged, float64 LE).

        A graph from load_safetensors keeps the digest taken while it
        loaded.  That digest is returned while every canonical array is
        still one that was hashed and none of them is writeable; any
        other graph (generated, dataclasses.replace, copy.deepcopy, or
        with writes re-enabled on an array) is hashed again.  Re-enabling
        writes, editing and disabling them again defeats this check.
        """
        tensors = tuple(self._canonical_tensors())
        if self._loaded_digest is not None:
            digest, hashed = self._loaded_digest
            if len(hashed) == len(tensors) and all(
                name == hashed_name and array is hashed_array
                and not array.flags.writeable
                for (name, array), (hashed_name, hashed_array) in zip(tensors, hashed)
            ):
                return digest
        digest = hashlib.sha256()
        for name, array in tensors:
            _hash_tensor(digest, name, array)
        return digest.hexdigest()

    def _canonical_tensors(self):
        tagged = [(_canonical_name(role, i), getattr(layer, role))
                  for i, layer in enumerate(self.layers) for role in LAYER_ROLES]
        tagged += [(_canonical_name(role), getattr(self, role)) for role in FINAL_ROLES]
        return ((name, array) for name, array in tagged if array is not None)


def _canonical_name(role: str, layer: int | None = None) -> str:
    """A tensor's name in the fingerprint: "<layer>:<role>" or "final:<gamma|beta>"."""
    return f"final:{role.removeprefix('final_')}" if layer is None else f"{layer}:{role}"


def _hash_tensor(digest, name: str, array: np.ndarray) -> None:
    """Feed one canonical tensor to a SHA-256: its name and shape, a NUL
    byte, then its values as float64 little-endian in C order."""
    digest.update(f"{name}:{_dims(array.shape)}".encode("utf-8") + b"\x00")
    # hashlib reads the array's buffer in place, without the GIL for
    # large buffers: no copy of a weight that is already float64 in C
    # order.
    digest.update(np.ascontiguousarray(array, dtype="<f8"))


# ── synthetic generation ─────────────────────────────────────────────────


@dataclass(frozen=True)
class InitSpec:
    """Gaussian init: every matrix entry ~ N(0, std^2), norm gains ~ 1 +
    N(0, std^2), with an optional multiplicative amplification on chosen
    matrix roles (all layers unless amplify_layers narrows it)."""

    std: float = 0.02
    amplify: dict = field(default_factory=dict)
    amplify_layers: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.std) and self.std >= 0):
            raise ModelError(f"std must be non-negative and finite, got {self.std}")
        for role, factor in self.amplify.items():
            if role not in MATRIX_ROLES:
                raise ModelError(f"unknown amplify role {role!r}")
            if not (math.isfinite(factor) and factor > 0):
                raise ModelError(f"amplify factor for {role!r} must be positive")

    def factor(self, role: str, layer: int) -> float:
        if role not in self.amplify:
            return 1.0
        if self.amplify_layers is not None and layer not in self.amplify_layers:
            return 1.0
        return float(self.amplify[role])


def overflow_amplification(config: ModelConfig, std: float = 0.02) -> float:
    """Amplification of the MLP projections at or above which the
    unscaled FP16 sum-of-squares accumulation is expected to overflow on
    standard-normal tokens.

    Conservative estimate: two amplified matmuls gain (std sqrt(m)) *
    (std sqrt(d)) per amplification step, discounted 8x for
    nonlinearity/gating losses; overflow needs per-entry std of
    sqrt(2 * 65520 / d).  Tests validate the guarantee empirically.
    """
    gain = std * math.sqrt(config.mlp_hidden) * std * math.sqrt(config.d_model)
    if gain <= 0:
        raise ModelError("zero init std cannot be amplified into overflow")
    target = math.sqrt(2.0 * 65520.0 / config.d_model)
    return math.sqrt(target / (gain * 0.125))


def _representable_in_float32(values: np.ndarray, role: str,
                              layer: int | None = None) -> np.ndarray:
    """Snap a draw to float32 so an F32 checkpoint round-trips bit-exactly;
    a draw beyond float32's range is an error, not a weight of inf."""
    with np.errstate(over="ignore"):
        snapped = values.astype(np.float32)
    if not np.isfinite(snapped).all():
        where = "" if layer is None else f" of layer {layer}"
        raise ModelError(
            f"generated {role!r}{where} does not fit float32 (largest |entry| "
            f"{float(np.abs(values).max()):.6g}); lower the std or the amplification"
        )
    return snapped.astype(np.float64)


def generate_synthetic(config: ModelConfig, init: InitSpec, seed: int) -> ModelGraph:
    """Deterministic synthetic weights: a pure function of (config, init, seed)."""
    rng = np.random.default_rng(seed)
    d, m = config.d_model, config.mlp_hidden
    layer_norm = config.norm_kind is NormKind.LAYER_NORM
    gated = config.mlp_kind is MlpKind.LLAMA_GATED

    def vec(offset: float, role: str, layer: int | None = None) -> np.ndarray:
        draw = offset + rng.standard_normal(d) * init.std
        return _representable_in_float32(draw, role, layer)

    def mat(rows: int, cols: int, role: str, layer: int) -> np.ndarray:
        draw = rng.standard_normal((rows, cols)) * (init.std * init.factor(role, layer))
        return _representable_in_float32(draw, role, layer)

    layers = []
    for i in range(config.n_layers):
        gamma1 = vec(1.0, "gamma1", i)
        beta1 = vec(0.0, "beta1", i) if layer_norm else None
        gamma2 = vec(1.0, "gamma2", i)
        beta2 = vec(0.0, "beta2", i) if layer_norm else None
        layers.append(
            DecoderWeights(
                gamma1=gamma1,
                beta1=beta1,
                gamma2=gamma2,
                beta2=beta2,
                w_q=mat(d, d, "w_q", i),
                w_k=mat(d, d, "w_k", i),
                w_v=mat(d, d, "w_v", i),
                p=mat(d, d, "p", i),
                e=mat(d, m, "e", i),
                b=mat(d, m, "b", i) if gated else None,
                g=mat(m, d, "g", i),
            )
        )
    final_gamma = final_beta = None
    if config.has_final_norm:
        final_gamma = vec(1.0, "final_gamma")
        final_beta = vec(0.0, "final_beta") if layer_norm else None
    return ModelGraph(
        config=config,
        layers=tuple(layers),
        final_gamma=final_gamma,
        final_beta=final_beta,
    )


# ── name maps and checkpoint IO ──────────────────────────────────────────


@dataclass(frozen=True)
class NameMap:
    """Mapping from canonical roles to checkpoint tensor names.

    Per-layer roles resolve as layer_template.format(i=layer) + "." +
    roles[role]; the final-norm roles are absolute names.  Roles listed
    in transpose are stored in the transposed (output x input)
    convention and flipped on load/save.
    """

    layer_template: str
    roles: dict
    transpose: frozenset

    def tensor_name(self, role: str, layer: int | None = None) -> str:
        if role not in self.roles:
            raise ModelError(f"name map has no entry for role {role!r}")
        if role in FINAL_ROLES:
            return self.roles[role]
        if layer is None:
            raise ModelError(f"role {role!r} needs a layer index")
        return f"{self.layer_template.format(i=layer)}.{self.roles[role]}"

    @classmethod
    def from_dict(cls, doc: dict) -> "NameMap":
        try:
            return cls(
                layer_template=str(doc["layer_template"]),
                roles=dict(doc["roles"]),
                transpose=frozenset(doc.get("transpose", [])),
            )
        except (KeyError, TypeError) as err:
            raise ModelError(f"bad name map: {err}") from err

    def to_dict(self) -> dict:
        return {
            "layer_template": self.layer_template,
            "roles": dict(self.roles),
            "transpose": sorted(self.transpose),
        }


def default_name_map() -> NameMap:
    """Llama-style checkpoint naming with transposed projections."""
    return NameMap(
        layer_template="model.layers.{i}",
        roles={
            "gamma1": "input_layernorm.weight",
            "beta1": "input_layernorm.bias",
            "gamma2": "post_attention_layernorm.weight",
            "beta2": "post_attention_layernorm.bias",
            "w_q": "self_attn.q_proj.weight",
            "w_k": "self_attn.k_proj.weight",
            "w_v": "self_attn.v_proj.weight",
            "p": "self_attn.o_proj.weight",
            "e": "mlp.gate_proj.weight",
            "b": "mlp.up_proj.weight",
            "g": "mlp.down_proj.weight",
            "final_gamma": "model.norm.weight",
            "final_beta": "model.norm.bias",
        },
        transpose=frozenset(["w_q", "w_k", "w_v", "p", "e", "b", "g"]),
    )


def to_tensor_dict(graph: ModelGraph, name_map: NameMap | None = None) -> dict:
    """Flatten a graph to {tensor name: array} in storage orientation."""
    nm = name_map or default_name_map()
    out: dict[str, np.ndarray] = {}
    for i, layer in enumerate(graph.layers):
        for role in LAYER_ROLES:
            arr = getattr(layer, role)
            if arr is not None:
                out[nm.tensor_name(role, i)] = arr.T if role in nm.transpose else arr
    if graph.final_gamma is not None:
        out[nm.tensor_name("final_gamma")] = graph.final_gamma
    if graph.final_beta is not None:
        out[nm.tensor_name("final_beta")] = graph.final_beta
    return out


def save_safetensors(graph: ModelGraph, path: str, name_map: NameMap | None = None,
                     dtype: str = "F32") -> None:
    safetensors_io.save_tensors(path, to_tensor_dict(graph, name_map), dtype=dtype)


def _infer_config(tensors: dict, nm: NameMap) -> ModelConfig:
    """Best-effort config from tensor names/shapes (real checkpoints).

    Head count is not recoverable from fused projection shapes, so it
    defaults to a single head; scale computation never consults it.
    """
    n_layers = 0
    while nm.tensor_name("gamma1", n_layers) in tensors:
        n_layers += 1
    if n_layers == 0:
        raise ModelError("cannot infer a configuration: no decoder layers found")
    d_model = int(tensors[nm.tensor_name("gamma1", 0)].size)
    e_name = nm.tensor_name("e", 0)
    if e_name not in tensors:
        raise ModelError(f"missing required tensor {e_name!r}")
    e_shape = tensors[e_name].shape
    mlp_hidden = int(e_shape[0] if "e" in nm.transpose else e_shape[1])
    layer_norm = nm.tensor_name("beta1", 0) in tensors
    gated = nm.tensor_name("b", 0) in tensors
    final = nm.tensor_name("final_gamma") in tensors
    return ModelConfig(
        d_model=d_model,
        n_heads=1,
        head_dim=d_model,
        mlp_hidden=mlp_hidden,
        n_layers=n_layers,
        norm_kind=NormKind.LAYER_NORM if layer_norm else NormKind.RMS_NORM,
        residual_placement=(
            ResidualPlacement.PRE_LN if final else ResidualPlacement.POST_LN
        ),
        mlp_kind=MlpKind.LLAMA_GATED if gated else MlpKind.STANDARD,
        nonlinearity=Nonlinearity.SILU,
        epsilon=1e-5,
    )


def load_safetensors(
    path: str,
    name_map: NameMap | None = None,
    config: ModelConfig | None = None,
) -> ModelGraph:
    """Load a checkpoint into a validated double-precision graph.

    Each tensor the config needs is checked once, for shape (in storage
    orientation) and finiteness, in its stored precision; errors name
    the checkpoint tensor.  A tensor the config has no place for is an
    error too.  Widening to float64 and transposing to the row-vector
    convention is one copy per tensor, made in cache-sized blocks.

    The widened arrays are read-only.  One worker thread hashes each of
    them, in fingerprint order, while the next one is checked and
    widened; the graph keeps that digest for fingerprint().
    """
    nm = name_map or default_name_map()
    tensors = safetensors_io.load_tensors(path)
    cfg = config if config is not None else _infer_config(tensors, nm)
    shapes = _role_shapes(cfg)
    hashed: list[tuple[str, np.ndarray]] = []
    pending: queue.SimpleQueue = queue.SimpleQueue()
    outcome: list = []

    def hash_in_order() -> None:
        digest = hashlib.sha256()
        try:
            for name, array in iter(pending.get, None):
                _hash_tensor(digest, name, array)
        except BaseException as err:  # re-raised by load_safetensors
            outcome.append(err)
        else:
            outcome.append(digest.hexdigest())

    def take(role: str, layer: int | None = None) -> np.ndarray | None:
        unused = _unused_reason(cfg, role)
        if unused is not None and role not in nm.roles:
            return None
        name = nm.tensor_name(role, layer)
        if name not in tensors:
            if unused is None:
                raise ModelError(f"missing required tensor {name!r}")
            return None
        if unused is not None:
            raise ModelError(f"unexpected tensor {name!r}: {unused}")
        flip = role in nm.transpose
        stored = tensors[name]
        problem = _tensor_problem(stored, shapes[role][::-1] if flip else shapes[role])
        if problem:
            raise ModelError(f"bad tensor {name!r}: {problem}")
        array = safetensors_io.cast_c_order(stored.T if flip else stored, np.float64)
        array.flags.writeable = False
        hashed.append((_canonical_name(role, layer), array))
        pending.put(hashed[-1])
        return array

    worker = threading.Thread(target=hash_in_order, name="slanc-fingerprint")
    worker.start()
    try:
        layers = tuple(
            DecoderWeights(**{role: take(role, i) for role in LAYER_ROLES})
            for i in range(cfg.n_layers)
        )
        graph = ModelGraph(config=cfg, layers=layers,
                           final_gamma=take("final_gamma"), final_beta=take("final_beta"))
    finally:
        pending.put(None)
        worker.join()
    (result,) = outcome
    if isinstance(result, BaseException):
        raise result
    object.__setattr__(graph, "_loaded_digest", (result, tuple(hashed)))
    return graph


# ── validation ───────────────────────────────────────────────────────────


def _role_shapes(cfg: ModelConfig) -> dict:
    """Role -> expected shape, in the row-vector convention."""
    d, m = cfg.d_model, cfg.mlp_hidden
    shapes = {role: (d,) for role in VECTOR_ROLES + FINAL_ROLES}
    shapes.update({"w_q": (d, d), "w_k": (d, d), "w_v": (d, d), "p": (d, d),
                   "e": (d, m), "b": (d, m), "g": (m, d)})
    return shapes


def _unused_reason(cfg: ModelConfig, role: str) -> str | None:
    """Why cfg has no tensor for role; None when it needs one."""
    if role in FINAL_ROLES and not cfg.has_final_norm:
        return "post-norm placement must not have a final norm"
    if "beta" in role and cfg.norm_kind is not NormKind.LAYER_NORM:
        return "norm kind has no beta"
    if role == "b" and cfg.mlp_kind is not MlpKind.LLAMA_GATED:
        return "MLP kind has no b"
    return None


def _dims(shape: tuple) -> str:
    return "x".join(str(n) for n in shape)


def _tensor_problem(array: np.ndarray, shape: tuple) -> str | None:
    """What makes array unfit for a tensor of this shape; None if nothing."""
    if array.shape != shape:
        return f"expected shape {_dims(shape)}, got {_dims(array.shape)}"
    finite = np.isfinite(array)
    if not finite.all():
        first = int(np.flatnonzero(~finite)[0])
        return f"non-finite entry at flat index {first} ({float(array.flat[first])!r})"
    return None


def validate(graph: ModelGraph) -> list[str]:
    """Check every structural invariant of a graph built in memory; an
    empty list means valid.  load_safetensors checks as it reads."""
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
        problem = _tensor_problem(array, shapes[role])
        if problem:
            problems.append(f"{label}: {problem}")
    return problems


# ── config sidecar files ─────────────────────────────────────────────────


def config_sidecar_path(model_path: str) -> str:
    if model_path.endswith(".safetensors"):
        return model_path[: -len(".safetensors")] + ".config.json"
    return model_path + ".config.json"


def load_config(path: str) -> ModelConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        raise ModelError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ModelError(f"malformed config JSON in {path}: {err}") from err
    return ModelConfig.from_dict(doc)
