"""Model configuration, synthetic weight generation, and checkpoint
ingestion.

A model is a chain of identical decoder layers (attention sublayer +
MLP sublayer, each with its own norm) plus, for pre-norm residual
placement, one final norm after the last decoder.  Weights use the
row-vector convention throughout: activations are row vectors and every
projection multiplies from the right, so e is d_model x mlp_hidden and
a checkpoint storing the transposed convention is fixed up by the name
map's per-role transpose list.

Every tensor has a slot, (role, layer), layer None for the final norm's.
_slots lists a config's in canonical order, and every walk follows it.

A checkpoint comes in through one reader: open_safetensors streams it
one group of tensors at a time (a layer's gains and shifts, its
attention matrices, its MLP's gate projection, then the rest of its
MLP), yields each step as soon as its group is read and drops a group's
matrices before it reads the next group's.  Every tensor passes through
one staging buffer of about a MiB.  Every `slanc` command walks that
stream once.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from . import safetensors_io, serialization


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


class Formula(str, Enum):
    """Which closed form gives a norm's scale (see slanc.scales)."""

    STANDARD_MLP = "StandardMlp"
    LLAMA_MLP = "LlamaMlp"
    ATTENTION = "Attention"
    UNIT = "Unit"


# Per-layer tensor roles, in canonical (generation and fingerprint) order.
VECTOR_ROLES = ("gamma1", "beta1", "gamma2", "beta2")
ATTENTION_ROLES = ("w_q", "w_k", "w_v", "p")
GATE_ROLES = ("e",)
UP_DOWN_ROLES = ("b", "g")
MLP_ROLES = GATE_ROLES + UP_DOWN_ROLES
MATRIX_ROLES = ATTENTION_ROLES + MLP_ROLES
LAYER_ROLES = VECTOR_ROLES + MATRIX_ROLES
FINAL_ROLES = ("final_gamma", "final_beta")
# The groups a walk reads together, each a run of slot order: a layer's
# gains and shifts, its attention matrices, its MLP's gate projection,
# the rest of its MLP; then the final norm's.
_GROUP = {role: group for group in (VECTOR_ROLES, ATTENTION_ROLES, GATE_ROLES,
                                    UP_DOWN_ROLES, FINAL_ROLES)
          for role in group}


def _held_dtype(role: str) -> type:
    """The dtype a graph holds role in.  Every storage dtype widens
    exactly to float32, so a matrix is held as float32 and widened to
    float64 only inside the product that uses it; gains and shifts are
    float64."""
    return np.float32 if role in MATRIX_ROLES else np.float64


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
        return asdict(self)  # the enums are str enums: json writes their values

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        if not isinstance(doc, dict):
            raise ModelError(f"bad model config: expected a JSON object, got "
                             f"{type(doc).__name__}")

        def number(name: str, kinds=int):
            value = doc[name]  # JSON true/false parse as bool, an int subclass
            if isinstance(value, bool) or not isinstance(value, kinds):
                what = "an integer" if kinds is int else "a number"
                raise ValueError(f"{name} must be {what}, got {value!r}")
            return value

        def real(name: str) -> float:
            value = number(name, (int, float))
            try:
                return float(value)
            except OverflowError:  # a JSON integer beyond float range
                raise ValueError(f"{name} must be a finite number, got a "
                                 f"{len(str(abs(value)))}-digit integer") from None

        try:
            return cls(
                d_model=number("d_model"),
                n_heads=number("n_heads"),
                head_dim=number("head_dim"),
                mlp_hidden=number("mlp_hidden"),
                n_layers=number("n_layers"),
                norm_kind=NormKind(doc["norm_kind"]),
                residual_placement=ResidualPlacement(doc["residual_placement"]),
                mlp_kind=MlpKind(doc["mlp_kind"]),
                nonlinearity=Nonlinearity(doc["nonlinearity"]),
                epsilon=real("epsilon"),
            )
        except (KeyError, TypeError, ValueError, ModelError) as err:
            raise ModelError(f"bad model config: {err}") from err


@dataclass(frozen=True)
class NormSite:
    """A norm operator: its id, decoder index, gain, (LayerNorm) shift,
    and the formula for its scale, which _steps sets from the sublayer
    that runs before it."""

    norm_id: str
    layer: int  # one past the last decoder for the final norm
    gamma: np.ndarray
    beta: np.ndarray | None
    formula: Formula


@dataclass(frozen=True)
class Sublayer:
    """The attention sublayer of one decoder layer, or one of the two
    steps of its MLP: the gate projection e alone (gate), then b and g.
    weights is its own matrices only, {role: array or None}."""

    mlp: bool  # False for attention
    weights: dict
    gate: bool = False  # an MLP's e, read before the rest of its MLP


class _Norms:
    """norm_sites and norm_ids from the config alone, known before a walk."""

    @property
    def norm_sites(self) -> list[NormSite]:
        return [step for step in outline(self.config).execution_order()
                if isinstance(step, NormSite)]

    @property
    def norm_ids(self) -> list[str]:
        return [site.norm_id for site in self.norm_sites]


@dataclass(frozen=True)
class ModelGraph(_Norms):
    """Immutable model: its config and its C-contiguous tensors by slot,
    {(role, layer): array}, held as _held_dtype says; a slot the config
    lacks has no key, and the walks ignore the map's insertion order."""

    config: ModelConfig
    tensors: dict

    def execution_order(self):
        """Each NormSite and Sublayer in the order engine.forward runs
        them, built from the graph's role groups as a stream builds them
        from its reads (see _steps)."""
        yield from _steps(self.config, (
            (key, {role: self.tensors.get((role, layer)) for role, layer in slots})
            for key, slots in _grouped(_slots(self.config.n_layers))))

    def fingerprint(self) -> str:
        """SHA-256 over every held tensor in slot order, each tagged with
        its name, shape and held dtype (see _hash_tensor)."""
        digest = hashlib.sha256()
        for slot in _slots(self.config.n_layers):
            if slot in self.tensors:
                _hash_tensor(digest, *slot, self.tensors[slot])
        return digest.hexdigest()


def _steps(cfg: ModelConfig, groups):
    """Each NormSite and Sublayer of cfg in the order engine.forward runs
    them, from the role groups of a walk in slot order, each ((layer,
    roles), {role: array or None}); see _grouped.  A decoder layer runs
    attention, norm1, MLP, norm2 (PostLN) or norm1, attention, norm2,
    MLP (PreLN); PreLN ends with the final norm.  An MLP comes as two
    Sublayers: its gate projection e alone (gate=True), then b and g.
    Each step comes as soon as the groups it needs are in: a Sublayer
    once its own matrices are (it holds no others), a norm once its gain
    and shift are and the sublayer feeding it has run.  So PreLN's norm1
    comes before its layer's attention matrices are read.  A norm's
    formula is that of the sublayer run since the previous norm, Unit
    when none ran.  The one place norm order and formulas are defined."""
    mlp = (Formula.LLAMA_MLP if cfg.mlp_kind is MlpKind.LLAMA_GATED
           else Formula.STANDARD_MLP)
    # The group after which a layer's norm1, then its norm2, runs.
    after = ((ATTENTION_ROLES, UP_DOWN_ROLES)
             if cfg.residual_placement is ResidualPlacement.POST_LN
             else (VECTOR_ROLES, ATTENTION_ROLES))
    fed = Formula.UNIT  # the formula of the sublayer run since the previous norm
    for (layer, roles), held in groups:
        if roles == VECTOR_ROLES:
            gains = held
        elif roles == GATE_ROLES:
            yield Sublayer(mlp=True, weights=held, gate=True)
        elif roles != FINAL_ROLES:
            yield Sublayer(mlp=roles == UP_DOWN_ROLES, weights=held)
            fed = mlp if roles == UP_DOWN_ROLES else Formula.ATTENTION
        if roles in after:
            i = after.index(roles) + 1
            yield NormSite(f"layer{layer}.norm{i}", layer, gains[f"gamma{i}"],
                           gains[f"beta{i}"], fed)
            fed = Formula.UNIT
        elif roles == FINAL_ROLES and cfg.has_final_norm:
            yield NormSite("final_norm", cfg.n_layers, held["final_gamma"],
                           held["final_beta"], fed)
        del held  # a group's matrices go before the next group is read


def outline(cfg: ModelConfig) -> ModelGraph:
    """cfg's graph holding no tensor: the order of its norms and
    sublayers, known before any weight is read."""
    return ModelGraph(cfg, {})


def _slots(n_layers: int):
    """Every (role, layer) tensor slot of a model with n_layers decoder
    layers, in canonical (generation, checkpoint and fingerprint) order:
    each layer's LAYER_ROLES, then FINAL_ROLES with layer None.  Whether
    a config has a slot is _unused_reason's answer; its shape is
    _role_shapes'."""
    for i in range(n_layers):
        yield from ((role, i) for role in LAYER_ROLES)
    yield from ((role, None) for role in FINAL_ROLES)


def _grouped(slots):
    """slots, (role, layer, ...) tuples in slot order, as runs of one
    layer's _GROUP: ((layer, roles), slots of the run)."""
    return itertools.groupby(slots, lambda slot: (slot[1], _GROUP[slot[0]]))


def _hash_tensor(digest, role: str, layer: int | None, array: np.ndarray) -> None:
    """Feed one tensor to a SHA-256: its name ("<layer>:<role>" or
    "final:<gamma|beta>"), shape and held dtype (see _held_dtype), a NUL
    byte, then its values in that dtype, little-endian and in C order.  An
    array already held so is hashed in place, in one update.  Any other is
    converted once and refused if that changes a value."""
    name = f"final:{role.removeprefix('final_')}" if layer is None else f"{layer}:{role}"
    dtype = np.dtype(_held_dtype(role)).newbyteorder("<")
    with np.errstate(over="ignore"):
        held = np.ascontiguousarray(array, dtype=dtype)
    converted = not np.may_share_memory(held, array)
    if converted and not np.array_equal(held, array, equal_nan=True):
        raise ModelError(f"cannot fingerprint tensor {name!r}: its values are not "
                         f"exact as {dtype.name}")
    digest.update(f"{name}:{_dims(array.shape)}:{dtype.name}".encode("utf-8") + b"\x00")
    digest.update(held)


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


def _representable_in_float32(values: np.ndarray, role: str,
                              layer: int | None = None) -> np.ndarray:
    """A draw snapped to float32, so an F32 checkpoint round-trips
    bit-exactly; a draw beyond float32's range is an error, not a weight
    of inf."""
    with np.errstate(over="ignore"):
        snapped = values.astype(np.float32)
    if not np.isfinite(snapped).all():
        where = "" if layer is None else f" of layer {layer}"
        raise ModelError(
            f"generated {role!r}{where} does not fit float32 (largest |entry| "
            f"{float(np.abs(values).max()):.6g}); lower the std or the amplification"
        )
    return snapped


def generate_synthetic(config: ModelConfig, init: InitSpec, seed: int) -> ModelGraph:
    """Deterministic synthetic weights: a pure function of (config, init, seed).

    One draw per slot the config has, walked in slot order (_slots), each
    of its _role_shapes shape: a matrix role gets N(0, (std * factor)^2),
    a gain 1 + N(0, std^2), a shift N(0, std^2), each snapped to float32
    and held as _held_dtype says.
    """
    outside = [i for i in init.amplify_layers or () if not 0 <= i < config.n_layers]
    if outside:
        raise ModelError(f"amplify layer {outside[0]} is outside [0, {config.n_layers})")
    rng = np.random.default_rng(seed)
    shapes = _role_shapes(config)
    arrays = {}
    for role, layer in _slots(config.n_layers):
        if _unused_reason(config, role) is not None:
            continue
        draw = rng.standard_normal(shapes[role])
        if role in MATRIX_ROLES:
            draw = draw * (init.std * init.factor(role, layer))
        else:
            offset = 1.0 if "gamma" in role else 0.0  # a gain, else a shift
            draw = offset + draw * init.std
        snapped = _representable_in_float32(draw, role, layer)
        arrays[role, layer] = snapped.astype(_held_dtype(role), copy=False)
    return ModelGraph(config, arrays)


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
        """The name map a JSON document describes, read as written: the
        template and every tensor name are strings, and every transpose
        entry names a role.  Two roles naming one tensor are refused
        where names resolve (_check_distinct), not here."""
        def bad(problem: str) -> ModelError:
            return ModelError(f"bad name map: {problem}")

        if not isinstance(doc, dict):
            raise bad(f"expected a JSON object, got {type(doc).__name__}")
        template, roles = doc.get("layer_template"), doc.get("roles")
        transpose = doc.get("transpose", [])
        if not isinstance(template, str):
            raise bad(f"layer_template must be a string, got {template!r}")
        if not isinstance(roles, dict):
            raise bad(f"roles must be a JSON object, got {roles!r}")
        for role, name in roles.items():
            if not isinstance(name, str):
                raise bad(f"roles[{role!r}] must be a string, got {name!r}")
        if not isinstance(transpose, list):
            raise bad(f"transpose must be a list, got {transpose!r}")
        for role in transpose:
            if role not in LAYER_ROLES + FINAL_ROLES:
                raise bad(f"transpose entry {role!r} names no role")
        try:
            template.format(i=0)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as err:
            raise bad(f"layer_template {template!r} does not format with i=0: "
                      f"{type(err).__name__}: {err}") from err
        return cls(layer_template=template, roles=dict(roles),
                   transpose=frozenset(transpose))

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
        transpose=frozenset(MATRIX_ROLES),
    )


def to_tensor_dict(graph: ModelGraph, name_map: NameMap | None = None) -> dict:
    """Flatten a graph to {tensor name: array} in storage orientation, in
    slot order (_slots), the order open_safetensors reads and hashes."""
    nm = name_map or default_name_map()
    named = [(*slot, nm.tensor_name(*slot), graph.tensors[slot])
             for slot in _slots(graph.config.n_layers) if slot in graph.tensors]
    _check_distinct(named)
    return {name: array.T if role in nm.transpose else array
            for role, _, name, array in named}


def save_safetensors(graph: ModelGraph, path: str, name_map: NameMap | None = None,
                     dtype: str = "F32") -> None:
    safetensors_io.save_tensors(path, to_tensor_dict(graph, name_map), dtype=dtype)


def _infer_config(entries: dict, nm: NameMap) -> ModelConfig:
    """Best-effort config from the header's tensor names and shapes
    (real checkpoints).

    Head count is not recoverable from fused projection shapes, so it
    defaults to a single head; scale computation never consults it.
    """
    # Counting stops at a name seen before: a template that ignores i
    # names one layer, not endlessly many.
    names: set = set()
    while ((name := nm.tensor_name("gamma1", len(names))) in entries
           and name not in names):
        names.add(name)
    n_layers = len(names)
    if n_layers == 0:
        raise ModelError("cannot infer a configuration: no decoder layers found")
    d_model = math.prod(entries[nm.tensor_name("gamma1", 0)].shape)
    e_name = nm.tensor_name("e", 0)
    if e_name not in entries:
        raise ModelError(f"missing required tensor {e_name!r}")
    e_shape = entries[e_name].shape
    if len(e_shape) != 2:
        raise ModelError(f"bad tensor {e_name!r}: expected a matrix, got shape "
                         f"{list(e_shape)}")
    mlp_hidden = int(e_shape[0] if "e" in nm.transpose else e_shape[1])

    def present(role: str, layer: int | None = None) -> bool:
        return role in nm.roles and nm.tensor_name(role, layer) in entries

    layer_norm, gated = present("beta1", 0), present("b", 0)
    final = present("final_gamma")
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


def open_safetensors(
    path: str,
    name_map: NameMap | None = None,
    config: ModelConfig | None = None,
    fingerprint: bool = True,
) -> "ModelStream":
    """A checkpoint opened for one walk, one group of tensors at a time,
    hashing each tensor as it is read unless fingerprint is False.

    The file is opened once and its header validated.  The plan walks the
    config's slots (_slots), the one list that generation, saving and the
    fingerprint walk too, and checks, before any payload is read: every
    tensor the config needs is there, with its shape (in storage
    orientation); no tensor is one the config has no place for, nor one
    of a layer past its last; and no two slots resolve to one tensor.
    Errors name the checkpoint tensor.  Only a non-finite entry or a short
    read can then fail the walk.
    """
    nm = name_map or default_name_map()
    handle = safetensors_io.open_file(path)
    try:
        entries = safetensors_io.read_header(handle)
        cfg = config if config is not None else _infer_config(entries, nm)
        return ModelStream(handle, cfg, _plan(entries, cfg, nm), nm.transpose,
                           fingerprint)
    except BaseException:
        handle.close()
        raise


def _plan(entries: dict, cfg: ModelConfig, nm: NameMap) -> list:
    """(role, layer, header entry) for every slot of cfg, in slot order;
    the entry is None where cfg has no place for the role."""
    slots = []
    for role, layer in _slots(cfg.n_layers):
        unused = _unused_reason(cfg, role)
        name = nm.tensor_name(role, layer) if unused is None or role in nm.roles else None
        slots.append((role, layer, name, unused))
    _check_distinct(slots)
    # A tensor of layer n_layers is one of a layer cfg does not have.
    named = {name for _, _, name, _ in slots}
    for role in LAYER_ROLES:
        name = nm.tensor_name(role, cfg.n_layers) if role in nm.roles else None
        if name in entries and name not in named:
            raise ModelError(f"unexpected tensor {name!r}: the config's n_layers "
                             f"is {cfg.n_layers}")
    shapes = _role_shapes(cfg)
    plan = []
    for role, layer, name, unused in slots:
        entry = entries.get(name)
        if entry is None and unused is None:
            raise ModelError(f"missing required tensor {name!r}")
        if entry is not None and unused is not None:
            raise ModelError(f"unexpected tensor {name!r}: {unused}")
        if entry is not None:
            wanted = shapes[role][::-1] if role in nm.transpose else shapes[role]
            problem = _shape_problem(entry.shape, wanted)
            if problem:
                raise ModelError(f"bad tensor {name!r}: {problem}")
        plan.append((role, layer, entry))
    return plan


def _check_distinct(named: list) -> None:
    """Refuse two (role, layer, tensor name, ...) slots naming one tensor,
    which would be loaded into both or saved as one; None names none."""
    named_by: dict = {}
    for role, layer, name, _ in named:
        other = named_by.setdefault(name, (role, layer))
        if name is not None and other != (role, layer):
            raise ModelError(f"bad name map: roles {_slot_label(*other)} and "
                             f"{_slot_label(role, layer)} both name tensor {name!r}")


def _slot_label(role: str, layer: int | None) -> str:
    return repr(role) if layer is None else f"{role!r} of layer {layer}"


class ModelStream(_Norms):
    """A planned checkpoint, walked once, one group of tensors at a time.

    It offers what compute_scale_table and engine.forward read of a
    ModelGraph: config, norm_sites, an execution_order() that may be
    walked once, and a fingerprint() known once that walk is done, if
    the stream hashes.  Each step is yielded as soon as its group is read
    (see _steps), and a group is dropped before the next one is read, so
    a walk holds one group's matrices (attention's four, an MLP's gate
    projection, or its b and g) unless its consumer keeps a step longer:
    the engine, and compute_scale_table for a standard MLP, keep the gate
    projection until the rest of its MLP is read.  A context manager:
    leaving it closes the file, however far the walk got."""

    def __init__(self, handle, config: ModelConfig, plan: list, transpose: frozenset,
                 hashing: bool):
        self.config = config
        self._handle = handle
        self._plan = plan
        self._transpose = transpose
        self._hashing = hashing
        self._walk = None  # the reader, once started
        self._digest: str | None = None

    def __enter__(self) -> "ModelStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._walk is not None:
            self._walk.close()
        self._handle.close()

    def execution_order(self):
        """Each NormSite and Sublayer of the checkpoint, in the order of
        ModelGraph.execution_order(), each group read as the walk reaches it."""
        yield from _steps(self.config, self._read())

    def fingerprint(self) -> str:
        """ModelGraph.fingerprint() of the checkpoint's graph, hashed in
        place as the walk read each held array; known once the walk is done."""
        if not self._hashing:
            raise RuntimeError("this streamed checkpoint was opened without "
                               "a fingerprint")
        if self._digest is None:
            raise RuntimeError("a streamed checkpoint's fingerprint is known only "
                               "once its walk is done")
        return self._digest

    def _read(self):
        """The reader: each role group of the plan in turn (see _grouped),
        as ((layer or None for the final norm, roles), {role: held array
        or None}).  Starts the one walk the stream allows."""
        if self._walk is not None:
            raise RuntimeError("a streamed checkpoint can be walked only once")
        self._walk = self._read_groups()
        return self._walk

    def _read_groups(self):
        """Every tensor passes through one staging buffer (see
        _staging_bytes and _read_held); its held array is read-only and,
        if the stream hashes, is hashed, in slot order, before the next
        tensor is read.  A group is dropped before the next one is read."""
        staging = np.empty(_staging_bytes(entry for _, _, entry in self._plan if entry),
                           dtype=np.uint8)
        digest = hashlib.sha256() if self._hashing else None

        def take(role: str, layer: int | None,
                 entry: safetensors_io.TensorEntry | None) -> np.ndarray | None:
            if entry is None:
                return None
            array = _read_held(self._handle, entry, staging, role, role in self._transpose)
            array.flags.writeable = False
            if digest is not None:
                _hash_tensor(digest, role, layer, array)
            return array

        with self._handle:
            for key, slots in _grouped(self._plan):
                held = {role: take(role, layer, entry) for role, layer, entry in slots}
                yield key, held
                del held  # the group goes before the next one is read
        if digest is not None:
            self._digest = digest.hexdigest()


# Bytes of the one staging buffer a walk reads every payload through.
_STAGING_BYTES = 1 << 20


def _staging_bytes(entries) -> int:
    """Bytes of the staging buffer for a walk over entries: _STAGING_BYTES,
    rounded up to the longest stored row and down to the largest payload."""
    return max((min(entry.nbytes, max(_STAGING_BYTES, entry.nbytes // entry.shape[0]))
                for entry in entries), default=0)


def _read_held(handle, entry: safetensors_io.TensorEntry, staging: np.ndarray,
               role: str, flip: bool) -> np.ndarray:
    """entry's tensor as role is held (see _held_dtype), transposed to the
    row-vector convention when flip: read through staging in chunks of as
    many stored rows as fit, each checked for finiteness in its stored
    precision, then cast, in cache-sized blocks of columns, into a new
    C-order array.  A non-finite entry is reported once the whole payload
    is read, so a short read anywhere in it comes first, as for a payload
    read whole; its flat index counts in stored orientation from the
    tensor's start."""
    n_rows, row = entry.shape[0], math.prod(entry.shape[1:])
    step = staging.nbytes // (entry.nbytes // n_rows)
    held = np.empty(entry.shape[::-1] if flip else entry.shape, dtype=_held_dtype(role))
    problem = None
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        stored = safetensors_io.read_tensor(handle, entry, staging, range(start, stop))
        problem = problem or _value_problem(stored, start * row)
        safetensors_io.cast_into(held[:, start:stop] if flip else held[start:stop],
                                 stored.T if flip else stored)
    if problem:
        raise ModelError(f"bad tensor {entry.name!r}: {problem}")
    return held


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


def _shape_problem(shape: tuple, wanted: tuple) -> str | None:
    """What makes shape unfit for a tensor of shape wanted; None if nothing."""
    if shape != wanted:
        return f"expected shape {_dims(wanted)}, got {_dims(shape)}"
    return None


def _value_problem(array: np.ndarray, offset: int = 0) -> str | None:
    """The first non-finite entry of array, at its flat index plus offset
    (where array starts in a larger tensor); None if there is none."""
    finite = np.isfinite(array)
    if not finite.all():
        first = int(np.flatnonzero(~finite)[0])
        return (f"non-finite entry at flat index {offset + first} "
                f"({float(array.flat[first])!r})")
    return None


# ── config sidecar files ─────────────────────────────────────────────────


def config_sidecar_path(model_path: str) -> str:
    if model_path.endswith(".safetensors"):
        return model_path[: -len(".safetensors")] + ".config.json"
    return model_path + ".config.json"


def load_config(path: str) -> ModelConfig:
    return ModelConfig.from_dict(serialization.read_json(path, "config", ModelError))
