"""Command-line front end.

    slanc gen-model --d 256 --layers 4 --seed 7 -o model.safetensors
    slanc scales model.safetensors -o scales.json
    slanc audit model.safetensors --policy fp16 --scales scales.json \
        --tokens 512 --seed 1 -o report.json
    slanc compare model.safetensors --scales scales.json --tokens 512 --seed 1

Exit codes: 0 success, 1 usage or IO error, 2 degenerate scale,
3 numerical failure, 4 overflows found under --fail-on-overflow.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import model as model_mod
from . import report as report_mod
from . import serialization
from .engine import (
    FP16_POLICY,
    REFERENCE_POLICY,
    InputError,
    NonPositiveVarianceError,
    forward,
)
from .linalg import ConvergenceError
from .model import (
    InitSpec,
    MlpKind,
    ModelConfig,
    ModelError,
    NameMap,
    NormKind,
    Nonlinearity,
    ResidualPlacement,
)
from .safetensors_io import SafetensorsError
from .scales import DegenerateScaleError, ScaleTableError, compute_scale_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_NUMERICAL = 3
EXIT_OVERFLOWS = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="slanc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-model", help="write a deterministic synthetic model")
    gen.add_argument("--d", type=int, required=True, help="model width d_model")
    gen.add_argument("--layers", type=int, required=True, help="decoder layer count")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--heads", type=int, default=None,
                     help="attention heads (default: d // 64 if that divides, else 4)")
    gen.add_argument("--mlp-hidden", type=int, default=None,
                     help="MLP hidden width (default: 4 * d)")
    gen.add_argument("--std", type=float, default=0.02, help="init Gaussian std")
    gen.add_argument("--norm-kind", choices=["layernorm", "rmsnorm"], default="rmsnorm")
    gen.add_argument("--placement", choices=["post-ln", "pre-ln"], default="post-ln")
    gen.add_argument("--mlp-kind", choices=["standard", "llama-gated"],
                     default="llama-gated")
    gen.add_argument("--nonlinearity", choices=["relu", "gelu", "silu"], default="silu")
    gen.add_argument("--epsilon", type=float, default=1e-5)
    gen.add_argument("--amplify", action="append", default=[], metavar="ROLES:FACTOR",
                     help="amplify matrix roles, e.g. e,g:8 (repeatable)")
    gen.add_argument("--amplify-layers", default=None, metavar="I,J,...",
                     help="restrict amplification to these layers (default all)")
    gen.add_argument("-o", "--out", required=True, help="output .safetensors path")

    model = argparse.ArgumentParser(add_help=False)  # what every model command reads
    model.add_argument("model", help="model .safetensors path")
    model.add_argument("--name-map", default=None, help="name-map JSON path")
    model.add_argument("--config", default=None, help="config JSON path override")
    tokens = argparse.ArgumentParser(add_help=False)  # the tokens audit and compare run
    source = tokens.add_mutually_exclusive_group()
    source.add_argument("--tokens", type=int, default=None, help="Gaussian token count")
    source.add_argument("--inputs", default=None, help="activation .npy file instead")
    tokens.add_argument("--seed", type=int, default=0, help="token generator seed")

    scales = sub.add_parser("scales", parents=[model],
                            help="compute the static scale table")
    scales.add_argument("-o", "--out", required=True, help="output table JSON path")

    audit = sub.add_parser("audit", parents=[model, tokens],
                           help="run a forward pass and report per-norm stats")
    audit.add_argument("--policy", choices=["fp16", "fp64"], default="fp16")
    audit.add_argument("--scales", default=None, help="scale table JSON path")
    audit.add_argument("--format", choices=["json", "csv"], default="json")
    audit.add_argument("-o", "--out", required=True)
    audit.add_argument("--fail-on-overflow", action="store_true",
                       help="exit 4 if any norm overflowed")

    compare = sub.add_parser("compare", parents=[model, tokens],
                             help="FP64 vs FP16 vs FP16+scales on one input")
    compare.add_argument("--scales", required=True)
    compare.add_argument("-o", "--out", default=None, help="also write report JSON here")
    return parser


# ── shared loading helpers ───────────────────────────────────────────────


def _load_name_map(path: str | None) -> NameMap | None:
    if path is None:
        return None
    return NameMap.from_dict(serialization.read_json(path, "name map", UsageError))


def _load_model(args, fingerprint: bool = True):
    """The checkpoint the options name, opened for one walk: a ModelStream
    that reads one group of tensors at a time through a staging buffer
    of about 1 MiB, hashing them only if fingerprint (a command that
    writes or checks a scale table).  Leaving its block closes a walk
    that failed part way."""
    name_map = _load_name_map(args.name_map)
    config = None
    config_path = args.config or model_mod.config_sidecar_path(args.model)
    if args.config or os.path.exists(config_path):
        config = model_mod.load_config(config_path)
    return model_mod.open_safetensors(args.model, name_map=name_map, config=config,
                                      fingerprint=fingerprint)


def _token_inputs(args, config: ModelConfig) -> tuple[np.ndarray, int | None]:
    if args.inputs is not None:
        try:
            acts = np.load(args.inputs)
        except (OSError, ValueError) as err:
            raise UsageError(f"cannot read activations {args.inputs}: {err}") from err
        if not isinstance(acts, np.ndarray):  # an .npz archive
            acts.close()
            raise UsageError(f"activations {args.inputs} must be one .npy array, "
                             f"not an .npz archive")
        if acts.dtype.kind not in "iuf":
            raise UsageError(f"activations must be integer or floating point, "
                             f"got dtype {acts.dtype}")
        return acts, None  # engine.forward_passes checks its shape and values
    if args.tokens is None:
        raise UsageError("either --tokens or --inputs is required")
    if args.tokens <= 0:
        raise UsageError(f"--tokens must be positive, got {args.tokens}")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    return rng.standard_normal((args.tokens, config.d_model)), args.seed


def _parse_amplify(specs: list[str], layers_spec: str | None):
    amplify: dict[str, float] = {}
    for spec in specs:
        roles_part, sep, factor_part = spec.partition(":")
        if not sep:
            raise UsageError(f"bad --amplify {spec!r}, expected ROLES:FACTOR")
        try:
            factor = float(factor_part)
        except ValueError as err:
            raise UsageError(f"bad --amplify factor in {spec!r}") from err
        for role in roles_part.split(","):
            role = role.strip()
            if not role:
                raise UsageError(f"bad --amplify {spec!r}: empty role")
            amplify[role] = factor
    amplify_layers = None
    if layers_spec is not None:
        try:
            amplify_layers = tuple(int(i) for i in layers_spec.split(","))
        except ValueError as err:
            raise UsageError(f"bad --amplify-layers {layers_spec!r}") from err
    return amplify, amplify_layers


# ── commands ─────────────────────────────────────────────────────────────


def _cmd_gen_model(args) -> int:
    if args.d <= 0:
        raise UsageError(f"--d must be positive, got {args.d}")
    if args.layers < 0:
        raise UsageError(f"--layers must be non-negative, got {args.layers}")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    heads = args.heads
    if heads is None:
        heads = args.d // 64 if args.d % 64 == 0 else 4
    if heads <= 0 or args.d % heads != 0:
        raise UsageError(f"--heads {heads} must divide --d {args.d}")
    amplify, amplify_layers = _parse_amplify(args.amplify, args.amplify_layers)
    config = ModelConfig(
        d_model=args.d,
        n_heads=heads,
        head_dim=args.d // heads,
        mlp_hidden=args.mlp_hidden if args.mlp_hidden is not None else 4 * args.d,
        n_layers=args.layers,
        norm_kind={"layernorm": NormKind.LAYER_NORM,
                   "rmsnorm": NormKind.RMS_NORM}[args.norm_kind],
        residual_placement={"post-ln": ResidualPlacement.POST_LN,
                            "pre-ln": ResidualPlacement.PRE_LN}[args.placement],
        mlp_kind={"standard": MlpKind.STANDARD,
                  "llama-gated": MlpKind.LLAMA_GATED}[args.mlp_kind],
        nonlinearity={"relu": Nonlinearity.RELU, "gelu": Nonlinearity.GELU,
                      "silu": Nonlinearity.SILU}[args.nonlinearity],
        epsilon=args.epsilon,
    )
    init = InitSpec(std=args.std, amplify=amplify, amplify_layers=amplify_layers)
    graph = model_mod.generate_synthetic(config, init, args.seed)
    model_mod.save_safetensors(graph, args.out)
    serialization.atomic_write_text(
        model_mod.config_sidecar_path(args.out), serialization.dumps(config.to_dict())
    )
    print(graph.fingerprint())
    return EXIT_OK


def _cmd_scales(args) -> int:
    with _load_model(args) as model:
        table = compute_scale_table(model)
    serialization.atomic_write_text(args.out, serialization.dumps(table))
    print(f"wrote {len(table['entries'])} scales to {args.out}")
    return EXIT_OK


def _cmd_audit(args) -> int:
    with _load_model(args, fingerprint=args.scales is not None) as model:
        table = (serialization.read_json(args.scales, "scale table", UsageError)
                 if args.scales else None)
        inputs, seed = _token_inputs(args, model.config)
        policy = FP16_POLICY if args.policy == "fp16" else REFERENCE_POLICY
        result = forward(model, inputs, policy, scales=table)
    doc = report_mod.build_audit_report(result, model, args.policy, seed)
    text = report_mod.audit_csv(doc) if args.format == "csv" else serialization.dumps(doc)
    serialization.atomic_write_text(args.out, text)
    overflows = sum(n["overflow_count"] for n in doc["norms"])
    underflows = sum(n["underflow_count"] for n in doc["norms"])
    print(f"{overflows} overflows, {underflows} underflows over "
          f"{doc['tokens']} tokens x {len(doc['norms'])} norms")
    if args.fail_on_overflow and overflows > 0:
        return EXIT_OVERFLOWS
    return EXIT_OK


def _cmd_compare(args) -> int:
    with _load_model(args) as model:
        table = serialization.read_json(args.scales, "scale table", UsageError)
        inputs, seed = _token_inputs(args, model.config)
        doc = report_mod.run_compare(model, inputs, table, seed=seed)
    sys.stdout.write(report_mod.compare_text(doc))
    if args.out:
        serialization.atomic_write_text(args.out, serialization.dumps(doc))
    return EXIT_OK


_COMMANDS = {
    "gen-model": _cmd_gen_model,
    "scales": _cmd_scales,
    "audit": _cmd_audit,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, InputError, ModelError, SafetensorsError, ScaleTableError) as err:
        print(f"slanc: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"slanc: io error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateScaleError as err:
        print(f"slanc: degenerate scale: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ConvergenceError, NonPositiveVarianceError) as err:
        print(f"slanc: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
