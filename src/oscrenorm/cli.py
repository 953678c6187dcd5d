"""Command-line front-end.

Three subcommands:

  verify  -- run a named property suite with a deterministic seed
  flow    -- produce a renormalization-flow table for a configured theory
  wtilde  -- tabulate generating-function values at requested points

Configuration is a single JSON document with a versioned schema; outputs
are JSON for full flow records and CSV for value tables.  Identical config
and seed produce byte-identical outputs.

Exit codes: 0 success, 1 check/computation failure, 2 config error or an
output file that cannot be written.

Only ``verify`` imports ``oscrenorm.verify``, in ``cmd_verify`` and in
``main``'s check of the suite name.  A run is one process, so start-up is
most of a small ``flow`` or ``wtilde``, and those never load the check
registry.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ConfigError, OscRenormError
from .functions import FieldFunction
from .renorm import (
    DilationFamily,
    PropagatorFamily,
    heat_kernel_base,
    project_polynomial,
    renorm_step,
    step_is_identity,
    step_lift,
    wtilde,
)
from .tensors import Frozen, Sym2Tensor, contract, is_positive_definite, quad_form

SCHEMA_VERSION = 1

#: The names ``verify.SUITES`` holds, spelled out so that building the
#: parser does not import the check registry.
VERIFY_SUITES = ("group", "gaussian", "convolution", "renorm", "all")

#: Highest Gauss-Hermite order with finite positive weights in numpy.
MAX_ORDER = 370

#: Cap on the tensor-product node count, order ** dimension.
MAX_NODES = 2**20

#: Highest exponent of an interaction term: the highest-order rule is exact
#: up to this degree. It also bounds the multiplications that build a power.
MAX_EXPONENT = 2 * MAX_ORDER - 1


class RunConfig(Frozen):
    """Validated run configuration for flow/wtilde commands."""

    family: PropagatorFamily
    interaction: FieldFunction
    scale_ladder: tuple
    sample_points: tuple
    quadrature_order: int | None
    projection_degree: int
    semigroup_check_c: float | None

    def __init__(self, family, interaction, scale_ladder, sample_points,
                 quadrature_order, projection_degree, semigroup_check_c):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "interaction", interaction)
        object.__setattr__(self, "scale_ladder", scale_ladder)
        object.__setattr__(self, "sample_points", sample_points)
        object.__setattr__(self, "quadrature_order", quadrature_order)
        object.__setattr__(self, "projection_degree", projection_degree)
        object.__setattr__(self, "semigroup_check_c", semigroup_check_c)


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _int(value, key: str) -> int:
    """``value`` if it is a JSON integer. Floats and strings are rejected
    rather than truncated or parsed, and so are ``true`` and ``false``,
    which Python reads as the integers 1 and 0."""
    if type(value) is not int:
        raise ConfigError(f"{key} must be an integer, not {json.dumps(value)}")
    return value


def _number(value, key: str) -> float:
    """``value`` as a float if it is a JSON number. Strings are rejected
    rather than parsed, and so are ``true`` and ``false``."""
    if type(value) not in (int, float):
        raise ConfigError(f"{key} must be a number, not {json.dumps(value)}")
    return float(value)


def _numbers(value, key: str):
    """``value`` with every entry of its nested lists read by ``_number``."""
    if isinstance(value, list):
        return [_numbers(v, key) for v in value]
    return _number(value, key)


def _grid_points(spec: dict, dim: int):
    _require(
        {"lo", "hi", "count"} <= set(spec), "grid needs 'lo', 'hi' and 'count'"
    )
    _require(dim == 1, "grid shorthand is only available in dimension 1")
    count = _int(spec["count"], "grid count")
    lo, hi = _number(spec["lo"], "grid lo"), _number(spec["hi"], "grid hi")
    return [[x] for x in np.linspace(lo, hi, count)]


def load_config(path: str, order_override: int | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    # Any malformed value, missing key or library rejection while parsing
    # is a config error.
    try:
        return _parse_config(raw, order_override)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing key {exc}") from exc
    except (ValueError, TypeError, OverflowError, OscRenormError) as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc


def _parse_config(raw, order_override: int | None) -> RunConfig:
    _require(isinstance(raw, dict), "config must be a JSON object")
    version = _int(raw.get("schema_version"), "schema_version")
    _require(version == SCHEMA_VERSION, f"schema_version must be {SCHEMA_VERSION}")
    dim = _int(raw.get("dimension"), "dimension")
    _require(1 <= dim <= 4, "dimension must be in 1..4")

    prop_spec = raw.get("propagator")
    _require(isinstance(prop_spec, dict), "propagator spec is required")
    fiducial = _number(raw.get("fiducial_scale", 1.0), "fiducial_scale")
    _require(0.0 < fiducial < math.inf, "fiducial_scale must be positive and finite")
    if "base" in prop_spec:
        base = Sym2Tensor(_numbers(prop_spec["base"], "base"))
    elif "heat_kernel" in prop_spec:
        hk = prop_spec["heat_kernel"]
        # heat_kernel_base rejects spatial_dim < 1 and a negative or
        # non-finite mass.
        base = heat_kernel_base(
            _int(hk["spatial_dim"], "spatial_dim"),
            _numbers(hk["sites"], "sites"),
            fiducial,
            _number(hk.get("mass", 0.0), "mass"),
        )
    else:
        raise ConfigError("propagator needs either 'base' or 'heat_kernel'")
    _require(base.dim == dim, "propagator dimension does not match 'dimension'")

    if "dilation_generator" in raw:
        dilation = DilationFamily(
            _numbers(raw["dilation_generator"], "dilation_generator")
        )
        _require(dilation.dim == dim, "dilation generator has wrong dimension")
    else:
        dilation = DilationFamily.default(dim)
    family = PropagatorFamily(base, dilation)

    inter_spec = raw.get("interaction")
    _require(
        isinstance(inter_spec, dict) and "terms" in inter_spec,
        "interaction must carry a 'terms' table",
    )
    terms = [
        ([_int(v, "exponents") for v in t["exponents"]], _number(t["coeff"], "coeff"))
        for t in inter_spec["terms"]
    ]
    _require(
        all(0 <= v <= MAX_EXPONENT for exponents, _ in terms for v in exponents),
        f"exponents must be in 0..{MAX_EXPONENT}",
    )
    interaction = FieldFunction.polynomial(terms, dim)
    _require(
        interaction.integrable,
        "interaction is not integrable: it needs even maximal degree with a "
        "negative-definite leading form",
    )

    ladder = raw.get("scale_ladder", [])
    _require(
        isinstance(ladder, list) and len(ladder) >= 1,
        "scale_ladder must be a non-empty list",
    )
    ladder = tuple(_number(c, "scale_ladder") for c in ladder)
    _require(all(c >= 1.0 for c in ladder), "scale_ladder values must be >= 1")
    _require(all(c < math.inf for c in ladder), "scale_ladder values must be finite")
    _require(list(ladder) == sorted(ladder), "scale_ladder must be sorted")

    pts_spec = raw.get("sample_points")
    _require(pts_spec is not None, "sample_points is required")
    if isinstance(pts_spec, dict) and "grid" in pts_spec:
        points = _grid_points(pts_spec["grid"], dim)
    else:
        _require(isinstance(pts_spec, list), "sample_points must be a list or grid")
        points = _numbers(pts_spec, "sample_points")
    points = tuple(tuple(float(v) for v in p) for p in points)
    _require(len(points) >= 1, "sample_points must hold at least one point")
    _require(
        all(len(p) == dim for p in points),
        "every sample point must match the configured dimension",
    )
    _require(np.isfinite(points).all(), "sample points must be finite")

    order = raw.get("quadrature_order")
    if order_override is not None:
        order = order_override
    if order is not None:
        order = _int(order, "quadrature_order")
        _require(
            2 <= order <= MAX_ORDER, f"quadrature_order must be in 2..{MAX_ORDER}"
        )
        _require(
            order**dim <= MAX_NODES,
            f"quadrature_order {order} in dimension {dim} needs {order**dim} "
            f"nodes, more than {MAX_NODES}",
        )

    degree = _int(raw.get("projection_degree", 4), "projection_degree")
    _require(1 <= degree <= 8, "projection_degree must be in 1..8")

    check_c = raw.get("semigroup_check_c")
    if check_c is not None:
        check_c = _number(check_c, "semigroup_check_c")
        _require(
            1.0 < check_c < math.inf, "semigroup_check_c must be finite and exceed 1"
        )

    # Every factor a flow steps by: a step covariance must be zero (the
    # identity step) or have a Gaussian density to integrate against. The
    # family keeps these lifts, and the run's steps reuse them.
    factors = set(ladder)
    if check_c is not None:
        factors |= {check_c, math.sqrt(check_c)}
    for c in sorted(factors):
        lift = step_lift(family, c)
        _require(
            step_is_identity(family, lift) or is_positive_definite(lift.p),
            f"step covariance P_L0 - P_cL0 at c = {c!r} is nonzero but not "
            "positive definite; the dilation family must contract every "
            "direction of the base propagator",
        )

    return RunConfig(
        family=family,
        interaction=interaction,
        scale_ladder=ladder,
        sample_points=points,
        quadrature_order=order,
        projection_degree=degree,
        semigroup_check_c=check_c,
    )


def cmd_verify(suite: str, seed: int, stream=None) -> int:
    from .verify import run_suite

    stream = stream or sys.stdout
    results = run_suite(suite, seed)
    failed = [r for r in results if not r.passed]
    for result in results:
        print(result.line(), file=stream)
    print(
        f"{len(results) - len(failed)}/{len(results)} checks passed "
        f"(suite={suite}, seed={seed})",
        file=stream,
    )
    return 1 if failed else 0


def _flow_record(
    config: RunConfig, c: float, points: np.ndarray, values: np.ndarray
) -> dict:
    samples = [
        {"x": list(p), "value": v}
        for p, v in zip(config.sample_points, values.tolist())
    ]
    terms, residual = project_polynomial(points, values, config.projection_degree)
    projection = {
        "terms": [{"exponents": list(e), "coeff": coeff} for e, coeff in terms]
    }
    return {
        "c": c,
        "interaction_projection": projection,
        "residual": residual,
        "samples": samples,
    }


def cmd_flow(config: RunConfig, seed: int, out_path: str) -> int:
    points = np.array(config.sample_points, dtype=float)
    flowed = {}

    def step(c: float) -> FieldFunction:
        """The interaction after one step at c, built once per c: the
        semigroup check reuses the ladder's steps."""
        if c not in flowed:
            flowed[c] = renorm_step(
                config.family, c, config.interaction, order=config.quadrature_order
            )
        return flowed[c]

    values = {c: step(c).values(points) for c in config.scale_ladder}
    records = [_flow_record(config, c, points, values[c]) for c in config.scale_ladder]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "dimension": config.family.dim,
        "records": records,
    }
    if config.semigroup_check_c is not None:
        c = config.semigroup_check_c
        half = math.sqrt(c)
        a = values[c] if c in values else step(c).values(points)
        twice = renorm_step(config.family, half, step(half),
                            order=config.quadrature_order)
        b = twice.values(points)
        max_rel = float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-12)))
        payload["semigroup_check"] = {"c": c, "max_rel_error": max_rel}
    return _write_output(out_path, _json_text(payload) + "\n")


def cmd_wtilde(config: RunConfig, out_path: str) -> int:
    """One row per sample point J: wtilde(P, I)(J) and the full
    w(P, I)(J) = J P J / 2 + wtilde(P, I)(P J), from one batched call."""
    P = config.family.base
    wt = wtilde(P, config.interaction, order=config.quadrature_order)
    points = config.sample_points
    sources = [contract(P, J) for J in points]
    values = wt.values(np.vstack([points, sources]))
    lines = []
    header = [f"x{i}" for i in range(config.family.dim)] + ["wtilde", "w"]
    lines.append(",".join(header))
    for i, p in enumerate(points):
        row = [f"{v:.12g}" for v in p]
        row.append(f"{values[i]:.12g}")
        row.append(f"{0.5 * quad_form(p, P) + values[len(points) + i]:.12g}")
        lines.append(",".join(row))
    return _write_output(out_path, "\n".join(lines) + "\n")


_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, for
    a JSON value: dicts with str keys, lists, tuples, str, int, bool, None
    and float (NaN and the infinities spelled as json spells them). The
    flow output promises that layout. ``json`` would write it with its
    pure-Python encoder, because on Python 3.10 and 3.11 it does not use
    its C encoder when ``indent`` is set; this writer appends the pieces
    to one list and joins them once, with fewer calls per value."""
    parts = []
    append = parts.append

    def emit(v, pad):
        if isinstance(v, float):
            text = float.__repr__(v)
            append(_SPECIAL_FLOATS.get(text, text))
        elif isinstance(v, dict):
            inner = pad + "  "
            sep = "{" + inner
            for key in sorted(v):
                append(sep + encode_basestring_ascii(key) + ": ")
                emit(v[key], inner)
                sep = "," + inner
            append(pad + "}" if v else "{}")
        elif isinstance(v, (list, tuple)):
            inner = pad + "  "
            sep = "[" + inner
            for item in v:
                append(sep)
                emit(item, inner)
                sep = "," + inner
            append(pad + "]" if v else "[]")
        elif isinstance(v, str):
            append(encode_basestring_ascii(v))
        elif v is None or v is True or v is False:
            append("null" if v is None else "true" if v else "false")
        elif isinstance(v, int):
            append(int.__repr__(v))
        else:
            raise TypeError(f"{type(v).__name__} is not JSON serializable")

    emit(value, "\n")
    return "".join(parts)


def _write_output(out_path: str, text: str) -> int:
    """Write ``text`` to stdout when ``out_path`` is ``-``, else to the
    file ``out_path``: 0, or 2 after an ``error: cannot write output``
    line when the file cannot be written."""
    if out_path == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def _seed(text: str) -> int:
    """A ``verify --seed``: an integer >= 0, as numpy's generators take."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscrenorm",
        description="Oscillator-group renormalization numerics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("--suite", default="all", help=f"one of {VERIFY_SUITES}")
    p_verify.add_argument("--seed", type=_seed, default=0)

    p_flow = sub.add_parser("flow", help="emit a renormalization-flow table")
    p_flow.add_argument("--config", required=True)
    p_flow.add_argument("--seed", type=int, default=0)
    p_flow.add_argument("--out", required=True)
    p_flow.add_argument("--quadrature-order", type=int, default=None)

    p_wt = sub.add_parser("wtilde", help="tabulate generating-function values")
    p_wt.add_argument("--config", required=True)
    p_wt.add_argument("--out", default="-")
    p_wt.add_argument("--quadrature-order", type=int, default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            from .verify import SUITES

            if args.suite not in SUITES:
                print(f"error: unknown suite {args.suite!r}", file=sys.stderr)
                return 2
            return cmd_verify(args.suite, args.seed)
        config = load_config(args.config, args.quadrature_order)
        if args.command == "flow":
            return cmd_flow(config, args.seed, args.out)
        return cmd_wtilde(config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OscRenormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
