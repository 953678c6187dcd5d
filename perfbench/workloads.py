"""Seeded workload generator.

Each workload is one CLI invocation of oscrenorm. The seed perturbs the
coefficients, the propagator and the sample points by up to 0.1 % around a
fixed base theory. The perturbation is kept that small because the
quadrature error, reported as ``max_rel_err``, changes steeply with the
inputs: at 5 % its quartile spread across seeds was about its median, at
0.2 % still about 5 %. Every quartic stays a sum of negative multiples of
even monomials, so its leading form stays negative-definite and every
config is accepted. Only the config files written here reach the program.

Why each workload is in the benchmark:

flow-1d
    The README 1-D quartic (q = 40, ladder 1/2/4, semigroup check at c = 4)
    on a finer sample grid. Quadrature nodes are few, so per-call overhead,
    the projection fit, JSON output and set-up time dominate. A batched
    quadrature core gains least here, and any fixed overhead it adds shows.
flow-2d-nested
    A 2-D correlated propagator with a 3-term quartic at the default order
    20 and a semigroup check. Almost all of the run is the nested two-step
    evaluation: 400 x 400 integrand calls per sample point. This is the
    workload that exercises the quadrature mechanism in ``functions``.
wtilde-4d
    The ``wtilde`` command on a 4-D heat-kernel propagator (spatial_dim 3,
    a 2 x 2 plaquette of sites) at q = 8, i.e. 4,096 nodes. One level of
    convolution, no nesting: no point repeats, so the evaluation memo never
    hits, and ``w_full`` builds a fresh quadrature rule on every call.
verify-all
    ``verify --suite all``: the only workload where the algebra layers
    (``tensors``, ``oscgroup``, ``gaussian``) do most of the work. Quadrature
    does little here. It guards those layers against a quadrature-only
    optimisation that slows them.

Seed 9001 is held out: it is used for no tuning and is kept for checking a
later claimed gain on inputs the change was not written against.
"""

from __future__ import annotations

import json
import os

import numpy as np

HELD_OUT_SEED = 9001

WORKLOADS = ("flow-1d", "flow-2d-nested", "wtilde-4d", "verify-all")

#: Relative size of the seeded perturbations.
JITTER = 0.001


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), int(seed)])


def _scale(rng, value: float) -> float:
    return float(value * (1.0 + JITTER * rng.uniform(-1.0, 1.0)))


def _terms(rng, table) -> dict:
    return {
        "terms": [
            {"exponents": list(e), "coeff": _scale(rng, c)} for e, c in table
        ]
    }


def flow_1d(rng) -> dict:
    return {
        "schema_version": 1,
        "dimension": 1,
        "propagator": {"base": [[_scale(rng, 1.0)]]},
        "fiducial_scale": 1.0,
        "interaction": _terms(rng, [((4,), -0.1), ((2,), -0.2)]),
        "scale_ladder": [1.0, 2.0, 4.0],
        "sample_points": {
            "grid": {
                "lo": _scale(rng, -1.0),
                "hi": _scale(rng, 1.0),
                "count": 21,
            }
        },
        "quadrature_order": 40,
        "projection_degree": 4,
        "semigroup_check_c": 4.0,
    }


def flow_2d_nested(rng) -> dict:
    a, b, rho = _scale(rng, 1.0), _scale(rng, 0.8), _scale(rng, 0.3)
    return {
        "schema_version": 1,
        "dimension": 2,
        "propagator": {"base": [[a, rho], [rho, b]]},
        "fiducial_scale": 1.0,
        "interaction": _terms(
            rng, [((4, 0), -0.1), ((0, 4), -0.08), ((2, 2), -0.05)]
        ),
        "scale_ladder": [1.0, 2.0, 4.0],
        "sample_points": [[_scale(rng, 0.3), _scale(rng, -0.4)]],
        "projection_degree": 1,
        "semigroup_check_c": 4.0,
    }


def wtilde_4d(rng) -> dict:
    quartic = [(tuple(4 * (i == j) for j in range(4)), -0.1) for i in range(4)]
    points = [
        [0.6, 0.2, -0.3, 0.4],
        [0.5, -0.1, 0.2, 0.7],
        [-0.4, 0.6, 0.3, -0.2],
        [0.3, 0.3, -0.6, 0.5],
    ]
    return {
        "schema_version": 1,
        "dimension": 4,
        "propagator": {
            "heat_kernel": {
                "spatial_dim": 3,
                "mass": _scale(rng, 0.1),
                "sites": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
            }
        },
        "fiducial_scale": 1.0,
        "interaction": _terms(
            rng, quartic + [((2, 2, 0, 0), -0.05), ((2, 0, 0, 0), -0.2)]
        ),
        "scale_ladder": [1.0],
        "sample_points": [[_scale(rng, v) for v in p] for p in points],
        "quadrature_order": 8,
    }


GENERATORS = {"flow-1d": flow_1d, "flow-2d-nested": flow_2d_nested, "wtilde-4d": wtilde_4d}


def make_config(workload: str, seed: int) -> dict | None:
    """The config for one workload and seed; None for ``verify-all``,
    which takes only the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    generate = GENERATORS.get(workload)
    return None if generate is None else generate(_rng(workload, seed))


def write_config(workload: str, seed: int, directory: str) -> str | None:
    config = make_config(workload, seed)
    if config is None:
        return None
    path = os.path.join(directory, f"{workload}-{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle, sort_keys=True, indent=1)
    return path
