"""Independent high-order reference for the values the CLI emits.

Plain numpy tensor-product Gauss-Hermite at about twice the library's
default order per axis or more. It imports nothing from oscrenorm, so a
change to the library's quadrature cannot move the reference, and it
evaluates every node at once, so it does not share the library's
summation order either.

The flow reference assumes the default dilation generator -I/2 (the
generated configs never set another), for which T_c = c^(-1/2) id and the
step covariance is P_L0 - T_c P_L0 T_c^T = (1 - 1/c) P_L0.  By the exact
semigroup law, two nested steps at sqrt(c) have the single step at c as
their reference.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

#: Reference Gauss-Hermite order per dimension. The library defaults are
#: 40 / 20 / 12 / 8.
REFERENCE_ORDERS = {1: 200, 2: 60, 4: 16}

#: Relative errors are taken against max(|reference|, VALUE_FLOOR).
VALUE_FLOOR = 1e-3

#: Largest accepted relative error per workload; beyond it a run counts as
#: failed. About a hundred times the error measured at the default order.
ACCURACY_LIMITS = {
    "flow-1d": 1e-6,
    "flow-2d-nested": 1e-3,
    "wtilde-4d": 1e-5,
    "verify-all": 1e-5,
}

#: Checks of ``verify --suite all`` that take no random input and report a
#: relative error of a quadrature-evaluated identity (nested against direct
#: evaluation), so their value depends on the code but not on the seed.
VERIFY_ACCURACY_CHECKS = ("coarse-grain-composition", "semigroup-law")


def poly_eval(terms, x: np.ndarray) -> np.ndarray:
    """Polynomial sum_k coeff_k prod_i x_i^e_ki at each row of ``x``."""
    x = np.atleast_2d(x)
    total = np.zeros(x.shape[0])
    for exponents, coeff in terms:
        total += coeff * np.prod(x ** np.asarray(exponents, dtype=float), axis=1)
    return total


def gauss_hermite(cov: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log-weights of the tensor-product rule for N(0, cov)."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    t, w = np.polynomial.hermite.hermgauss(order)
    grids = np.meshgrid(*([t] * n), indexing="ij")
    unit = np.stack([g.ravel() for g in grids], axis=1)
    log_w = np.log(w / math.sqrt(math.pi))
    log_weights = sum(
        g.ravel() for g in np.meshgrid(*([log_w] * n), indexing="ij")
    )
    return math.sqrt(2.0) * unit @ np.linalg.cholesky(cov).T, log_weights


def wtilde(cov, terms, points, order: int | None = None) -> np.ndarray:
    """log E_{y ~ N(0, cov)} exp(I(x - y)) at each row x of ``points``."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    nodes, log_weights = gauss_hermite(cov, order or REFERENCE_ORDERS[n])
    out = []
    for x in np.atleast_2d(np.asarray(points, dtype=float)):
        exponents = log_weights + poly_eval(terms, x - nodes)
        peak = exponents.max()
        out.append(peak + math.log(np.exp(exponents - peak).sum()))
    return np.array(out)


def flow_step(base, terms, c: float, points, order: int | None = None) -> np.ndarray:
    """Flowed interaction wtilde((1 - 1/c) P, I)(x / sqrt(c)) at each point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if c == 1.0:
        return poly_eval(terms, points)
    cov = (1.0 - 1.0 / c) * np.asarray(base, dtype=float)
    return wtilde(cov, terms, points / math.sqrt(c), order)


def w_full(cov, terms, sources, order: int | None = None) -> np.ndarray:
    """Generating function J P J / 2 + wtilde(P, I)(P J) at each source J."""
    cov = np.asarray(cov, dtype=float)
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    quad = 0.5 * np.einsum("mi,ij,mj->m", sources, cov, sources)
    return quad + wtilde(cov, terms, sources @ cov, order)


def heat_kernel_entry(r: float, fiducial: float, mass: float) -> float:
    """int_{L0}^inf (4 pi l)^(-3/2) exp(-m^2 l - r^2 / (4 l)) dl in closed
    form (spatial dimension 3)."""
    m, s = mass, math.sqrt(fiducial)
    if r == 0.0:
        return (
            2.0 * math.exp(-m * m * fiducial) / s
            - 2.0 * m * math.sqrt(math.pi) * math.erfc(m * s)
        ) / (4.0 * math.pi) ** 1.5
    a = r / (2.0 * s)
    return (
        math.exp(-m * r) * math.erfc(m * s - a)
        - math.exp(m * r) * math.erfc(m * s + a)
    ) / (8.0 * math.pi * r)


def heat_kernel(spatial_dim: int, sites, fiducial: float, mass: float) -> np.ndarray:
    """Heat-kernel propagator on lattice sites, entry by entry in closed form."""
    if spatial_dim != 3:
        raise ValueError("the reference heat kernel covers spatial_dim 3 only")
    pts = np.asarray(sites, dtype=float)
    r = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    return np.vectorize(lambda d: heat_kernel_entry(d, fiducial, mass))(r)


def _terms(config: dict) -> list:
    return [(t["exponents"], t["coeff"]) for t in config["interaction"]["terms"]]


def _points(config: dict) -> np.ndarray:
    spec = config["sample_points"]
    if isinstance(spec, dict):
        grid = spec["grid"]
        return np.linspace(grid["lo"], grid["hi"], int(grid["count"]))[:, None]
    return np.asarray(spec, dtype=float)


def _base(config: dict) -> np.ndarray:
    prop = config["propagator"]
    if "base" in prop:
        return np.asarray(prop["base"], dtype=float)
    hk = prop["heat_kernel"]
    return heat_kernel(
        hk["spatial_dim"], hk["sites"], config.get("fiducial_scale", 1.0),
        hk.get("mass", 0.0),
    )


def _rel(values, reference) -> float:
    values, reference = np.asarray(values, float), np.asarray(reference, float)
    scale = np.maximum(np.abs(reference), VALUE_FLOOR)
    return float(np.max(np.abs(values - reference) / scale))


class OutputError(ValueError):
    """The CLI output is malformed or does not match its config."""


def expected(workload: str, config: dict | None) -> dict:
    """Reference values for one generated config, computed once per run."""
    if config is None:
        return {}
    terms, base, points = _terms(config), _base(config), _points(config)
    if workload == "wtilde-4d":
        return {
            "points": points,
            "wtilde": wtilde(base, terms, points),
            "w": w_full(base, terms, points),
        }
    return {
        "points": points,
        "records": {
            c: flow_step(base, terms, c, points) for c in config["scale_ladder"]
        },
    }


def flow_error(text: str, ref: dict) -> float:
    """Largest relative error of a ``flow`` output: every sampled value
    against the reference step, and the emitted nested-versus-direct
    semigroup error."""
    payload = json.loads(text)
    records = payload["records"]
    if [r["c"] for r in records] != list(ref["records"]):
        raise OutputError("flow records do not follow the scale ladder")
    err = 0.0
    for record in records:
        xs = np.array([s["x"] for s in record["samples"]], dtype=float)
        if xs.shape != ref["points"].shape or not np.array_equal(xs, ref["points"]):
            raise OutputError("flow samples do not match the sample points")
        values = [s["value"] for s in record["samples"]]
        if not np.all(np.isfinite(values)):
            raise OutputError("flow sample value is not finite")
        err = max(err, _rel(values, ref["records"][record["c"]]))
    err = max(err, float(payload["semigroup_check"]["max_rel_error"]))
    return err


def wtilde_error(text: str, ref: dict) -> float:
    """Largest relative error of the ``wtilde`` and ``w`` columns."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    n = ref["points"].shape[1]
    if header != [f"x{i}" for i in range(n)] + ["wtilde", "w"]:
        raise OutputError(f"unexpected wtilde header {header}")
    if body.shape != (ref["points"].shape[0], n + 2):
        raise OutputError("wtilde table has the wrong shape")
    if not np.allclose(body[:, :n], ref["points"], rtol=1e-11, atol=1e-12):
        raise OutputError("wtilde rows do not match the sample points")
    return max(_rel(body[:, n], ref["wtilde"]), _rel(body[:, n + 1], ref["w"]))


_CHECK_LINE = re.compile(r"^(\S+)\s+(PASS|FAIL)\s+max_err=(\S+)\s+tol=(\S+)$")


def verify_error(text: str) -> float:
    """Largest error reported by the seed-independent accuracy checks of a
    ``verify --suite all`` output; raises if any check failed."""
    lines = text.strip().splitlines()
    checks = {}
    for line in lines[:-1]:
        match = _CHECK_LINE.match(line)
        if match is None:
            raise OutputError(f"unexpected verify line {line!r}")
        name, status, err, _ = match.groups()
        if status != "PASS":
            raise OutputError(f"verify check {name} failed")
        checks[name] = float(err)
    if not re.match(rf"^{len(checks)}/{len(checks)} checks passed", lines[-1]):
        raise OutputError(f"verify summary reports a failure: {lines[-1]!r}")
    missing = [name for name in VERIFY_ACCURACY_CHECKS if name not in checks]
    if missing:
        raise OutputError(f"verify output lacks checks {missing}")
    return max(checks[name] for name in VERIFY_ACCURACY_CHECKS)


def max_rel_err(workload: str, text: str, ref: dict) -> float:
    """Accuracy of one CLI output; raises OutputError when it is malformed
    or less accurate than the workload's limit."""
    if workload == "verify-all":
        err = verify_error(text)
    elif workload == "wtilde-4d":
        err = wtilde_error(text, ref)
    else:
        err = flow_error(text, ref)
    if not err <= ACCURACY_LIMITS[workload]:
        raise OutputError(
            f"max_rel_err {err:.3e} exceeds the limit {ACCURACY_LIMITS[workload]:.0e}"
        )
    return err
