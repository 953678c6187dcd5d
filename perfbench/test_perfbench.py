"""Tests of the benchmark's own logic.

Run from the repository root: python -m pytest perfbench/test_perfbench.py
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oscrenorm import (  # noqa: E402
    FieldFunction,
    PropagatorFamily,
    Sym2Tensor,
    cli,
    heat_kernel_base,
    renorm_step,
    w_full,
    wtilde,
)


def quadratic_terms(A):
    """Coefficient table of I(x) = -x A x / 2."""
    n = len(A)
    terms = []
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            terms.append((e, -0.5 * A[i][j] * (1 if i == j else 2)))
    return terms


@pytest.mark.parametrize(
    "P, A",
    [
        ([[1.3]], [[0.7]]),
        ([[1.0, 0.3], [0.3, 0.8]], [[0.6, -0.1], [-0.1, 0.9]]),
        (np.diag([0.5, 0.8, 1.1, 0.4]) + 0.05, np.diag([0.3, 0.6, 0.2, 0.9]) + 0.02),
    ],
)
def test_reference_matches_quadratic_closed_form(P, A):
    P, A = np.asarray(P, float), np.asarray(A, float)
    n = len(P)
    points = np.random.default_rng(1).uniform(-1.0, 1.0, size=(5, n))
    got = reference.wtilde(P, quadratic_terms(A), points)
    inner = np.linalg.inv(np.linalg.inv(A) + P)
    want = -0.5 * math.log(np.linalg.det(np.eye(n) + P @ A)) - 0.5 * np.einsum(
        "mi,ij,mj->m", points, inner, points
    )
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_reference_heat_kernel_matches_library():
    sites = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 1, 1]]
    for mass in (0.0, 0.1, 0.7):
        want = heat_kernel_base(3, sites, 1.3, mass).matrix
        got = reference.heat_kernel(3, sites, 1.3, mass)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize(
    "workload, order, c",
    [
        ("flow-1d", 80, 4.0),
        ("flow-1d", 80, 2.0),
        ("flow-2d-nested", 50, 4.0),
        ("flow-2d-nested", 40, 2.0),
    ],
)
def test_library_at_high_order_agrees_with_reference_flow(workload, order, c):
    config = workloads.make_config(workload, 0)
    terms, base = reference._terms(config), reference._base(config)
    points = reference._points(config)[:5]
    family = PropagatorFamily.with_default_dilation(Sym2Tensor(base))
    flowed = renorm_step(family, c, FieldFunction.polynomial(terms, len(base)), order=order)
    got = np.array([flowed(p) for p in points])
    want = reference.flow_step(base, terms, c, points)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10


def test_library_at_high_order_agrees_with_reference_4d():
    config = workloads.make_config("wtilde-4d", 0)
    terms, base = reference._terms(config), reference._base(config)
    point = reference._points(config)[:1]
    P, I = Sym2Tensor(base), FieldFunction.polynomial(terms, 4)
    got = [wtilde(P, I, order=16)(point[0]), w_full(P, I, point[0], order=16)]
    want = [reference.wtilde(base, terms, point)[0], reference.w_full(base, terms, point)[0]]
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_self_times_on_synthetic_tree():
    # root [0, 10] has children a [1, 4], b [3, 6] (overlapping a) and
    # c [8, 12] (running past the root); a has a child d [2, 3].
    parents = [-1, 0, 0, 0, 1]
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    assert tracing.self_times(parents, starts, ends) == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_tracer_spans_and_errors_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf(fail=False):
        if fail:
            raise ValueError("boom")
        return 1

    leaf_w = tracer.wrap("tensors.leaf", leaf)

    def outer():
        leaf_w()
        with pytest.raises(ValueError):
            leaf_w(fail=True)
        return leaf_w()

    cmd_span = len(tracer.names)
    assert tracer.wrap("cli.cmd", outer)() == 1
    selfs = tracer.self_by_name()
    # Ticks: cmd opens at 0, the leaves take [1,2], [3,4], [5,6], cmd closes at 7.
    assert selfs == {"cli.cmd": 4.0, "tensors.leaf": 3.0}
    assert tracer.errors == {"tensors": 1}
    assert sum(tracer.self_by_name(cmd_span).values()) == 7.0


def test_speed_sampler_rescales_and_excludes_its_loops():
    sampler = child.SpeedSampler()
    start = (10.0, 0)
    # Loops at twice the reference time: the phase ran at half speed.
    sampler.samples = [2 * child.CAL_REF_S] * 4
    assert sampler.scaled(start, (13.0, 4)) == (3.0, 1.5)
    # A phase with no loop of its own uses the last loop before it.
    sampler.samples.append(child.CAL_REF_S / 2)
    assert sampler.scaled((13.0, 5), (14.0, 5)) == (1.0, 2.0)
    sampler.spent = 5.0
    assert abs(sampler.clock() - (child.time.perf_counter() - 5.0)) < 1.0


def test_speed_sampler_takes_loops_while_the_program_runs():
    sampler = child.SpeedSampler()
    sampler.start()
    try:
        start = sampler.mark()
        deadline = child.time.perf_counter() + 4 * child.SAMPLE_INTERVAL_S
        while child.time.perf_counter() < deadline:
            pass
        end = sampler.mark()
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 2
    own, scaled = sampler.scaled(start, end)
    assert 0.0 < own < 4 * child.SAMPLE_INTERVAL_S
    assert scaled > 0.0


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER
    )


def test_workloads_are_seeded_and_accepted(tmp_path):
    for workload in workloads.WORKLOADS:
        assert workloads.make_config(workload, 3) == workloads.make_config(workload, 3)
        path = workloads.write_config(workload, 3, str(tmp_path))
        if path is None:
            continue
        assert workloads.make_config(workload, 3) != workloads.make_config(workload, 4)
        config = cli.load_config(path)
        assert config.interaction.integrable


def test_verify_output_with_a_failed_check_is_rejected():
    lines = [
        "coarse-grain-composition                 PASS  max_err=1.000e-08  tol=1e-05",
        "semigroup-law                            FAIL  max_err=2.000e-04  tol=1e-05",
        "1/2 checks passed (suite=all, seed=0)",
    ]
    with pytest.raises(reference.OutputError):
        reference.verify_error("\n".join(lines) + "\n")
    lines[1] = lines[1].replace("FAIL", "PASS")
    lines[2] = "2/2 checks passed (suite=all, seed=0)"
    assert reference.verify_error("\n".join(lines) + "\n") == 2e-4
