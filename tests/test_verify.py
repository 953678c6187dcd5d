"""The check registry shared by ``oscrenorm verify`` and the acceptance
scorecard, and the suite contract the CLI and profilers rely on."""

import functools
import io
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscrenorm
from oscrenorm import oscgroup
from oscrenorm.cli import cmd_verify, main
from oscrenorm.verify import CHECKS, SUITES, element_gap, find_check, run_suite


@functools.cache
def run_all(seed):
    return run_suite("all", seed)


@pytest.mark.parametrize("seed", [0, 7])
def test_each_suite_is_its_block_of_all(seed):
    # Each suite seeds its own generator, so running it alone changes nothing.
    blocks = [run_suite(suite, seed) for suite in CHECKS]
    assert [r for block in blocks for r in block] == run_all(seed)


def test_all_runs_each_registered_check_once_in_order():
    names = [r.name for r in run_all(0)]
    assert len(set(names)) == len(names)
    assert names == [c.name for suite in CHECKS.values() for c in suite]
    assert {"coarse-grain-composition", "semigroup-law"} <= set(names)
    assert SUITES == (*CHECKS, "all")


@pytest.mark.parametrize("suite", ["gaussian", "convolution"])
@pytest.mark.parametrize("seed", [*range(20), 9001])
def test_quadrature_suites_pass_across_seeds(suite, seed):
    failed = [r.line() for r in run_suite(suite, seed) if not r.passed]
    assert failed == []


def test_nan_error_fails_the_check(monkeypatch, capsys):
    # Only the 1-D samples are NaN; a reduction that skips them would pass
    # on the finite 2-D and 3-D samples.
    to_matrix = oscgroup.to_matrix
    monkeypatch.setattr(
        oscgroup, "to_matrix", lambda g: to_matrix(g) * (np.nan if g.dim == 1 else 1.0)
    )
    assert main(["verify", "--suite", "group"]) == 1
    line = "matrix-representation                    FAIL  max_err=nan"
    assert line in capsys.readouterr().out


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_group_checks_and_gaussian_fixed_point_hold_up_to_4d(seed, n):
    rng = np.random.default_rng(seed)
    for check in (*CHECKS["group"], find_check("gaussian-fixed-point")):
        assert check.max_error(rng, 3, (n,)) <= check.tolerance, check.name


def test_element_gap_propagates_nan():
    # The builtin max drops a NaN that is not its first argument.
    g = oscgroup.OscElement.identity(2)
    h = types.SimpleNamespace(m=g.m, k=g.k, v=g.v, c=float("nan"))
    assert np.isnan(element_gap(g, h))


def test_verify_output_independent_of_warm_caches():
    # The second in-process run finds GlElement.identity with its cached
    # inverse, the Gauss-Hermite orders and the 1-D rules already built; a
    # fresh process finds none of them. All three must print the same bytes.
    outputs = []
    for _ in range(2):
        stream = io.StringIO()
        assert cmd_verify("all", 0, stream) == 0
        outputs.append(stream.getvalue().encode())
    src = os.path.dirname(os.path.dirname(oscrenorm.__file__))
    fresh = subprocess.run(
        [sys.executable, "-m", "oscrenorm.cli", "verify", "--suite", "all", "--seed", "0"],
        env=dict(os.environ, PYTHONPATH=src), check=True, timeout=300,
        capture_output=True,
    )
    assert outputs[0] == outputs[1] == fresh.stdout
