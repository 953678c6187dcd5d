"""The check registry shared by ``oscrenorm verify`` and the acceptance
scorecard, and the suite contract the CLI relies on: a suite's lines are its
block of ``all``, whatever the CPU count, from one round of helpers."""

import functools
import io
import os
import select
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscrenorm
from oscrenorm import functions, oscgroup, tensors
from oscrenorm.cli import cmd_verify, main
from oscrenorm.verify import (
    CHECKS,
    SUITES,
    element_gap,
    find_check,
    random_gl,
    random_osc,
    random_sym,
    run_suite,
)


@functools.cache
def run_all(seed):
    return run_suite("all", seed)


class Boom(Exception):
    pass


@pytest.mark.parametrize("seed", [0, 7])
def test_each_suite_is_its_block_of_all(seed):
    # Each check seeds its own generator, so running a suite alone changes
    # nothing.
    blocks = [run_suite(suite, seed) for suite in CHECKS]
    assert [r for block in blocks for r in block] == run_all(seed)


@pytest.mark.parametrize("seed", [0, 7])
def test_each_check_alone_prints_its_line_of_all(seed):
    alone = [check.run(seed).line() for suite in CHECKS.values() for check in suite]
    assert alone == [r.line() for r in run_all(seed)]


def test_seed_independent_lines_do_not_depend_on_the_seed():
    lines = {seed: {r.name: r.line() for r in run_all(seed)} for seed in (0, 7)}
    for name in ("coarse-grain-composition", "semigroup-law"):
        assert lines[0][name] == lines[7][name]


@pytest.mark.parametrize("cpus", [{0}, {0, 1, 2, 3}])
def test_results_do_not_depend_on_the_cpu_count(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert run_suite("all", 0) == run_all(0)


@pytest.mark.parametrize("cpus, helpers", [({0}, 0), ({0, 1}, 1)])
def test_one_run_forks_its_helpers_once(monkeypatch, cpus, helpers):
    # The four suites of "all" share one round of helpers.
    expected = run_all(0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    fork, forked = os.fork, []

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    assert run_suite("all", 0) == expected
    assert len(forked) == helpers


@pytest.mark.parametrize("raiser, module, name, suite", [
    pytest.param("parent", oscgroup, "osc_mul", "group", id="parent"),
    pytest.param("helper", oscgroup, "osc_mul", "group", id="helper"),
    # A check of a later suite fails while the group checks still run.
    pytest.param(
        "parent", functions, "convolve_numeric", "all", id="later-suite-parent"
    ),
    pytest.param(
        "helper", functions, "convolve_numeric", "all", id="later-suite-helper"
    ),
])
def test_error_in_a_check_is_raised_and_helpers_are_reaped(
    monkeypatch, raiser, module, name, suite
):
    # Two usable CPUs, so the run forks a helper even on a one-CPU host.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, original = os.getpid(), getattr(module, name)
    # The other process waits in its first call until the raiser has called
    # (at most 30 s), so the raiser reaches the function even when few
    # checks call it.
    raised_r, raised_w = os.pipe()
    waited = []

    def failing(*args, **kwargs):
        if (os.getpid() == parent) == (raiser == "parent"):
            os.write(raised_w, b"!")
            raise Boom(f"{name} failed")
        if not waited:
            waited.append(select.select([raised_r], [], [], 30))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)
    try:
        with pytest.raises(Boom, match=f"{name} failed"):
            run_suite(suite, 0)
    finally:
        os.close(raised_r)
        os.close(raised_w)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_helpers_do_not_repeat_buffered_output():
    # Piped stdout is block-buffered, so the first line is still in the
    # buffer when the helpers fork; a helper that flushed it on exit would
    # print it twice. Two usable CPUs, so a helper forks on any host.
    src = os.path.dirname(os.path.dirname(oscrenorm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    code = (
        "import os, sys\n"
        "from oscrenorm.cli import main\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "print('verify:')\n"
        "sys.exit(main(['verify', '--suite', 'all', '--seed', '0']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env,
        check=True, timeout=300, capture_output=True, text=True,
    )
    header, *lines = proc.stdout.splitlines()
    assert header == "verify:"
    assert len(lines) == 24
    assert lines == [r.line() for r in run_all(0)] + [
        "23/23 checks passed (suite=all, seed=0)"
    ]


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


def _bits(g):
    """An element's parts as bytes and exact hex, so -0.0 differs from 0.0."""
    return g.m.matrix.tobytes(), g.k.tobytes(), g.v.tobytes(), type(g.c), g.c.hex()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trusted_draws_match_public_construction(n):
    # The sample helpers skip the public validation; the public constructors
    # must store the same bits from the same draws.
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        a = ref.normal(size=(n, n))
        public = tensors.Sym2Tensor(0.5 * (a + a.T))
        assert random_sym(rng, n).matrix.tobytes() == public.matrix.tobytes()
        g = random_osc(rng, n)
        public = oscgroup.OscElement(
            random_gl(ref, n), ref.normal(size=n), ref.normal(size=n), ref.normal()
        )
        assert _bits(g) == _bits(public)


@pytest.mark.parametrize("name", ["heisenberg-embedding", "section-conjugation"])
def test_elements_built_from_parts_match_public_construction(monkeypatch, name):
    # Every element these checks build with _from_parts, from parts they drew
    # or computed, equals the public construction from the same parts.
    from_parts, pairs = oscgroup.OscElement._from_parts.__func__, []

    def spy(cls, m, k, v, c):
        public = oscgroup.OscElement(m, k, v, c)
        pairs.append((from_parts(cls, m, k, v, c), public))
        return pairs[-1][0]

    monkeypatch.setattr(oscgroup.OscElement, "_from_parts", classmethod(spy))
    sample = find_check(name).sample
    for seed in range(20):
        for n in (1, 2, 3):
            sample(np.random.default_rng(seed), n)
    assert pairs
    for trusted, public in pairs:
        assert _bits(trusted) == _bits(public)
