"""The check registry shared by ``oscrenorm verify`` and the acceptance
scorecard, and the suite contract the CLI relies on: a suite's lines are its
block of ``all``, whatever the CPU count, from one round of helpers."""

import dataclasses
import functools
import gc
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
from oscrenorm import NotPositiveDefinite, functions, gaussian, oscgroup, tensors
from oscrenorm.cli import cmd_verify, main
from oscrenorm.verify import (
    CHECKS,
    SUITES,
    _log_gaussian,
    element_gap,
    find_check,
    random_gl,
    random_gl_pos,
    random_osc,
    random_spd,
    random_sym,
    run_suite,
)
from conftest import count_linalg


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
    # The helpers fork with the heap frozen, and the run unfreezes it.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    fork, forked = os.fork, []

    def counting_fork():
        frozen = gc.get_freeze_count()
        pid = fork()
        if pid:
            forked.append(frozen)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    assert gc.get_freeze_count() == 0
    assert run_suite("all", 0) == expected
    assert len(forked) == helpers
    assert all(frozen > 0 for frozen in forked)
    assert gc.get_freeze_count() == 0


def test_a_callers_frozen_objects_stay_frozen(monkeypatch):
    # A run under a caller's freeze neither freezes nor unfreezes.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    unfreeze, calls = gc.unfreeze, []
    gc.freeze()
    try:
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(gc, "unfreeze", lambda: calls.append("unfreeze"))
        assert run_suite("group", 0) == run_all(0)[: len(CHECKS["group"])]
        assert calls == [] and gc.get_freeze_count() > 0
    finally:
        unfreeze()


@pytest.mark.parametrize("raiser, module, name, suite", [
    pytest.param("parent", oscgroup, "osc_mul", "group", id="parent"),
    pytest.param("helper", oscgroup, "osc_mul", "group", id="helper"),
    # A check of a later suite fails while the group checks still run.
    pytest.param("parent", functions, "wtilde", "all", id="later-suite-parent"),
    pytest.param("helper", functions, "wtilde", "all", id="later-suite-helper"),
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
    assert gc.get_freeze_count() == 0
    try:
        with pytest.raises(Boom, match=f"{name} failed"):
            run_suite(suite, 0)
    finally:
        os.close(raised_r)
        os.close(raised_w)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert gc.get_freeze_count() == 0


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
    # The name column is as wide as the longest name,
    # gaussian-fixed-point-rejects-wrong-covariance (45 characters).
    line = "matrix-representation                         FAIL  max_err=nan"
    assert line in capsys.readouterr().out


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_group_checks_and_gaussian_fixed_point_hold_up_to_4d(seed, n):
    rng = np.random.default_rng(seed)
    for check in (*CHECKS["group"], find_check("gaussian-fixed-point")):
        draws = dataclasses.replace(check, trials=3, dims=(n,))
        assert draws.max_error(rng) <= check.tolerance, check.name


def test_element_gap_propagates_nan():
    # The builtin max drops a NaN that is not its first argument.
    g = oscgroup.OscElement.identity(2)
    h = types.SimpleNamespace(m=g.m, k=g.k, v=g.v, c=float("nan"))
    assert np.isnan(element_gap(g, h))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_log_gaussian_is_the_log_density(n):
    rng = np.random.default_rng(n)
    C = random_spd(rng, n)
    log_n = functions.FieldFunction.polynomial(_log_gaussian(C), n)
    X = rng.uniform(-2.0, 2.0, size=(7, n))
    assert log_n.integrable
    np.testing.assert_allclose(
        log_n.values(X), gaussian.GaussianMeasure(C).log_density(X),
        rtol=1e-12, atol=1e-12,
    )


def test_log_gaussian_rejects_a_covariance_that_is_not_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        _log_gaussian(tensors.Sym2Tensor([[1.0, 2.0], [2.0, 1.0]]))


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


def _bits(g, i=None):
    """An element's parts, or those of element ``i`` of a stack, as bytes
    and exact hex, so -0.0 differs from 0.0; a single element's c must be a
    Python float."""
    if i is None:
        return g.m.matrix.tobytes(), g.k.tobytes(), g.v.tobytes(), type(g.c), g.c.hex()
    return (
        g.m.matrix[i].tobytes(), g.k[i].tobytes(), g.v[i].tobytes(), float,
        float(g.c[i]).hex(),
    )


def _public_gl_pos(m):
    """The transform m, or m with its first column negated when det m < 0,
    by public construction."""
    g = tensors.GlElement(m)
    if g.det >= 0:
        return g
    flip = np.eye(len(m))
    flip[0, 0] = -1.0
    return tensors.GlElement(m @ flip)


def _gl_bits(M, i=None):
    if i is None:
        return M.matrix.tobytes(), M._smin.hex(), M._smax.hex()
    return M.matrix[i].tobytes(), float(M._smin[i]).hex(), float(M._smax[i]).hex()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trusted_draws_match_public_construction(n):
    # The sample helpers skip the public validation; the public constructors
    # must store the same bits from the same draws, for a single draw and
    # for each element of a stacked one.
    flipped = 0
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
        a = ref.normal(size=(n, n))
        public = tensors.Sym2Tensor(0.5 * (a @ a.T + 0.5 * np.eye(n)))
        assert random_spd(rng, n, 0.5).matrix.tobytes() == public.matrix.tobytes()
        public = _public_gl_pos(random_gl(ref, n).matrix)
        assert _gl_bits(random_gl_pos(rng, n)) == _gl_bits(public)
        syms, g = random_sym(rng, n, 5), random_osc(rng, n, 5)
        spds, pos = random_spd(rng, n, 0.5, 5), random_gl_pos(rng, n, 5)
        a, m = ref.normal(size=(5, n, n)), random_gl(ref, n, 5).matrix
        k, v, c = ref.normal(size=(5, n)), ref.normal(size=(5, n)), ref.normal(size=5)
        b, drawn = ref.normal(size=(5, n, n)), random_gl(ref, n, 5).matrix
        for i in range(5):
            public = tensors.Sym2Tensor(0.5 * (a[i] + a[i].T))
            assert syms.matrix[i].tobytes() == public.matrix.tobytes()
            public = oscgroup.OscElement(tensors.GlElement(m[i]), k[i], v[i], c[i])
            assert _bits(g, i) == _bits(public)
            public = tensors.Sym2Tensor(0.5 * (b[i] @ b[i].T + 0.5 * np.eye(n)))
            assert spds.matrix[i].tobytes() == public.matrix.tobytes()
            public = _public_gl_pos(drawn[i])
            assert _gl_bits(pos, i) == _gl_bits(public)
            flipped += public.matrix[0, 0] != drawn[i][0, 0]
    assert flipped


@pytest.mark.parametrize("name", ["heisenberg-embedding", "section-conjugation"])
def test_elements_built_from_parts_match_public_construction(monkeypatch, name):
    # Every element these checks build with _from_parts, from parts they drew
    # or computed, equals, element by element of its stack, the public
    # construction from the same parts.
    from_parts, pairs = oscgroup.OscElement._from_parts.__func__, []

    def spy(cls, m, k, v, c):
        trusted = from_parts(cls, m, k, v, c)
        for i in range(len(c)):
            m_i = tensors.GlElement(m.matrix[i])
            public = oscgroup.OscElement(m_i, k[i], v[i], c[i])
            pairs.append((_bits(trusted, i), _bits(public)))
        return trusted

    monkeypatch.setattr(oscgroup.OscElement, "_from_parts", classmethod(spy))
    sample = find_check(name).sample
    for seed in range(20):
        for n in (1, 2, 3):
            sample(np.random.default_rng(seed), n, 3)
    assert pairs
    for trusted, public in pairs:
        assert trusted == public


@pytest.mark.parametrize("n", [1, 2])
def test_random_gl_takes_from_the_generator_what_a_rejection_loop_takes(n):
    # A single draw, and a stack of one, redraw a rejected transform as a
    # loop of single draws does, and leave the generator where it does;
    # a stack keeps only transforms with |det| > 0.1.
    redrawn = 0
    for seed in range(40):
        rng, one, ref = (np.random.default_rng(seed) for _ in range(3))
        while True:
            m = ref.normal(size=(n, n))
            if np.linalg.svd(m, compute_uv=False).prod() > 0.1:
                break
            redrawn += 1
        assert random_gl(rng, n).matrix.tobytes() == m.tobytes()
        assert random_gl(one, n, 1).matrix.tobytes() == m[None].tobytes()
        assert rng.normal() == one.normal() == ref.normal()
    assert redrawn
    stack = random_gl(np.random.default_rng(0), n, 200)
    assert (np.abs(np.linalg.det(stack.matrix)) > 0.1).all()


def test_gaussian_fixed_point_factors_once_per_dimension(monkeypatch):
    # Each dimension's 50 covariances are one stack: one eigvalsh and one
    # Cholesky factorization per dimension, not one per trial.
    check = find_check("gaussian-fixed-point")
    calls = count_linalg(monkeypatch)
    assert check.run(0).passed
    assert (check.trials, check.dims) == (50, (1, 2, 3))
    assert calls == {"eigvalsh": 3, "cholesky": 3}


def test_gl_action_detects_the_transposed_action(monkeypatch):
    # act_fun_gaussian built on M^T C M instead of M C M^T: the acted
    # covariance no longer returns to C under M, in dimension 2.
    def transposed(M, C):
        m = np.swapaxes(M.matrix, -1, -2) @ C.matrix @ M.matrix
        return tensors.Sym2Tensor._exact(tensors._symmetric(m))

    monkeypatch.setattr(gaussian, "act_sym", transposed)
    check = find_check("gaussian-gl-action")
    errors = check.sample(np.random.default_rng(0), 2, check.trials)
    assert errors.shape == (check.trials, 2)
    assert np.max(errors[:, 0]) > check.tolerance
    assert not check.run(0).passed
