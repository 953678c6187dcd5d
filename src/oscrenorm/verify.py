"""The registry of randomized property checks, shared by the ``verify``
command and the acceptance scorecard (``tests/test_acceptance.py``).

Each check tests one structural identity of the library (group laws, section
homomorphisms, the Gaussian convolution semigroup, coarse-graining and the
flow semigroup) as a per-sample function ``(rng, n) -> error``. ``verify``
runs it at its registered trial count and dimensions from its own generator,
keyed by the seed and the check's name, so a check's line depends on nothing
else; the scorecard runs it with its own counts and generator.

The checks share no state, so a run, of one suite or of all of them, spreads
its checks over every CPU the process may use. It forks one helper per extra
CPU once per run, not once per suite, and runs checks itself. Every process
takes check indices from one shared pipe until all are done, and each helper
sends back its results, or the exception that stopped it, pickled. The
results are put back in registry order, so the output does not depend on
the CPU count or on which process ran which check.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import functions as fn
from . import gaussian as gs
from . import oscgroup as og
from . import renorm as rn
from . import tensors as tn


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_error: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name:<40s} {status}  "
            f"max_err={self.max_error:.3e}  tol={self.tolerance:.0e}"
        )


@dataclass(frozen=True)
class Check:
    """One identity. ``sample(rng, n)`` draws one instance in dimension n
    and returns its error, or a sequence of errors of a fixed length. The
    check passes when the largest error over ``dims`` x ``trials`` draws is
    at most ``tolerance``; a check that must detect a violation
    (``exceeds``) passes above it."""

    name: str
    sample: Callable
    tolerance: float
    trials: int = 1
    dims: tuple = (1,)
    exceeds: bool = False

    def max_error(self, rng, trials=None, dims=None) -> float:
        """Largest error over the draws, taken dimension by dimension from
        the caller's generator. Unlike the builtin ``max``, this is NaN if
        any error is NaN, so a check that computes nothing cannot pass."""
        trials = self.trials if trials is None else trials
        dims = self.dims if dims is None else dims
        return float(np.max([self.sample(rng, n) for n in dims for _ in range(trials)]))

    def run(self, seed: int) -> CheckResult:
        """The check at its registered counts, from a generator keyed by
        ``seed`` and the name (``zlib.crc32``, which unlike ``hash`` is the
        same in every process)."""
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        err = self.max_error(rng)
        passed = err > self.tolerance if self.exceeds else err <= self.tolerance
        return CheckResult(self.name, passed, err, self.tolerance)


def _rel(a, b):
    """Relative gaps |a - b| / max(|a|, 1e-12), elementwise."""
    return np.abs(a - b) / np.maximum(np.abs(a), 1e-12)


# ---------------------------------------------------------------------------
# sample helpers, shared with the test suite
#
# A draw is built with the constructor whose guarantees it already meets:
# ``0.5 * (a + a.T)`` is exactly symmetric and finite, so it skips the public
# symmetry check, and fresh finite draws of the right length skip the public
# re-validation of an element's parts. The group suite makes thousands of
# draws, and validating them cost more than the laws it checks. Public
# construction of the same draw stores the same bits (tests/test_verify.py).
# ---------------------------------------------------------------------------

def random_gl(rng, n):
    """Random transform with |det| > 0.1; |det| is the product of the
    singular values, which the element keeps as its bounds."""
    while True:
        m = rng.normal(size=(n, n))
        svals = np.linalg.svd(m, compute_uv=False)
        if svals.prod() > 0.1:
            return tn.GlElement._from_svd(m, svals)


def random_gl_pos(rng, n):
    """Random transform with positive determinant."""
    m = random_gl(rng, n)
    if m.det < 0:
        flip = np.eye(n)
        flip[0, 0] = -1.0
        m = tn.GlElement(m.matrix @ flip)
    return m


def random_spd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return tn.Sym2Tensor(scale * (a @ a.T + 0.5 * np.eye(n)))


def random_sym(rng, n):
    a = rng.normal(size=(n, n))
    return tn.Sym2Tensor._exact(0.5 * (a + a.T))


def random_osc(rng, n):
    return og.OscElement._from_parts(
        random_gl(rng, n), rng.normal(size=n), rng.normal(size=n), rng.normal()
    )


def element_gap(a: og.OscElement, b: og.OscElement) -> float:
    """Largest absolute entry gap over the M, k, v and c parts; NaN if any
    gap is NaN."""
    return np.abs(np.concatenate((
        (a.m.matrix - b.m.matrix).ravel(), a.k - b.k, a.v - b.v, [a.c - b.c],
    ))).max()


# ---------------------------------------------------------------------------
# group suite
# ---------------------------------------------------------------------------

def _associativity(rng, n):
    g, h, f = (random_osc(rng, n) for _ in range(3))
    return element_gap(
        og.osc_mul(og.osc_mul(g, h), f), og.osc_mul(g, og.osc_mul(h, f))
    )


def _identity_inverse(rng, n):
    g, e = random_osc(rng, n), og.OscElement.identity(n)
    return (
        element_gap(og.osc_mul(g, og.osc_inv(g)), e),
        element_gap(og.osc_mul(g, e), g),
    )


def _matrix_representation(rng, n):
    g, h = random_osc(rng, n), random_osc(rng, n)
    gh = og.to_matrix(og.osc_mul(g, h))
    return np.abs(gh - og.to_matrix(g) @ og.to_matrix(h)).max()


def _heisenberg_embedding(rng, n):
    heis = functools.partial(og.OscElement._from_parts, tn.GlElement.identity(n))
    j, u, a = rng.normal(size=n), rng.normal(size=n), rng.normal()
    k, v, b = rng.normal(size=n), rng.normal(size=n), rng.normal()
    lhs = og.osc_mul(heis(j, u, a), heis(k, v, b))
    return element_gap(lhs, heis(j + k, u + v, a + b + float(j @ v)))


def _section_sum(rng, n):
    A, B = random_sym(rng, n), random_sym(rng, n)
    k = rng.normal(size=n)
    # An(A)(k) and An(B)(k) share their M and k parts; the fibrewise sum
    # adds the v and c parts.
    a, b = og.an_apply(A, k), og.an_apply(B, k)
    summed = og.an_apply(A + B, k)
    # The section is also a homomorphism in k for a fixed tensor.
    k2 = rng.normal(size=n)
    split = og.osc_mul(a, og.an_apply(A, k2))
    return (
        np.abs(summed.v - (a.v + b.v)).max(),
        abs(summed.c - (a.c + b.c)),
        element_gap(og.an_apply(A, k + k2), split),
    )


def _commutativity(rng, n):
    C = random_sym(rng, n)
    k1, k2 = rng.normal(size=n), rng.normal(size=n)
    g1, g2 = og.an_apply(C, k1), og.an_apply(C, k2)
    return element_gap(og.osc_mul(g1, g2), og.osc_mul(g2, g1))


def _section_conjugation(rng, n):
    # (M,0,0,0) * An(C)(kM) * (M,0,0,0)^-1 through the group law.
    C, M = random_sym(rng, n), random_gl(rng, n)
    k = rng.normal(size=n)
    mg = og.OscElement._from_parts(M, np.zeros(n), np.zeros(n), 0.0)
    lhs = og.osc_mul(og.osc_mul(mg, og.an_apply(C, M.matrix.T @ k)), og.osc_inv(mg))
    return element_gap(lhs, og.an_apply(tn.act_sym(M, C), k))


def _action_composition(rng, n):
    C, M1, M2 = random_sym(rng, n), random_gl(rng, n), random_gl(rng, n)
    lhs = tn.act_sym(M1, tn.act_sym(M2, C))
    return np.abs(lhs.matrix - tn.act_sym(M1 @ M2, C).matrix).max()


def _scale_lift(rng, n):
    C, M1, M2 = random_sym(rng, n), random_gl(rng, n), random_gl(rng, n)
    lhs = og.sd_mul(og.ur(C, M1), og.ur(C, M2))
    rhs = og.ur(C, M1 @ M2)
    return (
        np.abs(lhs.m.matrix - rhs.m.matrix).max(),
        np.abs(lhs.p.matrix - rhs.p.matrix).max(),
    )


# ---------------------------------------------------------------------------
# gaussian suite
# ---------------------------------------------------------------------------

def _fixed_point(rng, n):
    C = random_spd(rng, n)
    g = gs.GaussianMeasure(C)
    k, x = rng.uniform(-1, 1, size=n), rng.uniform(-2, 2, size=n)
    return abs(gs.shifted_log_eval(g, C, k, x) - g.log_eval(x))


def _wrong_covariance(rng, n):
    C = random_spd(rng, n)
    g = gs.GaussianMeasure(C)
    k, x = rng.uniform(0.5, 1.0, size=n), rng.uniform(-1, 1, size=n)
    return abs(gs.shifted_log_eval(g, 2.0 * C, k, x) - g.log_eval(x))


def _gaussian_convolution(rng, n):
    A, B = tn.Sym2Tensor([[1.0]]), tn.Sym2Tensor([[2.0]])
    exact = gs.GaussianMeasure(A + B)
    fa, fb = fn.FieldFunction.gaussian(A), fn.FieldFunction.gaussian(B)
    errors = []
    for x in np.linspace(-3.0, 3.0, 21):
        want = math.exp(exact.log_eval([x]))
        got = fn.convolve_numeric(fa, fb, _rule_1d(1.0, 40), [x])
        errors.append(abs(got - want) / want)
    return errors


def _gl_action(rng, n):
    C, M = random_spd(rng, n), random_gl_pos(rng, n)
    g = gs.GaussianMeasure(C)
    acted = gs.act_fun_gaussian(M, g)
    x = rng.uniform(-1, 1, size=n)
    return (
        np.max(np.abs(acted.covariance.matrix - tn.act_sym(M.inverse, C).matrix)),
        abs(M.det * math.exp(g.log_eval(M.matrix @ x)) - math.exp(acted.log_eval(x))),
    )


def _normalization(rng, n):
    g = gs.GaussianMeasure(random_spd(rng, n))
    return abs(gs.normalization_by_quadrature(g) - 1.0)


# ---------------------------------------------------------------------------
# convolution suite (1-D); its rules and factors are built on first use
# ---------------------------------------------------------------------------

@functools.cache
def _rule_1d(variance, order):
    return fn.QuadratureRule.for_covariance(tn.Sym2Tensor([[variance]]), order=order)


@functools.cache
def _factors():
    return (
        fn.FieldFunction.gaussian(tn.Sym2Tensor([[1.0]])),
        fn.FieldFunction.exp_polynomial([((2,), -0.3), ((1,), 0.2)], 1),
    )


def _conv_commutativity(rng, n):
    (f, g), rule, x = _factors(), _rule_1d(0.8, 40), rng.uniform(-1.5, 1.5)
    return abs(
        fn.convolve_numeric(f, g, rule, [x]) - fn.convolve_numeric(g, f, rule, [x])
    )


def _linear_source_action(rng, n):
    # det(M) factors out of the convolution of the acted factors.
    (f, g), x = _factors(), rng.uniform(-1.0, 1.0)
    M, k = tn.GlElement([[1.5]]), np.array([0.4])
    gel = og.OscElement(M, k, np.zeros(1), 0.0)
    lhs = math.exp(float(k @ [x])) * fn.convolve_numeric(
        f, g, _rule_1d(0.8, 40), M.matrix @ [x]
    )
    acted = fn.sigma_act(f, gel), fn.sigma_act(g, gel)
    return _rel(lhs, M.det * fn.convolve_numeric(*acted, _rule_1d(0.5, 48), [x]))


def _translation_action(rng, n):
    # The shift may live on either factor.
    (f, g), rule, x = _factors(), _rule_1d(0.8, 40), rng.uniform(-1.0, 1.0)
    shift = og.OscElement(tn.GlElement.identity(1), np.zeros(1), np.array([0.3]), 0.2)
    lhs = math.exp(0.2) * fn.convolve_numeric(f, g, rule, np.array([x + 0.3]))
    return _rel(lhs, np.array([
        fn.convolve_numeric(fn.sigma_act(f, shift), g, rule, [x]),
        fn.convolve_numeric(f, fn.sigma_act(g, shift), rule, [x]),
    ]))


def _convolve_constant(rng, n):
    one = fn.FieldFunction.constant(1.0, 1)
    gau = fn.FieldFunction.gaussian(tn.Sym2Tensor([[1.3]]))
    return [
        abs(fn.convolve_numeric(gau, one, _rule_1d(1.3, 40), [x]) - 1.0)
        for x in (-2.0, 0.0, 1.0)
    ]


# ---------------------------------------------------------------------------
# renorm suite (1-D)
# ---------------------------------------------------------------------------

def _quartic():
    return fn.FieldFunction.polynomial([((4,), -0.1)], 1)


def _family():
    return rn.PropagatorFamily.with_default_dilation(tn.Sym2Tensor([[1.0]]))


def _coarse_grain_composition(rng, n):
    quartic, P1, P2 = _quartic(), tn.Sym2Tensor([[0.5]]), tn.Sym2Tensor([[0.5]])
    direct = rn.wtilde(P1 + P2, quartic)
    nested = rn.wtilde(P1, rn.wtilde(P2, quartic))
    X = np.linspace(-1.5, 1.5, 10)[:, None]
    return _rel(direct.values(X), nested.values(X))


def _rescaling(rng, n):
    quartic, M, P = _quartic(), tn.GlElement([[2.0]]), tn.Sym2Tensor([[4.0]])
    Pr, Ir = rn.rescale(M, P, quartic)
    wt, wtr = rn.wtilde(P, quartic), rn.wtilde(Pr, Ir)
    pairs = [(wt(M.matrix @ [x]), wtr([x])) for x in (-1.0, 0.0, 1.0)]
    pairs += [
        (rn.w_full(P, quartic, np.linalg.solve(M.matrix.T, [J])), rn.w_full(Pr, Ir, [J]))
        for J in rng.uniform(-0.5, 0.5, size=5)
    ]
    return _rel(*np.array(pairs).T)


def _semigroup(rng, n):
    fam, X, root2 = _family(), np.linspace(-1.2, 1.2, 10)[:, None], math.sqrt(2.0)
    errs = []
    for I in (_quartic(), fn.FieldFunction.polynomial([((2,), -0.25)], 1)):
        via = rn.renorm_step(fam, root2, rn.renorm_step(fam, root2, I))
        errs.append(_rel(rn.renorm_step(fam, 2.0, I).values(X), via.values(X)))
    return np.concatenate(errs)


def _quadratic_flow(rng, n):
    a0, p, h, fam = 0.6, 1.0, 0.5, _family()
    quad = fn.FieldFunction.polynomial([((2,), -0.5 * a0)], 1)
    errs = []
    for c in (1.25, 2.0, 4.0):
        flowed = rn.renorm_step(fam, c, quad)
        # exact 3-point quadratic fit on {-h, 0, h}
        coeff = (flowed([h]) + flowed([-h]) - 2.0 * flowed([0.0])) / (h * h)
        expected = -(a0 / c) / (1.0 + a0 * p * (1.0 - 1.0 / c))
        errs.append(abs(coeff - expected))
    return errs


def _monotonicity_gate(rng, n):
    lifts = [rn.step_lift(_family(), c) for c in (1.2, 2.0, 4.0)]
    return [np.maximum(0.0, -tn.min_eigenvalue(lift.p)) for lift in lifts]


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

#: Suite name -> its checks, in the order ``verify`` runs and prints them.
CHECKS = {
    "group": (
        Check("osc-associativity", _associativity, 1e-12, 200, (1, 2, 3)),
        Check("osc-identity-inverse", _identity_inverse, 1e-10, 200, (1, 2, 3)),
        Check("matrix-representation", _matrix_representation, 1e-12, 200, (1, 2, 3)),
        Check("heisenberg-embedding", _heisenberg_embedding, 1e-12, 200, (1, 2, 3)),
        Check("section-sum-homomorphism", _section_sum, 1e-12, 200, (1, 2, 3)),
        Check("annihilation-commutativity", _commutativity, 1e-12, 200, (1, 2, 3)),
        Check("section-conjugation", _section_conjugation, 1e-10, 200, (1, 2, 3)),
        Check("section-action-composition", _action_composition, 1e-9, 200, (1, 2, 3)),
        Check("scale-lift-homomorphism", _scale_lift, 1e-10, 100, (1, 2, 3)),
    ),
    "gaussian": (
        Check("gaussian-fixed-point", _fixed_point, 1e-10, 50, (1, 2, 3)),
        Check("gaussian-fixed-point-rejects-wrong-covariance", _wrong_covariance,
              1e-3, 50, (2,), exceeds=True),
        Check("gaussian-convolution-quadrature", _gaussian_convolution, 1e-6),
        Check("gaussian-gl-action", _gl_action, 1e-10, 50, (1, 2)),
        Check("gaussian-normalization", _normalization, 1e-8, 1, (1, 2)),
    ),
    "convolution": (
        Check("convolution-commutativity", _conv_commutativity, 1e-8, 20),
        Check("conv-linear-source-action", _linear_source_action, 1e-6, 20),
        Check("conv-translation-action", _translation_action, 1e-6, 20),
        Check("gaussian-convolve-constant", _convolve_constant, 1e-8),
    ),
    "renorm": (
        Check("coarse-grain-composition", _coarse_grain_composition, 1e-5),
        Check("rescaling-identity", _rescaling, 1e-6),
        Check("semigroup-law", _semigroup, 1e-5),
        Check("quadratic-flow-closed-form", _quadratic_flow, 1e-8),
        Check("monotonicity-gate", _monotonicity_gate, 1e-10),
    ),
}

SUITES = (*CHECKS, "all")


def find_check(name: str) -> Check:
    return {c.name: c for suite in CHECKS.values() for c in suite}[name]


def _take(todo: int, checks, seed: int) -> dict:
    """Run the checks whose indices, one byte each, this process reads from
    the pipe ``todo`` until it is empty; index -> result."""
    results = {}
    while index := os.read(todo, 1):
        results[index[0]] = checks[index[0]].run(seed)
    return results


def _helper(todo: int, reply: int, checks, seed: int):
    """A forked helper's whole life: take checks, write its results or the
    exception that stopped it to ``reply``, and exit without running the
    caller's code, exit handlers or buffered output a second time."""
    try:
        try:
            sent = _take(todo, checks, seed)
        except BaseException as exc:
            sent = exc
        try:
            payload = pickle.dumps(sent)
        except Exception:  # an exception that cannot be pickled
            payload = pickle.dumps(RuntimeError(repr(sent)))
        with open(reply, "wb") as stream:
            stream.write(payload)
    finally:
        os._exit(0)


def _run(checks: tuple, seed: int) -> list[CheckResult]:
    """The checks' results in order, run in this process and in one forked
    helper per further usable CPU (none with one CPU)."""
    todo, feed = os.pipe()
    os.write(feed, bytes(range(len(checks))))
    os.close(feed)
    helpers = []
    try:
        for _ in range(min(len(os.sched_getaffinity(0)), len(checks)) - 1):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _helper(todo, write, checks, seed)
            os.close(write)
            helpers.append((pid, open(read, "rb")))
        results = _take(todo, checks, seed)
        for pid, stream in helpers:
            payload = stream.read()
            if not payload:
                raise RuntimeError(f"verify helper {pid} exited without a reply")
            sent = pickle.loads(payload)
            if isinstance(sent, BaseException):
                raise sent
            results.update(sent)
    finally:
        # On an error, leave the helpers nothing more to take.
        os.read(todo, len(checks))
        os.close(todo)
        for pid, stream in helpers:
            stream.close()
            os.waitpid(pid, 0)
    return [results[i] for i in range(len(checks))]


def run_suite(name: str, seed: int) -> list[CheckResult]:
    """The results of one suite, or of every suite in registry order for
    ``"all"``; each check seeds its own generator, and one round of helpers
    runs every requested check."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
    suites = CHECKS.values() if name == "all" else (CHECKS[name],)
    return _run(tuple(c for suite in suites for c in suite), seed)
