"""The registry of randomized property checks, shared by the ``verify``
command and the acceptance scorecard (``tests/test_acceptance.py``).

Each check tests one structural identity of the library (group laws, section
homomorphisms, the Gaussian convolution semigroup, coarse-graining and the
flow semigroup) as a function ``(rng, n, trials) -> errors`` that draws
``trials`` instances in dimension n and returns one row of errors per
instance. A check with more than one trial draws its instances as one
stack and evaluates its law with one call of each operation: the group
checks on stacks of group elements, the gaussian checks on stacks of
covariances, measures and transforms, and the convolution checks on one
block of points per ``wtilde``. The single-trial checks draw one instance
through ``_per_instance``. ``verify`` runs a check at its
registered trial count and dimensions from its own generator, keyed by the
seed and the check's name, so a check's line depends on nothing else; the
scorecard runs a copy with its own counts (``dataclasses.replace``) from its
own generator.

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
import gc
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
            f"{self.name:<{_NAME_WIDTH}s} {status}  "
            f"max_err={self.max_error:.3e}  tol={self.tolerance:.0e}"
        )


@dataclass(frozen=True)
class Check:
    """One identity. ``sample(rng, n, trials)`` draws ``trials`` instances in
    dimension n and returns their errors, one row per instance, each row an
    error or a fixed number of them. The check passes when the largest error
    over ``dims`` x ``trials`` draws is at most ``tolerance``; a check that
    must detect a violation (``exceeds``) passes above it."""

    name: str
    sample: Callable
    tolerance: float
    trials: int = 1
    dims: tuple = (1,)
    exceeds: bool = False

    def max_error(self, rng) -> float:
        """Largest error over the draws, taken dimension by dimension from
        the caller's generator. Unlike the builtin ``max``, this is NaN if
        any error is NaN, so a check that computes nothing cannot pass."""
        worst = []
        for n in self.dims:
            errors = self.sample(rng, n, self.trials)
            if len(errors) != self.trials:
                raise ValueError(
                    f"{self.name} returned {len(errors)} rows for {self.trials} trials"
                )
            worst.append(np.max(errors))
        return float(np.max(worst))

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


def _log_gap(a, b):
    """Relative gaps |exp(a) - exp(b)| / exp(b) of log-domain values,
    elementwise."""
    return np.abs(np.expm1(np.subtract(a, b)))


def _per_instance(draw):
    """The ``sample`` of a single-trial check, which draws and evaluates
    one instance: ``draw(rng, n)`` returns its error or errors."""

    @functools.wraps(draw)
    def sample(rng, n, trials):
        return [draw(rng, n) for _ in range(trials)]

    return sample


# ---------------------------------------------------------------------------
# sample helpers, shared with the test suite
#
# Each helper draws one element, or with ``size`` a stack of ``size``
# elements. Stacks of elements enter the library only through the private
# constructors, so a draw is built with the one whose guarantees it already
# meets: ``0.5 * (a + a.T)`` is exactly symmetric and finite, so it skips the
# public symmetry check, a transform comes with the SVD that accepted it,
# and fresh finite draws of the right shape skip the public re-validation of
# an element's parts. ``a a^T + I / 2`` takes the public symmetry check,
# which symmetrizes it. Public construction of each drawn element stores the
# same bits (tests/test_verify.py).
# ---------------------------------------------------------------------------

def random_gl(rng, n, size=None):
    """Random transform with |det| > 0.1, or a stack of ``size`` of them;
    |det| is the product of the singular values, which the element keeps as
    its bounds. Rejected transforms are redrawn, in stack order, until none
    is left; a single draw takes from ``rng`` what a stack of one does."""
    m = rng.normal(size=(n, n) if size is None else (size, n, n))
    svals = np.linalg.svd(m, compute_uv=False)
    while (rejected := svals.prod(axis=-1) <= 0.1).any():
        m[rejected] = rng.normal(size=(np.count_nonzero(rejected), n, n))
        svals[rejected] = np.linalg.svd(m[rejected], compute_uv=False)
    return tn.GlElement._from_svd(m, svals)


def random_gl_pos(rng, n, size=None):
    """Random transform with positive determinant, or a stack of ``size`` of
    them: a drawn transform with det < 0 has its first column negated and
    takes the bounds of a fresh SVD, as public construction would give it."""
    m = random_gl(rng, n, size)
    flipped = np.less(m.det, 0.0)
    if not flipped.any():
        return m
    flip = np.eye(n)
    flip[0, 0] = -1.0
    matrix = np.where(flipped[..., None, None], m.matrix @ flip, m.matrix)
    return tn.GlElement._from_svd(matrix, np.linalg.svd(matrix, compute_uv=False))


def random_spd(rng, n, scale=1.0, size=None):
    """Random positive-definite tensor, scale (a a^T + I / 2), or a stack of
    ``size`` of them, symmetrized as public construction would."""
    a = rng.normal(size=(n, n) if size is None else (size, n, n))
    m = scale * (a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(n))
    return tn.Sym2Tensor._exact(tn._symmetric(m))


def random_sym(rng, n, size=None):
    a = rng.normal(size=(n, n) if size is None else (size, n, n))
    return tn.Sym2Tensor._exact(0.5 * (a + np.swapaxes(a, -1, -2)))


def random_osc(rng, n, size=None):
    shape = (n,) if size is None else (size, n)
    return og.OscElement._from_parts(
        random_gl(rng, n, size), rng.normal(size=shape), rng.normal(size=shape),
        rng.normal(size=size),
    )


def _log_gaussian(C):
    """log N(C) as a coefficient table for ``FieldFunction.polynomial``: the
    log-normalizer and the terms of -x C^-1 x / 2, with C^-1 taken from the
    measure's Cholesky factor, so C is checked and factored once."""
    g = gs.GaussianMeasure(C)
    inv_chol = np.linalg.inv(g._chol)
    precision, unit = inv_chol.T @ inv_chol, np.eye(C.dim, dtype=int)
    return [((0,) * C.dim, g._log_norm)] + [
        (unit[i] + unit[j], -0.5 * precision[i, j])
        for i in range(C.dim) for j in range(C.dim)
    ]


def element_gap(a: og.OscElement, b: og.OscElement):
    """Largest absolute entry gap over the M, k, v and c parts, one per
    element of a stack; NaN if any gap is NaN (``np.maximum`` keeps it)."""
    return functools.reduce(np.maximum, (
        np.abs(a.m.matrix - b.m.matrix).max(axis=(-2, -1)),
        np.abs(a.k - b.k).max(axis=-1),
        np.abs(a.v - b.v).max(axis=-1),
        np.abs(np.subtract(a.c, b.c)),
    ))


# ---------------------------------------------------------------------------
# group suite
# ---------------------------------------------------------------------------

def _associativity(rng, n, trials):
    g, h, f = (random_osc(rng, n, trials) for _ in range(3))
    return element_gap(
        og.osc_mul(og.osc_mul(g, h), f), og.osc_mul(g, og.osc_mul(h, f))
    )


def _identity_inverse(rng, n, trials):
    g, e = random_osc(rng, n, trials), og.OscElement.identity(n)
    return np.stack((
        element_gap(og.osc_mul(g, og.osc_inv(g)), e),
        element_gap(og.osc_mul(g, e), g),
    ), axis=-1)


def _matrix_representation(rng, n, trials):
    g, h = random_osc(rng, n, trials), random_osc(rng, n, trials)
    gh = og.to_matrix(og.osc_mul(g, h))
    return np.abs(gh - og.to_matrix(g) @ og.to_matrix(h)).max(axis=(-2, -1))


def _heisenberg_embedding(rng, n, trials):
    eye = tn.GlElement._identities(n, (trials,))
    heis = functools.partial(og.OscElement._from_parts, eye)
    j, u, a = (rng.normal(size=s) for s in ((trials, n), (trials, n), trials))
    k, v, b = (rng.normal(size=s) for s in ((trials, n), (trials, n), trials))
    lhs = og.osc_mul(heis(j, u, a), heis(k, v, b))
    # The Heisenberg law, written out: the reference the product must meet.
    return element_gap(lhs, heis(j + k, u + v, a + b + (j * v).sum(axis=-1)))


def _section_sum(rng, n, trials):
    A, B = random_sym(rng, n, trials), random_sym(rng, n, trials)
    k = rng.normal(size=(trials, n))
    # An(A)(k) and An(B)(k) share their M and k parts; the fibrewise sum
    # adds the v and c parts.
    a, b = og.an_apply(A, k), og.an_apply(B, k)
    summed = og.an_apply(A + B, k)
    # The section is also a homomorphism in k for a fixed tensor.
    k2 = rng.normal(size=(trials, n))
    split = og.osc_mul(a, og.an_apply(A, k2))
    return np.stack((
        np.abs(summed.v - (a.v + b.v)).max(axis=-1),
        np.abs(summed.c - (a.c + b.c)),
        element_gap(og.an_apply(A, k + k2), split),
    ), axis=-1)


def _commutativity(rng, n, trials):
    C = random_sym(rng, n, trials)
    k1, k2 = rng.normal(size=(trials, n)), rng.normal(size=(trials, n))
    g1, g2 = og.an_apply(C, k1), og.an_apply(C, k2)
    return element_gap(og.osc_mul(g1, g2), og.osc_mul(g2, g1))


def _section_conjugation(rng, n, trials):
    # (M,0,0,0) * An(C)(kM) * (M,0,0,0)^-1 through the group law.
    C, M = random_sym(rng, n, trials), random_gl(rng, n, trials)
    k = rng.normal(size=(trials, n))
    mg = og.OscElement._from_parts(
        M, np.zeros((trials, n)), np.zeros((trials, n)), np.zeros(trials)
    )
    km = (k[:, None, :] @ M.matrix)[:, 0, :]
    lhs = og.osc_mul(og.osc_mul(mg, og.an_apply(C, km)), og.osc_inv(mg))
    return element_gap(lhs, og.an_apply(tn.act_sym(M, C), k))


def _action_composition(rng, n, trials):
    C = random_sym(rng, n, trials)
    M1, M2 = random_gl(rng, n, trials), random_gl(rng, n, trials)
    lhs = tn.act_sym(M1, tn.act_sym(M2, C))
    return np.abs(lhs.matrix - tn.act_sym(M1 @ M2, C).matrix).max(axis=(-2, -1))


def _scale_lift(rng, n, trials):
    C = random_sym(rng, n, trials)
    M1, M2 = random_gl(rng, n, trials), random_gl(rng, n, trials)
    lhs = og.sd_mul(og.ur(C, M1), og.ur(C, M2))
    rhs = og.ur(C, M1 @ M2)
    return np.stack((
        np.abs(lhs.m.matrix - rhs.m.matrix).max(axis=(-2, -1)),
        np.abs(lhs.p.matrix - rhs.p.matrix).max(axis=(-2, -1)),
    ), axis=-1)


# ---------------------------------------------------------------------------
# gaussian suite
# ---------------------------------------------------------------------------

def _fixed_point(rng, n, trials):
    C = random_spd(rng, n, size=trials)
    g = gs.GaussianMeasure(C)
    k, x = rng.uniform(-1, 1, size=(trials, n)), rng.uniform(-2, 2, size=(trials, n))
    return np.abs(gs.shifted_log_eval(g, C, k, x) - g.log_eval(x))


def _wrong_covariance(rng, n, trials):
    C = random_spd(rng, n, size=trials)
    g = gs.GaussianMeasure(C)
    k, x = rng.uniform(0.5, 1.0, size=(trials, n)), rng.uniform(-1, 1, size=(trials, n))
    return np.abs(gs.shifted_log_eval(g, 2.0 * C, k, x) - g.log_eval(x))


@_per_instance
def _gaussian_convolution(rng, n):
    # The convolution theorem N(B) * N(A) = N(A + B), in the log domain.
    A, B = tn.Sym2Tensor([[1.0]]), tn.Sym2Tensor([[2.0]])
    got = fn.wtilde(B, fn.FieldFunction.polynomial(_log_gaussian(A), 1), order=40)
    X = np.linspace(-3.0, 3.0, 21)[:, None]
    return _log_gap(got.values(X), gs.GaussianMeasure(A + B).log_density(X))


def _gl_action(rng, n, trials):
    C, M = random_spd(rng, n, size=trials), random_gl_pos(rng, n, trials)
    g = gs.GaussianMeasure(C)
    acted = gs.act_fun_gaussian(M, g)
    x = rng.uniform(-1, 1, size=(trials, n))
    # M acting back on the acted covariance must give C again.
    back = tn.act_sym(M, acted.covariance).matrix
    return np.stack((
        np.abs(back - C.matrix).max(axis=(-2, -1)),
        np.abs(
            M.det * np.exp(g.log_eval(tn._matvec(M.matrix, x)))
            - np.exp(acted.log_eval(x))
        ),
    ), axis=-1)


@_per_instance
def _normalization(rng, n):
    # N(C) integrates to 1, i.e. wtilde(2C, log N(C) - log N(2C))(0) = 0,
    # where log N(C) - log N(2C) = -x C^-1 x / 4 + (n / 2) log 2. The weight
    # is 2C, not C, so the result is a genuine quadrature estimate, not an
    # identity of it.
    C = random_spd(rng, n)
    I = fn.FieldFunction.polynomial(
        [((0,) * n, 0.5 * n * math.log(2.0))]
        + [(e, 0.5 * c) for e, c in _log_gaussian(C) if any(e)],
        n,
    )
    return _log_gap(fn.wtilde(2.0 * C, I)(np.zeros(n)), 0.0)


# ---------------------------------------------------------------------------
# convolution suite (1-D), on the interaction I(x) = a x^2 + b x with
# (a, b) = _QUADRATIC. A group element acts on I exactly, as the polynomial
# whose terms each check writes out. Every draw asks for the same covariances
# and interactions, so each is built once, and each covariance keeps its
# quadrature rule.
# ---------------------------------------------------------------------------

_QUADRATIC = (-0.3, 0.2)


@functools.cache
def _covariance(p):
    return tn.Sym2Tensor([[p]])


@functools.cache
def _quadratic(a, b, c=0.0):
    """a x^2 + b x + c on R^1."""
    return fn.FieldFunction.polynomial([((2,), a), ((1,), b), ((0,), c)], 1)


def _conv_commutativity(rng, n, trials):
    P1, P2, I = _covariance(0.8), _covariance(0.5), _quadratic(*_QUADRATIC)
    X = rng.uniform(-1.5, 1.5, size=(trials, 1))
    one = fn.wtilde(P1, fn.wtilde(P2, I, order=40), order=40)
    other = fn.wtilde(P2, fn.wtilde(P1, I, order=40), order=40)
    return _log_gap(one.values(X), other.values(X))


def _linear_source_action(rng, n, trials):
    # wtilde(P, k x + I o M)(x) = k x + k P k / 2 + wtilde(M P M, I)(M (x + P k))
    (a, b), m, k, p = _QUADRATIC, 1.5, 0.4, 0.8
    X = rng.uniform(-1.0, 1.0, size=(trials, 1))
    P, MPM = _covariance(p), _covariance(m * p * m)
    lhs = fn.wtilde(P, _quadratic(a * m * m, b * m + k), order=40).values(X)
    inner = fn.wtilde(MPM, _quadratic(a, b), order=48).values(m * (X + p * k))
    return _log_gap(lhs, k * X[:, 0] + 0.5 * k * p * k + inner)


def _translation_action(rng, n, trials):
    # wtilde(P, I(. + v) + c)(x) = c + wtilde(P, I)(x + v)
    (a, b), v, c = _QUADRATIC, 0.3, 0.2
    X = rng.uniform(-1.0, 1.0, size=(trials, 1))
    P = _covariance(0.8)
    shifted = _quadratic(a, 2.0 * a * v + b, a * v * v + b * v + c)
    lhs = fn.wtilde(P, shifted, order=40).values(X)
    return _log_gap(lhs, c + fn.wtilde(P, _quadratic(a, b), order=40).values(X + v))


@_per_instance
def _convolve_constant(rng, n):
    # N(P) * 1 = 1, i.e. wtilde(P, 0) = 0.
    out = fn.wtilde(_covariance(1.3), fn.FieldFunction.zero(1), order=40)
    return _log_gap(out.values([[-2.0], [0.0], [1.0]]), 0.0)


# ---------------------------------------------------------------------------
# renorm suite (1-D)
# ---------------------------------------------------------------------------

def _quartic():
    return fn.FieldFunction.polynomial([((4,), -0.1)], 1)


def _family():
    return rn.PropagatorFamily.with_default_dilation(tn.Sym2Tensor([[1.0]]))


@_per_instance
def _coarse_grain_composition(rng, n):
    quartic, P1, P2 = _quartic(), tn.Sym2Tensor([[0.5]]), tn.Sym2Tensor([[0.5]])
    direct = rn.wtilde(P1 + P2, quartic)
    nested = rn.wtilde(P1, rn.wtilde(P2, quartic))
    X = np.linspace(-1.5, 1.5, 10)[:, None]
    return _rel(direct.values(X), nested.values(X))


@_per_instance
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


@_per_instance
def _semigroup(rng, n):
    fam, X, root2 = _family(), np.linspace(-1.2, 1.2, 10)[:, None], math.sqrt(2.0)
    errs = []
    for I in (_quartic(), fn.FieldFunction.polynomial([((2,), -0.25)], 1)):
        via = rn.renorm_step(fam, root2, rn.renorm_step(fam, root2, I))
        errs.append(_rel(rn.renorm_step(fam, 2.0, I).values(X), via.values(X)))
    return np.concatenate(errs)


@_per_instance
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


@_per_instance
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

#: Width of the name column of ``CheckResult.line``: the longest name.
_NAME_WIDTH = max(len(c.name) for suite in CHECKS.values() for c in suite)


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
    # Every check draws from numpy.random: load it once, before the fork,
    # not once in each process.  Freezing the collector's heap keeps a
    # helper's collections off the pages it shares with this process, which
    # each would otherwise copy; a caller's own freeze is left as it is.
    import numpy.random  # noqa: F401

    todo, feed = os.pipe()
    os.write(feed, bytes(range(len(checks))))
    os.close(feed)
    helpers = []
    extra = min(len(os.sched_getaffinity(0)), len(checks)) - 1
    freeze = extra > 0 and gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        for _ in range(extra):
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
        if freeze:
            gc.unfreeze()
    return [results[i] for i in range(len(checks))]


def run_suite(name: str, seed: int) -> list[CheckResult]:
    """The results of one suite, or of every suite in registry order for
    ``"all"``; each check seeds its own generator, and one round of helpers
    runs every requested check."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
    suites = CHECKS.values() if name == "all" else (CHECKS[name],)
    return _run(tuple(c for suite in suites for c in suite), seed)
