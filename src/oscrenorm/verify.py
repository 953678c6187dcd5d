"""Randomized property suites behind the ``verify`` CLI command.

Each check exercises one of the structural identities the library is built
on (group laws, section homomorphisms, the Gaussian convolution semigroup,
coarse-graining and the flow semigroup) with a seeded generator, and
reports the maximum observed error against its tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


SUITES = ("group", "gaussian", "convolution", "renorm", "all")


def _random_gl(rng, n):
    while True:
        m = rng.normal(size=(n, n))
        if abs(np.linalg.det(m)) > 0.1:
            return tn.GlElement(m)


def _random_gl_pos(rng, n):
    """Random transform with positive determinant."""
    m = _random_gl(rng, n)
    if m.det < 0:
        flip = np.eye(n)
        flip[0, 0] = -1.0
        m = tn.GlElement(m.matrix @ flip)
    return m


def _random_spd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return tn.Sym2Tensor(scale * (a @ a.T + 0.5 * np.eye(n)))


def _random_sym(rng, n):
    a = rng.normal(size=(n, n))
    return tn.Sym2Tensor(0.5 * (a + a.T))


def _random_osc(rng, n):
    return og.OscElement(
        _random_gl(rng, n), rng.normal(size=n), rng.normal(size=n), rng.normal()
    )


def _element_gap(a: og.OscElement, b: og.OscElement) -> float:
    return max(
        np.abs(a.m.matrix - b.m.matrix).max(),
        np.abs(a.k - b.k).max(),
        np.abs(a.v - b.v).max(),
        abs(a.c - b.c),
    )


# ---------------------------------------------------------------------------
# group suite
# ---------------------------------------------------------------------------

def group_suite(seed: int, trials: int = 200) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    err = 0.0
    for n in (1, 2, 3):
        for _ in range(trials):
            g, h, f = (_random_osc(rng, n) for _ in range(3))
            lhs = og.osc_mul(og.osc_mul(g, h), f)
            rhs = og.osc_mul(g, og.osc_mul(h, f))
            err = max(err, _element_gap(lhs, rhs))
    results.append(CheckResult("osc-associativity", err <= 1e-12, err, 1e-12))

    err = 0.0
    for n in (1, 2, 3):
        for _ in range(trials):
            g = _random_osc(rng, n)
            err = max(
                err,
                _element_gap(og.osc_mul(g, og.osc_inv(g)), og.OscElement.identity(n)),
            )
    results.append(CheckResult("osc-identity-inverse", err <= 1e-10, err, 1e-10))

    err = 0.0
    for n in (1, 2, 3):
        for _ in range(trials):
            g, h = _random_osc(rng, n), _random_osc(rng, n)
            err = max(
                err,
                np.abs(
                    og.to_matrix(og.osc_mul(g, h)) - og.to_matrix(g) @ og.to_matrix(h)
                ).max(),
            )
    results.append(CheckResult("matrix-representation", err <= 1e-12, err, 1e-12))

    err = 0.0
    for n in (1, 2, 3):
        for _ in range(trials):
            j, u, a = rng.normal(size=n), rng.normal(size=n), rng.normal()
            k, v, b = rng.normal(size=n), rng.normal(size=n), rng.normal()
            lhs = og.osc_mul(embed_heis(j, u, a), embed_heis(k, v, b))
            rhs = embed_heis(j + k, u + v, a + b + float(j @ v))
            err = max(err, _element_gap(lhs, rhs))
    results.append(CheckResult("heisenberg-embedding", err <= 1e-12, err, 1e-12))

    err = 0.0
    for n in (1, 2, 3):
        for _ in range(trials):
            A, B = _random_sym(rng, n), _random_sym(rng, n)
            k = rng.normal(size=n)
            lhs = og.an_apply(A + B, k)
            rhs = og.section_sum(og.an_section(A), og.an_section(B)).apply(k)
            err = max(err, _element_gap(lhs, rhs))
            # The section is also a homomorphism in k for fixed tensor.
            k2 = rng.normal(size=n)
            err = max(
                err,
                _element_gap(
                    og.an_apply(A, k + k2),
                    og.osc_mul(og.an_apply(A, k), og.an_apply(A, k2)),
                ),
            )
    results.append(
        CheckResult("section-sum-homomorphism", err <= 1e-12, err, 1e-12)
    )

    err = 0.0
    for n in (1, 2, 3):
        for _ in range(trials):
            C = _random_sym(rng, n)
            k1, k2 = rng.normal(size=n), rng.normal(size=n)
            g1, g2 = og.an_apply(C, k1), og.an_apply(C, k2)
            err = max(err, _element_gap(og.osc_mul(g1, g2), og.osc_mul(g2, g1)))
    results.append(
        CheckResult("annihilation-commutativity", err <= 1e-12, err, 1e-12)
    )

    err = 0.0
    for n in (1, 2, 3):
        for _ in range(trials):
            C, M = _random_sym(rng, n), _random_gl(rng, n)
            k = rng.normal(size=n)
            lhs = og.an_apply(tn.act_sym(M, C), k)
            rhs = og.act_sec(M, og.an_section(C)).apply(k)
            err = max(err, _element_gap(lhs, rhs))
    results.append(CheckResult("section-conjugation", err <= 1e-10, err, 1e-10))

    err = 0.0
    for n in (1, 2, 3):
        for _ in range(trials):
            C, M1, M2 = _random_sym(rng, n), _random_gl(rng, n), _random_gl(rng, n)
            s = og.an_section(C)
            lhs = og.act_sec(M1, og.act_sec(M2, s))
            rhs = og.act_sec(M1 @ M2, s)
            err = max(err, np.abs(lhs.a - rhs.a).max())
    results.append(CheckResult("section-action-composition", err <= 1e-9, err, 1e-9))

    err = 0.0
    for n in (1, 2, 3):
        for _ in range(trials // 2):
            C = _random_sym(rng, n)
            M1, M2 = _random_gl(rng, n), _random_gl(rng, n)
            lhs = og.sd_mul(og.ur(C, M1), og.ur(C, M2))
            rhs = og.ur(C, M1 @ M2)
            err = max(
                err,
                max(
                    np.abs(lhs.m.matrix - rhs.m.matrix).max(),
                    np.abs(lhs.p.matrix - rhs.p.matrix).max(),
                ),
            )
    results.append(CheckResult("scale-lift-homomorphism", err <= 1e-10, err, 1e-10))
    return results


def embed_heis(k, v, a):
    return og.OscElement(tn.GlElement.identity(len(k)), k, v, a)


# ---------------------------------------------------------------------------
# gaussian suite
# ---------------------------------------------------------------------------

def gaussian_suite(seed: int, trials: int = 50) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    err = 0.0
    for n in (1, 2, 3):
        for _ in range(trials):
            C = _random_spd(rng, n)
            g = gs.GaussianMeasure(C)
            k = rng.uniform(-1, 1, size=n)
            x = rng.uniform(-2, 2, size=n)
            err = max(err, abs(gs.shifted_log_eval(g, C, k, x) - g.log_eval(x)))
    results.append(CheckResult("gaussian-fixed-point", err <= 1e-10, err, 1e-10))

    margin = 0.0
    for _ in range(trials):
        C = _random_spd(rng, 2)
        g = gs.GaussianMeasure(C)
        wrong = 2.0 * C
        k = rng.uniform(0.5, 1.0, size=2)
        x = rng.uniform(-1, 1, size=2)
        margin = max(
            margin, abs(gs.shifted_log_eval(g, wrong, k, x) - g.log_eval(x))
        )
    results.append(
        CheckResult("gaussian-fixed-point-rejects-wrong-covariance",
                    margin > 1e-3, margin, 1e-3)
    )

    A = tn.Sym2Tensor([[1.0]])
    B = tn.Sym2Tensor([[2.0]])
    exact = gs.GaussianMeasure(A + B)
    fa, fb = fn.FieldFunction.gaussian(A), fn.FieldFunction.gaussian(B)
    rule = fn.QuadratureRule.for_covariance(A, order=40)
    err = 0.0
    for x in np.linspace(-3.0, 3.0, 21):
        numeric = fn.convolve_numeric(fa, fb, rule, [x])
        err = max(err, abs(numeric - exact.eval([x])) / exact.eval([x]))
    results.append(CheckResult("gaussian-convolution-quadrature", err <= 1e-6, err, 1e-6))

    err = 0.0
    for n in (1, 2):
        for _ in range(trials):
            C = _random_spd(rng, n)
            M = _random_gl_pos(rng, n)
            g = gs.GaussianMeasure(C)
            acted = gs.act_fun_gaussian(M, g)
            expected = tn.act_sym(M.inverse, C)
            err = max(err, np.max(np.abs(acted.covariance.matrix - expected.matrix)))
            x = rng.uniform(-1, 1, size=n)
            pointwise = M.det * g.eval(M.matrix @ x)
            err = max(err, abs(pointwise - acted.eval(x)))
    results.append(CheckResult("gaussian-gl-action", err <= 1e-10, err, 1e-10))

    err = 0.0
    for n in (1, 2):
        g = gs.GaussianMeasure(_random_spd(rng, n))
        err = max(err, abs(gs.normalization_by_quadrature(g) - 1.0))
    results.append(CheckResult("gaussian-normalization", err <= 1e-8, err, 1e-8))
    return results


# ---------------------------------------------------------------------------
# convolution suite
# ---------------------------------------------------------------------------

def convolution_suite(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    f = fn.FieldFunction.gaussian(tn.Sym2Tensor([[1.0]]))
    g = fn.FieldFunction.exp_polynomial([((2,), -0.3), ((1,), 0.2)], 1)
    rule = fn.QuadratureRule.for_covariance(tn.Sym2Tensor([[0.8]]), order=40)
    err = 0.0
    for x in rng.uniform(-1.5, 1.5, size=20):
        a = fn.convolve_numeric(f, g, rule, [x])
        b = fn.convolve_numeric(g, f, rule, [x])
        err = max(err, abs(a - b))
    results.append(CheckResult("convolution-commutativity", err <= 1e-8, err, 1e-8))

    M = tn.GlElement([[1.5]])
    k = np.array([0.4])
    gel = og.OscElement(M, k, np.zeros(1), 0.0)
    sf, sg = fn.sigma_act(f, gel), fn.sigma_act(g, gel)
    rule_t = fn.QuadratureRule.for_covariance(tn.Sym2Tensor([[0.5]]), order=48)
    err = 0.0
    for x in rng.uniform(-1.0, 1.0, size=20):
        lhs = math.exp(float(k @ [x])) * fn.convolve_numeric(
            f, g, rule, M.matrix @ [x]
        )
        rhs = M.det * fn.convolve_numeric(sf, sg, rule_t, [x])
        err = max(err, abs(lhs - rhs) / max(abs(lhs), 1e-12))
    results.append(CheckResult("conv-linear-source-action", err <= 1e-6, err, 1e-6))

    shift = og.OscElement(tn.GlElement.identity(1), np.zeros(1), np.array([0.3]), 0.2)
    sf = fn.sigma_act(f, shift)
    sg = fn.sigma_act(g, shift)
    err = 0.0
    for x in rng.uniform(-1.0, 1.0, size=20):
        lhs = math.exp(0.2) * fn.convolve_numeric(f, g, rule, np.array([x + 0.3]))
        mid = fn.convolve_numeric(sf, g, rule, [x])
        rhs = fn.convolve_numeric(f, sg, rule, [x])
        err = max(err, abs(lhs - mid) / max(abs(lhs), 1e-12))
        err = max(err, abs(lhs - rhs) / max(abs(lhs), 1e-12))
    results.append(CheckResult("conv-translation-action", err <= 1e-6, err, 1e-6))

    one = fn.FieldFunction.constant(1.0, 1)
    gau = fn.FieldFunction.gaussian(tn.Sym2Tensor([[1.3]]))
    rule1 = fn.QuadratureRule.for_covariance(tn.Sym2Tensor([[1.3]]), order=40)
    err = 0.0
    for x in (-2.0, 0.0, 1.0):
        err = max(err, abs(fn.convolve_numeric(gau, one, rule1, [x]) - 1.0))
    results.append(CheckResult("gaussian-convolve-constant", err <= 1e-8, err, 1e-8))
    return results


# ---------------------------------------------------------------------------
# renorm suite
# ---------------------------------------------------------------------------

def renorm_suite(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    quartic = fn.FieldFunction.polynomial([((4,), -0.1)], 1)
    P1 = tn.Sym2Tensor([[0.5]])
    P2 = tn.Sym2Tensor([[0.5]])
    direct = rn.wtilde(P1 + P2, quartic)
    nested = rn.wtilde(P1, rn.wtilde(P2, quartic))
    X = np.linspace(-1.5, 1.5, 10)[:, None]
    a, b = direct.values(X), nested.values(X)
    err = float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-12)))
    results.append(CheckResult("coarse-grain-composition", err <= 1e-5, err, 1e-5))

    M = tn.GlElement([[2.0]])
    P = tn.Sym2Tensor([[4.0]])
    wt = rn.wtilde(P, quartic)
    Pr, Ir = rn.rescale(M, P, quartic)
    wtr = rn.wtilde(Pr, Ir)
    err = 0.0
    for x in (-1.0, 0.0, 1.0):
        a = wt(M.matrix @ [x])
        b = wtr([x])
        err = max(err, abs(a - b) / max(abs(a), 1e-12))
    for J in rng.uniform(-0.5, 0.5, size=5):
        a = rn.w_full(P, quartic, np.linalg.solve(M.matrix.T, [J]))
        b = rn.w_full(Pr, Ir, [J])
        err = max(err, abs(a - b) / max(abs(a), 1e-12))
    results.append(CheckResult("rescaling-identity", err <= 1e-6, err, 1e-6))

    fam = rn.PropagatorFamily.with_default_dilation(tn.Sym2Tensor([[1.0]]))
    err = 0.0
    X = np.linspace(-1.2, 1.2, 10)[:, None]
    for I in (quartic, fn.FieldFunction.polynomial([((2,), -0.25)], 1)):
        via = rn.renorm_step(fam, math.sqrt(2.0), rn.renorm_step(fam, math.sqrt(2.0), I))
        direct = rn.renorm_step(fam, 2.0, I)
        a, b = direct.values(X), via.values(X)
        err = max(err, float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-12))))
    results.append(CheckResult("semigroup-law", err <= 1e-5, err, 1e-5))

    a0, p = 0.6, 1.0
    quad = fn.FieldFunction.polynomial([((2,), -0.5 * a0)], 1)
    err = 0.0
    for c in (1.25, 2.0, 4.0):
        flowed = rn.renorm_step(fam, c, quad)
        h = 0.5
        coeff = (flowed([h]) + flowed([-h]) - 2.0 * flowed([0.0])) / (h * h)
        expected = -(a0 / c) / (1.0 + a0 * p * (1.0 - 1.0 / c))
        err = max(err, abs(coeff - expected))
    results.append(CheckResult("quadratic-flow-closed-form", err <= 1e-8, err, 1e-8))

    err = 0.0
    for c in (1.2, 2.0, 4.0):
        step = rn.RenormStep.for_family(fam, c)
        err = max(err, max(0.0, -tn.min_eigenvalue(step.step_tensor)))
    results.append(CheckResult("monotonicity-gate", err <= 1e-10, err, 1e-10))
    return results


def run_suite(name: str, seed: int) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
    picked = SUITES[:-1] if name == "all" else (name,)
    dispatch = {
        "group": group_suite,
        "gaussian": gaussian_suite,
        "convolution": convolution_suite,
        "renorm": renorm_suite,
    }
    results = []
    for suite in picked:
        results.extend(dispatch[suite](seed))
    return results
