"""End-to-end acceptance checks.

Each test exercises one numbered guarantee of the library at its stated
tolerance and prints a single pass/fail line, so that running this module
alone (``pytest -s tests/test_acceptance.py``) gives a readable scorecard.
Where ``oscrenorm verify`` has the same identity, the criterion runs that
registered check (``oscrenorm.verify.CHECKS``) with its own trial count and
dimensions.
"""

import math

import numpy as np
import pytest

from oscrenorm import (
    DivergentIntegral,
    FieldFunction,
    GlElement,
    PropagatorFamily,
    QuadratureRule,
    Sym2Tensor,
    cgrl_compose,
    convolve_numeric,
    heat_kernel_base,
    min_eigenvalue,
    renorm_step,
    rescale,
    step_lift,
    w_full,
    wtilde,
)
from oscrenorm.cli import main
from oscrenorm.oscgroup import ur
from oscrenorm.verify import find_check
from conftest import write_config


def report(number, name, errors, tol, passed=None):
    """Print and assert one criterion. Its error is the largest of
    ``errors``, NaN if any is NaN, so a criterion that computes nothing fails."""
    max_err = float(np.max(errors))
    if passed is None:
        passed = max_err <= tol
    status = "PASS" if passed else "FAIL"
    print(f"[{number:>2}] {name:<42s} {status}  max_err={max_err:.3e}  tol={tol:.0e}")
    assert passed, f"criterion {number} ({name}): max_err={max_err:.3e} > tol={tol:.0e}"


def registered(rng, *names, trials=None, dims=None):
    """The largest error of each named check, over ``dims`` x ``trials``
    draws, or over its registered counts when those are None."""
    return [find_check(n).max_error(rng, trials, dims) for n in names]


def test_01_group_axioms_and_faithfulness(rng):
    # associativity, g g^-1 = e and g e = g, and the matrix representation
    errs = registered(
        rng, "osc-associativity", "osc-identity-inverse", "matrix-representation",
        trials=1000, dims=(1, 2, 3),
    )
    report(1, "group axioms and matrix faithfulness", errs, 1e-12)


def test_02_section_homomorphism(rng):
    # An(A + B)(k) against the sum of the sections of A and B, and the
    # section of a fixed tensor as a homomorphism in its source.
    errs = registered(rng, "section-sum-homomorphism", trials=167, dims=(1, 2, 3))
    report(2, "annihilation-section homomorphism", errs, 1e-12)


def test_03_conjugation_lemma(rng):
    errs = registered(rng, "section-conjugation", trials=167, dims=(1, 2, 3))
    report(3, "section conjugation under GL(V)", errs, 1e-10)


def test_04_gaussian_characterization(rng):
    [err] = registered(rng, "gaussian-fixed-point", trials=100, dims=(1, 2, 3))
    [margin] = registered(
        rng, "gaussian-fixed-point-rejects-wrong-covariance", trials=100, dims=(2,)
    )
    report(4, "Gaussian fixed-point characterization", err, 1e-10,
           passed=err <= 1e-10 and margin > 1e-3)


def test_05_convolution_theorem(rng):
    [err1] = registered(rng, "gaussian-convolution-quadrature")

    A2 = Sym2Tensor([[1.0, 0.3], [0.3, 1.0]])
    B2 = Sym2Tensor.diagonal([0.5, 2.0])
    exact2 = FieldFunction.gaussian(A2 + B2)
    ga, gb = FieldFunction.gaussian(A2), FieldFunction.gaussian(B2)
    # weight tuned to dominate the Gaussian product (A^-1 + B^-1)^-1
    prod_cov = np.linalg.inv(np.linalg.inv(A2.matrix) + np.linalg.inv(B2.matrix))
    rule2 = QuadratureRule.for_covariance(Sym2Tensor(1.5 * prod_cov), order=24)
    grid = [np.array([x1, x2]) for x1 in (-1.0, 0.0, 1.0) for x2 in (-1.0, 0.0, 1.0)]
    err2 = np.max([
        abs(convolve_numeric(ga, gb, rule2, p) - exact2(p)) / exact2(p)
        for p in grid
    ])
    report(5, "Gaussian convolution vs quadrature", [err1, err2 * 1e-2], 1e-6,
           passed=err1 <= 1e-6 and err2 <= 1e-4)


def test_06_conv_act_lemmas(rng):
    # transform-and-source lemma, then the translation lemma
    errs = registered(
        rng, "conv-linear-source-action", "conv-translation-action", trials=20,
    )
    report(6, "convolution-action lemmas", errs, 1e-6)


def test_07_generating_function_quadratic(rng):
    p, a = 0.7, 0.9
    P = Sym2Tensor([[p]])
    I = FieldFunction.polynomial([((2,), -0.5 * a)], 1)
    errs = []
    for J in rng.uniform(-1.5, 1.5, size=10):
        # complete-the-square oracle for the quadratic interaction
        x = p * J
        oracle = (
            0.5 * p * J * J
            - 0.5 * math.log(1.0 + a * p)
            - 0.5 * a * x * x / (1.0 + a * p)
        )
        errs.append(abs(w_full(P, I, [J]) - oracle))
    report(7, "generating function, quadratic oracle", errs, 1e-8)


def test_08_coarse_grain_composition(rng):
    errs = registered(rng, "coarse-grain-composition")
    report(8, "coarse-grain composition", errs, 1e-5)


def test_09_rescaling(rng):
    M = GlElement([[2.0]])
    P = Sym2Tensor([[4.0]])
    quartic = FieldFunction.polynomial([((4,), -0.1)], 1)
    Pr, Ir = rescale(M, P, quartic)
    wt, wtr = wtilde(P, quartic), wtilde(Pr, Ir)
    pairs = [(wt(M.matrix @ [x]), wtr([x])) for x in rng.uniform(-1.0, 1.0, size=5)]
    pairs += [
        (w_full(P, quartic, np.linalg.solve(M.matrix.T, [J])), w_full(Pr, Ir, [J]))
        for J in rng.uniform(-0.5, 0.5, size=5)
    ]
    errs = [abs(da - db) / max(abs(da), 1e-12) for da, db in pairs]
    report(9, "rescaling identities", errs, 1e-6)


def test_10_semigroup_law(rng):
    errs = registered(rng, "semigroup-law")
    fam = PropagatorFamily.with_default_dilation(Sym2Tensor([[1.0]]))
    for I in (
        FieldFunction.polynomial([((4,), -0.1)], 1),
        FieldFunction.polynomial([((2,), -0.25)], 1),
    ):
        assert renorm_step(fam, 1.0, I) is I
    report(10, "flow semigroup law", errs, 1e-5)


def test_11_factorization():
    # the flow step factors through the lifted (T_c, P - T_c P T_c^T) pair
    fam = PropagatorFamily.with_default_dilation(Sym2Tensor([[1.0]]))
    I = FieldFunction.polynomial([((4,), -0.1), ((2,), -0.2)], 1)
    errs = []
    for c in (1.5, 2.0):
        lifted = ur(fam.base, fam.dilation.transform(c))
        pipeline = cgrl_compose(lifted.m, lifted.p, I)
        direct = renorm_step(fam, c, I)
        errs += [abs(pipeline([x]) - direct([x])) for x in np.linspace(-1.0, 1.0, 7)]
    report(11, "flow factorization through the lift", errs, 1e-8)


def test_12_heat_kernel_base():
    L0 = 1.0
    C = heat_kernel_base(3, [[0.0, 0.0, 0.0]], L0)
    expected = 2.0 * (4.0 * math.pi) ** (-1.5) / math.sqrt(L0)
    errs = [abs(C.matrix[0, 0] - expected)]
    with pytest.raises(DivergentIntegral):
        heat_kernel_base(1, [[0.0]], L0)
    fam = PropagatorFamily.with_default_dilation(C)
    for c in (1.2, 2.0, 4.0):
        errs.append(np.maximum(0.0, -min_eigenvalue(step_lift(fam, c).p)))
    report(12, "heat-kernel base and monotonicity gate", errs, 1e-8)


def test_13_quadratic_flow_closed_form(rng):
    errs = registered(rng, "quadratic-flow-closed-form")
    report(13, "quadratic flow coefficient map", errs, 1e-8)


def test_14_cli_determinism(tmp_path):
    cfg = write_config(
        tmp_path,
        scale_ladder=[1.0, 2.0],
        sample_points={"grid": {"lo": -1.0, "hi": 1.0, "count": 7}},
        quadrature_order=30,
    )
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["flow", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["flow", "--config", cfg, "--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    report(14, "CLI flow output determinism", 0.0 if identical else 1.0, 0.0,
           passed=identical)
