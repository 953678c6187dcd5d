import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oscrenorm
from oscrenorm import (
    DilationFamily,
    DivergentIntegral,
    FieldFunction,
    GlElement,
    MonotonicityViolated,
    NonPositiveScale,
    NotPositiveDefinite,
    PropagatorFamily,
    Sym2Tensor,
    cgrl_compose,
    heat_kernel_base,
    renorm_step,
    rescale,
    step_lift,
    w_full,
    wtilde,
)
from oscrenorm.oscgroup import sd_mul, ur
from oscrenorm.renorm import project_polynomial
from conftest import random_gl_pos, random_spd


def quadratic_interaction(a, dim=1):
    """- a x^2 / 2, which flows in closed form."""
    terms = [(tuple(2 if i == j else 0 for i in range(dim)), -0.5 * a) for j in range(dim)]
    return FieldFunction.polynomial(terms, dim)


def wtilde_quadratic(p, a, x):
    """Closed form of wtilde(p, -a x^2/2) at x."""
    return -0.5 * math.log(1.0 + a * p) - 0.5 * a * x * x / (1.0 + a * p)


def quadratic_coefficient(f, h=0.25):
    """Recover a from f(x) = const - a x^2 / 2 by a second difference."""
    second = f([h]) + f([-h]) - 2.0 * f([0.0])
    return -second / (h * h)


class TestDilationFamily:
    def test_default_is_inverse_sqrt(self):
        fam = DilationFamily.default(2)
        np.testing.assert_allclose(
            fam.transform(4.0).matrix, 0.5 * np.eye(2), rtol=1e-12
        )

    def test_identity_at_one(self):
        fam = DilationFamily([[0.3, 0.1], [0.0, -0.2]])
        np.testing.assert_allclose(fam.transform(1.0).matrix, np.eye(2), atol=1e-15)

    def test_one_parameter_law(self):
        fam = DilationFamily([[0.3, 0.1], [0.0, -0.2]])
        lhs = fam.transform(2.0) @ fam.transform(3.0)
        np.testing.assert_allclose(
            lhs.matrix, fam.transform(6.0).matrix, rtol=1e-12
        )

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(NonPositiveScale):
            DilationFamily.default(1).transform(0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_generator(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DilationFamily([[bad]])


class TestPropagatorFamily:
    def test_rejects_indefinite_base(self):
        with pytest.raises(NotPositiveDefinite):
            PropagatorFamily.with_default_dilation(
                Sym2Tensor([[2.0, 3.0], [3.0, 2.0]])
            )


class TestRenormStep:
    def test_matches_ur_lift(self):
        # T_4 = id / 2, so the step tensor is P_L0 - P_L0 / 4.
        fam = PropagatorFamily.with_default_dilation(Sym2Tensor.diagonal([1.0, 2.0]))
        lift = step_lift(fam, 4.0)
        np.testing.assert_allclose(lift.m.matrix, 0.5 * np.eye(2))
        np.testing.assert_allclose(lift.p.matrix, np.diag([0.75, 1.5]))

    def test_rejects_c_below_one(self):
        fam = PropagatorFamily.with_default_dilation(Sym2Tensor([[1.0]]))
        with pytest.raises(ValueError):
            step_lift(fam, 0.5)

    def test_expanding_generator_is_not_monotone(self):
        fam = PropagatorFamily(
            Sym2Tensor([[1.0]]), DilationFamily([[0.5]])
        )
        with pytest.raises(MonotonicityViolated):
            step_lift(fam, 2.0)


class TestHeatKernel:
    def test_3d_diagonal_closed_form(self):
        L0 = 1.3
        C = heat_kernel_base(3, [[0.0, 0.0, 0.0]], L0)
        expected = 2.0 * (4.0 * math.pi) ** (-1.5) / math.sqrt(L0)
        assert C.matrix[0, 0] == pytest.approx(expected, rel=1e-9)

    def test_massless_low_dimension_diverges(self):
        with pytest.raises(DivergentIntegral):
            heat_kernel_base(2, [[0.0, 0.0]], 1.0)

    def test_massive_2d_converges(self):
        C = heat_kernel_base(2, [[0.0, 0.0]], 1.0, mass=1.0)
        assert C.matrix[0, 0] > 0.0

    def test_off_diagonal_decay(self):
        sites = [[float(i), 0.0, 0.0] for i in range(4)]
        C = heat_kernel_base(3, sites, 1.0)
        row = C.matrix[0]
        assert row[0] > row[1] > row[2] > row[3] > 0.0

    def test_translation_invariance(self):
        sites = [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
        shifted = [[5.0, 1.0, -1.0], [7.0, 1.0, -1.0]]
        C1 = heat_kernel_base(3, sites, 1.0)
        C2 = heat_kernel_base(3, shifted, 1.0)
        np.testing.assert_allclose(C1.matrix, C2.matrix, rtol=1e-10)

    def test_scipy_integrate_loaded_only_for_heat_kernel(self):
        # A fresh process: importing the CLI must not load scipy.integrate,
        # and heat_kernel_base must still load it and give the same matrix.
        code = (
            "import json, sys\n"
            "import oscrenorm, oscrenorm.cli\n"
            "assert 'scipy.integrate' not in sys.modules\n"
            "from oscrenorm import heat_kernel_base\n"
            "C = heat_kernel_base(3, [[0, 0, 0], [1, 0, 0]], 1.0)\n"
            "print(json.dumps(C.matrix.tolist()))\n"
        )
        src = os.path.dirname(os.path.dirname(oscrenorm.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        expected = heat_kernel_base(3, [[0, 0, 0], [1, 0, 0]], 1.0).matrix
        assert json.loads(proc.stdout) == expected.tolist()


class TestWtilde:
    def test_quadratic_closed_form(self):
        p, a = 0.8, 1.1
        out = wtilde(Sym2Tensor([[p]]), quadratic_interaction(a))
        for x in (-1.0, 0.0, 0.6, 2.0):
            assert out([x]) == pytest.approx(wtilde_quadratic(p, a, x), rel=1e-9)

    def test_zero_covariance_is_identity(self):
        I = quadratic_interaction(0.7)
        out = wtilde(Sym2Tensor.zero(1), I)
        assert out is I

    def test_zero_interaction_gives_zero(self):
        out = wtilde(Sym2Tensor([[1.0]]), FieldFunction.zero(1))
        assert out([0.9]) == pytest.approx(0.0, abs=1e-12)

    def test_w_full_quadratic(self):
        p, a = 0.5, 0.8
        I = quadratic_interaction(a)
        for J in (-1.0, 0.0, 1.5):
            expected = 0.5 * p * J * J + wtilde_quadratic(p, a, p * J)
            assert w_full(Sym2Tensor([[p]]), I, [J]) == pytest.approx(
                expected, rel=1e-9
            )


class TestCoarseGrain:
    def test_composition_law(self):
        # wtilde(P1, wtilde(P2, I)) == wtilde(P1 + P2, I) pointwise
        P1, P2 = Sym2Tensor([[0.4]]), Sym2Tensor([[0.3]])
        I = FieldFunction.polynomial([((4,), -0.2)], dim=1)
        staged = wtilde(P1, wtilde(P2, I))
        direct = wtilde(P1 + P2, I)
        for x in (-1.0, 0.0, 0.7):
            assert staged([x]) == pytest.approx(direct([x]), abs=1e-6)

    def test_rejects_indefinite(self):
        I = quadratic_interaction(0.5, dim=2)
        bad = Sym2Tensor([[2.0, 3.0], [3.0, 2.0]])
        with pytest.raises(NotPositiveDefinite):
            wtilde(bad, I)


class TestRescale:
    def test_covariance_pullback(self, rng):
        M = random_gl_pos(rng, 2)
        P = random_spd(rng, 2)
        I = quadratic_interaction(0.3, dim=2)
        P2, _ = rescale(M, P, I)
        np.testing.assert_allclose(
            P2.matrix,
            np.linalg.inv(M.matrix) @ P.matrix @ np.linalg.inv(M.matrix).T,
            rtol=1e-9,
        )

    def test_wtilde_equivariance(self):
        # wtilde(P, I)(M x) == wtilde(M^{-1} P M^{-T}, I o M)(x)
        M = GlElement([[0.7]])
        P = Sym2Tensor([[0.6]])
        I = FieldFunction.polynomial([((4,), -0.15), ((2,), -0.1)], dim=1)
        P2, I2 = rescale(M, P, I)
        lhs = wtilde(P, I)
        rhs = wtilde(P2, I2)
        for x in (-0.8, 0.0, 1.1):
            assert lhs([0.7 * x]) == pytest.approx(rhs([x]), rel=1e-8, abs=1e-10)


class TestRenormStepFlow:
    def test_identity_at_one(self):
        fam = PropagatorFamily.with_default_dilation(Sym2Tensor([[1.0]]))
        I = quadratic_interaction(0.4)
        assert renorm_step(fam, 1.0, I) is I

    def test_identity_at_one_with_nondefault_generator(self):
        # T_1 = expm(0) is exactly id, so the step tensor C - C vanishes.
        dilation = DilationFamily([[-0.7, 0.2], [0.1, -0.4]])
        fam = PropagatorFamily(Sym2Tensor([[1.3, 0.4], [0.4, 0.8]]), dilation)
        I = FieldFunction.polynomial([((4, 0), -0.1), ((1, 1), 0.3), ((0, 2), -0.2)], 2)
        assert step_lift(fam, 1.0).p.is_zero()
        assert renorm_step(fam, 1.0, I) is I

    def test_quadratic_coefficient_map(self):
        p, a, c = 1.0, 0.6, 2.0
        fam = PropagatorFamily.with_default_dilation(Sym2Tensor([[p]]))
        out = renorm_step(fam, c, quadratic_interaction(a))
        expected = (a / c) / (1.0 + a * p * (1.0 - 1.0 / c))
        assert quadratic_coefficient(out) == pytest.approx(expected, rel=1e-8)

    def test_semigroup_property(self):
        fam = PropagatorFamily.with_default_dilation(Sym2Tensor([[1.0]]))
        I = FieldFunction.polynomial([((4,), -0.1), ((2,), -0.2)], dim=1)
        c1, c2 = 1.5, 2.0
        staged_fn = renorm_step(fam, c2, renorm_step(fam, c1, I))
        direct_fn = renorm_step(fam, c1 * c2, I)
        for x in (-0.6, 0.0, 0.9):
            assert staged_fn([x]) == pytest.approx(direct_fn([x]), abs=1e-6)

    def test_matches_cgrl_compose_of_lift(self):
        fam = PropagatorFamily.with_default_dilation(Sym2Tensor([[0.9]]))
        I = quadratic_interaction(0.5)
        c = 3.0
        lifted = ur(fam.base, fam.dilation.transform(c))
        via_action = cgrl_compose(lifted.m, lifted.p, I)
        stepped = renorm_step(fam, c, I)
        for x in (-1.0, 0.2):
            assert stepped([x]) == via_action([x])


class TestCgrl:
    def test_compose_right_action_law(self):
        # cgrl(g1 * g2) == cgrl(g2) after cgrl(g1) for the semidirect lift
        C = Sym2Tensor([[1.0]])
        fam = DilationFamily.default(1)
        g1 = ur(C, fam.transform(2.0))
        g2 = ur(C, fam.transform(1.5))
        g12 = sd_mul(g1, g2)
        I = FieldFunction.polynomial([((4,), -0.2)], dim=1)
        staged = cgrl_compose(g2.m, g2.p, cgrl_compose(g1.m, g1.p, I))
        direct = cgrl_compose(g12.m, g12.p, I)
        for x in (-0.5, 0.0, 0.8):
            assert staged([x]) == pytest.approx(direct([x]), abs=1e-6)

    def test_zero_covariance_is_plain_composition(self):
        I = quadratic_interaction(0.4)
        out = cgrl_compose(GlElement([[0.5]]), Sym2Tensor.zero(1), I)
        assert out([1.0]) == pytest.approx(I([0.5]))


class TestProjectPolynomial:
    def test_exact_recovery(self):
        I = FieldFunction.polynomial([((4,), -0.3), ((2,), 0.7), ((0,), 1.1)], dim=1)
        pts = [[x] for x in np.linspace(-2.0, 2.0, 21)]
        fitted, residual = project_polynomial(I, pts, degree=4)
        assert residual == pytest.approx(0.0, abs=1e-10)
        coeffs = dict(fitted.terms)
        assert coeffs[(4,)] == pytest.approx(-0.3, abs=1e-9)
        assert coeffs[(2,)] == pytest.approx(0.7, abs=1e-9)

    def test_residual_reported_for_nonpolynomial(self):
        f = FieldFunction(
            evaluator=lambda X: np.sin(X[:, 0]), dim=1,
            integrable=False,
        )
        pts = [[x] for x in np.linspace(-3.0, 3.0, 31)]
        _, residual = project_polynomial(f, pts, degree=1)
        assert residual > 1e-3
