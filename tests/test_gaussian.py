import math

import numpy as np
import pytest

from oscrenorm import (
    DimensionMismatch,
    GaussianMeasure,
    GlElement,
    NonPositiveDeterminant,
    NotPositiveDefinite,
    Sym2Tensor,
    act_fun_gaussian,
    check_gauss_char,
    gaussian_convolve,
)
from oscrenorm.gaussian import normalization_by_quadrature, shifted_log_eval
from conftest import random_gl_pos, random_spd


class TestEvaluation:
    def test_standard_normal_peak(self):
        g = GaussianMeasure(Sym2Tensor.identity(1))
        assert g.eval([0.0]) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))

    def test_standard_normal_value(self):
        g = GaussianMeasure(Sym2Tensor.identity(1))
        x = 1.3
        expected = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        assert g.eval([x]) == pytest.approx(expected, rel=1e-14)

    def test_2d_diagonal_factorizes(self):
        g = GaussianMeasure(Sym2Tensor.diagonal([1.0, 4.0]))
        g1 = GaussianMeasure(Sym2Tensor([[1.0]]))
        g2 = GaussianMeasure(Sym2Tensor([[4.0]]))
        x = np.array([0.7, -1.1])
        assert g.eval(x) == pytest.approx(g1.eval([x[0]]) * g2.eval([x[1]]), rel=1e-13)

    def test_log_eval_matches_explicit_formula(self, rng):
        for _ in range(20):
            C = random_spd(rng, 3)
            g = GaussianMeasure(C)
            x = rng.normal(size=3)
            inv = np.linalg.inv(C.matrix)
            expected = (
                -0.5 * 3 * math.log(2.0 * math.pi)
                - 0.5 * math.log(np.linalg.det(C.matrix))
                - 0.5 * float(x @ inv @ x)
            )
            assert g.log_eval(x) == pytest.approx(expected, rel=1e-11)

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianMeasure(Sym2Tensor([[2.0, 3.0], [3.0, 2.0]]))


class TestConvolution:
    def test_covariances_add(self):
        a = GaussianMeasure(Sym2Tensor([[1.0]]))
        b = GaussianMeasure(Sym2Tensor([[2.0]]))
        out = gaussian_convolve(a, b)
        np.testing.assert_array_equal(out.covariance.matrix, [[3.0]])

    def test_matches_pointwise_integral(self, rng):
        # direct Gauss-Hermite evaluation of the convolution integral
        a = GaussianMeasure(Sym2Tensor([[1.0]]))
        b = GaussianMeasure(Sym2Tensor([[2.0]]))
        out = gaussian_convolve(a, b)
        t, w = np.polynomial.hermite.hermgauss(60)
        for x in (-1.5, 0.0, 0.8):
            nodes = math.sqrt(2.0) * t  # y ~ N(0, 1) = a
            est = sum(
                wi / math.sqrt(math.pi) * b.eval([x - y])
                for y, wi in zip(nodes, w)
            )
            assert out.eval([x]) == pytest.approx(est, rel=1e-10)

    def test_commutative_and_associative(self, rng):
        g = [GaussianMeasure(random_spd(rng, 2)) for _ in range(3)]
        ab = gaussian_convolve(g[0], g[1])
        ba = gaussian_convolve(g[1], g[0])
        np.testing.assert_array_equal(ab.covariance.matrix, ba.covariance.matrix)
        lhs = gaussian_convolve(ab, g[2])
        rhs = gaussian_convolve(g[0], gaussian_convolve(g[1], g[2]))
        np.testing.assert_allclose(
            lhs.covariance.matrix, rhs.covariance.matrix, atol=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gaussian_convolve(
                GaussianMeasure(Sym2Tensor.identity(1)),
                GaussianMeasure(Sym2Tensor.identity(2)),
            )


class TestGlAction:
    def test_scalar_example(self):
        # det(M) N(C)(Mx) with M = 2, C = 1 is N(1/4)
        g = act_fun_gaussian(GlElement([[2.0]]), GaussianMeasure(Sym2Tensor([[1.0]])))
        np.testing.assert_allclose(g.covariance.matrix, [[0.25]])

    def test_pointwise_identity(self, rng):
        for _ in range(30):
            M = random_gl_pos(rng, 2)
            g = GaussianMeasure(random_spd(rng, 2))
            moved = act_fun_gaussian(M, g)
            x = rng.normal(size=2)
            assert moved.eval(x) == pytest.approx(
                M.det * g.eval(M.matrix @ x), rel=1e-10
            )

    def test_action_law(self, rng):
        for _ in range(30):
            M1, M2 = random_gl_pos(rng, 2), random_gl_pos(rng, 2)
            g = GaussianMeasure(random_spd(rng, 2))
            lhs = act_fun_gaussian(M2, act_fun_gaussian(M1, g))
            rhs = act_fun_gaussian(M1 @ M2, g)
            np.testing.assert_allclose(
                lhs.covariance.matrix, rhs.covariance.matrix, rtol=1e-9, atol=1e-12
            )

    def test_rejects_negative_determinant(self):
        with pytest.raises(NonPositiveDeterminant):
            act_fun_gaussian(
                GlElement([[-1.0]]), GaussianMeasure(Sym2Tensor([[1.0]]))
            )


class TestCharacterization:
    def test_own_covariance_is_fixed_point(self, rng):
        for n in (1, 2):
            C = random_spd(rng, n)
            assert check_gauss_char(GaussianMeasure(C), C)

    def test_wrong_covariance_fails(self):
        C = Sym2Tensor([[1.0]])
        assert not check_gauss_char(GaussianMeasure(C), Sym2Tensor([[1.5]]))

    def test_shifted_log_eval_formula(self, rng):
        # direct pointwise check of exp(k(x) + kCk/2) g(x + Ck)
        g = GaussianMeasure(random_spd(rng, 2))
        C = random_spd(rng, 2)
        k, x = rng.normal(size=2), rng.normal(size=2)
        ck = C.matrix @ k
        expected = float(k @ x) + 0.5 * float(k @ ck) + g.log_eval(x + ck)
        assert shifted_log_eval(g, C, k, x) == pytest.approx(expected)

    def test_normalization(self, rng):
        for n in (1, 2):
            g = GaussianMeasure(random_spd(rng, n))
            assert normalization_by_quadrature(g) == pytest.approx(1.0, abs=1e-9)

