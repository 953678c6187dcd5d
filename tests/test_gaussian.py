import math

import numpy as np
import pytest
from scipy.integrate import nquad
from scipy.linalg import cho_solve

from oscrenorm import (
    GaussianMeasure,
    GlElement,
    NonPositiveDeterminant,
    NotPositiveDefinite,
    Sym2Tensor,
    act_fun_gaussian,
)
from oscrenorm.gaussian import shifted_log_eval
from conftest import random_gl_pos, random_spd


def density(g, x):
    return math.exp(g.log_eval(x))


class TestEvaluation:
    def test_standard_normal_peak(self):
        g = GaussianMeasure(Sym2Tensor.identity(1))
        assert density(g, [0.0]) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))

    def test_standard_normal_value(self):
        g = GaussianMeasure(Sym2Tensor.identity(1))
        x = 1.3
        expected = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        assert density(g, [x]) == pytest.approx(expected, rel=1e-14)

    def test_2d_diagonal_factorizes(self):
        g = GaussianMeasure(Sym2Tensor.diagonal([1.0, 4.0]))
        g1 = GaussianMeasure(Sym2Tensor([[1.0]]))
        g2 = GaussianMeasure(Sym2Tensor([[4.0]]))
        x = np.array([0.7, -1.1])
        expected = density(g1, [x[0]]) * density(g2, [x[1]])
        assert density(g, x) == pytest.approx(expected, rel=1e-13)

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
    def test_log_density_matches_cho_solve(self, rng, n, cond):
        # Reference: the same log-normalizer, with x C^{-1} x by scipy's
        # cho_solve on the Cholesky factor.
        for _ in range(10):
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            C = (Q * np.geomspace(1.0, 1.0 / cond, n)) @ Q.T
            C = 0.5 * (C + C.T)
            L = np.linalg.cholesky(C)
            X = rng.normal(size=(8, n))
            log_det = 2.0 * np.sum(np.log(np.diag(L)))
            log_norm = -0.5 * (n * math.log(2.0 * math.pi) + log_det)
            want = log_norm - 0.5 * np.sum(X * cho_solve((L, True), X.T).T, axis=1)
            got = GaussianMeasure(Sym2Tensor(C)).log_density(X)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianMeasure(Sym2Tensor([[2.0, 3.0], [3.0, 2.0]]))


class TestConvolution:
    def test_matches_pointwise_integral(self):
        # N(1) * N(2) = N(3), against a direct Gauss-Hermite sum over y ~ N(1)
        b = GaussianMeasure(Sym2Tensor([[2.0]]))
        out = GaussianMeasure(Sym2Tensor([[3.0]]))
        t, w = np.polynomial.hermite.hermgauss(60)
        for x in (-1.5, 0.0, 0.8):
            est = sum(
                wi / math.sqrt(math.pi) * density(b, [x - y])
                for y, wi in zip(math.sqrt(2.0) * t, w)
            )
            assert density(out, [x]) == pytest.approx(est, rel=1e-10)


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
            assert density(moved, x) == pytest.approx(
                M.det * density(g, M.matrix @ x), rel=1e-10
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
    def test_shifted_log_eval_formula(self, rng):
        # direct pointwise check of exp(k(x) + kCk/2) g(x + Ck)
        g = GaussianMeasure(random_spd(rng, 2))
        C = random_spd(rng, 2)
        k, x = rng.normal(size=2), rng.normal(size=2)
        ck = C.matrix @ k
        expected = float(k @ x) + 0.5 * float(k @ ck) + g.log_eval(x + ck)
        assert shifted_log_eval(g, C, k, x) == pytest.approx(expected)

    def test_normalization(self, rng):
        # N(C) integrates to 1, by adaptive quadrature, which shares no code
        # with the library, over a box of 8 standard deviations a side
        # (outside it lies a mass below 3e-15).
        for n in (1, 2):
            C = random_spd(rng, n)
            g = GaussianMeasure(C)
            sd = np.sqrt(np.diag(C.matrix))
            total, _ = nquad(
                lambda *x: density(g, x), list(zip(-8.0 * sd, 8.0 * sd)),
                opts={"epsabs": 1e-10, "epsrel": 0.0},
            )
            assert total == pytest.approx(1.0, abs=1e-9)

