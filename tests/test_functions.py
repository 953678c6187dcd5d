import itertools
import math

import numpy as np
import pytest

from oscrenorm import (
    DimensionMismatch,
    FieldFunction,
    GaussianMeasure,
    GlElement,
    NonPositiveValue,
    NotIntegrable,
    OscElement,
    QuadratureOverflow,
    QuadratureRule,
    Sym2Tensor,
    UnsupportedOrder,
    compose,
    convolve_numeric,
    gauss_convolve_exp,
    log_fn,
    osc_mul,
    sigma_act,
    wtilde,
)
from oscrenorm.functions import monomials
from oscrenorm.gaussian import _hermite, normalization_by_quadrature
from conftest import random_gl_pos, random_spd


def quartic_1d(a4=1.0, a2=0.0):
    """- a4 x^4 - a2 x^2, the workhorse integrable interaction."""
    return FieldFunction.polynomial([((4,), -a4), ((2,), -a2)], dim=1)


class TestFieldFunction:
    def test_polynomial_eval(self):
        p = FieldFunction.polynomial([((2,), 3.0), ((0,), -1.0)], dim=1)
        assert p([2.0]) == pytest.approx(11.0)

    def test_2d_mixed_term(self):
        p = FieldFunction.polynomial([((1, 1), 2.0)], dim=2)
        assert p([3.0, 4.0]) == pytest.approx(24.0)

    def test_constant_and_zero(self):
        assert FieldFunction.constant(5.0, 2)([1.0, 1.0]) == 5.0
        assert FieldFunction.zero(3)([1.0, 2.0, 3.0]) == 0.0
        assert FieldFunction.zero(1).integrable

    def test_rejects_bad_exponents(self):
        with pytest.raises(DimensionMismatch):
            FieldFunction.polynomial([((1, 2), 1.0)], dim=1)

    def test_gaussian_kind(self):
        f = FieldFunction.gaussian(Sym2Tensor.identity(1))
        g = GaussianMeasure(Sym2Tensor.identity(1))
        assert f([0.5]) == pytest.approx(math.exp(g.log_eval([0.5])))
        assert f.integrable

    def test_rejects_nonintegral_exponent(self):
        # Truncating 4.7 to 4 would run a different interaction.
        with pytest.raises(TypeError):
            FieldFunction.polynomial([((4.7,), -1.0)], dim=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_coefficient(self, bad):
        # A non-finite lower-order term leaves the leading form negative.
        with pytest.raises(ValueError, match="must be finite"):
            FieldFunction.polynomial([((4,), -1.0), ((2,), bad)], dim=1)


class TestMonomials:
    @staticmethod
    def table(rng, dim):
        """Normal rows and a term table with exponents up to 8."""
        return rng.normal(size=(200, dim)), rng.integers(0, 9, size=(12, dim))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_parity(self, rng, dim):
        X, E = self.table(rng, dim)
        sign = (-1.0) ** E.sum(axis=1)
        assert np.array_equal(monomials(-X, E), sign * monomials(X, E))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_exact_on_small_integers(self, rng, dim):
        # |x|^e <= 3^32 < 2^53, so every value is an exact float.
        X = rng.integers(-3, 4, size=(50, dim))
        E = rng.integers(0, 9, size=(12, dim))
        expected = [[math.prod(int(x) ** int(e) for x, e in zip(row, term))
                     for term in E] for row in X]
        assert np.array_equal(monomials(X.astype(float), E), expected)
        assert monomials(np.array([[-3.0, 2.0]]), np.array([[5, 3]]))[0, 0] == -1944.0

    def test_zero_to_the_zero_is_one(self):
        E = np.array([[0, 0], [0, 3], [2, 0]])
        assert np.array_equal(monomials(np.zeros((1, 2)), E), [[1.0, 0.0, 0.0]])

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_empty_term_table(self, rng, dim):
        X, _ = self.table(rng, dim)
        assert monomials(X, np.zeros((0, dim), dtype=int)).shape == (len(X), 0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_row_independent_of_block(self, rng, dim):
        X, E = self.table(rng, dim)
        block = monomials(X, E)
        for i in range(len(X)):
            assert np.array_equal(monomials(X[i:i + 1], E)[0], block[i])


class TestIntegrabilityFlag:
    def test_negative_quartic_ok(self):
        assert quartic_1d().integrable

    def test_positive_quartic_not(self):
        p = FieldFunction.polynomial([((4,), 1.0)], dim=1)
        assert not p.integrable

    def test_odd_degree_not(self):
        p = FieldFunction.polynomial([((3,), -1.0)], dim=1)
        assert not p.integrable

    def test_linear_always_ok(self):
        p = FieldFunction.polynomial([((1,), 7.0), ((0,), 2.0)], dim=1)
        assert p.integrable

    def test_indefinite_leading_form_not(self):
        # x^4 - y^4 changes sign on the sphere
        p = FieldFunction.polynomial([((4, 0), -1.0), ((0, 4), 1.0)], dim=2)
        assert not p.integrable

    def test_exp_polynomial_guards(self):
        with pytest.raises(NotIntegrable):
            FieldFunction.exp_polynomial([((4,), 1.0)], dim=1)
        f = FieldFunction.exp_polynomial([((2,), -0.5)], dim=1)
        assert f([2.0]) == pytest.approx(math.exp(-2.0))


def count_linalg(monkeypatch) -> dict:
    """Calls of np.linalg.eigvalsh and np.linalg.cholesky from now on."""
    calls = {"eigvalsh": 0, "cholesky": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestQuadratureRule:
    def test_weights_normalized(self):
        rule = QuadratureRule.for_covariance(Sym2Tensor.identity(2), order=8)
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-12)
        assert rule.nodes.shape == (64, 2)

    def test_second_moment(self):
        C = Sym2Tensor([[2.0, 0.5], [0.5, 1.0]])
        rule = QuadratureRule.for_covariance(C, order=10)
        moment = np.einsum("i,ij,ik->jk", rule.weights, rule.nodes, rule.nodes)
        np.testing.assert_allclose(moment, C.matrix, atol=1e-12)

    def test_quartic_moment_1d(self):
        # E x^4 = 3 s^2 under N(0, s)
        rule = QuadratureRule.for_covariance(Sym2Tensor([[1.5]]), order=12)
        est = float(rule.weights @ rule.nodes[:, 0] ** 4)
        assert est == pytest.approx(3.0 * 1.5**2, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_deterministic_node_order(self, n):
        # Bit for bit the lexicographic itertools.product tensor product.
        C = random_spd(np.random.default_rng(n), n)
        r1 = QuadratureRule.for_covariance(C, order=5)
        r2 = QuadratureRule.for_covariance(C, order=5)
        np.testing.assert_array_equal(r1.nodes, r2.nodes)
        t, w = _hermite(5)
        grid = np.array(list(itertools.product(t, repeat=n)))
        weights = np.prod(np.array(list(itertools.product(w, repeat=n))), axis=1)
        L = np.linalg.cholesky(C.matrix)
        np.testing.assert_array_equal(r1.nodes, math.sqrt(2.0) * grid @ L.T)
        np.testing.assert_array_equal(r1.weights, weights)

    def test_default_orders(self):
        assert len(QuadratureRule.for_covariance(Sym2Tensor.identity(1)).nodes) == 40
        assert len(QuadratureRule.for_covariance(Sym2Tensor.identity(2)).nodes) == 400

    def test_wtilde_checks_and_factors_its_covariance_once(self, monkeypatch):
        P = Sym2Tensor([[1.0, 0.3], [0.3, 0.8]])
        I = FieldFunction.polynomial([((4, 0), -0.1), ((0, 4), -0.1)], dim=2)
        _hermite(6)  # hermgauss runs eigvalsh itself
        calls = count_linalg(monkeypatch)
        wtilde(P, I, order=6)
        assert calls == {"eigvalsh": 1, "cholesky": 1}

    def test_convolve_numeric_reuses_the_rule_measure(self, monkeypatch):
        rule = QuadratureRule.for_covariance(Sym2Tensor([[1.0, 0.2], [0.2, 0.5]]), order=6)
        f = FieldFunction.exp_polynomial([((2, 0), -0.5), ((0, 2), -0.5)], dim=2)
        g = FieldFunction.polynomial([((1, 1), 1.0), ((0, 0), 2.0)], dim=2)
        calls = count_linalg(monkeypatch)
        convolve_numeric(f, g, rule, [0.3, -0.2])
        assert calls == {"eigvalsh": 0, "cholesky": 0}

    def test_normalization_checks_and_factors_its_weight_once(self, monkeypatch):
        g = GaussianMeasure(Sym2Tensor([[1.0, 0.3], [0.3, 0.8]]))
        _hermite(20)
        calls = count_linalg(monkeypatch)
        normalization_by_quadrature(g)
        assert calls == {"eigvalsh": 1, "cholesky": 1}

    def test_unsupported_dimension(self):
        with pytest.raises(DimensionMismatch):
            QuadratureRule.for_covariance(Sym2Tensor.identity(5))

    def test_highest_supported_order(self):
        rule = QuadratureRule.for_covariance(Sym2Tensor.identity(1), order=370)
        assert np.all(rule.weights > 0.0)

    def test_hermite_rule_built_once_per_order(self):
        t, w = _hermite(17)
        again = _hermite(17)
        assert again[0] is t and again[1] is w
        assert not t.flags.writeable and not w.flags.writeable
        t0, w0 = np.polynomial.hermite.hermgauss(17)
        assert np.array_equal(t, t0)
        assert np.array_equal(w, w0 / math.sqrt(math.pi))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("order", [371, 372, 400])
    def test_order_without_positive_weights(self, order):
        # numpy's weights are 0 at q = 371 and NaN from q = 372. A rejected
        # order is not cached, so the cache holds supported orders only.
        cached = _hermite.cache_info().currsize
        with pytest.raises(UnsupportedOrder):
            QuadratureRule.for_covariance(Sym2Tensor.identity(1), order=order)
        assert _hermite.cache_info().currsize == cached


class TestSigmaAction:
    def test_pointwise_formula(self):
        f = FieldFunction.polynomial([((2,), 1.0)], dim=1)
        g = OscElement(GlElement([[2.0]]), [3.0], [1.0], 0.5)
        out = sigma_act(f, g)
        x = 0.7
        expected = math.exp(3.0 * x + 0.5) * (2.0 * x + 1.0) ** 2
        assert out([x]) == pytest.approx(expected, rel=1e-13)

    def test_identity_acts_trivially(self, rng):
        f = quartic_1d()
        out = sigma_act(f, OscElement.identity(1))
        for x in rng.normal(size=5):
            assert out([x]) == pytest.approx(f([x]))

    def test_right_action_law(self, rng):
        f = FieldFunction.polynomial([((2, 0), -1.0), ((0, 2), -2.0)], dim=2)
        for _ in range(20):
            g = OscElement(
                random_gl_pos(rng, 2), rng.normal(size=2), rng.normal(size=2),
                rng.normal(),
            )
            h = OscElement(
                random_gl_pos(rng, 2), rng.normal(size=2), rng.normal(size=2),
                rng.normal(),
            )
            x = rng.normal(size=2)
            staged = sigma_act(sigma_act(f, g), h)
            direct = sigma_act(f, osc_mul(g, h))
            assert staged(x) == pytest.approx(direct(x), rel=1e-9, abs=1e-12)

    def test_preserves_integrability(self):
        g = OscElement(GlElement([[2.0]]), [1.0], [0.0], 0.0)
        assert sigma_act(quartic_1d(), g).integrable


class TestGlFunctionAction:
    def test_compose_has_no_prefactor(self):
        f = FieldFunction.constant(1.0, 1)
        assert compose(f, GlElement([[3.0]]))([5.0]) == 1.0

    def test_compose_pointwise(self, rng):
        f = quartic_1d(1.0, 2.0)
        M = GlElement([[0.5]])
        for x in rng.normal(size=5):
            assert compose(f, M)([x]) == pytest.approx(f([0.5 * x]))


class TestConvolveNumeric:
    def test_gaussian_pair_closed_form(self):
        a = FieldFunction.gaussian(Sym2Tensor([[1.0]]))
        b = FieldFunction.gaussian(Sym2Tensor([[2.0]]))
        target = FieldFunction.gaussian(Sym2Tensor([[3.0]]))
        rule = QuadratureRule.for_covariance(Sym2Tensor([[2.5]]), order=50)
        for x in (-1.0, 0.0, 1.7):
            est = convolve_numeric(a, b, rule, [x])
            assert est == pytest.approx(target([x]), rel=1e-8)

    def test_2d_gaussian_pair(self):
        A = Sym2Tensor([[1.0, 0.3], [0.3, 1.0]])
        B = Sym2Tensor.diagonal([0.5, 2.0])
        a, b = FieldFunction.gaussian(A), FieldFunction.gaussian(B)
        target = FieldFunction.gaussian(A + B)
        rule = QuadratureRule.for_covariance(2.0 * A, order=24)
        x = np.array([0.4, -0.6])
        assert convolve_numeric(a, b, rule, x) == pytest.approx(
            target(x), rel=1e-4
        )

    def test_commutative(self):
        a = FieldFunction.gaussian(Sym2Tensor([[1.0]]))
        b = FieldFunction.gaussian(Sym2Tensor([[2.0]]))
        r1 = QuadratureRule.for_covariance(Sym2Tensor([[1.8]]), order=50)
        r2 = QuadratureRule.for_covariance(Sym2Tensor([[2.8]]), order=50)
        assert convolve_numeric(a, b, r1, [0.9]) == pytest.approx(
            convolve_numeric(b, a, r2, [0.9]), rel=1e-8
        )

    def test_requires_an_integrable_factor(self):
        p = FieldFunction.polynomial([((4,), 1.0)], dim=1)
        rule = QuadratureRule.for_covariance(Sym2Tensor([[1.0]]), order=10)
        with pytest.raises(NotIntegrable):
            convolve_numeric(p, p, rule, [0.0])

    def test_overflow_guard(self):
        big = FieldFunction(
            evaluator=lambda X: np.full(len(X), 1e300), dim=1, integrable=True
        )
        rule = QuadratureRule.for_covariance(Sym2Tensor([[100.0]]), order=10)
        with pytest.raises(QuadratureOverflow):
            convolve_numeric(big, big, rule, [0.0])

    def test_all_products_underflow_to_zero(self):
        # Every node product is 0, so every log term is -inf; the sum is 0.
        g = FieldFunction.gaussian(Sym2Tensor([[1e-4]]))
        rule = QuadratureRule.for_covariance(Sym2Tensor([[1e-4]]), order=10)
        assert convolve_numeric(g, g, rule, [50.0]) == 0.0

    def test_signed_factor(self):
        # int y N(1)(x - y) dy = x, with a factor that changes sign.
        y = FieldFunction.polynomial([((1,), 1.0)], dim=1)
        g = FieldFunction.gaussian(Sym2Tensor([[1.0]]))
        rule = QuadratureRule.for_covariance(Sym2Tensor([[1.0]]), order=40)
        for x in (-1.3, 0.0, 0.7):
            assert convolve_numeric(y, g, rule, [x]) == pytest.approx(x, abs=1e-12)
            assert convolve_numeric(g, y, rule, [x]) == pytest.approx(x, abs=1e-12)


class TestGaussConvolveExp:
    def test_quadratic_closed_form(self):
        # N(p) * exp(-a x^2 / 2) = (1 + a p)^{-1/2} exp(-a x^2 / (2 (1 + a p)))
        p, a = 0.7, 0.9
        I = FieldFunction.polynomial([((2,), -0.5 * a)], dim=1)
        out = gauss_convolve_exp(Sym2Tensor([[p]]), I)
        for x in (-2.0, 0.0, 0.3, 1.5):
            expected = math.exp(-0.5 * a * x * x / (1.0 + a * p)) / math.sqrt(
                1.0 + a * p
            )
            assert out(np.array([x])) == pytest.approx(expected, rel=1e-10)

    def test_zero_interaction_gives_one(self):
        out = gauss_convolve_exp(Sym2Tensor([[2.0]]), FieldFunction.zero(1))
        assert out(np.array([1.2])) == pytest.approx(1.0, rel=1e-12)

    def test_matches_convolve_numeric(self):
        P = Sym2Tensor([[0.5]])
        I = quartic_1d(0.25)
        exp_I = FieldFunction.exp_polynomial(I.terms, dim=1)
        gp = FieldFunction.gaussian(P)
        rule = QuadratureRule.for_covariance(Sym2Tensor([[1.0]]), order=60)
        out = gauss_convolve_exp(P, I, order=60)
        for x in (0.0, 0.8):
            assert out(np.array([x])) == pytest.approx(
                convolve_numeric(gp, exp_I, rule, [x]), rel=1e-5
            )

    def test_rejects_nonintegrable(self):
        p = FieldFunction.polynomial([((4,), 1.0)], dim=1)
        with pytest.raises(NotIntegrable):
            gauss_convolve_exp(Sym2Tensor([[1.0]]), p)

    def test_overflow_guard(self):
        I = FieldFunction(
            evaluator=lambda X: np.full(len(X), 800.0), dim=1, integrable=True
        )
        out = gauss_convolve_exp(Sym2Tensor([[1.0]]), I, order=10)
        with pytest.raises(QuadratureOverflow):
            out(np.array([0.0]))


class TestLogFn:
    def test_inverts_exp(self):
        I = quartic_1d(1.0, 0.5)
        exp_I = FieldFunction.exp_polynomial(I.terms, dim=1)
        back = log_fn(exp_I)
        for x in (-1.2, 0.0, 0.4):
            assert back([x]) == pytest.approx(I([x]), abs=1e-13)

    def test_rejects_nonpositive(self):
        f = FieldFunction.constant(-1.0, 1)
        with pytest.raises(NonPositiveValue):
            log_fn(f)([0.0])
