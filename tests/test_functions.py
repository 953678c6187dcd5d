import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from oscrenorm import (
    DimensionMismatch,
    FieldFunction,
    GaussianMeasure,
    GlElement,
    NotIntegrable,
    QuadratureRule,
    Sym2Tensor,
    UnsupportedOrder,
    compose,
    wtilde,
)
from oscrenorm.functions import Polynomial, _directions
from oscrenorm.gaussian import _hermite
from oscrenorm.verify import _log_gaussian, find_check
from conftest import count_linalg, perfbench_config, random_gl_pos, random_spd


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

    def test_rejects_nonintegral_exponent(self):
        # Truncating 4.7 to 4 would run a different interaction.
        with pytest.raises(TypeError):
            FieldFunction.polynomial([((4.7,), -1.0)], dim=1)

    def test_duplicate_exponents_are_merged(self):
        # -x^4 + x^4 - 0.1 x^2 is the integrable -0.1 x^2.
        p = FieldFunction.polynomial([((4,), -1.0), ((4,), 1.0), ((2,), -0.1)], dim=1)
        assert p.integrable
        assert p.poly.terms == (((2,), -0.1),)
        assert p([1.0]) == -0.1

    def test_rejects_merged_coefficient_that_overflows(self):
        with pytest.raises(ValueError, match="must be finite"):
            FieldFunction.polynomial([((2,), -1e308), ((2,), -1e308)], dim=1)

    def test_table_is_read_only(self):
        p = Polynomial.from_terms([((2, 1), 0.5)], dim=2)
        for table in (p.exponents, p.coeffs):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_coefficient(self, bad):
        # A non-finite lower-order term leaves the leading form negative.
        with pytest.raises(ValueError, match="must be finite"):
            FieldFunction.polynomial([((4,), -1.0), ((2,), bad)], dim=1)


def monomials(X, E):
    """The (m, k) design matrix of the monomials x^e, e the rows of E."""
    return Polynomial(E, np.ones(len(E))).design_matrix(X)


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


#: (dim, terms, exp-integrable) for every interaction the tests under tests/
#: build, the README config (-0.1 x^4 - 0.2 x^2) among them, as the earlier
#: test on 100 * 2^n pseudo-random unit directions decided them.
DECISIONS = [
    (1, [((1,), 0.2), ((2,), -0.3)], True),
    (1, [((2,), -0.45)], True),
    (1, [((4,), -0.1)], True),
    (1, [((2,), -0.25)], True),
    (1, [((2,), -0.2), ((4,), -0.1)], True),
    (1, [((2,), -0.3)], True),
    (1, [((1,), 0.3), ((4,), -0.15)], True),
    (1, [((1,), 0.42), ((2,), 0.07), ((3,), 0.09), ((4,), -0.15)], True),
    (2, [((0, 4), -0.12), ((1, 0), 0.3), ((2, 2), -0.05), ((4, 0), -0.1)], True),
    (2, [
        ((0, 1), 0.04), ((0, 2), 0.02), ((0, 4), -0.12), ((1, 0), 0.31), ((2, 0), 0.05),
        ((2, 2), -0.05), ((3, 0), 0.03), ((4, 0), -0.1),
    ], True),
    (3, [
        ((0, 0, 4), -0.14), ((0, 4, 0), -0.12), ((1, 0, 0), 0.3), ((2, 0, 2), -0.05),
        ((4, 0, 0), -0.1),
    ], True),
    (3, [
        ((0, 0, 3), 0.03), ((0, 0, 4), -0.14), ((0, 2, 0), 0.02), ((0, 4, 0), -0.12),
        ((1, 0, 0), 0.35), ((2, 0, 2), -0.05), ((4, 0, 0), -0.1),
    ], True),
    (4, [
        ((0, 0, 0, 4), -0.16), ((0, 0, 4, 0), -0.14), ((0, 4, 0, 0), -0.12),
        ((1, 0, 0, 0), 0.3), ((2, 0, 0, 2), -0.05), ((4, 0, 0, 0), -0.1),
    ], True),
    (4, [
        ((0, 0, 0, 4), -0.16), ((0, 0, 3, 0), 0.03), ((0, 0, 4, 0), -0.14),
        ((0, 2, 0, 0), 0.02), ((0, 4, 0, 0), -0.12), ((1, 0, 0, 0), 0.31),
        ((2, 0, 0, 2), -0.05), ((4, 0, 0, 0), -0.1),
    ], True),
    (1, [((3,), 1.0)], False),
    (4, [
        ((0, 0, 0, 4), -0.1), ((0, 0, 4, 0), -0.1), ((0, 4, 0, 0), -0.1),
        ((4, 0, 0, 0), -0.1),
    ], True),
    (1, [((0,), 1.0)], True),
    (1, [((2,), -0.1)], True),
    (1, [((0,), -800.0), ((2,), -0.2), ((4,), -0.1)], True),
    (2, [((0, 4), -0.1), ((4, 0), -0.1)], True),
    (2, [((0, 4), -0.1), ((1, 1), 0.05), ((4, 0), -0.1)], True),
    (2, [((0, 4), -0.08), ((1, 1), 0.1), ((2, 2), -0.05), ((4, 0), -0.1)], True),
    (1, [((0,), -1.0), ((2,), 3.0)], False),
    (2, [((1, 1), 2.0)], False),
    (2, [((0, 0), 5.0)], True),
    (1, [], True),
    (1, [((4,), -1.0)], True),
    (1, [((4,), 1.0)], False),
    (1, [((3,), -1.0)], False),
    (1, [((0,), 2.0), ((1,), 7.0)], True),
    (2, [((0, 4), 1.0), ((4, 0), -1.0)], False),
    (1, [((2,), -0.5)], True),
    (2, [((0, 2), -0.5), ((2, 0), -0.5)], True),
    (2, [((0, 0), 2.0), ((1, 1), 1.0)], False),
    (1, [((2,), 1.0)], False),
    (2, [((0, 2), -2.0), ((2, 0), -1.0)], True),
    (1, [((2,), -2.0), ((4,), -1.0)], True),
    (1, [((1,), 1.0)], True),
    (1, [((4,), -0.25)], True),
    (1, [((0,), 800.0)], True),
    (2, [((0, 4), -0.08), ((4, 0), -0.1)], True),
    (3, [((0, 0, 4), -0.1), ((0, 4, 0), -0.1), ((4, 0, 0), -0.1)], True),
    (1, [((2,), -0.55)], True),
    (1, [((2,), -0.35)], True),
    (1, [((1,), 0.3), ((4,), -0.1)], True),
    (1, [((0,), -1000.0), ((1,), 0.3), ((4,), -0.1)], True),
    (1, [((0,), -800.0), ((1,), 0.3), ((4,), -0.1)], True),
    (1, [((0,), 800.0), ((1,), 0.3), ((4,), -0.1)], True),
    (1, [((0,), 1000.0), ((1,), 0.3), ((4,), -0.1)], True),
    (2, [((0, 4), -0.1), ((1, 0), 0.3), ((4, 0), -0.1)], True),
    (2, [((0, 0), -1000.0), ((0, 4), -0.1), ((1, 0), 0.3), ((4, 0), -0.1)], True),
    (2, [((0, 0), -800.0), ((0, 4), -0.1), ((1, 0), 0.3), ((4, 0), -0.1)], True),
    (2, [((0, 0), 800.0), ((0, 4), -0.1), ((1, 0), 0.3), ((4, 0), -0.1)], True),
    (2, [((0, 0), 1000.0), ((0, 4), -0.1), ((1, 0), 0.3), ((4, 0), -0.1)], True),
    (3, [
        ((0, 0, 4), -0.1), ((0, 4, 0), -0.1), ((1, 0, 0), 0.3), ((4, 0, 0), -0.1),
    ], True),
    (3, [
        ((0, 0, 0), -1000.0), ((0, 0, 4), -0.1), ((0, 4, 0), -0.1), ((1, 0, 0), 0.3),
        ((4, 0, 0), -0.1),
    ], True),
    (3, [
        ((0, 0, 0), -800.0), ((0, 0, 4), -0.1), ((0, 4, 0), -0.1), ((1, 0, 0), 0.3),
        ((4, 0, 0), -0.1),
    ], True),
    (3, [
        ((0, 0, 0), 800.0), ((0, 0, 4), -0.1), ((0, 4, 0), -0.1), ((1, 0, 0), 0.3),
        ((4, 0, 0), -0.1),
    ], True),
    (3, [
        ((0, 0, 0), 1000.0), ((0, 0, 4), -0.1), ((0, 4, 0), -0.1), ((1, 0, 0), 0.3),
        ((4, 0, 0), -0.1),
    ], True),
    (1, [((2,), -0.4)], True),
    (1, [((4,), -0.2)], True),
    (2, [((0, 2), -0.25), ((2, 0), -0.25)], True),
    (2, [((0, 2), -0.15), ((2, 0), -0.15)], True),
    (1, [((2,), -0.1), ((4,), -0.15)], True),
    (1, [((2,), -0.2)], True),
    (2, [((0, 2), -0.2), ((1, 1), 0.3), ((4, 0), -0.1)], True),
    (1, [((0,), 1.1), ((2,), 0.7), ((4,), -0.3)], True),
]


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

    @pytest.mark.parametrize("terms", [
        # -x^4 + y^3 diverges along -y; -(x^2 - y^2)^2 vanishes on x = y.
        [((4, 0), -1.0), ((0, 3), 1.0)],
        [((4, 0), -1.0), ((2, 2), 2.0), ((0, 4), -1.0)],
    ])
    def test_semidefinite_leading_form_not(self, terms):
        assert not FieldFunction.polynomial(terms, dim=2).integrable

    @pytest.mark.parametrize("terms", [
        [((4, 0), -0.1), ((0, 2), -0.2)],
        [((4, 0), -0.1), ((0, 2), -0.2), ((1, 1), 0.3)],
        # Along y the cubic part vanishes and -y^2 decides.
        [((4, 0), -1.0), ((3, 0), 1.0), ((0, 2), -1.0), ((1, 0), 5.0)],
    ])
    def test_lower_part_decides_where_the_leading_form_vanishes(self, terms):
        assert FieldFunction.polynomial(terms, dim=2).integrable

    @pytest.mark.parametrize("terms", [
        # Along y, +y^2 grows and -x^4 - 1 is flat; along x = y, 0.5 xy grows.
        [((4, 0), -1.0), ((0, 2), 1.0)],
        [((4, 0), -1.0), ((0, 0), -1.0)],
        [((4, 0), -1.0), ((2, 2), 2.0), ((0, 4), -1.0), ((1, 1), 0.5)],
        # -(x^2 - y^2)^2 - (x - y)(x - 2y) + y: the quadratic part vanishes
        # along x = y too, and there the odd y decides.
        [((4, 0), -1.0), ((2, 2), 2.0), ((0, 4), -1.0), ((2, 0), -1.0),
         ((1, 1), 3.0), ((0, 2), -2.0), ((0, 1), 1.0)],
    ])
    def test_lower_part_rejects_where_the_leading_form_vanishes(self, terms):
        assert not FieldFunction.polynomial(terms, dim=2).integrable

    def test_definite_quadratic_near_the_boundary_ok(self):
        # -x^2 - y^2 + 1.99 xy has eigenvalues -0.005 and -1.995.
        terms = [((2, 0), -1.0), ((0, 2), -1.0), ((1, 1), 1.99)]
        assert FieldFunction.polynomial(terms, dim=2).integrable

    def test_positive_quadratic_still_not(self):
        # N(P) * exp(0.01 x^2) converges for P < 50, but the test asks for a
        # negative leading form (ROADMAP item 4).
        assert not FieldFunction.polynomial([((2,), 0.01)], dim=1).integrable

    @pytest.mark.parametrize("dim, terms, decision", DECISIONS)
    def test_earlier_decisions_kept(self, dim, terms, decision):
        assert FieldFunction.polynomial(terms, dim).integrable is decision

    @pytest.mark.parametrize("workload", ["flow-1d", "flow-2d-nested", "wtilde-4d"])
    @pytest.mark.parametrize("seed", [0, 7, 9001])
    def test_benchmark_interactions_ok(self, workload, seed):
        config = perfbench_config(workload, seed)
        terms = [(t["exponents"], t["coeff"]) for t in config["interaction"]["terms"]]
        assert FieldFunction.polynomial(terms, config["dimension"]).integrable

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_directions(self, dim):
        u = _directions(dim)
        assert 1 <= len(u) <= 100 * 2**dim
        assert np.array_equal(np.abs(u).max(axis=1), np.ones(len(u)))
        # Each direction once, and never also its negative.
        both = np.concatenate([u, -u])
        assert len(np.unique(both, axis=0)) == 2 * len(u)
        units = {tuple(v) for v in np.concatenate([u, -u]).tolist()}
        for v in itertools.product((-1.0, 0.0, 1.0), repeat=dim):
            if any(v):
                assert v in units

    @pytest.mark.parametrize("dim", [0, 9])
    def test_dimension_outside_cap_rejected(self, dim):
        # As for every other type; past the cap, _directions would build
        # 3^dim points.
        with pytest.raises(DimensionMismatch, match="polynomial dimension"):
            FieldFunction.polynomial([((2,) * dim, -1.0)], dim)

    def test_high_degree_no_overflow(self):
        # Directions on the cube's surface keep x^738 finite; pytest turns a
        # numpy overflow warning into an error.
        terms = [((738, 0), -0.1), ((0, 738), -0.1), ((369, 369), 0.05)]
        assert FieldFunction.polynomial(terms, dim=2).integrable


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
        _hermite(6)  # the 1-D rule takes an eigvalsh of its own, once
        calls = count_linalg(monkeypatch)
        wtilde(P, I, order=6)
        assert calls == {"eigvalsh": 1, "cholesky": 1}

    def test_normalization_checks_and_factors_its_weight_once(self, monkeypatch, rng):
        # One draw in 2-D: N(C), whose log is the interaction, and the rule
        # at 2C are each checked and factored once.
        _hermite(20)
        calls = count_linalg(monkeypatch)
        find_check("gaussian-normalization").sample(rng, 2, 1)
        assert calls == {"eigvalsh": 2, "cholesky": 2}

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

    def test_hermite_is_numpys_hermgauss_bit_for_bit(self):
        # The nodes and weights of every supported order are hermgauss's
        # bytes, the weights over sqrt(pi); -0.0 and 0.0 differ here.
        for q in range(1, 371):
            t, w = _hermite.__wrapped__(q)
            t0, w0 = np.polynomial.hermite.hermgauss(q)
            assert t.tobytes() == t0.tobytes(), q
            assert w.tobytes() == (w0 / math.sqrt(math.pi)).tobytes(), q

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_raises(self, order):
        with pytest.raises(ValueError):
            QuadratureRule.for_covariance(Sym2Tensor.identity(1), order=order)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("order", [371, 372, 400])
    def test_order_without_positive_weights(self, order):
        # hermgauss's weights are 0 at q = 371 and NaN from q = 372. A rejected
        # order is not cached, so the cache holds supported orders only.
        cached = _hermite.cache_info().currsize
        with pytest.raises(UnsupportedOrder):
            QuadratureRule.for_covariance(Sym2Tensor.identity(1), order=order)
        assert _hermite.cache_info().currsize == cached


class TestGlFunctionAction:
    def test_compose_keeps_integrability(self):
        M = GlElement([[3.0]])
        assert compose(quartic_1d(), M).integrable
        assert not compose(quartic_1d(-1.0), M).integrable

    def test_compose_has_no_prefactor(self):
        f = FieldFunction.constant(1.0, 1)
        assert compose(f, GlElement([[3.0]]))([5.0]) == 1.0

    def test_compose_pointwise(self, rng):
        f = quartic_1d(1.0, 2.0)
        M = GlElement([[0.5]])
        for x in rng.normal(size=5):
            assert compose(f, M)([x]) == pytest.approx(f([0.5 * x]))

    def test_identity_acts_trivially(self, rng):
        f = quartic_1d()
        out = compose(f, GlElement.identity(1))
        for x in rng.normal(size=5):
            assert out([x]) == f([x])

    def test_composition_law(self, rng):
        # (f o A) o B = f o (A B)
        f = FieldFunction.polynomial([((2, 0), -1.0), ((0, 2), -2.0), ((1, 1), 0.5)], dim=2)
        for _ in range(20):
            A, B = random_gl_pos(rng, 2), random_gl_pos(rng, 2)
            x = rng.normal(size=2)
            staged = compose(compose(f, A), B)
            assert staged(x) == pytest.approx(compose(f, A @ B)(x), rel=1e-12, abs=1e-14)


def log_gap(a, b) -> float:
    """Relative gap |exp(a - b) - 1| of the values whose logs are a and b."""
    return abs(math.expm1(a - b))


def linear_plus(k, f: FieldFunction) -> FieldFunction:
    """x -> k . x + f(x)."""
    k = np.asarray(k, dtype=float)
    return FieldFunction(
        lambda X: X @ k + f.evaluator(X), f.dim, integrable=f.integrable
    )


class TestWtildeLaws:
    """The laws of Gaussian convolution, N(B) * N(A) = N(A + B), commutativity
    and the action of affine maps, stated for exp o I in the log form that
    ``wtilde`` returns."""

    def test_gaussian_pair_closed_form(self):
        log_a = FieldFunction.polynomial(_log_gaussian(Sym2Tensor([[1.0]])), 1)
        out = wtilde(Sym2Tensor([[2.0]]), log_a, order=50)
        target = GaussianMeasure(Sym2Tensor([[3.0]]))
        for x in (-1.0, 0.0, 1.7):
            assert log_gap(out([x]), target.log_eval([x])) <= 1e-8

    def test_2d_gaussian_pair(self):
        A = Sym2Tensor([[1.0, 0.3], [0.3, 1.0]])
        B = Sym2Tensor.diagonal([0.5, 2.0])
        out = wtilde(B, FieldFunction.polynomial(_log_gaussian(A), 2), order=24)
        x = np.array([0.4, -0.6])
        assert log_gap(out(x), GaussianMeasure(A + B).log_eval(x)) <= 1e-4

    def test_commutative(self):
        I = FieldFunction.polynomial([((2,), -0.3), ((1,), 0.2)], dim=1)
        P1, P2 = Sym2Tensor([[1.0]]), Sym2Tensor([[2.0]])
        one = wtilde(P1, wtilde(P2, I, order=50), order=50)
        other = wtilde(P2, wtilde(P1, I, order=50), order=50)
        assert log_gap(one([0.9]), other([0.9])) <= 1e-8

    @pytest.mark.parametrize("variance", [1.0, 4.0, 16.0])
    def test_constants_pass_through(self, variance):
        # N(P) * exp(c) = exp(c) at every variance: the rule's weights sum to 1.
        out = wtilde(Sym2Tensor([[variance]]), FieldFunction.constant(0.7, 1), order=10)
        np.testing.assert_allclose(
            out.values([[-3.0], [0.0], [2.0]]), 0.7, rtol=0.0, atol=1e-14
        )

    @pytest.mark.parametrize("offset", [-800.0, 800.0])
    def test_offset_passes_through_unscaled(self, offset):
        # exp(-800) underflows a linear sum to 0 and exp(800) overflows it;
        # in the log domain an offset of the interaction is one of the result.
        P, I = Sym2Tensor([[1.0]]), quartic_1d(0.25, 0.5)
        shifted = FieldFunction.polynomial(list(I.poly.terms) + [((0,), offset)], 1)
        X = [[-1.5], [0.0], [0.4]]
        np.testing.assert_allclose(
            wtilde(P, shifted, order=20).values(X) - wtilde(P, I, order=20).values(X),
            offset, rtol=0.0, atol=1e-12,
        )

    @pytest.mark.parametrize("k", [-0.7, 0.0, 1.3])
    def test_linear_interaction(self, k):
        # A linear interaction changes sign on the line: log E exp(k (x - y))
        # over y ~ N(p) is k x + k p k / 2.
        p = 0.8
        out = wtilde(Sym2Tensor([[p]]), FieldFunction.polynomial([((1,), k)], 1), order=40)
        for x in (-1.3, 0.0, 0.7):
            assert out([x]) == pytest.approx(k * x + 0.5 * k * p * k, rel=0.0, abs=1e-12)

    def test_linear_source_and_linear_map_act_2d(self, rng):
        # wtilde(P, k.x + I o M)(x) = k.x + kPk/2 + wtilde(M P M^T, I)(M (x + P k))
        I = FieldFunction.polynomial([((2, 0), -0.3), ((0, 2), -0.2), ((1, 1), 0.1),
                                      ((1, 0), 0.2)], dim=2)
        P, M, k = random_spd(rng, 2, 0.5), random_gl_pos(rng, 2), np.array([0.4, -0.3])
        MPM = Sym2Tensor(M.matrix @ P.matrix @ M.matrix.T)
        lhs = wtilde(P, linear_plus(k, compose(I, M)), order=24)
        inner = wtilde(MPM, I, order=24)
        for x in rng.uniform(-1.0, 1.0, size=(5, 2)):
            kPk = k @ P.matrix @ k
            want = k @ x + 0.5 * kPk + inner(M.matrix @ (x + P.matrix @ k))
            assert log_gap(lhs(x), want) <= 1e-6

    def test_translation_acts_2d(self, rng):
        # wtilde(P, I(. + v) + c)(x) = c + wtilde(P, I)(x + v)
        I = FieldFunction.polynomial([((2, 0), -0.3), ((0, 2), -0.2), ((1, 1), 0.1),
                                      ((0, 1), 0.2)], dim=2)
        P, v, c = random_spd(rng, 2, 0.5), np.array([0.3, -0.2]), 0.2
        shifted = FieldFunction(lambda X: I.evaluator(X + v) + c, 2, integrable=True)
        lhs, rhs = wtilde(P, shifted, order=24), wtilde(P, I, order=24)
        for x in rng.uniform(-1.0, 1.0, size=(5, 2)):
            assert log_gap(lhs(x), c + rhs(x + v)) <= 1e-6


class TestGaussConvolveExp:
    """N(P) * exp o I, in the log form that ``wtilde`` returns."""

    def test_quadratic_closed_form(self):
        # log(N(p) * exp(-a x^2 / 2)) = -a x^2 / (2 (1 + a p)) - log(1 + a p) / 2
        p, a = 0.7, 0.9
        I = FieldFunction.polynomial([((2,), -0.5 * a)], dim=1)
        out = wtilde(Sym2Tensor([[p]]), I)
        for x in (-2.0, 0.0, 0.3, 1.5):
            expected = -0.5 * a * x * x / (1.0 + a * p) - 0.5 * math.log1p(a * p)
            assert out(np.array([x])) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_zero_interaction_gives_one(self):
        # N(P) * exp(0) = 1, whose log is 0.
        out = wtilde(Sym2Tensor([[2.0]]), FieldFunction.zero(1))
        assert out(np.array([1.2])) == pytest.approx(0.0, abs=1e-12)

    def test_matches_scipy_quad(self):
        # int N(P)(y) exp(I(x - y)) dy by adaptive quadrature, which shares
        # no code with the library.
        p, I = 0.5, quartic_1d(0.25)
        out = wtilde(Sym2Tensor([[p]]), I, order=60)
        for x in (0.0, 0.8):
            want, _ = quad(
                lambda y: math.exp(-y * y / (2 * p) - 0.25 * (x - y) ** 4),
                -math.inf, math.inf, epsabs=0.0, epsrel=1e-12,
            )
            assert math.exp(out(np.array([x]))) == pytest.approx(
                want / math.sqrt(2 * math.pi * p), rel=1e-5
            )

    def test_result_is_integrable(self):
        assert wtilde(Sym2Tensor([[1.0]]), quartic_1d()).integrable

    def test_rejects_nonintegrable(self):
        p = FieldFunction.polynomial([((4,), 1.0)], dim=1)
        with pytest.raises(NotIntegrable):
            wtilde(Sym2Tensor([[1.0]]), p)

    def test_constant_800_is_exact(self):
        # exp(800) overflows a linear sum; its log is 800 plus the value for 0.
        P = Sym2Tensor([[1.0]])
        hot = wtilde(P, FieldFunction.constant(800.0, 1), order=10)([0.0])
        cold = wtilde(P, FieldFunction.zero(1), order=10)([0.0])
        assert hot - cold == pytest.approx(800.0, rel=0.0, abs=1e-12)


class TestExpansionPath:
    """``wtilde`` of a ``Polynomial`` against the same polynomial as a black
    box, ``FieldFunction(poly, n, integrable=True)``, which takes the row
    path: the two agree to the rounding bound of the ``wtilde`` docstring,
    and a point or interaction that the bound does not admit gets the row
    path's bits."""

    U = 2.0**-53

    @staticmethod
    def black_box(I):
        return FieldFunction(I.poly, I.dim, integrable=True)

    @staticmethod
    def quartic(n, rng):
        """A negative-definite quartic with a cross, a linear and a constant
        term."""
        terms = [
            (tuple(4 * (i == j) for j in range(n)), -rng.uniform(0.05, 0.2))
            for i in range(n)
        ]
        if n > 1:
            terms.append(((2,) + (0,) * (n - 2) + (2,), -0.05))
        terms += [((1,) + (0,) * (n - 1), 0.3), ((0,) * n, 0.7)]
        return FieldFunction.polynomial(terms, n)

    def tolerance(self, P, I, X, value):
        """The expansion path's bound B(x) and the tolerance on its gap to
        the row path: both paths' exponent bounds, the rounding of
        log w + I in each, and a few ulps of each log sum."""
        poly = I.poly
        exponents, k = poly.exponents, len(poly.coeffs)
        d = int(exponents.sum(axis=1).max())
        monomials = {g for e in exponents.tolist()
                     for g in itertools.product(*(range(v + 1) for v in e))}
        rule = QuadratureRule.for_covariance(P)
        r = np.abs(rule.nodes).max(axis=0)
        size = Polynomial(exponents, np.abs(poly.coeffs))(np.abs(X) + r)
        kappa = len(monomials) + 2 * d + k
        gamma = kappa * self.U / (1 - kappa * self.U)
        row_gamma = (2 * d + k) * self.U / (1 - (2 * d + k) * self.U)
        log_w = np.abs(np.log(rule.weights)).max()
        sums = 2 * (math.log2(len(rule.weights)) + 8) * self.U * (1 + np.abs(value))
        bound = gamma * size
        return bound, bound + (row_gamma + 2 * self.U) * size + 2 * self.U * log_w + sums

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gap_to_the_row_path_meets_the_bound(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(3):
            I, P = self.quartic(n, rng), random_spd(rng, n, rng.uniform(0.2, 2.0))
            radii = np.repeat([0.1, 1.0, 5.0, 30.0], 3)[:, None]
            X = rng.uniform(-1.0, 1.0, size=(len(radii), n)) * radii
            expanded = wtilde(P, I).values(X)
            rows = wtilde(P, self.black_box(I)).values(X)
            bound, tol = self.tolerance(P, I, X, rows)
            assert np.all(np.abs(expanded - rows) <= tol)
            # A value off the row path's bits kept its expansion value, which
            # the bound admits.
            kept = expanded != rows
            assert kept.any()
            assert np.all(bound[kept] <= 2.0**-36 * (1 + np.abs(expanded[kept])))

    @pytest.mark.parametrize(
        "terms, dim, order",
        [
            ([((40,), -1.0), ((4,), -0.1)], 1, None),
            ([((10, 0), -1e-3), ((0, 10), -1e-3), ((1, 1), 0.2)], 2, None),
            # W would have 21 x 13^4 entries, past the 2^19 limit.
            ([((4, 0, 0, 0), -0.1), ((0, 4, 0, 0), -0.1), ((0, 0, 4, 0), -0.1),
              ((0, 0, 0, 4), -0.1), ((2, 2, 0, 0), -0.05)], 4, 13),
        ],
    )
    def test_interaction_past_the_limits_takes_the_row_path(self, terms, dim, order):
        I = FieldFunction.polynomial(terms, dim)
        P = random_spd(np.random.default_rng(dim), dim, 0.3)
        X = np.random.default_rng(7).uniform(-1.0, 1.0, size=(3, dim))
        got = wtilde(P, I, order=order).values(X)
        want = wtilde(P, self.black_box(I), order=order).values(X)
        assert got.tobytes() == want.tobytes()

    def test_point_past_the_bound_takes_the_row_path(self):
        # -(x - 10)^4, expanded: near x = 10 its terms cancel to 1e-9 of the
        # value, far from it they do not.
        terms = [((4,), -1.0), ((3,), 40.0), ((2,), -600.0), ((1,), 4000.0), ((0,), -1e4)]
        P, I = Sym2Tensor([[0.5]]), FieldFunction.polynomial(terms, 1)
        X = np.array([[10.0], [0.0], [-10.0], [9.0]])
        expanded = wtilde(P, I).values(X)
        rows = wtilde(P, self.black_box(I)).values(X)
        bound, _ = self.tolerance(P, I, X, rows)
        past = bound > 2.0**-36 * (1 + np.abs(rows))
        assert past.tolist() == [True, False, False, True]
        assert expanded[past].tobytes() == rows[past].tobytes()
        # Each point's path is its own: the block gives the single-point bits.
        assert expanded.tolist() == [wtilde(P, I)(x) for x in X]
