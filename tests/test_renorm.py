import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import oscrenorm
from oscrenorm import (
    DilationFamily,
    DimensionMismatch,
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
from oscrenorm.renorm import _heat_kernel_integrals, project_polynomial
from conftest import random_gl_pos, random_spd, write_config


# The heat-kernel accuracy box: every L0, mass and distance is combined.
BOX_L0 = (1e-3, 0.1, 1.0, 10.0, 1e3)
BOX_MASS = (1e-9, 1e-6, 1e-3, 0.1, 1.0, 3.0)
BOX_R = (0.0, 0.3, 1.0, 2.0, 5.0, 10.0)


def closed_form_1d(r, L0, m):
    """The 1-D heat-kernel integral in closed form, and the sum of the
    magnitudes of its terms (the scale of its own rounding)."""
    s = math.sqrt(L0)
    a = r / (2.0 * s)
    value = (
        math.exp(-m * r) * math.erfc(m * s - a)
        + math.exp(m * r) * math.erfc(m * s + a)
    ) / (4.0 * m)
    return value, value


def closed_form_3d(r, L0, m):
    """The 3-D integral by perfbench/reference.py's erfc form, and the sum of
    the magnitudes of the two terms it subtracts. At m = 3, L0 = 10,
    r = 0.3 that sum is 200 times the value, 6e-44."""
    s = math.sqrt(L0)
    if r == 0.0:
        scale = (4.0 * math.pi) ** -1.5
        t1 = 2.0 * math.exp(-m * m * L0) / s * scale
        t2 = 2.0 * m * math.sqrt(math.pi) * math.erfc(m * s) * scale
    else:
        a = r / (2.0 * s)
        t1 = math.exp(-m * r) * math.erfc(m * s - a) / (8.0 * math.pi * r)
        t2 = math.exp(m * r) * math.erfc(m * s + a) / (8.0 * math.pi * r)
    return t1 - t2, t1 + t2


def box_entry(d, r, L0, m):
    """One heat-kernel entry at distance r. It is taken from the integrator,
    because a matrix on two sites can fail the positive-definiteness test
    (at d = 1, L0 = 1e3, m = 1e-9, r = 0.3 its eigenvalues differ 1e12-fold)."""
    return _heat_kernel_integrals(d, np.array([r * r]), L0, m)[0]


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_transform_is_scipy_expm_bit_for_bit(self, n):
        generators = [-0.5 * np.eye(n), np.diag(np.linspace(-0.9, 0.4, n))]
        if n > 1:
            rng = np.random.default_rng(n)
            generators.append(-0.5 * np.eye(n) + 0.1 * rng.normal(size=(n, n)))
        for a in generators:
            fam = DilationFamily(a)
            for c in (1.0, 1.5, 2.0, 4.0, 10.0):
                want = expm(math.log(c) * fam.generator)
                assert np.array_equal(fam.transform(c).matrix, want)

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

    def test_singular_step_covariance_fails_loudly(self):
        # A generator that leaves one axis fixed is monotone, but its step
        # covariance diag(1/2, 0) is singular: N(P) has no density.
        fam = PropagatorFamily(Sym2Tensor.identity(2), DilationFamily(np.diag([-0.5, 0.0])))
        I = FieldFunction.polynomial([((4, 0), -0.1), ((0, 4), -0.1)], dim=2)
        with pytest.raises(NotPositiveDefinite):
            renorm_step(fam, 2.0, I)


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

    def test_runs_load_no_scipy(self, tmp_path):
        # A fresh process: importing the CLI loads no scipy module, and a 2-D
        # flow with the default generator and the whole verify suite load no
        # module at all, so no import cost lands in the run. A heat-kernel
        # wtilde run loads no scipy module either, and its propagator is the
        # closed form.
        config = write_config(
            tmp_path,
            dimension=2,
            propagator={"base": [[1.0, 0.3], [0.3, 0.8]]},
            interaction={"terms": [
                {"exponents": [4, 0], "coeff": -0.1},
                {"exponents": [0, 4], "coeff": -0.08},
            ]},
            sample_points=[[0.3, -0.4]],
            quadrature_order=6,
            semigroup_check_c=4.0,
        )
        sites = [[0, 0, 0], [1, 0, 0], [0, 2, 0]]
        hk_config = write_config(
            tmp_path,
            name="hk.json",
            dimension=3,
            propagator={"heat_kernel": {
                "spatial_dim": 3, "mass": 0.1, "sites": sites,
            }},
            interaction={"terms": [
                {"exponents": [4, 0, 0], "coeff": -0.1},
                {"exponents": [0, 4, 0], "coeff": -0.1},
                {"exponents": [0, 0, 4], "coeff": -0.1},
            ]},
            sample_points=[[0.3, -0.4, 0.1]],
            quadrature_order=6,
        )
        code = (
            "import io, json, sys\n"
            "import oscrenorm, oscrenorm.cli as cli\n"
            "before = set(sys.modules)\n"
            "assert not [m for m in before if m.startswith('scipy')]\n"
            "config = cli.load_config(sys.argv[1])\n"
            "assert cli.cmd_flow(config, 0, sys.argv[2]) == 0\n"
            "assert cli.cmd_verify('all', 0, stream=io.StringIO()) == 0\n"
            "new = sorted(set(sys.modules) - before)\n"
            "assert not new, new\n"
            "hk = cli.load_config(sys.argv[3])\n"
            "assert cli.cmd_wtilde(hk, sys.argv[4]) == 0\n"
            "scipy = [m for m in sys.modules if m.startswith('scipy')]\n"
            "assert not scipy, scipy\n"
            "print(json.dumps(hk.family.base.matrix.tolist()))\n"
        )
        src = os.path.dirname(os.path.dirname(oscrenorm.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code, config, str(tmp_path / "flow.json"),
             hk_config, str(tmp_path / "wtilde.csv")],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        pts = np.array(sites, dtype=float)
        r = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
        expected = [[closed_form_3d(x, 1.0, 0.1)[0] for x in row] for row in r]
        np.testing.assert_allclose(
            json.loads(proc.stdout), expected, rtol=1e-15, atol=0.0
        )

    @pytest.mark.parametrize("d", [1, 3])
    def test_closed_form_on_box(self, d):
        closed_form = closed_form_1d if d == 1 else closed_form_3d
        for L0, m, r in itertools.product(BOX_L0, BOX_MASS, BOX_R):
            want, scale = closed_form(r, L0, m)
            if want < 1e-200:
                continue
            got = box_entry(d, r, L0, m)
            assert abs(got - want) <= 1e-12 * scale, (L0, m, r, got, want)

    @pytest.mark.parametrize("d", [2, 4])
    def test_matches_quad_on_box(self, d):
        from scipy.integrate import IntegrationWarning, quad

        for L0, m, r in itertools.product(BOX_L0, BOX_MASS, BOX_R):
            def integrand(l):
                return (4.0 * math.pi * l) ** (-d / 2) * math.exp(
                    -m * m * l - r * r / (4.0 * l)
                )

            # One quad call over [L0, inf) can miss the far tail at small
            # mass by 3e-11 without a warning; decade pieces do not.
            edges = [L0 * 10.0**k for k in range(0, 25, 2)] + [math.inf]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                want = math.fsum(
                    quad(integrand, a, b, epsabs=0.0, epsrel=1e-13)[0]
                    for a, b in zip(edges, edges[1:])
                )
            if want < 1e-200 or any(
                issubclass(w.category, IntegrationWarning) for w in caught
            ):
                continue
            got = box_entry(d, r, L0, m)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (L0, m, r)

    def test_small_mass_1d(self):
        # quad returned a matrix that failed the positive-definiteness test.
        C = heat_kernel_base(1, [[0.0], [1.0]], 1.0, mass=1e-3)
        want = [[closed_form_1d(abs(i - j), 1.0, 1e-3)[0] for j in range(2)]
                for i in range(2)]
        np.testing.assert_allclose(C.matrix, want, rtol=1e-12, atol=0.0)

    def test_vanishing_mass_squared_diverges(self):
        # m^2 underflows to 0, so the 1-D integral diverges.
        with pytest.raises(DivergentIntegral):
            heat_kernel_base(1, [[0.0]], 1.0, mass=1e-170)

    def test_unconverged_rule_raises(self):
        # m^2 = 1e-200 is representable, but the integrand peaks near
        # l = 1e200, far past what the finest step resolves.
        with pytest.raises(DivergentIntegral, match=r"spatial_dim = 1, mass = 1e-100, L0 = 1\.0"):
            heat_kernel_base(1, [[0.0]], 1.0, mass=1e-100)

    @pytest.mark.parametrize(
        "spatial_dim, sites, error",
        [
            (0, [[0.0]], ValueError),
            (3.7, [[0.0, 0.0, 0.0]], TypeError),
            (2, [[0.0, 0.0, 0.0]], DimensionMismatch),
            (3, [[0.0], [1.0, 0.0, 0.0]], ValueError),
            (3, [], ValueError),
        ],
    )
    def test_rejects_malformed_sites(self, spatial_dim, sites, error):
        with pytest.raises(error):
            heat_kernel_base(spatial_dim, sites, 1.0, mass=0.1)


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
        terms, residual = project_polynomial(pts, I.values(pts), degree=4)
        assert residual == pytest.approx(0.0, abs=1e-10)
        coeffs = dict(terms)
        assert coeffs[(4,)] == pytest.approx(-0.3, abs=1e-9)
        assert coeffs[(2,)] == pytest.approx(0.7, abs=1e-9)

    def test_lists_every_monomial_sorted(self):
        pts = [[x, y] for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.5, 1.0)]
        values = [1.0 - x * y for x, y in pts]
        terms, _ = project_polynomial(pts, values, degree=2)
        assert [e for e, _ in terms] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)
        ]

    def test_residual_reported_for_nonpolynomial(self):
        f = FieldFunction(
            evaluator=lambda X: np.sin(X[:, 0]), dim=1,
            integrable=False,
        )
        pts = [[x] for x in np.linspace(-3.0, 3.0, 31)]
        _, residual = project_polynomial(pts, f.values(pts), degree=1)
        assert residual > 1e-3
