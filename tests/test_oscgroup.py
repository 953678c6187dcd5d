import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscrenorm import (
    DimensionMismatch,
    GlElement,
    OscElement,
    Sym2Tensor,
    act_sym,
    an_apply,
    osc_inv,
    osc_mul,
    sd_mul,
    to_matrix,
    ur,
)
from conftest import element_gap, random_gl, random_osc, random_sym


def elem1(m, k, v, c):
    """1-D element from scalars."""
    return OscElement(GlElement([[float(m)]]), [float(k)], [float(v)], float(c))


class TestGroupLaw:
    def test_1d_example(self):
        # (2,3,1,0) * (5,7,2,1) = (10, 3*5+7, 1+2*2, 0+1+3*2)
        out = osc_mul(elem1(2, 3, 1, 0), elem1(5, 7, 2, 1))
        assert element_gap(out, elem1(10, 22, 5, 7)) <= 0.0

    def test_identity(self, rng):
        g = random_osc(rng, 3)
        e = OscElement.identity(3)
        assert element_gap(osc_mul(g, e), g) <= 1e-14
        assert element_gap(osc_mul(e, g), g) <= 1e-14

    def test_inverse_matches_matrix_oracle(self, rng):
        for _ in range(20):
            g = random_osc(rng, 3)
            e = OscElement.identity(3)
            assert element_gap(osc_mul(g, osc_inv(g)), e) <= 1e-12
            np.testing.assert_allclose(
                to_matrix(osc_inv(g)), np.linalg.inv(to_matrix(g)), atol=1e-10
            )

    def test_gl_subgroup_inverse(self):
        g = elem1(2, 0, 0, 0)
        assert element_gap(osc_inv(g), elem1(0.5, 0, 0, 0)) <= 1e-14

    def test_heisenberg_inverse_formula(self, rng):
        k, v, c = rng.normal(size=2), rng.normal(size=2), rng.normal()
        g = OscElement(GlElement.identity(2), k, v, c)
        expected = OscElement(
            GlElement.identity(2), -k, -v, -c + float(k @ v)
        )
        assert element_gap(osc_inv(g), expected) <= 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch, match=r"^dimension mismatch: 2 vs 3$"):
            osc_mul(random_osc(rng, 2), random_osc(rng, 3))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0), min_size=12, max_size=12
        )
    )
    def test_associativity_property(self, values):
        def build(chunk):
            m = 1.0 + abs(chunk[0])  # keep away from singularity
            return elem1(m, chunk[1], chunk[2], chunk[3])

        g, h, f = build(values[0:4]), build(values[4:8]), build(values[8:12])
        lhs = osc_mul(osc_mul(g, h), f)
        rhs = osc_mul(g, osc_mul(h, f))
        assert element_gap(lhs, rhs) <= 1e-10


class TestMatrixRepresentation:
    def test_identity(self):
        np.testing.assert_array_equal(to_matrix(OscElement.identity(2)), np.eye(4))

    def test_1d_block_layout(self):
        np.testing.assert_array_equal(
            to_matrix(elem1(2, 3, 1, 5)),
            [[1.0, 3.0, 5.0], [0.0, 2.0, 1.0], [0.0, 0.0, 1.0]],
        )

    def test_multiplicative(self, rng):
        for n in (1, 2, 3):
            g, h = random_osc(rng, n), random_osc(rng, n)
            np.testing.assert_allclose(
                to_matrix(osc_mul(g, h)),
                to_matrix(g) @ to_matrix(h),
                atol=1e-12,
            )

    def test_injective_on_samples(self, rng):
        elems = [random_osc(rng, 2) for _ in range(30)]
        mats = [to_matrix(g) for g in elems]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert np.max(np.abs(mats[i] - mats[j])) > 1e-8

    def test_heisenberg_embedding(self, rng):
        # (k,v,a) -> (id,k,v,a) carries the Heisenberg law into the big group
        n = 2
        j, u, a = rng.normal(size=n), rng.normal(size=n), rng.normal()
        k, v, b = rng.normal(size=n), rng.normal(size=n), rng.normal()
        eye = GlElement.identity(n)
        lhs = osc_mul(OscElement(eye, j, u, a), OscElement(eye, k, v, b))
        rhs = OscElement(eye, j + k, u + v, a + b + float(j @ v))
        assert element_gap(lhs, rhs) <= 1e-14


class TestValidation:
    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_nonfinite_scalar(self, c):
        with pytest.raises(ValueError, match="must be finite"):
            OscElement(GlElement.identity(1), [0.0], [0.0], c)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "g, h",
        [
            (elem1(1, 1e308, 0, 0), elem1(10, 0, 0, 0)),
            (elem1(10, 0, 0, 0), elem1(1, 0, 1e308, 0)),
            (elem1(1, 0, 0, 1e308), elem1(1, 0, 0, 1e308)),
        ],
        ids=["k", "v", "c"],
    )
    def test_osc_mul_rejects_overflow(self, g, h):
        with pytest.raises(ValueError, match="must be finite"):
            osc_mul(g, h)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_osc_inv_rejects_overflow(self):
        with pytest.raises(ValueError, match="must be finite"):
            osc_inv(elem1(1e-300, 0, 1e10, 0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_apply_rejects_overflow(self):
        with pytest.raises(ValueError, match="must be finite"):
            an_apply(Sym2Tensor([[1e308]]), [10.0])

    def test_product_of_validated_elements_runs_no_svd(self, rng, monkeypatch):
        g, h = random_osc(rng, 3), random_osc(rng, 3)
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(
            np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k)
        )
        gh = osc_mul(g, h)
        assert calls == []
        assert not gh.m.matrix.flags.writeable
        public = OscElement(GlElement(gh.m.matrix), gh.k, gh.v, gh.c)
        assert element_gap(gh, public) == 0.0

    @pytest.mark.parametrize("k", [[np.nan, 0.0], [0.0, np.inf]])
    def test_an_apply_rejects_nonfinite_source(self, k):
        with pytest.raises(ValueError, match="must be finite"):
            an_apply(Sym2Tensor.identity(2), k)

    @pytest.mark.parametrize("k", [[1.0], [1.0, 2.0, 3.0]])
    def test_an_apply_rejects_wrong_length(self, k):
        with pytest.raises(DimensionMismatch):
            an_apply(Sym2Tensor.identity(2), k)

    def test_an_apply_values(self, rng):
        C = random_sym(rng, 3)
        k = rng.normal(size=3)
        g = an_apply(C, k)
        np.testing.assert_array_equal(g.v, C.matrix @ k)
        assert g.c == 0.5 * float(k @ C.matrix @ k)
        assert g.m is GlElement.identity(3)


class TestAnnihilationSections:
    def test_scalar_example(self):
        g = an_apply(Sym2Tensor([[2.0]]), [3.0])
        assert element_gap(g, elem1(1, 3, 6, 9)) <= 0.0

    def test_zero_source_is_identity(self):
        g = an_apply(Sym2Tensor.identity(2), [0.0, 0.0])
        assert element_gap(g, OscElement.identity(2)) <= 0.0

    def test_zero_tensor_is_identity_section(self):
        g = an_apply(Sym2Tensor.zero(2), [1.0, 2.0])
        np.testing.assert_array_equal(g.v, [0.0, 0.0])
        assert g.c == 0.0

    def test_projection(self, rng):
        C = random_sym(rng, 3)
        k = rng.normal(size=3)
        np.testing.assert_array_equal(an_apply(C, k).k, k)

    def test_homomorphism_in_source(self, rng):
        for _ in range(50):
            C = random_sym(rng, 3)
            k1, k2 = rng.normal(size=3), rng.normal(size=3)
            lhs = an_apply(C, k1 + k2)
            rhs = osc_mul(an_apply(C, k1), an_apply(C, k2))
            assert element_gap(lhs, rhs) <= 1e-12

    def test_image_commutes(self, rng):
        C = random_sym(rng, 3)
        k1, k2 = rng.normal(size=3), rng.normal(size=3)
        g1, g2 = an_apply(C, k1), an_apply(C, k2)
        assert element_gap(osc_mul(g1, g2), osc_mul(g2, g1)) <= 1e-12


def fibre_sum(g, h):
    """Sum of two section values over the same k: the v and c parts add."""
    return OscElement(g.m, g.k, g.v + h.v, g.c + h.c)


class TestSectionArithmetic:
    def test_sum_matches_tensor_sum(self, rng):
        for _ in range(100):
            A, B = random_sym(rng, 2), random_sym(rng, 2)
            k = rng.normal(size=2)
            summed = fibre_sum(an_apply(A, k), an_apply(B, k))
            assert element_gap(summed, an_apply(A + B, k)) <= 1e-12

    def test_cancellation(self, rng):
        C, k = random_sym(rng, 2), rng.normal(size=2)
        out = fibre_sum(an_apply(C, k), an_apply(-C, k))
        assert element_gap(out, an_apply(Sym2Tensor.zero(2), k)) <= 1e-14


class TestSectionAction:
    def test_conjugation_identity(self, rng):
        # The conjugation lemma in the block-matrix representation.
        for _ in range(100):
            M, C, k = random_gl(rng, 2), random_sym(rng, 2), rng.normal(size=2)
            mg = to_matrix(OscElement(M, np.zeros(2), np.zeros(2), 0.0))
            lhs = mg @ to_matrix(an_apply(C, M.matrix.T @ k)) @ np.linalg.inv(mg)
            rhs = to_matrix(an_apply(act_sym(M, C), k))
            np.testing.assert_allclose(lhs, rhs, rtol=0.0, atol=1e-10)

    def test_conjugation_matches_group_conjugation(self, rng):
        # (M,0,0,0) * An(C)(kM) * (M,0,0,0)^{-1} evaluated through the group law
        for _ in range(100):
            M, C, k = random_gl(rng, 2), random_sym(rng, 2), rng.normal(size=2)
            mg = OscElement(M, np.zeros(2), np.zeros(2), 0.0)
            lhs = osc_mul(osc_mul(mg, an_apply(C, M.matrix.T @ k)), osc_inv(mg))
            assert element_gap(lhs, an_apply(act_sym(M, C), k)) <= 1e-10

    def test_automorphism_under_sum(self, rng):
        M, A, B = random_gl(rng, 2), random_sym(rng, 2), random_sym(rng, 2)
        lhs = act_sym(M, A + B).matrix
        rhs = (act_sym(M, A) + act_sym(M, B)).matrix
        np.testing.assert_allclose(lhs, rhs, rtol=0.0, atol=1e-12)


class TestUr:
    def test_identity_transform(self, rng):
        out = ur(random_sym(rng, 2), GlElement.identity(2))
        np.testing.assert_allclose(out.p.matrix, np.zeros((2, 2)), atol=1e-15)

    def test_zero_tensor(self, rng):
        M = random_gl(rng, 2)
        out = ur(Sym2Tensor.zero(2), M)
        np.testing.assert_array_equal(out.p.matrix, np.zeros((2, 2)))
        np.testing.assert_array_equal(out.m.matrix, M.matrix)

    def test_example_values(self):
        out = ur(Sym2Tensor.diagonal([1.0, 2.0]), GlElement(0.5 * np.eye(2)))
        np.testing.assert_allclose(out.p.matrix, np.diag([0.75, 1.5]))

    def test_sd_mul_dimension_mismatch(self, rng):
        g2 = ur(random_sym(rng, 2), random_gl(rng, 2))
        g3 = ur(random_sym(rng, 3), random_gl(rng, 3))
        with pytest.raises(DimensionMismatch, match=r"^dimension mismatch: 2 vs 3$"):
            sd_mul(g2, g3)

    def test_homomorphism(self, rng):
        for _ in range(50):
            C = random_sym(rng, 3)
            M1, M2 = random_gl(rng, 3), random_gl(rng, 3)
            lhs = sd_mul(ur(C, M1), ur(C, M2))
            rhs = ur(C, M1 @ M2)
            np.testing.assert_allclose(lhs.m.matrix, rhs.m.matrix, atol=1e-10)
            np.testing.assert_allclose(lhs.p.matrix, rhs.p.matrix, atol=1e-9)
