import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oscrenorm import tensors as tn
from oscrenorm import (
    DimensionMismatch,
    GlElement,
    SingularTensor,
    Sym2Tensor,
    act_sym,
    contract,
    is_positive_definite,
    quad_form,
)
from conftest import random_gl, random_spd


class TestContract:
    def test_scalar(self):
        assert contract(Sym2Tensor([[2.0]]), [3.0]) == pytest.approx([6.0])

    def test_identity(self):
        C = Sym2Tensor.identity(2)
        np.testing.assert_allclose(contract(C, [1.0, -1.0]), [1.0, -1.0])

    def test_2d(self):
        C = Sym2Tensor([[1.0, 2.0], [2.0, 5.0]])
        np.testing.assert_allclose(contract(C, [1.0, 0.0]), [1.0, 2.0])

    def test_slot_symmetry(self, rng):
        # kC = Ck for symmetric C, up to summation-order rounding
        for n in (1, 2, 3, 4):
            C = random_spd(rng, n)
            k = rng.normal(size=n)
            np.testing.assert_allclose(C.matrix @ k, k @ C.matrix, rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contract(Sym2Tensor.identity(2), [1.0, 2.0, 3.0])


class TestQuadForm:
    def test_scalar(self):
        assert quad_form([3.0], Sym2Tensor([[2.0]])) == pytest.approx(18.0)

    def test_zero(self):
        assert quad_form([0.0, 0.0], Sym2Tensor.identity(2)) == 0.0

    def test_2d(self):
        C = Sym2Tensor([[1.0, 2.0], [2.0, 5.0]])
        assert quad_form([1.0, 1.0], C) == pytest.approx(10.0)

    def test_matches_contract(self, rng):
        C = random_spd(rng, 3)
        k = rng.normal(size=3)
        assert quad_form(k, C) == pytest.approx(float(contract(C, k) @ k))


class TestActSym:
    def test_scalar(self):
        out = act_sym(GlElement([[2.0]]), Sym2Tensor([[3.0]]))
        np.testing.assert_allclose(out.matrix, [[12.0]])

    def test_identity(self, rng):
        C = random_spd(rng, 3)
        np.testing.assert_array_equal(
            act_sym(GlElement.identity(3), C).matrix, C.matrix
        )

    def test_permutation(self):
        M = GlElement([[0.0, 1.0], [1.0, 0.0]])
        out = act_sym(M, Sym2Tensor.diagonal([1.0, 4.0]))
        np.testing.assert_allclose(out.matrix, np.diag([4.0, 1.0]))

    def test_group_action_law(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 5))
            M1, M2 = random_gl(rng, n), random_gl(rng, n)
            C = random_spd(rng, n)
            lhs = act_sym(M1 @ M2, C).matrix
            rhs = act_sym(M1, act_sym(M2, C)).matrix
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_preserves_pd_cone(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            M = random_gl(rng, n)
            C = random_spd(rng, n)
            assert is_positive_definite(act_sym(M, C))


class TestIsPositiveDefinite:
    def test_positive_diagonal(self):
        assert is_positive_definite(Sym2Tensor.diagonal([1.0, 2.0]))

    def test_degenerate(self):
        assert not is_positive_definite(Sym2Tensor.diagonal([1.0, 0.0]))

    def test_indefinite(self):
        # eigenvalues 5 and -1
        assert not is_positive_definite(Sym2Tensor([[2.0, 3.0], [3.0, 2.0]]))

    @pytest.mark.parametrize(
        "entries, expected",
        [
            ([1.0, 1e-13], False),
            ([1.0, 1e-11], True),
            ([-5.0, -1.0], False),
            ([1e6, 1e-7], False),
            ([1e-6, 1e-17], True),
        ],
    )
    def test_relative_floor(self, entries, expected):
        # lambda_min must clear PD_RTOL = 1e-12 times the spectral norm.
        assert is_positive_definite(Sym2Tensor.diagonal(entries)) == expected

    def test_matches_spectral_norm_criterion(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(n, n))
            C = Sym2Tensor(a @ a.T - rng.uniform(0.0, 2.0) * np.eye(n))
            expected = np.linalg.eigvalsh(C.matrix)[0] > 1e-12 * np.linalg.norm(
                C.matrix, 2
            )
            assert is_positive_definite(C) == expected


class TestConstruction:
    def test_symmetrization(self):
        C = Sym2Tensor([[1.0, 2.0 + 1e-12], [2.0, 5.0]])
        np.testing.assert_array_equal(C.matrix, C.matrix.T)

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(DimensionMismatch):
            Sym2Tensor([[1.0, 2.0], [3.0, 5.0]])

    def test_dimension_cap(self):
        with pytest.raises(DimensionMismatch):
            Sym2Tensor(np.eye(9))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Sym2Tensor([[np.nan]])

    def test_near_max_entry_stays_finite(self):
        m = np.array([[1.7e308, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            C = Sym2Tensor(m)
        np.testing.assert_array_equal(C.matrix, m)

    def test_gl_rejects_singular(self):
        with pytest.raises(SingularTensor):
            GlElement([[1.0, 2.0], [2.0, 4.0]])

    def test_immutable(self):
        C = Sym2Tensor.identity(2)
        with pytest.raises(ValueError):
            C.matrix[0, 0] = 7.0

    def test_json_round_trip(self, rng):
        C = random_spd(rng, 3)
        np.testing.assert_array_equal(Sym2Tensor(C.matrix.tolist()).matrix, C.matrix)

    @pytest.mark.parametrize(
        "m",
        [
            [[1.7e308, 1.7e308], [-1.7e308, 1.7e308]],
            [[1.7e308, 1.7e308], [1.6e308, 1.7e308]],
        ],
    )
    def test_rejects_asymmetry_when_norm_overflows(self, m):
        with pytest.raises(DimensionMismatch):
            Sym2Tensor(m)


def _two_norm_reference(matrix):
    """The symmetry check with one ``_inf_norm`` call per norm: the stored
    matrix, or the error raised."""
    m = tn._as_square(matrix, "symmetric 2-tensor")
    unit = m * 0.03125
    scale = tn._inf_norm(unit)
    asym = tn._inf_norm(unit - unit.T)
    if asym > tn.SYMMETRY_RTOL * scale:
        raise DimensionMismatch(
            f"relative matrix asymmetry {asym / scale:.3e} exceeds "
            f"{tn.SYMMETRY_RTOL:.0e}"
        )
    return 0.5 * m + 0.5 * m.T


def _outcome(build, matrix):
    """The stored bits, or the error's type and message."""
    try:
        return "stored", build(matrix).tobytes()
    except (DimensionMismatch, ValueError) as exc:
        return type(exc).__name__, str(exc)


#: Any float (nan, inf, -0.0, subnormals and huge ones included), with the
#: float maximum's neighbourhood and -0.0 drawn often.
_ENTRIES = st.one_of(
    st.floats(),
    st.sampled_from([1.7e308, -1.7e308, 1.6e308, -0.0]),
    st.floats(-4.0, 4.0),
)


def _at_threshold(m, i, j, ulps):
    """``m`` with ``m[j, i] = 0`` and ``m[i, j] = d``, its only asymmetric
    pair: d is a fixed point of ``d = 32 fl(SYMMETRY_RTOL scale)``, so the
    asymmetry d / 32 equals the rejection threshold exactly, then moved by
    ``ulps`` units in the last place."""
    m[i, j] = m[j, i] = 0.0
    for _ in range(8):
        m[i, j] = 32.0 * (tn.SYMMETRY_RTOL * tn._inf_norm(m * 0.03125))
    step = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        m[i, j] = np.nextafter(m[i, j], step)
    return m


@st.composite
def _near_symmetric(draw, n):
    """An n x n matrix: arbitrary, exactly symmetric, or symmetric but for
    one off-diagonal pair whose asymmetry is within a few ulps of the
    rejection threshold or within a factor 2 of it."""
    m = draw(hnp.arrays(float, (n, n), elements=_ENTRIES))
    shape = draw(st.sampled_from(["any", "symmetric", "threshold", "near"]))
    if shape == "any":
        return m
    lower = np.tril_indices(n, -1)
    m[lower] = m.T[lower]
    if shape == "symmetric" or n == 1 or not np.isfinite(m).all():
        return m
    i, j = draw(st.permutations(range(n)))[:2]
    if shape == "threshold":
        return _at_threshold(m, i, j, draw(st.integers(-2, 2)))
    threshold = 32.0 * tn.SYMMETRY_RTOL * tn._inf_norm(m * 0.03125)
    with np.errstate(over="ignore"):  # an entry at the float maximum
        m[i, j] += draw(st.floats(0.5, 2.0)) * threshold
    return m


class TestOneReductionSymmetryCheck:
    """``Sym2Tensor`` takes both of its norms from one reduction over the
    stacked block; it accepts, rejects and stores exactly as the two
    separate ``_inf_norm`` calls do. n = 8 takes numpy's unrolled row sum."""

    @pytest.mark.parametrize("n", range(1, tn.MAX_DIM + 1))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_two_norm_reference(self, n, data):
        m = data.draw(_near_symmetric(n))
        built = _outcome(lambda x: Sym2Tensor(x).matrix, m)
        assert built == _outcome(_two_norm_reference, m)

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("off_diagonal", [1.0, -0.0, 1.7e308])
    @pytest.mark.parametrize("ulps, accepted", [(0, True), (1, False)])
    def test_exact_threshold(self, n, off_diagonal, ulps, accepted):
        m = np.where(np.eye(n, dtype=bool), 1.0, off_diagonal)
        m = _at_threshold(m, 0, n - 1, ulps)
        outcome = _outcome(lambda x: Sym2Tensor(x).matrix, m)
        assert outcome == _outcome(_two_norm_reference, m)
        assert (outcome[0] == "stored") == accepted


class TestCachedIdentity:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_instance_per_dimension(self, n):
        assert GlElement.identity(n) is GlElement.identity(n)
        assert GlElement.identity(n).dim == n

    def test_read_only(self):
        eye = GlElement.identity(2)
        with pytest.raises(ValueError):
            eye.matrix[0, 0] = 7.0
        np.testing.assert_array_equal(GlElement.identity(2).matrix, np.eye(2))

    @pytest.mark.parametrize("n", [1, 3])
    def test_inverse_and_det(self, n):
        eye = GlElement.identity(n)
        np.testing.assert_array_equal(eye.inverse.matrix, np.eye(n))
        assert eye.det == 1.0


class TestExactArithmetic:
    """``+``, ``-``, unary ``-`` and ``*`` on validated symmetric tensors
    skip the asymmetry check; their results must still be valid tensors."""

    @staticmethod
    def results(A, B):
        return {"add": A + B, "sub": A - B, "neg": -A, "mul": A * 1.7, "rmul": 0.3 * B}

    def test_read_only_and_exactly_symmetric(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            A, B = random_spd(rng, n), random_spd(rng, n)
            for name, out in self.results(A, B).items():
                assert isinstance(out, Sym2Tensor), name
                np.testing.assert_array_equal(out.matrix, out.matrix.T, err_msg=name)
                with pytest.raises(ValueError):
                    out.matrix[0, 0] = 1.0

    def test_matches_full_construction(self, rng):
        A, B = random_spd(rng, 3), random_spd(rng, 3)
        for name, out in self.results(A, B).items():
            np.testing.assert_array_equal(
                out.matrix, Sym2Tensor(out.matrix.copy()).matrix, err_msg=name
            )

    @pytest.mark.parametrize(
        "op",
        [
            lambda: Sym2Tensor([[1e308]]) * 10.0,
            lambda: 10.0 * Sym2Tensor([[1e308]]),
            lambda: Sym2Tensor([[1e308]]) * float("nan"),
            lambda: Sym2Tensor([[1e308]]) + Sym2Tensor([[1e308]]),
            lambda: Sym2Tensor([[1e308]]) - Sym2Tensor([[-1e308]]),
        ],
    )
    def test_overflow_raises(self, op):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="entries must be finite"):
                op()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Sym2Tensor.identity(2) + Sym2Tensor.identity(3)

    def test_act_sym_symmetrizes(self, rng):
        # General input keeps the full check and symmetrization.
        for _ in range(50):
            C = act_sym(random_gl(rng, 3), random_spd(rng, 3))
            np.testing.assert_array_equal(C.matrix, C.matrix.T)


class TestGlProductCheck:
    def test_ill_conditioned_product_rejected(self):
        # Each factor has condition 1e8, within the 1e12 bound; the square 1e16.
        M = GlElement(np.diag([1e4, 1e-4]))
        with pytest.raises(SingularTensor):
            M @ M

    def test_ill_conditioned_inverse_chain(self):
        M = GlElement(np.diag([1e4, 1e-4]))
        with pytest.raises(SingularTensor):
            M.inverse @ M.inverse

    def test_rejection_matches_public_construction(self):
        # Each factor has condition 1e7; the product's 1e14 is refused by the
        # SVD fallback, with the message public construction gives.
        A = GlElement(np.diag([1.0, 1e-7]))
        with pytest.raises(SingularTensor) as public:
            GlElement(A.matrix @ A.matrix)
        with pytest.raises(SingularTensor) as product:
            A @ A
        assert str(product.value) == str(public.value)

    @pytest.mark.parametrize("entry", ["inf", "nan"])
    @pytest.mark.parametrize("certified", [False, True])
    def test_non_finite_product_raises_as_public_construction(self, entry, certified):
        # 1e200-scale factors overflow to inf. Finite factors give no NaN
        # through a fused multiply-add product, so the NaN case plants one in
        # the factor. Certified bounds on the factor leave only the
        # finiteness test to send the product to the public constructor.
        A = GlElement(1e200 * np.array([[1.0, 1.0], [1.0, -1.0]]))
        if entry == "nan":
            object.__setattr__(A, "matrix", np.array([[np.nan, 0.0], [0.0, 1.0]]))
        if certified:
            object.__setattr__(A, "_smin", 1.0)
            object.__setattr__(A, "_smax", 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            raw = A.matrix @ A.matrix
            assert getattr(np, f"is{entry}")(raw).any()
            with pytest.raises(ValueError) as public:
                GlElement(raw)
            with pytest.raises(ValueError) as product:
                A @ A
        assert str(product.value) == str(public.value)

    def test_certified_product_keeps_bits_and_bounds(self, rng, monkeypatch):
        A, B = random_gl(rng, 3), random_gl(rng, 3)
        # No SVD: the product is certified from its factors' bounds.
        monkeypatch.setattr(np.linalg, "svd", None)
        C = A @ B
        assert C.matrix.tobytes() == (A.matrix @ B.matrix).tobytes()
        top = A._smax * B._smax
        slack = (9 * tn._EPS / (1.0 - 3 * tn._EPS) + 4.0 * tn._EPS) * top
        assert (C._smin, C._smax) == (A._smin * B._smin - slack, top + slack)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stored_bounds_bracket_singular_values(self, rng, monkeypatch, n):
        # Diagonal factors make sigma_min(AB) = sigma_min(A) sigma_min(B)
        # possible, where the product bound is tight.
        svd, svd_calls = np.linalg.svd, []
        monkeypatch.setattr(
            np.linalg, "svd", lambda *a, **k: svd_calls.append(1) or svd(*a, **k)
        )
        certified = 0
        for trial in range(40):
            M = None
            for _ in range(int(rng.integers(2, 7))):
                scale = 10.0 ** rng.uniform(-3, 3)
                if trial % 2:
                    factor = GlElement(scale * np.diag(np.exp(rng.uniform(-2, 2, n))))
                else:
                    factor = GlElement(scale * random_gl(rng, n).matrix)
                if M is None:
                    M = factor
                    continue
                calls = len(svd_calls)
                try:
                    M = M @ factor
                except SingularTensor:
                    break
                certified += len(svd_calls) == calls
                svals = svd(M.matrix, compute_uv=False)
                assert M._smin <= svals[-1]
                assert M._smax >= svals[0]
        assert certified > 0
