"""Stacks of group elements and of Gaussian measures: each element of a
stacked result equals the single-element result bit for bit, a stack checks
each element as a single element is checked and raises what it raises, and
only the private constructors let a stack in."""

import warnings

import numpy as np
import pytest

from oscrenorm import (
    DimensionMismatch,
    GaussianMeasure,
    GlElement,
    OscElement,
    OscRenormError,
    SingularTensor,
    Sym2Tensor,
    UrElement,
    act_fun_gaussian,
    act_sym,
    an_apply,
    osc_inv,
    osc_mul,
    oscgroup,
    sd_mul,
    to_matrix,
    ur,
)
from oscrenorm import tensors as tn
from oscrenorm.gaussian import shifted_log_eval
from oscrenorm.verify import find_check
from conftest import random_gl, random_gl_pos, random_osc, random_spd, random_sym

TRIALS = 5

#: A stack of TRIALS 2 x 2 identities.
EYES = np.tile(np.eye(2), (TRIALS, 1, 1))


def bits(x, i=None):
    """The bytes of every field of ``x``, or of element ``i`` of a stack;
    a single element's scalar fields must be Python floats."""
    if isinstance(x, GlElement):
        fields = (x.matrix, x._smin, x._smax)
    elif isinstance(x, Sym2Tensor):
        fields = (x.matrix,)
    elif isinstance(x, GaussianMeasure):
        fields = (x._chol, x._log_norm)
        return (*bits(x.covariance, i), *_fields(fields, i))
    elif isinstance(x, OscElement):
        vectors = (x.k, x.v) if i is None else (x.k[i], x.v[i])
        return (*bits(x.m, i), *(f.tobytes() for f in vectors), *_scalars(x.c, i))
    elif isinstance(x, UrElement):
        return (*bits(x.m, i), *bits(x.p, i))
    else:
        fields = (x,)
    return _fields(fields, i)


def _fields(fields, i):
    if i is None:
        assert all(type(f) is float for f in fields[1:])
        return tuple(np.asarray(f).tobytes() for f in fields)
    return tuple(np.asarray(f)[i].tobytes() for f in fields)


def _scalars(c, i):
    if i is None:
        assert type(c) is float
        return (c.hex(),)
    return (float(c[i]).hex(),)


def single(x, i):
    """Element ``i`` of a drawn stack, built by public construction."""
    if isinstance(x, GlElement):
        return GlElement(x.matrix[i])
    if isinstance(x, Sym2Tensor):
        return Sym2Tensor(x.matrix[i])
    if isinstance(x, OscElement):
        return OscElement(single(x.m, i), x.k[i], x.v[i], x.c[i])
    return x[i]


#: Each stacked operation, on drawn stacks (M1, M2, C, D, g, h, k) or on
#: the single elements of one row of them.
OPERATIONS = {
    "gl-matmul": lambda M1, M2, C, D, g, h, k: M1 @ M2,
    "gl-matmul-chain": lambda M1, M2, C, D, g, h, k: (M1 @ M2) @ M1.inverse,
    "gl-matmul-identity": lambda M1, M2, C, D, g, h, k: M1 @ GlElement.identity(
        M1.dim
    ),
    "gl-inverse": lambda M1, M2, C, D, g, h, k: M1.inverse,
    "act-sym": lambda M1, M2, C, D, g, h, k: act_sym(M1, C),
    "sym-add": lambda M1, M2, C, D, g, h, k: C + D,
    "sym-sub": lambda M1, M2, C, D, g, h, k: C - D,
    "osc-mul": lambda M1, M2, C, D, g, h, k: osc_mul(g, h),
    "osc-mul-identity": lambda M1, M2, C, D, g, h, k: osc_mul(
        g, OscElement.identity(g.dim)
    ),
    "osc-inv": lambda M1, M2, C, D, g, h, k: osc_inv(g),
    "an-apply": lambda M1, M2, C, D, g, h, k: an_apply(C, k),
    "an-apply-product": lambda M1, M2, C, D, g, h, k: osc_mul(an_apply(C, k), g),
    "to-matrix": lambda M1, M2, C, D, g, h, k: to_matrix(osc_mul(g, h)),
    "ur": lambda M1, M2, C, D, g, h, k: ur(C, M1),
    "sd-mul": lambda M1, M2, C, D, g, h, k: sd_mul(ur(C, M1), ur(D, M2)),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("name", OPERATIONS)
def test_each_stacked_operation_matches_single_elements(n, name):
    rng = np.random.default_rng(n)
    args = (
        random_gl(rng, n, TRIALS), random_gl(rng, n, TRIALS),
        random_sym(rng, n, TRIALS), random_sym(rng, n, TRIALS),
        random_osc(rng, n, TRIALS), random_osc(rng, n, TRIALS),
        rng.normal(size=(TRIALS, n)),
    )
    stacked = OPERATIONS[name](*args)
    for i in range(TRIALS):
        assert bits(stacked, i) == bits(OPERATIONS[name](*(single(a, i) for a in args)))


#: Each stacked Gaussian operation, on drawn stacks (C, M, k, x) of
#: positive-definite covariances, transforms with det > 0, sources and
#: points, or on the single elements of one row of them.
GAUSSIAN_OPERATIONS = {
    "measure": lambda C, M, k, x: GaussianMeasure(C),
    "log-eval": lambda C, M, k, x: GaussianMeasure(C).log_eval(x),
    "act-fun-gaussian": lambda C, M, k, x: act_fun_gaussian(M, GaussianMeasure(C)),
    "acted-log-eval": lambda C, M, k, x: act_fun_gaussian(
        M, GaussianMeasure(C)
    ).log_eval(x),
    "shifted-log-eval": lambda C, M, k, x: shifted_log_eval(
        GaussianMeasure(C), 2.0 * C, k, x
    ),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("name", GAUSSIAN_OPERATIONS)
def test_each_stacked_gaussian_operation_matches_single_elements(n, name):
    rng = np.random.default_rng(n)
    args = (
        random_spd(rng, n, size=TRIALS), random_gl_pos(rng, n, TRIALS),
        rng.normal(size=(TRIALS, n)), rng.normal(size=(TRIALS, n)),
    )
    operation = GAUSSIAN_OPERATIONS[name]
    stacked = operation(*args)
    for i in range(TRIALS):
        one = operation(*(single(a, i) for a in args))
        if not isinstance(one, GaussianMeasure):
            assert type(one) is float
        assert bits(stacked, i) == bits(one)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_drawn_transforms_keep_the_bounds_of_public_construction(n):
    M = random_gl(np.random.default_rng(n), n, TRIALS)
    for i in range(TRIALS):
        assert bits(M, i) == bits(GlElement(M.matrix[i]))


def test_product_falls_back_to_the_svd_row_by_row():
    # The second factor's first row has condition 1/1.05e-6: its square,
    # condition 9.1e11, passes an SVD but not the product bounds. The other
    # rows are certified from their bounds.
    rng = np.random.default_rng(3)
    A = random_gl(rng, 2, TRIALS)
    m = A.matrix.copy()
    m[0] = np.diag([1.0, 1.05e-6])
    A = GlElement._from_svd(m, np.linalg.svd(m, compute_uv=False))
    singles = [GlElement(m[i]) for i in range(TRIALS)]
    assert not (singles[0]._smin ** 2 > tn._PRODUCT_RTOL * singles[0]._smax ** 2)
    product = A @ A
    for i, a in enumerate(singles):
        assert bits(product, i) == bits(a @ a)


def _raised(build):
    """The type and message of the error ``build()`` raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises((ValueError, OscRenormError)) as info:
            build()
    return type(info.value), str(info.value)


def _last_row_replaced(stack, row):
    """A copy of a (TRIALS, ...) array with its last row set to ``row``."""
    out = np.array(stack)
    out[-1] = row
    return out


class TestStackedChecks:
    """A bad last row raises what the single-element operation raises."""

    def test_singular_transform(self):
        m = _last_row_replaced(EYES, [[1.0, 2.0], [2.0, 4.0]])
        assert _raised(
            lambda: GlElement._from_svd(m, np.linalg.svd(m, compute_uv=False))
        ) == _raised(lambda: GlElement(m[-1]))

    def test_singular_product(self):
        # Each factor has condition 1e7; the square's 1e14 is refused.
        m = _last_row_replaced(EYES, np.diag([1.0, 1e-7]))
        A = GlElement._from_svd(m, np.linalg.svd(m, compute_uv=False))
        a = GlElement(m[-1])
        assert _raised(lambda: A @ A)[0] is SingularTensor
        assert _raised(lambda: A @ A) == _raised(lambda: a @ a)

    def test_non_finite_product(self):
        m = _last_row_replaced(EYES, 1e200 * np.eye(2))
        A = GlElement._from_svd(m, np.linalg.svd(m, compute_uv=False))
        a = GlElement(m[-1])
        assert _raised(lambda: A @ A)[0] is ValueError
        assert _raised(lambda: A @ A) == _raised(lambda: a @ a)

    def test_non_finite_tensor(self):
        m = _last_row_replaced(np.zeros((TRIALS, 2, 2)), np.nan)
        assert _raised(lambda: Sym2Tensor._exact(m)) == _raised(lambda: Sym2Tensor(m[-1]))

    def test_non_finite_action(self):
        M = GlElement._from_svd(
            _last_row_replaced(EYES, 1e200 * np.eye(2)),
            _last_row_replaced(np.ones((TRIALS, 2)), 1e200),
        )
        C, m = Sym2Tensor._exact(EYES.copy()), GlElement(1e200 * np.eye(2))
        assert _raised(lambda: act_sym(M, C))[0] is ValueError
        assert _raised(lambda: act_sym(M, C)) == _raised(
            lambda: act_sym(m, Sym2Tensor.identity(2))
        )

    def test_asymmetric_tensor(self):
        # act_sym's symmetry check, on a stack whose last matrix is asymmetric.
        m = _last_row_replaced(EYES, [[1.0, 1e-3], [0.0, 1.0]])
        assert _raised(lambda: tn._symmetric(m)) == _raised(lambda: Sym2Tensor(m[-1]))

    @pytest.mark.parametrize("part", ["k", "v", "c"])
    def test_non_finite_element(self, part):
        rng = np.random.default_rng(0)
        g = random_osc(rng, 2, TRIALS)
        parts = {"k": g.k, "v": g.v, "c": g.c}
        parts[part] = _last_row_replaced(parts[part], np.inf)
        last = {p: x[-1] for p, x in parts.items()}
        assert _raised(
            lambda: OscElement._from_parts(g.m, parts["k"], parts["v"], parts["c"])
        ) == _raised(
            lambda: OscElement(single(g.m, -1), last["k"], last["v"], last["c"])
        )

    def test_overflowing_product(self):
        rng = np.random.default_rng(0)
        g = random_osc(rng, 1, TRIALS)
        h = OscElement._from_parts(
            g.m, _last_row_replaced(g.k, 1e308), g.v, _last_row_replaced(g.c, 1e308)
        )
        assert _raised(lambda: osc_mul(h, h))[0] is ValueError
        assert _raised(lambda: osc_mul(h, h)) == _raised(
            lambda: osc_mul(single(h, -1), single(h, -1))
        )


class TestStackedGaussianChecks:
    """The first failing element of a stack raises what it raises alone."""

    def test_first_covariance_that_is_not_positive_definite(self):
        m = np.tile(np.eye(2), (TRIALS, 1, 1))
        m[2] = [[2.0, 3.0], [3.0, 2.0]]
        m[4] = [[1.0, 0.0], [0.0, 0.0]]
        C = Sym2Tensor._exact(m)
        assert list(tn.is_positive_definite(C)) == [True, True, False, True, False]
        assert _raised(lambda: GaussianMeasure(C)) == _raised(
            lambda: GaussianMeasure(Sym2Tensor(m[2]))
        )

    def test_first_transform_with_non_positive_determinant(self):
        m = EYES.copy()
        m[1] = np.diag([-2.0, 1.0])
        m[3] = np.diag([-3.0, 1.0])
        M = GlElement._from_svd(m, np.linalg.svd(m, compute_uv=False))
        g = GaussianMeasure(Sym2Tensor._exact(EYES.copy()))
        error = _raised(lambda: act_fun_gaussian(M, g))
        assert error == _raised(
            lambda: act_fun_gaussian(GlElement(m[1]), GaussianMeasure(Sym2Tensor(m[0])))
        )
        assert error[1] == "det(M) = -2 must be positive"

    def test_points(self):
        # A stack takes one finite point per element.
        g = GaussianMeasure(Sym2Tensor._exact(EYES.copy()))
        x = np.zeros((TRIALS, 2))
        x[-1, 0] = np.nan
        assert _raised(lambda: g.log_eval(x)) == _raised(
            lambda: GaussianMeasure(Sym2Tensor.identity(2)).log_eval(x[-1])
        )
        with pytest.raises(DimensionMismatch, match="points of shape"):
            g.log_eval(np.zeros(2))
        with pytest.raises(DimensionMismatch, match="points of shape"):
            shifted_log_eval(g, g.covariance, np.zeros((TRIALS, 2)), np.zeros((1, 2)))


class TestPublicConstructorsTakeOneElement:
    stack = np.tile(np.eye(2), (2, 1, 1))

    def test_transform(self):
        with pytest.raises(DimensionMismatch, match="must be square"):
            GlElement(self.stack)

    def test_tensor(self):
        with pytest.raises(DimensionMismatch, match="must be square"):
            Sym2Tensor(self.stack)

    def test_element(self):
        M = GlElement._from_svd(self.stack.copy(), np.ones((2, 2)))
        with pytest.raises(DimensionMismatch):
            OscElement(M, np.zeros((2, 2)), np.zeros((2, 2)), 0.0)
        with pytest.raises(DimensionMismatch, match="1-D vector"):
            OscElement(GlElement.identity(2), np.zeros((2, 2)), np.zeros(2), 0.0)

    def test_section_source(self):
        # A single tensor takes one source; a stack one per tensor.
        with pytest.raises(DimensionMismatch, match="1-D vector"):
            an_apply(Sym2Tensor.identity(2), np.zeros((2, 2)))
        C = Sym2Tensor._exact(self.stack.copy())
        with pytest.raises(DimensionMismatch):
            an_apply(C, np.zeros((3, 2)))


def test_a_law_broken_only_in_the_last_row_fails_its_check(monkeypatch):
    # osc_mul moves the c part of the last element of each stacked product.
    original = oscgroup.osc_mul

    def perturbed(g, h):
        out = original(g, h)
        if np.ndim(out.c) == 0:
            return out
        c = out.c.copy()
        c[-1] += 1e-6
        return OscElement._from_parts(out.m, out.k, out.v, c)

    monkeypatch.setattr(oscgroup, "osc_mul", perturbed)
    check = find_check("matrix-representation")
    errors = check.sample(np.random.default_rng(0), 2, check.trials)
    assert np.max(errors[:-1]) <= check.tolerance < errors[-1]
    result = check.run(0)
    assert not result.passed and result.max_error > 9e-7


def test_a_sample_of_the_wrong_length_is_refused():
    check = find_check("osc-associativity")
    short = type(check)(check.name, lambda rng, n, trials: np.zeros(trials - 1),
                        check.tolerance, check.trials, check.dims)
    with pytest.raises(ValueError, match="rows for 200 trials"):
        short.max_error(np.random.default_rng(0))
