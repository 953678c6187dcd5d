"""The batched evaluation contract: an (m, n) block of points in, (m,) out.

Every value a block evaluation returns must equal the value of the same
point taken alone, bit for bit, whatever the block size, its memory layout
and however the block is split into chunks, and every guard must still
fire for a single bad row.
"""

import math

import numpy as np
import pytest

from oscrenorm import (
    DimensionMismatch,
    FieldFunction,
    GaussianMeasure,
    NonPositiveConvolution,
    PropagatorFamily,
    QuadratureRule,
    Sym2Tensor,
    as_vector,
    compose,
    renorm_step,
    wtilde,
)
from oscrenorm import functions
from conftest import random_gl_pos, random_spd

#: Per-axis orders small enough for a nested step in every dimension.
ORDERS = {1: 12, 2: 6, 3: 4, 4: 3}

CASES = (
    "polynomial", "nine_term_polynomial", "compose", "wtilde", "wtilde_of_compose",
    "compose_of_wtilde", "nested_renorm_step",
)


def interaction(n):
    """A negative-definite quartic with a cross term and a linear term."""
    terms = [(tuple(4 * (i == j) for j in range(n)), -0.1 - 0.02 * i) for i in range(n)]
    cross = [0] * n
    cross[0] += 2
    cross[-1] += 2
    terms.append((tuple(cross), -0.05))
    terms.append((tuple([1] + [0] * (n - 1)), 0.3))
    return FieldFunction.polynomial(terms, n)


def nine_term_interaction(n):
    """``interaction(n)`` plus terms of degree 1-3, nine terms in all: past
    the seven up to which numpy sums a short axis in term order."""
    terms = list(interaction(n).poly.terms)
    for t in range(9 - len(terms)):
        e = [0] * n
        e[t % n] = 1 + t % 3
        terms.append((tuple(e), 0.01 * (t + 1)))
    return FieldFunction.polynomial(terms, n)


def cases(n):
    rng = np.random.default_rng(100 + n)
    I = interaction(n)
    fam = PropagatorFamily.with_default_dilation(random_spd(rng, n, 0.3))
    q = ORDERS[n]
    half = math.sqrt(2.0)
    fs = {
        "polynomial": I,
        "nine_term_polynomial": nine_term_interaction(n),
        "compose": compose(I, random_gl_pos(rng, n)),
        "wtilde": wtilde(random_spd(rng, n, 0.3), I, order=q),
        "nested_renorm_step": renorm_step(
            fam, half, renorm_step(fam, half, I, order=q), order=q
        ),
    }
    # An interaction acted on by a linear map, as the convolution checks
    # take it, and the map acting on a convolution.
    P, M = random_spd(rng, n, 0.3), random_gl_pos(rng, n)
    fs["wtilde_of_compose"] = wtilde(P, compose(I, M), order=q)
    fs["compose_of_wtilde"] = compose(wtilde(P, I, order=q), M)
    return fs


def assert_same_as_pointwise(f, X):
    np.testing.assert_array_equal(f.values(X), [f(x) for x in X])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("name", CASES)
def test_values_match_single_points(n, name):
    X = np.random.default_rng(n).uniform(-1.0, 1.0, size=(6, n))
    f = cases(n)[name]
    # C-ordered, a Fortran-ordered copy, and the transposed view of an
    # (n, m) array.
    for block in (X, np.asfortranarray(X), np.ascontiguousarray(X.T).T):
        assert_same_as_pointwise(f, block)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_poly_is_what_the_function_evaluates(n):
    X = np.random.default_rng(n).uniform(-1.0, 1.0, size=(6, n))
    fs = cases(n)
    assert fs["polynomial"].poly is not None
    assert fs["wtilde"].poly is None
    for f in fs.values():
        assert f.poly is None or f.values(X).tobytes() == f.poly(X).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_log_density_matches_log_eval(n, rng):
    g = GaussianMeasure(random_spd(rng, n))
    X = rng.normal(size=(7, n))
    np.testing.assert_allclose(
        g.log_density(X), [g.log_eval(x) for x in X], rtol=1e-15, atol=0.0
    )


def scalar_wtilde(P, terms, x, order):
    """wtilde at one point by plain Python loops over nodes and terms."""
    rule = QuadratureRule.for_covariance(P, order)
    exponents = [
        math.log(w)
        + sum(c * math.prod(u**e for u, e in zip(x - y, ex)) for ex, c in terms)
        for y, w in zip(rule.nodes, rule.weights)
    ]
    peak = max(exponents)
    return math.log(math.exp(peak) * sum(math.exp(e - peak) for e in exponents))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wtilde_matches_scalar_loop_reference(n):
    rng = np.random.default_rng(7 + n)
    P, I = random_spd(rng, n, 0.5), interaction(n)
    X = rng.uniform(-1.0, 1.0, size=(5, n))
    want = [scalar_wtilde(P, I.poly.terms, x, ORDERS[n]) for x in X]
    np.testing.assert_allclose(
        wtilde(P, I, order=ORDERS[n]).values(X), want, rtol=1e-12, atol=0.0
    )


def test_batch_longer_than_a_chunk():
    out = wtilde(Sym2Tensor([[1.0]]), interaction(1), order=10)
    per_chunk = functions._CHUNK_ROWS // 10
    X = np.linspace(-2.0, 2.0, 2 * per_chunk + 7)[:, None]
    assert_same_as_pointwise(out, X)


def test_nested_batch_longer_than_a_chunk():
    fam = PropagatorFamily.with_default_dilation(
        Sym2Tensor([[1.0, 0.3], [0.3, 0.8]])
    )
    inner = renorm_step(fam, 1.5, interaction(2), order=8)
    outer = renorm_step(fam, 1.5, inner, order=8)
    per_chunk = functions._CHUNK_ROWS // 64
    X = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2 * per_chunk + 5, 2))
    assert_same_as_pointwise(outer, X)


def hot_beyond(threshold, value):
    """An 'integrable' interaction that is 0 except past ``threshold``."""
    return FieldFunction(
        evaluator=lambda X: np.where(X[:, 0] > threshold, value, 0.0),
        dim=1,
        integrable=True,
    )


def test_one_large_row_is_exact():
    # exp(800) overflows a linear sum; its log is 800 plus the zero row's.
    P, X = Sym2Tensor([[1.0]]), np.zeros((1000, 1))
    X[700] = 12.0
    hot = wtilde(P, hot_beyond(5.0, 800.0), order=10).values(X)
    cold = wtilde(P, hot_beyond(5.0, 0.0), order=10).values(X)
    np.testing.assert_allclose(hot - cold, 800.0 * (X[:, 0] > 5.0), rtol=0.0, atol=1e-12)


def test_one_nonpositive_convolution_row_raises():
    out = wtilde(Sym2Tensor([[1.0]]), hot_beyond(5.0, np.nan), order=10)
    X = np.zeros((1000, 1))
    X[300] = 12.0
    with pytest.raises(NonPositiveConvolution, match="12"):
        out.values(X)


@pytest.mark.parametrize("value", [-np.inf, np.inf, np.nan])
def test_nonfinite_log_sum_names_its_point(value):
    # Every term 0, a term inf, a term NaN; pytest turns any numpy
    # RuntimeWarning into a failure.
    out = wtilde(Sym2Tensor([[1.0]]), hot_beyond(-100.0, value), order=10)
    with pytest.raises(NonPositiveConvolution, match=r"at \[-3\.5\]"):
        out.values([[-200.0], [-150.0], [-3.5], [4.0]])


@pytest.mark.parametrize(
    "block, row",
    [
        ([[0.1, np.nan]], [0.1, np.nan]),
        ([[0.1, 0.2], [np.inf, 0.0]], [np.inf, 0.0]),
        (np.zeros((3, 3)), np.zeros(3)),
        (np.zeros((3, 1)), np.zeros(1)),
        (np.zeros((0, 2)), np.zeros(0)),
        (np.zeros((2, 2, 2)), np.zeros((2, 2))),
    ],
)
def test_values_rejects_like_as_vector(block, row):
    with pytest.raises((ValueError, DimensionMismatch)) as expected:
        as_vector(row, 2)
    with pytest.raises(Exception) as got:
        interaction(2).values(block)
    assert type(got.value) is type(expected.value)


def test_chunks_bound_the_integrand_rows():
    rows = []
    base = interaction(1)

    def recording(X):
        rows.append(len(X))
        return base.evaluator(X)

    I = FieldFunction(evaluator=recording, dim=1, integrable=True)
    wtilde(Sym2Tensor([[1.0]]), I, order=10).values(np.zeros((1000, 1)))
    assert max(rows) <= functions._CHUNK_ROWS
    assert sum(rows) == 1000 * 10
