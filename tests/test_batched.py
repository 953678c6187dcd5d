"""The batched evaluation contract: an (m, n) block of points in, (m,) out.

Every value a block evaluation returns must equal the value of the same
point taken alone, bit for bit, whatever the block size, its memory layout
and however the block is split into chunks, and every guard must still
fire for a single bad row.
"""

import math
import threading
import tracemalloc

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
    "compose_of_wtilde", "nested_renorm_step", "wtilde_in_chunks_of_five",
    "wtilde_past_the_degree_limit",
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


def degree_ten_interaction(n):
    """``interaction(n)`` plus -1e-3 x_i^10 on each axis: past the degree up
    to which ``wtilde`` expands a polynomial, so it takes the row path."""
    terms = list(interaction(n).poly.terms)
    terms += [(tuple(10 * (i == j) for j in range(n)), -1e-3) for i in range(n)]
    return FieldFunction.polynomial(terms, n)


def in_chunks_of(points, f, nodes):
    """f with expansion chunks of ``points`` points, so that a block of six
    leaves a one-point chunk."""

    def evaluator(X):
        saved = functions._EXPAND_ROWS
        functions._EXPAND_ROWS = points * nodes
        try:
            return f.evaluator(X)
        finally:
            functions._EXPAND_ROWS = saved

    return FieldFunction(evaluator, f.dim, integrable=True)


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
    fs["wtilde_in_chunks_of_five"] = in_chunks_of(5, wtilde(P, I, order=q), q**n)
    fs["wtilde_past_the_degree_limit"] = wtilde(P, degree_ten_interaction(n), order=q)
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


def test_nonfinite_row_on_the_expansion_path_names_its_point():
    # x^4 overflows at 3e77; the row path, which takes such a point again,
    # warns of the overflow as it always has.
    out = wtilde(Sym2Tensor([[1.0]]), interaction(1), order=10)
    X = [[0.5], [-0.25], [3e77], [4e77], [0.1]]
    with np.errstate(over="ignore"):
        with pytest.raises(NonPositiveConvolution, match=r"at \[3\.e\+77\]"):
            out.values(X)


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


def test_expansion_chunks_share_one_exponent_block():
    # 350 points in chunks of 100: four chunks, each of whose exponent
    # blocks would hold 100 x 400 floats.
    P, q, per_chunk = Sym2Tensor([[1.0, 0.3], [0.3, 0.8]]), 20, 100
    f = in_chunks_of(per_chunk, wtilde(P, interaction(2), order=q), q**2)
    X = np.asfortranarray(np.random.default_rng(5).uniform(-1.0, 1.0, size=(350, 2)))
    block = per_chunk * q**2 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f.values(X)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block


def test_expansion_path_is_safe_across_threads():
    # Each call owns its exponent block: two threads evaluating one function
    # at once each get the bits of a serial call.
    f = wtilde(Sym2Tensor([[1.0, 0.3], [0.3, 0.8]]), interaction(2), order=20)
    per_chunk = functions._EXPAND_ROWS // 400
    rng = np.random.default_rng(11)
    blocks = [rng.uniform(-1.0, 1.0, size=(3 * per_chunk + 7, 2)) for _ in range(2)]
    want = [f.values(X).tobytes() for X in blocks]
    got = [[], []]
    start = threading.Barrier(2)

    def run(i):
        start.wait()
        for _ in range(5):
            got[i].append(f.values(blocks[i]).tobytes())

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert [g == [w] * 5 for g, w in zip(got, want)] == [True, True]
