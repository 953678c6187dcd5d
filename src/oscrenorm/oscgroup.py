"""The oscillator group over R^n and its homomorphic sections.

Elements are quadruples (M, k, v, c) with M an invertible transform, k a
dual vector, v a vector and c a scalar.  The group law is

    (L, j, u, a) * (M, k, v, b) = (LM, jM + k, u + Lv, a + b + j(v))

which is exactly the multiplication of the block matrices produced by
``to_matrix``.  Dual-vector composition jM acts on coefficient vectors as
M^T j.

A homomorphic section k -> (id, k, a k, b(k)) of the projection
(M, k, v, c) -> k is determined by a symmetric tensor: homomorphy forces
a = C symmetric and b(k) = kCk/2.  So each section is stored as its tensor
C and evaluated by ``an_apply``.  Its image is a commutative subgroup;
tensor addition is the pointwise (fibrewise) sum of sections, and ``act_sym``
is the GL(V) action on them, conjugation by (M, 0, 0, 0) after k -> kM.

Public construction of an ``OscElement`` validates every part and copies k
and v.  ``osc_mul``, ``osc_inv`` and ``an_apply`` compute their parts from
validated ones, so they build the result with the private
``OscElement._from_parts``, which re-checks only that k, v and c are finite:
an overflow to inf still raises the same ``ValueError``.  Either way the
element owns its k and v and they are read-only.

Stacks.  An element may be a stack of elements, as ``tensors`` describes for
transforms and tensors: its m is a stack of transforms, k and v have shape
(..., n) and c is an array of shape (...), where a single element's c is a
Python float.  Every operation here is written once for both, broadcasts a
single element against a stack, and gives each element of a stacked result
the single-element result bit for bit.  Stacks enter only through
``OscElement._from_parts``, from stacked transforms, and ``an_apply``, from
a stack of tensors with one source vector each; public construction accepts
one element.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import DimensionMismatch
from .tensors import (
    Frozen,
    GlElement,
    Sym2Tensor,
    _dot,
    _float_or_stack,
    _matvec,
    _vecmat,
    act_sym,
    as_vector,
)


class OscElement(Frozen):
    """Group element (m, k, v, c)."""

    m: GlElement
    k: np.ndarray
    v: np.ndarray
    c: float

    def __init__(self, m: GlElement, k, v, c: float):
        if m.matrix.ndim != 2:
            raise DimensionMismatch("expected one transform, got a stack")
        # Copies, so that the caller's arrays do not alias the element's.
        k, v = as_vector(k, m.dim).copy(), as_vector(v, m.dim).copy()
        self._set(m, k, v, float(c))

    @classmethod
    def _from_parts(cls, m: GlElement, k: np.ndarray, v: np.ndarray, c):
        """Wrap float vectors ``k`` and ``v`` of length ``m.dim`` and a
        float ``c``, or stacks of them as long as the stack ``m``, which the
        caller owns and no longer writes, computed from validated elements
        or freshly drawn; only finiteness can fail. ``k``, ``v`` and a
        stacked ``c`` become read-only."""
        out = object.__new__(cls)
        out._set(m, k, v, c)
        return out

    def _set(self, m: GlElement, k: np.ndarray, v: np.ndarray, c) -> None:
        c = _float_or_stack(c)
        if not (np.isfinite(k).all() and np.isfinite(v).all() and np.isfinite(c).all()):
            raise ValueError("vector entries must be finite")
        for part in (k, v, c):
            if isinstance(part, np.ndarray):
                part.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.m.dim

    @classmethod
    @cache
    def identity(cls, dim: int) -> "OscElement":
        """The group identity; one shared read-only instance per dim."""
        return cls(GlElement.identity(dim), np.zeros(dim), np.zeros(dim), 0.0)


def osc_mul(g: OscElement, h: OscElement) -> OscElement:
    """Group product g * h; ``g.m @ h.m`` rejects a dimension mismatch."""
    return OscElement._from_parts(
        g.m @ h.m,
        _vecmat(g.k, h.m.matrix) + h.k,
        g.v + _matvec(g.m.matrix, h.v),
        g.c + h.c + _dot(g.k, h.v),
    )


def osc_inv(g: OscElement) -> OscElement:
    """Group inverse, solved from the group law."""
    minv = g.m.inverse
    j = -_vecmat(g.k, minv.matrix)
    u = -_matvec(minv.matrix, g.v)
    a = -g.c - _dot(j, g.v)
    return OscElement._from_parts(minv, j, u, a)


def to_matrix(g: OscElement) -> np.ndarray:
    """Faithful (n+2) x (n+2) representation [[1, k, c], [0, M, v], [0, 0, 1]],
    one per element of a stack."""
    n = g.dim
    out = np.zeros((*g.k.shape[:-1], n + 2, n + 2))
    out[..., 0, 0] = 1.0
    out[..., 0, 1 : n + 1] = g.k
    out[..., 0, n + 1] = g.c
    out[..., 1 : n + 1, 1 : n + 1] = g.m.matrix
    out[..., 1 : n + 1, n + 1] = g.v
    out[..., n + 1, n + 1] = 1.0
    return out


def an_apply(C: Sym2Tensor, k) -> OscElement:
    """Value of the annihilation section An(C) at k: (id, k, Ck, kCk/2).
    A stack of tensors takes one source per tensor, shape (..., n)."""
    stack = C.matrix.shape[:-2]
    if stack:
        kv = np.array(k, dtype=float)
        if kv.shape != (*stack, C.dim):
            raise DimensionMismatch(
                f"expected sources of shape {(*stack, C.dim)}, got {kv.shape}"
            )
        eye = GlElement._identities(C.dim, stack)
    else:
        kv, eye = as_vector(k, C.dim).copy(), GlElement.identity(C.dim)
    return OscElement._from_parts(
        eye, kv, _matvec(C.matrix, kv), 0.5 * _dot(_vecmat(kv, C.matrix), kv)
    )


class UrElement(Frozen):
    """Element (m, p) of the semidirect product GL(V) x| Sym2(V)."""

    m: GlElement
    p: Sym2Tensor

    def __init__(self, m: GlElement, p: Sym2Tensor):
        if m.dim != p.dim:
            raise DimensionMismatch("transform and tensor differ in dimension")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)

    @property
    def dim(self) -> int:
        return self.m.dim


def ur(C: Sym2Tensor, M: GlElement) -> UrElement:
    """The homomorphic lift M -> (M, C - M C M^T)."""
    if C.dim != M.dim:
        raise DimensionMismatch(f"dimension mismatch: {C.dim} vs {M.dim}")
    return UrElement(M, C - act_sym(M, C))


def sd_mul(g1: UrElement, g2: UrElement) -> UrElement:
    """Semidirect product (m1 m2, p1 + m1 p2 m1^T); ``g1.m @ g2.m``
    rejects a dimension mismatch."""
    return UrElement(g1.m @ g2.m, g1.p + act_sym(g1.m, g2.p))
