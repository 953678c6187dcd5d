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

Public construction of an ``OscElement`` validates every part.  ``osc_mul``,
``osc_inv`` and ``an_apply`` compute their parts from validated ones, so
they build the result with the private ``OscElement._from_parts``, which
re-checks only that k, v and c are finite: an overflow to inf still raises
the same ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .tensors import GlElement, Sym2Tensor, act_sym, as_vector


@dataclass(frozen=True)
class OscElement:
    """Group element (m, k, v, c)."""

    m: GlElement
    k: np.ndarray
    v: np.ndarray
    c: float

    def __post_init__(self):
        object.__setattr__(self, "k", as_vector(self.k, self.m.dim))
        object.__setattr__(self, "v", as_vector(self.v, self.m.dim))
        c = float(self.c)
        if not math.isfinite(c):
            raise ValueError("vector entries must be finite")
        object.__setattr__(self, "c", c)

    @classmethod
    def _from_parts(cls, m: GlElement, k: np.ndarray, v: np.ndarray, c: float):
        """Wrap float vectors ``k`` and ``v`` of length ``m.dim`` and a float
        ``c``, computed from validated elements; only finiteness can fail."""
        if not (np.isfinite((k, v)).all() and math.isfinite(c)):
            raise ValueError("vector entries must be finite")
        out = object.__new__(cls)
        object.__setattr__(out, "m", m)
        object.__setattr__(out, "k", k)
        object.__setattr__(out, "v", v)
        object.__setattr__(out, "c", c)
        return out

    @property
    def dim(self) -> int:
        return self.m.dim

    @classmethod
    def identity(cls, dim: int) -> "OscElement":
        return cls(GlElement.identity(dim), np.zeros(dim), np.zeros(dim), 0.0)


def osc_mul(g: OscElement, h: OscElement) -> OscElement:
    """Group product g * h; ``g.m @ h.m`` rejects a dimension mismatch."""
    return OscElement._from_parts(
        g.m @ h.m,
        h.m.matrix.T @ g.k + h.k,
        g.v + g.m.matrix @ h.v,
        g.c + h.c + float(g.k @ h.v),
    )


def osc_inv(g: OscElement) -> OscElement:
    """Group inverse, solved from the group law."""
    minv = g.m.inverse
    j = -(minv.matrix.T @ g.k)
    u = -(minv.matrix @ g.v)
    a = -g.c - float(j @ g.v)
    return OscElement._from_parts(minv, j, u, a)


def to_matrix(g: OscElement) -> np.ndarray:
    """Faithful (n+2) x (n+2) representation [[1, k, c], [0, M, v], [0, 0, 1]]."""
    n = g.dim
    out = np.zeros((n + 2, n + 2))
    out[0, 0] = 1.0
    out[0, 1 : n + 1] = g.k
    out[0, n + 1] = g.c
    out[1 : n + 1, 1 : n + 1] = g.m.matrix
    out[1 : n + 1, n + 1] = g.v
    out[n + 1, n + 1] = 1.0
    return out


def an_apply(C: Sym2Tensor, k) -> OscElement:
    """Value of the annihilation section An(C) at k: (id, k, Ck, kCk/2)."""
    kv = as_vector(k, C.dim)
    return OscElement._from_parts(
        GlElement.identity(C.dim), kv, C.matrix @ kv, 0.5 * float(kv @ C.matrix @ kv)
    )


@dataclass(frozen=True)
class UrElement:
    """Element (m, p) of the semidirect product GL(V) x| Sym2(V)."""

    m: GlElement
    p: Sym2Tensor

    def __post_init__(self):
        if self.m.dim != self.p.dim:
            raise DimensionMismatch("transform and tensor differ in dimension")

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
