"""The oscillator group over R^n and its section machinery.

Elements are quadruples (M, k, v, c) with M an invertible transform, k a
dual vector, v a vector and c a scalar.  The group law is

    (L, j, u, a) * (M, k, v, b) = (LM, jM + k, u + Lv, a + b + j(v))

which is exactly the multiplication of the block matrices produced by
``to_matrix``.  Dual-vector composition jM acts on coefficient vectors as
M^T j.

Sections of the projection (M, k, v, c) -> k with identity linear part are
stored as finite data: an n x n linear part ``a`` and a symmetric quadratic
part ``b`` (evaluated as b(k) = k.b.k / 2).  The annihilation section of a
symmetric tensor C is k -> (id, k, Ck, kCk/2); its image is a commutative
subgroup, and C -> An(C) turns tensor addition into pointwise section
addition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .tensors import GlElement, Sym2Tensor, _as_square, _inf_norm, act_sym, as_vector


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

    @property
    def dim(self) -> int:
        return self.m.dim

    @classmethod
    def identity(cls, dim: int) -> "OscElement":
        return cls(GlElement.identity(dim), np.zeros(dim), np.zeros(dim), 0.0)

    def isclose(self, other: "OscElement", atol: float = 1e-10) -> bool:
        # Componentwise absolute tolerance: the group law mixes additive and
        # multiplicative error, so a single relative measure is misleading.
        return (
            self.dim == other.dim
            and np.allclose(self.m.matrix, other.m.matrix, atol=atol, rtol=0.0)
            and np.allclose(self.k, other.k, atol=atol, rtol=0.0)
            and np.allclose(self.v, other.v, atol=atol, rtol=0.0)
            and abs(self.c - other.c) <= atol
        )


def osc_mul(g: OscElement, h: OscElement) -> OscElement:
    """Group product g * h."""
    if g.dim != h.dim:
        raise DimensionMismatch(f"dimension mismatch: {g.dim} vs {h.dim}")
    return OscElement(
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
    return OscElement(minv, j, u, a)


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


@dataclass(frozen=True)
class Section:
    """Homomorphic section k -> (id, k, a k, k.b.k / 2) of the projection.

    Stored as finite data rather than a closure so that section sums and the
    GL(V) action can be compared exactly.  Homomorphy forces the quadratic
    part to polarize onto the linear part, i.e. b == a as matrices; this is
    checked at construction.
    """

    a: np.ndarray
    b: Sym2Tensor

    def __post_init__(self):
        a = _as_square(self.a, "section linear part")
        if a.shape[0] != self.b.dim:
            raise DimensionMismatch("linear and quadratic parts differ in dimension")
        scale = max(_inf_norm(a), 1.0)
        if _inf_norm(a - self.b.matrix) > 1e-10 * scale:
            raise DimensionMismatch(
                "section data inconsistent: quadratic part must polarize "
                "onto the linear part"
            )
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def dim(self) -> int:
        return self.b.dim

    @classmethod
    def identity(cls, dim: int) -> "Section":
        return cls(np.zeros((dim, dim)), Sym2Tensor.zero(dim))

    def apply(self, k) -> OscElement:
        kv = as_vector(k, self.dim)
        return OscElement(
            GlElement.identity(self.dim),
            kv,
            self.a @ kv,
            0.5 * float(kv @ self.b.matrix @ kv),
        )

    def isclose(self, other: "Section", atol: float = 1e-10) -> bool:
        return self.dim == other.dim and np.allclose(
            self.a, other.a, atol=atol, rtol=0.0
        )


def an_section(C: Sym2Tensor) -> Section:
    """Annihilation section of a symmetric tensor."""
    return Section(C.matrix, C)


def an_apply(C: Sym2Tensor, k) -> OscElement:
    """Value of the annihilation section: (id, k, Ck, kCk/2)."""
    kv = as_vector(k, C.dim)
    return OscElement(
        GlElement.identity(C.dim), kv, C.matrix @ kv, 0.5 * float(kv @ C.matrix @ kv)
    )


def section_sum(s1: Section, s2: Section) -> Section:
    """Pointwise sum of sections."""
    if s1.dim != s2.dim:
        raise DimensionMismatch(f"dimension mismatch: {s1.dim} vs {s2.dim}")
    return Section(s1.a + s2.a, s1.b + s2.b)


def act_sec(M: GlElement, s: Section) -> Section:
    """GL(V) action on sections: conjugation by (M, 0, 0, 0) after k -> kM.

    On the stored data this is simultaneous conjugation a -> M a M^T,
    b -> M b M^T.
    """
    if M.dim != s.dim:
        raise DimensionMismatch(f"dimension mismatch: {M.dim} vs {s.dim}")
    return Section(M.matrix @ s.a @ M.matrix.T, act_sym(M, s.b))


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
    """Semidirect product (m1 m2, p1 + m1 p2 m1^T)."""
    if g1.dim != g2.dim:
        raise DimensionMismatch(f"dimension mismatch: {g1.dim} vs {g2.dim}")
    return UrElement(g1.m @ g2.m, g1.p + act_sym(g1.m, g2.p))
