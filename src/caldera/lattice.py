"""Finite atomic measure spaces and weighted lattice norms.

A space is a finite list of atoms with strictly positive weights.  Vectors
are real-valued functions on the atoms.  Norms are weighted p-norms,
``(sum_i w_i |f_i|^p)^(1/p)`` with ``p = inf`` meaning ``max_i |f_i|``,
optionally wrapped by p-convexification: the norm of ``f`` in the
convexified space is ``base_norm(|f|^p)^(1/p)`` for ``p in (1, inf)``.

Everything here is immutable; operations return fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError

INF = math.inf


def _as_readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch("expected a 1-d array of atom values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MeasureSpace:
    """Finite atomic measure space: atom i carries weight w_i > 0."""

    weights: np.ndarray

    def __post_init__(self):
        w = _as_readonly(self.weights)
        if w.size == 0:
            raise DomainError("a measure space needs at least one atom")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise DomainError("atom weights must be finite and strictly positive")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return int(self.weights.size)

    def is_uniform(self) -> bool:
        return bool(np.all(self.weights == self.weights[0]))


@dataclass(frozen=True)
class LatticeVector:
    """A real vector attached to its measure space."""

    space: MeasureSpace
    values: np.ndarray

    def __post_init__(self):
        v = _as_readonly(self.values)
        if v.size != self.space.n:
            raise DimensionMismatch(
                f"vector has {v.size} entries, space has {self.space.n} atoms"
            )
        if not np.all(np.isfinite(v)):
            raise DomainError("vector entries must be finite")
        object.__setattr__(self, "values", v)


def vector(space: MeasureSpace, values) -> LatticeVector:
    return LatticeVector(space, values)


def values_of(f, n: int | None = None) -> np.ndarray:
    """Finite float entries of a vector or a 1-d array, checked against n atoms."""
    arr = np.asarray(f.values if isinstance(f, LatticeVector) else f, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch("expected a 1-d vector")
    if n is not None and arr.size != n:
        raise DimensionMismatch("vector length does not match atom count")
    if not np.all(np.isfinite(arr)):
        raise DomainError("vector entries must be finite")
    return arr


# ---------------------------------------------------------------------------
# norm specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedP:
    """Weighted p-norm, p in [1, inf]."""

    p: float

    def __post_init__(self):
        if not (self.p == INF or (math.isfinite(self.p) and self.p >= 1.0)):
            raise DomainError(f"norm exponent must lie in [1, inf], got {self.p}")


@dataclass(frozen=True)
class Convexified:
    """p-convexification of a base norm: f -> base(|f|^p)^(1/p), p in (1, inf)."""

    base: "NormSpec"
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise DomainError(
                f"convexification exponent must lie in (1, inf), got {self.p}"
            )


NormSpec = WeightedP | Convexified


def convexify(spec: NormSpec, p: float) -> Convexified:
    """Wrap a norm in a p-convexification layer, p in (1, inf)."""
    if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 1.0):
        raise DomainError(f"convexification exponent must lie in (1, inf), got {p}")
    return Convexified(base=spec, p=float(p))


def effective_exponent(spec: NormSpec) -> float:
    """Collapse convexification layers to a single weighted-p exponent.

    base(|f|^p)^(1/p) with base = weighted q-norm equals the weighted
    (p*q)-norm with the same weights; inf absorbs any finite factor.
    """
    if isinstance(spec, WeightedP):
        return spec.p
    q = effective_exponent(spec.base)
    if q == INF:
        return INF
    return spec.p * q


def weighted_p_norm(w: np.ndarray, a: np.ndarray, p: float):
    """Weighted p-norm of nonnegative moduli ``a``, reduced over the last axis.

    A 1-d ``a`` gives a scalar, a batch of rows gives one norm per row.
    """
    if p == INF:
        return a.max(axis=-1, initial=0.0)
    if p == 1.0:
        return a @ w
    m = a.max(axis=-1, initial=0.0)
    # factor out the max to avoid overflow for large exponents
    safe = np.where(m > 0.0, m, 1.0)
    return m * (w * (a / safe[..., None]) ** p).sum(axis=-1) ** (1.0 / p)


def dual_p_norm(w: np.ndarray, z: np.ndarray, p: float):
    """Norm dual to the weighted p-norm under the plain dot pairing."""
    az = np.abs(z)
    if p == 1.0:
        return (az / w).max(axis=-1, initial=0.0)
    if p == INF:
        return az.sum(axis=-1)
    q = p / (p - 1.0)
    return weighted_p_norm(w ** (-q / p), az, q)


def norm(spec: NormSpec, f: LatticeVector) -> float:
    """Evaluate a norm specification on a vector."""
    p = effective_exponent(spec)
    return float(weighted_p_norm(f.space.weights, np.abs(f.values), p))


def norm_values(spec: NormSpec, space: MeasureSpace, rows: np.ndarray) -> np.ndarray:
    """Row-wise norms of a (m, n) array of vectors on the same space."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != space.n:
        raise DimensionMismatch("row length does not match atom count")
    return weighted_p_norm(space.weights, np.abs(rows), effective_exponent(spec))


# ---------------------------------------------------------------------------
# couples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Couple:
    """A compatible couple of norms over one space.

    c_constant, when set, records the constant with which the couple
    divides K-dominated elements; it must be >= 1.
    """

    space: MeasureSpace
    norm0: NormSpec
    norm1: NormSpec
    c_constant: float | None = field(default=None)

    def __post_init__(self):
        if self.c_constant is not None and not self.c_constant >= 1.0:
            raise DomainError("a couple constant must be >= 1")


def convexify_couple(couple: Couple, p: float) -> Couple:
    """Convexify both norms of a couple with the same exponent."""
    return Couple(
        space=couple.space,
        norm0=convexify(couple.norm0, p),
        norm1=convexify(couple.norm1, p),
    )


def is_l1_linf(couple: Couple) -> bool:
    return (
        effective_exponent(couple.norm0) == 1.0
        and effective_exponent(couple.norm1) == INF
    )


# ---------------------------------------------------------------------------
# lattice operations
# ---------------------------------------------------------------------------


def abs_vector(f: LatticeVector) -> LatticeVector:
    return LatticeVector(f.space, np.abs(f.values))


def power_vector(f: LatticeVector, p: float) -> LatticeVector:
    """|f|^p, entrywise."""
    if not (math.isfinite(p) and p > 0.0):
        raise DomainError("power must be finite and positive")
    return LatticeVector(f.space, np.abs(f.values) ** p)


def sign_multiply(f: LatticeVector, signs) -> LatticeVector:
    """Multiply entrywise by a sign pattern with entries in {-1, +1}."""
    s = np.asarray(signs, dtype=float)
    if s.shape != (f.space.n,):
        raise DimensionMismatch("sign pattern length does not match atom count")
    if not np.all(np.abs(s) == 1.0):
        raise DomainError("sign pattern entries must be -1 or +1")
    return LatticeVector(f.space, f.values * s)


def lub(family) -> LatticeVector:
    """Componentwise least upper bound of a nonempty family of vectors."""
    family = list(family)
    if not family:
        raise DomainError("least upper bound of an empty family")
    space = family[0].space
    rows = []
    for g in family:
        if g.space.n != space.n:
            raise DimensionMismatch("family members live on different spaces")
        rows.append(g.values)
    return LatticeVector(space, np.max(np.stack(rows), axis=0))


def support(f: LatticeVector) -> frozenset[int]:
    """Indices of the atoms where f does not vanish (0-based)."""
    return frozenset(int(i) for i in np.nonzero(f.values)[0])
