"""Majorization transport: from prefix-sum domination to a positive operator.

For nonnegative vectors on a uniform finite space, domination of every
prefix sum of the decreasing rearrangement (weak submajorization) is turned
into an explicit entrywise-nonnegative matrix T with row and column sums at
most one and T f = g.  The route is classical: fill g* up to the total mass
of f* without breaking the prefix bounds, connect f* to the filled vector by
a chain of at most n-1 pinch matrices (each a convex combination of the
identity and a transposition), scale rows back down, and undo the sorting
permutations.  Each input is sorted once and every prefix comparison is a
cumulative sum on the sorted arrays.  The chain is a scalar walk that
updates two rows of its product in place per pinch, O(n^2) in all, and the
sorting permutations are undone by one scatter.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    DimensionMismatch,
    DomainError,
    NumericalFailure,
)
from .lattice import (
    MeasureSpace,
    NormSpec,
    check_audit_budget,
    norm_values,
    signed_log_uniform,
    values_of,
)

MAX_OPERATOR_SIZE = 256

# residual ||S fstar - h|| and ||T f - g|| relative to the target scale
RESIDUAL_TOL = 1e-10

# relative slack of a prefix-sum or rearrangement-integral comparison
SUBMAJORIZATION_TOL = 1e-12


@dataclass(frozen=True)
class RearrangementResult:
    """Moduli sorted nonincreasingly plus the originating index of each slot.

    ``permutation[k]`` is the original atom index supplying the k-th largest
    modulus; ties are broken by original index, so the map is reproducible.
    """

    sorted: np.ndarray
    permutation: np.ndarray


def decreasing_rearrangement(f) -> RearrangementResult:
    vals = np.abs(values_of(f))
    order = np.argsort(-vals, kind="stable")
    out = vals[order]
    out.setflags(write=False)
    order.setflags(write=False)
    return RearrangementResult(sorted=out, permutation=order)


def weak_submajorizes(f, g) -> bool:
    """True iff every prefix sum of g* is at most the matching one of f*.

    Uniform-weight semantics: prefixes count atoms, not weights.  The
    comparison allows relative slack ``SUBMAJORIZATION_TOL`` against the
    running f* prefix to absorb floating point noise.
    """
    fs = decreasing_rearrangement(f).sorted
    gs = decreasing_rearrangement(g).sorted
    if fs.size != gs.size:
        raise DimensionMismatch("vectors must have the same length")
    return sorted_prefix_failure(fs, gs) is None


def sorted_prefix_failure(fs: np.ndarray, gs: np.ndarray):
    """First 1-based prefix length where the sum of gs exceeds that of fs,
    or None; both arrays already sorted nonincreasingly."""
    bad = np.cumsum(gs) > np.cumsum(fs) * (1.0 + SUBMAJORIZATION_TOL) + 1e-300
    if not np.any(bad):
        return None
    return int(np.argmax(bad)) + 1


def rearrangement_integral(weights: np.ndarray, moduli: np.ndarray, ts: np.ndarray):
    """Integral over [0, t] of the weighted decreasing rearrangement of moduli.

    This is K(t) on the weighted (l1, sup) couple, and the splitting that
    truncates the moduli at the rearrangement's level at t attains it.
    Returns the values, the truncation levels and the l1 norms of the
    truncated excess; the sup norm of the other part is the level itself.
    """
    order = np.argsort(-moduli, kind="stable")
    av = moduli[order]
    wv = weights[order]
    cw = np.cumsum(wv)
    cwa = np.cumsum(wv * av)
    k = np.minimum(np.searchsorted(cw, ts, side="left"), av.size - 1)
    prev_w = np.where(k > 0, cw[k - 1], 0.0)
    prev_s = np.where(k > 0, cwa[k - 1], 0.0)
    inside = ts < cw[-1]
    values = np.where(inside, prev_s + (ts - prev_w) * av[k], cwa[-1])
    levels = np.where(inside, av[k], 0.0)
    a0_norms = np.where(inside, prev_s - prev_w * levels, cwa[-1])
    return values, levels, a0_norms


def weighted_weak_submajorizes(space: MeasureSpace, f, g) -> bool:
    """Exact weighted analogue of weak submajorization.

    Compares the running integrals of the weighted decreasing rearrangements
    of |f| and |g| at the breakpoints of g's rearrangement; by piecewise
    linearity and concavity this decides the comparison for every t > 0.
    """
    fv = np.abs(values_of(f, space.n))
    gv = np.abs(values_of(g, space.n))
    order_g = np.argsort(-gv, kind="stable")
    breakpoints = np.cumsum(space.weights[order_g])
    int_f, _, _ = rearrangement_integral(space.weights, fv, breakpoints)
    int_g, _, _ = rearrangement_integral(space.weights, gv, breakpoints)
    return bool(np.all(int_g <= int_f * (1.0 + SUBMAJORIZATION_TOL) + 1e-300))


# ---------------------------------------------------------------------------
# fill and pinch chain
# ---------------------------------------------------------------------------


def _sorted_pair(fstar, other, name: str):
    """fstar and ``other`` as arrays, checked to be of one length,
    nonnegative and nonincreasing."""
    x, y = values_of(fstar), values_of(other)
    if x.size != y.size:
        raise DimensionMismatch(f"fstar and {name} must have the same length")
    for v, label in ((x, "fstar"), (y, name)):
        if np.any(v < 0.0):
            raise DomainError(f"{label} must be nonnegative")
        if v.size > 1 and np.any(np.diff(v) > 1e-12 * max(1.0, float(v[0]))):
            raise DomainError(f"{label} must be nonincreasing")
    return x, y


def fill_to_exact_majorization(fstar, gstar) -> np.ndarray:
    """Raise gstar to a vector h with g* <= h, h majorized by f*, equal sums.

    The raise is a water level: h = max(gstar, c) with c chosen so the total
    matches sum(fstar).  Raising trailing coordinates first keeps h
    nonincreasing, and the prefix bounds survive because fstar is
    nonincreasing: a raised block never averages above the f* tail next to
    it.
    """
    fs, gs = _sorted_pair(fstar, gstar, "gstar")
    bad = sorted_prefix_failure(fs, gs)
    if bad is not None:
        raise DomainError(f"gstar is not weakly submajorized by fstar (prefix {bad})")
    return _water_fill(fs, gs)


def _water_fill(fs: np.ndarray, gs: np.ndarray) -> np.ndarray:
    total_f = float(np.sum(fs))
    total_g = float(np.sum(gs))
    deficit = total_f - total_g
    if deficit <= 1e-15 * max(total_f, 1.0):
        return gs.copy()
    n = fs.size
    asc = gs[::-1].copy()  # ascending
    pa = np.cumsum(asc)
    # sum after raising everything at or below asc[k-1] to level asc[k-1]
    ks = np.arange(1, n + 1, dtype=float)
    raised = ks * asc + (total_g - pa)
    idx = int(np.searchsorted(raised, total_f, side="left"))
    if idx >= n:
        c = total_f / n  # level above every entry
    else:
        # raised[0] equals the untouched total, so idx >= 1 whenever there is
        # a deficit; the level lands in (asc[idx-1], asc[idx]] where exactly
        # idx entries sit at or below it
        c = (total_f - (total_g - pa[idx - 1])) / idx
    return np.maximum(gs, c)


@dataclass(frozen=True)
class PinchFactor:
    """Convex combination of identity and the (j, k) transposition."""

    j: int
    k: int
    lam: float

    def matrix(self, n: int) -> np.ndarray:
        """The dense n x n factor; the chain itself never forms it."""
        m = np.eye(n)
        m[self.j, self.j] = self.lam
        m[self.k, self.k] = self.lam
        m[self.j, self.k] = 1.0 - self.lam
        m[self.k, self.j] = 1.0 - self.lam
        return m


@dataclass(frozen=True)
class TransformChain:
    matrix: np.ndarray
    factors: tuple[PinchFactor, ...]


def t_transform_chain(fstar, h) -> TransformChain:
    """Doubly stochastic S with S fstar = h, as a product of <= n-1 pinches.

    Requires both inputs nonincreasing and h majorized by fstar with equal
    sums.  Each pinch moves mass between the outermost pair of indices where
    the running vector still exceeds / falls short of the target and zeroes
    at least one mismatch, so the chain terminates within n-1 factors.  The
    walk runs on Python floats: a pinch on (j, k) changes the mismatch only
    at j and k, so only those two are re-filed in the sorted lists of
    indices above and below target, and only rows j and k of the product
    are replaced, in place, by their two convex combinations.
    """
    s, steps = _majorized_chain(*_sorted_pair(fstar, h, "h"))
    s.setflags(write=False)
    return TransformChain(
        matrix=s, factors=tuple(PinchFactor(j=j, k=k, lam=lam) for j, k, lam in steps)
    )


def _majorized_chain(x: np.ndarray, y: np.ndarray):
    """``_pinch_chain(x, y)`` once y, nonincreasing like x, is checked to be
    majorized by x: equal total mass and every prefix sum at most x's."""
    sum_gap = abs(float(np.sum(x) - np.sum(y)))
    if sum_gap > 1e-10 * max(np.sum(np.abs(x)), 1.0):
        raise DomainError("h must have the same total mass as fstar")
    if sorted_prefix_failure(x, y) is not None:
        raise DomainError("h must be majorized by fstar")
    return _pinch_chain(x, y)


def _pinch_chain(x: np.ndarray, y: np.ndarray):
    """The pinch walk from x to y and its certified product S.

    Returns S and the factors as (j, k, lam) triples; raises
    ``NumericalFailure`` when ||S x - y|| exceeds ``RESIDUAL_TOL`` of the
    target scale.
    """
    n = x.size
    xs = x.tolist()
    ys = y.tolist()
    tol = 1e-13 * max(xs[0] if n else 0.0, 1e-300)
    over = [i for i in range(n) if xs[i] - ys[i] > tol]
    under = [i for i in range(n) if xs[i] - ys[i] < -tol]
    s = np.eye(n)
    steps = []
    for _ in range(max(n - 1, 0)):
        if not over:
            break
        j = over[-1]  # largest index still above target
        at = bisect.bisect_right(under, j)
        if at == len(under):
            break
        k = under[at]  # first shortfall beyond j
        xj, xk = xs[j], xs[k]
        delta = min(xj - ys[j], ys[k] - xk)
        lam = 1.0 - delta / (xj - xk)
        mu = 1.0 - lam
        xs[j] = lam * xj + mu * xk
        xs[k] = lam * xk + mu * xj
        sj, sk = s[j], s[k]
        new_j = lam * sj
        new_j += mu * sk
        sk *= lam
        sk += mu * sj
        sj[...] = new_j
        steps.append((j, k, lam))
        # only j and k changed: take both out, put back any still mismatched
        over.pop()
        del under[at]
        for i in (j, k):
            gap = xs[i] - ys[i]
            if gap > tol:
                bisect.insort(over, i)
            elif gap < -tol:
                bisect.insort(under, i)

    residual = float(np.max(np.abs(s @ x - y))) if n else 0.0
    limit = RESIDUAL_TOL * (1.0 + float(np.max(y, initial=0.0)))
    if residual > limit:
        raise NumericalFailure(
            f"pinch chain residual {residual:.3e} above tolerance {limit:.3e} "
            f"(n = {n}, {len(steps)} factors)",
            best_value=residual,
            gap=residual - limit,
        )
    return s, steps


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixOperator:
    space: MeasureSpace
    entries: np.ndarray
    positive: bool = False

    def __post_init__(self):
        # a copy, so that later edits of the caller's array never reach the operator
        self._seal(np.array(self.entries, dtype=float))

    @classmethod
    def _adopt(cls, space: MeasureSpace, entries: np.ndarray, positive: bool = False):
        """The operator on a float array its caller has just built and hands
        over: the same checks, without the copy."""
        op = cls.__new__(cls)
        object.__setattr__(op, "space", space)
        object.__setattr__(op, "positive", positive)
        op._seal(entries)
        return op

    def _seal(self, m: np.ndarray) -> None:
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch("operator entries must form a square matrix")
        if m.shape[0] != self.space.n:
            raise DimensionMismatch("operator size does not match atom count")
        if self.positive and np.any(m < 0.0):
            raise DomainError("positive operator with a negative entry")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def apply(self, h) -> np.ndarray:
        return self.entries @ values_of(h)


def operator_norm_1(op: MatrixOperator) -> float:
    """Operator norm on l1 with uniform weights: max absolute column sum."""
    return float(np.max(np.sum(np.abs(op.entries), axis=0)))


def operator_norm_inf(op: MatrixOperator) -> float:
    """Operator norm on l-infinity: max absolute row sum."""
    return float(np.max(np.sum(np.abs(op.entries), axis=1)))


def sample_operator_norm(
    op: MatrixOperator, spec: NormSpec, trials: int = 200, seed: int = 0
) -> float:
    """Sampled lower bound for the operator norm under a lattice norm."""
    check_audit_budget(trials, seed)
    rng = np.random.Generator(np.random.SFC64(int(seed)))
    hs = signed_log_uniform(rng, (trials, op.space.n))
    num = norm_values(spec, op.space, hs @ op.entries.T)
    den = norm_values(spec, op.space, hs)
    return float(np.max(num / den))


def construct_positive_operator(space: MeasureSpace, f, g) -> MatrixOperator:
    """Positive matrix T with T f = g, row and column sums at most one.

    Needs uniform weights, nonnegative inputs, f nonzero and g weakly
    submajorized by f.  T factors through the sorted representatives:
    unsort_g . diag(g*/h) . pinch_chain . sort_f, where h is the exact
    majorization fill of g* under f*.
    """
    n = space.n
    fv = values_of(f, n)
    gv = values_of(g, n)
    if n > MAX_OPERATOR_SIZE:
        raise CapacityError(f"operator construction capped at n = {MAX_OPERATOR_SIZE}")
    if not space.is_uniform():
        raise DomainError("operator construction requires uniform weights")
    if np.any(fv < 0.0) or np.any(gv < 0.0):
        raise DomainError("operator construction requires nonnegative vectors")
    if not np.any(fv > 0.0):
        raise DomainError("f must not be the zero vector")
    # one stable sort per input; every prefix rule then runs on these arrays
    # (abs only turns -0.0 into 0.0, so no -0.0 reaches T)
    fv, gv = np.abs(fv), np.abs(gv)
    sort_f = np.argsort(-fv, kind="stable")
    sort_g = np.argsort(-gv, kind="stable")
    fs, gs = fv[sort_f], gv[sort_g]
    bad = sorted_prefix_failure(fs, gs)
    if bad is not None:
        raise DomainError(f"g is not weakly submajorized by f (prefix {bad})")

    h = _water_fill(fs, gs)
    s, _ = _majorized_chain(fs, h)
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.where(h > 0.0, gs / np.where(h > 0.0, h, 1.0), 0.0)
    s *= d[:, None]
    t = np.empty((n, n))
    t[np.ix_(sort_g, sort_f)] = s
    return MatrixOperator._adopt(space, t, positive=True)
