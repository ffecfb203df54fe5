"""K- and D-functionals on finite couples, exact and numerical.

K(t, f) is the infimum of ||a0||_0 + t ||a1||_1 over all splittings
f = a0 + a1; D(t, f) restricts the infimum to splittings with disjoint
supports.  On a finite space both are finite, nondecreasing and concave in
t, and D never exceeds 2 K.

Three computational routes live here:

* a closed form for the (l1, linf) couple via the weighted decreasing
  rearrangement (the profile is piecewise linear in t; the integral itself
  is :func:`caldera.majorize.rearrangement_integral`),
* certified solves over sign-compatible dominated splittings: a Newton
  solve for the optimal truncation level when one exponent is infinite, and
  for the multiplier of the Pareto curve of the two norms when both are
  finite, each certified by a dual pairing,
* D as the best of the 2(n+1) disjoint splits that put the bottom k or the
  top n - k moduli in slot 0, exact on every couple.

Profiles take one vector or an (m, n) stack.  The truncation-level solve is
one batched Newton loop over every (vector, t) problem still open, the
multiplier solve one loop over the t-grid of each row.

The inequality checks at the bottom compare these routes against each other
and against the constants that control p-convexification.  The K-ordering
rule is defined once, in ``k_order_breaks``, on one profile of the stack
[f, g]; ``k_order_dominates`` and the lift's precondition both apply it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, InternalConsistencyError, NumericalFailure
from .lattice import (
    INF,
    Couple,
    LatticeVector,
    MeasureSpace,
    convexify_couple,
    dual_p_norm,
    effective_exponent,
    is_l1_linf,
    values_of,
    vector,
    weighted_p_norm,
)
from .majorize import rearrangement_integral, weighted_weak_submajorizes

# relative accuracy contract of the numerical K solver
SOLVER_REL_GAP = 1e-6

# certified relative gap at which the truncation-level and multiplier solves
# stop, and their iteration cap
TRUNCATION_REL_GAP = 1e-15
TRUNCATION_MAX_ITER = 200

# decomposition, profile and sandwich comparisons
DECOMPOSITION_TOL = 1e-12
PROFILE_TOL = 1e-9
SANDWICH_TOL = 1e-9
ORDER_GRID_SLACK = 1e-9


@functools.lru_cache(maxsize=32)
def default_t_grid(lo: float = 1e-3, hi: float = 1e3, count: int = 61) -> np.ndarray:
    """Geometric t-grid, built once per (lo, hi, count) and shared read-only."""
    if not (0.0 < lo < hi < INF) or count < 2:
        raise DomainError("need finite 0 < lo < hi and at least two grid points")
    grid = np.geomspace(lo, hi, count)
    grid.flags.writeable = False
    return grid


def parse_t_grid(spec: str) -> tuple:
    """(lo, hi, count) from a ``geometric:lo,hi,count`` grid spec."""
    kind, _, body = spec.partition(":")
    try:
        lo, hi, count = body.split(",")
        if kind == "geometric":
            return float(lo), float(hi), int(count)
    except ValueError:
        pass
    raise DomainError(f"t grid must look like geometric:lo,hi,count, got {spec!r}")


def _positive_t(t) -> float:
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t > 0.0):
        raise DomainError(f"t must be a positive real, got {t}")
    return float(t)


def _as_grid(t_grid) -> np.ndarray:
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise DomainError("t grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(ts)):
        raise DomainError("t grid entries must be finite")
    if np.any(ts <= 0.0) or np.any(np.diff(ts) <= 0.0):
        raise DomainError("t grid must be strictly increasing and positive")
    return ts


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """A splitting f = a0 + a1, with a0 measured in norm0 and a1 in norm1."""

    a0: LatticeVector
    a1: LatticeVector

    def reconstruction(self) -> np.ndarray:
        return self.a0.values + self.a1.values

    def is_disjoint(self) -> bool:
        return bool(np.all(self.a0.values * self.a1.values == 0.0))


def check_decomposition(f, dec: Decomposition) -> bool:
    fv = values_of(f)
    err = np.max(np.abs(dec.reconstruction() - fv), initial=0.0)
    scale = max(float(np.max(np.abs(fv), initial=0.0)), 1e-300)
    return err <= DECOMPOSITION_TOL * scale + 1e-300


def _split_from_modulus(space: MeasureSpace, fv: np.ndarray, u: np.ndarray) -> Decomposition:
    # u = |a0| on the sign pattern of f; a1 picks up the exact remainder
    a0 = np.sign(fv) * u
    a1 = fv - a0
    return Decomposition(a0=vector(space, a0), a1=vector(space, a1))


# ---------------------------------------------------------------------------
# exact route on (l1, linf)
# ---------------------------------------------------------------------------


def k_exact_l1_linf(space: MeasureSpace, f, t: float):
    """K(t, f) on the weighted (l1, linf) couple, with an optimal splitting.

    Equals the integral over [0, t] of the weighted decreasing
    rearrangement of |f|; the optimal splitting truncates |f| at the level
    the rearrangement takes at position t.
    """
    ts = np.array([_positive_t(t)])
    fv = values_of(f, space.n)
    values, levels, _ = rearrangement_integral(space.weights, np.abs(fv), ts)
    u = np.maximum(np.abs(fv) - float(levels[0]), 0.0)
    return float(values[0]), _split_from_modulus(space, fv, u)


# ---------------------------------------------------------------------------
# numerical route
# ---------------------------------------------------------------------------


def _k_truncation(w: np.ndarray, a: np.ndarray, p0: float, ts: np.ndarray):
    """K over a grid on a couple whose second norm is sup, for moduli ``a``.

    K(t) is the minimum over sup levels c in [0, max a] of the convex
    phi(c) = ||(a - c)_+||_{p0} + t c, whose slope is t - s(c) with s(c) the
    nonincreasing l1 mass of the norm's gradient.  So c = 0 when s(0) <= t,
    c = max a when t <= s(max a-) = (weight of the top atoms)^(1/p0), and
    otherwise s(c) = t, solved by Newton steps that bisect when they leave a
    bracket s(lo) > t >= s(hi).  The certificate is the dual pairing: a z >= 0
    with dual norm <= 1 and sum z <= t gives K >= <z, a>, and the gradient
    at c pairs with a to N(c) + c s(c).  Scaled end gradients settle the end
    cases; the mix of the bracket-end gradients with mass t, the rest.

    ``a`` is one vector of moduli or an (m, n) stack, reduced over the last
    axis.  Every (vector, t) problem is a column of one state array; each
    pass steps the open columns together and drops a column once its gap
    closes or its bracket is one ulp wide.

    Returns values, levels c, split norms N(c) and certified gaps, each of
    shape ``a.shape[:-1] + ts.shape``.
    """
    stack = a.reshape(-1, a.shape[-1])
    size = ts.size
    top = stack.max(axis=-1, initial=0.0)

    def at(rows: np.ndarray, top: np.ndarray, x: np.ndarray):
        # N, s and s' at levels x < top, each excess scaled by the largest;
        # an overflowing e^(p0-2) or p0 in {1, inf} leaves s' non-finite or
        # zero, which only turns the next step into a bisection, and a zero
        # vector leaves s = 0/0
        m = top - x
        e = np.maximum(rows - x[:, None], 0.0) / m[:, None]
        pos = e > 0.0
        r = np.power(e, p0 - 1.0, out=np.zeros_like(e), where=pos)
        s1, sp = r @ w, (r * e) @ w
        q = sp ** (1.0 / p0)
        with np.errstate(over="ignore", invalid="ignore"):
            s2 = np.divide(r, e, out=np.zeros_like(e), where=pos) @ w
            ds = (1.0 - p0) * (s2 - s1 * s1 / sp) * q / sp / m
            return m * q, s1 * q / sp, ds

    # a zero vector, taken at top 1, gets n0 = 0 and s0 = 1, which closes
    # its gap at 0
    live = top > 0.0
    n0, s0, ds0 = at(stack, np.where(live, top, 1.0), np.zeros(top.size))
    s_top = [float(w[v == c].sum()) ** (1.0 / p0) for v, c in zip(stack, top)]
    # column k solves vector k // size at t = ts[k % size]
    moduli = np.repeat(stack, size, axis=0)
    t = np.concatenate([ts] * top.size)
    s0 = np.where(live, s0, 1.0)
    top, n0, s0, ds0, s_top = np.repeat([top, n0, s0, ds0, s_top], size, axis=1)
    at_zero = n0 <= t * top
    zero = np.zeros_like(t)
    # rows: t, top, level x, s(x), s'(x), bracket end lo with s > t and end
    # hi with s <= t (each as c, s and N + c s), best value, its level, its
    # N, certified lower bound and the column index
    state = np.array(
        [
            t, top, zero, s0, ds0, zero, s0, n0, top, s_top, top * s_top,
            np.where(at_zero, n0, t * top),
            np.where(at_zero, 0.0, top),
            np.where(at_zero, n0, 0.0),
            np.maximum(np.minimum(1.0, t / s0) * n0, np.minimum(s_top, t) * top),
            np.arange(t.size),
        ]
    )
    closed = []
    for _ in range(TRUNCATION_MAX_ITER):
        t, top, x, s_x, ds_x, lo, s_lo, l_lo, hi, s_hi, l_hi, best, _, _, lower, _ = state
        with np.errstate(over="ignore"):
            x = x - (s_x - t) / np.where(ds_x < 0.0, ds_x, np.nan)
        state[2] = x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
        # a column stays open until its gap closes or its bracket is one ulp
        keep = (best - lower > TRUNCATION_REL_GAP * best) & (lo < x) & (x < hi)
        if not keep.all():
            closed.append(state[:, ~keep])
            state, moduli = state[:, keep], moduli[keep]
            if state.size == 0:
                break
            t, top, x, s_x, ds_x, lo, s_lo, l_lo, hi, s_hi, l_hi, best, _, _, lower, _ = state
        n_x, s_x, ds_x = at(moduli, top, x)
        phi = n_x + t * x
        np.copyto(state[11:14], (phi, x, n_x), where=phi < best)
        # x replaces the bracket end on its side of s = t
        side = s_x <= t
        ends = np.array([x, s_x, n_x + x * s_x])
        np.copyto(state[8:11], ends, where=side)
        np.copyto(state[5:8], ends, where=~side)
        state[3:5] = s_x, ds_x
        mix = (t - s_hi) / (s_lo - s_hi)
        np.maximum(lower, mix * l_lo + (1.0 - mix) * l_hi, out=lower)
    done = np.concatenate(closed + [state], axis=1)
    result = np.empty((4, done.shape[1]))
    result[:, done[15].astype(np.intp)] = done[11:15]
    best, levels, a0n, lower = result
    gaps = np.maximum(best - lower, 0.0)
    bad = np.flatnonzero(gaps > SOLVER_REL_GAP * best)
    if bad.size:
        j = int(bad[0])
        row = f" of row {j // size}" if a.ndim == 2 else ""
        raise NumericalFailure(
            f"K solve{row} at t = {ts[j % size]:.6g} stopped at {best[j]:.6g} "
            f"with gap {gaps[j]:.3e}",
            best_value=float(best[j]),
            gap=float(gaps[j]),
        )
    shape = a.shape[:-1] + ts.shape
    return best.reshape(shape), levels.reshape(shape), a0n.reshape(shape), gaps.reshape(shape)


def _logit_roots(z: np.ndarray, a: float, b: float) -> np.ndarray:
    """Roots y of a y + (b - a) log(1 + e^y) = z, elementwise, for a, b >= 0.

    The left side increases, convex for b > a and concave otherwise, so Newton
    from z / b when z > 0, else from z / a, is monotone.  With a or b zero it
    is bounded on one side, and roots past the bound are -inf or inf.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.where(z > 0.0, z / b, z / a)
    y[(z <= 0.0) & (a == 0.0)] = -INF
    y[(z >= 0.0) & (b == 0.0)] = INF
    free = np.isfinite(y)
    for _ in range(TRUNCATION_MAX_ITER):
        yf = y[free]
        low, high = np.minimum(yf, 0.0), np.maximum(yf, 0.0)
        s = np.log1p(np.exp(low - high))  # log(1 + e^-|y|): the terms never cancel
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (a * low + b * high + (b - a) * s - z[free]) / (
                np.exp(-s) * (a * np.exp(-high) + b * np.exp(low))
            )
        y[free] = yf - step
        moving = np.abs(step) > 4.0 * np.spacing(1.0 + np.abs(yf))
        if not moving.any():
            break
        free[free] = moving
    return y


def _k_finite(w: np.ndarray, v: np.ndarray, p0: float, p1: float, ts: np.ndarray):
    """K over a grid on a couple with two finite exponents, for moduli ``v``.

    Optimal splits u lie on the Pareto curve of (N0(u), N1(v - u)), whose
    parameter is the multiplier L: each atom solves (p0 - 1) log u_i
    - (p1 - 1) log(v_i - u_i) = L, and u is optimal at log t = T(L) =
    L + (p1 - 1) log N1 - (p0 - 1) log N0, nondecreasing in L.  Each t is a
    root of T, by Newton steps that bisect when they leave the bracket.  Norms
    come from log u and log(v - u), finite where v - u underflows.  Each
    side's gradient, scaled onto the dual box, certifies a lower bound; any u
    in [0, v] is feasible, so an inexact root only widens the gap.  Seeds at
    u = 0 and u = v settle the end cases and p0 = p1.  A t leaves the batch
    once its gap closes or its bracket is one ulp wide.

    Returns values, split norms, gaps and the moduli of slot 0, one row per t.
    """
    n0v, n1v = weighted_p_norm(w, v, p0), weighted_p_norm(w, v, p1)
    at_v = n0v <= ts * n1v
    best = np.where(at_v, n0v, ts * n1v)
    a0n, a1n = np.where(at_v, n0v, 0.0), np.where(at_v, 0.0, n1v)
    u = np.where(at_v[:, None], v, 0.0)
    if p0 == p1 or not v.any():
        return best, a0n, a1n, np.zeros_like(ts), u
    keep = v > 0.0
    w, v = w[keep], v[keep]
    lw, lv = np.log(w), np.log(v)

    def side(la: np.ndarray, p: float):
        # N, grad N, (p - 1) log N and (p - 1) w e^(p la) / N^p at moduli e^la
        if p == 1.0:
            return np.exp(la) @ w, np.broadcast_to(w, la.shape), 0.0, 0.0
        x = lw + p * la
        top = x.max(axis=-1, keepdims=True)
        lp = top[:, 0] + np.log(np.exp(x - top).sum(axis=-1))
        grad = np.exp(lw + (p - 1.0) * (la - lp[:, None] / p))
        share = (p - 1.0) * np.exp(x - lp[:, None])
        return np.exp(lp / p), grad, (1.0 - 1.0 / p) * lp, share

    def bound(z: np.ndarray, t: np.ndarray):
        d0, d1 = dual_p_norm(w, z, p0), dual_p_norm(w, z, p1)
        return (z @ v) / np.maximum(np.maximum(d0, d1 / t), 1.0)

    g0, g1 = side(lv[None], p0)[1], side(lv[None], p1)[1]
    lower = np.maximum(bound(g0, ts), bound(ts[:, None] * g1, ts))
    y_best = np.where(at_v[:, None], INF, -INF) * np.ones(v.size)
    c = (p0 - p1) * lv
    # past the margin every |y| exceeds 40, so T is at its end value there
    margin = 40.0 * (max(p0, p1) - 1.0) + abs(p1 - p0) + 1.0
    lo, hi = np.full(ts.size, c.min() - margin), np.full(ts.size, c.max() + margin)
    x, logt, live = 0.5 * (lo + hi), np.log(ts), np.ones(ts.size, dtype=bool)
    for _ in range(TRUNCATION_MAX_ITER):
        live &= (best - lower > TRUNCATION_REL_GAP * best) & (lo < x) & (x < hi)
        k = np.flatnonzero(live)
        if k.size == 0:
            break
        t, xk = ts[k], x[k]
        y = _logit_roots(xk[:, None] - c, p0 - 1.0, p1 - 1.0)
        neg, pos = np.logaddexp(0.0, -y), np.logaddexp(0.0, y)
        n0, z0, lift0, h0 = side(lv - neg, p0)
        n1, z1, lift1, h1 = side(lv - pos, p1)
        phi = n0 + t * n1
        better = phi < best[k]
        j = k[better]
        best[j], a0n[j], a1n[j] = phi[better], n0[better], n1[better]
        y_best[j] = y[better]
        lower[k] = np.fmax(lower[k], np.fmax(bound(z0, t), bound(t[:, None] * z1, t)))
        tx = xk + lift1 - lift0 - logt[k]
        lo[k[tx <= 0.0]], hi[k[tx > 0.0]] = xk[tx <= 0.0], xk[tx > 0.0]
        # T' = 1 - sum of the shares times u'/u = e^-pos / g' and u'/s = e^-neg / g'
        up, down = np.exp(-pos), np.exp(-neg)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            pull = (h0 * up + h1 * down) / ((p0 - 1.0) * up + (p1 - 1.0) * down)
            step = xk - tx / (1.0 - np.nansum(pull, axis=-1))  # pinned atoms: 0/0
        x[k] = np.where((lo[k] < step) & (step < hi[k]), step, 0.5 * (lo[k] + hi[k]))
    gaps = np.maximum(best - lower, 0.0)
    bad = np.flatnonzero(~(gaps <= SOLVER_REL_GAP * best))
    if bad.size:
        j = int(bad[0])
        raise NumericalFailure(
            f"K solve at t = {ts[j]:.6g} stopped at {best[j]:.6g} "
            f"with gap {gaps[j]:.3e}",
            best_value=float(best[j]),
            gap=float(gaps[j]),
        )
    u[:, keep] = v * np.exp(-np.logaddexp(0.0, -y_best))
    return best, a0n, a1n, gaps, u


def _by_rows(route, fv: np.ndarray):
    """``route(row)`` for each row of a stack, every output stacked by row."""
    return tuple(np.stack(out) for out in zip(*map(route, fv)))


def _exponents(couple: Couple):
    return effective_exponent(couple.norm0), effective_exponent(couple.norm1)


def _k_numeric_full(couple: Couple, f, t: float):
    t = _positive_t(t)
    space = couple.space
    fv = values_of(f, space.n)
    w = space.weights
    p0, p1 = _exponents(couple)
    a, ts = np.abs(fv), np.array([t])
    if p1 == INF:
        vals, levels, _, gaps = _k_truncation(w, a, p0, ts)
        u = np.maximum(a - float(levels[0]), 0.0)
    elif p0 == INF:
        swapped = Couple(space=space, norm0=couple.norm1, norm1=couple.norm0)
        val, dec, gap = _k_numeric_full(swapped, fv, 1.0 / t)
        return t * val, Decomposition(a0=dec.a1, a1=dec.a0), t * gap
    else:
        vals, _, _, gaps, (u,) = _k_finite(w, a, p0, p1, ts)
    return float(vals[0]), _split_from_modulus(space, fv, u), float(gaps[0])


def k_numeric(couple: Couple, f, t: float):
    """Numerical K(t, f) with an explicit near-optimal splitting.

    The value is within the solver's relative-gap contract of the infimum,
    with a splitting that attains it: the truncation-level solve on a couple
    with a sup side, (l1, sup) included, the multiplier solve otherwise.
    """
    value, dec, _ = _k_numeric_full(couple, f, t)
    return value, dec


# ---------------------------------------------------------------------------
# disjoint route
# ---------------------------------------------------------------------------


def _threshold_norms(w: np.ndarray, s: np.ndarray, p: float):
    """Norms of s[:k] and of s[k:], k = 0..n, for ascending moduli s."""
    if p == INF:
        low = np.concatenate([[0.0], s])
        high = np.concatenate([np.full(s.size, s[-1]), [0.0]])
        return low, high
    # unscaled power sums: factoring out the max underflows small prefixes
    x = w * s ** p
    low = np.concatenate([[0.0], np.cumsum(x)])
    high = np.concatenate([np.cumsum(x[::-1])[::-1], [0.0]])
    if p == 1.0:
        return low, high
    return low ** (1.0 / p), high ** (1.0 / p)


def _d_values(couple: Couple, fv: np.ndarray, ts: np.ndarray):
    """D over a grid as the best of the 2(n+1) threshold splits.

    Both norms are weighted p-norms.  With a sup side, lattice monotonicity
    sends every atom at or below the sup level to that side.  With both
    exponents finite the objective is concave in a relaxed split
    lambda in [0, 1]^n and depends on it through two linear forms, so it is
    minimal at a vertex of their 2-d image, which puts the atoms with
    c1 |f_i|^(p0 - p1) > c2 on one side.  Either way slot 0 holds the bottom
    k or the top n - k moduli for some k.  Returns values, split norms and,
    per t, the mask of atoms in slot 0; an (m, n) stack takes one row at a
    time.
    """
    if fv.ndim == 2:
        return _by_rows(lambda row: _d_values(couple, row, ts), fv)
    p0, p1 = _exponents(couple)
    a = np.abs(fv)
    order = np.argsort(a, kind="stable")
    w, s = couple.space.weights[order], a[order]
    low0, high0 = _threshold_norms(w, s, p0)
    low1, high1 = _threshold_norms(w, s, p1)
    # candidate k <= n: slot 0 takes the bottom k; k > n: the top 2n + 1 - k
    a0_cand = np.concatenate([low0, high0])
    a1_cand = np.concatenate([high1, low1])
    best = np.argmin(a0_cand[None, :] + ts[:, None] * a1_cand[None, :], axis=1)
    a0n, a1n = a0_cand[best], a1_cand[best]
    rank = np.empty_like(order)
    rank[order] = np.arange(a.size)
    cut = (best % (a.size + 1))[:, None]
    keep = np.where((best <= a.size)[:, None], rank < cut, rank >= cut)
    return a0n + ts * a1n, a0n, a1n, keep


def d_exact(couple: Couple, f, t: float):
    """Exact D(t, f) with an optimal disjoint splitting."""
    t = _positive_t(t)
    fv = values_of(f, couple.space.n)
    values, _, _, keep = _d_values(couple, fv, np.array([t]))
    a0 = np.where(keep[0], fv, 0.0)
    a1 = np.where(keep[0], 0.0, fv)
    dec = Decomposition(a0=vector(couple.space, a0), a1=vector(couple.space, a1))
    return float(values[0]), dec


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KProfile:
    kind: str
    t_grid: np.ndarray
    values: np.ndarray
    a0_norms: np.ndarray
    a1_norms: np.ndarray
    gaps: np.ndarray = field(repr=False)


def _validate_profile(prof: KProfile):
    ts, vs = prof.t_grid, prof.values
    scale = np.maximum(np.max(vs, axis=-1, keepdims=True, initial=0.0), 1e-300)
    slack = PROFILE_TOL * scale + 1e-15
    if np.any(np.diff(vs) < -slack):
        raise InternalConsistencyError(f"{prof.kind} profile is not nondecreasing")
    if prof.kind == "K":
        ratio = vs / ts
        if np.any(np.diff(ratio) > PROFILE_TOL * np.abs(ratio[..., :-1]) + 1e-15):
            raise InternalConsistencyError("K(t)/t fails to be nonincreasing")
        if ts.size >= 3:
            t1, t2, t3 = ts[:-2], ts[1:-1], ts[2:]
            v1, v2, v3 = vs[..., :-2], vs[..., 1:-1], vs[..., 2:]
            chord = ((t3 - t2) * v1 + (t2 - t1) * v3) / (t3 - t1)
            if np.any(v2 < chord - slack):
                raise InternalConsistencyError("K profile fails concavity")


def _k_values(couple: Couple, fv: np.ndarray, ts: np.ndarray):
    """K over a grid, picking the fastest applicable route.

    (l1, sup) takes the closed form, a sup side otherwise the truncation-level
    solve, and finite pairs the multiplier solve.  ``fv`` is one vector or an
    (m, n) stack: the truncation solve takes the whole stack, the other
    routes one row at a time, each over the whole grid.  Returns values,
    split norms and certified gaps (zero for the closed form).
    """
    space = couple.space
    p0, p1 = _exponents(couple)
    w = space.weights
    if p1 == INF and p0 != 1.0:
        vals, levels, a0n, gaps = _k_truncation(w, np.abs(fv), p0, ts)
        return vals, a0n, levels, gaps
    if p0 == INF:
        swapped = Couple(space=space, norm0=couple.norm1, norm1=couple.norm0)
        vals, a0n, a1n, gaps = _k_values(swapped, fv, (1.0 / ts)[::-1])
        return (
            ts * vals[..., ::-1],
            a1n[..., ::-1].copy(),
            a0n[..., ::-1],
            ts * gaps[..., ::-1],
        )
    if fv.ndim == 2:
        return _by_rows(lambda row: _k_values(couple, row, ts), fv)
    if p1 == INF:
        vals, levels, a0n = rearrangement_integral(w, np.abs(fv), ts)
        return vals, a0n, levels, np.zeros_like(ts)
    return _k_finite(w, np.abs(fv), p0, p1, ts)[:4]


def _vectors_of(f, n: int) -> np.ndarray:
    """One coerced vector, or an (m, n) stack coerced row by row."""
    if np.ndim(f) != 2:
        return values_of(f, n)
    if len(f) == 0:
        raise DomainError("a stack of vectors needs at least one row")
    return np.stack([values_of(row, n) for row in f])


def profile(kind: str, couple: Couple, f, t_grid, validate: bool = True) -> KProfile:
    """Evaluate K or D over a grid and check the shape invariants.

    ``f`` is one vector, giving arrays over the grid, or an (m, n) stack,
    giving (m, T) arrays whose row i belongs to f[i]; every row is validated.
    """
    if kind not in ("K", "D"):
        raise DomainError(f"profile kind must be 'K' or 'D', got {kind!r}")
    ts = _as_grid(t_grid)
    fv = _vectors_of(f, couple.space.n)
    if kind == "K":
        vals, a0n, a1n, gaps = _k_values(couple, fv, ts)
    else:
        vals, a0n, a1n, _ = _d_values(couple, fv, ts)
        gaps = np.zeros_like(vals)
    prof = KProfile(
        kind=kind, t_grid=ts, values=vals, a0_norms=a0n, a1_norms=a1n, gaps=gaps
    )
    if validate:
        _validate_profile(prof)
    return prof


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SandwichReport:
    """Outcome of the K <= D <= 2K comparison over a grid."""

    ok: bool
    t_grid: np.ndarray
    k_values: np.ndarray
    d_values: np.ndarray
    max_ratio: float
    violations: tuple


def check_k_d_sandwich(couple: Couple, f, t_grid=None):
    ts = default_t_grid() if t_grid is None else _as_grid(t_grid)
    kprof = profile("K", couple, f, ts, validate=False)
    dprof = profile("D", couple, f, ts, validate=False)
    kv, dv = kprof.values, dprof.values
    slack = SANDWICH_TOL * np.maximum(kv, 1e-300) + kprof.gaps
    violations = []
    for i, t in enumerate(ts):
        if dv[i] < kv[i] - slack[i]:
            violations.append((float(t), "D below K", float(kv[i] - dv[i])))
        if dv[i] > 2.0 * kv[i] + 2.0 * slack[i]:
            violations.append((float(t), "D above 2K", float(dv[i] - 2.0 * kv[i])))
    ratios = np.where(kv > 0.0, dv / np.where(kv > 0, kv, 1.0), 1.0)
    return SandwichReport(
        ok=not violations,
        t_grid=ts,
        k_values=kv,
        d_values=dv,
        max_ratio=float(np.max(ratios, initial=1.0)),
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class PowerSandwichReport:
    """Two-sided comparison of a functional against its convexified twin.

    lower[i] <= middle[i] <= bound * lower[i] is the claim; entries of
    ``violations`` broke it beyond all tolerances, entries of
    ``solver_flags`` broke it by less than the certified solver gap and are
    therefore inconclusive rather than counterexamples.
    """

    ok: bool
    kind: str
    p: float
    bound: float
    t_grid: np.ndarray
    lower: np.ndarray
    middle: np.ndarray
    max_ratio: float
    violations: tuple
    solver_flags: tuple
    corollary_ok: bool = True


def _power_sandwich(kind, couple, f, p, t_grid):
    ts = default_t_grid() if t_grid is None else _as_grid(t_grid)
    if not (math.isfinite(p) and p > 1.0):
        raise DomainError("convexification exponent must lie in (1, inf)")
    fv = values_of(f, couple.space.n)
    powered = np.abs(fv) ** p
    conv = convexify_couple(couple, p)
    ts_root = ts ** (1.0 / p)
    if kind == "D":
        base_vals = _d_values(couple, powered, ts)[0]
        conv_vals = _d_values(conv, fv, ts_root)[0]
        base_gap = np.zeros_like(ts)
        conv_gap = np.zeros_like(ts)
    else:
        base_vals, _, _, base_gap = _k_values(couple, powered, ts)
        conv_vals, _, _, conv_gap = _k_values(conv, fv, ts_root)
    lower = base_vals ** (1.0 / p)
    middle = conv_vals
    bound = 2.0 ** (1.0 - 1.0 / p)

    scale = np.maximum(lower, 1e-300)
    hard = SANDWICH_TOL * scale
    soft = hard + base_gap + conv_gap
    violations = []
    flags = []
    for i, t in enumerate(ts):
        low_break = lower[i] - middle[i]
        high_break = middle[i] - bound * lower[i]
        worst = max(low_break, high_break)
        if worst > soft[i]:
            side = "below lower" if low_break >= high_break else "above upper"
            violations.append((float(t), side, float(worst)))
        elif worst > hard[i]:
            flags.append((float(t), float(worst)))
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(middle))):
        violations.append((float("nan"), "non-finite value", math.inf))
    ratios = np.where(lower > 0.0, middle / scale, 1.0)
    return PowerSandwichReport(
        ok=not violations,
        kind=kind,
        p=float(p),
        bound=bound,
        t_grid=ts,
        lower=lower,
        middle=middle,
        max_ratio=float(np.max(ratios, initial=1.0)),
        violations=tuple(violations),
        solver_flags=tuple(flags),
    )


def check_d_power_sandwich(
    couple: Couple, f, p: float, t_grid=None
) -> PowerSandwichReport:
    """D(t, |f|^p)^(1/p) <= D(t^(1/p), f; convexified) <= 2^(1-1/p) times it."""
    return _power_sandwich("D", couple, f, p, t_grid)


def check_k_power_sandwich(
    couple: Couple, f, p: float, t_grid=None
) -> PowerSandwichReport:
    """Same two-sided comparison for K, with the certified gaps of both K
    solves added to the tolerance.

    Also verifies the squared corollary: K(t, |f|^p) <= 2^p K(t^(1/p), f)^p
    <= 2^(2p) K(t, |f|^p), which follows from the main chain and must hold
    with room to spare.
    """
    report = _power_sandwich("K", couple, f, p, t_grid)
    k_base = report.lower ** p
    k_conv_p = report.middle ** p
    scale = np.maximum(k_base, 1e-300)
    slack = SANDWICH_TOL * scale
    corollary_ok = bool(
        np.all(k_base <= 2.0 ** p * k_conv_p + slack)
        and np.all(2.0 ** p * k_conv_p <= 2.0 ** (2.0 * p) * k_base + 2.0 ** p * slack)
    )
    return replace(report, ok=report.ok and corollary_ok, corollary_ok=corollary_ok)


# ---------------------------------------------------------------------------
# K-ordering
# ---------------------------------------------------------------------------


def k_order_breaks(prof: KProfile):
    """Where a K profile of the stack [f, g] breaks K(t, g) <= K(t, f).

    The comparison allows ORDER_GRID_SLACK K(t, f) plus both certified
    gaps, and a NaN value breaks it.  Returns the mask of broken grid points
    and the tolerance.
    """
    (kf, kg), (gap_f, gap_g) = prof.values, prof.gaps
    tol = ORDER_GRID_SLACK * np.maximum(kf, 1e-300) + gap_f + gap_g
    return ~(kg <= kf + tol), tol


def k_order_dominates(couple: Couple, f, g, t_grid=None) -> bool:
    """True when K(t, g) <= K(t, f) across the grid.

    On the (l1, linf) couple the comparison is also decided exactly through
    the weighted rearrangement integrals; if the exact decision says the
    domination holds everywhere while the grid sees a violation beyond its
    slack, the two routes contradict each other and that is an internal
    error, not a property of the input.
    """
    ts = default_t_grid() if t_grid is None else _as_grid(t_grid)
    fv = values_of(f, couple.space.n)
    gv = values_of(g, couple.space.n)
    broken, _ = k_order_breaks(
        profile("K", couple, np.stack([fv, gv]), ts, validate=False)
    )
    grid_ok = not broken.any()
    if is_l1_linf(couple):
        exact_ok = weighted_weak_submajorizes(couple.space, fv, gv)
        if exact_ok and not grid_ok:
            raise InternalConsistencyError(
                "exact rearrangement comparison and grid comparison disagree"
            )
        return exact_ok
    return grid_ok
