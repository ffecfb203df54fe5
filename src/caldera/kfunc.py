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
  finite, each certified by a dual pairing.  The truncation objective is
  smooth between consecutive moduli, so each problem starts on the piece
  that holds its root and steps in tau = (P - c)^min(p - 1, 1), P the
  piece's upper end, which keeps the slope finite there for p < 2,
* D as the best of the 2(n+1) disjoint splits that put the bottom k or the
  top n - k moduli in slot 0, exact on every couple.

One table, ``_FUNCTIONALS``, maps "K" and "D" to the function that picks
the route for one vector and returns arrays over the grid; single points
are its one-point grid, and profiles and the sandwich checks select by kind
through it.  The truncation-level solve evaluates every level of the vector
once, then runs one Newton loop over the t still open, and the multiplier
solve one loop over the grid.  ``profile`` also takes an (m, n) stack and is
the one place that splits a stack into rows; a failed solve or an overflow
names its row.

The inequality checks at the bottom compare these routes against each other
and against the constants that control p-convexification.  K <= D <= 2K
and the two power sandwiches share one comparison, ``_sandwich``, and one
``SandwichReport``.  The K-ordering decision is made once, by
``k_order_failure``: exact p-majorization first, one validated profile of
the stack [f, g] as the fallback.
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
    WeightedP,
    convexification_exponent,
    convexify_couple,
    dual_p_norm,
    effective_exponent,
    is_l1_linf,
    is_real,
    norm_bound,
    values_of,
    vector,
    weighted_p_norm,
)
from .majorize import (
    rearrangement_integral,
    sorted_prefix_failure,
    weighted_weak_submajorizes,
)

# relative accuracy contract of the numerical K solver
SOLVER_REL_GAP = 1e-6

# certified relative gap at which the truncation-level and multiplier solves
# stop, and their iteration cap
TRUNCATION_REL_GAP = 1e-15
TRUNCATION_MAX_ITER = 200

# values per block when the truncation solve evaluates every level of a vector
LEVEL_BLOCK = 2**16

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
    if not (is_real(t) and math.isfinite(t) and t > 0.0):
        raise DomainError(f"t must be a positive real, got {t!r}")
    return float(t)


def _as_grid(t_grid) -> np.ndarray:
    """A validated t-grid; None is the default grid."""
    if t_grid is None:
        return default_t_grid()
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
# numerical route
# ---------------------------------------------------------------------------


def _certified_gaps(best: np.ndarray, lower: np.ndarray, ts: np.ndarray):
    """Certified gaps best - lower of a K solve over the grid ``ts``; one above
    SOLVER_REL_GAP of its value, NaN included, fails closed naming its t."""
    gaps = np.maximum(best - lower, 0.0)
    bad = np.flatnonzero(~(gaps <= SOLVER_REL_GAP * best))
    if bad.size:
        j = int(bad[0])
        raise NumericalFailure(
            f"K solve at t = {ts[j]:.6g} stopped at {best[j]:.6g} with gap {gaps[j]:.3e}",
            best_value=float(best[j]),
            gap=float(gaps[j]),
        )
    return gaps


def _k_truncation(w: np.ndarray, a: np.ndarray, p0: float, ts: np.ndarray):
    """K over a grid on a couple whose second norm is sup, for moduli ``a``.

    K(t) is the minimum over sup levels c in [0, max a] of the convex
    phi(c) = ||(a - c)_+||_{p0} + t c, whose slope is t - s(c) with s(c) the
    nonincreasing l1 mass of the norm's gradient.  So c = 0 when s(0) <= t,
    c = max a when t <= s(max a-) = (weight of the top atoms)^(1/p0), and
    otherwise s(c) = t.

    The levels 0 and each smaller modulus cut [0, max a] into pieces on
    which phi is smooth.  N and s are evaluated once at every level, and
    each t starts in its piece: lo is the last level with s > t and hi the
    next level, or the top, so s(lo) > t >= s(hi) holds as computed, and the
    best value and the lower bound start from both ends.  Inside the piece
    it takes Newton steps in tau = (P - c)^e, with P the piece's upper end
    and e = min(p0 - 1, 1).  The atoms at P give s an infinite slope there
    when p0 < 2, and tau makes it finite; at e = 1 the steps are Newton
    steps in c.  The first iterate is the secant in tau between the piece's
    ends.  A step that leaves the bracket takes its midpoint instead: in c
    for p0 >= 2, and in log(P - c) for p0 < 2, where the root can lie within
    an ulp of P.

    The certificate does not depend on where the iterates come from: a z >= 0
    with dual norm <= 1 and sum z <= t gives K >= <z, a>, and the gradient at
    c pairs with a to l(c) = N(c) + c s(c).  Scaled end gradients settle the
    end cases, and the mix of the two bracket ends' gradients with mass t
    bounds the rest.  Each pass steps the t still open together; a t stops
    once its gap is within TRUNCATION_REL_GAP of its value or its bracket is
    one ulp wide, and the gaps go through ``_certified_gaps``.  At p0 = 1 the
    table takes the (l1, sup) closed form instead; this solve is its
    independent check.  Returns values, levels c, split norms N(c) and
    certified gaps over ``ts``.
    """
    n = a.size
    top = a.max(initial=0.0)
    s_top = w[a == top].sum(keepdims=True) ** (1.0 / p0)

    def at(x: np.ndarray):
        # N and s at levels x < top, and s' from the right, each excess
        # scaled by the largest; an overflowing e^(p0-2) or p0 in {1, inf}
        # leaves s' non-finite or zero, which only turns the next step into
        # a bisection
        m = top - x
        e = np.maximum(a - x[:, None], 0.0) / m[:, None]
        pos = e > 0.0
        r = np.zeros((3,) + e.shape)
        np.power(e, p0 - 1.0, out=r[0], where=pos)
        np.multiply(r[0], e, out=r[1])
        np.divide(r[0], e, out=r[2], where=pos)
        s1, sp, s2 = r @ w
        q = sp ** (1.0 / p0)
        return m * q, s1 * q / sp, (1.0 - p0) * (s2 - s1 * s1 / sp) * q / sp / m

    def midpoint(lo: np.ndarray, hi: np.ndarray, piece: np.ndarray):
        # the bracket's midpoint in c, or for p0 < 2 in log(P - c): a root
        # within an ulp of P is then reached in a few halvings of the
        # exponent, not some fifty halvings of c
        mid = 0.5 * (lo + hi)
        if p0 >= 2.0:
            return mid
        geo = piece - np.sqrt((piece - lo) * np.maximum(piece - hi, np.spacing(piece)))
        return np.where((lo < geo) & (geo < hi), geo, mid)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the levels 0, the moduli but the largest, and the top, with N and
        # s there; a level at the top (a tie with it, or any level of a zero
        # vector) takes the top's N = 0 and s(max a-)
        table = np.empty((3, n + 1))
        table[0] = np.concatenate([[0.0], np.sort(a)[:-1], [top]])
        table[1], table[2] = 0.0, s_top
        cells = np.flatnonzero(table[0] < top)
        per = max(LEVEL_BLOCK // n, 1)
        for i in range(0, cells.size, per):
            part = cells[i : i + per]
            table[1, part], table[2, part], _ = at(table[0, part])
        # column k solves t = ts[k] from the last level with s > t and the
        # next one, or from 0 or the top, whichever phi is lower at, when
        # the column is an end case; in the loop t holds the live columns' t
        t = ts
        # one past the last level below the top with s > t, or 0
        last = np.max((table[2, :n] > t[:, None]) * np.arange(1, n + 1), axis=1, initial=0)
        interior = (last > 0) & (t > s_top)
        end = np.where(table[1, 0] <= t * top, 0, n)
        j = np.where(interior, last - 1, end)
        (c_lo, n_lo, s_lo), (c_hi, n_hi, s_hi) = table[:, j], table[:, j + interior]
        # the bracket ends lo and hi, each as c, s and l = N + c s
        ends = np.array([c_lo, s_lo, n_lo + c_lo * s_lo, c_hi, s_hi, n_hi + c_hi * s_hi])
        # the best value with its level and N, and the certified lower bound
        phi_lo, phi_hi = n_lo + t * c_lo, n_hi + t * c_hi
        found = np.empty((4, t.size))
        found[:3] = np.where(
            phi_hi < phi_lo, np.array([phi_hi, c_hi, n_hi]), np.array([phi_lo, c_lo, n_lo])
        )
        n0, s0 = table[1:, 0]
        found[3] = np.maximum(np.minimum(1.0, t / s0) * n0, np.minimum(s_top, t) * top)
        mix = (t - s_hi) / (s_lo - s_hi)
        np.maximum(found[3], mix * ends[2] + (1.0 - mix) * ends[5], out=found[3], where=interior)
        # t and the piece's upper end P; the first iterate is the secant in
        # tau (a float64 e makes 1 / e at p0 = 1 inf, not an error)
        fixed = np.array([t, c_hi])
        e = np.float64(min(p0 - 1.0, 1.0))
        x = c_hi - mix ** (1.0 / e) * (c_hi - c_lo)
        # the live columns k, with their entries of each array
        k = np.flatnonzero(interior)
        fixed, found_k, ends, x = fixed[:, k], found[:, k], ends[:, k], x[k]
        for _ in range(TRUNCATION_MAX_ITER):
            lo, hi = ends[0], ends[3]
            inside = (lo < x) & (x < hi)
            if not inside.all():
                x = np.where(inside, x, midpoint(lo, hi, fixed[1]))
                inside = (lo < x) & (x < hi)
            # a column stays live until its gap closes or its bracket is one ulp
            live = (found_k[0] - found_k[3] > TRUNCATION_REL_GAP * found_k[0]) & inside
            if not live.all():
                found[:, k[~live]] = found_k[:, ~live]
                k, fixed, found_k, ends, x = (
                    k[live], fixed[:, live], found_k[:, live], ends[:, live], x[live]
                )
            if k.size == 0:
                break
            t, piece = fixed
            n_x, s_x, ds_x = at(x)
            phi = n_x + t * x
            np.copyto(found_k[:3], np.array([phi, x, n_x]), where=phi < found_k[0])
            # x replaces the bracket end on its side of s = t
            point = np.array([x, s_x, n_x + x * s_x])
            side = s_x <= t
            np.copyto(ends[3:], point, where=side)
            np.copyto(ends[:3], point, where=~side)
            mix = (t - ends[4]) / (ends[1] - ends[4])
            np.maximum(found_k[3], mix * ends[2] + (1.0 - mix) * ends[5], out=found_k[3])
            if p0 >= 2.0:
                x = x - (s_x - t) / ds_x
            else:
                # a Newton step in tau: tau' = tau (1 + e (s - t) / (s' (P - x)))
                d = piece - x
                x = x - d * np.expm1(np.log1p(e * (s_x - t) / (ds_x * d)) / e)
        found[:, k] = found_k
    best, level, a0n, lower = found
    return best, level, a0n, _certified_gaps(best, lower, ts)


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
    gaps = _certified_gaps(best, lower, ts)
    u[:, keep] = v * np.exp(-np.logaddexp(0.0, -y_best))
    return best, a0n, a1n, gaps, u


def _exponents(couple: Couple):
    return effective_exponent(couple.norm0), effective_exponent(couple.norm1)


def _k_values(couple: Couple, fv: np.ndarray, ts: np.ndarray):
    """K of one vector over a grid, picking the fastest applicable route.

    (l1, sup) takes the closed form, a sup side otherwise the
    truncation-level solve, a sup first side the swap K(t) = t K(1/t) with
    slots exchanged, and finite pairs the multiplier solve.  Returns the
    table's five arrays.
    """
    p0, p1 = _exponents(couple)
    w, a = couple.space.weights, np.abs(fv)
    if p1 == INF and p0 != 1.0:
        vals, levels, a0n, gaps = _k_truncation(w, a, p0, ts)
    elif p0 == INF:
        swapped = Couple(space=couple.space, norm0=couple.norm1, norm1=couple.norm0)
        vals, a0n, a1n, gaps, u = _k_values(swapped, fv, (1.0 / ts)[::-1])
        return ts * vals[::-1], a1n[::-1].copy(), a0n[::-1], ts * gaps[::-1], a - u[::-1]
    elif p1 == INF:
        vals, levels, a0n = rearrangement_integral(w, a, ts)
        gaps = np.zeros_like(ts)
    else:
        return _k_finite(w, a, p0, p1, ts)
    # a sup side: slot 0 keeps the excess over the level
    return vals, a0n, levels, gaps, np.maximum(a - levels[:, None], 0.0)


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
    k or the top n - k moduli for some k.  Returns the table's five arrays,
    with zero gaps.
    """
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
    vals = a0n + ts * a1n
    return vals, a0n, a1n, np.zeros_like(vals), np.where(keep, a, 0.0)


# ---------------------------------------------------------------------------
# the evaluation table: single points and profiles
# ---------------------------------------------------------------------------

# kind -> f(couple, fv, ts) for one vector fv, giving values, slot-0 and
# slot-1 norms and certified gaps (zero for D and the closed form), each over
# ts, and the slot-0 moduli, one row per t
_FUNCTIONALS = {"K": _k_values, "D": _d_values}


def _at_t(kind: str, couple: Couple, f, t):
    """Value, split and certified gap of K or D at one t: the table's entry
    on the one-point grid [t]."""
    t = _positive_t(t)
    fv = values_of(f, couple.space.n)
    vals, _, _, gaps, u = _FUNCTIONALS[kind](couple, fv, np.array([t]))
    return float(vals[0]), _split_from_modulus(couple.space, fv, u[0]), float(gaps[0])


def k_exact_l1_linf(space: MeasureSpace, f, t: float):
    """K(t, f) on the weighted (l1, linf) couple, with an optimal splitting.

    Equals the integral over [0, t] of the weighted decreasing
    rearrangement of |f|; the optimal splitting truncates |f| at the level
    the rearrangement takes at position t.
    """
    couple = Couple(space=space, norm0=WeightedP(1.0), norm1=WeightedP(INF))
    return _at_t("K", couple, f, t)[:2]


def k_numeric(couple: Couple, f, t: float):
    """Numerical K(t, f) with an explicit near-optimal splitting.

    The value is within the solver's relative-gap contract of the infimum,
    with a splitting that attains it: the table's K entry on the one-point
    grid [t], by the route ``_k_values`` picks.
    """
    return _at_t("K", couple, f, t)[:2]


def d_exact(couple: Couple, f, t: float):
    """Exact D(t, f) with an optimal disjoint splitting."""
    return _at_t("D", couple, f, t)[:2]


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
    # an overflowing input, not a broken solver: name its first row and t
    broken = np.argwhere(~np.isfinite(vs.reshape(-1, ts.size)))
    if broken.size:
        row, j = broken[0]
        where = f"row {row}: " if vs.ndim == 2 else ""
        raise DomainError(f"{where}{prof.kind} profile overflows: not finite at t = {ts[j]:g}")
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


def profile(kind: str, couple: Couple, f, t_grid) -> KProfile:
    """Evaluate K or D over a grid and check the shape invariants.

    ``f`` is one vector, giving arrays over the grid, or an (m, n) stack,
    giving (m, T) arrays whose row i belongs to f[i]; every row is validated.
    Each row of a stack goes through the table alone, and a solve that fails
    on row i raises its ``NumericalFailure`` with "row i: " prefixed; an
    overflow raises ``DomainError`` naming its first row the same way.
    """
    if kind not in _FUNCTIONALS:
        raise DomainError(f"profile kind must be 'K' or 'D', got {kind!r}")
    ts = _as_grid(t_grid)
    n = couple.space.n
    if np.ndim(f) != 2:
        vals, a0n, a1n, gaps, _ = _FUNCTIONALS[kind](couple, values_of(f, n), ts)
    elif len(f) == 0:
        raise DomainError("a stack of vectors needs at least one row")
    else:
        rows = []
        for i, row in enumerate(f):
            try:
                rows.append(_FUNCTIONALS[kind](couple, values_of(row, n), ts)[:4])
            except NumericalFailure as exc:
                exc.args = (f"row {i}: {exc}",)
                raise
        vals, a0n, a1n, gaps = (np.stack(out) for out in zip(*rows))
    prof = KProfile(
        kind=kind, t_grid=ts, values=vals, a0_norms=a0n, a1_norms=a1n, gaps=gaps
    )
    _validate_profile(prof)
    return prof


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SandwichReport:
    """Outcome of lower[i] <= middle[i] <= bound * lower[i] over a grid.

    K <= D <= 2K has lower K, middle D and bound 2.  The power sandwiches
    have lower F(t, |f|^p)^(1/p), middle F(t^(1/p), f) on the convexified
    couple and bound 2^(1-1/p), for F = K or D.  Entries (t, side, break) of
    ``violations`` broke a side beyond all tolerances, and a value that is
    not finite adds (nan, "non-finite value", inf).  Entries (t, break) of
    ``solver_flags`` broke it past SANDWICH_TOL but within the certified
    solver gaps: inconclusive, not counterexamples.  ``max_ratio`` is the
    largest middle / lower over the t with lower > 0.
    """

    ok: bool
    t_grid: np.ndarray
    lower: np.ndarray
    middle: np.ndarray
    bound: float
    max_ratio: float
    violations: tuple
    solver_flags: tuple
    corollary_ok: bool = True


def _sandwich(ts, lower, middle, bound, hard, soft, sides) -> SandwichReport:
    """The one comparison of the three sandwich checks.  ``hard`` and ``soft``
    are tolerances on the breaks lower - middle (row 0) and middle - bound *
    lower (row 1), whose labels are ``sides``: (2, T) arrays, or (T,) arrays
    for both sides.  A break past soft is a violation, one past hard only a
    solver flag; a NaN break is neither, and a non-finite value fails closed
    through its own entry."""
    breaks = np.array([lower - middle, middle - bound * lower])
    broken = breaks > soft
    flagged = (breaks > hard) & ~broken
    # entries in t order, the lower side first at each t
    violations = [
        (float(ts[i]), sides[s], float(breaks[s, i])) for i, s in zip(*broken.T.nonzero())
    ]
    flags = [(float(ts[i]), float(breaks[s, i])) for i, s in zip(*flagged.T.nonzero())]
    if not (np.isfinite(lower).all() and np.isfinite(middle).all()):
        violations.append((float("nan"), "non-finite value", math.inf))
    ratios = np.divide(middle, lower, out=np.ones_like(middle), where=lower > 0.0)
    return SandwichReport(
        ok=not violations, t_grid=ts, lower=lower, middle=middle, bound=bound,
        max_ratio=float(ratios.max(initial=1.0)),
        violations=tuple(violations), solver_flags=tuple(flags),
    )


def check_k_d_sandwich(couple: Couple, f, t_grid=None) -> SandwichReport:
    """K(t, f) <= D(t, f) <= 2 K(t, f) over the grid.  The lower side allows
    SANDWICH_TOL K plus the certified K gap, the upper side twice that."""
    ts = _as_grid(t_grid)
    fv = values_of(f, couple.space.n)
    kv, _, _, gaps, _ = _FUNCTIONALS["K"](couple, fv, ts)
    dv = _FUNCTIONALS["D"](couple, fv, ts)[0]
    scale = SANDWICH_TOL * np.maximum(kv, 1e-300)
    hard, soft = np.array([scale, 2.0 * scale]), np.array([scale + gaps, 2.0 * (scale + gaps)])
    return _sandwich(ts, kv, dv, 2.0, hard, soft, ("D below K", "D above 2K"))


def _power_sandwich(kind, couple, f, p, t_grid) -> SandwichReport:
    """F(t, |f|^p)^(1/p) <= F(t^(1/p), f; convexified) <= 2^(1-1/p) times it,
    each side up to SANDWICH_TOL plus both certified gaps.  The base gap is
    on F(t, |f|^p), so it enters in root units, lower - (base - gap)^(1/p),
    capped at the gap itself."""
    ts = _as_grid(t_grid)
    p = convexification_exponent(p)
    fv = values_of(f, couple.space.n)
    base, _, _, base_gap, _ = _FUNCTIONALS[kind](couple, np.abs(fv) ** p, ts)
    conv = convexify_couple(couple, p)
    middle, _, _, conv_gap, _ = _FUNCTIONALS[kind](conv, fv, ts ** (1.0 / p))
    lower = base ** (1.0 / p)
    root_gap = np.minimum(lower - np.maximum(base - base_gap, 0.0) ** (1.0 / p), base_gap)
    hard = SANDWICH_TOL * np.maximum(lower, 1e-300)
    soft = hard + root_gap + conv_gap
    return _sandwich(ts, lower, middle, norm_bound(p), hard, soft, ("below lower", "above upper"))


def check_d_power_sandwich(couple: Couple, f, p: float, t_grid=None) -> SandwichReport:
    """D(t, |f|^p)^(1/p) <= D(t^(1/p), f; convexified) <= 2^(1-1/p) times it."""
    return _power_sandwich("D", couple, f, p, t_grid)


def check_k_power_sandwich(couple: Couple, f, p: float, t_grid=None) -> SandwichReport:
    """Same two-sided comparison for K, with the certified gaps of both K
    solves added to the tolerance.

    Also verifies the squared corollary: K(t, |f|^p) <= 2^p K(t^(1/p), f)^p
    <= 2^(2p) K(t, |f|^p), which follows from the main chain and must hold
    with room to spare.
    """
    report = _power_sandwich("K", couple, f, p, t_grid)
    k_base, k_conv_p = report.lower ** p, report.middle ** p
    slack = SANDWICH_TOL * np.maximum(k_base, 1e-300)
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


def p_majorization_orders(couple: Couple, f, g) -> bool:
    """Exact sufficient test for K(t, g) <= K(t, f) at every t > 0.

    It applies to uniform couples with effective exponents (p, inf), p > 1,
    and holds when |g|^p is weakly submajorized by |f|^p.  Then a positive
    doubly substochastic T has T|f|^p = |g|^p (Marshall-Olkin), and the
    alpha = 1 Holder lift on T is a contraction on both l_p and sup that maps
    f to g (Lorentz-Shimogaki 1971).  Prefix sums in excess by at most
    SUBMAJORIZATION_TOL move K by about that over p, far inside
    ORDER_GRID_SLACK, so an accepted pair also passes ``k_order_breaks``.
    Both moduli are divided by their common maximum before the power, which
    cannot overflow; a non-finite power (both vectors zero) returns False.
    """
    p, p1 = _exponents(couple)
    if not (p1 == INF and 1.0 < p < INF and couple.space.is_uniform()):
        return False
    a = np.abs(values_of(f, couple.space.n))
    b = np.abs(values_of(g, couple.space.n))
    top = max(a.max(), b.max())
    with np.errstate(invalid="ignore"):
        fp, gp = (a / top) ** p, (b / top) ** p
    if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(gp))):
        return False
    return sorted_prefix_failure(np.sort(fp)[::-1], np.sort(gp)[::-1]) is None


def k_order_failure(couple: Couple, f, g, t_grid=None) -> str:
    """Why K(t, g) <= K(t, f) fails across the grid, or "" when it holds.

    A pair that ``p_majorization_orders`` accepts is ordered at every t and
    skips the grid.  Otherwise one validated K profile of the stack [f, g]
    goes through ``k_order_breaks``, and the message names the first broken
    t.  On the (l1, linf) couple the exact comparison of the weighted
    rearrangement integrals decides; if it says the domination holds
    everywhere while the grid sees a violation beyond its slack, the two
    routes contradict each other and that is an internal error, not a
    property of the input.
    """
    ts = _as_grid(t_grid)
    if p_majorization_orders(couple, f, g):
        return ""
    fv = values_of(f, couple.space.n)
    gv = values_of(g, couple.space.n)
    prof = profile("K", couple, np.stack([fv, gv]), ts)
    broken, tol = k_order_breaks(prof)
    if is_l1_linf(couple):
        exact_ok = weighted_weak_submajorizes(couple.space, fv, gv)
        if exact_ok and broken.any():
            raise InternalConsistencyError(
                "exact rearrangement comparison and grid comparison disagree"
            )
        if not (exact_ok or broken.any()):
            return "pair is not ordered: the exact rearrangement comparison fails off the grid"
    if not broken.any():
        return ""
    i = int(np.argmax(broken))
    kf, kg = prof.values[:, i]
    return (
        f"pair is not ordered on the convexified couple: at t={ts[i]:.6g}, "
        f"K(t, g) = {kg:.17g} exceeds K(t, f) = "
        f"{kf:.17g} by more than the tolerance {tol[i]:.3e}"
    )


def k_order_dominates(couple: Couple, f, g, t_grid=None) -> bool:
    """True when K(t, g) <= K(t, f) across the grid: ``k_order_failure`` is empty."""
    return not k_order_failure(couple, f, g, t_grid)
