"""K- and D-functionals on finite couples, exact and numerical.

K(t, f) is the infimum of ||a0||_0 + t ||a1||_1 over all splittings
f = a0 + a1; D(t, f) restricts the infimum to splittings with disjoint
supports.  On a finite space both are finite, nondecreasing and concave in
t, and D never exceeds 2 K.

Three computational routes live here:

* a closed form for the (l1, linf) couple via the weighted decreasing
  rearrangement (the profile is piecewise linear in t; the integral itself
  is :func:`caldera.majorize.rearrangement_integral`),
* a general numerical solver over sign-compatible dominated splittings
  (a Newton solve for the optimal truncation level, certified by a dual
  pairing, when one exponent is infinite; projected gradient over the box
  otherwise),
* D as the best of the 2(n+1) disjoint splits that put the bottom k or the
  top n - k moduli in slot 0, exact on every couple.

Profiles take one vector or an (m, n) stack.  The truncation-level solve is
one batched Newton loop over every (vector, t) problem still open; the other
routes take a stack row by row.

The inequality checks at the bottom compare these routes against each other
and against the constants that control p-convexification.  The K-ordering
rule is defined once, in ``k_order_breaks``, on one profile of the stack
[f, g]; ``k_order_dominates`` and the lift's precondition both apply it.
"""

from __future__ import annotations

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
    norm,
    values_of,
    vector,
    weighted_p_norm,
)
from .majorize import rearrangement_integral, weighted_weak_submajorizes

# relative accuracy contract of the numerical K solver
SOLVER_REL_GAP = 1e-6
SOLVER_MAX_ITER = 100_000

# certified relative gap at which the truncation-level solve stops, and its
# iteration cap
TRUNCATION_REL_GAP = 1e-15
TRUNCATION_MAX_ITER = 200

# profile and sandwich comparisons
PROFILE_TOL = 1e-9
SANDWICH_TOL = 1e-9
ORDER_GRID_SLACK = 1e-9


def default_t_grid(lo: float = 1e-3, hi: float = 1e3, count: int = 61) -> np.ndarray:
    if not (0.0 < lo < hi < INF) or count < 2:
        raise DomainError("need finite 0 < lo < hi and at least two grid points")
    return np.geomspace(lo, hi, count)


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


def check_decomposition(f, dec: Decomposition, rel_tol: float = 1e-12) -> bool:
    fv = values_of(f)
    err = np.max(np.abs(dec.reconstruction() - fv), initial=0.0)
    return err <= rel_tol * max(float(np.max(np.abs(fv), initial=0.0)), 1e-300) + 1e-300


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


def _pgd_box(
    w: np.ndarray,
    v: np.ndarray,
    p0: float,
    p1: float,
    t: float,
    max_iter: int = SOLVER_MAX_ITER,
    rel_gap: float = SOLVER_REL_GAP,
):
    """Projected gradient over the box 0 <= u <= v for finite exponents.

    Minimizes N0(u) + t N1(v - u).  Termination is by a certified duality
    gap: any z with dual0(z) <= 1 and dual1(z) <= t yields the lower bound
    <z, v>, and rescaled norm gradients supply such a z that closes the gap
    at every stationary point, faces of the box included.  Barzilai-Borwein
    steps with a backtracking line search keep progress monotone.
    """

    def n_and_grad(x: np.ndarray, p: float):
        val = weighted_p_norm(w, x, p)
        if p == 1.0:
            return val, w.copy()
        if val == 0.0:
            return 0.0, np.zeros_like(x)
        return val, w * (x / val) ** (p - 1.0)

    def phi(u: np.ndarray) -> float:
        return weighted_p_norm(w, u, p0) + t * weighted_p_norm(w, v - u, p1)

    def dual_bound(g0: np.ndarray, g1: np.ndarray) -> float:
        # two candidate multipliers built from the side gradients; each gets
        # shrunk onto the feasible dual box before the pairing is taken
        lb = 0.0
        for z in (g0, t * g1):
            d0 = dual_p_norm(w, z, p0)
            d1 = dual_p_norm(w, z, p1)
            scale = min(
                1.0 / d0 if d0 > 1.0 else 1.0,
                t / d1 if d1 > t else 1.0,
            )
            lb = max(lb, scale * float(np.dot(z, v)))
        return lb

    # initial sweep over truncation-style candidates
    quantiles = np.quantile(v[v > 0], [0.25, 0.5, 0.75]) if np.any(v > 0) else []
    candidates = [np.zeros_like(v), v.copy(), 0.5 * v]
    for c in quantiles:
        candidates.append(np.maximum(v - c, 0.0))
        candidates.append(np.minimum(v, c))
    u = min(candidates, key=phi).copy()

    fu = phi(u)
    best_u, best_f = u.copy(), fu
    best_lb = 0.0
    step = 1.0
    prev_u = None
    prev_g = None
    stalls = 0
    for _ in range(max_iter):
        n0, g0 = n_and_grad(u, p0)
        n1, g1 = n_and_grad(v - u, p1)
        g = g0 - t * g1
        fu = n0 + t * n1
        if fu < best_f:
            best_f, best_u = fu, u.copy()
        best_lb = max(best_lb, dual_bound(g0, g1))
        gap = max(best_f - best_lb, 0.0)
        if gap <= rel_gap * max(best_f, 1e-300):
            return best_f, best_u, gap
        if prev_u is not None:
            s = u - prev_u
            y = g - prev_g
            sy = float(np.dot(s, y))
            if sy > 0.0:
                step = float(np.dot(s, s)) / sy
            step = min(max(step, 1e-14), 1e14)
        prev_u, prev_g = u, g
        # backtracking on the projection arc
        accepted = False
        trial_step = step
        for _ in range(120):
            u_new = np.clip(u - trial_step * g, 0.0, v)
            f_new = phi(u_new)
            decrease = float(np.dot(g, u - u_new))
            if f_new <= fu - 1e-4 * decrease and not np.array_equal(u_new, u):
                u = u_new
                step = trial_step
                accepted = True
                break
            trial_step *= 0.5
        if not accepted:
            # restart the step memory once before giving up; the gradient
            # scale can change by many orders across the box
            stalls += 1
            prev_u = prev_g = None
            step = 1.0
            if stalls >= 3:
                break
    gap = max(best_f - best_lb, 0.0)
    if gap <= rel_gap * max(best_f, 1e-300):
        return best_f, best_u, gap
    raise NumericalFailure(
        f"projected gradient stopped at t = {t:.6g} with gap {gap:.3e} above target",
        best_value=best_f,
        gap=gap,
    )


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

    if p1 == INF:
        a = np.abs(fv)
        vals, levels, _, gaps = _k_truncation(w, a, p0, np.array([t]))
        u = np.maximum(a - float(levels[0]), 0.0)
        return float(vals[0]), _split_from_modulus(space, fv, u), float(gaps[0])

    if p0 == INF:
        swapped = Couple(space=space, norm0=couple.norm1, norm1=couple.norm0)
        val, dec, gap = _k_numeric_full(swapped, fv, 1.0 / t)
        return t * val, Decomposition(a0=dec.a1, a1=dec.a0), t * gap

    best_f, best_u, gap = _pgd_box(w, np.abs(fv), p0, p1, t)
    return best_f, _split_from_modulus(space, fv, best_u), gap


def k_numeric(couple: Couple, f, t: float):
    """Numerical K(t, f) with an explicit near-optimal splitting.

    The returned value is within the solver's relative-gap contract of the
    true infimum; a splitting achieving it accompanies the value.
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
    gaps: np.ndarray = field(default=None, repr=False)


def _validate_profile(prof: KProfile, tol: float = PROFILE_TOL):
    ts, vs = prof.t_grid, prof.values
    scale = np.maximum(np.max(vs, axis=-1, keepdims=True, initial=0.0), 1e-300)
    slack = tol * scale + 1e-15
    if np.any(np.diff(vs) < -slack):
        raise InternalConsistencyError(f"{prof.kind} profile is not nondecreasing")
    if prof.kind == "K":
        ratio = vs / ts
        if np.any(np.diff(ratio) > tol * np.abs(ratio[..., :-1]) + 1e-15):
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
    solve, and finite pairs the projected gradient.  ``fv`` is one vector or
    an (m, n) stack: the truncation solve takes the whole stack, the other
    routes one row at a time.  Returns values, split norms and certified gaps
    (zero for the closed form).
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
    rows = []
    for t in ts:
        value, dec, gap = _k_numeric_full(couple, fv, float(t))
        rows.append((value, norm(couple.norm0, dec.a0), norm(couple.norm1, dec.a1), gap))
    vals, a0n, a1n, gaps = np.array(rows).T
    return vals, a0n, a1n, gaps


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


def check_k_d_sandwich(couple: Couple, f, t_grid=None, rel_tol: float = SANDWICH_TOL):
    ts = default_t_grid() if t_grid is None else _as_grid(t_grid)
    kprof = profile("K", couple, f, ts, validate=False)
    dprof = profile("D", couple, f, ts, validate=False)
    kv, dv = kprof.values, dprof.values
    slack = rel_tol * np.maximum(kv, 1e-300) + kprof.gaps
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


def _power_sandwich(kind, couple, f, p, t_grid, tol, solver_slack):
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
    hard = tol * scale
    soft = hard + solver_slack * scale + base_gap + conv_gap
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
    couple: Couple, f, p: float, t_grid=None, rel_tol: float = SANDWICH_TOL
) -> PowerSandwichReport:
    """D(t, |f|^p)^(1/p) <= D(t^(1/p), f; convexified) <= 2^(1-1/p) times it."""
    return _power_sandwich("D", couple, f, p, t_grid, rel_tol, 0.0)


def check_k_power_sandwich(
    couple: Couple,
    f,
    p: float,
    t_grid=None,
    rel_tol: float = SANDWICH_TOL,
    solver_slack: float = 2.0 * SOLVER_REL_GAP,
) -> PowerSandwichReport:
    """Same two-sided comparison for K, with solver gaps kept separate.

    Also verifies the squared corollary: K(t, |f|^p) <= 2^p K(t^(1/p), f)^p
    <= 2^(2p) K(t, |f|^p), which follows from the main chain and must hold
    with room to spare.
    """
    report = _power_sandwich("K", couple, f, p, t_grid, rel_tol, solver_slack)
    k_base = report.lower ** p
    k_conv_p = report.middle ** p
    scale = np.maximum(k_base, 1e-300)
    slack = (rel_tol + p * solver_slack) * scale
    corollary_ok = bool(
        np.all(k_base <= 2.0 ** p * k_conv_p + slack)
        and np.all(2.0 ** p * k_conv_p <= 2.0 ** (2.0 * p) * k_base + 2.0 ** p * slack)
    )
    return replace(report, ok=report.ok and corollary_ok, corollary_ok=corollary_ok)


# ---------------------------------------------------------------------------
# K-ordering
# ---------------------------------------------------------------------------


def k_order_breaks(prof: KProfile, slack: float = ORDER_GRID_SLACK):
    """Where a K profile of the stack [f, g] breaks K(t, g) <= K(t, f).

    The comparison allows slack K(t, f) plus both certified gaps, and a NaN
    value breaks it.  Returns the mask of broken grid points and the
    tolerance.
    """
    (kf, kg), (gap_f, gap_g) = prof.values, prof.gaps
    tol = slack * np.maximum(kf, 1e-300) + gap_f + gap_g
    return ~(kg <= kf + tol), tol


def k_order_dominates(
    couple: Couple, f, g, t_grid=None, slack: float = ORDER_GRID_SLACK
) -> bool:
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
        profile("K", couple, np.stack([fv, gv]), ts, validate=False), slack
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
