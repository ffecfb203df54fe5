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
  (1-d search over truncation levels when one exponent is infinite,
  projected gradient over the box otherwise),
* D as the best of the 2(n+1) disjoint splits that put the bottom k or the
  top n - k moduli in slot 0, exact on every couple.

The inequality checks at the bottom compare these routes against each other
and against the constants that control p-convexification.
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

# profile and sandwich comparisons
PROFILE_TOL = 1e-9
SANDWICH_TOL = 1e-9
ORDER_GRID_SLACK = 1e-9


def default_t_grid(lo: float = 1e-3, hi: float = 1e3, count: int = 61) -> np.ndarray:
    if not (0.0 < lo < hi) or count < 2:
        raise DomainError("need 0 < lo < hi and at least two grid points")
    return np.geomspace(lo, hi, count)


def parse_t_grid(spec: str) -> tuple:
    """(lo, hi, count) from a ``geometric:lo,hi,count`` grid spec."""
    if not spec.startswith("geometric:"):
        raise DomainError("t grid must look like geometric:lo,hi,count")
    lo, hi, count = spec[len("geometric:") :].split(",")
    return float(lo), float(hi), int(count)


def _positive_t(t) -> float:
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t > 0.0):
        raise DomainError(f"t must be a positive real, got {t}")
    return float(t)


def _as_grid(t_grid) -> np.ndarray:
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise DomainError("t grid must be a nonempty 1-d array")
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


def _golden_min_batch(fun, lo: np.ndarray, hi: np.ndarray, iters: int = 90):
    """Vectorized golden-section minimization of convex 1-d objectives.

    Returns the best points, their values and a convexity-based bound on the
    remaining gap to the true minimum of each objective over [lo, hi].
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = 1.0 - invphi
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    x1 = a + invphi2 * (b - a)
    x2 = a + invphi * (b - a)
    f1 = fun(x1)
    f2 = fun(x2)
    fa = fun(a)
    fb = fun(b)
    for _ in range(iters):
        take = f1 < f2
        new_a = np.where(take, a, x1)
        new_b = np.where(take, x2, b)
        fa = np.where(take, fa, f1)
        fb = np.where(take, f2, fb)
        h = new_b - new_a
        probe = np.where(take, new_a + invphi2 * h, new_a + invphi * h)
        fp = fun(probe)
        new_x1 = np.where(take, probe, x2)
        new_f1 = np.where(take, fp, f2)
        new_x2 = np.where(take, x1, probe)
        new_f2 = np.where(take, f1, fp)
        a, b, x1, x2, f1, f2 = new_a, new_b, new_x1, new_x2, new_f1, new_f2

    xs = np.stack([a, x1, x2, b])
    fs = np.stack([fa, f1, f2, fb])
    pick = np.argmin(fs, axis=0)
    idx = np.arange(a.size)
    best_x = xs[pick, idx]
    best_f = fs[pick, idx]
    # chord-slope certificate: a convex objective cannot dip below the
    # linearizations drawn from the final bracket
    width_l = np.maximum(best_x - a, 0.0)
    width_r = np.maximum(b - best_x, 0.0)
    slope_l = np.where(width_l > 0.0, (best_f - fa) / np.where(width_l > 0, width_l, 1.0), 0.0)
    slope_r = np.where(width_r > 0.0, (fb - best_f) / np.where(width_r > 0, width_r, 1.0), 0.0)
    gap = np.maximum(
        np.maximum(0.0, slope_r) * width_l, np.maximum(0.0, -slope_l) * width_r
    )
    gap = gap + 1e-14 * np.abs(best_f)
    return best_x, best_f, gap


def _k_truncation_batch(w: np.ndarray, fv: np.ndarray, p0: float, ts: np.ndarray):
    """Numerical K for couples whose second exponent is infinite.

    For any lattice norm on the first slot the best splitting at a given
    sup-level c keeps |a0| = (|f| - c)_+, so K reduces to a convex
    minimization over the single truncation level.
    """
    a = np.abs(fv)
    top = float(np.max(a, initial=0.0))
    if top == 0.0:
        z = np.zeros_like(ts)
        return z, z.copy(), z.copy()

    def objective(cs: np.ndarray) -> np.ndarray:
        excess = np.maximum(a[None, :] - cs[:, None], 0.0)
        return weighted_p_norm(w, excess, p0) + ts * cs

    lo = np.zeros_like(ts)
    hi = np.full_like(ts, top)
    best_c, best_f, gap = _golden_min_batch(objective, lo, hi)
    return best_f, best_c, gap


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
        f"projected gradient stopped with gap {gap:.3e} above target",
        best_value=best_f,
        gap=gap,
    )


def _exponents(couple: Couple):
    return effective_exponent(couple.norm0), effective_exponent(couple.norm1)


def _k_numeric_full(couple: Couple, f, t: float):
    t = _positive_t(t)
    space = couple.space
    fv = values_of(f, space.n)
    w = space.weights
    p0, p1 = _exponents(couple)

    if p1 == INF:
        vals, cs, gaps = _k_truncation_batch(w, fv, p0, np.array([t]))
        u = np.maximum(np.abs(fv) - float(cs[0]), 0.0)
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
    per t, the mask of atoms in slot 0.
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
    scale = max(float(np.max(vs, initial=0.0)), 1e-300)
    slack = tol * scale + 1e-15
    if np.any(np.diff(vs) < -slack):
        raise InternalConsistencyError(f"{prof.kind} profile is not nondecreasing")
    if prof.kind == "K":
        ratio = vs / ts
        if np.any(np.diff(ratio) > tol * np.abs(ratio[:-1]) + 1e-15):
            raise InternalConsistencyError("K(t)/t fails to be nonincreasing")
        if ts.size >= 3:
            t1, t2, t3 = ts[:-2], ts[1:-1], ts[2:]
            v1, v2, v3 = vs[:-2], vs[1:-1], vs[2:]
            chord = ((t3 - t2) * v1 + (t2 - t1) * v3) / (t3 - t1)
            if np.any(v2 < chord - slack):
                raise InternalConsistencyError("K profile fails concavity")


def _k_values(couple: Couple, fv: np.ndarray, ts: np.ndarray):
    """K over a grid, picking the fastest applicable route.

    (l1, sup) takes the closed form, a sup side otherwise the truncation
    search, and finite pairs the projected gradient.  Returns values, split
    norms and certified gaps (zero for the closed form).
    """
    space = couple.space
    p0, p1 = _exponents(couple)
    w = space.weights
    if p1 == INF:
        a = np.abs(fv)
        if p0 == 1.0:
            vals, levels, a0n = rearrangement_integral(w, a, ts)
            return vals, a0n, levels, np.zeros_like(ts)
        vals, cs, gaps = _k_truncation_batch(w, fv, p0, ts)
        excess = np.maximum(a[None, :] - cs[:, None], 0.0)
        a0n = weighted_p_norm(w, excess, p0)
        a1n = np.minimum(float(np.max(a, initial=0.0)), cs)
        return vals, a0n, a1n, gaps
    if p0 == INF:
        swapped = Couple(space=space, norm0=couple.norm1, norm1=couple.norm0)
        vals, a0n, a1n, gaps = _k_values(swapped, fv, (1.0 / ts)[::-1])
        return ts * vals[::-1], a1n[::-1].copy(), a0n[::-1], ts * gaps[::-1]
    vals = np.empty_like(ts)
    a0n = np.empty_like(ts)
    a1n = np.empty_like(ts)
    gaps = np.empty_like(ts)
    for i, t in enumerate(ts):
        try:
            value, dec, gap = _k_numeric_full(couple, fv, float(t))
        except NumericalFailure as exc:
            raise NumericalFailure(
                f"K solver failed at t = {t}: {exc}",
                best_value=exc.best_value,
                gap=exc.gap,
            ) from exc
        vals[i] = value
        a0n[i] = norm(couple.norm0, dec.a0)
        a1n[i] = norm(couple.norm1, dec.a1)
        gaps[i] = gap
    return vals, a0n, a1n, gaps


def profile(kind: str, couple: Couple, f, t_grid, validate: bool = True) -> KProfile:
    """Evaluate K or D over a grid and check the shape invariants."""
    if kind not in ("K", "D"):
        raise DomainError(f"profile kind must be 'K' or 'D', got {kind!r}")
    ts = _as_grid(t_grid)
    fv = values_of(f, couple.space.n)
    if kind == "K":
        vals, a0n, a1n, gaps = _k_values(couple, fv, ts)
    else:
        vals, a0n, a1n, _ = _d_values(couple, fv, ts)
        gaps = np.zeros_like(ts)
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
    with np.errstate(invalid="ignore", divide="ignore"):
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
    with np.errstate(invalid="ignore", divide="ignore"):
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
    kf = profile("K", couple, fv, ts, validate=False)
    kg = profile("K", couple, gv, ts, validate=False)
    tol = slack * np.maximum(kf.values, 1e-300) + kf.gaps + kg.gaps
    grid_ok = bool(np.all(kg.values <= kf.values + tol))
    if is_l1_linf(couple):
        exact_ok = weighted_weak_submajorizes(couple.space, fv, gv)
        if exact_ok and not grid_ok:
            raise InternalConsistencyError(
                "exact rearrangement comparison and grid comparison disagree"
            )
        return exact_ok
    return grid_ok
