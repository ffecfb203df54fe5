from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from caldera import (
    INF,
    Couple,
    DimensionMismatch,
    DomainError,
    MeasureSpace,
    NumericalFailure,
    WeightedP,
    convexify_couple,
    vector,
)
from caldera import kfunc
from caldera.kfunc import (
    Decomposition,
    check_decomposition,
    check_d_power_sandwich,
    check_k_d_sandwich,
    check_k_power_sandwich,
    d_exact,
    default_t_grid,
    k_exact_l1_linf,
    k_numeric,
    k_order_dominates,
    parse_t_grid,
    profile,
    _k_truncation,
    _k_values,
)
from caldera.lattice import dual_p_norm, norm, weighted_p_norm


def _uniform(n):
    return MeasureSpace(np.ones(n))


def l1_linf_couple(space):
    return Couple(space=space, norm0=WeightedP(1.0), norm1=WeightedP(INF))


def _rand_space(rng, n):
    return MeasureSpace(10.0 ** rng.uniform(-1, 1, size=n))


def _unvalidated(kind, couple, f, ts):
    """Values and gaps from the evaluation table, without a profile's checks."""
    vals, _, _, gaps, _ = kfunc._FUNCTIONALS[kind](
        couple, np.asarray(f, dtype=float), np.asarray(ts, dtype=float)
    )
    return vals, gaps


def _rand_f(rng, n, scale=2.0, signed=True):
    vals = 10.0 ** rng.uniform(-scale, scale, size=n)
    if signed:
        vals *= rng.choice([-1.0, 1.0], size=n)
    return vals


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_k_truncation(weights, f, t, levels=20001):
    """Dense grid search over truncation levels, then a local refinement.

    Independent of the package code paths: evaluates the objective
    sum_i w_i (|f_i| - c)_+ + t c directly.
    """
    a = np.abs(np.asarray(f, dtype=float))
    w = np.asarray(weights, dtype=float)

    def obj(c):
        """The objective at every level of the 1-d array c."""
        return np.sum(w * np.maximum(a - c[:, None], 0.0), axis=1) + t * c

    top = float(np.max(a, initial=0.0))
    if top == 0.0:
        return 0.0
    grid = np.linspace(0.0, top, levels)
    vals = obj(grid)
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, levels - 1)]
    fine = np.linspace(lo, hi, 2001)
    best = float(np.min(obj(fine)))
    # candidate kinks: the moduli themselves are always worth probing
    best = min(best, float(np.min(obj(a))))
    return min(best, float(vals[i]))


def oracle_d_subsets(couple, f, t):
    """D by looping over index subsets with plain python bookkeeping."""
    fv = np.asarray(f, dtype=float)
    n = fv.size
    best = math.inf
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            keep = np.zeros(n, dtype=bool)
            keep[list(subset)] = True
            a0 = np.where(keep, fv, 0.0)
            a1 = np.where(keep, 0.0, fv)
            val = norm(couple.norm0, vector(couple.space, a0)) + t * norm(
                couple.norm1, vector(couple.space, a1)
            )
            best = min(best, val)
    return best


def oracle_k_free_split(couple, f, t):
    """Nelder-Mead over unconstrained splittings f = a0 + (f - a0)."""
    fv = np.asarray(f, dtype=float)

    def obj(a0):
        return norm(couple.norm0, vector(couple.space, a0)) + t * norm(
            couple.norm1, vector(couple.space, fv - a0)
        )

    best = math.inf
    starts = [np.zeros_like(fv), fv.copy(), 0.5 * fv]
    rng = np.random.default_rng(99)
    starts += [fv * rng.random(fv.size) for _ in range(4)]
    for x0 in starts:
        res = minimize(
            obj,
            x0,
            method="Nelder-Mead",
            options={"fatol": 1e-12, "xatol": 1e-12, "maxiter": 20000, "maxfev": 20000},
        )
        best = min(best, float(res.fun))
    return best


def oracle_k_sup_side(weights, a, p0, t):
    """K on (l_p0, sup) by scipy's bounded scalar minimisation plus both ends."""
    top = float(np.max(a, initial=0.0))
    if top == 0.0:
        return 0.0

    def phi(c):
        return float(weighted_p_norm(weights, np.maximum(a - c, 0.0), p0)) + t * c

    res = minimize_scalar(
        phi, bounds=(0.0, top), method="bounded", options={"xatol": 1e-14 * top}
    )
    return min(float(res.fun), phi(0.0), phi(top))


def reference_k_truncation(w, a, p0, ts):
    """The truncation-level solve of one vector as a Newton loop from c = 0.

    The route the piece-bracketed solve replaced, kept as its reference: every
    t starts on the bracket [0, max a] and takes Newton steps in c that
    bisect when they leave it, with the same dual-pairing certificate and
    gap check.
    """
    stack = a.reshape(-1, a.shape[-1])
    size = ts.size
    top = stack.max(axis=-1, initial=0.0)

    def at(rows, top, x):
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

    live = top > 0.0
    n0, s0, ds0 = at(stack, np.where(live, top, 1.0), np.zeros(top.size))
    s_top = [float(w[v == c].sum()) ** (1.0 / p0) for v, c in zip(stack, top)]
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
    for _ in range(kfunc.TRUNCATION_MAX_ITER):
        t, top, x, s_x, ds_x, lo, s_lo, l_lo, hi, s_hi, l_hi, best, _, _, lower, _ = state
        with np.errstate(over="ignore"):
            x = x - (s_x - t) / np.where(ds_x < 0.0, ds_x, np.nan)
        state[2] = x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
        keep = (best - lower > kfunc.TRUNCATION_REL_GAP * best) & (lo < x) & (x < hi)
        if not keep.all():
            closed.append(state[:, ~keep])
            state, moduli = state[:, keep], moduli[keep]
            if state.size == 0:
                break
            t, top, x, s_x, ds_x, lo, s_lo, l_lo, hi, s_hi, l_hi, best, _, _, lower, _ = state
        n_x, s_x, ds_x = at(moduli, top, x)
        phi = n_x + t * x
        np.copyto(state[11:14], (phi, x, n_x), where=phi < best)
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
    return best, levels, a0n, kfunc._certified_gaps(best, lower, ts)


# ---------------------------------------------------------------------------
# exact route
# ---------------------------------------------------------------------------


def test_k_exact_frozen_values_unit_weights():
    sp = _uniform(3)
    f = [3.0, 1.0, 2.0]
    value, dec = k_exact_l1_linf(sp, f, 1.0)
    assert value == pytest.approx(3.0, rel=1e-12)
    value, _ = k_exact_l1_linf(sp, f, 3.0)
    assert value == pytest.approx(6.0, rel=1e-12)
    # between the kinks the profile is linear: t = 2 sits on the 3 + (t-1)*2 leg
    value, _ = k_exact_l1_linf(sp, f, 2.0)
    assert value == pytest.approx(5.0, rel=1e-12)
    value, _ = k_exact_l1_linf(sp, f, 0.5)
    assert value == pytest.approx(1.5, rel=1e-12)
    # plateau at the l1 norm once t passes the total weight
    value, dec = k_exact_l1_linf(sp, f, 17.0)
    assert value == pytest.approx(6.0, rel=1e-12)
    assert np.array_equal(dec.a1.values, [0.0, 0.0, 0.0])


def test_k_exact_frozen_values_weighted():
    sp = MeasureSpace([2.0, 1.0])
    f = [3.0, 1.0]
    # rearrangement steps: value 3 for mass 2, then value 1 for mass 1
    assert k_exact_l1_linf(sp, f, 1.0)[0] == pytest.approx(3.0, rel=1e-12)
    assert k_exact_l1_linf(sp, f, 2.0)[0] == pytest.approx(6.0, rel=1e-12)
    assert k_exact_l1_linf(sp, f, 2.5)[0] == pytest.approx(6.5, rel=1e-12)
    assert k_exact_l1_linf(sp, f, 5.0)[0] == pytest.approx(7.0, rel=1e-12)


def test_k_exact_rejects_bad_t():
    sp = _uniform(2)
    for t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            k_exact_l1_linf(sp, [1.0, 2.0], t)


def test_single_t_rejects_bools_and_accepts_numpy_scalars():
    sp = _uniform(3)
    couple = l1_linf_couple(sp)
    f = [1.0, 2.0, 3.0]
    single_points = {
        "k_numeric": lambda t: k_numeric(couple, f, t),
        "k_exact_l1_linf": lambda t: k_exact_l1_linf(sp, f, t),
        "d_exact": lambda t: d_exact(couple, f, t),
    }
    for name, at in single_points.items():
        for t in (True, False, np.bool_(True)):
            with pytest.raises(DomainError, match="^t must be a positive real, got "):
                at(t)
        expected = at(2.0)[0]
        for t in (2, np.int64(2), np.uint8(2), np.float32(2.0), np.float64(2.0)):
            assert at(t)[0] == expected, (name, t)


def test_k_exact_matches_truncation_oracle():
    rng = np.random.default_rng(101)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        sp = _rand_space(rng, n)
        f = _rand_f(rng, n, scale=1.5)
        t = float(10.0 ** rng.uniform(-2, 2))
        value, dec = k_exact_l1_linf(sp, f, t)
        expected = oracle_k_truncation(sp.weights, f, t)
        assert value == pytest.approx(expected, rel=1e-9, abs=1e-12)
        # splitting reproduces the value and respects sign compatibility
        assert check_decomposition(f, dec)
        couple = l1_linf_couple(sp)
        recombined = norm(couple.norm0, dec.a0) + t * norm(couple.norm1, dec.a1)
        assert recombined == pytest.approx(value, rel=1e-12)
        assert np.all(np.abs(dec.a0.values) <= np.abs(f) * (1 + 1e-12))
        assert np.all(dec.a0.values * np.asarray(f) >= -1e-300)


def test_k_exact_profile_piecewise_linear_in_t():
    rng = np.random.default_rng(7)
    sp = _rand_space(rng, 5)
    f = _rand_f(rng, 5)
    couple = l1_linf_couple(sp)
    order = np.argsort(-np.abs(f), kind="stable")
    breaks = np.cumsum(sp.weights[order])
    # midpoints of consecutive breakpoints interpolate linearly
    for k in range(len(breaks) - 1):
        t1, t2 = breaks[k], breaks[k + 1]
        tm = 0.5 * (t1 + t2)
        v1 = k_exact_l1_linf(sp, f, t1)[0]
        v2 = k_exact_l1_linf(sp, f, t2)[0]
        vm = k_exact_l1_linf(sp, f, tm)[0]
        assert vm == pytest.approx(0.5 * (v1 + v2), rel=1e-12)


# ---------------------------------------------------------------------------
# numerical route
# ---------------------------------------------------------------------------


def test_k_numeric_matches_exact_on_l1_linf():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        sp = _rand_space(rng, n)
        couple = l1_linf_couple(sp)
        f = _rand_f(rng, n)
        t = float(10.0 ** rng.uniform(-3, 3))
        exact, _ = k_exact_l1_linf(sp, f, t)
        # k_numeric is the table's entry on [t]: the closed form itself
        approx, dec = k_numeric(couple, f, t)
        assert approx == exact
        assert check_decomposition(f, dec)
        # the truncation-level solve at p0 = 1 is the independent route
        solved, _, _, gap = _k_truncation(sp.weights, np.abs(f), 1.0, np.array([t]))
        assert solved[0] == pytest.approx(exact, rel=1e-6, abs=1e-12)
        assert solved[0] - gap[0] <= exact * (1 + 1e-12)


def test_k_numeric_elementary_upper_bounds():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        sp = _rand_space(rng, n)
        couple = Couple(
            space=sp,
            norm0=WeightedP(float(rng.choice([1.0, 1.5, 2.0]))),
            norm1=WeightedP(float(rng.choice([2.0, 3.0, INF]))),
        )
        f = _rand_f(rng, n)
        fvec = vector(sp, f)
        t = float(10.0 ** rng.uniform(-2, 2))
        value, _ = k_numeric(couple, f, t)
        assert value <= norm(couple.norm0, fvec) * (1 + 1e-9) + 1e-12
        assert value <= t * norm(couple.norm1, fvec) * (1 + 1e-9) + 1e-12


def test_k_numeric_symmetry_under_couple_swap():
    rng = np.random.default_rng(19)
    specs = [WeightedP(1.0), WeightedP(1.5), WeightedP(2.0), WeightedP(INF)]
    for _ in range(30):
        n = int(rng.integers(1, 7))
        sp = _rand_space(rng, n)
        n0, n1 = rng.choice(len(specs), size=2, replace=True)
        couple = Couple(space=sp, norm0=specs[n0], norm1=specs[n1])
        swapped = Couple(space=sp, norm0=specs[n1], norm1=specs[n0])
        f = _rand_f(rng, n, scale=1.0)
        t = float(10.0 ** rng.uniform(-1.5, 1.5))
        lhs, _ = k_numeric(couple, f, t)
        rhs, _ = k_numeric(swapped, f, 1.0 / t)
        assert lhs == pytest.approx(t * rhs, rel=1e-6, abs=1e-10)


def test_k_numeric_finite_pair_matches_free_search():
    rng = np.random.default_rng(23)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        sp = _rand_space(rng, n)
        couple = Couple(
            space=sp,
            norm0=WeightedP(float(rng.uniform(1.0, 3.0))),
            norm1=WeightedP(float(rng.uniform(1.0, 3.0))),
        )
        f = _rand_f(rng, n, scale=1.0)
        t = float(10.0 ** rng.uniform(-1, 1))
        value, dec = k_numeric(couple, f, t)
        reference = oracle_k_free_split(couple, f, t)
        # the solver value may not significantly exceed any feasible value
        assert value <= reference * (1 + 2e-6) + 1e-10
        # and the free search should not beat it beyond its own tolerance
        assert reference >= value * (1 - 1e-4) - 1e-10
        assert check_decomposition(f, dec)


def test_k_numeric_certificate_bounds_d_exact():
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        sp = _rand_space(rng, n)
        couple = Couple(
            space=sp,
            norm0=WeightedP(float(rng.choice([1.0, 2.0]))),
            norm1=WeightedP(float(rng.choice([1.5, INF]))),
        )
        f = _rand_f(rng, n)
        t = float(10.0 ** rng.uniform(-2, 2))
        value, _, gap = kfunc._at_t("K", couple, f, t)
        dval, _ = d_exact(couple, f, t)
        assert value - gap <= dval * (1 + 1e-9) + 1e-12


SUP_SIDE_EXPONENTS = (1.0, 1.001, 1.01, 1.5, 2.0, 3.0, 6.0, 40.0, 120.0)


def _sup_side_draw(rng, i):
    # n = 1 on every tenth draw; zeros, modulus ties and constant vectors
    n = 1 if i % 10 == 0 else int(rng.integers(2, 80))
    w = 10.0 ** rng.uniform(-3, 3, size=n) if i % 3 else np.ones(n)
    a = 10.0 ** rng.uniform(-3, 3, size=n)
    kind = i % 5
    if kind == 1:
        a[: n // 3] = 0.0
    elif kind == 2:
        a[1 : n // 2 + 1] = a[0]
    elif kind == 3:
        a[:] = a[0]
    return w, a


def test_truncation_route_matches_bounded_scipy_oracle():
    rng = np.random.default_rng(71)
    for i in range(300):
        w, a = _sup_side_draw(rng, i)
        p0 = 1.01 if i % 10 == 0 else float(rng.choice(SUP_SIDE_EXPONENTS))
        ts = np.sort(10.0 ** rng.uniform(-6, 6, size=4))
        vals, levels, a0n, gaps = _k_truncation(w, a, p0, ts)
        for t, value, c, n_c, gap in zip(ts, vals, levels, a0n, gaps):
            expected = oracle_k_sup_side(w, a, p0, t)
            # no value above the oracle's minimum, no certified bound above it
            assert value <= expected * (1 + 4e-15)
            assert value - gap <= expected * (1 + 4e-15)
            assert gap <= 1e-14 * value
            assert 0.0 <= c <= np.max(a)
            excess = weighted_p_norm(w, np.maximum(a - c, 0.0), p0)
            assert n_c == pytest.approx(excess, rel=1e-13, abs=1e-300)
            assert value == pytest.approx(n_c + t * c, rel=1e-15)


def _sup_side_stack(rng, i):
    # two to five vectors on one space: one all-zero row, ties across rows
    # (a copied row) and within them, zeros, n = 1 on every tenth draw
    w, a = _sup_side_draw(rng, i)
    m = int(rng.integers(2, 6))
    stack = 10.0 ** rng.uniform(-3, 3, size=(m, a.size))
    stack[0] = a
    stack[rng.random(stack.shape) < 0.15] = 0.0
    stack[int(rng.integers(1, m))] = 0.0
    if m > 2:
        stack[2] = stack[0]
    return w, stack


def test_truncation_rows_of_stacked_draws_match_bounded_scipy_oracle():
    rng = np.random.default_rng(83)
    for i in range(60):
        w, stack = _sup_side_stack(rng, i)
        p0 = float(rng.choice(SUP_SIDE_EXPONENTS[1:]))
        ts = np.sort(10.0 ** rng.uniform(-6, 6, size=3))
        for row in stack:
            vals, _, _, gaps = _k_truncation(w, row, p0, ts)
            for t, value, gap in zip(ts, vals, gaps):
                expected = oracle_k_sup_side(w, row, p0, t)
                assert value <= expected * (1 + 4e-15)
                assert value - gap <= expected * (1 + 4e-15)


def test_piece_bracketed_truncation_matches_the_newton_loop_and_the_oracle():
    # the rows of stacks with ties, zeros, an all-zero row, n = 1 and weights
    # 10^(+-6), against the loop it replaced and against scipy's bounded
    # minimisation
    rng = np.random.default_rng(113)
    exponents = (1.0, 1.001, 1.01, 1.5, 2.0, 3.0, 6.0, 40.0, 120.0)
    for i in range(400):
        w, stack = _sup_side_stack(rng, i)
        w = 10.0 ** rng.uniform(-6, 6, size=w.size) if i % 2 else w
        p0 = exponents[i % len(exponents)]
        ts = np.unique(10.0 ** rng.uniform(-6, 6, size=5))
        for row in stack:
            vals, levels, a0n, gaps = _k_truncation(w, row, p0, ts)
            ref = reference_k_truncation(w, row, p0, ts)
            assert np.all(np.abs(vals - ref[0]) <= 2e-15 * ref[0]), (i, p0)
            assert np.all(gaps <= kfunc.TRUNCATION_REL_GAP * vals), (i, p0)
            # phi is flat near its minimum, so the level itself may move
            assert np.all((0.0 <= levels) & (levels <= row.max(initial=0.0)))
            assert np.allclose(a0n + ts * levels, vals, rtol=1e-15, atol=0.0)
            if not row.any():
                assert np.all(vals == 0.0)
            if i % 5 == 0:
                for t, value, gap in zip(ts, vals, gaps):
                    expected = oracle_k_sup_side(w, row, p0, t)
                    assert value <= expected * (1 + 4e-15)
                    assert value - gap <= expected * (1 + 4e-15)


@pytest.mark.parametrize("block", [1, 100, 500])
def test_truncation_levels_evaluated_in_blocks_give_the_same_solve(monkeypatch, block):
    # LEVEL_BLOCK bounds the level evaluation's memory; a vector whose levels
    # span several blocks solves as in one
    rng = np.random.default_rng(127)
    w, stack = _sup_side_stack(rng, 3)
    w, a = np.tile(w, len(stack)), stack.ravel()
    ts = default_t_grid()
    one = _k_truncation(w, a, 1.5, ts)
    monkeypatch.setattr(kfunc, "LEVEL_BLOCK", block)
    split = _k_truncation(w, a, 1.5, ts)
    # each block holds block // n levels, so the levels span several blocks
    assert np.count_nonzero(a < a.max()) > 2 * max(block // a.size, 1)
    assert np.all(np.abs(split[0] - one[0]) <= 2e-15 * one[0])
    assert np.all(split[3] <= kfunc.TRUNCATION_REL_GAP * split[0])


def _route_couples(space):
    return {
        "l1-sup closed form": l1_linf_couple(space),
        "truncation": convexify_couple(l1_linf_couple(space), 2.0),
        "sup-lp swap": Couple(space=space, norm0=WeightedP(INF), norm1=WeightedP(3.0)),
        "sup-l1 swap": Couple(space=space, norm0=WeightedP(INF), norm1=WeightedP(1.0)),
        "finite pair": Couple(space=space, norm0=WeightedP(2.0), norm1=WeightedP(3.0)),
    }


@pytest.mark.parametrize("kind", ["K", "D"])
def test_profile_of_a_stack_matches_profiles_of_its_rows(kind):
    rng = np.random.default_rng(89)
    sp = _rand_space(rng, 3)
    stack = np.stack([_rand_f(rng, 3), np.zeros(3), [1.0, -1.0, 0.0], _rand_f(rng, 3)])
    ts = default_t_grid(1e-2, 1e2, 7)
    for route, couple in _route_couples(sp).items():
        prof = profile(kind, couple, stack, ts)
        assert prof.values.shape == (4, ts.size), route
        for i, row in enumerate(stack):
            one = profile(kind, couple, row, ts)
            for got, want in zip(
                (prof.values, prof.a0_norms, prof.a1_norms, prof.gaps),
                (one.values, one.a0_norms, one.a1_norms, one.gaps),
            ):
                assert np.array_equal(got[i], want), route


def test_profile_of_a_stack_checks_each_row():
    couple = convexify_couple(l1_linf_couple(_uniform(3)), 2.0)
    ts = default_t_grid(0.1, 10.0, 5)
    with pytest.raises(DimensionMismatch):
        profile("K", couple, np.ones((2, 4)), ts)
    with pytest.raises(DomainError, match="finite"):
        profile("K", couple, [[1.0, 2.0, 3.0], [1.0, math.nan, 3.0]], ts)
    with pytest.raises(DomainError, match="at least one"):
        profile("K", couple, np.ones((0, 3)), ts)
    with pytest.raises(DomainError, match="finite"):
        k_order_dominates(couple, [1.0, 2.0, 3.0], [1.0, math.inf, 0.0], ts)


def _failure_in_a_stack_names_the_row(couple, row):
    # row 0 is zero and certifies without a step; row 1 at t = 1.3 needs one
    ts = [0.5, 1.3, 4.0]
    with pytest.raises(NumericalFailure) as alone:
        profile("K", couple, row, ts)
    with pytest.raises(NumericalFailure, match=r"^row 1: K solve at t = 1\.3 .* gap ") as info:
        profile("K", couple, [[0.0, 0.0, 0.0], row], ts)
    assert str(info.value) == f"row 1: {alone.value}"
    assert (info.value.best_value, info.value.gap) == (alone.value.best_value, alone.value.gap)
    assert info.value.gap > kfunc.SOLVER_REL_GAP * info.value.best_value


def test_truncation_failure_in_a_stack_names_the_row(monkeypatch):
    monkeypatch.setattr(kfunc, "TRUNCATION_MAX_ITER", 0)
    couple = Couple(space=_uniform(3), norm0=WeightedP(2.0), norm1=WeightedP(INF))
    _failure_in_a_stack_names_the_row(couple, [3.0, 1.0, 2.0])


def test_multiplier_failure_in_a_stack_names_the_row(monkeypatch):
    monkeypatch.setattr(kfunc, "TRUNCATION_MAX_ITER", 0)
    couple = Couple(space=_uniform(3), norm0=WeightedP(1.0), norm1=WeightedP(2.0))
    _failure_in_a_stack_names_the_row(couple, [4.0, -1.0, 0.25])


def test_truncation_route_closed_forms():
    ts = default_t_grid(1e-3, 1e3, 25)
    for p0 in SUP_SIDE_EXPONENTS:
        sp = MeasureSpace([0.5, 2.0, 1.5, 0.25])
        couple = Couple(space=sp, norm0=WeightedP(p0), norm1=WeightedP(INF))
        # f = 0 gives 0
        assert np.all(profile("K", couple, np.zeros(4), ts).values == 0.0)
        # a tied top below t = (W_top)^(1/p0) gives t max|f|
        f = np.array([-3.0, 3.0, 1.0, 0.0])
        w_top = 2.5 ** (1.0 / p0)
        prof = profile("K", couple, f, ts)
        low = ts <= w_top
        assert np.allclose(prof.values[low], 3.0 * ts[low], rtol=1e-15)
        # t >= s(0) = sum w a^(p0-1) / ||a||^(p0-1) gives the first norm
        a = np.abs(f)
        norm0 = weighted_p_norm(sp.weights, a, p0)
        s0 = float(np.sum(sp.weights * (a / 3.0) ** (p0 - 1.0) * (a > 0)))
        s0 /= (norm0 / 3.0) ** (p0 - 1.0)
        for t in (s0, 2.0 * s0, 1e3 * s0):
            assert k_numeric(couple, f, t)[0] == pytest.approx(norm0, rel=1e-15)
        # one atom: min(w^(1/p0) |f|, t |f|)
        single = Couple(space=MeasureSpace([7.0]), norm0=WeightedP(p0), norm1=WeightedP(INF))
        for t in ts:
            expected = min(7.0 ** (1.0 / p0) * 2.0, t * 2.0)
            assert k_numeric(single, [-2.0], t)[0] == pytest.approx(expected, rel=1e-15)


def test_sup_side_profile_gaps_and_k_numeric_splits():
    rng = np.random.default_rng(73)
    ts = default_t_grid()
    for i in range(40):
        n = int(rng.integers(1, 30))
        sp = _rand_space(rng, n)
        f = _rand_f(rng, n)
        if n > 2:
            f[0], f[1] = 0.0, -f[2]
        p = float(rng.choice([1.01, 1.5, 2.0, 3.0, 6.0]))
        couple = convexify_couple(l1_linf_couple(sp), p)
        prof = profile("K", couple, f, ts)
        assert np.all(prof.gaps <= 1e-14 * prof.values)
        for base in (couple, l1_linf_couple(sp)):
            t = float(ts[i % ts.size])
            value, dec = k_numeric(base, f, t)
            assert check_decomposition(f, dec)
            recombined = norm(base.norm0, dec.a0) + t * norm(base.norm1, dec.a1)
            assert recombined == pytest.approx(value, rel=1e-13)


def test_truncation_failure_reports_t_value_and_gap(monkeypatch):
    monkeypatch.setattr(kfunc, "TRUNCATION_MAX_ITER", 0)
    couple = Couple(space=_uniform(3), norm0=WeightedP(2.0), norm1=WeightedP(INF))
    # t = 0.5 and 4 are end cases, certified without a step; 1.3 is not
    with pytest.raises(NumericalFailure, match=r"at t = 1\.3 .* gap ") as info:
        profile("K", couple, [3.0, 1.0, 2.0], [0.5, 1.3, 4.0])
    assert info.value.best_value > 0.0
    assert info.value.gap > kfunc.SOLVER_REL_GAP * info.value.best_value


@pytest.mark.parametrize("p1", [INF, 3.0])
def test_k_solves_fail_closed_on_a_nan_gap(p1):
    # the powers overflow, so both solves stop at inf with gap inf - inf
    couple = Couple(space=MeasureSpace([1e3] * 3), norm0=WeightedP(1.5), norm1=WeightedP(p1))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure, match=r"at t = 1000 stopped at inf with gap nan"):
            k_numeric(couple, [1e307, 5e306, 2e306], 1000.0)


FINITE_EXPONENTS = (1.0, 1.001, 1.01, 1.05, 1.1, 1.5, 2.0, 3.0, 6.0, 40.0, 120.0)


def _finite_pair_draw(rng, i):
    # the sup-side draws, plus an all-zero vector on every 35th draw
    w, a = _sup_side_draw(rng, i)
    if i % 35 == 4:
        a[:] = 0.0
    p0, p1 = (float(p) for p in rng.choice(FINITE_EXPONENTS, size=2))
    return Couple(space=MeasureSpace(w), norm0=WeightedP(p0), norm1=WeightedP(p1)), a


def _p_norm(w, x, p):
    # plain weighted p-norm of x >= 0, scaled by its largest entry
    m = float(np.max(x, initial=0.0))
    return 0.0 if m == 0.0 else m * float(np.sum(w * (x / m) ** p)) ** (1.0 / p)


def oracle_k_box(w, v, p0, p1, t):
    """K on a finite pair by L-BFGS-B over the box 0 <= u <= v, both ends included.

    Independent of the package code paths: the objective and its gradient
    are written out here, and every start is polished from scratch.
    """

    def obj(x):
        u, s = np.clip(x, 0.0, v), np.clip(v - x, 0.0, v)
        n0, n1 = _p_norm(w, u, p0), _p_norm(w, s, p1)
        g0 = w * (u / n0) ** (p0 - 1.0) if n0 > 0.0 else np.zeros_like(u)
        g1 = w * (s / n1) ** (p1 - 1.0) if n1 > 0.0 else np.zeros_like(s)
        return n0 + t * n1, g0 - t * g1

    best = min(obj(np.zeros_like(v))[0], obj(v.copy())[0])
    starts = [0.5 * v] + [v * r for r in np.random.default_rng(3).random((3, v.size))]
    for x0 in starts:
        res = minimize(
            obj,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(np.zeros_like(v), v)),
            options={"ftol": 1e-15, "gtol": 1e-13, "maxiter": 3000},
        )
        best = min(best, obj(res.x)[0])
    return best


def test_finite_pair_profiles_certify_on_a_seeded_sweep():
    rng = np.random.default_rng(101)
    ts = default_t_grid()
    for i in range(320):
        couple, a = _finite_pair_draw(rng, i)
        f = a * rng.choice([-1.0, 1.0], size=a.size)
        prof = profile("K", couple, f, ts)
        assert np.all(prof.gaps <= 1e-12 * prof.values), i
        recombined = prof.a0_norms + ts * prof.a1_norms
        assert np.allclose(recombined, prof.values, rtol=1e-14, atol=0.0)
        if not a.any():
            assert np.all(prof.values == 0.0)
        if i % 10 == 1:
            # a stack takes one row at a time: its rows equal one-vector profiles
            stack = np.stack([f, np.zeros_like(f), f[::-1]])
            batch = profile("K", couple, stack, ts)
            for r, row in enumerate(stack):
                one = profile("K", couple, row, ts)
                assert np.array_equal(batch.values[r], one.values)
                assert np.array_equal(batch.gaps[r], one.gaps)


def test_finite_pair_matches_box_oracle():
    rng = np.random.default_rng(103)
    for i in range(40):
        couple, a = _finite_pair_draw(rng, i)
        n = min(a.size, 40)
        w, v = couple.space.weights[:n], a[:n]
        couple = replace(couple, space=MeasureSpace(w))
        p0, p1 = couple.norm0.p, couple.norm1.p
        ts = np.sort(10.0 ** rng.uniform(-3, 3, size=3))
        vals, _, _, gaps, _ = _k_values(couple, v, ts)
        for t, value, gap in zip(ts, vals, gaps):
            expected = oracle_k_box(w, v, p0, p1, t)
            # no value above a feasible split, no certified bound above the minimum
            assert value <= expected * (1 + 1e-12), (i, p0, p1, t)
            assert value - gap <= expected * (1 + 1e-14), (i, p0, p1, t)


def test_finite_pair_closed_forms():
    ts = default_t_grid(1e-3, 1e3, 25)
    sp = MeasureSpace([0.5, 2.0, 1.5, 0.25])
    f = np.array([-3.0, 3.0, 1.0, 0.0])
    a = np.abs(f)
    for p in (1.0, 1.5, 3.0):
        # p0 = p1: K = min(1, t) N(f) with gap 0
        same = Couple(space=sp, norm0=WeightedP(p), norm1=WeightedP(p))
        prof = profile("K", same, f, ts)
        expected = np.minimum(1.0, ts) * _p_norm(sp.weights, a, p)
        assert np.allclose(prof.values, expected, rtol=1e-15, atol=0.0)
        assert np.all(prof.gaps == 0.0)
    for p0, p1 in ((1.0, 3.0), (3.0, 1.0), (1.5, 2.0), (40.0, 1.1)):
        couple = Couple(space=sp, norm0=WeightedP(p0), norm1=WeightedP(p1))
        n0, n1 = _p_norm(sp.weights, a, p0), _p_norm(sp.weights, a, p1)
        grad0 = sp.weights * (a / n0) ** (p0 - 1.0)
        grad1 = sp.weights * (a / n1) ** (p1 - 1.0)
        t_hi = float(dual_p_norm(sp.weights, grad0, p1))
        t_lo = 1.0 / float(dual_p_norm(sp.weights, grad1, p0))
        assert t_lo < t_hi
        for t in (t_hi, 2.0 * t_hi, 1e3 * t_hi):
            value, _, gap = kfunc._at_t("K", couple, f, t)
            assert value == pytest.approx(n0, rel=1e-15) and gap <= 1e-15 * value
        for t in (t_lo, 0.5 * t_lo, 1e-3 * t_lo):
            value, _, gap = kfunc._at_t("K", couple, f, t)
            assert value == pytest.approx(t * n1, rel=1e-15) and gap <= 1e-15 * value
        # one atom: min(w^(1/p0), t w^(1/p1)) |f|
        single = replace(couple, space=MeasureSpace([7.0]))
        prof = profile("K", single, [-2.0], ts)
        expected = np.minimum(7.0 ** (1.0 / p0), ts * 7.0 ** (1.0 / p1)) * 2.0
        assert np.allclose(prof.values, expected, rtol=1e-15, atol=0.0)


def test_finite_pair_k_numeric_splits_and_swap_symmetry():
    rng = np.random.default_rng(107)
    for i in range(60):
        couple, a = _finite_pair_draw(rng, i)
        f = a * rng.choice([-1.0, 1.0], size=a.size)
        t = float(10.0 ** rng.uniform(-3, 3))
        value, dec, gap = kfunc._at_t("K", couple, f, t)
        assert check_decomposition(f, dec)
        assert np.all(dec.a0.values * f >= 0.0)
        assert np.all(np.abs(dec.a0.values) <= np.abs(f))
        recombined = norm(couple.norm0, dec.a0) + t * norm(couple.norm1, dec.a1)
        assert recombined == pytest.approx(value, rel=1e-13, abs=1e-300)
        swapped = Couple(space=couple.space, norm0=couple.norm1, norm1=couple.norm0)
        other, _, other_gap = kfunc._at_t("K", swapped, f, 1.0 / t)
        assert abs(value - t * other) <= gap + t * other_gap + 4e-16 * value


def test_finite_pair_failure_reports_t_value_and_gap(monkeypatch):
    monkeypatch.setattr(kfunc, "TRUNCATION_MAX_ITER", 0)
    couple = Couple(space=_uniform(3), norm0=WeightedP(1.0), norm1=WeightedP(2.0))
    # t = 0.5 and 4 are end cases, settled by the seeds; 1.3 is not
    with pytest.raises(NumericalFailure, match=r"at t = 1\.3 .* gap ") as info:
        profile("K", couple, [4.0, -1.0, 0.25], [0.5, 1.3, 4.0])
    assert info.value.best_value > 0.0
    assert info.value.gap > kfunc.SOLVER_REL_GAP * info.value.best_value


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_k_power_sandwich_on_finite_pairs(p):
    # K(t, |f|^p)^(1/p) <= K(t^(1/p), f; convexified) <= 2^(1-1/p) times it
    rng = np.random.default_rng(int(10 * p))
    for i, (r, q) in enumerate(itertools.permutations((1.0, 1.5, 2.0, 3.0), 2)):
        n = 64 if i % 4 == 0 else int(rng.integers(1, 64))
        sp = _rand_space(rng, n)
        couple = Couple(space=sp, norm0=WeightedP(r), norm1=WeightedP(q))
        report = check_k_power_sandwich(couple, _rand_f(rng, n), p)
        assert report.ok and report.corollary_ok, (r, q, report.violations)
        assert report.solver_flags == ()
        assert np.all(report.lower <= report.middle * (1 + 1e-14))


@pytest.mark.parametrize(
    "call",
    [
        lambda c, ts: profile("K", c, [1.0, 2.0, 3.0], ts),
        lambda c, ts: profile("K", convexify_couple(c, 2.0), [1.0, 2.0, 3.0], ts),
        lambda c, ts: profile("D", c, [1.0, 2.0, 3.0], ts),
        lambda c, ts: check_k_d_sandwich(c, [1.0, 2.0, 3.0], t_grid=ts),
        lambda c, ts: k_order_dominates(c, [3.0, 2.0, 1.0], [1.0, 1.0, 1.0], ts),
    ],
    ids=["profile-K", "profile-K-convexified", "profile-D", "k-d-sandwich", "k-order"],
)
@pytest.mark.parametrize("grid", [[1.0, INF], [math.nan, 1.0], [0.5, math.nan]])
def test_non_finite_t_grid_raises_domain_error(call, grid):
    with pytest.raises(DomainError, match="finite"):
        call(l1_linf_couple(_uniform(3)), grid)


def test_grid_specs_are_checked():
    with pytest.raises(DomainError, match="finite"):
        default_t_grid(1e-3, INF, 5)
    with pytest.raises(DomainError):
        default_t_grid(math.nan, 1.0, 5)
    assert parse_t_grid("geometric:1e-3,1e3,61") == (1e-3, 1e3, 61)
    # one grid per (lo, hi, count) and process, shared read-only
    grid = default_t_grid(1e-3, 1e3, 61)
    assert grid is default_t_grid(1e-3, 1e3, 61) and not grid.flags.writeable
    assert np.array_equal(grid, np.geomspace(1e-3, 1e3, 61))
    for spec in ("geometric:1,2", "geometric:a,2,3", "geometric:1,2,3.5", "linear:0,1,5"):
        with pytest.raises(DomainError, match="geometric:lo,hi,count"):
            parse_t_grid(spec)


# ---------------------------------------------------------------------------
# exhaustive route
# ---------------------------------------------------------------------------


def test_d_exact_frozen_values():
    sp = _uniform(3)
    couple = l1_linf_couple(sp)
    value, dec = d_exact(couple, [3.0, 1.0, 2.0], 1.0)
    assert value == pytest.approx(3.0, rel=1e-12)
    # the empty side carries everything to the sup norm slot
    assert np.array_equal(dec.a0.values, [0.0, 0.0, 0.0])
    assert np.array_equal(dec.a1.values, [3.0, 1.0, 2.0])

    single = Couple(space=_uniform(1), norm0=WeightedP(1.0), norm1=WeightedP(INF))
    for t in (0.25, 1.0, 4.0):
        value, _ = d_exact(single, [5.0], t)
        assert value == pytest.approx(5.0 * min(1.0, t), rel=1e-12)


def test_d_exact_matches_subset_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        sp = _rand_space(rng, n)
        couple = Couple(
            space=sp,
            norm0=WeightedP(float(rng.choice([1.0, 2.0, INF]))),
            norm1=WeightedP(float(rng.choice([1.0, 3.0, INF]))),
        )
        f = _rand_f(rng, n)
        t = float(10.0 ** rng.uniform(-2, 2))
        value, dec = d_exact(couple, f, t)
        assert value == pytest.approx(oracle_d_subsets(couple, f, t), rel=1e-12)
        assert dec.is_disjoint()
        assert check_decomposition(f, dec)


def test_d_exact_capacity_and_domain_errors():
    sp = _uniform(23)
    couple = l1_linf_couple(sp)
    # past the former n = 22 enumeration cap, D now evaluates
    value, _ = d_exact(couple, np.ones(23), 1.0)
    assert value == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DomainError):
        d_exact(l1_linf_couple(_uniform(2)), [1.0, 2.0], 0.0)


D_EXPONENTS = (1.0, 1.01, 1.5, 2.0, 3.0, 6.0, 40.0, INF)


def test_threshold_d_matches_subset_oracle_on_every_exponent_pair():
    # the 2(n+1) threshold splits are exact on every couple, finite pairs
    # and convexified couples included
    rng = np.random.default_rng(47)
    ts = (0.05, 0.8, 3.0, 40.0)
    for i, (p0, p1) in enumerate(itertools.product(D_EXPONENTS, repeat=2)):
        n = 1 if i % 8 == 0 else int(rng.integers(2, 7))
        sp = MeasureSpace(10.0 ** rng.uniform(-3, 3, size=n))
        f = _rand_f(rng, n)
        if n > 2:
            f[0] = 0.0
            f[1] = -f[2]  # a tie in modulus
        couple = Couple(space=sp, norm0=WeightedP(p0), norm1=WeightedP(p1))
        if i % 3 == 0:
            couple = convexify_couple(couple, float(rng.choice([1.5, 2.0, 3.0])))
        values, _ = _unvalidated("D", couple, f, ts)
        for t, from_profile in zip(ts, values):
            expected = oracle_d_subsets(couple, f, t)
            value, dec = d_exact(couple, f, t)
            assert value == pytest.approx(expected, rel=1e-12)
            assert from_profile == pytest.approx(expected, rel=1e-12)
            assert dec.is_disjoint()
            assert check_decomposition(f, dec)


def test_d_exact_needs_lower_threshold_sets():
    # on (l2, l1) the best split puts the two small atoms in slot 0; a route
    # that kept only upper sets would miss it
    couple = Couple(space=_uniform(3), norm0=WeightedP(2.0), norm1=WeightedP(1.0))
    value, dec = d_exact(couple, [1.0, 1.0, 10.0], 0.8)
    assert value == pytest.approx(math.sqrt(2.0) + 8.0, rel=1e-15)
    assert np.array_equal(dec.a0.values, [1.0, 1.0, 0.0])
    assert np.array_equal(dec.a1.values, [0.0, 0.0, 10.0])


@pytest.mark.parametrize("n", [23, 200])
def test_d_between_k_and_2k_past_the_former_cap(n):
    rng = np.random.default_rng(n)
    sp = _rand_space(rng, n)
    couple = l1_linf_couple(sp)
    f = _rand_f(rng, n)
    ts = default_t_grid()
    dvals = profile("D", couple, f, ts).values
    kvals = np.array([k_exact_l1_linf(sp, f, float(t))[0] for t in ts])
    assert np.all(dvals >= kvals * (1 - 1e-12))
    assert np.all(dvals <= 2.0 * kvals * (1 + 1e-12))


# ---------------------------------------------------------------------------
# profiles and checks
# ---------------------------------------------------------------------------


def test_profile_shapes_and_invariants():
    rng = np.random.default_rng(37)
    sp = _rand_space(rng, 6)
    couple = l1_linf_couple(sp)
    f = _rand_f(rng, 6)
    ts = default_t_grid()
    for kind in ("K", "D"):
        prof = profile(kind, couple, f, ts)
        assert prof.values.shape == ts.shape
        assert np.all(np.diff(prof.values) >= -1e-9 * np.max(prof.values))
        # reported split norms recombine to the value
        recombo = prof.a0_norms + ts * prof.a1_norms
        assert np.allclose(recombo, prof.values, rtol=1e-9)
    with pytest.raises(DomainError):
        profile("Q", couple, f, ts)
    with pytest.raises(DomainError):
        profile("K", couple, f, [1.0, 0.5])


def test_profile_convexified_couple_uses_truncation_route():
    rng = np.random.default_rng(41)
    sp = _rand_space(rng, 5)
    couple = convexify_couple(l1_linf_couple(sp), 2.0)
    f = _rand_f(rng, 5)
    prof = profile("K", couple, f, default_t_grid())
    for i in (0, 30, 60):
        t = float(prof.t_grid[i])
        expected, _ = k_numeric(couple, f, t)
        assert prof.values[i] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("kind", ["K", "D"])
def test_table_moduli_split_f_at_every_grid_point(kind):
    # the fifth output of the table, per t, rebuilds a split whose norms are
    # the table's own, on every exponent shape
    rng = np.random.default_rng(113)
    ts = np.array([0.01, 0.3, 1.0, 7.0, 200.0])
    shapes = ((1.0, INF), (INF, 1.0), (2.0, INF), (INF, 3.0), (1.5, 2.5), (2.0, 2.0), (INF, INF))
    for p0, p1 in shapes:
        sp = _rand_space(rng, 6)
        couple = Couple(space=sp, norm0=WeightedP(p0), norm1=WeightedP(p1))
        for f in (_rand_f(rng, 6, scale=1.0), _rand_f(rng, 6, scale=1.0)):
            vals, a0n, a1n, _, u = kfunc._FUNCTIONALS[kind](couple, f, ts)
            assert u.shape == (ts.size, 6)
            for i in range(ts.size):
                dec = kfunc._split_from_modulus(sp, f, u[i])
                n0, n1 = norm(couple.norm0, dec.a0), norm(couple.norm1, dec.a1)
                assert check_decomposition(f, dec)
                assert n0 == pytest.approx(a0n[i], rel=1e-12, abs=1e-300), (p0, p1, i)
                assert n1 == pytest.approx(a1n[i], rel=1e-12, abs=1e-300), (p0, p1, i)
                assert n0 + ts[i] * n1 == pytest.approx(vals[i], rel=1e-12)
                if kind == "D":
                    assert dec.is_disjoint()


def test_k_values_takes_the_closed_form_on_l1_linf():
    rng = np.random.default_rng(43)
    ts = default_t_grid()
    for n in (1, 2, 5, 17):
        sp = _rand_space(rng, n)
        f = _rand_f(rng, n)
        f[0] = 0.0
        vals, a0n, a1n, gaps, _ = _k_values(l1_linf_couple(sp), f, ts)
        assert np.all(gaps == 0.0)
        for i, t in enumerate(ts):
            assert vals[i] == k_exact_l1_linf(sp, f, float(t))[0]
        assert np.allclose(a0n + ts * a1n, vals, rtol=1e-12)
        # (sup, l1) reaches the same closed form through K(t) = t K(1/t)
        swapped = Couple(space=sp, norm0=WeightedP(INF), norm1=WeightedP(1.0))
        svals, _, _, sgaps, _ = _k_values(swapped, f, ts)
        assert np.all(sgaps == 0.0)
        expected = [t * k_exact_l1_linf(sp, f, 1.0 / float(t))[0] for t in ts]
        assert np.allclose(svals, expected, rtol=1e-12)


def _finite_couple(space):
    return Couple(space=space, norm0=WeightedP(2.0), norm1=WeightedP(3.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda c, f, ts: profile("D", c, f, ts),
        lambda c, f, ts: profile("D", convexify_couple(c, 2.0), f, ts),
        lambda c, f, ts: profile("K", convexify_couple(c, 2.0), f, ts),
        lambda c, f, ts: profile("K", _finite_couple(c.space), f, ts),
        lambda c, f, ts: check_k_power_sandwich(c, f, 2.0, t_grid=ts),
        lambda c, f, ts: check_d_power_sandwich(c, f, 2.0, t_grid=ts),
        lambda c, f, ts: k_order_dominates(convexify_couple(c, 2.0), f, f[:3], ts),
        lambda c, f, ts: k_order_dominates(convexify_couple(c, 2.0), f[:3], f, ts),
    ],
    ids=[
        "profile-D",
        "profile-D-convexified",
        "profile-K-convexified",
        "profile-K-finite",
        "k-power-sandwich",
        "d-power-sandwich",
        "k-order-first",
        "k-order-second",
    ],
)
def test_wrong_length_vector_raises_dimension_mismatch(call):
    couple = l1_linf_couple(_uniform(3))
    with pytest.raises(DimensionMismatch):
        call(couple, np.array([4.0, 3.0, 2.0, 1.0]), default_t_grid(0.1, 10.0, 5))


def test_check_k_d_sandwich_random_instances():
    rng = np.random.default_rng(43)
    worst = 1.0
    for _ in range(50):
        n = int(rng.integers(1, 10))
        sp = _rand_space(rng, n)
        f = _rand_f(rng, n)
        report = check_k_d_sandwich(l1_linf_couple(sp), f)
        assert report.ok, report.violations
        worst = max(worst, report.max_ratio)
    assert worst <= 2.0 + 1e-9


def _overflowing_pair():
    # weights 1e3 on moduli near the float ceiling: K and D overflow at large t
    couple = l1_linf_couple(MeasureSpace([1e3] * 3))
    return couple, np.array([1e307, 5e306, 2e306])


def test_check_k_d_sandwich_counts_a_non_finite_profile_as_a_violation():
    couple, f = _overflowing_pair()
    with np.errstate(all="ignore"):
        report = check_k_d_sandwich(couple, f)
    # every comparison with the NaN ratio is False, so no other rule fires
    assert math.isnan(report.max_ratio)
    assert [side for _, side, _ in report.violations] == ["non-finite value"]
    assert not report.ok


@pytest.mark.parametrize("kind", ["K", "D"])
def test_an_overflowing_profile_is_a_domain_error_naming_the_first_t(kind):
    couple, f = _overflowing_pair()
    ts = default_t_grid()
    with np.errstate(all="ignore"):
        values, _ = _unvalidated(kind, couple, f, ts)
        first = ts[np.argmax(~np.isfinite(values))]
        with pytest.raises(DomainError, match=f"^{kind} profile overflows") as info:
            profile(kind, couple, f, ts)
        # a stack names the first row that is not finite, and that row's t,
        # the way a failed solve names its row
        with pytest.raises(DomainError) as stacked:
            profile(kind, couple, np.stack([f / 1e10, f]), ts)
        with pytest.raises(DomainError) as first_row:
            profile(kind, couple, np.stack([f, f / 1e10, f]), ts)
    assert f"t = {first:g}" in str(info.value)
    assert str(stacked.value) == f"row 1: {info.value}"
    assert str(first_row.value) == f"row 0: {info.value}"


def test_check_d_power_sandwich_frozen_example():
    sp = _uniform(2)
    couple = l1_linf_couple(sp)
    report = check_d_power_sandwich(couple, [2.0, 1.0], 2.0, t_grid=[1.0])
    assert report.ok
    assert report.lower[0] == pytest.approx(2.0, rel=1e-12)
    assert report.middle[0] == pytest.approx(2.0, rel=1e-12)
    assert report.bound == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_check_d_power_sandwich_random():
    rng = np.random.default_rng(47)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        sp = _rand_space(rng, n)
        f = _rand_f(rng, n)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        report = check_d_power_sandwich(l1_linf_couple(sp), f, p)
        assert report.ok, report.violations
        assert report.max_ratio <= report.bound + 1e-9


def test_check_k_power_sandwich_frozen_example_and_random():
    sp = _uniform(2)
    couple = l1_linf_couple(sp)
    report = check_k_power_sandwich(couple, [2.0, 1.0], 2.0, t_grid=[1.0])
    assert report.ok
    assert report.lower[0] == pytest.approx(2.0, rel=1e-6)
    assert report.middle[0] == pytest.approx(2.0, rel=1e-6)

    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        sp = _rand_space(rng, n)
        f = _rand_f(rng, n)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        report = check_k_power_sandwich(l1_linf_couple(sp), f, p)
        assert report.ok, report.violations
        assert report.corollary_ok
        assert report.max_ratio <= report.bound + 2e-6


def test_k_power_sandwich_reports_a_shrunk_k_as_a_violation(monkeypatch):
    # K on the convexified couple shrunk by a factor 1 - 1e-7 drops below
    # K(t, |f|^p)^(1/p) far beyond both certified gaps: a counterexample,
    # not an inconclusive solver flag
    couple = l1_linf_couple(_uniform(5))
    k_values = kfunc._k_values

    def shrunk(c, fv, ts):
        vals, a0, a1, gaps, u = k_values(c, fv, ts)
        if c.norm0 != couple.norm0:
            vals = vals * (1.0 - 1e-7)
        return vals, a0, a1, gaps, u

    honest = check_k_power_sandwich(couple, [5.0, 3.0, 2.0, 1.0, 0.5], 2.0)
    assert honest.ok and honest.violations == () and honest.solver_flags == ()
    monkeypatch.setitem(kfunc._FUNCTIONALS, "K", shrunk)
    report = check_k_power_sandwich(couple, [5.0, 3.0, 2.0, 1.0, 0.5], 2.0)
    assert not report.ok
    assert len(report.violations) == 55 and report.solver_flags == ()
    assert {side for _, side, _ in report.violations} == {"below lower"}


def _fixed_k_table(couple, base, base_gap, middle):
    """A K table on a one-point grid: base with gap base_gap on ``couple``,
    middle with gap 0 on any other couple."""

    def table(c, fv, ts):
        vals, gap = (base, base_gap) if c is couple else (middle, 0.0)
        return np.array([vals]), np.zeros(1), np.zeros(1), np.array([gap]), None

    return table


def test_k_power_sandwich_takes_the_base_gap_in_root_units(monkeypatch):
    # K(1, |f|^3) = 1000 with certified gap 1e-3 puts K in [999.999, 1000]
    # and its cube root in [9.9999967, 10]; a middle 1e-4 below 10 lies
    # 9.7e-5 below that range.  Added in K's own units the gap (1e-3) made
    # it a solver flag; in root units (3.3e-6) it is a violation
    couple = l1_linf_couple(_uniform(3))
    lower = 1000.0 ** (1.0 / 3.0)
    f, ts = [3.0, 2.0, 1.0], [1.0]
    table = _fixed_k_table(couple, 1000.0, 1e-3, lower * (1.0 - 1e-5))
    monkeypatch.setitem(kfunc._FUNCTIONALS, "K", table)
    report = check_k_power_sandwich(couple, f, 3.0, t_grid=ts)
    assert not report.ok and report.solver_flags == ()
    [(t, side, worst)] = report.violations
    assert (t, side) == (1.0, "below lower")
    assert worst == pytest.approx(1e-4, rel=1e-9)
    # a break of 1e-6 lies inside the root-unit gap: a flag, not a violation
    table = _fixed_k_table(couple, 1000.0, 1e-3, lower * (1.0 - 1e-7))
    monkeypatch.setitem(kfunc._FUNCTIONALS, "K", table)
    report = check_k_power_sandwich(couple, f, 3.0, t_grid=ts)
    assert report.ok and report.violations == ()
    [(t, worst)] = report.solver_flags
    assert t == 1.0 and worst == pytest.approx(1e-6, rel=1e-9)


def test_k_d_sandwich_flags_a_break_inside_the_certified_k_gap(monkeypatch):
    # K = 1 with gap 1e-6 at every t: D breaks each side once by 1e-7, inside
    # the gap (a solver flag), and once by 1e-5, past it (a violation)
    couple = l1_linf_couple(_uniform(3))
    ts = default_t_grid(0.1, 10.0, 4)
    dv = np.array([1.0 - 1e-7, 1.0 - 1e-5, 2.0 + 1e-7, 2.0 + 1e-5])
    ones = np.ones(4)
    monkeypatch.setitem(
        kfunc._FUNCTIONALS, "K", lambda c, fv, grid: (ones, ones, ones, 1e-6 * ones, None)
    )
    monkeypatch.setitem(kfunc._FUNCTIONALS, "D", lambda c, fv, grid: (dv,))
    report = check_k_d_sandwich(couple, [3.0, 2.0, 1.0], t_grid=ts)
    assert not report.ok
    assert [(t, side) for t, side, _ in report.violations] == [
        (ts[1], "D below K"), (ts[3], "D above 2K")
    ]
    assert [t for t, _ in report.solver_flags] == [ts[0], ts[2]]
    breaks = [b for *_, b in report.violations] + [b for _, b in report.solver_flags]
    assert breaks == pytest.approx([1e-5, 1e-5, 1e-7, 1e-7], rel=1e-6)


def _loop_sandwich_entries(ts, kv, dv, slack):
    """The per-t loop of check_k_d_sandwich before it was vectorised."""
    violations = []
    for i, t in enumerate(ts):
        if dv[i] < kv[i] - slack[i]:
            violations.append((float(t), "D below K", float(kv[i] - dv[i])))
        if dv[i] > 2.0 * kv[i] + 2.0 * slack[i]:
            violations.append((float(t), "D above 2K", float(dv[i] - 2.0 * kv[i])))
    return violations


def _loop_power_entries(ts, lower, middle, bound, soft, hard):
    """The per-t loop of _power_sandwich before it was vectorised."""
    violations, flags = [], []
    for i, t in enumerate(ts):
        low_break = lower[i] - middle[i]
        high_break = middle[i] - bound * lower[i]
        worst = max(low_break, high_break)
        if worst > soft[i]:
            side = "below lower" if low_break >= high_break else "above upper"
            violations.append((float(t), side, float(worst)))
        elif worst > hard[i]:
            flags.append((float(t), float(worst)))
    return violations, flags


@pytest.mark.parametrize("seed", range(6))
def test_vectorised_sandwich_comparisons_keep_the_loops_entries(monkeypatch, seed):
    # crafted tables break both sides, land between the hard and the soft
    # tolerance, and hold NaN and inf values; the entries, their order and
    # their floats must equal the per-t loops'
    rng = np.random.default_rng(seed)
    couple = l1_linf_couple(_uniform(3))
    ts = default_t_grid()
    p = 2.0
    base = 10.0 ** rng.uniform(-3, 3, ts.size)
    lower = base ** (1.0 / p)
    scale = np.where(rng.random(ts.size) < 0.5, 1.0, rng.uniform(0.5, 1.6, ts.size))
    middle = lower * scale
    # just outside 1 and sqrt(2): inside the soft tolerance, past the hard one
    near = rng.random(ts.size) < 0.2
    middle[near] = lower[near] * (1.0 - 2e-9)
    gaps = np.where(rng.random(ts.size) < 0.5, 1e-8 * lower, 0.0)
    if seed % 2:
        middle[[3, 7]] = [np.nan, np.inf]
        base[11] = np.inf
        lower = base ** (1.0 / p)
    tables = {"base": (base, gaps), "conv": (middle, gaps)}

    def table(c, fv, grid):
        vals, g = tables["base" if c is couple else "conv"]
        zero = np.zeros_like(vals)
        return vals, zero, zero, g, None

    monkeypatch.setitem(kfunc._FUNCTIONALS, "K", table)
    with np.errstate(invalid="ignore", over="ignore"):
        report = check_k_power_sandwich(couple, [3.0, 2.0, 1.0], p, t_grid=ts)
        hard = kfunc.SANDWICH_TOL * np.maximum(lower, 1e-300)
        # the base gap in root units, capped at the gap; the middle's as it is
        root_gap = np.minimum(lower - np.maximum(base - gaps, 0.0) ** (1.0 / p), gaps)
        violations, flags = _loop_power_entries(
            ts, lower, middle, 2.0 ** (1.0 - 1.0 / p), hard + root_gap + gaps, hard
        )
        if seed % 2:
            violations.append((float("nan"), "non-finite value", math.inf))
        assert repr(report.violations) == repr(tuple(violations))
        assert repr(report.solver_flags) == repr(tuple(flags))
        assert {side for _, side, _ in violations} >= {"below lower", "above upper"}
        assert flags

        # check_k_d_sandwich: K from the base table, D from 1.5 times the other
        dv = middle * 1.5
        monkeypatch.setitem(kfunc._FUNCTIONALS, "D", lambda c, fv, grid: (dv,))
        report = check_k_d_sandwich(couple, [3.0, 2.0, 1.0], t_grid=ts)
        slack = kfunc.SANDWICH_TOL * np.maximum(base, 1e-300) + gaps
        violations = _loop_sandwich_entries(ts, base, dv, slack)
        if not (np.all(np.isfinite(base)) and np.all(np.isfinite(dv))):
            violations.append((float("nan"), "non-finite value", math.inf))
    assert repr(report.violations) == repr(tuple(violations))
    assert {side for _, side, _ in violations} >= {"D below K", "D above 2K"}


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------


def _substochastic(rng, n, sigma=None):
    q = rng.random((n, n))
    cap = max(np.max(np.sum(q, axis=0)), np.max(np.sum(q, axis=1)))
    sigma = float(rng.uniform(0.3, 1.0)) if sigma is None else sigma
    return q * (sigma / cap)


def test_k_order_dominates_on_averaged_pairs():
    rng = np.random.default_rng(59)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        sp = _uniform(n)
        couple = l1_linf_couple(sp)
        f = np.abs(_rand_f(rng, n))
        g = _substochastic(rng, n) @ f
        assert k_order_dominates(couple, f, g)
        # scaling g well past f breaks the ordering
        assert not k_order_dominates(couple, f, g + np.full(n, np.max(f) * n))


def test_k_order_matches_prefix_sums_on_uniform_weights():
    from caldera.majorize import weak_submajorizes

    rng = np.random.default_rng(61)
    agree = 0
    for _ in range(40):
        n = int(rng.integers(2, 8))
        sp = _uniform(n)
        couple = l1_linf_couple(sp)
        f = np.abs(_rand_f(rng, n, scale=1.0))
        g = np.abs(_rand_f(rng, n, scale=1.0))
        expected = weak_submajorizes(f, g)
        assert k_order_dominates(couple, f, g) == expected
        agree += 1
    assert agree == 40


def _order_by_single_profiles(couple, f, g, ts):
    """The ordering rule on two separate one-vector profiles."""
    kf, gap_f = _unvalidated("K", couple, f, ts)
    kg, gap_g = _unvalidated("K", couple, g, ts)
    tol = kfunc.ORDER_GRID_SLACK * np.maximum(kf, 1e-300) + gap_f + gap_g
    return bool(np.all(kg <= kf + tol))


def test_k_order_decisions_match_one_vector_profiles():
    rng = np.random.default_rng(97)
    ts = default_t_grid()
    decisions = set()
    for i in range(120):
        n = int(rng.integers(1, 12))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        couple = convexify_couple(l1_linf_couple(_uniform(n)), p)
        f = _rand_f(rng, n)
        g = _substochastic(rng, n) @ f
        if i % 2:
            # unordered, or ordered only barely, on most odd draws
            g = g * float(rng.uniform(1.0, 3.0)) + float(rng.uniform(0.0, 0.5)) * np.abs(f)
        expected = _order_by_single_profiles(couple, f, g, ts)
        assert k_order_dominates(couple, f, g) == expected
        failure = kfunc.k_order_failure(couple, f, g)
        assert (failure == "") == expected
        if not expected:
            assert failure.startswith("pair is not ordered on the convexified couple")
        decisions.add(expected)
    assert decisions == {True, False}


def test_k_order_convexified_couple_grid_route(monkeypatch):
    # grid-ordered but |g|^2 is not weakly submajorized by |f|^2, so the
    # exact test declines and the K grid decides
    couple = convexify_couple(l1_linf_couple(_uniform(3)), 2.0)
    f = np.array([1.28, 1.61, 0.48])
    g = np.array([0.12, 1.33, 1.59])
    assert not kfunc.p_majorization_orders(couple, f, g)
    calls = []
    grid_profile = kfunc.profile

    def counted(*args, **kwargs):
        calls.append(args[0])
        return grid_profile(*args, **kwargs)

    monkeypatch.setattr(kfunc, "profile", counted)
    assert k_order_dominates(couple, f, g)
    assert calls == ["K"]


def test_p_majorization_accepts_only_grid_ordered_pairs():
    # ties, zeros, n = 1, p near 1 and large, and moduli over 1e-150..1e150,
    # whose scaled powers underflow; each accepted pair must pass the grid
    rng = np.random.default_rng(131)
    ts = default_t_grid()
    accepted = rejected = 0
    for i in range(600):
        n = int(rng.integers(1, 10))
        p = float(rng.choice([1.001, 1.5, 2.0, 3.0, 40.0, 120.0]))
        lo, hi = np.sort(rng.uniform(-150.0, 150.0, size=2))
        f = 10.0 ** rng.uniform(lo, hi, size=n) * rng.choice([-1.0, 1.0], size=n)
        if n > 1 and rng.random() < 0.3:
            f[rng.integers(0, n)] = 0.0
        if n > 1 and rng.random() < 0.3:
            f[rng.integers(0, n)] = f[0]
        g = (
            rng.permutation(f),
            _substochastic(rng, n) @ f,
            f * rng.uniform(0.9, 1.1, size=n),
            10.0 ** rng.uniform(lo, hi, size=n),
        )[i % 4]
        couple = convexify_couple(l1_linf_couple(_uniform(n)), p)
        if not kfunc.p_majorization_orders(couple, f, g):
            rejected += 1
            continue
        accepted += 1
        broken, _ = kfunc.k_order_breaks(profile("K", couple, np.stack([f, g]), ts))
        assert not broken.any(), (i, n, p)
    assert accepted > 300 and rejected > 100


def test_p_majorization_applies_to_uniform_lp_sup_couples_only():
    f, g = np.array([3.0, 1.0]), np.array([2.0, 1.0])
    base = l1_linf_couple(_uniform(2))
    assert kfunc.p_majorization_orders(convexify_couple(base, 2.0), f, g)
    assert kfunc.p_majorization_orders(
        Couple(space=MeasureSpace([4.0, 4.0]), norm0=WeightedP(3.0), norm1=WeightedP(INF)),
        f,
        g,
    )
    for couple in (
        base,
        convexify_couple(l1_linf_couple(MeasureSpace([1.0, 2.0])), 2.0),
        Couple(space=_uniform(2), norm0=WeightedP(2.0), norm1=WeightedP(3.0)),
        Couple(space=_uniform(2), norm0=WeightedP(INF), norm1=WeightedP(2.0)),
    ):
        assert not kfunc.p_majorization_orders(couple, f, g)
    # both vectors zero: the scaled powers are NaN, so the grid decides
    conv = convexify_couple(base, 2.0)
    assert not kfunc.p_majorization_orders(conv, np.zeros(2), np.zeros(2))
    assert k_order_dominates(conv, np.zeros(2), np.zeros(2))
