from __future__ import annotations

import itertools
import math

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
    _k_numeric_full,
    _k_truncation,
    _k_values,
)
from caldera.lattice import norm, weighted_p_norm


def _uniform(n):
    return MeasureSpace(np.ones(n))


def l1_linf_couple(space):
    return Couple(space=space, norm0=WeightedP(1.0), norm1=WeightedP(INF))


def _rand_space(rng, n):
    return MeasureSpace(10.0 ** rng.uniform(-1, 1, size=n))


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
        return float(np.sum(w * np.maximum(a - c, 0.0)) + t * c)

    top = float(np.max(a, initial=0.0))
    if top == 0.0:
        return 0.0
    grid = np.linspace(0.0, top, levels)
    vals = [obj(c) for c in grid]
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, levels - 1)]
    fine = np.linspace(lo, hi, 2001)
    best = min(obj(c) for c in fine)
    # candidate kinks: the moduli themselves are always worth probing
    best = min(best, min(obj(c) for c in a))
    return min(best, vals[i])


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
        approx, dec = k_numeric(couple, f, t)
        assert approx == pytest.approx(exact, rel=1e-6, abs=1e-12)
        assert check_decomposition(f, dec)


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
        value, _, gap = _k_numeric_full(couple, f, t)
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
        prof = profile("D", couple, f, ts, validate=False)
        for t, from_profile in zip(ts, prof.values):
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


def test_k_values_takes_the_closed_form_on_l1_linf():
    rng = np.random.default_rng(43)
    ts = default_t_grid()
    for n in (1, 2, 5, 17):
        sp = _rand_space(rng, n)
        f = _rand_f(rng, n)
        f[0] = 0.0
        vals, a0n, a1n, gaps = _k_values(l1_linf_couple(sp), f, ts)
        assert np.all(gaps == 0.0)
        for i, t in enumerate(ts):
            assert vals[i] == k_exact_l1_linf(sp, f, float(t))[0]
        assert np.allclose(a0n + ts * a1n, vals, rtol=1e-12)
        # (sup, l1) reaches the same closed form through K(t) = t K(1/t)
        swapped = Couple(space=sp, norm0=WeightedP(INF), norm1=WeightedP(1.0))
        svals, _, _, sgaps = _k_values(swapped, f, ts)
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


def test_k_order_convexified_couple_grid_route():
    rng = np.random.default_rng(67)
    sp = _uniform(6)
    couple = convexify_couple(l1_linf_couple(sp), 2.0)
    f = np.abs(_rand_f(rng, 6))
    g = 0.5 * (_substochastic(rng, 6) @ f)
    assert k_order_dominates(couple, f, g)
