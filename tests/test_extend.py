from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from caldera import (
    Couple,
    DimensionMismatch,
    DomainError,
    INF,
    MeasureSpace,
    NumericalFailure,
    WeightedP,
    generate_instance,
)
from caldera import extend, kfunc
from caldera.extend import (
    LiftResult,
    SublinearMajorant,
    apply_majorant,
    check_minkowski,
    check_sublinear,
    default_alpha,
    greedy_hb_extension_row,
    holder_extension_row,
    holder_rows,
    lift_certified,
    lift_operator,
    lift_violations,
    verify_lift,
)
from caldera.kfunc import (
    check_k_d_sandwich,
    d_exact,
    default_t_grid,
    k_order_dominates,
    p_majorization_orders,
    profile,
)
from caldera.lattice import convexify_couple, dual_p_norm, norm, norm_values, vector
from caldera.majorize import (
    MAX_OPERATOR_SIZE,
    MatrixOperator,
    construct_positive_operator,
)


def _uniform(n):
    return MeasureSpace(np.ones(n))


def _identity_majorant(n, alpha, p):
    op = MatrixOperator(space=_uniform(n), entries=np.eye(n), positive=True)
    return SublinearMajorant(operator=op, alpha=alpha, p=p)


def base_couple(n):
    return Couple(space=_uniform(n), norm0=WeightedP(1.0), norm1=WeightedP(INF))


def _k_ordered_pair(rng, n, signed=True):
    f = 10.0 ** rng.uniform(-1.5, 1.5, size=n)
    if signed:
        f = f * rng.choice([-1.0, 1.0], size=n)
    q = rng.random((n, n))
    cap = max(np.max(np.sum(q, axis=0)), np.max(np.sum(q, axis=1)))
    g = (q / cap) @ f * float(rng.uniform(0.2, 0.95))
    return f, g


# ---------------------------------------------------------------------------
# majorant
# ---------------------------------------------------------------------------


def test_apply_majorant_identity_operator():
    H = _identity_majorant(3, alpha=2.0, p=2.0)
    out = apply_majorant(H, [1.0, -2.0, 0.5])
    assert np.allclose(out.values, math.sqrt(2.0) * np.array([1.0, 2.0, 0.5]))
    assert np.array_equal(apply_majorant(H, np.zeros(3)).values, np.zeros(3))


def test_apply_majorant_is_even_and_nonnegative():
    rng = np.random.default_rng(3)
    op = MatrixOperator(space=_uniform(4), entries=rng.random((4, 4)), positive=True)
    H = SublinearMajorant(operator=op, alpha=default_alpha(1.5), p=1.5)
    h = rng.normal(size=4) * 3.0
    a = apply_majorant(H, h).values
    b = apply_majorant(H, -h).values
    assert np.allclose(a, b, rtol=1e-13)
    assert np.all(a >= 0.0)


def test_majorant_rejects_bad_parameters():
    op = MatrixOperator(space=_uniform(2), entries=np.eye(2), positive=True)
    plain = MatrixOperator(space=_uniform(2), entries=np.eye(2))
    with pytest.raises(DomainError):
        SublinearMajorant(operator=plain, alpha=1.0, p=2.0)
    with pytest.raises(DomainError):
        SublinearMajorant(operator=op, alpha=0.0, p=2.0)
    with pytest.raises(DomainError):
        SublinearMajorant(operator=op, alpha=1.0, p=1.0)
    with pytest.raises(DomainError):
        SublinearMajorant(operator=op, alpha=1.0, p=INF)


def test_pipeline_majorant_reproduces_target_moduli():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        sp = _uniform(n)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        alpha = default_alpha(p)
        f, g = _k_ordered_pair(rng, n)
        T = construct_positive_operator(sp, alpha * np.abs(f) ** p, np.abs(g) ** p)
        H = SublinearMajorant(operator=T, alpha=alpha, p=p)
        out = apply_majorant(H, f).values
        assert np.max(np.abs(out - np.abs(g))) <= 1e-10 * (1.0 + np.max(np.abs(g)))


# ---------------------------------------------------------------------------
# componentwise inequalities
# ---------------------------------------------------------------------------


def test_check_minkowski_trivial_cases():
    rng = np.random.default_rng(7)
    op = MatrixOperator(space=_uniform(3), entries=rng.random((3, 3)), positive=True)
    h1 = rng.normal(size=3)
    report = check_minkowski(op, h1, np.zeros(3), 2.0)
    assert report.ok
    ident = MatrixOperator(space=_uniform(3), entries=np.eye(3), positive=True)
    report = check_minkowski(ident, [1.0, -2.0, 3.0], [4.0, 5.0, -6.0], 1.5)
    assert report.ok and report.violations == ()


def test_check_minkowski_random_batch():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        op = MatrixOperator(
            space=_uniform(n), entries=rng.random((n, n)), positive=True
        )
        h1 = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
        h2 = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
        p = float(rng.uniform(1.01, 4.0))
        assert check_minkowski(op, h1, h2, p).ok


def test_check_minkowski_requires_positive_operator():
    op = MatrixOperator(space=_uniform(2), entries=np.eye(2))
    with pytest.raises(DomainError):
        check_minkowski(op, [1.0, 0.0], [0.0, 1.0], 2.0)


def test_check_minkowski_fails_closed_when_the_majorant_overflows():
    ones = MatrixOperator(space=_uniform(3), entries=np.ones((3, 3)), positive=True)
    h = [1e200, 1.0, 1.0]
    with np.errstate(all="ignore"):
        report = check_minkowski(ones, h, h, 3.0)
    # |h|^3 overflows, so each excess is inf - inf = NaN
    assert not report.ok
    assert [i for i, _ in report.violations] == [0, 1, 2]
    assert all(math.isnan(excess) for _, excess in report.violations)


@pytest.mark.parametrize("h", [[3, -1, 0, 2], np.array([3, -1, 0, 2])])
def test_majorant_values_of_a_list_or_an_int_array_equal_the_float_path(h):
    rng = np.random.default_rng(19)
    op = MatrixOperator(space=_uniform(4), entries=rng.random((4, 4)), positive=True)
    H = SublinearMajorant(operator=op, alpha=default_alpha(1.5), p=1.5)
    hf = np.array([3.0, -1.0, 0.0, 2.0])
    assert np.array_equal(H.values(h), H.values(hf))
    assert np.array_equal(H.values([h, h]), H.values(np.stack([hf, hf])))


def test_majorant_values_leave_their_input_alone():
    H = _identity_majorant(3, alpha=2.0, p=2.0)
    h = np.array([[1.0, -2.0, 0.5]])
    H.values(h)
    assert np.array_equal(h, [[1.0, -2.0, 0.5]])


def test_check_sublinear_samples():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        op = MatrixOperator(
            space=_uniform(n), entries=rng.random((n, n)), positive=True
        )
        p = float(rng.choice([1.5, 2.0, 3.0]))
        H = SublinearMajorant(operator=op, alpha=default_alpha(p), p=p)
        report = check_sublinear(H, sample_count=500, seed=17)
        assert report.ok
        assert report.checked == 500


def test_check_sublinear_memory_does_not_grow_with_the_sample_count():
    n = 256
    rng = np.random.default_rng(3)
    op = MatrixOperator(space=_uniform(n), entries=rng.random((n, n)), positive=True)
    H = SublinearMajorant(operator=op, alpha=2.0, p=2.0)
    tracemalloc.start()
    try:
        report = check_sublinear(H, sample_count=10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and report.checked == 10_000
    # one (10000, 256) float64 array alone is 20.5 MB
    assert peak < 8e6


def test_check_sublinear_reports_non_finite_rows_by_their_draw_index(monkeypatch):
    n, samples, seed = 2, 30, 5
    H = _identity_majorant(n, alpha=2.0, p=2.0)
    monkeypatch.setattr(extend, "AUDIT_BLOCK", 4 * (2 * n + 1))  # 4 samples a block
    draw = _one_shot_draw(samples, 2 * n + 1, seed)
    h1, h2, c = draw[:, :n], draw[:, n:-1], draw[:, -1:]
    # rows 6 and 29 get four infinite H values, which the subtractions turn
    # into NaN; row 17 only an infinite H(h2), which makes H(h1 + h2) look
    # subadditive
    marked = {r.tobytes() for k in (6, 29) for r in (h1[k], c[k] * h1[k], h2[k])}
    marked |= {(h1[k] + h2[k]).tobytes() for k in (6, 29)} | {h2[17].tobytes()}
    exact = SublinearMajorant.values

    def inf_on_marked_rows(self, h):
        out = exact(self, h)
        out[np.array([r.tobytes() in marked for r in h], dtype=bool)] = math.inf
        return out

    monkeypatch.setattr(SublinearMajorant, "values", inf_on_marked_rows)
    with np.errstate(invalid="ignore"):
        report = check_sublinear(H, sample_count=samples, seed=seed)
    assert report.violations == (6, 17, 29)
    assert not report.ok


# ---------------------------------------------------------------------------
# row extensions
# ---------------------------------------------------------------------------


def test_holder_row_frozen_example():
    op = MatrixOperator(space=_uniform(1), entries=np.array([[1.0]]), positive=True)
    H = SublinearMajorant(operator=op, alpha=2.0, p=2.0)
    g_i = 3.0 * math.sqrt(2.0)
    ell = holder_extension_row(H, [3.0], g_i, 0)
    assert ell[0] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert ell @ [3.0] == pytest.approx(g_i, rel=1e-12)
    # domination against the row of H on a sweep of scalars
    for h in np.linspace(-5, 5, 41):
        assert abs(ell[0] * h) <= math.sqrt(2.0) * abs(h) + 1e-12


def test_holder_row_zero_prescription_and_errors():
    H = _identity_majorant(3, alpha=2.0, p=2.0)
    assert np.array_equal(holder_extension_row(H, [1.0, 2.0, 3.0], 0.0, 1), np.zeros(3))
    with pytest.raises(DomainError):
        # row 0 of the identity never sees f's mass at other atoms
        holder_extension_row(H, [0.0, 2.0, 3.0], 1.0, 0)
    with pytest.raises(DomainError):
        holder_extension_row(H, [1.0, 0.0, 0.0], 10.0, 0)


def test_holder_row_exactness_and_domination_random():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        entries = rng.random((n, n)) + 0.05
        op = MatrixOperator(space=_uniform(n), entries=entries, positive=True)
        H = SublinearMajorant(operator=op, alpha=default_alpha(p), p=p)
        f = rng.normal(size=n) * 10.0 ** rng.uniform(-1, 1)
        i = int(rng.integers(0, n))
        hi_f = apply_majorant(H, f).values[i]
        g_i = float(rng.uniform(-1.0, 1.0)) * hi_f
        ell = holder_extension_row(H, f, g_i, i)
        assert ell @ f == pytest.approx(g_i, rel=1e-10, abs=1e-14)
        hs = rng.normal(size=(200, n)) * 10.0 ** rng.uniform(-2, 2, size=(200, 1))
        powered = H.alpha * np.abs(hs) ** p
        bound = (powered @ entries[i]) ** (1.0 / p)
        assert np.all(np.abs(hs @ ell) <= bound * (1 + 1e-9) + 1e-300)


def test_greedy_row_zero_prescription_is_exactly_zero():
    # the former greedy route's name is kept as an alias of the one row
    assert greedy_hb_extension_row is holder_extension_row
    H = _identity_majorant(4, alpha=2.0, p=2.0)
    out = greedy_hb_extension_row(H, [1.0, -2.0, 3.0, 0.5], 0.0, 2)
    assert np.array_equal(out, np.zeros(4))


def test_row_respects_null_directions():
    n = 4
    entries = np.zeros((n, n))
    entries[1, 0] = 0.7
    entries[1, 2] = 0.2
    op = MatrixOperator(space=_uniform(n), entries=entries, positive=True)
    H = SublinearMajorant(operator=op, alpha=2.0, p=2.0)
    f = np.array([2.0, 5.0, -1.0, 3.0])
    hi_f = apply_majorant(H, f).values[1]
    ell = holder_extension_row(H, f, 0.5 * hi_f, 1)
    # coordinates outside the row support cannot carry weight
    assert ell[1] == 0.0 and ell[3] == 0.0
    assert ell @ f == pytest.approx(0.5 * hi_f, rel=1e-9)


def test_row_domination_certificate_on_sparse_rows():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        entries = rng.random((n, n)) * rng.integers(0, 2, size=(n, n))
        entries[np.arange(n), np.arange(n)] += 0.01
        op = MatrixOperator(space=_uniform(n), entries=entries, positive=True)
        H = SublinearMajorant(operator=op, alpha=default_alpha(p), p=p)
        f = rng.normal(size=n) * 10.0 ** rng.uniform(-1, 1)
        i = int(rng.integers(0, n))
        hi_f = apply_majorant(H, f).values[i]
        if hi_f == 0.0:
            continue
        g_i = float(rng.uniform(-1.0, 1.0)) * hi_f
        ell = holder_extension_row(H, f, g_i, i)
        hs = rng.normal(size=(500, n)) * 10.0 ** rng.uniform(-2, 2, size=(500, 1))
        powered = H.alpha * np.abs(hs) ** p
        bound = (powered @ entries[i]) ** (1.0 / p)
        assert np.all(np.abs(hs @ ell) <= bound * (1 + 1e-8) + 1e-300)


def test_row_with_a_subnormal_weight_certifies_with_a_finite_dual_norm():
    # the dual-norm weight w^(-q/p) of the subnormal entry is past the float range
    entries = np.array([[0.5, 5e-324, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    op = MatrixOperator(space=_uniform(3), entries=entries, positive=True)
    H = SublinearMajorant(operator=op, alpha=2.0, p=2.0)
    f = np.array([1.0, 1e-3, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g_0 = apply_majorant(H, f).values[0]
        ell = holder_extension_row(H, f, g_0, 0)
        rho = dual_p_norm(H.row_weights(0), ell, 2.0)
    assert math.isfinite(rho) and rho <= 1.0 + extend.ROW_RESCALE_TOL
    assert ell @ f == pytest.approx(g_0, rel=1e-15)


def test_nan_row_certificate_fails_closed(monkeypatch):
    H = _identity_majorant(3, alpha=2.0, p=2.0)
    monkeypatch.setattr(
        extend, "dual_p_norm", lambda w, z, p: np.full(z.shape[:-1], math.nan)
    )
    with pytest.raises(NumericalFailure, match="row 1: domination certificate"):
        holder_extension_row(H, [1.0, 2.0, 3.0], 1.0, 1)
    with pytest.raises(NumericalFailure, match="row 0: domination certificate"):
        lift_operator(base_couple(2), [2.0, 0.0], [1.0, 1.0], 2.0)


def _one_shot_holder_rows(majorant, f, g, rows, slack):
    """The Holder rows in one (len(rows), n) pass: the oracle of the blocks."""
    p = majorant.p
    w = majorant.alpha * majorant.operator.entries[rows]
    a = np.abs(f)
    denom = (w * a**p).sum(axis=-1)
    attainable = denom ** (1.0 / p)
    target = np.where(np.abs(g) > attainable, np.copysign(attainable, g), g)[:, None]
    live = (g != 0.0)[:, None]
    safe = np.where(live, denom[:, None], 1.0)
    ell = np.where(live, target * w * a ** (p - 1.0) * np.sign(f) / safe, 0.0)
    rho = dual_p_norm(np.where(w > 0.0, w, 1.0), ell, p)
    return ell / np.maximum(rho, 1.0)[:, None]


@pytest.mark.parametrize(
    "n, p, per_block", [(37, 1.5, 5), (64, 2.0, 7), (129, 3.0, 32)]
)
def test_blocked_holder_rows_equal_the_one_shot_rows(monkeypatch, n, p, per_block):
    inst = generate_instance(4, n, p=p, k_ordered=True)
    lift = lift_operator(inst.couple, inst.f, inst.g, p, audit_samples=1)
    fv, gv = np.asarray(inst.f), np.asarray(inst.g)
    gv[3] = 0.0  # a zero row among the blocks
    rows = np.random.default_rng(n).permutation(n)
    slack = 0.5 * extend.RESIDUAL_BUDGET * (1.0 + float(np.max(np.abs(gv))))
    expected = _one_shot_holder_rows(lift.majorant, fv, gv[rows], rows, slack)
    monkeypatch.setattr(extend, "AUDIT_BLOCK", per_block * n)
    got = holder_rows(lift.majorant, fv, gv[rows], rows, slack=slack)
    assert -(-n // per_block) >= 2
    assert np.array_equal(got, expected)
    assert not got[np.flatnonzero(rows == 3)].any()


def test_blocked_holder_rows_raise_the_first_domain_error_before_any_failure(
    monkeypatch,
):
    n = 12
    H = _identity_majorant(n, alpha=2.0, p=2.0)
    f = np.arange(1.0, n + 1.0)
    g = apply_majorant(H, f).values.copy()
    monkeypatch.setattr(extend, "AUDIT_BLOCK", 3 * n)  # 3 rows a block
    exact = extend.dual_p_norm
    calls = []

    def nan_in_second_row_of_second_block(w, z, p):
        calls.append(z.shape[0])
        rho = exact(w, z, p)
        if len(calls) == 2:
            rho[1] = math.nan
        return rho

    monkeypatch.setattr(extend, "dual_p_norm", nan_in_second_row_of_second_block)
    with pytest.raises(NumericalFailure, match=r"^row 4: domination .* dual norm nan"):
        holder_rows(H, f, g, np.arange(n))
    assert calls == [3, 3, 3, 3]
    # rows 7 and 10 are beyond their bound, in blocks after the failed one
    g[[7, 10]] *= 2.0
    with pytest.raises(DomainError, match=r"^row 7: prescribed value"):
        holder_rows(H, f, g, np.arange(n))
    null_rows = np.diag([1.0] * 8 + [0.0] * 4)
    H0 = SublinearMajorant(
        operator=MatrixOperator(space=_uniform(n), entries=null_rows, positive=True),
        alpha=2.0,
        p=2.0,
    )
    g = apply_majorant(H0, f).values.copy()
    g[[9, 11]] = 1.0
    with pytest.raises(DomainError, match=r"^row 9: cannot dominate"):
        holder_rows(H0, f, g, np.arange(n))


def test_lift_at_the_cap_holds_its_outputs_and_a_few_blocks():
    n = MAX_OPERATOR_SIZE
    inst = generate_instance(3, n, p=1.5, k_ordered=True)
    lift_operator(inst.couple, inst.f, inst.g, 1.5)  # warm caches outside the trace
    tracemalloc.start()
    try:
        lift = lift_operator(inst.couple, inst.f, inst.g, 1.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lift.domination_violations == 0
    # T and L are 0.5 MiB each at n = 256; a block array is 0.25 MiB
    assert peak < 2.5 * 2**20, peak / 2**20


def test_lift_violations_count_each_broken_certificate_fail_closed():
    bound = extend.norm_bound(2.0)
    assert lift_violations(0.0, 0, (1.0, bound), 2.0) == 0
    assert lift_certified(0.0, 0, (1.0, bound), 2.0)
    cases = [
        ((2.0 * extend.RESIDUAL_BUDGET, 0, (1.0,)), 1),
        ((math.nan, 0, (1.0,)), 1),
        ((0.0, 3, (1.0,)), 3),
        ((0.0, 0, (math.nan, 2.0 * bound, 1.0)), 2),
        ((math.nan, 2, (math.nan,)), 4),
    ]
    for (residual, violations, ratios), expected in cases:
        assert lift_violations(residual, violations, ratios, 2.0) == expected
        assert not lift_certified(residual, violations, ratios, 2.0)


def test_failed_row_certificate_names_row_value_and_gap(monkeypatch):
    # with no rescale tolerance left even an exact Holder row (rho = 1) fails
    monkeypatch.setattr(extend, "ROW_RESCALE_TOL", -1.0)
    f, g = np.array([3.0, -1.0, 2.0]), np.array([1.5, 0.5, -1.0])
    with pytest.raises(NumericalFailure, match=r"^row 0: domination") as info:
        lift_operator(base_couple(3), f, g, 2.0)
    rho = info.value.best_value
    assert rho == pytest.approx(1.0, rel=1e-13)
    assert info.value.gap == rho - 1.0
    assert f"dual norm {rho:.12g}" in str(info.value)


def _dual_ball_argmax(w, f, sign, p):
    """argmax of sign*l(f) over sum(w^(-q/p) |l|^q) <= 1, by SLSQP."""
    q = p / (p - 1.0)
    a = w ** (-q / p)
    res = minimize(
        lambda x: -sign * float(f @ x),
        np.zeros(f.size),
        jac=lambda x: -sign * f,
        method="SLSQP",
        constraints=[{
            "type": "ineq",
            "fun": lambda x: 1.0 - float(np.sum(a * np.abs(x) ** q)),
            "jac": lambda x: -q * a * np.sign(x) * np.abs(x) ** (q - 1.0),
        }],
        options={"ftol": 1e-15, "maxiter": 500},
    )
    return res.x


def test_saturated_row_is_the_dual_ball_maximizer():
    # independent of the Holder formula: a saturated prescription
    # |g_i| = H_i(f) admits exactly one dominated extension, the maximizer of
    # sign(g_i) l(f) over the dual unit ball
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        p = float(rng.choice([1.1, 1.5, 2.0, 3.0, 6.0]))
        entries = 10.0 ** rng.uniform(-1.0, 1.0, size=(n, n))
        op = MatrixOperator(space=_uniform(n), entries=entries, positive=True)
        H = SublinearMajorant(operator=op, alpha=default_alpha(p), p=p)
        f = rng.normal(size=n) * 10.0 ** rng.uniform(-1.0, 1.0)
        if n >= 2:
            f[1] = -f[0]  # a tie in |f|
        if n >= 3:
            f[2] = 0.0  # a zero
        f = rng.permutation(f)
        i = int(rng.integers(0, n))
        sign = float(rng.choice([-1.0, 1.0]))
        row = holder_extension_row(H, f, sign * apply_majorant(H, f).values[i], i)
        oracle = _dual_ball_argmax(H.row_weights(i), f, sign, p)
        worst = max(worst, float(np.max(np.abs(oracle - row)) / np.max(np.abs(row))))
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# lift pipeline
# ---------------------------------------------------------------------------


def test_lift_frozen_two_atom_example():
    couple = base_couple(2)
    for method in ("holder", "greedy"):
        result = lift_operator(couple, [2.0, 0.0], [1.0, 1.0], 2.0, method=method)
        lf = result.operator.apply([2.0, 0.0])
        assert np.allclose(lf, [1.0, 1.0], atol=1e-8)
        assert result.residual_lf_g <= 1e-8
        assert result.domination_violations == 0
        bound = 2.0 ** (1.0 - 1.0 / 2.0)
        assert all(r <= bound + 1e-9 for r in result.norm_sample_ratios)


def test_lift_identity_pair():
    couple = base_couple(3)
    f = np.array([3.0, -1.0, 2.0])
    result = lift_operator(couple, f, f, 2.0)
    assert result.residual_lf_g <= 1e-10
    assert result.domination_violations == 0


def test_lift_random_ordered_pairs_all_certificates():
    rng = np.random.default_rng(31)
    for p in (1.5, 2.0, 3.0):
        for _ in range(6):
            n = int(rng.integers(2, 9))
            couple = base_couple(n)
            f, g = _k_ordered_pair(rng, n, signed=bool(rng.integers(0, 2)))
            for method in ("holder", "greedy"):
                result = lift_operator(
                    couple, f, g, p, method=method, audit_samples=500, seed=7
                )
                conv = convexify_couple(couple, p)
                report = verify_lift(
                    result, result.majorant, f, g, conv, samples=1500, seed=11
                )
                assert report.ok, (p, method, report)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lift_at_the_operator_size_cap_certifies(p):
    inst = generate_instance(5, MAX_OPERATOR_SIZE, p=p, k_ordered=True, index=int(p * 2))
    result = lift_operator(inst.couple, inst.f, inst.g, p)
    assert result.operator.entries.shape == (MAX_OPERATOR_SIZE, MAX_OPERATOR_SIZE)
    assert lift_certified(
        result.residual_lf_g,
        result.domination_violations,
        result.norm_sample_ratios,
        p,
    ), result.norm_sample_ratios


@pytest.mark.parametrize("p", [1.01, 1.05, 1.1])
def test_lifts_near_p_one_certify(p):
    # near p = 1 the dual-norm weights w^(-q/p) are past the float range
    for seed in (1, 2, 3):
        for n in (2, 8, 32, 128, 256):
            inst = generate_instance(seed, n, p=p, k_ordered=True)
            result = lift_operator(inst.couple, inst.f, inst.g, p, audit_samples=500)
            assert lift_certified(
                result.residual_lf_g,
                result.domination_violations,
                result.norm_sample_ratios,
                p,
            ), (seed, n, result.norm_sample_ratios)


def _oracle_holder_row(t_row, alpha, p, f, g_i, overshoot):
    """Row i of the lift from its definition, one exactly rounded sum at a time.

    ``overshoot`` inflates the dual norm the way a rounding excess would, so
    that the rescale below it is exercised.
    """
    n = len(f)
    if g_i == 0.0:
        return [0.0] * n
    w = [alpha * t for t in t_row]
    denom = math.fsum(w[j] * abs(f[j]) ** p for j in range(n))
    top = denom ** (1.0 / p)
    target = math.copysign(top, g_i) if abs(g_i) > top else g_i
    row = [
        target * w[j] * abs(f[j]) ** (p - 1.0) * math.copysign(1.0, f[j]) / denom
        if f[j] != 0.0
        else 0.0
        for j in range(n)
    ]
    q = p / (p - 1.0)
    dual = math.fsum(
        (abs(row[j]) / w[j] ** (1.0 / p)) ** q for j in range(n) if w[j] > 0.0
    ) ** (1.0 / q)
    rho = (1.0 + overshoot) * dual
    return [x / rho for x in row] if rho > 1.0 else row


def _oracle_pairs():
    """Seeded k-ordered pairs with ties, zeros in f and g, n = 1 and n = 256."""
    rng = np.random.default_rng(53)
    for p in (1.01, 1.5, 2.0, 3.0, 6.0):
        for n in (1, 2, 3, 5, 8, 21, 64, 256):
            if n == 256 and p not in (1.01, 2.0):
                continue
            f = 10.0 ** rng.uniform(-1.5, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
            if n >= 3:
                f[1] = -f[0]  # a modulus tie
                f[2] = 0.0
            q = rng.random((n, n))
            cap = max(np.max(np.sum(q, axis=0)), np.max(np.sum(q, axis=1)))
            g = (q / cap) @ f * float(rng.uniform(0.2, 0.95))
            if n >= 5:
                g[3] = 0.0
                g[4] = g[0]
            perm = rng.permutation(n)
            yield p, f[perm], g[perm]
        inst = generate_instance(7, 48, p=p, k_ordered=True)
        yield p, inst.f, inst.g


@pytest.mark.parametrize("overshoot", [0.0, 1e-9])
def test_lift_matches_a_row_by_row_oracle(monkeypatch, overshoot):
    if overshoot:
        exact = extend.dual_p_norm
        monkeypatch.setattr(
            extend, "dual_p_norm", lambda w, z, p: (1.0 + overshoot) * exact(w, z, p)
        )
    worst = 0.0
    for p, f, g in _oracle_pairs():
        result = lift_operator(base_couple(len(f)), f, g, p, audit_samples=50)
        T = result.majorant.operator.entries
        L = result.operator.entries
        fl, gl = f.tolist(), g.tolist()
        for i in range(len(f)):
            row = np.array(
                _oracle_holder_row(T[i].tolist(), result.alpha, p, fl, gl[i], overshoot)
            )
            scale = np.max(np.abs(row))
            if scale == 0.0:
                assert not np.any(L[i]), (p, len(f), i)
                continue
            worst = max(worst, float(np.max(np.abs(L[i] - row)) / scale))
    assert worst <= 1e-14, worst


def test_lift_methods_cross_check_on_prescribed_line():
    rng = np.random.default_rng(37)
    n = 6
    couple = base_couple(n)
    f, g = _k_ordered_pair(rng, n)
    a = lift_operator(couple, f, g, 2.0, method="holder", audit_samples=100)
    b = lift_operator(couple, f, g, 2.0, method="greedy", audit_samples=100)
    # both methods take the one forced row
    assert np.array_equal(a.operator.entries, b.operator.entries)
    fa = a.operator.apply(f)
    fb = b.operator.apply(f)
    assert np.allclose(fa, fb, atol=1e-8 * (1 + np.max(np.abs(g))))
    assert np.allclose(fa, g, atol=1e-8 * (1 + np.max(np.abs(g))))


def test_lift_rejects_bad_couples_and_unordered_pairs():
    sp = MeasureSpace([1.0, 2.0])
    weighted = Couple(space=sp, norm0=WeightedP(1.0), norm1=WeightedP(INF))
    with pytest.raises(DomainError):
        lift_operator(weighted, [1.0, 0.0], [0.5, 0.0], 2.0)
    finite = Couple(space=_uniform(2), norm0=WeightedP(1.0), norm1=WeightedP(2.0))
    with pytest.raises(DomainError):
        lift_operator(finite, [1.0, 0.0], [0.5, 0.0], 2.0)
    couple = base_couple(2)
    with pytest.raises(DomainError, match="t="):
        lift_operator(couple, [1.0, 1.0], [5.0, 5.0], 2.0)
    with pytest.raises(DomainError):
        lift_operator(couple, [1.0, 0.0], [0.5, 0.0], 2.0, method="newton")


def test_unordered_pair_reports_t_both_k_values_and_tolerance():
    couple = base_couple(2)
    with pytest.raises(DomainError) as info:
        lift_operator(couple, [1.0, 1.0], [5.0, 5.0], 2.0)
    number = r"([-+0-9.e]+)"
    found = re.search(
        rf"t={number}, K\(t, g\) = {number} exceeds K\(t, f\) = {number} "
        rf"by more than the tolerance {number}",
        str(info.value),
    )
    assert found, str(info.value)
    t, kg, kf, tol = (float(x) for x in found.groups())
    conv = convexify_couple(couple, 2.0)
    assert kg == pytest.approx(profile("K", conv, [5.0, 5.0], [t]).values[0], rel=1e-6)
    assert kf == pytest.approx(profile("K", conv, [1.0, 1.0], [t]).values[0], rel=1e-6)
    assert 0.0 < tol < kg - kf


def test_grid_ordered_pair_that_is_not_p_majorized_lifts_by_the_fallback():
    couple = base_couple(3)
    conv = convexify_couple(couple, 2.0)
    f, g = np.array([1.28, 1.61, 0.48]), np.array([0.12, 1.33, 1.59])
    assert not p_majorization_orders(conv, f, g)
    assert k_order_dominates(conv, f, g)
    lift = lift_operator(couple, f, g, 2.0, audit_samples=500)
    assert lift_certified(
        lift.residual_lf_g, lift.domination_violations, lift.norm_sample_ratios, 2.0
    )
    # an unordered pair is rejected by both steps, with the grid's message
    assert not p_majorization_orders(conv, [1.0, 1.0, 1.0], [5.0, 5.0, 5.0])
    with pytest.raises(DomainError, match=r"at t=.* by more than the tolerance"):
        lift_operator(couple, [1.0, 1.0, 1.0], [5.0, 5.0, 5.0], 2.0)


@pytest.mark.parametrize("seed", range(8))
def test_perturbed_fallback_pairs_lift_through_one_grid_profile(monkeypatch, seed):
    # the pair above with |f| grown and |g| shrunk by at most 0.2% an entry,
    # a common scale, zero padding, and each vector's atoms permuted and
    # signed apart.  Scale and permutations move neither K nor p-majorization,
    # and K is monotone in |f|, so the pair stays grid-ordered; g's top two
    # squares still exceed f's (at least 4.279 against at most 4.248), so the
    # exact test declines and one K profile of the stack [f, g] decides
    rng = np.random.default_rng(seed)
    n = 3 + seed % 4
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    pair = []
    for base, grow in (([1.28, 1.61, 0.48], 1.0), ([0.12, 1.33, 1.59], -1.0)):
        moduli = np.zeros(n)
        moduli[:3] = np.array(base) * (1.0 + grow * 0.002 * rng.random(3))
        pair.append(scale * rng.permutation(moduli) * rng.choice([-1.0, 1.0], size=n))
    f, g = pair
    couple = base_couple(n)
    conv = convexify_couple(couple, 2.0)
    assert not p_majorization_orders(conv, f, g)
    stacks = []
    grid_profile = kfunc.profile

    def counted(kind, c, rows, ts):
        stacks.append((kind, np.shape(rows)))
        return grid_profile(kind, c, rows, ts)

    monkeypatch.setattr(kfunc, "profile", counted)
    lift = lift_operator(couple, f, g, 2.0, audit_samples=500, seed=seed)
    assert stacks == [("K", (2, n))]
    assert lift_certified(
        lift.residual_lf_g, lift.domination_violations, lift.norm_sample_ratios, 2.0
    )


@pytest.mark.parametrize("p", [1025.0, 1100.0, 5000.0])
def test_alpha_overflow_at_very_large_p_is_a_domain_error(p):
    message = re.escape(f"alpha = 2^(p-1) overflows at p = {p:g}")
    with pytest.raises(DomainError, match=message):
        default_alpha(p)
    with pytest.raises(DomainError, match="overflows"):
        lift_operator(base_couple(2), [2.0, 0.0], [1.0, 1.0], p)


def test_verify_lift_checks_vector_lengths_and_the_couple():
    couple = base_couple(4)
    f, g = np.array([4.0, 2.0, 1.0, 0.5]), np.array([2.0, 1.0, 0.5, 0.25])
    lift = lift_operator(couple, f, g, 2.0, audit_samples=10)
    conv = convexify_couple(couple, 2.0)
    assert verify_lift(lift, lift.majorant, f, g, conv, samples=10).ok
    for pair in ((f[:3], g), (f, np.append(g, 1.0))):
        with pytest.raises(DimensionMismatch):
            verify_lift(lift, lift.majorant, *pair, conv)
    with pytest.raises(DimensionMismatch, match="5 atoms"):
        verify_lift(lift, lift.majorant, f, g, convexify_couple(base_couple(5), 2.0))
    for other in (couple, convexify_couple(couple, 3.0)):
        with pytest.raises(DomainError, match="exponents"):
            verify_lift(lift, lift.majorant, f, g, other)


def test_verify_lift_rejects_a_majorant_that_is_not_the_lifts():
    inst = generate_instance(1, 6, p=2.0, k_ordered=True)
    lift = lift_operator(inst.couple, inst.f, inst.g, 2.0, audit_samples=10)
    conv = convexify_couple(inst.couple, 2.0)
    T = lift.majorant.operator
    for other in (
        SublinearMajorant(operator=T, alpha=default_alpha(3.0), p=3.0),
        SublinearMajorant(operator=T, alpha=1.0, p=2.0),
    ):
        with pytest.raises(DomainError, match="majorant"):
            verify_lift(lift, other, inst.f, inst.g, conv)
    wider = _identity_majorant(7, alpha=default_alpha(2.0), p=2.0)
    with pytest.raises(DimensionMismatch, match="majorant has 7 atoms"):
        verify_lift(lift, wider, inst.f, inst.g, conv)
    assert verify_lift(lift, lift.majorant, inst.f, inst.g, conv, samples=10).ok


def test_operators_own_their_entries_and_lift_operators_are_read_only():
    entries = np.eye(3)
    op = MatrixOperator(space=_uniform(3), entries=entries, positive=True)
    entries[0, 0] = -5.0
    assert np.array_equal(op.entries, np.eye(3))
    assert not op.entries.flags.writeable
    lift = lift_operator(base_couple(4), [4.0, 2.0, 1.0, 0.5], [2.0, 1.0, 0.5, 0.25], 2.0)
    for built in (lift.operator, lift.majorant.operator):
        assert not built.entries.flags.writeable
        with pytest.raises(ValueError):
            built.entries[0, 0] = 1.0


def test_verify_lift_is_deterministic():
    rng = np.random.default_rng(41)
    couple = base_couple(5)
    f, g = _k_ordered_pair(rng, 5)
    result = lift_operator(couple, f, g, 1.5, audit_samples=200)
    conv = convexify_couple(couple, 1.5)
    r1 = verify_lift(result, result.majorant, f, g, conv, samples=800, seed=5)
    r2 = verify_lift(result, result.majorant, f, g, conv, samples=800, seed=5)
    assert r1 == r2


def test_lift_greedy_pinned_pair_certifies():
    # the basis-by-basis greedy solver raised "row 5: feasible interval came
    # up empty at direction 0" on this pair
    inst = generate_instance(1, 6, p=3.0, k_ordered=True, index=32)
    result = lift_operator(inst.couple, inst.f, inst.g, 3.0, method="greedy")
    conv = convexify_couple(inst.couple, 3.0)
    report = verify_lift(result, result.majorant, inst.f, inst.g, conv)
    assert report.ok, report


def _non_finite_entry_points():
    couple = base_couple(3)
    H = _identity_majorant(3, alpha=2.0, p=2.0)
    f, g = np.array([4.0, 2.0, 1.0]), np.array([2.0, 1.0, 0.5])
    lift = lift_operator(couple, f, g, 2.0, audit_samples=50)
    conv = convexify_couple(couple, 2.0)
    ts = default_t_grid()
    return {
        "check_k_d_sandwich": lambda h: check_k_d_sandwich(couple, h),
        "profile_K": lambda h: profile("K", couple, h, ts),
        "profile_D": lambda h: profile("D", couple, h, ts),
        "d_exact": lambda h: d_exact(couple, h, 1.0),
        "construct_positive_operator": lambda h: construct_positive_operator(
            couple.space, np.abs(h), g
        ),
        "lift_operator": lambda h: lift_operator(couple, h, g, 2.0),
        "verify_lift": lambda h: verify_lift(lift, lift.majorant, h, g, conv),
        "holder_extension_row": lambda h: holder_extension_row(H, h, 1.0, 0),
        "apply_majorant": lambda h: apply_majorant(H, h),
        "check_minkowski": lambda h: check_minkowski(H.operator, h, f, 2.0),
    }


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name",
    [
        "apply_majorant",
        "check_k_d_sandwich",
        "check_minkowski",
        "construct_positive_operator",
        "d_exact",
        "holder_extension_row",
        "lift_operator",
        "profile_D",
        "profile_K",
        "verify_lift",
    ],
)
def test_non_finite_entries_raise_domain_error(name, bad):
    call = _non_finite_entry_points()[name]
    with pytest.raises(DomainError, match="finite"):
        call(np.array([bad, 1.0, 2.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_prescriptions_raise_domain_error(bad):
    H = _identity_majorant(3, alpha=2.0, p=2.0)
    f = [1.0, 2.0, 3.0]
    with pytest.raises(DomainError, match="vector entries must be finite"):
        holder_extension_row(H, f, bad, 0)
    with pytest.raises(DomainError, match="vector entries must be finite"):
        holder_rows(H, f, np.array([1.0, bad]), np.array([0, 1]))


def test_lift_power_overflow_names_p_and_the_power():
    # finite entries (max |f| about 18.2) whose alpha |f|^p is past the
    # largest double at p = 200
    inst = generate_instance(1, 8, p=200.0, k_ordered=True)
    assert np.all(np.isfinite(inst.f)) and np.all(np.isfinite(inst.g))
    with pytest.raises(DomainError, match=r"alpha \|f\|\^p overflows at p = 200"):
        lift_operator(inst.couple, inst.f, inst.g, 200.0)


def test_audit_sample_counts_are_checked_up_front():
    couple = base_couple(2)
    # the unordered pair would fail the ordering precondition later on
    for count in (0, -3):
        with pytest.raises(DomainError, match="audit sample"):
            lift_operator(couple, [1.0, 1.0], [5.0, 5.0], 2.0, audit_samples=count)
    f, g = np.array([2.0, 0.0]), np.array([1.0, 1.0])
    result = lift_operator(couple, f, g, 2.0, audit_samples=1)
    conv = convexify_couple(couple, 2.0)
    assert verify_lift(result, result.majorant, f, g, conv, samples=1).ok
    for count in (0, -1):
        with pytest.raises(DomainError, match="audit sample"):
            verify_lift(result, result.majorant, f, g, conv, samples=count)
        with pytest.raises(DomainError, match="audit sample"):
            check_sublinear(result.majorant, sample_count=count)


@pytest.mark.parametrize(
    "samples, seed, message",
    [
        (2000, -1, "audit seed must be nonnegative, got -1"),
        (2000, True, "audit seed must be an integer, got True"),
        (2000, 1.0, "audit seed must be an integer, got 1.0"),
        (2000, "3", "audit seed must be an integer, got '3'"),
        (2.5, 0, "audit sample count must be an integer, got 2.5"),
        (False, 0, "audit sample count must be an integer, got False"),
    ],
)
def test_audit_budgets_are_validated_before_any_work(monkeypatch, samples, seed, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the audit budget was checked")

    couple = base_couple(2)
    f, g = np.array([2.0, 0.0]), np.array([1.0, 1.0])
    result = lift_operator(couple, f, g, 2.0, audit_samples=1)
    conv = convexify_couple(couple, 2.0)
    for name in ("k_order_failure", "construct_positive_operator", "_audit_samples"):
        monkeypatch.setattr(extend, name, no_work)
    with pytest.raises(DomainError, match=re.escape(message)):
        lift_operator(couple, f, g, 2.0, audit_samples=samples, seed=seed)
    with pytest.raises(DomainError, match=re.escape(message)):
        verify_lift(result, result.majorant, f, g, conv, samples=samples, seed=seed)
    with pytest.raises(DomainError, match=re.escape(message)):
        check_sublinear(result.majorant, sample_count=samples, seed=seed)


def test_numpy_integer_audit_budgets_are_accepted():
    couple = base_couple(2)
    f, g = np.array([2.0, 0.0]), np.array([1.0, 1.0])
    got = lift_operator(couple, f, g, 2.0, audit_samples=np.int64(500), seed=np.uint8(3))
    plain = lift_operator(couple, f, g, 2.0, audit_samples=500, seed=3)
    assert got.norm_sample_ratios == plain.norm_sample_ratios
    assert got.domination_violations == plain.domination_violations == 0


# ---------------------------------------------------------------------------
# the blocked audit
# ---------------------------------------------------------------------------


_TINY = np.finfo(float).tiny


def _one_shot_draw(samples, n, seed):
    """sign(v) * 10^(4|v| - 2) for one (samples, n) uniform draw v on [-1, 1),
    in the implementation's order: (|v| * 4 ln10 - 2 ln10) is not bit-equal
    to (4|v| - 2) ln10."""
    v = np.random.Generator(np.random.SFC64(seed)).uniform(-1.0, 1.0, (samples, n))
    ln10 = math.log(10.0)
    return np.copysign(np.exp(np.abs(v) * (4.0 * ln10) - 2.0 * ln10), v)


def _one_shot_audit(operator, majorant, f, g, conv, samples, seed):
    """The audit over one (samples, n) draw: the oracle of the blocked audit.

    A cell is tested as |Lh|^p <= (1 + slack)^p H^p where H^p is a normal
    float and the bound finite, else as |Lh| <= H (1 + slack) with H finite;
    a row's p-norm ratio is (sum |Lh|^p)^(1/p) / (sum |h|^p)^(1/p) where both
    sums are normal floats, else the ratio of ``norm_values``."""
    space = operator.space
    w = space.weights
    p = majorant.p
    err = np.max(np.abs(operator.apply(f) - g))
    scale = np.max(np.abs(g))
    residual = 0.0 if err == 0.0 else float(err / scale) if scale else math.inf
    h = _one_shot_draw(samples, space.n, seed)
    lh = h @ operator.entries.T
    ah, alh = np.abs(h), np.abs(lh)
    with np.errstate(all="ignore"):
        x, y = ah**p, alh**p
        sx, sy = x @ w, y @ w
        hp = majorant.powers(x)
        bound = hp * (1.0 + extend.DOMINATION_SLACK) ** p
        hh = hp ** (1.0 / p)
        by_root = np.isfinite(hh) & (alh <= hh * (1.0 + extend.DOMINATION_SLACK))
        held = np.where((hp >= _TINY) & (bound < math.inf), y <= bound, by_root)
        by_sums = sy ** (1.0 / p) / sx ** (1.0 / p)
    viol = int(np.sum(~np.all(held, axis=1)))
    normal = (sx >= _TINY) & (sx < math.inf) & (sy >= _TINY) & (sy < math.inf)
    ratios = [norm_values(spec, space, lh) / norm_values(spec, space, h)
              for spec in (conv.norm0, conv.norm1)]
    ratios[0] = np.where(normal, by_sums, ratios[0])
    return residual, viol, tuple(float(np.max(r)) for r in ratios)


@pytest.mark.parametrize(
    "samples, n, seed",
    [(1, 1, 0), (997, 3, 5), (1000, 31, 1), (4000, 33, 2), (129, 256, 9), (7, 1, 3)],
)
def test_audit_blocks_replay_one_choice_and_uniform_draw(monkeypatch, samples, n, seed):
    expected = _one_shot_draw(samples, n, seed)
    blocks = list(extend._audit_samples(samples, n, seed))
    assert len(blocks) == -(-samples // max(1, extend.AUDIT_BLOCK // n))
    assert np.array_equal(np.concatenate(blocks), expected)
    monkeypatch.setattr(extend, "AUDIT_BLOCK", 5 * n)
    blocks = list(extend._audit_samples(samples, n, seed))
    assert all(b.shape[0] <= 5 for b in blocks)
    assert np.array_equal(np.concatenate(blocks), expected)


def test_audit_draw_has_a_fair_sign_independent_of_a_log_uniform_modulus():
    h = np.concatenate(list(extend._audit_samples(2000, 100, 20)))
    assert h.shape == (2000, 100)
    negative = h < 0.0
    u = np.log10(np.abs(h))
    assert abs(negative.mean() - 0.5) <= 0.005
    few_ulps = 4 * np.spacing(2.0)
    assert -2.0 - few_ulps <= u.min() and u.max() <= 2.0 + few_ulps
    assert abs(u.mean()) <= 0.015
    assert abs(u.var() - 4.0 / 3.0) <= 0.015
    assert abs(u[negative].mean() - u[~negative].mean()) <= 0.02


# n = 63, 64 and 65 straddle extend._COLUMN_MAX_BELOW, where the row maxima
# switch from a column-major copy to numpy's per-row reduction
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 34, 63, 64, 65, 127, 128, 129, 256])
def test_blocked_audit_equals_one_shot_audit(n):
    p = (1.5, 2.0, 3.0)[n % 3]
    inst = generate_instance(n, n, p=p, k_ordered=True)
    lift = lift_operator(inst.couple, inst.f, inst.g, p, audit_samples=1)
    conv = convexify_couple(inst.couple, p)
    fv, gv = np.asarray(inst.f), np.asarray(inst.g)
    for samples in (1, 997, 1000, 4000):
        args = (lift.operator, lift.majorant, fv, gv, conv, samples, n + samples)
        assert extend._audit_lift(*args) == _one_shot_audit(*args)


def test_audit_of_a_zero_target_equals_the_one_shot_audit():
    # g = 0 makes L and every Lh zero, so each row maximum of |Lh| is 0
    couple = base_couple(5)
    f, g = np.array([3.0, -1.0, 0.5, 2.0, 0.0]), np.zeros(5)
    lift = lift_operator(couple, f, g, 2.0, audit_samples=1)
    assert not lift.operator.entries.any()
    conv = convexify_couple(couple, 2.0)
    args = (lift.operator, lift.majorant, f, g, conv, 997, 4)
    assert extend._audit_lift(*args) == _one_shot_audit(*args) == (0.0, 0, (0.0, 0.0))


@pytest.mark.parametrize("n, p", [(3, 1.5), (12, 2.0), (40, 3.0), (64, 2.0)])
def test_verify_lift_equals_the_one_shot_audit(n, p):
    inst = generate_instance(2, n, p=p, k_ordered=True)
    lift = lift_operator(inst.couple, inst.f, inst.g, p, audit_samples=50)
    conv = convexify_couple(inst.couple, p)
    fv, gv = np.asarray(inst.f), np.asarray(inst.g)
    report = verify_lift(lift, lift.majorant, fv, gv, conv, samples=4000, seed=11)
    expected = _one_shot_audit(lift.operator, lift.majorant, fv, gv, conv, 4000, 11)
    got = (report.residual_lf_g, report.domination_violations, report.norm_sample_ratios)
    assert got == expected


@pytest.mark.parametrize("p, count", [(120.0, 13), (160.0, 1130)])
def test_large_p_audit_counts_equal_the_one_shot_audit(p, count):
    # the standing large-p defect: H(h) underflows or overflows in
    # SublinearMajorant.values, so the audit counts false violations; this
    # pins the count, and a majorant that mends it should lower it
    inst = generate_instance(1, 8, p=200.0, k_ordered=True)
    fv, gv = np.asarray(inst.f), np.asarray(inst.g)
    with np.errstate(all="ignore"):
        lift = lift_operator(inst.couple, fv, gv, p, audit_samples=1)
        conv = convexify_couple(inst.couple, p)
        args = (lift.operator, lift.majorant, fv, gv, conv, 2000, 0)
        got = extend._audit_lift(*args)
        assert got == _one_shot_audit(*args)
    assert got[1] == count


@pytest.mark.parametrize("s", [1.0, 1e-9, 1e-150, 1e-160])
def test_verify_lift_fails_an_all_zero_operator_at_every_scale(s):
    # the residual is relative, max|Lf - g| / max|g|: an absolute one read s
    # for L = 0 and passed it below s = 1e-8
    couple = base_couple(3)
    f, g = s * np.array([3.0, 2.0, 1.0]), s * np.ones(3)
    lift = lift_operator(couple, f, g, 2.0, audit_samples=1)
    zero = dataclasses.replace(
        lift, operator=MatrixOperator(space=couple.space, entries=np.zeros((3, 3)))
    )
    conv = convexify_couple(couple, 2.0)
    report = verify_lift(zero, lift.majorant, f, g, conv, samples=100)
    assert report.residual_lf_g == 1.0 and not report.ok
    # a zero target needs Lf = 0 exactly
    report = verify_lift(lift, lift.majorant, f, np.zeros(3), conv, samples=100)
    assert report.residual_lf_g == math.inf and not report.ok


def test_a_bogus_operator_with_subnormal_powers_reports_its_violations():
    # n = 1: H(h) = (2 t h^2)^(1/2) and L = sqrt(2 t) saturate |Lh| = H(h) at
    # every h, so L scaled by 1 + 1e-6 violates domination at every sample.
    # t puts H^p = 2 t h^2 and |Lh|^p in [1e-320, 1e-312], all subnormal:
    # those cells take the root form, which finds the violations wherever
    # H^p keeps about six digits; the power form found 278 fewer
    couple = base_couple(1)
    lift = lift_operator(couple, [2.0], [1.0], 2.0, audit_samples=1)
    t = 5e-317
    op = MatrixOperator(space=couple.space, entries=[[t]], positive=True)
    majorant = SublinearMajorant(operator=op, alpha=lift.alpha, p=2.0)
    bogus = (1.0 + 1e-6) * math.sqrt(2.0 * t)
    fake = dataclasses.replace(
        lift,
        operator=MatrixOperator(space=couple.space, entries=[[bogus]]),
        majorant=majorant,
    )
    conv = convexify_couple(couple, 2.0)
    report = verify_lift(fake, majorant, [2.0], [1.0], conv, samples=2000)
    h = _one_shot_draw(2000, 1, 1)
    hh = majorant.values(h)
    assert 0.0 < hh.min() ** 2 and hh.max() ** 2 < _TINY
    by_root = np.abs(bogus * h) <= hh * (1.0 + extend.DOMINATION_SLACK)
    assert report.domination_violations == int(np.sum(~by_root)) > 1500


def test_an_infinite_or_nan_majorant_power_fails_closed():
    p = 2.0
    big = np.finfo(float).max
    # H^p = inf and NaN fail whatever |Lh|; H^p = 0 and a subnormal H^p
    # hold only |Lh| <= H; at H^p = max the bound overflows, so |Lh| is
    # tested against H = sqrt(max) = 1.34e154 and not against an inf bound
    hp = np.array([[np.inf, np.nan, 0.0, 0.0, 1e-320, big, big, 4.0]])
    alh = np.array([[0.0, 0.0, 0.0, 1e-300, 9e-161, 1e154, 1.5e154, 2.0]])
    with np.errstate(over="ignore"):
        y = alh**p
    held = extend._dominated(alh, y, hp.copy(), p)
    assert held.tolist() == [[False, False, True, False, True, True, False, True]]


@pytest.mark.parametrize("p", [120.0, 140.0, 160.0])
def test_rows_whose_power_sums_leave_the_normal_range_keep_their_ratio_bits(p):
    # the large-p pair: |Lh|^p sums underflow at p = 120 and 140, and at
    # p = 160 |h|^p sums overflow too; those rows keep the ratio of the
    # max-scaled norms bit for bit, and the others agree with it to 1e-15
    inst = generate_instance(1, 8, p=200.0, k_ordered=True)
    with np.errstate(all="ignore"):
        lift = lift_operator(inst.couple, inst.f, inst.g, p, audit_samples=1)
        conv = convexify_couple(inst.couple, p)
        space = lift.operator.space
        h = _one_shot_draw(2000, 8, 0)
        lh = h @ lift.operator.entries.T
        ah, alh = np.abs(h), np.abs(lh)
        sx, sy = ah**p @ space.weights, alh**p @ space.weights
        got = extend._p_norm_ratios(
            space.weights, ah, ah.max(axis=1), alh, alh.max(axis=1), sx, sy, p
        )
    scaled = norm_values(conv.norm0, space, lh) / norm_values(conv.norm0, space, h)
    odd = ~((sx >= _TINY) & (sx < math.inf) & (sy >= _TINY) & (sy < math.inf))
    assert 0 < odd.sum() < odd.size
    assert np.array_equal(got[odd], scaled[odd])
    np.testing.assert_allclose(got[~odd], scaled[~odd], rtol=1e-15, atol=0.0)


def test_audit_memory_does_not_grow_with_the_sample_count():
    n = 256
    inst = generate_instance(3, n, p=2.0, k_ordered=True)
    lift = lift_operator(inst.couple, inst.f, inst.g, 2.0, audit_samples=1)
    conv = convexify_couple(inst.couple, 2.0)
    tracemalloc.start()
    try:
        report = verify_lift(lift, lift.majorant, inst.f, inst.g, conv, samples=10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    # one (10000, 256) float64 array alone is 20.5 MB
    assert peak < 8e6


def test_a_nan_ratio_in_any_audit_block_reaches_the_certificate(monkeypatch):
    couple = base_couple(2)
    f, g = np.array([2.0, 0.0]), np.array([1.0, 1.0])
    lift = lift_operator(couple, f, g, 2.0, audit_samples=1)
    conv = convexify_couple(couple, 2.0)
    monkeypatch.setattr(extend, "AUDIT_BLOCK", 8)  # 4 samples a block at n = 2
    exact = extend._p_norm_ratios
    calls = []

    def nan_in_first_block(w, ah, *args):
        calls.append(ah.shape[0])
        values = exact(w, ah, *args)
        return np.full_like(values, math.nan) if len(calls) == 1 else values

    monkeypatch.setattr(extend, "_p_norm_ratios", nan_in_first_block)
    report = verify_lift(lift, lift.majorant, f, g, conv, samples=10)
    assert calls == [4, 4, 2]  # the p-norm ratios of each block's rows
    assert math.isnan(report.norm_sample_ratios[0]) and not report.ok


def test_non_finite_majorant_values_count_as_domination_violations():
    # alpha |h|^p overflows on large samples at p = 160, so H(h) is inf or NaN
    inst = generate_instance(1, 8, p=200.0, k_ordered=True)
    p, samples = 160.0, 2000
    with np.errstate(all="ignore"):
        lift = lift_operator(inst.couple, inst.f, inst.g, p, audit_samples=samples)
        h = _one_shot_draw(samples, 8, 0)
        lh = h @ lift.operator.entries.T
        hh = lift.majorant.values(h)
        unbounded = ~np.isfinite(hh)
        over = np.abs(lh) > hh * (1.0 + extend.DOMINATION_SLACK)
    expected = int(np.sum(np.any(unbounded | over, axis=1)))
    assert np.any(unbounded, axis=1).sum() > np.any(over, axis=1).sum()
    assert lift.domination_violations == expected
    assert not lift_certified(
        lift.residual_lf_g, lift.domination_violations, lift.norm_sample_ratios, p
    )


def test_a_zero_entry_of_g_keeps_the_audit_in_the_power_form(monkeypatch):
    # g[0] = 0 makes row 0 of T zero, so H(h)^p = 0 on that output; |Lh| = 0
    # there too, and such cells hold in the power form instead of sending
    # every block through the root form
    inst = generate_instance(1, 64, p=3.0, k_ordered=True)
    fv, gv = np.asarray(inst.f), np.array(inst.g)
    gv[0] = 0.0
    calls = []

    def counted(alh, hp, p, _exact=extend._root_held):
        calls.append(alh.size)
        return _exact(alh, hp, p)

    monkeypatch.setattr(extend, "_root_held", counted)
    lift = lift_operator(inst.couple, fv, gv, 3.0, audit_samples=2000)
    assert not lift.operator.entries[0].any()
    assert lift.domination_violations == 0 and calls == []
    # a bogus L with a nonzero entry in that row still fails: the cells with
    # H^p = 0 and |Lh| > 0 take the root form and break
    bogus = lift.operator.entries.copy()
    bogus[0, 5] = 1e-3
    fake = dataclasses.replace(
        lift, operator=MatrixOperator(space=inst.couple.space, entries=bogus)
    )
    conv = convexify_couple(inst.couple, 3.0)
    report = verify_lift(fake, lift.majorant, fv, gv, conv, samples=2000)
    assert report.domination_violations == 2000 and sum(calls) == 2000
