from __future__ import annotations

import math
import re

import numpy as np
import pytest
from scipy.optimize import minimize

from caldera import Couple, DomainError, MeasureSpace, WeightedP, INF, generate_instance
from caldera.extend import (
    LiftResult,
    SublinearMajorant,
    apply_majorant,
    check_minkowski,
    check_sublinear,
    default_alpha,
    greedy_hb_extension_row,
    holder_extension_row,
    lift_operator,
    verify_lift,
)
from caldera.kfunc import check_k_d_sandwich, d_exact, default_t_grid, profile
from caldera.lattice import convexify_couple, norm, vector
from caldera.majorize import MatrixOperator, construct_positive_operator


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
        hi_h = apply_majorant(H, hs.T).values if False else None
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


def test_lift_custom_alpha_reverifies_preconditions():
    couple = base_couple(2)
    # alpha far below the default breaks the exact submajorization step
    with pytest.raises(DomainError):
        lift_operator(couple, [2.0, 0.0], [1.0, 1.0], 2.0, alpha=0.4)
    result = lift_operator(couple, [2.0, 0.0], [1.0, 1.0], 2.0, alpha=1.0)
    assert result.alpha == 1.0
    assert result.residual_lf_g <= 1e-8


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
