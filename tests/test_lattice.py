from __future__ import annotations

import math

import numpy as np
import pytest

from caldera import (
    INF,
    Convexified,
    DimensionMismatch,
    DomainError,
    MeasureSpace,
    WeightedP,
    abs_vector,
    convexify,
    effective_exponent,
    lub,
    norm,
    power_vector,
    sign_multiply,
    support,
    vector,
)
from caldera.lattice import dual_p_norm, norm_values, scaled_p_norm, weighted_p_norm

REL = 1e-12


def _space(n, rng=None):
    if rng is None:
        return MeasureSpace(np.ones(n))
    return MeasureSpace(10.0 ** rng.uniform(-1, 1, size=n))


def _rand_vec(space, rng, scale=2.0):
    vals = 10.0 ** rng.uniform(-scale, scale, size=space.n)
    vals *= rng.choice([-1.0, 1.0], size=space.n)
    return vector(space, vals)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_space_rejects_bad_weights():
    with pytest.raises(DomainError):
        MeasureSpace([1.0, 0.0])
    with pytest.raises(DomainError):
        MeasureSpace([1.0, -2.0])
    with pytest.raises(DomainError):
        MeasureSpace([])
    with pytest.raises(DomainError):
        MeasureSpace([1.0, math.inf])


def test_vector_dimension_and_finiteness():
    sp = _space(3)
    with pytest.raises(DimensionMismatch):
        vector(sp, [1.0, 2.0])
    with pytest.raises(DomainError):
        vector(sp, [1.0, math.nan, 0.0])
    v = vector(sp, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        v.values[0] = 7.0  # frozen storage


def test_norm_spec_validation():
    WeightedP(1.0)
    WeightedP(INF)
    with pytest.raises(DomainError):
        WeightedP(0.5)
    with pytest.raises(DomainError):
        convexify(WeightedP(1.0), 1.0)
    with pytest.raises(DomainError):
        convexify(WeightedP(1.0), INF)


def test_every_convexification_exponent_takes_one_check():
    # norms, couples, sandwiches, majorants, lifts, instances and campaign
    # configs refuse the same p and accept numpy reals
    from caldera import CampaignConfig, SublinearMajorant, generate_instance, lift_operator
    from caldera.kfunc import check_d_power_sandwich, check_k_power_sandwich
    from caldera.lattice import Couple, convexification_exponent
    from caldera.majorize import MatrixOperator

    space = MeasureSpace(np.ones(2))
    couple = Couple(space=space, norm0=WeightedP(1.0), norm1=WeightedP(INF))
    op = MatrixOperator(space=space, entries=np.eye(2), positive=True)
    f = [2.0, 1.0]
    sites = {
        "Convexified": lambda p: Convexified(base=WeightedP(1.0), p=p),
        "convexify": lambda p: convexify(WeightedP(1.0), p),
        "d power sandwich": lambda p: check_d_power_sandwich(couple, f, p, t_grid=[1.0]),
        "k power sandwich": lambda p: check_k_power_sandwich(couple, f, p, t_grid=[1.0]),
        "majorant": lambda p: SublinearMajorant(operator=op, alpha=1.0, p=p),
        "lift": lambda p: lift_operator(couple, f, [1.0, 0.5], p, audit_samples=10),
        "instance": lambda p: generate_instance(0, 2, p=p),
        "campaign": lambda p: CampaignConfig(p_set=(p,)),
    }
    refused = (True, np.bool_(True), 1, 1.0, 0.5, INF, math.nan, "2", None)
    for name, site in sites.items():
        for p in refused:
            with pytest.raises(DomainError, match=r"^convexification exponent must lie"):
                site(p)
        for p in (2, np.int64(2), np.float32(2.0), np.float64(2.0)):
            site(p)  # accepted
    assert convexification_exponent(np.float32(1.5)) == 1.5
    assert type(convexification_exponent(np.int64(3))) is float
    assert Convexified(base=WeightedP(1.0), p=np.int64(3)).p == 3.0


# ---------------------------------------------------------------------------
# norm values
# ---------------------------------------------------------------------------


def test_weighted_norms_known_values():
    sp = MeasureSpace([1.0, 2.0, 1.0])
    f = vector(sp, [3.0, -1.0, 2.0])
    assert norm(WeightedP(1.0), f) == pytest.approx(3 + 2 * 1 + 2, rel=REL)
    assert norm(WeightedP(INF), f) == 3.0
    assert norm(WeightedP(2.0), f) == pytest.approx(math.sqrt(9 + 2 + 4), rel=REL)


def test_convexified_norm_is_power_of_base_norm():
    rng = np.random.default_rng(7)
    for _ in range(50):
        sp = _space(6, rng)
        f = _rand_vec(sp, rng)
        p = rng.uniform(1.1, 4.0)
        spec = convexify(WeightedP(1.0), p)
        direct = norm(spec, f)
        via_power = norm(WeightedP(1.0), power_vector(f, p)) ** (1.0 / p)
        assert direct == pytest.approx(via_power, rel=REL)


def test_convexify_l1_unit_weights_gives_lp():
    # base l1 with unit weights, convexified with p = 2, must equal plain l2
    sp = _space(5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = _rand_vec(sp, rng)
        assert norm(convexify(WeightedP(1.0), 2.0), f) == pytest.approx(
            norm(WeightedP(2.0), f), rel=REL
        )


def test_convexify_linf_is_linf():
    sp = _space(4)
    f = vector(sp, [0.5, -3.0, 1.0, 0.0])
    for p in (1.5, 2.0, 7.0):
        assert norm(convexify(WeightedP(INF), p), f) == pytest.approx(3.0, rel=REL)


def test_effective_exponent_collapses_nesting():
    spec = convexify(convexify(WeightedP(1.5), 2.0), 3.0)
    assert effective_exponent(spec) == pytest.approx(9.0)
    assert effective_exponent(convexify(WeightedP(INF), 2.0)) == INF
    rng = np.random.default_rng(11)
    sp = _space(5, rng)
    for _ in range(20):
        f = _rand_vec(sp, rng)
        assert norm(spec, f) == pytest.approx(norm(WeightedP(9.0), f), rel=1e-11)


def test_norm_values_matches_scalar_norm():
    rng = np.random.default_rng(5)
    sp = _space(6, rng)
    rows = np.stack([_rand_vec(sp, rng).values for _ in range(8)])
    for spec in (WeightedP(1.0), WeightedP(2.5), WeightedP(INF), Convexified(WeightedP(1.0), 2.0)):
        batch = norm_values(spec, sp, rows)
        for k in range(rows.shape[0]):
            assert batch[k] == pytest.approx(norm(spec, vector(sp, rows[k])), rel=REL)


def test_zero_vector_norm_is_zero():
    sp = _space(3)
    z = vector(sp, [0.0, 0.0, 0.0])
    for spec in (WeightedP(1.0), WeightedP(INF), convexify(WeightedP(1.0), 2.0)):
        assert norm(spec, z) == 0.0


KERNEL_EXPONENTS = (1.0, 1.5, 2.0, 3.0, 40.0, INF)


def _direct_p_norm(w, a, p):
    if p == INF:
        return float(np.max(a, initial=0.0))
    return math.fsum(w * a ** p) ** (1.0 / p)


def test_p_norm_kernel_rows_vectors_and_direct_sum():
    # A batch of rows and a single vector go through one kernel.  The max is
    # exact, so at p = inf a row of a batch equals the vector bit for bit.
    # Elsewhere numpy's vectorized power and the BLAS matrix-vector product
    # round differently from the scalar power and dot product, so a row may
    # differ from the lone vector in the last bits.
    rng = np.random.default_rng(101)
    for _ in range(60):
        n = int(rng.integers(1, 300))
        w = 10.0 ** rng.uniform(-1, 1, size=n)
        rows = 10.0 ** rng.uniform(-1, 1, size=(int(rng.integers(1, 8)), n))
        rows[rng.random(rows.shape) < 0.2] = 0.0
        rows[0] = 0.0
        for p in KERNEL_EXPONENTS:
            batch = weighted_p_norm(w, rows, p)
            assert batch.shape == (rows.shape[0],)
            assert batch[0] == 0.0
            for k, row in enumerate(rows):
                single = weighted_p_norm(w, row, p)
                if p == INF:
                    assert batch[k] == single
                assert batch[k] == pytest.approx(single, rel=1e-14, abs=0.0)
                assert single == pytest.approx(
                    _direct_p_norm(w, row, p), rel=1e-14, abs=0.0
                )


@pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 50.0])
def test_scaled_p_norm_with_the_row_max_is_bit_equal_to_the_kernel(p):
    rng = np.random.default_rng(int(p * 100))
    for n in (1, 2, 7, 64, 257):
        w = 10.0 ** rng.uniform(-1, 1, size=n)
        rows = 10.0 ** rng.uniform(-3, 3, size=(int(rng.integers(1, 40)), n))
        rows[rng.random(rows.shape) < 0.2] = 0.0
        rows[0] = 0.0
        for a in (rows, rows[-1]):
            expected = weighted_p_norm(w, a, p)
            got = scaled_p_norm(w, a, a.max(-1), p)
            assert np.array_equal(got, expected)
            assert np.shape(got) == np.shape(expected)


def _extremal(w, z, p):
    """A vector of weighted p-norm one where Holder's inequality is an equality."""
    if p == 1.0:
        k = int(np.argmax(np.abs(z) / w))
        x = np.zeros_like(z)
        x[k] = np.sign(z[k]) / w[k]
        return x
    if p == INF:
        return np.sign(z)
    q = p / (p - 1.0)
    y = np.sign(z) * (np.abs(z) * w ** (-1.0 / p)) ** (q - 1.0)
    x = w ** (-1.0 / p) * y
    return x / weighted_p_norm(w, np.abs(x), p)


def test_dual_norm_holder_inequality_and_equality():
    rng = np.random.default_rng(103)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        w = 10.0 ** rng.uniform(-1, 1, size=n)
        z = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-1, 1, size=n)
        x = rng.standard_normal(n)
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            dual = dual_p_norm(w, z, p)
            bound = dual * weighted_p_norm(w, np.abs(x), p)
            assert abs(float(np.dot(z, x))) <= bound * (1.0 + 1e-12)
            xe = _extremal(w, z, p)
            assert weighted_p_norm(w, np.abs(xe), p) == pytest.approx(1.0, rel=1e-12)
            assert float(np.dot(z, xe)) == pytest.approx(dual, rel=1e-12)


# ---------------------------------------------------------------------------
# norm axioms and the lattice property
# ---------------------------------------------------------------------------


def test_norm_axioms_random_triples():
    rng = np.random.default_rng(17)
    for _ in range(200):
        sp = _space(int(rng.integers(1, 9)), rng)
        specs = [
            WeightedP(1.0),
            WeightedP(float(rng.uniform(1.0, 6.0))),
            WeightedP(INF),
            convexify(WeightedP(1.0), float(rng.uniform(1.1, 4.0))),
            convexify(WeightedP(INF), float(rng.uniform(1.1, 4.0))),
        ]
        f = _rand_vec(sp, rng)
        g = _rand_vec(sp, rng)
        lam = float(rng.normal())
        for spec in specs:
            nf, ng = norm(spec, f), norm(spec, g)
            tri = norm(spec, vector(sp, f.values + g.values))
            assert tri <= (nf + ng) * (1 + REL) + 1e-15
            scaled = norm(spec, vector(sp, lam * f.values))
            assert scaled == pytest.approx(abs(lam) * nf, rel=REL, abs=1e-15)
            assert nf > 0.0  # definiteness on nonzero vectors


def test_lattice_property_monotone_in_modulus():
    rng = np.random.default_rng(23)
    for _ in range(200):
        sp = _space(int(rng.integers(1, 9)), rng)
        f = _rand_vec(sp, rng)
        shrink = rng.uniform(0.0, 1.0, size=sp.n)
        g = vector(sp, f.values * shrink * rng.choice([-1.0, 1.0], size=sp.n))
        for spec in (
            WeightedP(1.0),
            WeightedP(3.0),
            WeightedP(INF),
            convexify(WeightedP(1.0), 2.0),
        ):
            assert norm(spec, g) <= norm(spec, f) * (1 + REL) + 1e-15


# ---------------------------------------------------------------------------
# lattice operations
# ---------------------------------------------------------------------------


def test_abs_sign_support_basics():
    sp = _space(3)
    f = vector(sp, [0.0, 5.0, -2.0])
    assert np.array_equal(abs_vector(f).values, [0.0, 5.0, 2.0])
    assert support(f) == frozenset({1, 2})
    assert support(vector(sp, [0.0, 5.0, 0.0])) == frozenset({1})
    s = sign_multiply(f, [-1.0, 1.0, -1.0])
    assert np.array_equal(s.values, [0.0, 5.0, 2.0])
    with pytest.raises(DomainError):
        sign_multiply(f, [0.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        sign_multiply(f, [1.0, 1.0])


def test_support_invariant_under_powers():
    rng = np.random.default_rng(29)
    sp = _space(7, rng)
    f = vector(sp, rng.normal(size=7) * (rng.random(7) > 0.3))
    for p in (0.5, 1.0, 2.0, 3.7):
        assert support(power_vector(f, p)) == support(f)


def test_lub_componentwise_max_and_errors():
    sp = _space(2)
    a = vector(sp, [1.0, 5.0])
    b = vector(sp, [2.0, 3.0])
    assert np.array_equal(lub([a, b]).values, [2.0, 5.0])
    with pytest.raises(DomainError):
        lub([])


# Three identities behind the completeness and localization arguments.
# All are exact statements about componentwise maxima on finitely many
# atoms, checked here on random families at 1e-12.


def test_lub_shift_reconstruction():
    # lub(A) of a family bounded below by g0 equals lub of the shifted
    # nonnegative family plus g0
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        sp = _space(n, rng)
        g0 = vector(sp, rng.normal(size=n))
        fam = []
        for _ in range(int(rng.integers(1, 6))):
            fam.append(vector(sp, np.maximum(g0.values, rng.normal(size=n) * 3)))
        direct = lub(fam).values
        shifted = lub(
            [vector(sp, np.maximum(g.values, g0.values) - g0.values) for g in fam]
        ).values
        assert np.allclose(direct, shifted + g0.values, rtol=1e-12, atol=1e-14)


def test_lub_localization_by_division():
    # family of nonnegative multiples of f0 supported where f0 lives:
    # lub(A) = f0 * lub({u / f0 on supp f0})
    rng = np.random.default_rng(37)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        sp = _space(n, rng)
        f0 = np.abs(rng.normal(size=n)) * (rng.random(n) > 0.25)
        fam = [f0 * rng.uniform(0.0, 2.0, size=n) for _ in range(int(rng.integers(1, 6)))]
        on = f0 > 0.0
        ratios = []
        for u in fam:
            r = np.zeros(n)
            r[on] = u[on] / f0[on]
            ratios.append(vector(sp, r))
        rebuilt = f0 * lub(ratios).values
        direct = lub([vector(sp, u) for u in fam]).values
        assert np.allclose(direct, rebuilt, rtol=1e-12, atol=1e-14)


def test_lub_commutes_with_powers():
    # for nonnegative families, lub(A)^p = lub({a^p})
    rng = np.random.default_rng(41)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        sp = _space(n, rng)
        fam = [vector(sp, np.abs(rng.normal(size=n)) * 2) for _ in range(int(rng.integers(1, 6)))]
        p = float(rng.uniform(1.1, 4.0))
        lhs = lub(fam).values ** p
        rhs = lub([power_vector(g, p) for g in fam]).values
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-15)


def test_lub_splits_over_disjoint_masks():
    rng = np.random.default_rng(43)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        sp = _space(n, rng)
        fam = [vector(sp, np.abs(rng.normal(size=n))) for _ in range(int(rng.integers(1, 5)))]
        mask = rng.random(n) < 0.5
        left = lub([vector(sp, g.values * mask) for g in fam]).values
        right = lub([vector(sp, g.values * ~mask) for g in fam]).values
        assert np.array_equal(lub(fam).values, left + right)
