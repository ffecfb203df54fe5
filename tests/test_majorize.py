from __future__ import annotations

import numpy as np
import pytest

from caldera import (
    INF,
    CapacityError,
    DimensionMismatch,
    DomainError,
    MeasureSpace,
    NumericalFailure,
    WeightedP,
)
from caldera import majorize
from caldera.majorize import (
    MatrixOperator,
    construct_positive_operator,
    decreasing_rearrangement,
    fill_to_exact_majorization,
    operator_norm_1,
    operator_norm_inf,
    sample_operator_norm,
    t_transform_chain,
    weak_submajorizes,
    weighted_weak_submajorizes,
)


def _uniform(n):
    return MeasureSpace(np.ones(n))


def oracle_rearrangement_integral(weights, values, t):
    """Step-function integral of the weighted rearrangement up to mass t."""
    order = np.argsort(-np.abs(values), kind="stable")
    total = 0.0
    remaining = t
    for i in order:
        if remaining <= 0:
            break
        take = min(remaining, weights[i])
        total += take * abs(values[i])
        remaining -= take
    return total


# ---------------------------------------------------------------------------
# rearrangement and prefix ordering
# ---------------------------------------------------------------------------


def test_decreasing_rearrangement_basic_and_stable_ties():
    res = decreasing_rearrangement([1.0, -3.0, 2.0])
    assert np.array_equal(res.sorted, [3.0, 2.0, 1.0])
    assert np.array_equal(res.permutation, [1, 2, 0])
    # equal moduli keep their original order
    res = decreasing_rearrangement([2.0, -2.0, 5.0, 2.0])
    assert np.array_equal(res.sorted, [5.0, 2.0, 2.0, 2.0])
    assert np.array_equal(res.permutation, [2, 0, 1, 3])


def test_weak_submajorizes_known_cases():
    assert weak_submajorizes([3.0, 1.0], [2.0, 2.0])
    assert not weak_submajorizes([2.0, 2.0], [3.0, 1.0])
    assert weak_submajorizes([3.0, 1.0], [3.0, 1.0])
    assert weak_submajorizes([4.0, 0.0], [2.0, 0.0])
    # pure prefix comparison, signs go through moduli
    assert weak_submajorizes([-3.0, 1.0], [2.0, -2.0])


def test_weak_submajorizes_size_mismatch():
    with pytest.raises(DimensionMismatch):
        weak_submajorizes([1.0, 2.0], [1.0])


def test_weighted_weak_submajorizes_matches_integral_oracle():
    rng = np.random.default_rng(71)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        sp = MeasureSpace(10.0 ** rng.uniform(-1, 1, size=n))
        f = 10.0 ** rng.uniform(-1, 1, size=n)
        g = 10.0 ** rng.uniform(-1, 1, size=n)
        claimed = weighted_weak_submajorizes(sp, f, g)
        ts = np.linspace(1e-6, float(np.sum(sp.weights)), 400)
        holds = all(
            oracle_rearrangement_integral(sp.weights, f, t)
            >= oracle_rearrangement_integral(sp.weights, g, t) * (1 - 1e-9)
            for t in ts
        )
        assert claimed == holds


def test_weighted_weak_submajorizes_uniform_agrees_with_prefix_sums():
    rng = np.random.default_rng(73)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        sp = _uniform(n)
        f = 10.0 ** rng.uniform(-1, 1, size=n)
        g = 10.0 ** rng.uniform(-1, 1, size=n)
        assert weighted_weak_submajorizes(sp, f, g) == weak_submajorizes(f, g)


# ---------------------------------------------------------------------------
# water filling
# ---------------------------------------------------------------------------


def test_fill_known_values():
    h = fill_to_exact_majorization(np.array([3.0, 1.0]), np.array([2.0, 1.0]))
    assert np.allclose(h, [2.0, 2.0], rtol=1e-12)
    h = fill_to_exact_majorization(np.array([4.0, 0.0]), np.array([2.0, 0.0]))
    assert np.allclose(h, [2.0, 2.0], rtol=1e-12)
    h = fill_to_exact_majorization(np.array([8.0, 0.0]), np.array([1.0, 1.0]))
    assert np.allclose(h, [4.0, 4.0], rtol=1e-12)
    # no deficit: g already sums to the same total
    h = fill_to_exact_majorization(np.array([3.0, 1.0]), np.array([2.5, 1.5]))
    assert np.allclose(h, [2.5, 1.5], rtol=1e-12)


def test_fill_properties_random():
    rng = np.random.default_rng(79)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        fstar = np.sort(10.0 ** rng.uniform(-1, 1, size=n))[::-1]
        # shrink then sort to guarantee submajorization with strict deficit
        scale = rng.uniform(0.2, 1.0)
        gstar = np.sort(fstar * rng.uniform(0.1, 1.0, size=n) * scale)[::-1]
        h = fill_to_exact_majorization(fstar, gstar)
        assert np.all(h >= gstar - 1e-12)
        assert np.sum(h) == pytest.approx(np.sum(fstar), rel=1e-12)
        assert np.all(np.diff(h) <= 1e-12 * h[0])
        assert weak_submajorizes(fstar, h)


def test_fill_rejects_bad_inputs():
    with pytest.raises(DomainError):
        fill_to_exact_majorization(np.array([1.0, 3.0]), np.array([1.0, 0.5]))
    with pytest.raises(DomainError):
        fill_to_exact_majorization(np.array([3.0, 1.0]), np.array([0.5, 1.0]))
    with pytest.raises(DomainError):
        # g exceeds f in total mass, no fill can fix that
        fill_to_exact_majorization(np.array([1.0, 0.0]), np.array([2.0, 1.0]))


# ---------------------------------------------------------------------------
# pinch chain
# ---------------------------------------------------------------------------


def _is_pinch_matrix(mat, j, k, lam):
    n = mat.shape[0]
    expect = np.eye(n)
    expect[j, j] = expect[k, k] = lam
    expect[j, k] = expect[k, j] = 1.0 - lam
    return np.allclose(mat, expect, atol=1e-15)


def test_t_transform_chain_frozen_example():
    chain = t_transform_chain(np.array([3.0, 1.0]), np.array([2.0, 2.0]))
    assert len(chain.factors) == 1
    fac = chain.factors[0]
    assert (fac.j, fac.k) == (0, 1)
    assert fac.lam == pytest.approx(0.5, rel=1e-12)
    assert np.allclose(chain.matrix, [[0.5, 0.5], [0.5, 0.5]], rtol=1e-12)


def test_t_transform_chain_random():
    rng = np.random.default_rng(83)
    for _ in range(120):
        n = int(rng.integers(1, 14))
        fstar = np.sort(10.0 ** rng.uniform(-1, 1, size=n))[::-1]
        gstar = np.sort(fstar * rng.uniform(0.05, 1.0, size=n))[::-1]
        h = fill_to_exact_majorization(fstar, gstar)
        chain = t_transform_chain(fstar, h)
        assert len(chain.factors) <= max(n - 1, 0)
        assert np.allclose(chain.matrix @ fstar, h, atol=1e-10 * (1 + np.max(h)))
        # doubly stochastic: an average of permutation actions
        assert np.allclose(np.sum(chain.matrix, axis=0), 1.0, atol=1e-10)
        assert np.allclose(np.sum(chain.matrix, axis=1), 1.0, atol=1e-10)
        assert np.all(chain.matrix >= -1e-15)
        for fac in chain.factors:
            assert 0.0 <= fac.lam <= 1.0
            assert _is_pinch_matrix(fac.matrix(n), fac.j, fac.k, fac.lam)


def _hard_pair(rng, n):
    """Submajorized f, g >= 0 with ties, zeros and magnitudes 10^(+-6)."""
    f = 10.0 ** rng.uniform(-6, 6, size=n)
    f[rng.random(n) < 0.25] = 0.0
    tied = rng.random(n) < 0.3
    f[tied] = f[int(rng.integers(0, n))]
    if not np.any(f > 0.0):
        f[0] = 1.0
    q = rng.random((n, n))
    cap = max(np.max(np.sum(q, axis=0)), np.max(np.sum(q, axis=1)))
    g = (q / cap) @ f * rng.uniform(0.2, 1.0)
    g[rng.random(n) < 0.25] = 0.0
    if n > 1:
        # lowering entries to a common value keeps the submajorization
        a, b = rng.choice(n, size=2, replace=False)
        g[a] = g[b] = min(g[a], g[b])
    return f, g


def _hard_cases():
    rng = np.random.default_rng(211)
    yield np.array([5.0]), np.array([2.0])
    yield np.array([0.0, 3.0, 3.0, 0.0]), np.array([3.0, 0.0, 3.0, 0.0])
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 64):
        for _ in range(6):
            yield _hard_pair(rng, n)
    f = 10.0 ** rng.uniform(-6, 6, size=256)
    yield f, rng.permutation(f)
    yield _hard_pair(rng, 256)


def test_chain_rows_match_the_product_of_pinch_matrices():
    for f, g in _hard_cases():
        n = f.size
        fstar = decreasing_rearrangement(f).sorted
        h = fill_to_exact_majorization(fstar, decreasing_rearrangement(g).sorted)
        chain = t_transform_chain(fstar, h)
        product = np.eye(n)
        for fac in chain.factors:
            product = fac.matrix(n) @ product
        assert np.max(np.abs(chain.matrix - product), initial=0.0) <= 1e-15, n


def _oracle_pinch_chain(fstar, h):
    """The per-factor numpy loop the scalar walk replaced: every factor
    recomputes the whole mismatch, scans it for the outermost over/under
    pair and copies both rows."""
    x = np.array(fstar, dtype=float)
    y = np.asarray(h, dtype=float)
    n = x.size
    scale = max(float(x[0]) if n else 0.0, 1e-300)
    tol = 1e-13 * scale
    s = np.eye(n)
    factors = []
    for _ in range(max(n - 1, 0)):
        diff = x - y
        if np.max(np.abs(diff)) <= tol:
            break
        over = np.nonzero(diff > tol)[0]
        if over.size == 0:
            break
        j = int(over[-1])
        under = np.nonzero(diff[j + 1 :] < -tol)[0]
        if under.size == 0:
            break
        k = j + 1 + int(under[0])
        delta = min(x[j] - y[j], y[k] - x[k])
        lam = 1.0 - delta / (x[j] - x[k])
        xj, xk = x[j], x[k]
        x[j] = lam * xj + (1.0 - lam) * xk
        x[k] = lam * xk + (1.0 - lam) * xj
        sj, sk = s[j].copy(), s[k].copy()
        s[j] = lam * sj + (1.0 - lam) * sk
        s[k] = lam * sk + (1.0 - lam) * sj
        factors.append((j, k, float(lam)))
    return s, factors


def _revisits_an_index(factors):
    """True when some index is pinched, left alone, then pinched again."""
    last = {}
    for step, (j, k, _) in enumerate(factors):
        for i in (j, k):
            if step - last.get(i, step - 1) > 1:
                return True
            last[i] = step
    return False


def test_scalar_walk_matches_the_per_factor_loop():
    # ties, zeros, n 1-59 and moduli 1e+-6; a chain that comes back to an
    # index after skipping a step exercises re-filing it in the index lists
    rng = np.random.default_rng(307)
    cases = list(_hard_cases())
    cases += [_hard_pair(rng, int(rng.integers(1, 60))) for _ in range(3000)]
    revisits = 0
    for f, g in cases:
        fstar = decreasing_rearrangement(f).sorted
        h = fill_to_exact_majorization(fstar, decreasing_rearrangement(g).sorted)
        chain = t_transform_chain(fstar, h)
        s, factors = _oracle_pinch_chain(fstar, h)
        assert [(fac.j, fac.k, fac.lam) for fac in chain.factors] == factors
        assert np.array_equal(chain.matrix, s)
        revisits += _revisits_an_index(factors)
    assert revisits >= 1


def test_operator_scatter_matches_chained_permutation_copies():
    for f, g in _hard_cases():
        n = f.size
        op = construct_positive_operator(_uniform(n), f, g)
        rf = decreasing_rearrangement(f)
        rg = decreasing_rearrangement(g)
        h = fill_to_exact_majorization(rf.sorted, rg.sorted)
        chain = t_transform_chain(rf.sorted, h)
        d = np.zeros(n)
        d[h > 0.0] = rg.sorted[h > 0.0] / h[h > 0.0]
        scaled = d[:, None] * chain.matrix
        # undo sort_f on the columns, then sort_g on the rows
        old = scaled[:, np.argsort(rf.permutation)][np.argsort(rg.permutation), :]
        assert np.array_equal(op.entries, old), n
        assert np.max(np.abs(op.apply(f) - g)) <= 1e-10 * (1.0 + np.max(g))


def test_chain_failure_names_size_factors_and_gap(monkeypatch):
    fstar = np.array([4.0, 2.0, 1.0, 0.0])
    h = fill_to_exact_majorization(fstar, np.array([2.0, 2.0, 1.0, 1.0]))
    chain = t_transform_chain(fstar, h)
    residual = float(np.max(np.abs(chain.matrix @ fstar - h)))
    monkeypatch.setattr(majorize, "RESIDUAL_TOL", -1.0)
    limit = -1.0 * (1.0 + np.max(h))
    with pytest.raises(NumericalFailure) as info:
        t_transform_chain(fstar, h)
    message = str(info.value)
    assert "pinch chain" in message
    assert "n = 4" in message
    assert f"{len(chain.factors)} factors" in message
    assert info.value.best_value == residual
    assert info.value.gap == residual - limit
    with pytest.raises(NumericalFailure, match="pinch chain"):
        construct_positive_operator(_uniform(4), [4.0, 2.0, 1.0, 0.0], [2.0, 2.0, 1.0, 1.0])


def test_t_transform_chain_rejects_non_majorized_target():
    with pytest.raises(DomainError):
        t_transform_chain(np.array([3.0, 1.0]), np.array([3.5, 0.5]))
    with pytest.raises(DomainError):
        # totals differ
        t_transform_chain(np.array([3.0, 1.0]), np.array([2.0, 1.0]))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def test_matrix_operator_validation_and_norms():
    sp = _uniform(2)
    op = MatrixOperator(space=sp, entries=np.array([[0.5, 0.25], [0.0, 1.0]]))
    assert operator_norm_1(op) == pytest.approx(1.25)
    assert operator_norm_inf(op) == pytest.approx(1.0)
    assert np.allclose(op.apply([2.0, 4.0]), [2.0, 4.0])
    with pytest.raises(DimensionMismatch):
        MatrixOperator(space=sp, entries=np.array([[1.0, 0.0]]))
    with pytest.raises(DomainError):
        MatrixOperator(space=sp, entries=-np.eye(2), positive=True)


def test_sample_operator_norm_lower_bounds_exact():
    rng = np.random.default_rng(89)
    sp = _uniform(5)
    entries = rng.random((5, 5))
    op = MatrixOperator(space=sp, entries=entries)
    for spec, exact in (
        (WeightedP(1.0), operator_norm_1(op)),
        (WeightedP(INF), operator_norm_inf(op)),
    ):
        sampled = sample_operator_norm(op, spec, trials=400, seed=3)
        assert sampled <= exact * (1 + 1e-12)
        assert sampled >= 0.3 * exact


def test_sample_operator_norm_validates_its_seed_and_trial_count():
    op = MatrixOperator(space=_uniform(3), entries=np.eye(3))
    spec = WeightedP(2.0)
    for trials, seed, message in (
        (10, 2.7, "audit seed must be an integer, got 2.7"),
        (10, True, "audit seed must be an integer, got True"),
        (10, -1, "audit seed must be nonnegative, got -1"),
        (2.5, 0, "audit sample count must be an integer, got 2.5"),
        (True, 0, "audit sample count must be an integer, got True"),
        (0, 0, "need at least one audit sample, got 0"),
    ):
        with pytest.raises(DomainError, match=f"^{message}$"):
            sample_operator_norm(op, spec, trials=trials, seed=seed)
    # numpy integers are integers, and draw what the same Python int draws
    assert sample_operator_norm(op, spec, trials=np.int64(10), seed=np.uint8(2)) == (
        sample_operator_norm(op, spec, trials=10, seed=2)
    )


def test_construct_positive_operator_frozen_examples():
    sp3 = _uniform(3)
    result = construct_positive_operator(sp3, [4.0, 0.0, 0.0], [2.0, 2.0, 0.0])
    g = result.apply([4.0, 0.0, 0.0])
    assert np.allclose(g, [2.0, 2.0, 0.0], atol=1e-12)

    sp2 = _uniform(2)
    result = construct_positive_operator(sp2, [8.0, 0.0], [1.0, 1.0])
    assert np.allclose(result.entries, [[0.125, 0.125], [0.125, 0.125]], rtol=1e-12)


def test_construct_positive_operator_random_contracts():
    rng = np.random.default_rng(97)
    for _ in range(150):
        n = int(rng.integers(1, 20))
        sp = _uniform(n)
        f = 10.0 ** rng.uniform(-1.5, 1.5, size=n)
        q = rng.random((n, n))
        cap = max(np.max(np.sum(q, axis=0)), np.max(np.sum(q, axis=1)))
        g = (q / cap) @ f * rng.uniform(0.2, 1.0)
        op = construct_positive_operator(sp, f, g)
        assert np.all(op.entries >= 0.0)
        assert np.all(np.sum(op.entries, axis=0) <= 1.0 + 1e-12)
        assert np.all(np.sum(op.entries, axis=1) <= 1.0 + 1e-12)
        err = np.max(np.abs(op.apply(f) - g))
        assert err <= 1e-10 * (1.0 + np.max(np.abs(g)))


def test_construct_positive_operator_errors():
    sp = _uniform(2)
    with pytest.raises(DomainError):
        construct_positive_operator(sp, [1.0, 1.0], [3.0, 0.0])
    with pytest.raises(DomainError):
        construct_positive_operator(sp, [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        construct_positive_operator(sp, [1.0, -1.0], [0.5, 0.5])
    with pytest.raises(DomainError):
        construct_positive_operator(MeasureSpace([1.0, 2.0]), [1.0, 1.0], [0.5, 0.5])
    with pytest.raises(CapacityError):
        construct_positive_operator(
            _uniform(300), np.ones(300), 0.5 * np.ones(300)
        )


def test_construct_reports_first_failing_prefix():
    sp = _uniform(3)
    with pytest.raises(DomainError, match="prefix 1"):
        construct_positive_operator(sp, [1.0, 1.0, 1.0], [2.0, 0.0, 0.0])
