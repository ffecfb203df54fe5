"""Acceptance gate: the eight desk-scale properties the package must certify.

Each test prints one summary line through the criterion_report fixture so a
full run ends with an at-a-glance pass/fail table.  Budgets and tolerances
are pinned here on purpose; loosening them is a code change, not a rerun.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from caldera import (
    MeasureSpace,
    check_d_power_sandwich,
    check_k_d_sandwich,
    check_k_power_sandwich,
    check_minkowski,
    construct_positive_operator,
    generate_instance,
    k_exact_l1_linf,
    lift_operator,
    lub,
    power_vector,
    vector,
)
from caldera import kfunc
from caldera.instances import orchestration_rng, payload_rng
from caldera.majorize import MatrixOperator


def _sizes(seed, count, lo, hi):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.integers(lo, hi + 1, size=count)


def test_criterion_1_k_d_sandwich(criterion_report):
    start = time.perf_counter()
    violations = 0
    worst = 0.0
    sizes = _sizes(101, 1000, 1, 12)
    for i in range(1000):
        inst = generate_instance(101, int(sizes[i]), index=i, uniform_weights=False)
        report = check_k_d_sandwich(inst.couple, inst.f)
        violations += len(report.violations)
        worst = max(worst, report.max_ratio)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    criterion_report(
        f"criterion 1 K<=D<=2K sandwich: {'PASS' if ok else 'FAIL'} "
        f"(1000 instances, 0 tolerance breaches expected, got {violations}; "
        f"max D/K {worst:.6f}; {elapsed:.1f}s)"
    )
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_2_power_sandwich_disjoint(criterion_report):
    start = time.perf_counter()
    violations = 0
    worst_excess = -np.inf
    index = 0
    for p in (1.5, 2.0, 3.0):
        bound = 2.0 ** (1.0 - 1.0 / p)
        sizes = _sizes(211 + int(10 * p), 300, 1, 10)
        for i in range(300):
            inst = generate_instance(
                211, int(sizes[i]), p=p, index=index, uniform_weights=False
            )
            index += 1
            report = check_d_power_sandwich(inst.couple, inst.f, p)
            violations += len(report.violations)
            worst_excess = max(worst_excess, report.max_ratio - bound)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 120.0
    criterion_report(
        f"criterion 2 disjoint power sandwich: {'PASS' if ok else 'FAIL'} "
        f"(900 instances over p in {{1.5, 2, 3}}; violations {violations}; "
        f"worst ratio excess {worst_excess:.2e}; {elapsed:.1f}s)"
    )
    assert violations == 0
    assert elapsed < 120.0


def test_criterion_3_power_sandwich_k_and_corollary(criterion_report):
    start = time.perf_counter()
    violations = 0
    corollary_failures = 0
    worst_excess = -np.inf
    index = 0
    for p in (1.5, 2.0, 3.0):
        bound = 2.0 ** (1.0 - 1.0 / p)
        sizes = _sizes(307 + int(10 * p), 300, 1, 10)
        for i in range(300):
            inst = generate_instance(
                307, int(sizes[i]), p=p, index=index, uniform_weights=False
            )
            index += 1
            report = check_k_power_sandwich(inst.couple, inst.f, p)
            violations += len(report.violations)
            corollary_failures += 0 if report.corollary_ok else 1
            worst_excess = max(worst_excess, report.max_ratio - bound)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and corollary_failures == 0 and worst_excess <= 2e-6
    criterion_report(
        f"criterion 3 solver power sandwich + corollary: {'PASS' if ok else 'FAIL'} "
        f"(900 instances; violations {violations}; corollary failures "
        f"{corollary_failures}; worst ratio excess {worst_excess:.2e}; "
        f"{elapsed:.1f}s)"
    )
    assert violations == 0
    assert corollary_failures == 0
    assert worst_excess <= 2e-6


def test_criterion_4_minkowski(criterion_report):
    start = time.perf_counter()
    total = 100_000
    rng = np.random.Generator(np.random.Philox(key=401))
    sizes = rng.integers(1, 9, size=total)
    exponents = rng.uniform(1.01, 4.0, size=total)
    violations = 0
    for i in range(total):
        n = int(sizes[i])
        op = MatrixOperator(
            space=MeasureSpace(np.ones(n)),
            entries=rng.random((n, n)),
            positive=True,
        )
        signs = rng.choice([-1.0, 1.0], size=(2, n))
        mags = 10.0 ** rng.uniform(-2.0, 2.0, size=(2, n))
        report = check_minkowski(
            op, signs[0] * mags[0], signs[1] * mags[1], float(exponents[i])
        )
        violations += len(report.violations)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    criterion_report(
        f"criterion 4 componentwise Minkowski: {'PASS' if ok else 'FAIL'} "
        f"(100000 triples; violations {violations}; {elapsed:.1f}s)"
    )
    assert violations == 0
    assert elapsed < 30.0


def test_criterion_5_base_operator_certificates(criterion_report):
    start = time.perf_counter()
    failures = 0
    worst_col = 0.0
    worst_row = 0.0
    worst_res = 0.0
    sizes = _sizes(503, 500, 1, 64)
    for i in range(500):
        inst = generate_instance(
            503, int(sizes[i]), positivity=True, k_ordered=True, index=i
        )
        try:
            op = construct_positive_operator(inst.space, inst.f, inst.g)
        except Exception:
            failures += 1
            continue
        if np.any(op.entries < 0.0):
            failures += 1
            continue
        worst_col = max(worst_col, float(np.max(np.sum(op.entries, axis=0))))
        worst_row = max(worst_row, float(np.max(np.sum(op.entries, axis=1))))
        res = float(
            np.max(np.abs(op.apply(inst.f) - inst.g)) / (1.0 + np.max(np.abs(inst.g)))
        )
        worst_res = max(worst_res, res)
    elapsed = time.perf_counter() - start
    ok = (
        failures == 0
        and worst_col <= 1.0 + 1e-12
        and worst_row <= 1.0 + 1e-12
        and worst_res <= 1e-10
    )
    criterion_report(
        f"criterion 5 substochastic transport: {'PASS' if ok else 'FAIL'} "
        f"(500 pairs up to n=64; failures {failures}; max col sum {worst_col:.12f}, "
        f"max row sum {worst_row:.12f}, max residual {worst_res:.2e}; "
        f"{elapsed:.1f}s)"
    )
    assert failures == 0
    assert worst_col <= 1.0 + 1e-12
    assert worst_row <= 1.0 + 1e-12
    assert worst_res <= 1e-10


def test_criterion_6_end_to_end_lift(criterion_report):
    start = time.perf_counter()
    bad_residual = 0
    domination_violations = 0
    bad_ratio = 0
    index = 0
    for p in (1.5, 2.0, 3.0):
        bound = 2.0 ** (1.0 - 1.0 / p)
        sizes = _sizes(601 + int(10 * p), 200, 1, 12)
        for i in range(200):
            inst = generate_instance(601, int(sizes[i]), p=p, k_ordered=True, index=index)
            index += 1
            for method in ("holder", "greedy"):
                result = lift_operator(
                    inst.couple,
                    inst.f,
                    inst.g,
                    p,
                    method=method,
                    audit_samples=10_000,
                    seed=index,
                )
                if result.residual_lf_g > 1e-8:
                    bad_residual += 1
                domination_violations += result.domination_violations
                if any(r > bound + 1e-9 for r in result.norm_sample_ratios):
                    bad_ratio += 1
    elapsed = time.perf_counter() - start
    ok = (
        bad_residual == 0
        and domination_violations == 0
        and bad_ratio == 0
        and elapsed < 300.0
    )
    criterion_report(
        f"criterion 6 end-to-end lift: {'PASS' if ok else 'FAIL'} "
        f"(600 pairs x 2 methods, 10000 audit samples each; residual breaches "
        f"{bad_residual}, domination violations {domination_violations}, norm "
        f"bound breaches {bad_ratio}; {elapsed:.1f}s)"
    )
    assert bad_residual == 0
    assert domination_violations == 0
    assert bad_ratio == 0
    assert elapsed < 300.0


def _holder_rows_by_fsum(result, f, g):
    """The forced Holder rows from the lift's T, each sum by ``math.fsum``:
    L_ij = target_i alpha T_ij |f_j|^(p-1) sgn f_j / sum_k alpha T_ik |f_k|^p,
    target_i = g_i clamped to the attainable bound denom_i^(1/p); a row with
    g_i = 0 is zero."""
    p, alpha = result.p, result.alpha
    rows = np.zeros((len(g), len(f)))
    for i, (t_row, g_i) in enumerate(zip(result.majorant.operator.entries, g)):
        if g_i == 0.0:
            continue
        w = [alpha * float(x) for x in t_row]
        denom = math.fsum(w_j * abs(f_j) ** p for w_j, f_j in zip(w, f))
        bound = denom ** (1.0 / p)
        target = math.copysign(bound, g_i) if abs(g_i) > bound else float(g_i)
        for j, f_j in enumerate(f):
            if f_j != 0.0:
                slope = abs(f_j) ** (p - 1.0) * math.copysign(1.0, f_j)
                rows[i, j] = target * w[j] * slope / denom
    return rows


def test_criterion_7_route_agreement(criterion_report):
    start = time.perf_counter()
    # the truncation-level solve at p0 = 1 versus the closed form on the base
    # couple: two routes, so the worst error is nonzero
    worst_rel = 0.0
    sizes = _sizes(701, 1000, 1, 12)
    rng = np.random.Generator(np.random.Philox(key=702))
    ts = 10.0 ** rng.uniform(-3, 3, size=1000)
    for i in range(1000):
        inst = generate_instance(701, int(sizes[i]), index=i, uniform_weights=False)
        exact, _ = k_exact_l1_linf(inst.space, inst.f, float(ts[i]))
        solved = kfunc._k_truncation(inst.space.weights, np.abs(inst.f), 1.0, ts[i : i + 1])
        approx = float(solved[0][0])
        worst_rel = max(worst_rel, abs(approx - exact) / max(exact, 1e-300))
    # the two extension methods on shared instances
    cert_failures = 0
    worst_span_gap = 0.0
    worst_oracle = 0.0
    sizes = _sizes(703, 50, 1, 12)
    for i in range(50):
        orch = orchestration_rng(703, i)
        p = float(orch.choice([1.5, 2.0, 3.0]))
        inst = generate_instance(703, int(sizes[i]), p=p, k_ordered=True, index=i)
        bound = 2.0 ** (1.0 - 1.0 / p)
        images = []
        for method in ("holder", "greedy"):
            result = lift_operator(
                inst.couple, inst.f, inst.g, p, method=method,
                audit_samples=2000, seed=i,
            )
            if (
                result.residual_lf_g > 1e-8
                or result.domination_violations != 0
                or any(r > bound + 1e-9 for r in result.norm_sample_ratios)
            ):
                cert_failures += 1
            images.append(result.operator.apply(inst.f))
            # an independent route: the rows rebuilt from T with exact sums
            oracle = _holder_rows_by_fsum(result, inst.f, inst.g)
            err = np.abs(result.operator.entries - oracle) / np.maximum(np.abs(oracle), 1e-300)
            worst_oracle = max(worst_oracle, float(np.max(err)))
        gap = float(
            np.max(np.abs(images[0] - images[1])) / (1.0 + np.max(np.abs(inst.g)))
        )
        worst_span_gap = max(worst_span_gap, gap)
    elapsed = time.perf_counter() - start
    ok = (
        0.0 < worst_rel <= 1e-6
        and cert_failures == 0
        and worst_span_gap <= 1e-10
        and worst_oracle <= 1e-12
    )
    criterion_report(
        f"criterion 7 independent-route agreement: {'PASS' if ok else 'FAIL'} "
        f"(p0 = 1 truncation solve vs closed form max rel {worst_rel:.2e} over 1000 pairs; "
        f"method certificate failures {cert_failures}; max span gap "
        f"{worst_span_gap:.2e}; lift vs fsum Holder rows max rel "
        f"{worst_oracle:.2e}; {elapsed:.1f}s)"
    )
    assert 0.0 < worst_rel <= 1e-6
    assert cert_failures == 0
    assert worst_span_gap <= 1e-10
    assert worst_oracle <= 1e-12


def test_criterion_8_lub_identities(criterion_report):
    start = time.perf_counter()
    splitting_bad = 0
    localization_bad = 0
    power_bad = 0
    for i in range(1000):
        rng = payload_rng(801, i)
        n = int(rng.integers(1, 10))
        space = MeasureSpace(np.ones(n))
        count = int(rng.integers(2, 6))
        fam = [
            vector(space, 10.0 ** rng.uniform(-2, 2, size=n)) for _ in range(count)
        ]
        top = lub(fam)
        scale = float(np.max(top.values))

        mask = rng.random(n) < 0.5
        left = lub([vector(space, np.where(mask, v.values, 0.0)) for v in fam])
        right = lub([vector(space, np.where(mask, 0.0, v.values)) for v in fam])
        if np.max(np.abs(left.values + right.values - top.values)) > 1e-12 * scale:
            splitting_bad += 1

        f0 = fam[0]
        ratios = lub([vector(space, v.values / f0.values) for v in fam])
        if np.max(np.abs(f0.values * ratios.values - top.values)) > 1e-12 * scale:
            localization_bad += 1

        q = float(rng.uniform(1.5, 3.0))
        powered = lub([power_vector(v, q) for v in fam])
        direct = power_vector(top, q)
        if np.max(np.abs(powered.values - direct.values)) > 1e-12 * np.max(
            direct.values
        ):
            power_bad += 1
    elapsed = time.perf_counter() - start
    total_bad = splitting_bad + localization_bad + power_bad
    ok = total_bad == 0 and elapsed < 10.0
    criterion_report(
        f"criterion 8 lattice lub identities: {'PASS' if ok else 'FAIL'} "
        f"(1000 families; splitting/localization/power failures "
        f"{splitting_bad}/{localization_bad}/{power_bad}; {elapsed:.1f}s)"
    )
    assert total_bad == 0
    assert elapsed < 10.0
