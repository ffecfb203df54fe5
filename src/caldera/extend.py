"""Dominated extension of a rank-one prescription to a full linear lift.

Given a positive operator T carrying alpha*|f|^p onto |g|^p, the map
H(h) = (T(alpha*|h|^p))^(1/p) is a sublinear majorant with H(f) = |g|.
Each output coordinate prescribes a rank-one constraint l(f) = g_i with
|l(h)| <= H_i(h).  Every such prescription is saturated, |g_i| = H_i(f), and
the weighted l_q dual ball is strictly convex, so the only dominated
extension is the functional that saturates Holder's inequality at f
(Taylor 1939, Foguel 1958).  All rows are one formula, certified by one
batched dual-seminorm evaluation: L = diag(target/denom) . alpha T .
diag(|f|^(p-1) sgn f) with denom = alpha T |f|^p.  Then Lf = g and
|Lh| <= H(h), which pins the operator norm on both convexified spaces at
2^(1-1/p) when alpha = 2^(p-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NumericalFailure
from .kfunc import default_t_grid, k_order_breaks, profile
from .lattice import (
    INF,
    Couple,
    LatticeVector,
    convexify_couple,
    dual_p_norm,
    effective_exponent,
    is_l1_linf,
    norm_values,
    values_of,
    vector,
)
from .majorize import MatrixOperator, construct_positive_operator

ROW_RESCALE_TOL = 1e-8
RESIDUAL_BUDGET = 1e-8
DOMINATION_SLACK = 1e-9
# slack of the sampled Minkowski, homogeneity and subadditivity checks
PROPERTY_TOL = 1e-12
# float64 entries per audit block array: 256 KiB, about one L2 cache
AUDIT_BLOCK = 32768


def default_alpha(p: float) -> float:
    return 2.0 ** (p - 1.0)


def norm_bound(p: float) -> float:
    """Operator norm 2^(1-1/p) the lift attains on both convexified spaces."""
    return 2.0 ** (1.0 - 1.0 / p)


def lift_violations(residual: float, violations: int, ratios, p: float) -> int:
    """Broken lift certificates: domination violations, a residual over budget
    and each sampled norm ratio over the bound.  A NaN residual or ratio counts
    as broken."""
    bound = norm_bound(p) + DOMINATION_SLACK
    broken = violations + int(not residual <= RESIDUAL_BUDGET)
    return broken + sum(int(not r <= bound) for r in ratios)


def lift_certified(residual: float, violations: int, ratios, p: float) -> bool:
    """The lift certificate: residual, domination and sampled norm ratios."""
    return lift_violations(residual, violations, ratios, p) == 0


@dataclass(frozen=True)
class SublinearMajorant:
    """Componentwise map h -> (T(alpha*|h|^p))^(1/p) for a positive T."""

    operator: MatrixOperator
    alpha: float
    p: float

    def __post_init__(self):
        if not self.operator.positive:
            raise DomainError("majorant requires a positive operator")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise DomainError("alpha must be a positive real")
        if not (1.0 < self.p < INF):
            raise DomainError("exponent must lie in (1, inf)")

    def row_weights(self, i: int) -> np.ndarray:
        return self.alpha * self.operator.entries[i]

    def values(self, h: np.ndarray) -> np.ndarray:
        """H(h), reduced over the last axis: one vector or a batch of rows."""
        return ((self.alpha * np.abs(h) ** self.p) @ self.operator.entries.T) ** (
            1.0 / self.p
        )


def apply_majorant(majorant: SublinearMajorant, h) -> LatticeVector:
    return vector(majorant.operator.space, majorant.values(values_of(h)))


# ---------------------------------------------------------------------------
# property audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyReport:
    ok: bool
    checked: int
    violations: tuple

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def check_minkowski(operator: MatrixOperator, h1, h2, p: float) -> PropertyReport:
    """Componentwise (G|h1+h2|^p)^(1/p) <= (G|h1|^p)^(1/p) + (G|h2|^p)^(1/p)."""
    # the subadditivity of the majorant with alpha = 1, which checks T and p
    majorant = SublinearMajorant(operator=operator, alpha=1.0, p=p)
    a = values_of(h1)
    b = values_of(h2)
    excess = majorant.values(a + b) - (majorant.values(a) + majorant.values(b))
    bad = np.flatnonzero(excess > PROPERTY_TOL)
    violations = tuple((int(i), float(excess[i])) for i in bad)
    return PropertyReport(ok=not violations, checked=a.size, violations=violations)


def check_sublinear(
    majorant: SublinearMajorant, sample_count: int = 10_000, seed: int = 0
) -> PropertyReport:
    """Sampled homogeneity H(c h) = |c| H(h) and subadditivity of H.

    Sample k is row k = (h1 | h2 | c) of the blocked ``_audit_samples`` draw.
    It is bad unless its four H values are finite and both properties hold.
    """
    if sample_count < 1:
        raise DomainError(f"need at least one audit sample, got {sample_count}")
    n = majorant.operator.space.n
    violations: list = []
    start = 0
    for h in _audit_samples(sample_count, 2 * n + 1, seed):
        h1, h2, c = h[:, :n], h[:, n:-1], h[:, -1:]
        base = majorant.values(h1)
        scaled = majorant.values(c * h1)
        other = majorant.values(h2)
        together = majorant.values(h1 + h2)
        hom_err = np.abs(scaled - np.abs(c) * base)
        held = (
            np.all(np.isfinite([base, scaled, other, together]), axis=0)
            & (hom_err <= PROPERTY_TOL * np.maximum(scaled, 1e-300))
            & (together - (base + other) <= PROPERTY_TOL)
        )
        bad = np.flatnonzero(~np.all(held, axis=1))
        violations.extend(int(start + i) for i in bad[: 32 - len(violations)])
        start += h.shape[0]
    return PropertyReport(
        ok=not violations, checked=sample_count, violations=tuple(violations)
    )


# ---------------------------------------------------------------------------
# row extensions
# ---------------------------------------------------------------------------


def holder_rows(
    majorant: SublinearMajorant, f, g, rows: np.ndarray, slack: float = 0.0
) -> np.ndarray:
    """Rows ``rows`` of the forced lift L, prescribed (L f)_i = g_i on each.

    target is g clamped onto the attainable bound denom^(1/p); a row with
    g_i = 0 is zero.  The batched certificate scales overshoot up to
    ROW_RESCALE_TOL away and fails on any other dual norm, NaN included.
    """
    fv = values_of(f)
    if fv.shape != (majorant.operator.space.n,):
        raise DomainError("vector length does not match the operator space")
    g = values_of(g, len(rows))
    p = majorant.p
    w = majorant.alpha * majorant.operator.entries[rows]
    a = np.abs(fv)
    denom = (w * a**p).sum(axis=-1)
    attainable = denom ** (1.0 / p)
    mag = np.abs(g)
    over = mag > attainable
    beyond = over & (
        (attainable == 0.0) | (mag > attainable + slack + 1e-12 * attainable)
    )
    if beyond.any():
        k = int(np.argmax(beyond))
        if attainable[k] == 0.0:
            raise DomainError(
                f"row {rows[k]}: cannot dominate a nonzero value with a null row"
            )
        raise DomainError(
            f"row {rows[k]}: prescribed value {g[k]:.6g} exceeds the attainable "
            f"bound {attainable[k]:.6g} beyond tolerance"
        )
    target = np.where(over, np.copysign(attainable, g), g)[:, None]
    live = (g != 0.0)[:, None]
    safe = np.where(live, denom[:, None], 1.0)
    ell = np.where(live, target * w * a ** (p - 1.0) * np.sign(fv) / safe, 0.0)
    rho = dual_p_norm(np.where(w > 0.0, w, 1.0), ell, p)
    failed = np.flatnonzero(~(rho <= 1.0 + ROW_RESCALE_TOL))
    if failed.size:
        k = int(failed[0])
        bad = float(rho[k])
        raise NumericalFailure(
            f"row {rows[k]}: domination certificate failed with dual norm {bad:.12g}",
            best_value=bad,
            gap=bad - 1.0,
        )
    return ell / np.maximum(rho, 1.0)[:, None]


def holder_extension_row(
    majorant: SublinearMajorant, f, g_i: float, i: int
) -> np.ndarray:
    """Dominated row with l(f) = g_i: row i of ``holder_rows``."""
    return holder_rows(majorant, f, [g_i], np.array([i]))[0]


# Lift rows are saturated, |g_i| = H_i(f), and the weighted l_q dual ball is
# strictly convex, so the Holder row is the only dominated extension
# (Taylor 1939, Foguel 1958): a basis-by-basis greedy extension can only
# recompute it.  The alias stays only because perfbench/tracing.py patches
# it by name.
greedy_hb_extension_row = holder_extension_row


# ---------------------------------------------------------------------------
# lift pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftResult:
    operator: MatrixOperator
    majorant: SublinearMajorant
    method: str
    alpha: float
    p: float
    residual_lf_g: float
    domination_violations: int
    norm_sample_ratios: tuple
    audit_samples: int
    audit_seed: int


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    residual_lf_g: float
    domination_violations: int
    norm_sample_ratios: tuple
    norm_bound: float
    samples: int
    seed: int


def _require_k_ordering(conv: Couple, f: np.ndarray, g: np.ndarray) -> None:
    ts = default_t_grid()
    prof = profile("K", conv, np.stack([f, g]), ts)
    broken, tol = k_order_breaks(prof)
    if broken.any():
        i = int(np.argmax(broken))
        kf, kg = prof.values[:, i]
        raise DomainError(
            f"pair is not ordered on the convexified couple: at t={ts[i]:.6g}, "
            f"K(t, g) = {kg:.17g} exceeds K(t, f) = "
            f"{kf:.17g} by more than the tolerance {tol[i]:.3e}"
        )


def _audit_samples(samples: int, n: int, seed: int):
    """The audit's (samples, n) draw h = choice([-1, 1]) * 10^uniform(-2, 2)
    from Generator(Philox(key=seed)), yielded in blocks of AUDIT_BLOCK entries.

    A sign takes one 32-bit word, so the exponents start ceil(samples n / 2)
    64-bit words into the same stream, four words per Philox counter step.
    """
    signs = np.random.Generator(np.random.Philox(key=seed))
    skip = -(-samples * n // 2)
    bits = np.random.Philox(key=seed)
    bits.advance(skip // 4)
    bits.random_raw(skip % 4)
    exponents = np.random.Generator(bits)
    rows = max(1, AUDIT_BLOCK // n)
    for start in range(0, samples, rows):
        shape = (min(rows, samples - start), n)
        sign = signs.choice([-1.0, 1.0], size=shape)
        yield sign * 10.0 ** exponents.uniform(-2.0, 2.0, size=shape)


def _audit_lift(
    operator: MatrixOperator,
    majorant: SublinearMajorant,
    f: np.ndarray,
    g: np.ndarray,
    conv: Couple,
    samples: int,
    seed: int,
):
    """Residual, domination violations and sampled norm ratios of a lift.

    A sample violates domination unless H(h) is finite and
    |Lh| <= H(h) (1 + DOMINATION_SLACK).  Memory does not grow with the
    sample count: each block of ``_audit_samples`` is folded into a running
    count and running maxima.
    """
    space = operator.space
    residual = float(
        np.max(np.abs(operator.apply(f) - g)) / (1.0 + np.max(np.abs(g)))
    )
    viol = 0
    peaks = np.full(2, -np.inf)
    for h in _audit_samples(samples, space.n, seed):
        lh = h @ operator.entries.T
        hh = majorant.values(h)
        held = np.isfinite(hh) & (np.abs(lh) <= hh * (1.0 + DOMINATION_SLACK))
        viol += int(np.sum(~np.all(held, axis=1)))
        # np.maximum keeps a NaN ratio, which the certificate counts as broken
        peaks = np.maximum(
            peaks,
            [
                np.max(norm_values(spec, space, lh) / norm_values(spec, space, h))
                for spec in (conv.norm0, conv.norm1)
            ],
        )
    return residual, viol, tuple(float(r) for r in peaks)


def lift_operator(
    couple: Couple,
    f,
    g,
    p: float,
    method: str = "holder",
    audit_samples: int = 2000,
    seed: int = 0,
) -> LiftResult:
    """Full pipeline: majorization, majorant, row extensions, certificates.

    The base couple must be the unweighted (l1, sup) pair; the ordering
    precondition is checked on its p-convexification before any construction
    happens, then T(alpha*|f|^p) = |g|^p with alpha = 2^(p-1) is solved for
    a positive substochastic T and L is built and certified by
    ``holder_rows``.
    """
    if not is_l1_linf(couple) or not couple.space.is_uniform():
        raise DomainError("lifting requires the unweighted (l1, sup) base couple")
    if method not in ("holder", "greedy"):
        raise DomainError(f"unknown extension method: {method!r}")
    if not (1.0 < p < INF):
        raise DomainError("exponent must lie in (1, inf)")
    alpha = default_alpha(p)
    if audit_samples < 1:
        raise DomainError(f"need at least one audit sample, got {audit_samples}")
    space = couple.space
    fv = values_of(f)
    gv = values_of(g)
    if fv.shape != (space.n,) or gv.shape != (space.n,):
        raise DomainError("vectors must match the atom count of the couple")

    conv = convexify_couple(couple, p)
    _require_k_ordering(conv, fv, gv)

    with np.errstate(over="ignore"):
        source, target = alpha * np.abs(fv) ** p, np.abs(gv) ** p
    for name, power in (("alpha |f|^p", source), ("|g|^p", target)):
        if not np.all(np.isfinite(power)):
            raise DomainError(f"{name} overflows at p = {p:g}")
    T = construct_positive_operator(space, source, target)
    majorant = SublinearMajorant(operator=T, alpha=alpha, p=p)

    # both methods take the forced Holder rows and ``method`` is only
    # recorded; perfbench/workloads.py still passes "greedy"
    slack = 0.5 * RESIDUAL_BUDGET * (1.0 + float(np.max(np.abs(gv))))
    entries = holder_rows(majorant, fv, gv, np.arange(space.n), slack=slack)
    operator = MatrixOperator(space=space, entries=entries)

    residual, viol, ratios = _audit_lift(
        operator, majorant, fv, gv, conv, audit_samples, seed
    )
    return LiftResult(
        operator=operator,
        majorant=majorant,
        method=method,
        alpha=alpha,
        p=p,
        residual_lf_g=residual,
        domination_violations=viol,
        norm_sample_ratios=ratios,
        audit_samples=audit_samples,
        audit_seed=seed,
    )


def verify_lift(
    result: LiftResult,
    majorant: SublinearMajorant,
    f,
    g,
    couple_p: Couple,
    samples: int = 10_000,
    seed: int = 1,
) -> VerifyReport:
    """Recompute every lift certificate from scratch on a fresh sample set,
    on ``couple_p``, the lift's couple convexified at ``result.p``."""
    if samples < 1:
        raise DomainError(f"need at least one audit sample, got {samples}")
    space = result.operator.space
    if couple_p.space.n != space.n:
        raise DimensionMismatch(f"couple has {couple_p.space.n} atoms, lift {space.n}")
    exponents = (effective_exponent(couple_p.norm0), effective_exponent(couple_p.norm1))
    if exponents != (result.p, INF):
        raise DomainError(f"couple exponents {exponents}, need ({result.p:g}, inf)")
    fv = values_of(f, space.n)
    gv = values_of(g, space.n)
    residual, viol, ratios = _audit_lift(
        result.operator, majorant, fv, gv, couple_p, samples, seed
    )
    return VerifyReport(
        ok=lift_certified(residual, viol, ratios, result.p),
        residual_lf_g=residual,
        domination_violations=viol,
        norm_sample_ratios=ratios,
        norm_bound=norm_bound(result.p),
        samples=samples,
        seed=seed,
    )
