"""Dominated extension of a rank-one prescription to a full linear lift.

Given a positive operator T carrying alpha*|f|^p onto |g|^p, the map
H(h) = (T(alpha*|h|^p))^(1/p) is a sublinear majorant with H(f) = |g|.
Each output coordinate prescribes a rank-one constraint l(f) = g_i with
|l(h)| <= H_i(h).  Every such prescription is saturated, |g_i| = H_i(f), and
the weighted l_q dual ball is strictly convex, so the only dominated
extension is the functional that saturates Holder's inequality at f
(Taylor 1939, Foguel 1958); it is built in closed form and certified by its
dual seminorm.  Stacking the rows yields L with Lf = g and |Lh| <= H(h),
which pins the operator norm on both convexified spaces at 2^(1-1/p) when
alpha = 2^(p-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalFailure
from .kfunc import ORDER_GRID_SLACK, default_t_grid, profile
from .lattice import (
    INF,
    Couple,
    LatticeVector,
    convexify_couple,
    dual_p_norm,
    is_l1_linf,
    norm_values,
    values_of,
    vector,
)
from .majorize import MatrixOperator, construct_positive_operator

ROW_RESCALE_TOL = 1e-8
RESIDUAL_BUDGET = 1e-8
DOMINATION_SLACK = 1e-9


def default_alpha(p: float) -> float:
    return 2.0 ** (p - 1.0)


def norm_bound(p: float) -> float:
    """Operator norm 2^(1-1/p) the lift attains on both convexified spaces."""
    return 2.0 ** (1.0 - 1.0 / p)


def lift_certified(residual: float, violations: int, ratios, p: float) -> bool:
    """The lift certificate: residual, domination and sampled norm ratios."""
    return (
        residual <= RESIDUAL_BUDGET
        and violations == 0
        and all(r <= norm_bound(p) + DOMINATION_SLACK for r in ratios)
    )


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


def apply_majorant(majorant: SublinearMajorant, h) -> LatticeVector:
    space = majorant.operator.space
    powered = majorant.alpha * np.abs(values_of(h)) ** majorant.p
    out = majorant.operator.apply(powered) ** (1.0 / majorant.p)
    return vector(space, out)


def _apply_majorant_rows(majorant: SublinearMajorant, rows: np.ndarray) -> np.ndarray:
    powered = majorant.alpha * np.abs(rows) ** majorant.p
    return (powered @ majorant.operator.entries.T) ** (1.0 / majorant.p)


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


def check_minkowski(
    operator: MatrixOperator, h1, h2, p: float, abs_tol: float = 1e-12
) -> PropertyReport:
    """Componentwise (G|h1+h2|^p)^(1/p) <= (G|h1|^p)^(1/p) + (G|h2|^p)^(1/p)."""
    if not operator.positive:
        raise DomainError("positivity of the operator is required")
    if not (1.0 < p < INF):
        raise DomainError("exponent must lie in (1, inf)")
    a = values_of(h1)
    b = values_of(h2)
    lhs = operator.apply(np.abs(a + b) ** p) ** (1.0 / p)
    rhs = operator.apply(np.abs(a) ** p) ** (1.0 / p) + operator.apply(
        np.abs(b) ** p
    ) ** (1.0 / p)
    excess = lhs - rhs
    bad = np.flatnonzero(excess > abs_tol)
    violations = tuple((int(i), float(excess[i])) for i in bad)
    return PropertyReport(ok=not violations, checked=a.size, violations=violations)


def check_sublinear(
    majorant: SublinearMajorant,
    sample_count: int = 10_000,
    seed: int = 0,
    rel_tol: float = 1e-12,
    abs_tol: float = 1e-12,
) -> PropertyReport:
    """Sampled homogeneity H(c h) = |c| H(h) and subadditivity of H."""
    n = majorant.operator.space.n
    rng = np.random.Generator(np.random.Philox(key=seed))
    signs = rng.choice([-1.0, 1.0], size=(sample_count, 2 * n))
    mags = 10.0 ** rng.uniform(-2.0, 2.0, size=(sample_count, 2 * n))
    h1 = signs[:, :n] * mags[:, :n]
    h2 = signs[:, n:] * mags[:, n:]
    scal = rng.choice([-1.0, 1.0], size=sample_count) * 10.0 ** rng.uniform(
        -2.0, 2.0, size=sample_count
    )

    base = _apply_majorant_rows(majorant, h1)
    scaled = _apply_majorant_rows(majorant, scal[:, None] * h1)
    hom_err = np.abs(scaled - np.abs(scal)[:, None] * base)
    hom_bad = hom_err > rel_tol * np.maximum(scaled, 1e-300)

    together = _apply_majorant_rows(majorant, h1 + h2)
    apart = base + _apply_majorant_rows(majorant, h2)
    sub_bad = together - apart > abs_tol

    bad_rows = np.flatnonzero(np.any(hom_bad | sub_bad, axis=1))
    violations = tuple(int(i) for i in bad_rows[:32])
    return PropertyReport(
        ok=not violations, checked=sample_count, violations=violations
    )


# ---------------------------------------------------------------------------
# row extensions
# ---------------------------------------------------------------------------


def _row_feasible_target(g_i: float, attainable: float, slack: float) -> float:
    """Clamp the prescription onto the feasible ball, erroring past slack."""
    mag = abs(g_i)
    if mag <= attainable:
        return g_i
    if attainable == 0.0:
        raise DomainError("cannot dominate a nonzero value with a null row")
    if mag > attainable + slack + 1e-12 * attainable:
        raise DomainError(
            f"prescribed value {g_i:.6g} exceeds the attainable bound "
            f"{attainable:.6g} beyond tolerance"
        )
    return math.copysign(attainable, g_i)


def holder_extension_row(
    majorant: SublinearMajorant, f, g_i: float, i: int, slack: float = 0.0
) -> np.ndarray:
    """Dominated row with l(f) = g_i: the functional saturating Holder at f.

    A dual-seminorm evaluation on the row support certifies |l(h)| <= H_i(h);
    overshoot up to ROW_RESCALE_TOL is scaled away, beyond it the row fails.
    """
    fv = values_of(f)
    n = majorant.operator.space.n
    if fv.shape != (n,):
        raise DomainError("vector length does not match the operator space")
    if g_i == 0.0:
        return np.zeros(n)
    w = majorant.row_weights(i)
    p = majorant.p
    denom = float(np.sum(w * np.abs(fv) ** p))
    attainable = denom ** (1.0 / p)
    target = _row_feasible_target(float(g_i), attainable, slack)
    ell = target * w * np.abs(fv) ** (p - 1.0) * np.sign(fv) / denom
    sup = w > 0.0
    rho = float(dual_p_norm(w[sup], ell[sup], p))
    if rho > 1.0 + ROW_RESCALE_TOL:
        raise NumericalFailure(
            f"row {i}: domination certificate failed with dual norm {rho:.12g}",
            best_value=rho,
            gap=rho - 1.0,
        )
    if rho > 1.0:
        ell = ell / rho
    return ell


# Lift rows are saturated, |g_i| = H_i(f), and the weighted l_q dual ball is
# strictly convex, so the Holder row is the only dominated extension
# (Taylor 1939, Foguel 1958): a basis-by-basis greedy extension can only
# recompute it.  The name stays for callers of the former greedy route.
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
    prof_f = profile("K", conv, f, ts)
    prof_g = profile("K", conv, g, ts)
    slack = ORDER_GRID_SLACK * np.maximum(prof_f.values, 1e-300)
    tol = slack + prof_f.gaps + prof_g.gaps
    bad = np.flatnonzero(prof_g.values > prof_f.values + tol)
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"pair is not ordered on the convexified couple: at t={ts[i]:.6g}, "
            f"K(t, g) = {prof_g.values[i]:.17g} exceeds K(t, f) = "
            f"{prof_f.values[i]:.17g} by more than the tolerance {tol[i]:.3e}"
        )


def _audit_lift(
    operator: MatrixOperator,
    majorant: SublinearMajorant,
    f: np.ndarray,
    g: np.ndarray,
    conv: Couple,
    samples: int,
    seed: int,
):
    space = operator.space
    residual = float(
        np.max(np.abs(operator.apply(f) - g)) / (1.0 + np.max(np.abs(g)))
    )
    rng = np.random.Generator(np.random.Philox(key=seed))
    h = rng.choice([-1.0, 1.0], size=(samples, space.n)) * 10.0 ** rng.uniform(
        -2.0, 2.0, size=(samples, space.n)
    )
    lh = h @ operator.entries.T
    hh = _apply_majorant_rows(majorant, h)
    viol = int(np.sum(np.any(np.abs(lh) > hh * (1.0 + DOMINATION_SLACK), axis=1)))
    ratios = []
    for spec in (conv.norm0, conv.norm1):
        top = norm_values(spec, space, lh)
        bot = norm_values(spec, space, h)
        ratios.append(float(np.max(top / bot)))
    return residual, viol, tuple(ratios)


def lift_operator(
    couple: Couple,
    f,
    g,
    p: float,
    method: str = "holder",
    alpha: float | None = None,
    audit_samples: int = 2000,
    seed: int = 0,
) -> LiftResult:
    """Full pipeline: majorization, majorant, row extensions, certificates.

    The base couple must be the unweighted (l1, sup) pair; the ordering
    precondition is checked on its p-convexification before any construction
    happens, then T(alpha*|f|^p) = |g|^p is solved for a positive
    substochastic T and the prescription row by row.
    """
    if not is_l1_linf(couple) or not couple.space.is_uniform():
        raise DomainError("lifting requires the unweighted (l1, sup) base couple")
    if method not in ("holder", "greedy"):
        raise DomainError(f"unknown extension method: {method!r}")
    if not (1.0 < p < INF):
        raise DomainError("exponent must lie in (1, inf)")
    if alpha is None:
        alpha = default_alpha(p)
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise DomainError("alpha must be a positive real")
    if audit_samples < 1:
        raise DomainError(f"need at least one audit sample, got {audit_samples}")
    space = couple.space
    fv = values_of(f)
    gv = values_of(g)
    if fv.shape != (space.n,) or gv.shape != (space.n,):
        raise DomainError("vectors must match the atom count of the couple")

    conv = convexify_couple(couple, p)
    _require_k_ordering(conv, fv, gv)

    T = construct_positive_operator(space, alpha * np.abs(fv) ** p, np.abs(gv) ** p)
    majorant = SublinearMajorant(operator=T, alpha=alpha, p=p)

    # both methods take the forced Holder row; ``method`` is only recorded
    slack = 0.5 * RESIDUAL_BUDGET * (1.0 + float(np.max(np.abs(gv))))
    rows = [
        holder_extension_row(majorant, fv, float(gv[i]), i, slack=slack)
        for i in range(space.n)
    ]
    operator = MatrixOperator(space=space, entries=np.stack(rows, axis=0))

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
    """Recompute every lift certificate from scratch on a fresh sample set."""
    if samples < 1:
        raise DomainError(f"need at least one audit sample, got {samples}")
    fv = values_of(f)
    gv = values_of(g)
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
