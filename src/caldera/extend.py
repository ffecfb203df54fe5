"""Dominated extension of a rank-one prescription to a full linear lift.

Given a positive operator T carrying alpha*|f|^p onto |g|^p, the map
H(h) = (T(alpha*|h|^p))^(1/p) is a sublinear majorant with H(f) = |g|.
Each output coordinate prescribes a rank-one constraint l(f) = g_i with
|l(h)| <= H_i(h).  Every such prescription is saturated, |g_i| = H_i(f), and
the weighted l_q dual ball is strictly convex, so the only dominated
extension is the functional that saturates Holder's inequality at f
(Taylor 1939, Foguel 1958).  All rows are one formula, certified by one
batched dual-seminorm evaluation per block: L = diag(target/denom) . alpha T .
diag(|f|^(p-1) sgn f) with denom = alpha T |f|^p.  Then Lf = g and
|Lh| <= H(h), which pins the operator norm on both convexified spaces at
2^(1-1/p) when alpha = 2^(p-1).  The precondition K(t, g) <= K(t, f) on
the convexified couple is decided by ``caldera.kfunc.k_order_failure``: the
exact power rule first (|g|^p weakly submajorized by |f|^p), one K profile
on the default 61-point grid only for a pair that rule declines.

Each lift is certified by a sampled audit (``_audit_lift``): the relative
residual max|Lf - g| / max|g|, domination |Lh| <= H(h) and the p-norm and
sup-norm ratios against 2^(1-1/p).  A block of samples takes two n-wide
powers, which it shares: x = |h|^p gives H(h)^p = T(alpha x) and
||h||_p^p, and y = |Lh|^p the domination test y <= (1 + slack)^p H^p and
||Lh||_p^p.  Where a power leaves the normal float range, a cell is decided
on |Lh| and H = (H^p)^(1/p), and a row by max-scaled p-norms, as before.
The audit law keeps |h| in [1e-2, 1e2], so |h|^p stays normal for p up to
about 150 (10^(2p) against the largest float, 1.8e308).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NumericalFailure
# profile is unused here; it stays because perfbench/tracing.py patches extend.profile
from .kfunc import k_order_failure, profile
from .lattice import (
    INF,
    Couple,
    LatticeVector,
    check_audit_budget,
    convexification_exponent,
    convexify_couple,
    dual_p_norm,
    effective_exponent,
    is_l1_linf,
    # unused here; it stays because perfbench/tracing.py patches extend.norm_values
    norm_values,
    norm_bound,
    scaled_p_norm,
    signed_log_uniform,
    values_of,
    vector,
)
from .majorize import MatrixOperator, construct_positive_operator

ROW_RESCALE_TOL = 1e-8
RESIDUAL_BUDGET = 1e-8
DOMINATION_SLACK = 1e-9
# slack of the sampled Minkowski, homogeneity and subadditivity checks
PROPERTY_TOL = 1e-12
# float64 entries per block array of every lift stage (the Holder rows, the
# audit draw and its products): 256 KiB, about one L2 cache.  A lift holds
# its outputs T and L and a few such blocks, whatever n or the sample count
AUDIT_BLOCK = 32768
# rows shorter than this take their maxima on a column-major copy.  Median
# of 9 x 100 calls on a 2000-row block (one 2-vCPU Xeon VM): numpy's
# per-row max took 125 us at n = 12 and 92 us at n = 16, the copy 30 and
# 47 us; at n = 64 (512 rows) the copy took 62 us against 29 us, and at
# n = 256 (128 rows) 65 against 11 us
_COLUMN_MAX_BELOW = 64
# the smallest normal float64: a power at or above it keeps full relative
# precision, one below it may have lost it to underflow
_TINY = float(np.finfo(float).tiny)


def default_alpha(p: float) -> float:
    """alpha = 2^(p-1); a DomainError where it overflows, p above about 1025."""
    try:
        return 2.0 ** (p - 1.0)
    except OverflowError:
        raise DomainError(f"alpha = 2^(p-1) overflows at p = {p:g}") from None


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
        convexification_exponent(self.p)

    def row_weights(self, i: int) -> np.ndarray:
        return self.alpha * self.operator.entries[i]

    def powers(self, x: np.ndarray) -> np.ndarray:
        """H(h)^p = T(alpha x) for the powers x = |h|^p, reduced over the last
        axis; x is scaled by alpha in place."""
        x *= self.alpha
        return x @ self.operator.entries.T

    def values(self, h: np.ndarray) -> np.ndarray:
        """H(h), the p-th root of ``powers``: one vector or a batch of rows.

        |h|^p and the root are formed in place on the fresh |h| and the
        product, never on ``h``.
        """
        x = np.abs(h, dtype=float)
        x **= self.p
        hh = self.powers(x)
        hh **= 1.0 / self.p
        return hh


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
    # fail closed: an overflowing H makes the excess inf - inf = NaN
    bad = np.flatnonzero(~(excess <= PROPERTY_TOL))
    violations = tuple((int(i), float(excess[i])) for i in bad)
    return PropertyReport(ok=not violations, checked=a.size, violations=violations)


def check_sublinear(
    majorant: SublinearMajorant, sample_count: int = 10_000, seed: int = 0
) -> PropertyReport:
    """Sampled homogeneity H(c h) = |c| H(h) and subadditivity of H.

    Sample k is row k = (h1 | h2 | c) of the blocked ``_audit_samples`` draw.
    It is bad unless its four H values are finite and both properties hold.
    """
    check_audit_budget(sample_count, seed)
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
            np.isfinite(base)
            & np.isfinite(scaled)
            & np.isfinite(other)
            & np.isfinite(together)
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
    The rows are filled in blocks of AUDIT_BLOCK entries, which raise the
    first DomainError; the certificate then runs once over every row, so a
    DomainError takes precedence, and each error names the first row it
    found.
    """
    fv = values_of(f)
    n = majorant.operator.space.n
    if fv.shape != (n,):
        raise DomainError("vector length does not match the operator space")
    g = values_of(g, len(rows))
    p = majorant.p
    a = np.abs(fv)
    powered, slope, sign = a**p, a ** (p - 1.0), np.sign(fv)
    out = np.empty((len(rows), n))
    rho = np.empty(len(rows))
    step = max(1, AUDIT_BLOCK // n)
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        rho[block] = _holder_block(
            majorant, rows[block], g[block], powered, slope, sign, slack, out[block]
        )
    failed = np.flatnonzero(~(rho <= 1.0 + ROW_RESCALE_TOL))
    if failed.size:
        k = int(failed[0])
        raise NumericalFailure(
            f"row {rows[k]}: domination certificate failed with dual norm {rho[k]:.12g}",
            best_value=float(rho[k]),
            gap=float(rho[k]) - 1.0,
        )
    out /= np.maximum(rho, 1.0)[:, None]
    return out


def _holder_block(
    majorant: SublinearMajorant, rows, g, powered, slope, sign, slack, ell
):
    """Fill ``ell`` with the unscaled Holder rows ``rows`` of ``holder_rows``
    and return their dual norms; raise the block's first DomainError."""
    p = majorant.p
    w = majorant.operator.entries[rows]
    w *= majorant.alpha
    denom = (w * powered).sum(axis=-1)
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
    live = g != 0.0
    safe = np.where(live, denom, 1.0)[:, None]
    # target * w * |f|^(p-1) * sgn f / denom on live rows, zero on the others
    np.multiply(target, w, out=ell)
    ell *= slope
    ell *= sign
    ell /= safe
    ell[~live] = 0.0
    w[~(w > 0.0)] = 1.0
    return dual_p_norm(w, ell, p)


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


def _audit_samples(samples: int, n: int, seed: int):
    """The (samples, n) draw ``signed_log_uniform`` of Generator(SFC64(seed))
    in blocks of AUDIT_BLOCK entries, one 64-bit word each: one draw's rows."""
    rng = np.random.Generator(np.random.SFC64(seed))
    rows = max(1, AUDIT_BLOCK // n)
    for start in range(0, samples, rows):
        yield signed_log_uniform(rng, (min(rows, samples - start), n))


def _row_max(a: np.ndarray) -> np.ndarray:
    """Maxima of a C-order block's rows, by columns when the rows are short."""
    if a.shape[1] < _COLUMN_MAX_BELOW:
        a = np.asfortranarray(a)
    return a.max(axis=1, initial=0.0)


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

    The residual is max|Lf - g| / max|g|; a zero g needs Lf = 0 exactly.
    ``conv`` is the lift's couple, convexified at the lift's p: the ratios
    are taken in its p-norm and its sup norm.  A sample violates domination
    unless H(h) is finite and |Lh| <= H(h) (1 + DOMINATION_SLACK).  Memory
    does not grow with the sample count: each block of ``_audit_samples`` is
    folded into a running count and running maxima.

    A block shares two powers (``_audit_block``): x = |h|^p feeds H(h)^p and
    ||h||_p^p, and y = |Lh|^p the domination test and ||Lh||_p^p.  A cell or
    a row whose power is not a normal float is decided on the moduli, as
    before.  The audit law keeps |h| in [1e-2, 1e2], so |h|^p is normal for
    p up to about 150, and at the benchmark's p no fallback runs.
    """
    space = operator.space
    p = effective_exponent(conv.norm0)
    err = float(np.max(np.abs(operator.apply(f) - g)))
    scale = float(np.max(np.abs(g)))
    residual = 0.0 if err == 0.0 else (err / scale if scale > 0.0 else INF)
    viol = 0
    peaks = np.full(2, -np.inf)
    for h in _audit_samples(samples, space.n, seed):
        count, ratios = _audit_block(operator, majorant, h, p)
        viol += count
        # np.maximum keeps a NaN ratio, which the certificate counts as broken
        peaks = np.maximum(peaks, ratios)
    return residual, viol, tuple(float(r) for r in peaks)


def _audit_block(
    operator: MatrixOperator, majorant: SublinearMajorant, h: np.ndarray, p: float
):
    """Domination violations and the two norm ratios' maxima on one block of
    the draw, from two n-wide powers.

    |h| overwrites the fresh block and |Lh| the product; both stay for the
    row maxima, which serve the sup ratio, and for the fallbacks.  x = |h|^p
    gives ||h||_p^p as its weighted row sums, then ``SublinearMajorant.powers``
    scales it into H^p; y = |Lh|^p then overwrites it and gives ||Lh||_p^p.
    Rows are counted as violations only in a block where some cell fails.
    """
    w = operator.space.weights
    alh = h @ operator.entries.T
    np.abs(alh, out=alh)
    ah = np.abs(h, out=h)
    mh, mlh = _row_max(ah), _row_max(alh)
    x = ah**p
    sx = x @ w
    hp = majorant.powers(x)
    y = np.power(alh, p, out=x)
    held = _dominated(alh, y, hp, p)
    count = 0 if held.all() else int(np.sum(~np.all(held, axis=1)))
    lp = _p_norm_ratios(w, ah, mh, alh, mlh, sx, y @ w, p)
    return count, [np.max(lp), np.max(mlh / mh)]


def _dominated(alh, y, hp, p: float) -> np.ndarray:
    """Cells where |Lh| <= H(h)(1 + DOMINATION_SLACK), given alh = |Lh| and
    the powers y = |Lh|^p and hp = H(h)^p; hp is scaled in place.

    A cell whose hp is a normal float and whose bound
    hp (1 + DOMINATION_SLACK)^p is finite is tested in the power form
    y <= bound, where a y that underflows lies below the bound and one that
    overflows above it.  While every |h|^p is normal (p up to about 150 on
    the audit law), such an hp is exact to rounding: its terms are
    nonnegative, and one that underflows is off by at most 2^-1075.  Any
    other cell, where H^p underflowed and two underflows could pass a real
    violation, or where H^p or the bound is infinite or NaN, takes the root
    form of ``_root_held``, which fails closed.  The one exception is a cell
    with H^p = 0 and |Lh| = 0, as on the column of a zero entry of g: it
    holds in either form, 0 <= 0, and stays in the power form.
    """
    slack = (1.0 + DOMINATION_SLACK) ** p
    kept = None
    # the range test runs on hp's extremes, and per cell only when they fail
    if not (hp.min() >= _TINY and float(hp.max()) * slack < INF):
        with np.errstate(over="ignore"):
            odd = ~((hp >= _TINY) & (hp * slack < INF)) & ((hp != 0.0) | (alh != 0.0))
        kept = _root_held(alh[odd], hp[odd], p) if odd.any() else None
        hp[odd] = 0.0
    hp *= slack
    held = y <= hp
    if kept is not None:
        held[odd] = kept
    return held


def _root_held(alh, hp, p: float) -> np.ndarray:
    """|Lh| <= H (1 + DOMINATION_SLACK) on H = hp^(1/p): false where H is
    infinite or NaN."""
    hh = hp ** (1.0 / p)
    return np.isfinite(hh) & (alh <= hh * (1.0 + DOMINATION_SLACK))


def _p_norm_ratios(w, ah, mh, alh, mlh, sx, sy, p: float) -> np.ndarray:
    """||Lh||_p / ||h||_p per row, sy^(1/p) / sx^(1/p) from the power sums
    sx = sum w |h|^p and sy = sum w |Lh|^p.  A row where either sum is not a
    normal float takes ``scaled_p_norm`` on the moduli and their row maxima
    mh and mlh, the max factored out so that large p stays in range.  The
    roots come first: sy / sx can underflow where the norms' quotient does
    not."""
    normal = (sx >= _TINY) & (sx < INF) & (sy >= _TINY) & (sy < INF)
    top, bot = sy ** (1.0 / p), sx ** (1.0 / p)
    r = np.divide(top, bot, out=np.zeros_like(top), where=normal)
    if not normal.all():
        odd = ~normal
        top = scaled_p_norm(w, alh[odd], mlh[odd], p)
        r[odd] = top / scaled_p_norm(w, ah[odd], mh[odd], p)
    return r


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
    precondition is checked on its p-convexification by ``k_order_failure``
    before any construction happens.  Then T(alpha*|f|^p) = |g|^p with
    alpha = 2^(p-1) is solved for a positive substochastic T and L is built
    and certified by ``holder_rows``.
    """
    check_audit_budget(audit_samples, seed)
    if not is_l1_linf(couple) or not couple.space.is_uniform():
        raise DomainError("lifting requires the unweighted (l1, sup) base couple")
    if method not in ("holder", "greedy"):
        raise DomainError(f"unknown extension method: {method!r}")
    convexification_exponent(p)
    alpha = default_alpha(p)
    space = couple.space
    fv = values_of(f)
    gv = values_of(g)
    if fv.shape != (space.n,) or gv.shape != (space.n,):
        raise DomainError("vectors must match the atom count of the couple")

    conv = convexify_couple(couple, p)
    failure = k_order_failure(conv, fv, gv)
    if failure:
        raise DomainError(failure)

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
    operator = MatrixOperator._adopt(space, entries)

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
    on ``couple_p``, the lift's couple convexified at ``result.p``, against
    ``majorant``, which must be the lift's H: same size, p and alpha."""
    check_audit_budget(samples, seed)
    space = result.operator.space
    if couple_p.space.n != space.n:
        raise DimensionMismatch(f"couple has {couple_p.space.n} atoms, lift {space.n}")
    exponents = (effective_exponent(couple_p.norm0), effective_exponent(couple_p.norm1))
    if exponents != (result.p, INF):
        raise DomainError(f"couple exponents {exponents}, need ({result.p:g}, inf)")
    if majorant.operator.space.n != space.n:
        raise DimensionMismatch(
            f"majorant has {majorant.operator.space.n} atoms, lift {space.n}"
        )
    if (majorant.p, majorant.alpha) != (result.p, result.alpha):
        raise DomainError(
            f"majorant (p, alpha) = ({majorant.p:g}, {majorant.alpha:g}), "
            f"lift ({result.p:g}, {result.alpha:g})"
        )
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
