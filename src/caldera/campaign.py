"""Campaign orchestration: generated instances, suite checks, CSV reports.

A campaign expands its config into a fixed plan of rows (suite, optional p,
instance index), evaluates each row, and writes rows in plan order so the
report is reproducible run to run.  The runtime_s column is wall clock and
is the one column excluded from that guarantee.  Exit semantics follow the
violations column: nonzero process status exactly when a math property was
violated; rows that error out carry the message in the error column instead.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError
from .extend import check_minkowski, lift_operator, lift_violations
from .instances import generate_instance, orchestration_rng, payload_rng
from .kfunc import (
    check_d_power_sandwich,
    check_k_d_sandwich,
    check_k_power_sandwich,
    default_t_grid,
    parse_t_grid,
)
from .lattice import INF, MeasureSpace, lub, power_vector, vector
from .majorize import MatrixOperator

VALID_SUITES = (
    "sandwich",
    "claim1",
    "maligranda",
    "minkowski",
    "lift-holder",
    "lattice-props",
)
P_DEPENDENT_SUITES = frozenset({"claim1", "maligranda", "lift-holder"})
CSV_COLUMNS = (
    "suite",
    "instance",
    "seed",
    "n",
    "p",
    "max_ratio",
    "violations",
    "residual",
    "runtime_s",
    "error",
)


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 0
    instance_count: int = 25
    n_min: int = 1
    n_max: int = 8
    p_set: tuple = (1.5, 2.0, 3.0)
    t_grid: tuple = (1e-3, 1e3, 61)
    suites: tuple = ("sandwich",)

    def __post_init__(self):
        if self.seed < 0:
            raise DomainError("seed must be a nonnegative integer")
        if self.instance_count < 0:
            raise DomainError("instance_count must be nonnegative")
        if not (1 <= self.n_min <= self.n_max):
            raise DomainError("need 1 <= n_min <= n_max")
        for s in self.suites:
            if s not in VALID_SUITES:
                raise DomainError(
                    f"unknown suite: {s!r}; valid suites: {', '.join(VALID_SUITES)}"
                )
        if len(set(self.suites)) != len(self.suites):
            raise DomainError("duplicate suite names in config")
        for p in self.p_set:
            if not (1.0 < p < INF):
                raise DomainError(f"p_set values must lie in (1, inf), got {p}")
        self.grid()  # default_t_grid rejects a bad t_grid

    def grid(self) -> np.ndarray:
        lo, hi, count = self.t_grid
        return default_t_grid(lo, hi, int(count))


_CONFIG_KEYS = {
    "seed",
    "instance_count",
    "n_min",
    "n_max",
    "p_set",
    "t_grid",
    "suites",
}


def parse_config(text: str) -> CampaignConfig:
    """Parse the key=value config format; '#' starts a comment."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno} is not of the form key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise DomainError(f"unknown config key on line {lineno}: {key!r}")
        if key in ("seed", "instance_count", "n_min", "n_max"):
            values[key] = int(val)
        elif key == "p_set":
            values[key] = tuple(float(x) for x in val.split(",") if x.strip())
        elif key == "suites":
            values[key] = tuple(x.strip() for x in val.split(",") if x.strip())
        elif key == "t_grid":
            values[key] = parse_t_grid(val)
    return CampaignConfig(**values)


def load_config(path: str) -> CampaignConfig:
    with open(path) as fh:
        return parse_config(fh.read())


@dataclass(frozen=True)
class CampaignRow:
    suite: str
    instance: int
    seed: int
    n: int
    p: float | None
    max_ratio: float | None
    violations: int
    residual: float | None
    runtime_s: float
    error: str = ""


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    rows: tuple
    total_violations: int
    total_runtime_s: float

    @property
    def passed(self) -> bool:
        return self.total_violations == 0


# ---------------------------------------------------------------------------
# suite bodies: each returns (n, p, max_ratio, violations, residual)
# ---------------------------------------------------------------------------


def _draw_size(config: CampaignConfig, index: int) -> int:
    rng = orchestration_rng(config.seed, index)
    return int(rng.integers(config.n_min, config.n_max + 1))


def _run_sandwich(config, index, p):
    n = _draw_size(config, index)
    inst = generate_instance(config.seed, n, index=index, uniform_weights=False)
    report = check_k_d_sandwich(inst.couple, inst.f, t_grid=config.grid())
    return n, None, report.max_ratio, len(report.violations), None


def _run_claim1(config, index, p):
    n = _draw_size(config, index)
    inst = generate_instance(config.seed, n, p=p, index=index, uniform_weights=False)
    report = check_d_power_sandwich(inst.couple, inst.f, p, t_grid=config.grid())
    return n, p, report.max_ratio, len(report.violations), None


def _run_maligranda(config, index, p):
    n = _draw_size(config, index)
    inst = generate_instance(config.seed, n, p=p, index=index, uniform_weights=False)
    report = check_k_power_sandwich(inst.couple, inst.f, p, t_grid=config.grid())
    violations = len(report.violations) + (0 if report.corollary_ok else 1)
    return n, p, report.max_ratio, violations, None


def _run_minkowski(config, index, p):
    orch = orchestration_rng(config.seed, index)
    n = int(orch.integers(config.n_min, config.n_max + 1))
    p_row = float(orch.uniform(1.01, 4.0))
    rng = payload_rng(config.seed, index)
    op = MatrixOperator(
        space=MeasureSpace(np.ones(n)), entries=rng.random((n, n)), positive=True
    )
    signs = rng.choice([-1.0, 1.0], size=(2, n))
    mags = 10.0 ** rng.uniform(-2.0, 2.0, size=(2, n))
    h1, h2 = signs * mags
    report = check_minkowski(op, h1, h2, p_row)
    return n, p_row, None, len(report.violations), None


def _run_lift(config, index, p):
    n = _draw_size(config, index)
    inst = generate_instance(config.seed, n, p=p, k_ordered=True, index=index)
    result = lift_operator(
        inst.couple,
        inst.f,
        inst.g,
        p,
        audit_samples=1000,
        seed=(config.seed << 16) + index,
    )
    violations = lift_violations(
        result.residual_lf_g,
        result.domination_violations,
        result.norm_sample_ratios,
        p,
    )
    ratio = max(result.norm_sample_ratios)
    return n, p, ratio, violations, result.residual_lf_g


def _run_lattice_props(config, index, p):
    n = _draw_size(config, index)
    rng = payload_rng(config.seed, index)
    space = MeasureSpace(np.ones(n))
    count = int(rng.integers(2, 6))
    fam = [
        vector(space, 10.0 ** rng.uniform(-2.0, 2.0, size=n)) for _ in range(count)
    ]
    violations = 0
    top = lub(fam)
    # splitting across a mask and its complement
    mask = rng.random(n) < 0.5
    left = lub([vector(space, np.where(mask, v.values, 0.0)) for v in fam])
    right = lub([vector(space, np.where(mask, 0.0, v.values)) for v in fam])
    if np.max(np.abs(left.values + right.values - top.values)) > 1e-12 * np.max(
        top.values
    ):
        violations += 1
    # localization against a positive envelope
    f0 = fam[0]
    ratios = lub([vector(space, v.values / f0.values) for v in fam])
    if np.max(np.abs(f0.values * ratios.values - top.values)) > 1e-12 * np.max(
        top.values
    ):
        violations += 1
    # p-th powers commute with the lub
    q = float(rng.uniform(1.5, 3.0))
    powered = lub([power_vector(v, q) for v in fam])
    if np.max(
        np.abs(powered.values - power_vector(top, q).values)
    ) > 1e-12 * np.max(power_vector(top, q).values):
        violations += 1
    return n, None, None, violations, None


_SUITE_BODIES = {
    "sandwich": _run_sandwich,
    "claim1": _run_claim1,
    "maligranda": _run_maligranda,
    "minkowski": _run_minkowski,
    "lift-holder": _run_lift,
    "lattice-props": _run_lattice_props,
}


def _plan(config: CampaignConfig):
    """Fixed expansion of the config into (row_index, suite, p) entries."""
    entries = []
    counter = 0
    for suite in config.suites:
        ps = config.p_set if suite in P_DEPENDENT_SUITES else (None,)
        for p in ps:
            for _ in range(config.instance_count):
                entries.append((counter, suite, p))
                counter += 1
    return entries


def _evaluate(config: CampaignConfig, entry) -> CampaignRow:
    index, suite, p = entry
    start = time.perf_counter()
    try:
        n, p_out, ratio, violations, residual = _SUITE_BODIES[suite](config, index, p)
        error = ""
    except Exception as exc:  # recorded, not raised: rows must keep flowing
        n, p_out, ratio, violations, residual = 0, p, None, 0, None
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return CampaignRow(
        suite=suite,
        instance=index,
        seed=config.seed,
        n=n,
        p=p_out,
        max_ratio=ratio,
        violations=violations,
        residual=residual,
        runtime_s=elapsed,
        error=error,
    )


def run_campaign(
    config: CampaignConfig,
    report_path: str | None = None,
    json_path: str | None = None,
) -> CampaignReport:
    start = time.perf_counter()
    rows = [_evaluate(config, e) for e in _plan(config)]
    total = time.perf_counter() - start
    report = CampaignReport(
        config=config,
        rows=tuple(rows),
        total_violations=sum(r.violations for r in rows),
        total_runtime_s=total,
    )
    if report_path is not None:
        write_csv(report, report_path)
    if json_path is not None:
        write_json(report, json_path)
    return report


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _row_cells(row: CampaignRow) -> list:
    return [
        row.suite,
        str(row.instance),
        str(row.seed),
        str(row.n),
        _fmt(row.p),
        _fmt(row.max_ratio),
        str(row.violations),
        _fmt(row.residual),
        _fmt(row.runtime_s),
        row.error,
    ]


def _summary_cells(report: CampaignReport) -> list:
    ratios = [r.max_ratio for r in report.rows if r.max_ratio is not None]
    residuals = [r.residual for r in report.rows if r.residual is not None]
    return [
        "summary",
        str(len(report.rows)),
        str(report.config.seed),
        "",
        "",
        _fmt(max(ratios) if ratios else None),
        str(report.total_violations),
        _fmt(max(residuals) if residuals else None),
        _fmt(report.total_runtime_s),
        "",
    ]


def write_csv(report: CampaignReport, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            writer.writerow(_row_cells(row))
        writer.writerow(_summary_cells(report))


def write_json(report: CampaignReport, path: str) -> None:
    payload = {
        "config": asdict(report.config),
        "rows": [
            dict(zip(CSV_COLUMNS, _row_cells(row), strict=True)) for row in report.rows
        ],
        "summary": dict(zip(CSV_COLUMNS, _summary_cells(report), strict=True)),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
