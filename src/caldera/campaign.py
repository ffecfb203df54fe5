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
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import DomainError
from .extend import check_minkowski, lift_operator, lift_violations
from .instances import _philox_key, generate_instance, orchestration_rng, payload_rng
from .kfunc import (
    check_d_power_sandwich,
    check_k_d_sandwich,
    check_k_power_sandwich,
    default_t_grid,
    parse_t_grid,
)
from .lattice import MeasureSpace, convexification_exponent, lub, power_vector, vector
from .lattice import signed_log_uniform
from .majorize import MatrixOperator

P_DEPENDENT_SUITES = frozenset({"claim1", "maligranda", "lift-holder"})


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
        _philox_key(self.seed, 0, 0)  # an instance seed: an integer in [0, 2^64)
        if self.instance_count < 0:
            raise DomainError("instance_count must be nonnegative")
        if not (1 <= self.n_min <= self.n_max):
            raise DomainError("need 1 <= n_min <= n_max")
        for s in self.suites:
            if s not in _SUITE_BODIES:
                raise DomainError(
                    f"unknown suite: {s!r}; valid suites: {', '.join(_SUITE_BODIES)}"
                )
        if len(set(self.suites)) != len(self.suites):
            raise DomainError("duplicate suite names in config")
        for p in self.p_set:
            convexification_exponent(p)
        needs_p = [s for s in self.suites if s in P_DEPENDENT_SUITES]
        if needs_p and not self.p_set:
            raise DomainError(f"p_set is empty, but suite {needs_p[0]!r} runs once per p")
        self.grid()  # default_t_grid rejects a bad t_grid

    def grid(self) -> np.ndarray:
        lo, hi, count = self.t_grid
        return default_t_grid(lo, hi, int(count))


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
        if key not in CampaignConfig.__dataclass_fields__:
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


CSV_COLUMNS = tuple(f.name for f in fields(CampaignRow))


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
    h1, h2 = signed_log_uniform(rng, (2, n))
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
        seed=_philox_key(config.seed, index, 0),
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
    top = lub(fam)
    # splitting across a mask and its complement
    mask = rng.random(n) < 0.5
    left = lub([vector(space, np.where(mask, v.values, 0.0)) for v in fam])
    right = lub([vector(space, np.where(mask, 0.0, v.values)) for v in fam])
    # localization against a positive envelope
    f0 = fam[0]
    ratios = lub([vector(space, v.values / f0.values) for v in fam])
    # p-th powers commute with the lub
    q = float(rng.uniform(1.5, 3.0))
    powered = lub([power_vector(v, q) for v in fam])

    def breaks(a, b):  # the rule of all three identities
        return int(np.max(np.abs(a - b)) > 1e-12 * np.max(b))

    violations = (
        breaks(left.values + right.values, top.values)
        + breaks(f0.values * ratios.values, top.values)
        + breaks(powered.values, power_vector(top, q).values)
    )
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
    return [_fmt(getattr(row, column)) for column in CSV_COLUMNS]


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
    text = json.dumps(payload, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
