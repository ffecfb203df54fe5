from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from caldera import CampaignConfig, DomainError, parse_config, run_campaign
from caldera.campaign import (
    CSV_COLUMNS,
    CampaignReport,
    CampaignRow,
    _row_cells,
    _summary_cells,
    write_csv,
    write_json,
)


BASE_TEXT = """
# smoke campaign
seed = 21
instance_count = 4
n_min = 2
n_max = 6
p_set = 1.5, 2
t_grid = geometric:1e-2,1e2,31
suites = sandwich, claim1, maligranda, minkowski, lattice-props
"""


def test_parse_config_round_trip():
    cfg = parse_config(BASE_TEXT)
    assert cfg.seed == 21
    assert cfg.instance_count == 4
    assert cfg.p_set == (1.5, 2.0)
    assert cfg.t_grid == (1e-2, 1e2, 31)
    assert cfg.suites[0] == "sandwich"
    assert cfg.grid().size == 31


def test_json_report_bytes_match_the_field_by_field_layout(tmp_path):
    cfg = parse_config(BASE_TEXT)
    rows = (
        CampaignRow("sandwich", 0, 21, 4, None, 1.25, 0, None, 0.5),
        CampaignRow("claim1", 1, 21, 2, 1.5, None, 1, 1e-12, 0.25, "DomainError: x"),
    )
    report = CampaignReport(
        config=cfg, rows=rows, total_violations=1, total_runtime_s=0.75
    )
    path = tmp_path / "r.json"
    write_json(report, str(path))
    # the layout the report had when the config block was written field by field
    expected = {
        "config": {
            "seed": cfg.seed,
            "instance_count": cfg.instance_count,
            "n_min": cfg.n_min,
            "n_max": cfg.n_max,
            "p_set": list(cfg.p_set),
            "t_grid": list(cfg.t_grid),
            "suites": list(cfg.suites),
        },
        "rows": [dict(zip(CSV_COLUMNS, _row_cells(r), strict=True)) for r in rows],
        "summary": dict(zip(CSV_COLUMNS, _summary_cells(report), strict=True)),
    }
    assert path.read_bytes() == (json.dumps(expected, indent=2) + "\n").encode()


def test_parse_config_rejects_unknown_keys_and_suites():
    with pytest.raises(DomainError):
        parse_config("wat = 1")
    with pytest.raises(DomainError):
        parse_config("suites = sandwich, quux")
    with pytest.raises(DomainError, match="unknown suite: 'lift-greedy'.*lift-holder"):
        parse_config("suites = lift-greedy")
    with pytest.raises(DomainError):
        parse_config("p_set = 1.0")
    # no enumeration cap on D-based suites any more: this now parses
    assert parse_config("suites = claim1\nn_min = 2\nn_max = 30").n_max == 30
    with pytest.raises(DomainError):
        parse_config("t_grid = linear:0,1,5")
    for spec in ("geometric:1e-3,inf,5", "geometric:nan,1,5"):
        with pytest.raises(DomainError, match="finite"):
            parse_config(f"t_grid = {spec}")
    for spec in ("geometric:1,2", "geometric:1,2,x", "geometric:1,2,3,4"):
        with pytest.raises(DomainError, match="geometric:lo,hi,count"):
            parse_config(f"t_grid = {spec}")


def test_empty_suites_gives_empty_passing_report(tmp_path):
    cfg = CampaignConfig(seed=1, instance_count=5, suites=())
    report = run_campaign(cfg, report_path=str(tmp_path / "r.csv"))
    assert report.rows == ()
    assert report.passed
    rows = list(csv.reader(open(tmp_path / "r.csv")))
    assert rows[0] == list(CSV_COLUMNS)
    assert rows[1][0] == "summary"


def test_small_campaign_all_suites_passes(tmp_path):
    cfg = parse_config(BASE_TEXT)
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    report = run_campaign(cfg, report_path=str(csv_path), json_path=str(json_path))
    assert report.passed, [r for r in report.rows if r.violations or r.error]
    assert all(r.error == "" for r in report.rows)
    # row count: sandwich 4, claim1 4*2, maligranda 4*2, minkowski 4, props 4
    assert len(report.rows) == 4 + 8 + 8 + 4 + 4
    rows = list(csv.reader(open(csv_path)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == len(report.rows) + 2
    payload = json.load(open(json_path))
    assert payload["summary"]["violations"] == "0"
    assert len(payload["rows"]) == len(report.rows)


def test_lift_suites_run_and_pass(tmp_path):
    cfg = CampaignConfig(
        seed=3,
        instance_count=2,
        n_min=2,
        n_max=5,
        p_set=(2.0,),
        suites=("lift-holder",),
    )
    report = run_campaign(cfg)
    assert len(report.rows) == 2
    assert report.passed, [r for r in report.rows if r.violations or r.error]
    for row in report.rows:
        assert row.residual is not None and row.residual <= 1e-8
        assert row.max_ratio is not None
        assert row.max_ratio <= 2 ** (1 - 1 / row.p) + 1e-9


def test_lift_rows_count_a_nan_certificate_as_a_violation(monkeypatch):
    import caldera.campaign as camp

    def nan_lift(*args, **kwargs):
        return SimpleNamespace(
            residual_lf_g=math.nan,
            domination_violations=0,
            norm_sample_ratios=(1.0, math.nan),
        )

    monkeypatch.setattr(camp, "lift_operator", nan_lift)
    cfg = CampaignConfig(
        seed=3,
        instance_count=1,
        n_min=2,
        n_max=3,
        p_set=(2.0,),
        suites=("lift-holder",),
    )
    (row,) = run_campaign(cfg).rows
    assert row.error == ""
    assert row.violations == 2


def test_reports_are_deterministic_modulo_runtime(tmp_path):
    cfg = CampaignConfig(
        seed=9,
        instance_count=3,
        n_min=1,
        n_max=6,
        p_set=(1.5,),
        suites=("sandwich", "claim1", "minkowski"),
    )
    r1 = run_campaign(cfg)
    r2 = run_campaign(cfg)

    def strip(report):
        return [
            (c.suite, c.instance, c.seed, c.n, c.p, c.max_ratio, c.violations,
             c.residual, c.error)
            for c in report.rows
        ]

    assert strip(r1) == strip(r2)


def test_campaign_rows_record_errors_without_aborting(monkeypatch, tmp_path):
    import caldera.campaign as camp

    def boom(config, index, p):
        if index == 1:
            raise RuntimeError("synthetic failure")
        return camp._run_sandwich(config, index, p)

    monkeypatch.setitem(camp._SUITE_BODIES, "sandwich", boom)
    cfg = CampaignConfig(seed=2, instance_count=3, suites=("sandwich",))
    report = run_campaign(cfg, report_path=str(tmp_path / "r.csv"))
    errs = [r for r in report.rows if r.error]
    assert len(errs) == 1
    assert "synthetic failure" in errs[0].error
    # errors are reported but are not math violations
    assert report.passed


def test_csv_uses_plain_decimal_format(tmp_path):
    cfg = CampaignConfig(seed=5, instance_count=2, suites=("sandwich",))
    report = run_campaign(cfg)
    path = tmp_path / "fmt.csv"
    write_csv(report, str(path))
    text = open(path).read()
    assert "," in text and ";" not in text
    for row in csv.reader(open(path)):
        for cell in row:
            assert " " not in cell or row[0] == "summary"
