from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from caldera import generate_instance, k_exact_l1_linf, save_instance
from caldera.instances import instance_to_json
from caldera.cli import build_parser, main


@pytest.fixture()
def ordered_instance(tmp_path):
    inst = generate_instance(17, 5, p=2.0, k_ordered=True)
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    return inst, str(path)


def test_kprofile_command(tmp_path, ordered_instance):
    inst, path = ordered_instance
    out = tmp_path / "profile.csv"
    code = main(
        [
            "kprofile",
            "--instance",
            path,
            "--kind",
            "K",
            "--t-grid",
            "geometric:0.1,10,7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["t", "value", "a0_norm", "a1_norm"]
    assert len(rows) == 8
    t3 = float(rows[3][0])
    expected, _ = k_exact_l1_linf(inst.space, inst.f, t3)
    assert float(rows[3][1]) == pytest.approx(expected, rel=1e-12)
    # reported split norms recombine to the profile value
    assert float(rows[3][2]) + t3 * float(rows[3][3]) == pytest.approx(
        expected, rel=1e-9
    )


def test_kprofile_d_kind(tmp_path, ordered_instance):
    _, path = ordered_instance
    out = tmp_path / "dprofile.csv"
    code = main(
        ["kprofile", "--instance", path, "--kind", "D",
         "--t-grid", "geometric:0.5,2,3", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.reader(open(out)))
    values = [float(r[1]) for r in rows[1:]]
    assert values == sorted(values)


def test_construct_operator_command(tmp_path):
    inst = generate_instance(23, 6, positivity=True, k_ordered=True)
    path = tmp_path / "pair.json"
    save_instance(inst, str(path))
    out = tmp_path / "op.json"
    code = main(["construct-operator", "--instance", str(path), "--out", str(out)])
    assert code == 0
    payload = json.load(open(out))
    entries = np.asarray(payload["entries"])
    assert entries.shape == (6, 6)
    assert np.all(entries >= 0.0)
    assert payload["cert"]["norm1"] <= 1.0 + 1e-12
    assert payload["cert"]["norminf"] <= 1.0 + 1e-12
    assert payload["cert"]["residual"] <= 1e-10 * (1 + np.max(np.abs(inst.g)))


def test_lift_command_takes_no_method_or_alpha(tmp_path, ordered_instance):
    _, path = ordered_instance
    out = tmp_path / "lift.json"
    argv = ["lift", "--instance", path, "--audit-samples", "500", "--seed", "3",
            "--out", str(out)]
    assert main(argv) == 0
    payload = json.load(open(out))
    assert payload["method"] == "holder"
    assert payload["alpha"] == 2.0
    assert payload["certificates"]["domination_violations"] == 0
    assert payload["certificates"]["residual_lf_g"] <= 1e-8
    for removed in (["--method", "greedy"], ["--alpha", "2"]):
        with pytest.raises(SystemExit) as info:
            main(argv + removed)
        assert info.value.code == 2


def test_campaign_command_exit_status(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "seed = 12\ninstance_count = 3\nn_min = 2\nn_max = 5\n"
        "suites = sandwich, lattice-props\n"
    )
    report = tmp_path / "report.csv"
    jsonout = tmp_path / "report.json"
    code = main(
        ["campaign", "--config", str(cfg), "--report", str(report),
         "--json", str(jsonout)]
    )
    assert code == 0
    assert report.exists() and jsonout.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("seed = 18446744073709551616\n", "instance seed must lie in [0, 2^64)"),
        ("p_set =\nsuites = claim1\n", "p_set is empty, but suite 'claim1'"),
    ],
)
def test_campaign_command_refuses_a_config_whose_rows_cannot_run(tmp_path, capsys, text, message):
    # either config used to plan rows that all errored, or none, and exit 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    report = tmp_path / "report.csv"
    assert main(["campaign", "--config", str(cfg), "--report", str(report)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not report.exists()


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_cli_reports_errors_cleanly(tmp_path, capsys):
    code = main(
        ["kprofile", "--instance", str(tmp_path / "missing.json"), "--out",
         str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_lift_without_partner(tmp_path):
    inst = generate_instance(3, 4)
    path = tmp_path / "single.json"
    save_instance(inst, str(path))
    code = main(
        ["lift", "--instance", str(path), "--out", str(tmp_path / "out.json")]
    )
    assert code == 1


def test_d_campaign_past_the_former_cap_exits_zero(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "seed = 8\ninstance_count = 3\nn_min = 64\nn_max = 64\n"
        "suites = sandwich, claim1\n"
    )
    report = tmp_path / "report.csv"
    code = main(["campaign", "--config", str(cfg), "--report", str(report)])
    assert code == 0
    rows = list(csv.DictReader(open(report)))
    assert len(rows) == 3 + 3 * 3 + 1
    assert all(r["error"] == "" for r in rows)
    assert all(r["n"] == "64" for r in rows[:-1])
    assert rows[-1]["violations"] == "0"


def test_cli_rejects_non_finite_instance_entries(tmp_path, capsys):
    inst = generate_instance(17, 5, p=2.0, k_ordered=True)
    data = instance_to_json(inst)
    data["f"][2] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    code = main(["kprofile", "--instance", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error: vector entries must be finite" in capsys.readouterr().err


def test_cli_lift_rejects_zero_audit_samples(tmp_path, capsys, ordered_instance):
    _, path = ordered_instance
    code = main(
        ["lift", "--instance", path, "--audit-samples", "0",
         "--out", str(tmp_path / "lift.json")]
    )
    assert code == 1
    assert "error: need at least one audit sample" in capsys.readouterr().err


def test_cli_lift_rejects_a_negative_seed(tmp_path, capsys, ordered_instance):
    _, path = ordered_instance
    out = tmp_path / "lift.json"
    code = main(["lift", "--instance", path, "--seed", "-1", "--out", str(out)])
    assert code == 1
    assert "error: audit seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_lift_at_very_large_p_exits_with_an_error(tmp_path, capsys):
    inst = generate_instance(17, 5, p=1100.0, k_ordered=True)
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    out = tmp_path / "lift.json"
    code = main(["lift", "--instance", str(path), "--out", str(out)])
    assert code == 1
    assert "error: alpha = 2^(p-1) overflows at p = 1100" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, message",
    [
        ("geometric:1e-3,inf,5", "finite"),
        ("geometric:1e-3,1e3", "geometric:lo,hi,count"),
        ("geometric:1e-3,1e3,many", "geometric:lo,hi,count"),
    ],
)
def test_cli_rejects_bad_t_grid_specs(tmp_path, capsys, ordered_instance, spec, message):
    _, path = ordered_instance
    out = tmp_path / "profile.csv"
    code = main(["kprofile", "--instance", path, "--t-grid", spec, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()
