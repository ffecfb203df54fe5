"""The benchmark's workloads call caldera with fixed argument shapes.

A refactor that drops a parameter or an option the benchmark passes would
otherwise break every benchmark run without failing a test.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["lift-greedy", "lift-holder", "campaign-profiles"])
def test_workload_calls_run_and_certify(name, monkeypatch, tmp_path):
    workload = _load_workloads(monkeypatch).WORKLOADS[name]
    pool = workload.setup(1, str(tmp_path))
    requests = workload.warmup_requests(pool)
    assert requests
    for req in requests:
        result = workload.execute(req)
        assert workload.check(req, result) == ""
    if hasattr(workload, "verify"):
        assert workload.verify(req, result) == ""
