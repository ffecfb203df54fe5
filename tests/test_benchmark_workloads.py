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


@pytest.mark.parametrize("name", ["lift-greedy", "lift-holder"])
def test_lift_pools_pass_the_benchmark_correctness_gate(name, monkeypatch, tmp_path):
    # every distinct pair of the seed-1 pool certifies, and each pair the
    # benchmark keeps passes ``verify`` on fresh samples, so a new audit draw
    # cannot turn the benchmark's ``correct`` flag false without failing here
    workload = _load_workloads(monkeypatch).WORKLOADS[name]
    pool = workload.setup(1, str(tmp_path))
    results = {}
    for req in pool:
        if id(req) not in results:
            results[id(req)] = workload.execute(req)
            assert workload.check(req, results[id(req)]) == "", (req.n, req.p)
    kept = {id(pool[k]): pool[k] for k in range(len(pool)) if workload.keep_for_verify(k)}
    assert kept
    for key, req in kept.items():
        assert workload.verify(req, results[key]) == "", (req.n, req.p)


@pytest.mark.parametrize("name", ["lift-greedy", "lift-holder"])
def test_lift_pools_take_no_audit_fallback(name, monkeypatch, tmp_path):
    # the audit law keeps every |h|^p of the benchmark's p in the normal float
    # range, so no cell takes the root form and no row the max-scaled p-norm;
    # a change that sends benchmark traffic back through them fails here
    import caldera.extend as extend

    workload = _load_workloads(monkeypatch).WORKLOADS[name]
    taken = []
    for fallback in ("_root_held", "scaled_p_norm"):

        def counted(*args, _exact=getattr(extend, fallback), _name=fallback):
            taken.append(_name)
            return _exact(*args)

        monkeypatch.setattr(extend, fallback, counted)
    pool = workload.setup(1, str(tmp_path))
    for req in {id(req): req for req in pool}.values():
        assert workload.check(req, workload.execute(req)) == "", (req.n, req.p)
    assert not taken, f"{len(taken)} audit fallbacks: {sorted(set(taken))}"
