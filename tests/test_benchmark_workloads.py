"""The benchmark's workloads call caldera with fixed argument shapes.

A refactor that drops a parameter or an option the benchmark passes would
otherwise break every benchmark run without failing a test.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
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


def _campaign_pool(monkeypatch, tmp_path):
    workload = _load_workloads(monkeypatch).WORKLOADS["campaign-profiles"]
    pool = workload.setup(1, str(tmp_path))
    assert len(pool) == len(workload.SIZES) == 24
    return workload, pool


def test_campaign_pool_passes_the_benchmark_check(monkeypatch, tmp_path):
    # every config of the seed-1 pool, not only the two warm-up configs
    workload, pool = _campaign_pool(monkeypatch, tmp_path)
    for req in pool:
        assert workload.check(req, workload.execute(req)) == "", req.n


# the most truncation-solve passes any (l_p, sup) K profile of the seed-1
# campaign pool takes; the Newton loop from c = 0 that the piece-bracketed
# solve replaced took up to 24
CAMPAIGN_TRUNCATION_PASSES = 10


def test_campaign_pool_certifies_within_its_truncation_passes(monkeypatch, tmp_path):
    # a change that sends the maligranda rows' K solves back to more passes
    # fails here: a solve cut at the cap stops short of its TRUNCATION_REL_GAP
    # stop, or fails closed and its row raises
    import json

    import caldera.kfunc as kfunc

    workload, pool = _campaign_pool(monkeypatch, tmp_path)
    monkeypatch.setattr(kfunc, "TRUNCATION_MAX_ITER", CAMPAIGN_TRUNCATION_PASSES)
    solves = []

    def recorded(*args, _solve=kfunc._k_truncation):
        solves.append(_solve(*args))
        return solves[-1]

    monkeypatch.setattr(kfunc, "_k_truncation", recorded)
    for req in pool:
        assert workload.check(req, workload.execute(req)) == "", req.n
        with open(req.json_path) as fh:
            rows = [r for r in json.load(fh)["rows"] if r["suite"] == "maligranda"]
        assert len(rows) == 3 and all(r["error"] == "" for r in rows), req.n
    assert len(solves) == 3 * len(pool)
    for vals, _, _, gaps in solves:
        assert np.all(gaps <= kfunc.TRUNCATION_REL_GAP * vals)
