"""The benchmark's tracer wraps caldera module globals by name.

A refactor that renames or removes one of those globals would otherwise
break every traced benchmark run without failing a test.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

import caldera.campaign
import caldera.cli
import caldera.extend
import caldera.instances
import caldera.kfunc

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (
    caldera.campaign,
    caldera.cli,
    caldera.extend,
    caldera.instances,
    caldera.kfunc,
)


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_hooked_global(monkeypatch):
    before = {m.__name__: dict(vars(m)) for m in MODULES}
    tracer = _load_tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        patched = list(tracer._installed)
        assert patched
        for module, attr, original in patched:
            assert original is before[module.__name__][attr]
            assert getattr(module, attr) is not original
    finally:
        tracer.uninstall()
    for module in MODULES:
        after = vars(module)
        for name, value in before[module.__name__].items():
            assert after[name] is value, f"{module.__name__}.{name} not restored"


def test_traced_lift_and_instance_keep_the_k_work_under_kfunc_profile(monkeypatch):
    # generated pairs are p-majorized, so the exact ordering test decides
    # them and neither generation nor the lift computes a K profile; a pair
    # that is grid-ordered but not p-majorized takes the grid fallback, one
    # profile on the 61 points of the default grid, which the tracer reads
    # from the profile's fourth argument
    f, g = np.array([1.28, 1.61, 0.48]), np.array([0.12, 1.33, 1.59])
    tracer = _load_tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        tracer.phase = "timed"
        inst = caldera.instances.generate_instance(3, 3, p=2.0, k_ordered=True)
        totals = [dict(tracer.layer_totals("timed"))]
        for pair in ((inst.f, inst.g), (f, g)):
            tracer.spans.clear()
            caldera.extend.lift_operator(inst.couple, *pair, 2.0, audit_samples=50)
            totals.append(dict(tracer.layer_totals("timed")))
    finally:
        tracer.uninstall()
    generated, majorized, fallback = totals
    assert generated["instances.generate.calls"] == 1
    assert generated.get("kfunc.profile.calls", 0) == 0
    assert majorized.get("kfunc.profile.calls", 0) == 0
    assert fallback["kfunc.profile.calls"] == 1
    assert fallback["kfunc.profile.points"] == 61
    for lifted in (majorized, fallback):
        assert lifted["extend.lift.calls"] == 1
        assert lifted["majorize.construct.calls"] == 1
