"""The benchmark's tracer wraps caldera module globals by name.

A refactor that renames or removes one of those globals would otherwise
break every traced benchmark run without failing a test.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

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
    tracer = _load_tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        tracer.phase = "timed"
        inst = caldera.instances.generate_instance(3, 5, p=2.0, k_ordered=True)
        generated = dict(tracer.layer_totals("timed"))
        tracer.spans.clear()
        caldera.extend.lift_operator(inst.couple, inst.f, inst.g, 2.0, audit_samples=50)
        lifted = tracer.layer_totals("timed")
    finally:
        tracer.uninstall()
    assert generated["kfunc.profile.calls"] >= 1
    assert lifted["kfunc.profile.calls"] >= 1
    assert lifted["extend.lift.calls"] == 1
    assert lifted["majorize.construct.calls"] == 1
