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
