"""In-memory span tracing installed from outside the caldera package.

The pipeline looks most of its collaborators up as module globals at call
time (``caldera.extend.profile``, ``caldera.campaign.write_csv`` and so on),
so replacing those attributes with timing wrappers records one span per
layer call without touching the package source.  Spans carry their parent,
the request they belong to and the phase (set-up or timed); a span's self
time is its duration minus the time covered by its direct children.  The
benchmark runs single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    request: int | None
    phase: str
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    """Collects spans and counters; off until ``install`` is called."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    phase: str = "setup"
    request: int | None = None
    _stack: list = field(default_factory=list)
    _installed: list = field(default_factory=list)

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, parent, self.request, self.phase, time.perf_counter())
        )
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.phase, name)] += amount

    def wrap(self, fn, name: str, before=None, after=None, failed=None):
        """Return ``fn`` timed as span ``name``.

        ``before(args, kwargs)`` runs when the call starts, ``after(result,
        args, kwargs)`` when it returns and ``failed(exc)`` when it raises;
        each may add counters.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            if before is not None:
                before(args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if failed is not None:
                    failed(exc)
                raise
            finally:
                self._close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def patch(self, module, attr: str, name: str, **hooks) -> None:
        original = getattr(module, attr)
        self._installed.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, **hooks))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def install(self) -> None:
        """Wrap every layer boundary the workloads cross."""
        import caldera.campaign as campaign
        import caldera.cli as cli
        import caldera.extend as extend
        import caldera.instances as instances
        import caldera.kfunc as kfunc

        def profile_points(args, kwargs):
            grid = kwargs.get("t_grid", args[3] if len(args) > 3 else None)
            self.count("kfunc.profile.points", len(grid))

        def row_failed(exc):
            self.count("extend.row.failed")

        def d_subsets(evaluations):
            # exhaustive D visits all 2^n splittings at every grid point;
            # computed from the inputs, not observed inside kfunc
            def before(args, kwargs):
                n = len(args[1])
                grid = kwargs.get("t_grid")
                points = 61 if grid is None else len(grid)
                self.count("kfunc.d_subsets_computed", evaluations * points * 2**n)

            return before

        def report_bytes(result, args, kwargs):
            self.count("campaign.report.bytes", os.path.getsize(args[1]))

        self.patch(cli, "main", "cli.main")
        self.patch(cli, "run_campaign", "campaign.run")
        self.patch(campaign, "write_csv", "campaign.report", after=report_bytes)
        self.patch(campaign, "write_json", "campaign.report", after=report_bytes)
        self.patch(campaign, "generate_instance", "instances.generate")
        self.patch(instances, "generate_instance", "instances.generate")
        self.patch(
            campaign, "check_k_d_sandwich", "kfunc.check", before=d_subsets(1)
        )
        self.patch(
            campaign, "check_d_power_sandwich", "kfunc.check", before=d_subsets(2)
        )
        self.patch(campaign, "check_k_power_sandwich", "kfunc.check")
        self.patch(kfunc, "profile", "kfunc.profile", before=profile_points)
        self.patch(extend, "lift_operator", "extend.lift")
        self.patch(extend, "profile", "kfunc.profile", before=profile_points)
        self.patch(
            extend, "construct_positive_operator", "majorize.construct"
        )
        self.patch(extend, "holder_extension_row", "extend.row", failed=row_failed)
        self.patch(
            extend, "greedy_hb_extension_row", "extend.row", failed=row_failed
        )
        self.patch(extend, "norm_values", "lattice.norm_values")

    # -- summaries -------------------------------------------------------

    def layer_totals(self, phase: str) -> dict:
        """``<layer>.calls`` and ``<layer>.self_s`` for spans of one phase."""
        out: dict = defaultdict(float)
        for span in self.spans:
            if span.phase == phase:
                out[f"{span.name}.calls"] += 1
                out[f"{span.name}.self_s"] += span.self_s
        for (ph, name), value in self.counts.items():
            if ph == phase:
                out[name] += value
        return out

    def covered_s(self, phase: str) -> float:
        """Wall time covered by top-level spans of one phase."""
        return sum(
            s.duration for s in self.spans if s.phase == phase and s.parent is None
        )
