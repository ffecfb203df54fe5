"""Run one benchmark workload against the caldera package in ``src/``.

    python3 perfbench/run.py --workload lift-greedy --seed 1 --seconds 30 --trace 0

The load is closed-loop: one client in this process sends the next request
only after the previous one returns.  Set-up (import, seeded input
generation, warm-up) is repeated ``SETUP_REPEATS`` times and reported as
its median; the timed phase then runs for ``--seconds`` seconds.

With ``--trace 0`` the last output line holds the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` the timed phase is split in two
halves over the same request sequence: an untraced half, then a half with
span tracing installed, and the last line holds the per-layer metrics.
Human-readable metric lines, including the failure share and the sample
count, precede the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import caldera.cli, caldera.extend; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Import time of the package, measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(proc.stdout)


@dataclass
class LoopResult:
    """Outcome of one closed-loop phase."""

    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # (sequence, kind, message)
    kept: dict = field(default_factory=dict)  # pool index -> result to verify
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.errors)

    @property
    def passed(self) -> int:
        return self.attempted - self.failed

    @property
    def wrong_outputs(self) -> int:
        return sum(1 for _, kind, _ in self.errors if kind == "certificate")


def closed_loop(workload, requests, tracer=None) -> LoopResult:
    """Send each (pool index, request) pair after the previous one returned.

    A request that raises or fails its certificate is recorded and the loop
    goes on; nothing is retried or skipped.
    """
    out = LoopResult()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for seq, (index, req) in enumerate(requests):
        if tracer is not None:
            tracer.request = seq
        start = time.perf_counter()
        try:
            result = workload.execute(req)
        except Exception as exc:  # a failed request is data, not a crash
            out.latencies.append(time.perf_counter() - start)
            out.errors.append((seq, "raised", f"{type(exc).__name__}: {exc}"))
            continue
        out.latencies.append(time.perf_counter() - start)
        error = workload.check(req, result)
        if error:
            out.errors.append((seq, "certificate", error))
        elif index not in out.kept and workload.keep_for_verify(index):
            out.kept[index] = result
    out.wall_s = time.perf_counter() - t0
    out.cpu_s = time.process_time() - cpu0
    if tracer is not None:
        tracer.request = None
    return out


def cycle_until(pool: list, seconds: float):
    """Yield (index, request) around the pool until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    seq = 0
    while time.perf_counter() < deadline:
        index = seq % len(pool)
        yield index, pool[index]
        seq += 1


def verify_kept(workload, pool: list, loop: LoopResult) -> None:
    """Re-certify the kept results on fresh samples; failures join the errors."""
    for index, result in sorted(loop.kept.items()):
        error = workload.verify(pool[index], result)
        if error:
            loop.errors.append((-1, "certificate", f"request {index}: {error}"))


def percentile_ms(values: list, q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return 1000.0 * (ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(loop: LoopResult, setup_s: float, rss_mb: float) -> dict:
    return {
        "throughput_ops_s": loop.passed / loop.wall_s,
        "latency_p50_ms": percentile_ms(loop.latencies, 0.5),
        "latency_p90_ms": percentile_ms(loop.latencies, 0.9),
        "cpu_ms_per_op": 1000.0 * loop.cpu_s / loop.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, reference: LoopResult, traced: LoopResult) -> dict:
    values = dict(tracer.layer_totals("timed"))
    for name, value in tracer.layer_totals("setup").items():
        values[f"setup.{name}"] = value
    values["failed_share"] = traced.failed / traced.attempted
    values["trace.coverage"] = tracer.covered_s("timed") / sum(traced.latencies)
    values["trace.overhead"] = (reference.attempted / reference.wall_s) / (
        traced.attempted / traced.wall_s
    )
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "caldera" / "__init__.py").is_file():
        print(f"error: no caldera sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # the load model is one client on one thread: campaign row threads stay
    # off, and BLAS runs single-threaded (set before numpy is imported)
    # because a two-thread BLAS pool on a shared two-core machine doubles
    # the CPU per request and makes wall times swing with the neighbours
    os.environ.pop("CALDERA_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            tracer.install()
        setup_times = []
        for rep in range(SETUP_REPEATS):
            # a module imports once per process, so each set-up times the
            # import in a fresh interpreter; only the first set-up's spans
            # are reported
            tracer.phase = "setup" if rep == 0 else "setup-repeat"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            import_s = import_seconds()
            start = time.perf_counter()
            pool = workload.setup(args.seed, str(workdir))
            closed_loop(workload, enumerate(workload.warmup_requests(pool)))
            setup_times.append(import_s + time.perf_counter() - start)
        tracer.uninstall()
        setup_s = statistics.median(setup_times)

        if args.trace:
            reference = closed_loop(workload, cycle_until(pool, args.seconds / 2))
            tracer.install()
            tracer.phase = "timed"
            loop = closed_loop(workload, cycle_until(pool, args.seconds / 2), tracer)
            tracer.uninstall()
            verify_kept(workload, pool, loop)
            values = per_layer(tracer, reference, loop)
            listed = spec["per_layer"]
        else:
            loop = closed_loop(workload, cycle_until(pool, args.seconds))
            # the high-water mark of set-up and the timed phase, before the
            # verification pass allocates its larger sample sets
            rss_mb = peak_rss_mb()
            verify_kept(workload, pool, loop)
            values = end_to_end(loop, setup_s, rss_mb)
            listed = spec["end_to_end"]
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in listed
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"  requests attempted {loop.attempted}, failed {loop.failed}")
    if "failed_share" not in metrics:
        print(f"  failed_share {loop.failed / loop.attempted:.6g} share")
    for name, entry in metrics.items():
        print(f"  {name} {entry['value']:.6g} {entry['unit']}")
    for seq, kind, message in loop.errors[:5]:
        print(f"  failure ({kind}) at request {seq}: {message}")
    result = {
        "correct": loop.wrong_outputs == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
