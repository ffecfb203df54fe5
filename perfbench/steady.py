"""Run-to-run steadiness of the benchmark's metrics.

    python3 perfbench/steady.py --workload lift-greedy --seeds 1-10
    python3 perfbench/steady.py --workload all --seeds 1 --trace 1

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints each
metric's median, quartiles and spread, the distance between the quartiles
as a share of the median, against the bound in ``BENCHMARK.json``.  A
spread below a third of the bound is ``steady``; below the bound,
``within``; above it, ``OVER``.  ``--save`` writes the collected values,
``--against`` compares the medians of this set with a saved one: a median
worse than the saved one by more than the bound is ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list):
    if len(values) < 2:
        return None, values[0], None, None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def worse_by(old: float, new: float, better: str) -> float:
    """Share by which ``new`` is worse than ``old`` (negative when better)."""
    change = (new - old) / old if old else 0.0
    return -change if better == "higher" else change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None, help="write collected values here")
    parser.add_argument("--against", default=None, help="compare with a saved set")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    previous = json.loads(Path(args.against).read_text()) if args.against else {}

    collected = {}
    verdict = 0
    for workload in chosen:
        runs = []
        for seed in parse_seeds(args.seeds):
            res = run_once(workload, seed, seconds, args.trace)
            runs.append(res)
            print(
                f"{workload} seed {seed}: attempted {res['attempted']} "
                f"failed {res['failed']} correct {res['correct']}",
                flush=True,
            )
        collected[workload] = {
            m["name"]: [r["metrics"][m["name"]]["value"] for r in runs] for m in listed
        }
        print(f"\n{workload}: {len(runs)} runs of {seconds} s")
        print(f"  {'metric':34s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>7s} {'bound':>6s}")
        for m in listed:
            values = collected[workload][m["name"]]
            q1, med, q3, sp = spread(values)
            line = f"  {m['name']:34s} {m['unit']:6s} {med:12.6g}"
            if len(values) > 1:
                line += f" {q1:12.6g} {q3:12.6g} {sp:7.3f}"
            bound = m.get("bound")
            if bound is not None and len(values) > 1:
                state = "steady" if sp < bound / 3 else "within" if sp <= bound else "OVER"
                if state == "OVER" and m["name"] != "setup_s":
                    verdict = 1
                line += f" {bound:6.2f} {state}"
            old = previous.get(workload, {}).get(m["name"])
            if old and bound is not None:
                drift = worse_by(statistics.median(old), med, m["better"])
                flag = "WORSE" if drift > bound else "ok"
                verdict |= flag == "WORSE"
                line += f"  vs saved {drift:+.3f} {flag}"
            print(line)
        print()
    if args.save:
        Path(args.save).write_text(json.dumps(collected, indent=1) + "\n")
    return verdict


if __name__ == "__main__":
    sys.exit(main())
