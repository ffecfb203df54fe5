"""Self-test of the benchmark's failure accounting and tracing.

    python3 perfbench/selftest.py

Pins a known defect of the greedy extension: on
``generate_instance(1, 6, p=3.0, k_ordered=True, index=32)`` the greedy row
solver raises ``NumericalFailure("row 5: feasible interval came up empty at
direction 0")`` while the Holder row lifts the same pair.  The test sends
that pair between two ordinary greedy requests through the benchmark's
closed loop and checks that it counts as exactly one failure, that the loop
goes on to the next request, and that the traced run attributes the failure
to ``extend.row``.  Exits nonzero on the first broken expectation.
"""

from __future__ import annotations

import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from caldera.instances import generate_instance  # noqa: E402

DEFECT = "NumericalFailure: row 5: feasible interval came up empty at direction 0"


def lift_request(seed: int, n: int, p: float, index: int) -> workloads.LiftRequest:
    inst = generate_instance(seed, n, p=p, k_ordered=True, index=index)
    return workloads.LiftRequest(inst.couple, inst.f, inst.g, p, n, index)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    greedy = workloads.WORKLOADS["lift-greedy"]
    holder = workloads.WORKLOADS["lift-holder"]
    defect = lift_request(1, 6, 3.0, 32)
    requests = [lift_request(2, 4, 2.0, 0), defect, lift_request(2, 5, 1.5, 1)]

    loop = run.closed_loop(greedy, enumerate(requests))
    expect(loop.attempted == 3, f"attempted {loop.attempted}, expected 3")
    expect(loop.failed == 1, f"failed {loop.failed}, expected 1")
    seq, kind, message = loop.errors[0]
    expect((seq, kind) == (1, "raised"), f"failure recorded as {(seq, kind)}")
    expect(message == DEFECT, f"unexpected failure message {message!r}")
    expect(loop.wrong_outputs == 0, "a raised request was counted as a wrong output")
    expect(loop.passed == 2, "the request after the failure did not pass")

    result = holder.execute(defect)
    expect(holder.check(defect, result) == "", "holder lift failed its certificates")
    expect(holder.verify(defect, result) == "", "holder lift failed verify_lift")

    tracer = tracing.Tracer(phase="timed")
    tracer.install()
    try:
        traced = run.closed_loop(greedy, enumerate([defect]), tracer)
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals("timed")
    expect(traced.failed == 1, "traced run lost the failure")
    expect(totals["extend.row.failed"] == 1, "extend.row.failed is not 1")
    # rows 0-4 return, row 5 raises and aborts the lift
    expect(totals["extend.row.calls"] == 6, f"extend.row.calls {totals['extend.row.calls']}")
    self_sum = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    covered = tracer.covered_s("timed")
    expect(abs(self_sum - covered) <= 1e-9 * max(covered, 1.0),
           "self times do not add up to the covered time")
    print("selftest ok: the greedy defect counts as one failure and the run continues")
    return 0


if __name__ == "__main__":
    sys.exit(main())
