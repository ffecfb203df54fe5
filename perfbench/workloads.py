"""Workload definitions: seeded inputs, requests and their certificates.

Each workload builds a pool of requests in set-up from the workload seed; the
timed phase only sends those prebuilt requests, one at a time, cycling
through the pool when the run outlasts it.  Pools are stratified: every
round of the pool holds the workload's fixed (size, exponent) cells, in an
order shuffled by the seed, so any stretch of the run sees the same mix of
cheap and expensive requests and the seed mainly changes the vectors drawn.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import caldera.cli as cli
import caldera.extend as extend
import caldera.instances as instances
from caldera.lattice import convexify_couple

P_MIX = (1.5, 2.0, 3.0)
AUDIT_SAMPLES = 1000
VERIFY_SAMPLES = 4000
RESIDUAL_LIMIT = 1e-8
RATIO_SLACK = 1e-9
CAMPAIGN_SUITES = "sandwich, claim1, maligranda, minkowski, lattice-props"
CAMPAIGN_GRID = "geometric:1e-3,1e3,61"


def norm_bound(p: float) -> float:
    return 2.0 ** (1.0 - 1.0 / p)


# ---------------------------------------------------------------------------
# lift workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftRequest:
    couple: object
    f: np.ndarray
    g: np.ndarray
    p: float
    n: int
    audit_seed: int


def lift_certificate_error(result, p: float) -> str:
    """Empty when the lift meets all three certificates, else the reason."""
    if not result.residual_lf_g <= RESIDUAL_LIMIT:
        return f"residual {result.residual_lf_g:.3e} above {RESIDUAL_LIMIT:g}"
    if result.domination_violations != 0:
        return f"{result.domination_violations} domination violations"
    worst = max(result.norm_sample_ratios)
    if not worst <= norm_bound(p) + RATIO_SLACK:
        return f"norm ratio {worst:.12g} above 2^(1-1/p) = {norm_bound(p):.12g}"
    return ""


def _lift_request(seed: int, n: int, p: float, index: int) -> LiftRequest:
    inst = instances.generate_instance(seed, n, p=p, k_ordered=True, index=index)
    return LiftRequest(inst.couple, inst.f, inst.g, p, n, index)


class LiftWorkload:
    """Closed-loop ``lift_operator`` calls with one extension method."""

    def __init__(self, name: str, method: str):
        self.name = name
        self.method = method

    def setup(self, seed: int, workdir: str) -> list:
        raise NotImplementedError

    def warmup_requests(self, pool: list) -> list:
        return sorted(pool, key=lambda r: (r.n, r.p))[:3]

    def execute(self, req: LiftRequest):
        return extend.lift_operator(
            req.couple,
            req.f,
            req.g,
            req.p,
            method=self.method,
            audit_samples=AUDIT_SAMPLES,
            seed=req.audit_seed,
        )

    def check(self, req: LiftRequest, result) -> str:
        return lift_certificate_error(result, req.p)

    def keep_for_verify(self, pool_index: int) -> bool:
        return pool_index % 8 == 0

    def verify(self, req: LiftRequest, result) -> str:
        """Recompute the certificates on fresh samples, outside the timed phase."""
        report = extend.verify_lift(
            result,
            result.majorant,
            req.f,
            req.g,
            convexify_couple(req.couple, req.p),
            samples=VERIFY_SAMPLES,
            seed=1_000_003 + req.audit_seed,
        )
        if report.ok:
            return ""
        return (
            f"verify_lift failed: residual {report.residual_lf_g:.3e}, "
            f"{report.domination_violations} violations, "
            f"ratios {report.norm_sample_ratios}"
        )


class GreedyLifts(LiftWorkload):
    """Greedy lifts: every (n, p) cell with n in 2..12 and p in {1.5, 2} in
    each round, and a p = 3 pair in every other round, its n cycling
    through 2..6.

    At p = 1.5 and 2 a greedy lift's time varies little between pairs of one
    size.  At p = 3 the dual-interval solver's time has a heavy tail at every
    size (coefficient of variation above 1 within a size, up to 20 s for one
    lift at n = 10-12), and the empty-interval failures appear from n = 6 on.
    How many slow p = 3 pairs a seed happens to draw would otherwise set the
    reading, so they are one request in 45 and n <= 6, each one a distinct
    pair.  The cheap cells repeat every ``BASE_ROUNDS`` rounds.
    """

    ROUNDS = 40
    BASE_ROUNDS = 4
    BASE = tuple((n, p) for p in (1.5, 2.0) for n in range(2, 13))
    TAIL_SIZES = (2, 3, 4, 5, 6)

    def setup(self, seed: int, workdir: str) -> list:
        rng = np.random.default_rng([seed, 0x6EED])
        base = [
            [_lift_request(seed, n, p, r * len(self.BASE) + k) for k, (n, p) in enumerate(self.BASE)]
            for r in range(self.BASE_ROUNDS)
        ]
        index = self.BASE_ROUNDS * len(self.BASE)
        pool = []
        for r in range(self.ROUNDS):
            round_ = list(base[r % self.BASE_ROUNDS])
            if r % 2 == 0:
                n = self.TAIL_SIZES[(r // 2) % len(self.TAIL_SIZES)]
                round_.append(_lift_request(seed, n, 3.0, index))
                index += 1
            pool.extend(round_[k] for k in rng.permutation(len(round_)))
        return pool


class HolderLifts(LiftWorkload):
    """Holder lifts on twelve sizes spaced evenly in log n over [16, 256],
    each size once with every p; the seed draws the vectors.  A Holder
    lift's time is set by n, so the sizes are fixed rather than drawn, and
    one round of 36 pairs is the pool.
    """

    SIZES = tuple(int(round(16 * 16 ** (k / 11))) for k in range(12))

    def setup(self, seed: int, workdir: str) -> list:
        rng = np.random.default_rng([seed, 0x5EED])
        cells = [(n, p) for n in self.SIZES for p in P_MIX]
        return [
            _lift_request(seed, *cells[k], index)
            for index, k in enumerate(rng.permutation(len(cells)))
        ]


# ---------------------------------------------------------------------------
# campaign workload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignRequest:
    argv: tuple
    json_path: str
    n: int


class CampaignProfiles:
    """In-process ``caldera campaign`` runs of small seeded configs."""

    # One round of twenty-four configs.  Exhaustive D costs grow as 2^n, so
    # the sizes are placed so that the median request lands among the cheap
    # n <= 13 configs (orchestration, reports, cli) and the 90th percentile
    # inside the block of three n = 18 configs rather than on the boundary
    # between two sizes; the single n = 20 config carries the D tables that
    # set peak memory.
    SIZES = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 12, 13, 13, 14, 14, 15, 15, 16, 16,
             18, 18, 18, 20)

    def __init__(self, name: str):
        self.name = name

    def setup(self, seed: int, workdir: str) -> list:
        rng = np.random.default_rng([seed, 0xCA3])
        pool = []
        for k in rng.permutation(len(self.SIZES)):
            n = self.SIZES[k]
            index = len(pool)
            cfg_seed = int(rng.integers(0, 2**31))
            cfg = os.path.join(workdir, f"campaign{index}.cfg")
            with open(cfg, "w") as fh:
                fh.write(
                    f"seed = {cfg_seed}\n"
                    "instance_count = 1\n"
                    f"n_min = {n}\n"
                    f"n_max = {n}\n"
                    "p_set = 1.5, 2.0, 3.0\n"
                    f"t_grid = {CAMPAIGN_GRID}\n"
                    f"suites = {CAMPAIGN_SUITES}\n"
                )
            csv_path = os.path.join(workdir, f"report{index}.csv")
            json_path = os.path.join(workdir, f"report{index}.json")
            argv = ("campaign", "--config", cfg, "--report", csv_path, "--json", json_path)
            pool.append(CampaignRequest(argv, json_path, n))
        return pool

    def warmup_requests(self, pool: list) -> list:
        return sorted(pool, key=lambda r: r.n)[:2]

    def execute(self, req: CampaignRequest):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(req.argv))

    def check(self, req: CampaignRequest, status) -> str:
        if status != 0:
            return f"campaign exited with status {status}"
        with open(req.json_path) as fh:
            report = json.load(fh)
        if report["summary"]["violations"] != "0":
            return f"campaign reported {report['summary']['violations']} violations"
        errors = [row["error"] for row in report["rows"] if row["error"]]
        if errors:
            return f"campaign row raised: {errors[0]}"
        return ""

    def keep_for_verify(self, pool_index: int) -> bool:
        return False


WORKLOADS = {
    w.name: w
    for w in (
        GreedyLifts("lift-greedy", "greedy"),
        HolderLifts("lift-holder", "holder"),
        CampaignProfiles("campaign-profiles"),
    )
}
