"""Command line front end: profiles, operator construction, lifts, campaigns."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from .campaign import load_config, run_campaign
from .extend import lift_certified, lift_operator
from .instances import load_instance
from .kfunc import default_t_grid, parse_t_grid, profile
from .majorize import (
    construct_positive_operator,
    operator_norm_1,
    operator_norm_inf,
)


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _cmd_kprofile(args) -> int:
    inst = load_instance(args.instance)
    spec = () if args.t_grid is None else parse_t_grid(args.t_grid)
    grid = default_t_grid(*spec)
    prof = profile(args.kind, inst.couple, inst.f, grid)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value", "a0_norm", "a1_norm"])
        for i in range(grid.size):
            writer.writerow(
                [
                    _f17(prof.t_grid[i]),
                    _f17(prof.values[i]),
                    _f17(prof.a0_norms[i]),
                    _f17(prof.a1_norms[i]),
                ]
            )
    print(f"wrote {grid.size} {args.kind}-profile points to {args.out}")
    return 0


def _cmd_construct_operator(args) -> int:
    inst = load_instance(args.instance)
    if inst.g is None:
        raise ValueError("instance has no second vector to map onto")
    op = construct_positive_operator(inst.space, inst.f, inst.g)
    residual = float(np.max(np.abs(op.apply(inst.f) - inst.g)))
    payload = {
        "entries": op.entries.tolist(),
        "cert": {
            "norm1": operator_norm_1(op),
            "norminf": operator_norm_inf(op),
            "residual": residual,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(
        f"wrote operator ({inst.n}x{inst.n}) to {args.out}; "
        f"column norm {payload['cert']['norm1']:.6g}, "
        f"row norm {payload['cert']['norminf']:.6g}"
    )
    return 0


def _cmd_lift(args) -> int:
    inst = load_instance(args.instance)
    if inst.g is None:
        raise ValueError("instance has no second vector to lift onto")
    alpha = None if args.alpha == "auto" else float(args.alpha)
    result = lift_operator(
        inst.couple,
        inst.f,
        inst.g,
        inst.p,
        method=args.method,
        alpha=alpha,
        audit_samples=args.audit_samples,
        seed=args.seed,
    )
    payload = {
        "method": result.method,
        "alpha": result.alpha,
        "p": result.p,
        "L": result.operator.entries.tolist(),
        "T": result.majorant.operator.entries.tolist(),
        "certificates": {
            "residual_lf_g": result.residual_lf_g,
            "domination_violations": result.domination_violations,
            "norm_sample_ratios": list(result.norm_sample_ratios),
            "audit_samples": result.audit_samples,
            "audit_seed": result.audit_seed,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    ok = lift_certified(
        result.residual_lf_g,
        result.domination_violations,
        result.norm_sample_ratios,
        result.p,
    )
    print(
        f"lift ({result.method}) written to {args.out}; residual "
        f"{result.residual_lf_g:.3e}, certificates {'pass' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def _cmd_campaign(args) -> int:
    config = load_config(args.config)
    report = run_campaign(config, report_path=args.report, json_path=args.json)
    print(
        f"{len(report.rows)} rows, {report.total_violations} violations, "
        f"{report.total_runtime_s:.2f}s -> {args.report}"
    )
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process (parsing leaves it as is)."""
    parser = argparse.ArgumentParser(
        prog="caldera",
        description=(
            "numerical laboratory for interpolation couples on finite atomic "
            "measure spaces"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kp = sub.add_parser("kprofile", help="tabulate a K- or D-profile over a t-grid")
    kp.add_argument("--instance", required=True)
    kp.add_argument("--kind", choices=["K", "D"], default="K")
    kp.add_argument("--t-grid", dest="t_grid", default=None)
    kp.add_argument("--out", required=True)
    kp.set_defaults(func=_cmd_kprofile)

    co = sub.add_parser(
        "construct-operator",
        help="build the positive substochastic operator mapping f to g",
    )
    co.add_argument("--instance", required=True)
    co.add_argument("--out", required=True)
    co.set_defaults(func=_cmd_construct_operator)

    lf = sub.add_parser("lift", help="run the full extension pipeline on a pair")
    lf.add_argument("--instance", required=True)
    lf.add_argument("--method", choices=["holder", "greedy"], default="holder")
    lf.add_argument("--alpha", default="auto")
    lf.add_argument("--audit-samples", dest="audit_samples", type=int, default=2000)
    lf.add_argument("--seed", type=int, default=0)
    lf.add_argument("--out", required=True)
    lf.set_defaults(func=_cmd_lift)

    cp = sub.add_parser("campaign", help="run a configured verification campaign")
    cp.add_argument("--config", required=True)
    cp.add_argument("--report", required=True)
    cp.add_argument("--json", default=None)
    cp.set_defaults(func=_cmd_campaign)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
