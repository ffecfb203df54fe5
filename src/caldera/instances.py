"""Seeded random instances with a portable JSON wire format.

The generator is counter-based so streams are reproducible across platforms:
instance payload draws come from a Philox generator keyed by
(seed << 64) | (2 * index), and orchestration-level draws (sizes, suite
parameters) use the odd companion key (seed << 64) | (2 * index + 1).  The
same (seed, index) pair therefore always yields the same instance no matter
which machine or process produced it.  Seeds must be integers in [0, 2^64)
and indices in [0, 2^63), so that no two pairs share a key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalFailure
from .kfunc import p_majorization_orders
from .lattice import (
    INF,
    Convexified,
    Couple,
    MeasureSpace,
    NormSpec,
    WeightedP,
    convexification_exponent,
    convexify_couple,
)

LOG_RANGE = (-2.0, 2.0)


def _philox_key(seed, index, stream: int) -> int:
    """The key (seed << 64) | (2 index + stream), for integers 0 <= seed < 2^64
    and 0 <= index < 2^63; wider values would alias another (seed, index)."""
    for name, value, bits in (("instance seed", seed, 64), ("instance index", index, 63)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        if not 0 <= value < 2**bits:
            raise DomainError(f"{name} must lie in [0, 2^{bits}), got {value}")
    return (int(seed) << 64) | (2 * int(index) + stream)


def payload_rng(seed: int, index: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, index, 0)))


def orchestration_rng(seed: int, index: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, index, 1)))


@dataclass(frozen=True)
class Instance:
    space: MeasureSpace
    couple: Couple
    f: np.ndarray
    g: np.ndarray | None
    p: float
    seed: int
    index: int

    @property
    def n(self) -> int:
        return self.space.n


def _draw_vector(rng: np.random.Generator, n: int, positivity: bool) -> np.ndarray:
    mags = 10.0 ** rng.uniform(*LOG_RANGE, size=n)
    if positivity:
        return mags
    return mags * rng.choice([-1.0, 1.0], size=n)


def _ordered_partner(rng: np.random.Generator, w, f: np.ndarray, positivity: bool) -> np.ndarray:
    """g = s D f, s < 0.95, with row sums and weighted column sums
    sum_i w_i D_ij / w_j of D at most one.  Jensen on each row gives
    |g|^p <= s^p D |f|^p, so |g|^p is weakly submajorized by s^p |f|^p."""
    n = f.size
    q = rng.random((n, n))
    cap = max(np.max(np.sum(w[:, None] * q, axis=0) / w), np.max(np.sum(q, axis=1)), 1e-300)
    scale = float(rng.uniform(0.2, 0.95))
    g = scale * (q / cap) @ f
    if positivity:
        g = np.abs(g)
    return g


def generate_instance(
    seed: int,
    n: int,
    p: float = 2.0,
    positivity: bool = False,
    k_ordered: bool = False,
    index: int = 0,
    uniform_weights: bool = True,
) -> Instance:
    """Draw one instance; ordering, when requested, is verified, not assumed."""
    if n < 1:
        raise DomainError("instance size must be at least 1")
    convexification_exponent(p)
    rng = payload_rng(seed, index)
    if uniform_weights:
        weights = np.ones(n)
    else:
        weights = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
    space = MeasureSpace(weights)
    couple = Couple(space=space, norm0=WeightedP(1.0), norm1=WeightedP(INF))
    f = _draw_vector(rng, n, positivity)
    g = None
    if k_ordered:
        g = _ordered_partner(rng, weights, f, positivity)
        if not p_majorization_orders(convexify_couple(couple, p), f, g):
            raise NumericalFailure(
                "could not verify ordering of a generated pair; the averaging "
                "construction should guarantee it"
            )
    return Instance(
        space=space, couple=couple, f=f, g=g, p=p, seed=int(seed), index=int(index)
    )


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def norm_spec_to_json(spec: NormSpec) -> dict:
    if isinstance(spec, WeightedP):
        return {"type": "weighted_p", "p": "inf" if spec.p == INF else spec.p}
    if isinstance(spec, Convexified):
        return {
            "type": "convexified",
            "base": norm_spec_to_json(spec.base),
            "p": spec.p,
        }
    raise DomainError(f"unknown norm specification: {spec!r}")


def norm_spec_from_json(data: dict) -> NormSpec:
    kind = data.get("type")
    if kind == "weighted_p":
        raw = data["p"]
        return WeightedP(INF if raw == "inf" else float(raw))
    if kind == "convexified":
        return Convexified(base=norm_spec_from_json(data["base"]), p=float(data["p"]))
    raise DomainError(f"unknown norm type in instance file: {kind!r}")


def instance_to_json(inst: Instance) -> dict:
    return {
        "weights": inst.space.weights.tolist(),
        "f": inst.f.tolist(),
        "g": None if inst.g is None else inst.g.tolist(),
        "p": inst.p,
        "seed": inst.seed,
        "index": inst.index,
        "couple": {
            "norm0": norm_spec_to_json(inst.couple.norm0),
            "norm1": norm_spec_to_json(inst.couple.norm1),
        },
    }


def instance_from_json(data: dict) -> Instance:
    space = MeasureSpace(np.asarray(data["weights"], dtype=float))
    couple = Couple(
        space=space,
        norm0=norm_spec_from_json(data["couple"]["norm0"]),
        norm1=norm_spec_from_json(data["couple"]["norm1"]),
    )
    f = np.asarray(data["f"], dtype=float)
    g = data.get("g")
    gv = None if g is None else np.asarray(g, dtype=float)
    if f.shape != (space.n,):
        raise DomainError("instance f does not match the measure space size")
    if gv is not None and gv.shape != (space.n,):
        raise DomainError("instance g does not match the measure space size")
    p = float(data.get("p", 2.0))
    return Instance(
        space=space,
        couple=couple,
        f=f,
        g=gv,
        p=p,
        seed=int(data.get("seed", 0)),
        index=int(data.get("index", 0)),
    )


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_json(inst), fh, indent=2)
        fh.write("\n")


def load_instance(path: str) -> Instance:
    with open(path) as fh:
        return instance_from_json(json.load(fh))
