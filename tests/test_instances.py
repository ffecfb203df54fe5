from __future__ import annotations

import json

import numpy as np
import pytest

from caldera import (
    INF,
    Convexified,
    DomainError,
    WeightedP,
    convexify_couple,
    generate_instance,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from caldera.instances import (
    norm_spec_from_json,
    norm_spec_to_json,
    orchestration_rng,
    payload_rng,
)
from caldera.kfunc import k_order_dominates


def test_same_seed_gives_identical_instance():
    a = generate_instance(7, 6, p=2.0, k_ordered=True, index=3)
    b = generate_instance(7, 6, p=2.0, k_ordered=True, index=3)
    assert np.array_equal(a.f, b.f)
    assert np.array_equal(a.g, b.g)
    assert np.array_equal(a.space.weights, b.space.weights)


def test_different_index_gives_different_draws():
    a = generate_instance(7, 6, index=0)
    b = generate_instance(7, 6, index=1)
    assert not np.array_equal(a.f, b.f)


def test_seeds_and_indices_are_validated_so_no_two_pairs_share_a_stream():
    seed_range, index_range = "seed must lie in [0, 2^64)", "index must lie in [0, 2^63)"
    for seed, index, message in (
        (-1, 0, f"instance {seed_range}, got -1"),
        (2**64, 0, f"instance {seed_range}, got {2**64}"),
        (2.5, 0, "instance seed must be an integer, got 2.5"),
        (True, 0, "instance seed must be an integer, got True"),
        # index 2^63 would alias seed 1, index 0
        (0, 2**63, f"instance {index_range}, got {2**63}"),
        (0, -1, f"instance {index_range}, got -1"),
        (0, 1.0, "instance index must be an integer, got 1.0"),
        (0, False, "instance index must be an integer, got False"),
    ):
        with pytest.raises(DomainError) as info:
            generate_instance(seed, 4, index=index)
        assert str(info.value) == message
    for rng in (payload_rng, orchestration_rng):
        with pytest.raises(DomainError, match="instance index"):
            rng(1, 2**63)
    # the largest valid pair and numpy integers draw as before
    top = generate_instance(2**64 - 1, 3, index=2**63 - 1)
    assert np.all(np.isfinite(top.f))
    same = generate_instance(np.uint64(7), 6, index=np.int32(3))
    assert np.array_equal(same.f, generate_instance(7, 6, index=3).f)
    # stored as Python ints, so the instance file can be written
    assert json.loads(json.dumps(instance_to_json(same)))["seed"] == 7


def test_positivity_flag():
    inst = generate_instance(11, 20, positivity=True)
    assert np.all(inst.f > 0.0)
    signed = generate_instance(11, 200, positivity=False)
    assert np.any(signed.f < 0.0) and np.any(signed.f > 0.0)


def test_entry_range_is_log_uniform_window():
    inst = generate_instance(13, 500, positivity=True)
    assert np.all(np.abs(inst.f) >= 1e-2)
    assert np.all(np.abs(inst.f) <= 1e2)


def test_k_ordered_pairs_verify_on_the_convexified_couple():
    for seed in range(8):
        inst = generate_instance(seed, 7, p=1.5, k_ordered=True)
        assert inst.g is not None
        conv = convexify_couple(inst.couple, 1.5)
        assert k_order_dominates(conv, inst.f, inst.g)


def test_generate_rejects_bad_arguments():
    with pytest.raises(DomainError):
        generate_instance(1, 0)
    with pytest.raises(DomainError):
        generate_instance(1, 3, p=1.0)
    with pytest.raises(DomainError):
        generate_instance(1, 3, p=INF)


def test_norm_spec_json_round_trip():
    specs = [
        WeightedP(1.0),
        WeightedP(2.5),
        WeightedP(INF),
        Convexified(base=WeightedP(1.0), p=2.0),
        Convexified(base=Convexified(base=WeightedP(1.5), p=2.0), p=3.0),
    ]
    for spec in specs:
        assert norm_spec_from_json(norm_spec_to_json(spec)) == spec
    with pytest.raises(DomainError):
        norm_spec_from_json({"type": "exotic"})


def test_instance_file_round_trip(tmp_path):
    inst = generate_instance(5, 4, p=3.0, k_ordered=True, uniform_weights=False)
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    back = load_instance(str(path))
    assert np.array_equal(back.f, inst.f)
    assert np.array_equal(back.g, inst.g)
    assert np.array_equal(back.space.weights, inst.space.weights)
    assert back.p == inst.p
    assert back.couple.norm0 == inst.couple.norm0
    assert back.couple.norm1 == inst.couple.norm1


def test_instance_json_validates_sizes():
    inst = generate_instance(5, 4)
    data = instance_to_json(inst)
    data["f"] = [1.0, 2.0]
    with pytest.raises(DomainError):
        instance_from_json(data)


def test_instance_json_is_plain_data():
    inst = generate_instance(9, 3, k_ordered=True)
    text = json.dumps(instance_to_json(inst))
    parsed = json.loads(text)
    again = instance_from_json(parsed)
    assert np.array_equal(again.f, inst.f)
    assert np.array_equal(again.g, inst.g)
