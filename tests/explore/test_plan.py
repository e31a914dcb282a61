"""Fault-plan DSL: codec round-trips, seeded generation, validation."""

import pytest

from repro.explore.plan import (
    BENIGN_KINDS,
    BYZANTINE_KINDS,
    FaultPlan,
    FaultStep,
    generate_plan,
    unsupported,
    validate_plan,
)


def test_plan_json_roundtrip_is_identity():
    for seed in range(30):
        plan = generate_plan(seed)
        assert FaultPlan.from_json(plan.to_json()) == plan


def test_plan_json_is_canonical():
    plan = generate_plan(4)
    assert plan.to_json() == FaultPlan.from_json(plan.to_json()).to_json()


def test_same_seed_generates_byte_identical_plans():
    for seed in (0, 1, 17, 12345):
        assert generate_plan(seed).to_json() == generate_plan(seed).to_json()


def test_different_seeds_generate_different_plans():
    plans = {generate_plan(seed).to_json() for seed in range(20)}
    assert len(plans) > 10  # collisions allowed, but the stream must vary


def test_generated_plans_are_valid():
    for seed in range(50):
        plan = generate_plan(seed)
        assert validate_plan(plan) == [], (seed, plan.to_json())


def test_generated_plans_respect_max_steps_and_f():
    for seed in range(50):
        plan = generate_plan(seed, max_steps=4)
        assert len(plan.steps) <= 4
        assert len(plan.byzantine_targets()) <= 1  # f = 1


def test_steps_sorted_by_time():
    for seed in range(30):
        times = [step.at for step in generate_plan(seed).steps]
        assert times == sorted(times)


def test_step_kinds_partitioned():
    assert not (BENIGN_KINDS & BYZANTINE_KINDS)
    for seed in range(30):
        for step in generate_plan(seed).steps:
            assert step.kind in BENIGN_KINDS | BYZANTINE_KINDS


def test_sparse_step_encoding_omits_defaults():
    step = FaultStep(at=0.5, kind="crash", target="R1")
    encoded = step.to_dict()
    assert "fraction" not in encoded and "groups" not in encoded
    assert FaultStep.from_dict(encoded) == step


def test_validate_rejects_unpaired_crash():
    plan = FaultPlan(
        seed=1, requests=8, steps=(FaultStep(at=0.1, kind="crash", target="R1"),)
    )
    assert any("crash" in problem for problem in validate_plan(plan))


def test_validate_rejects_too_many_byzantine():
    plan = FaultPlan(
        seed=1,
        requests=8,
        steps=(
            FaultStep(at=0.1, kind="equivocate", target="R0"),
            FaultStep(at=0.2, kind="corrupt_votes", target="R1"),
        ),
    )
    assert any("byzantine" in problem.lower() for problem in validate_plan(plan))


def test_validate_rejects_unsorted_steps():
    plan = FaultPlan(
        seed=1,
        requests=8,
        steps=(
            FaultStep(at=0.5, kind="crash", target="R1"),
            FaultStep(at=0.1, kind="restart", target="R1"),
        ),
    )
    assert validate_plan(plan) != []


def test_from_dict_rejects_unknown_version():
    plan = generate_plan(0)
    payload = plan.to_dict()
    payload["version"] = 99
    with pytest.raises(ValueError):
        FaultPlan.from_dict(payload)


def test_unknown_step_kind_fails_at_construction():
    with pytest.raises(ValueError, match="unknown fault step kind"):
        FaultStep(at=0.1, kind="client_swarm")
    with pytest.raises(ValueError, match="unknown fault step kind"):
        FaultStep.from_dict({"at": 0.1, "kind": "client_swarm"})


@pytest.mark.parametrize(
    "kinds,shards,topology,rejected",
    [
        ({"crash", "partition", "equivocate"}, 1, "", False),
        ({"crash", "partition", "equivocate"}, 2, "", False),
        ({"destroy_group"}, 1, "", True),
        ({"destroy_group", "drop"}, 2, "", False),
        ({"overload"}, 1, "", False),
        ({"overload"}, 2, "", True),
        ({"poison_request"}, 3, "", True),
        ({"flash_crowd"}, 2, "", True),
        (set(), 1, "wan3", False),
        (set(), 2, "wan3", True),
    ],
)
def test_unsupported_decides_step_kinds_by_deployment_size(
    kinds, shards, topology, rejected
):
    problem = unsupported(kinds, shards, topology)
    assert (problem is not None) == rejected
