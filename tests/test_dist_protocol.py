"""Tests for the repro.dist wire contract and the chaos plan.

Covers the protocol version stamp, message immutability, the chaos
plan file, and the seeded purity of
:func:`repro.faults.chaos.chaos_decision`.
"""

from __future__ import annotations

import json

import pytest

from repro.dist.protocol import (
    PROTOCOL_VERSION,
    JobEnvelope,
    WorkerReady,
)
from repro.faults.chaos import ChaosDecision, CoordinatorChaos, chaos_decision

# ---------------------------------------------------------------------
# Protocol messages
# ---------------------------------------------------------------------


def test_hello_carries_the_protocol_version():
    assert WorkerReady(worker_id="w").protocol == PROTOCOL_VERSION


def test_from_jsonable_rejects_unknown_fields_and_wrong_type():
    with pytest.raises(ValueError, match="unknown CoordinatorChaos"):
        CoordinatorChaos.from_jsonable({"seed": 1, "bogus": 2})
    with pytest.raises(ValueError, match="key 'seed' must be an integer"):
        CoordinatorChaos.from_jsonable({"seed": 1.5})


def test_messages_are_frozen():
    envelope = JobEnvelope(job_id="shard-005", shard_index=5, n_shards=8)
    with pytest.raises(AttributeError):
        envelope.attempt = 9  # type: ignore[misc]


# ---------------------------------------------------------------------
# Chaos plans
# ---------------------------------------------------------------------


def test_chaos_plan_round_trip_and_digest(tmp_path):
    plan = CoordinatorChaos(seed=7, kill_prob=0.25, duplicate_prob=0.5,
                            delay_mean_s=0.1)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_jsonable()))
    assert CoordinatorChaos.from_json_file(path) == plan
    assert plan.digest() == plan.variant().digest()
    assert plan.digest() != plan.variant(seed=8).digest()
    with pytest.raises(ValueError, match="unknown CoordinatorChaos"):
        CoordinatorChaos.from_jsonable({"seed": 1, "bogus": 2})


@pytest.mark.parametrize("text, named", [
    ('{"seed": "1"}', "key 'seed' must be an integer"),
    ('{"first_attempt_only": "no"}', "key 'first_attempt_only'"),
    ('{"kill_prob": true}', "key 'kill_prob' must be a number"),
    ("{seed: 1}", "not valid JSON"),
])
def test_chaos_plan_file_rejects_malformed_input(tmp_path, text, named):
    path = tmp_path / "chaos.json"
    path.write_text(text)
    with pytest.raises(ValueError) as excinfo:
        CoordinatorChaos.from_json_file(path)
    message = str(excinfo.value)
    assert message.startswith(f"{path}: ") and named in message
    assert "\n" not in message


def test_chaos_plan_validates_probabilities():
    with pytest.raises(ValueError, match="kill_prob"):
        CoordinatorChaos(kill_prob=1.5)
    with pytest.raises(ValueError, match="duplicate_prob"):
        CoordinatorChaos(duplicate_prob=-0.1)
    with pytest.raises(ValueError, match="delay_mean_s"):
        CoordinatorChaos(delay_mean_s=-1.0)


def test_empty_plan_is_inert_and_touches_no_stream():
    assert CoordinatorChaos().is_empty
    assert chaos_decision(None, "shard-000", 0) == ChaosDecision()
    assert chaos_decision(CoordinatorChaos(seed=9), "shard-000",
                          0) == ChaosDecision()


def test_chaos_decision_is_a_pure_function_of_plan_job_attempt():
    plan = CoordinatorChaos(seed=3, kill_prob=0.5, duplicate_prob=0.5,
                            delay_mean_s=0.01)
    first = [chaos_decision(plan, f"shard-{i:03d}", a)
             for i in range(8) for a in range(2)]
    second = [chaos_decision(plan, f"shard-{i:03d}", a)
              for i in range(8) for a in range(2)]
    assert first == second                          # replayable
    assert len({(d.kill, d.duplicate, round(d.delay_s, 9))
                for d in first}) > 1                # actually varies


def test_kills_fire_on_first_attempt_only_by_default():
    plan = CoordinatorChaos(seed=1, kill_prob=1.0)
    assert chaos_decision(plan, "shard-000", 0).kill
    assert not chaos_decision(plan, "shard-000", 1).kill
    relentless = plan.variant(first_attempt_only=False)
    assert chaos_decision(relentless, "shard-000", 1).kill
