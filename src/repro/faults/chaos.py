"""Coordinator chaos plans: fault injection for the *execution plane*.

:mod:`repro.faults` injects failures into the simulated ad stack; this
module injects them into the machinery that **runs** the simulation —
the :mod:`repro.dist` coordinator/worker runner. A
:class:`CoordinatorChaos` plan declares seeded worker kills, delayed
results, and duplicated result envelopes, and every decision is a pure
function of ``(plan, job_id, attempt)`` drawn from a named RNG stream —
so a chaos run is exactly reproducible, and the acceptance contract
("any chaos run is bit-identical to the fault-free pool run") is
testable rather than probabilistic.

Kills fire only on a job's **first** attempt by default
(``first_attempt_only``), which guarantees termination: a re-dispatched
job always completes, so the coordinator converges after at most one
extra execution per shard. The empty plan is inert, mirroring
:class:`~repro.faults.plan.FaultPlan`: no stream is touched and the
dist runner behaves as if this module did not exist.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Mapping

from repro.obs.fields import check_known, load_object
from repro.sim.rng import RngRegistry

#: A chaos plan file's keys → their JSON kinds (see
#: :mod:`repro.obs.fields`).
_CHAOS_SCHEMA = {
    "seed": "int", "kill_prob": "number", "duplicate_prob": "number",
    "delay_mean_s": "number", "first_attempt_only": "bool",
}


@dataclass(frozen=True, slots=True, kw_only=True)
class CoordinatorChaos:
    """Declarative chaos for the coordinator/worker runner (kw-only).

    The plan rides to worker processes beside each claimed job, so it
    is plain data under the same serialization discipline as
    :class:`~repro.faults.plan.FaultPlan` (repro-lint RPR007: no
    callables, handles, or lambda defaults).

    Knobs
    -----
    seed:
        Master seed for the per-decision RNG streams
        (``dist.chaos:<job_id>#a<attempt>``).
    kill_prob:
        Probability that the worker executing a job exits hard
        (``os._exit``) after computing the result but *before* sending
        it — the worst-case loss: work done, nothing delivered.
    duplicate_prob:
        Probability that a successful result envelope is sent twice
        (the coordinator must discard the second copy by shard index).
    delay_mean_s:
        Mean extra wall-clock delay (exponential) inserted before a
        result is sent, exercising lease/steal timing windows.
    first_attempt_only:
        Restrict kills to ``attempt == 0`` so every re-dispatched job
        completes (termination guarantee). Disable only in tests that
        bound attempts themselves.
    """

    seed: int = 0
    kill_prob: float = 0.0
    duplicate_prob: float = 0.0
    delay_mean_s: float = 0.0
    first_attempt_only: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.kill_prob <= 1.0:
            raise ValueError("kill_prob must be in [0, 1]")
        if not 0.0 <= self.duplicate_prob <= 1.0:
            raise ValueError("duplicate_prob must be in [0, 1]")
        if self.delay_mean_s < 0:
            raise ValueError("delay_mean_s must be non-negative")

    @property
    def is_empty(self) -> bool:
        """True when no decision can ever fire (the inert default)."""
        return (self.kill_prob == 0.0
                and self.duplicate_prob == 0.0
                and self.delay_mean_s == 0.0)

    def variant(self, **overrides: object) -> "CoordinatorChaos":
        """A copy with some fields replaced (sweep helper)."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # JSON plan files and hashing (the CLI --chaos format)
    # ------------------------------------------------------------------

    def to_jsonable(self) -> dict[str, object]:
        """Plain-JSON dict (stable field order)."""
        return {spec.name: getattr(self, spec.name)
                for spec in fields(self)}

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, object]
                      ) -> "CoordinatorChaos":
        """Inverse of :meth:`to_jsonable`, checked key by key.

        Absent keys keep their defaults, present ones must have their
        exact JSON kind, and unknown keys are rejected (one-line
        ``ValueError``; see :func:`repro.obs.fields.check_known`).
        """
        return cls(**check_known(payload, _CHAOS_SCHEMA, "CoordinatorChaos"))

    @classmethod
    def from_json_file(cls, path: str | Path) -> "CoordinatorChaos":
        """Load a plan from a JSON file (``adprefetch --chaos plan.json``)."""
        return load_object(path, cls.from_jsonable)

    def digest(self) -> str:
        """Content hash of the plan (sha256 over sorted JSON)."""
        payload = json.dumps(self.to_jsonable(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True, slots=True, kw_only=True)
class ChaosDecision:
    """What chaos does to one ``(job, attempt)`` execution."""

    kill: bool = False
    duplicate: bool = False
    delay_s: float = 0.0


def chaos_decision(plan: CoordinatorChaos | None, job_id: str,
                   attempt: int) -> ChaosDecision:
    """The seeded chaos decision for one job attempt.

    A pure function of ``(plan, job_id, attempt)``: the decision stream
    is named after both, so neither worker scheduling nor retry
    interleaving changes what chaos does — rerunning the same chaos
    plan kills the same attempts and duplicates the same results.
    """
    if plan is None or plan.is_empty:
        return ChaosDecision()
    registry = RngRegistry(plan.seed)
    rng = registry.stream(f"dist.chaos:{job_id}#a{attempt}")
    kill = bool(rng.random() < plan.kill_prob)
    if plan.first_attempt_only and attempt > 0:
        kill = False
    duplicate = bool(rng.random() < plan.duplicate_prob)
    delay_s = (float(rng.exponential(plan.delay_mean_s))
               if plan.delay_mean_s > 0 else 0.0)
    return ChaosDecision(kill=kill, duplicate=duplicate, delay_s=delay_s)
