"""Fault plans: the declarative "what breaks" half of :mod:`repro.faults`.

A :class:`FaultPlan` composes the failure modes the mobile-ad stack must
survive — per-transfer loss, per-user connectivity outages, scheduled
server blackouts, sync latency inflation, and device churn — together
with the knobs of the client's retry/backoff response. The plan is a
frozen keyword-only dataclass so it can ride inside
:class:`repro.experiments.config.ExperimentConfig`, load from a strictly
checked JSON file (``adprefetch run e13 --faults plan.json``), and hash
into the run record: two runs with the same ``(config, seed, plan)``
triple are bit-identical at any ``--jobs``.

The *empty* plan (all intensities zero) is inert by construction: no
injector is built, no RNG stream is touched, and every experiment
reproduces its pre-fault results bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Mapping

from repro.obs.fields import check_known, load_object

#: A plan file's keys → their JSON kinds (see :mod:`repro.obs.fields`).
_PLAN_SCHEMA = {
    "loss_prob": "number", "outage_rate_per_day": "number",
    "outage_duration_s": "number", "server_outages": "[[number]]",
    "latency_mean_s": "number", "churn_prob": "number",
    "max_retries": "int", "backoff_base_s": "number",
    "backoff_cap_s": "number", "backoff_jitter": "number",
    "failed_attempt_bytes": "int",
}


@dataclass(frozen=True, slots=True, kw_only=True)
class FaultPlan:
    """Composable fault-injection configuration (all knobs keyword-only).

    A plan travels inside :class:`~repro.experiments.harness.ShardJob`
    to worker processes, so it is a serialization root checked by
    ``repro-lint`` RPR007: every field must stay statically picklable
    plain data (no callables, handles, or lambda defaults).

    Injector intensities
    --------------------
    loss_prob:
        Probability that any single ad-system transfer attempt (sync,
        beacon, rescue or fallback fetch) is lost in flight.
    outage_rate_per_day:
        Mean connectivity outages per user per day (a per-user renewal
        process of no-coverage windows; zero disables).
    outage_duration_s:
        Mean duration of one connectivity outage window.
    server_outages:
        Scheduled ``(start_s, end_s)`` blackout windows (absolute sim
        time, seconds) during which the ad server/exchange is down:
        epoch planning is skipped and every server contact fails.
    latency_mean_s:
        Mean extra latency added to each successful sync download (the
        radio stays active for the extra time, charging honest energy).
    churn_prob:
        Probability that a user's device goes permanently dark at a
        uniform time during the trace (uninstalls, dead batteries).

    Resilience-policy knobs (how the client responds)
    -------------------------------------------------
    max_retries:
        Sync retry budget per epoch after the first failed attempt.
    backoff_base_s:
        First retry delay; doubles per failure (exponential backoff).
    backoff_cap_s:
        Upper bound on any single backoff wait.
    backoff_jitter:
        Jitter fraction: the wait is scaled by ``1 + jitter * u`` with
        ``u ~ U[0, 1)`` from the user's backoff stream.
    failed_attempt_bytes:
        Radio payload charged for a request that dies in flight (the
        attempt wakes the radio even when nothing useful arrives).
    """

    loss_prob: float = 0.0
    outage_rate_per_day: float = 0.0
    outage_duration_s: float = 600.0
    server_outages: tuple[tuple[float, float], ...] = ()
    latency_mean_s: float = 0.0
    churn_prob: float = 0.0
    max_retries: int = 4
    backoff_base_s: float = 2.0
    backoff_cap_s: float = 300.0
    backoff_jitter: float = 0.5
    failed_attempt_bytes: int = 200

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")
        if self.outage_rate_per_day < 0:
            raise ValueError("outage_rate_per_day must be non-negative")
        if self.outage_duration_s <= 0:
            raise ValueError("outage_duration_s must be positive")
        if not 0.0 <= self.churn_prob <= 1.0:
            raise ValueError("churn_prob must be in [0, 1]")
        if self.latency_mean_s < 0:
            raise ValueError("latency_mean_s must be non-negative")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_s <= 0 or self.backoff_cap_s <= 0:
            raise ValueError("backoff_base_s/backoff_cap_s must be positive")
        if self.backoff_jitter < 0:
            raise ValueError("backoff_jitter must be non-negative")
        if self.failed_attempt_bytes < 0:
            raise ValueError("failed_attempt_bytes must be non-negative")
        windows = tuple(tuple(float(edge) for edge in window)
                        for window in self.server_outages)
        previous_end = float("-inf")
        for window in windows:
            if len(window) != 2 or window[0] >= window[1]:
                raise ValueError(
                    f"server outage window {window!r} is not (start, end) "
                    "with start < end")
            if window[0] < previous_end:
                raise ValueError(
                    "server_outages must be sorted and non-overlapping")
            previous_end = window[1]
        object.__setattr__(self, "server_outages", windows)

    @property
    def is_empty(self) -> bool:
        """True when no injector can ever fire (the inert default plan)."""
        return (self.loss_prob == 0.0
                and self.outage_rate_per_day == 0.0
                and not self.server_outages
                and self.latency_mean_s == 0.0
                and self.churn_prob == 0.0)

    def variant(self, **overrides: object) -> "FaultPlan":
        """A copy with some fields replaced (sweep helper)."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # JSON plan files and hashing
    # ------------------------------------------------------------------

    def to_jsonable(self) -> dict[str, object]:
        """Plain-JSON dict (stable field order; tuples become lists)."""
        payload: dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "server_outages":
                value = [list(window) for window in value]
            payload[spec.name] = value
        return payload

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, object]) -> "FaultPlan":
        """Inverse of :meth:`to_jsonable`, checked key by key.

        Absent keys keep their defaults, present ones must have their
        exact JSON kind, and unknown keys are rejected (one-line
        ``ValueError``; see :func:`repro.obs.fields.check_known`).
        """
        kwargs = dict(check_known(payload, _PLAN_SCHEMA, "FaultPlan"))
        if "server_outages" in kwargs:
            kwargs["server_outages"] = tuple(
                tuple(window) for window in kwargs["server_outages"])
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "FaultPlan":
        """Load a plan from a JSON file (the CLI ``--faults`` format)."""
        return load_object(path, cls.from_jsonable)

    def digest(self) -> str:
        """Content hash of the plan (sha256 over sorted JSON).

        Recorded in the run record so two runs are comparable exactly
        when their ``(config, seed, plan)`` hashes agree.
        """
        payload = json.dumps(self.to_jsonable(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
