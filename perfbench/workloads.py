"""The benchmark's pinned workloads (plain data; no program imports).

Each workload is a batch job driven by a closed loop: one client, one
run at a time, each run in a fresh process. Backends are pinned per
workload so that each keeps its layer mix when the program's default
backend changes. See ``perfbench/README.md`` for why each exists and
which layers it is meant to move.
"""

from __future__ import annotations

import dataclasses

DEFAULT_SEED = 7


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named, pinned program input shape."""

    name: str
    why: str
    #: ``"runner"``: ``Runner(...).run("headline")``;
    #: ``"e9"``: ``run_experiment("e9", ...)``.
    kind: str
    backend: str
    n_users: int
    n_days: int
    train_days: int
    shards: int | None = None
    parallelism: int = 1
    #: ``repro.experiments.e13_faults.plan_for`` intensity (0 = no faults).
    fault_intensity: float = 0.0

    @property
    def headline_runs(self) -> int:
        """``Runner.run("headline")`` calls per run: E9 makes one per preset."""
        return 3 if self.kind == "e9" else 1

    @property
    def replays(self) -> int:
        """Times a run replays the test window: prefetch and realtime per
        headline, plus E9's standalone realtime run. Fixed by the workload,
        so a program that memoizes a replay runs faster per slot."""
        return 2 * self.headline_runs + (1 if self.kind == "e9" else 0)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="headline-batched",
        why="single-process batched hot path: server planning, sell_now, "
            "client SDK and realtime baseline do the work; executor and "
            "world cache do almost none",
        kind="runner", backend="batched", shards=1, parallelism=1,
        n_users=100, n_days=4, train_days=3),
    Workload(
        name="e9-event",
        why="paper Table 2 sweep on the event engine: realtime baseline "
            "runs 4x on one shared world and Exchange.eligible dominates",
        kind="e9", backend="event", parallelism=1,
        n_users=16, n_days=4, train_days=3),
    Workload(
        name="sharded-faults",
        why="8 shards on 2 worker processes under 0.2-intensity faults: "
            "executor, merge, server rescue and client retry paths are live",
        kind="runner", backend="batched", shards=8, parallelism=2,
        n_users=160, n_days=4, train_days=3, fault_intensity=0.2),
)}
