"""repro.dist — coordinator/worker distributed shard runner.

The :class:`repro.runner.Runner`'s one parallel executor: a
**coordinator** that dispatches
:class:`~repro.experiments.harness.ShardJob`\\ s to worker processes
over a pluggable :class:`~repro.dist.transport.Transport`, with
lease-based work-stealing, heartbeat-renewed leases and
heartbeat-silence retry, bounded requeue on worker loss, and
duplicate-result discard — all without changing a single merged bit:
shard execution is a pure function of the job (repro-lint RPR006), so
a dropped worker is just a re-executed pure function.

Layering (modelled on a coordinator-core / coordinator-node split):

* :mod:`~repro.dist.protocol` — the versioned wire contract: frozen
  keyword-only message dataclasses, all JSON-round-trippable.
* :mod:`~repro.dist.transport` — where envelopes travel: a
  ``multiprocessing.Manager`` queue backend today, with the seam
  documented for a socket/multi-host backend.
* :mod:`~repro.dist.worker` — the worker loop: claim → execute →
  stream :class:`~repro.obs.live.ShardBeat`\\ s on the control
  channel → deliver.
* :mod:`~repro.dist.coordinator` — dispatch, leases, retries, and the
  deterministic shard-index-ordered result fold.

Every ``Runner(config, parallelism=N)`` run with N > 1 effective
workers uses it (``adprefetch ... --jobs N``), as does any run with a
:class:`repro.faults.CoordinatorChaos` plan (``--chaos plan.json``),
even at one worker.
See DESIGN.md §13 for the lease/steal/retry state machine and the
bit-identity argument.
"""

from .coordinator import Coordinator, DistError, DistStats
from .protocol import (
    PROTOCOL_VERSION,
    JobAck,
    JobEnvelope,
    JobNack,
    ResultEnvelope,
    WorkerBeat,
    WorkerHello,
    message_from_jsonable,
)
from .transport import ManagerTransport, Transport, WorkerEndpoint

__all__ = [
    "Coordinator",
    "DistError",
    "DistStats",
    "JobAck",
    "JobEnvelope",
    "JobNack",
    "ManagerTransport",
    "PROTOCOL_VERSION",
    "ResultEnvelope",
    "Transport",
    "WorkerBeat",
    "WorkerEndpoint",
    "WorkerHello",
    "message_from_jsonable",
]
