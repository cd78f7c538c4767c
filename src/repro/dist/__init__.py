"""repro.dist — coordinator/worker distributed shard runner.

The :class:`repro.runner.Runner`'s one parallel executor: a
**coordinator** that sends
:class:`~repro.experiments.harness.ShardJob`\\ s to worker processes,
one duplex ``multiprocessing.Pipe`` per worker, with beat-renewed
leases, bounded requeue on worker loss, and duplicate-result discard —
all without changing a single merged bit: shard execution is a pure
function of the job (repro-lint RPR006), so a dropped worker is just a
re-executed pure function.

Layering (modelled on a coordinator-core / coordinator-node split):

* :mod:`~repro.dist.protocol` — the versioned wire contract: frozen
  keyword-only message dataclasses, pickled over each worker's pipe.
* :mod:`~repro.dist.worker` — the worker loop: report ready → read a
  job → execute, streaming :class:`~repro.obs.live.ShardBeat`\\ s on
  the pipe → deliver → report ready.
* :mod:`~repro.dist.coordinator` — dispatch to ready workers, leases,
  loss detection, retries, and the deterministic shard-index-ordered
  result fold.

Every ``Runner(config, parallelism=N)`` run with N > 1 effective
workers uses it (``adprefetch ... --jobs N``), as does any run with a
:class:`repro.faults.CoordinatorChaos` plan (``--chaos plan.json``),
even at one worker.
See DESIGN.md §13 for the lease/retry state machine and the
bit-identity argument.
"""

from .coordinator import Coordinator, DistError, DistStats
from .protocol import (
    PROTOCOL_VERSION,
    JobEnvelope,
    JobNack,
    ResultEnvelope,
    WorkerReady,
)

__all__ = [
    "Coordinator",
    "DistError",
    "DistStats",
    "JobEnvelope",
    "JobNack",
    "PROTOCOL_VERSION",
    "ResultEnvelope",
    "WorkerReady",
]
