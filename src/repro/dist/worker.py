"""The worker loop: claim a job, execute the shard, deliver the result.

A worker is deliberately thin: all simulation work goes through
:func:`repro.runner.run_shard`, the same entry point the in-process
loop uses — so a shard computes bit-for-bit the same result wherever
it runs, and a crashing shard writes the same flight-recorder
postmortem via :func:`repro.obs.flightrec.capture_shard_crash`. Live
telemetry (:class:`~repro.obs.live.ShardBeat` streams) goes out over
this worker's own endpoint, on the control channel beside acks and
results.

Failure semantics:

* A shard that **raises** is an orderly failure: the worker sends a
  :class:`~repro.dist.protocol.JobNack` (the crash postmortem is
  already on disk) and keeps claiming.
* A worker that **dies** (chaos ``os._exit``, OOM kill, SIGKILL) sends
  nothing; the coordinator infers the loss from process death and
  heartbeat silence and re-dispatches the lease.

Chaos (:class:`repro.faults.CoordinatorChaos`) is evaluated *here*, on
the worker, after the result is computed — kills model the worst case
(work done, nothing delivered), duplicates exercise the coordinator's
discard-by-shard-index, and delays widen the steal window. Every
decision is a pure function of ``(plan, job_id, attempt)``, so chaos
runs replay exactly.
"""

from __future__ import annotations

import os
import time

from repro.faults.chaos import CoordinatorChaos, chaos_decision
from repro.obs.live import WorkerLiveSetup

from .protocol import JobAck, JobEnvelope, JobNack, ResultEnvelope, WorkerBeat, WorkerHello
from .transport import STOP, WorkerEndpoint

#: Exit code of a chaos-killed worker (distinguishable from crashes).
CHAOS_EXIT_CODE = 17

#: How long one claim call blocks before the worker idles/beats.
CLAIM_TIMEOUT_S = 0.25


def worker_main(endpoint: WorkerEndpoint, worker_id: str, *,
                trace: bool = False,
                live: WorkerLiveSetup | None = None,
                chaos: CoordinatorChaos | None = None,
                idle_beat_interval_s: float = 1.0) -> None:
    """Run one worker until a :data:`~repro.dist.transport.STOP` arrives.

    The process entry point the coordinator spawns (top-level, so it
    pickles under any ``multiprocessing`` start method). ``trace`` is
    the run-wide trace flag; ``live`` is the
    :class:`~repro.obs.live.WorkerLiveSetup` that carries the beat
    transport (over ``endpoint``), the flight-recorder ring size, and
    the postmortem directory.
    """
    from repro.runner import run_shard

    endpoint.send(WorkerHello(worker_id=worker_id, pid=os.getpid()))
    jobs_done = 0
    last_idle_beat = -float("inf")
    while True:
        item = endpoint.claim(CLAIM_TIMEOUT_S)
        if item is None:
            now = time.monotonic()
            if now - last_idle_beat >= idle_beat_interval_s:
                endpoint.send(WorkerBeat(worker_id=worker_id,
                                         jobs_done=jobs_done))
                last_idle_beat = now
            continue
        envelope, job = item
        if envelope == STOP:
            return
        assert isinstance(envelope, JobEnvelope)
        endpoint.send(JobAck(worker_id=worker_id, job_id=envelope.job_id,
                             shard_index=envelope.shard_index,
                             attempt=envelope.attempt))
        started = time.perf_counter()
        try:
            result = run_shard(job, trace=trace, live=live)
        except Exception as exc:
            # run_shard already wrote the crash postmortem.
            endpoint.send(JobNack(
                worker_id=worker_id, job_id=envelope.job_id,
                shard_index=envelope.shard_index, attempt=envelope.attempt,
                reason=f"{type(exc).__name__}: {exc}"))
            continue
        decision = chaos_decision(chaos, envelope.job_id, envelope.attempt)
        if decision.delay_s > 0:
            time.sleep(decision.delay_s)
        if decision.kill:
            # The worst-case loss: the shard is fully computed, the
            # worker dies before a single byte of result is sent.
            os._exit(CHAOS_EXIT_CODE)
        reply = ResultEnvelope(
            worker_id=worker_id, job_id=envelope.job_id,
            shard_index=envelope.shard_index, attempt=envelope.attempt,
            elapsed_s=time.perf_counter() - started)
        endpoint.send(reply, result)
        if decision.duplicate:
            endpoint.send(reply, result)
        jobs_done += 1
