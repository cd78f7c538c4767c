"""The worker loop: read a job, execute the shard, deliver the result.

A worker is deliberately thin: all simulation work goes through
:func:`repro.runner.run_shard`, the same entry point the in-process
loop uses — so a shard computes bit-for-bit the same result wherever
it runs, and a crashing shard writes the same flight-recorder
postmortem via :func:`repro.obs.flightrec.capture_shard_crash`. Live
telemetry (:class:`~repro.obs.live.ShardBeat` streams) goes out over
this worker's own pipe, beside its results.

The pipe discipline: the worker sends
:class:`~repro.dist.protocol.WorkerReady` at start and after its last
send for each job, and writes nothing else until the next job
arrives. The coordinator only sends to a worker whose latest message
was ``WorkerReady``, so neither side ever blocks writing to a peer
that is itself blocked writing.

Failure semantics:

* A shard that **raises** is an orderly failure: the worker sends a
  :class:`~repro.dist.protocol.JobNack` (the crash postmortem is
  already on disk) and reports ready again.
* A worker that **dies** (chaos ``os._exit``, OOM kill, SIGKILL) sends
  nothing; the coordinator sees its process sentinel or pipe EOF and
  re-dispatches the shard.
* A worker whose **coordinator is gone** exits: it waits on its pipe
  and on the parent process's sentinel, and returns on either EOF or
  parent death. The sentinel matters under ``fork``, where a sibling
  forked later inherits the coordinator's end of this pipe and so
  keeps EOF from arriving.

Chaos (:class:`repro.faults.CoordinatorChaos`) is evaluated *here*, on
the worker, after the result is computed — kills model the worst case
(work done, nothing delivered), duplicates exercise the coordinator's
discard-by-shard-index, and delays widen the lease window. Every
decision is a pure function of ``(plan, job_id, attempt)``, so chaos
runs replay exactly.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import replace
from multiprocessing.connection import Connection, wait

from repro.faults.chaos import CoordinatorChaos, chaos_decision
from repro.obs.live import CallbackTransport, WorkerLiveSetup

from .protocol import JobEnvelope, JobNack, ResultEnvelope, WorkerReady

#: Exit code of a chaos-killed worker (distinguishable from crashes).
CHAOS_EXIT_CODE = 17


def worker_main(conn: Connection, worker_id: str, *, peer: Connection,
                trace: bool = False,
                live: WorkerLiveSetup | None = None,
                chaos: CoordinatorChaos | None = None) -> None:
    """Run one worker until its pipe closes or its coordinator dies.

    The process entry point the coordinator spawns (top-level, so it
    pickles under any ``multiprocessing`` start method). ``peer`` is
    the coordinator's end of ``conn``, which a forked child inherits
    and closes here so the coordinator's own close reaches it as EOF.
    ``trace`` is the run-wide trace flag; ``live`` carries the beat
    interval and the postmortem directory — its beats are rewired onto
    ``conn``.
    """
    from repro.runner import run_shard

    peer.close()
    parent = multiprocessing.parent_process()
    assert parent is not None, "worker_main runs in a child process"

    def send(message: object, payload: object = None) -> None:
        try:
            conn.send((message, payload))
        except (OSError, ValueError):
            pass  # coordinator gone: the next wait sees it and exits

    def orphaned(timeout_s: float) -> bool:
        """Wait up to ``timeout_s``; True once the coordinator died."""
        return bool(wait([parent.sentinel], timeout_s))

    if live is not None:
        live = replace(live, transport=CallbackTransport(send))
    ready = WorkerReady(worker_id=worker_id, pid=os.getpid())
    send(ready)
    while True:
        if parent.sentinel in wait([conn, parent.sentinel]):
            return  # the coordinator died
        try:
            envelope, job = conn.recv()
        except (EOFError, OSError):
            return  # the coordinator closed the pipe: orderly exit
        assert isinstance(envelope, JobEnvelope)
        started = time.perf_counter()
        try:
            result = run_shard(job, trace=trace, live=live)
        except Exception as exc:
            # run_shard already wrote the crash postmortem.
            send(JobNack(
                worker_id=worker_id, job_id=envelope.job_id,
                shard_index=envelope.shard_index, attempt=envelope.attempt,
                reason=f"{type(exc).__name__}: {exc}"))
            send(ready)
            continue
        decision = chaos_decision(chaos, envelope.job_id, envelope.attempt)
        if decision.delay_s > 0 and orphaned(decision.delay_s):
            return
        if decision.kill:
            # The worst-case loss: the shard is fully computed, the
            # worker dies before a single byte of result is sent.
            os._exit(CHAOS_EXIT_CODE)
        reply = ResultEnvelope(
            worker_id=worker_id, job_id=envelope.job_id,
            shard_index=envelope.shard_index, attempt=envelope.attempt,
            elapsed_s=time.perf_counter() - started)
        send(reply, result)
        if decision.duplicate:
            send(reply, result)
        send(ready)
