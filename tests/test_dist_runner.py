"""Tests for the repro.dist coordinator/worker runner.

The contract under test: a coordinator run — any ``parallelism`` above
one, or any chaos plan, including seeded worker-kill /
duplicate-result chaos at ``parallelism=1`` — merges **bit-identical**
to the in-process ``parallelism=1`` run; a killed worker's shards are
re-dispatched with a ``lost`` postmortem written; a shard that keeps
beating keeps its lease; and a crashing shard produces the same
flight-recorder postmortem in-process and on a coordinator worker.
"""

from __future__ import annotations

import time
from collections import deque

import pytest

from repro.cli import main
from repro.dist.coordinator import (
    Coordinator,
    DistError,
    _ShardState,
    _WorkerHandle,
)
from repro.dist.protocol import (
    JobAck,
    JobEnvelope,
    JobNack,
    ResultEnvelope,
    WorkerBeat,
    WorkerHello,
)
from repro.dist.transport import STOP, Transport
from repro.faults.chaos import CoordinatorChaos
from repro.obs.ledger import snapshot_digest
from repro.obs.live import LiveAggregator, LiveOptions, ShardBeat
from repro.runner import Runner, run_shard


def _dist_live(tmp_path):
    """Quiet live options with postmortems under the test tmp dir."""
    return LiveOptions(postmortem_dir=tmp_path / "postmortems")


def _jobs(tiny_config, tiny_world, system="headline", shards=3):
    runner = Runner(tiny_config, shards=shards, world=tiny_world)
    return runner._jobs(system, tiny_world)


def _break(job):
    """Make ``job`` raise inside the realtime engine, wherever it runs."""
    job.timelines = {uid: "not-a-timeline" for uid in job.timelines}


# ---------------------------------------------------------------------
# Bit-identity: coordinator vs in-process loop, clean and under chaos
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def serial_baseline(tiny_config, tiny_world):
    """The in-process run every coordinator run must reproduce."""
    return Runner(tiny_config, parallelism=1, shards=3,
                  world=tiny_world).run("headline")


def test_dist_is_bit_identical_to_serial_pool(tiny_config, tiny_world,
                                              serial_baseline, tmp_path):
    result = Runner(tiny_config, parallelism=2, shards=3,
                    world=tiny_world,
                    obs=None).run("headline")
    assert snapshot_digest(result.metrics) == snapshot_digest(
        serial_baseline.metrics)
    assert result.comparison == serial_baseline.comparison
    assert result.prefetch == serial_baseline.prefetch
    assert result.realtime == serial_baseline.realtime
    stats = result.dist
    assert stats is not None
    assert stats.workers == 2
    assert stats.attempts == 3
    assert stats.workers_lost == 0
    # Dist bookkeeping must never leak into the merged snapshot.
    assert not any(name.startswith("dist.") for name in
                   result.metrics.counters)


def test_chaos_kills_requeue_and_stay_bit_identical(
        tiny_config, tiny_world, serial_baseline):
    """Every shard's worker dies once after computing the result; the
    coordinator re-dispatches each shard and the merged run must not
    move by a single bit."""
    chaos = CoordinatorChaos(seed=11, kill_prob=1.0)
    result = Runner(tiny_config, parallelism=2, shards=3,
                    world=tiny_world, chaos=chaos).run("headline")
    assert snapshot_digest(result.metrics) == snapshot_digest(
        serial_baseline.metrics)
    assert result.comparison == serial_baseline.comparison
    stats = result.dist
    assert stats is not None
    assert stats.workers_lost >= 1
    assert stats.requeues == 3              # one steal per killed shard
    # Each killed worker's shard left a `lost` postmortem behind.
    lost = [p for p in result.postmortems if p.name.endswith("-lost.json")]
    assert lost, "worker loss must write lost postmortems"
    assert all(p.is_file() for p in result.postmortems)


def test_chaos_duplicates_are_discarded_by_shard_index(
        tiny_config, tiny_world, serial_baseline):
    chaos = CoordinatorChaos(seed=5, duplicate_prob=1.0)
    result = Runner(tiny_config, parallelism=2, shards=3,
                    world=tiny_world, chaos=chaos).run("headline")
    assert snapshot_digest(result.metrics) == snapshot_digest(
        serial_baseline.metrics)
    assert result.comparison == serial_baseline.comparison
    stats = result.dist
    assert stats is not None
    assert stats.duplicates_discarded == 3  # every result sent twice


def test_chaos_plan_runs_through_coordinator_at_one_worker(
        tiny_config, tiny_world, serial_baseline):
    """A chaos plan is never silently dropped: even at parallelism=1 the
    run goes through the coordinator (a kill needs a separate process),
    the kills bite, and the merge still equals the plain serial run."""
    chaos = CoordinatorChaos(seed=11, kill_prob=1.0)
    result = Runner(tiny_config, parallelism=1, shards=3,
                    world=tiny_world, chaos=chaos).run("headline")
    assert snapshot_digest(result.metrics) == snapshot_digest(
        serial_baseline.metrics)
    assert result.comparison == serial_baseline.comparison
    assert result.prefetch == serial_baseline.prefetch
    assert result.realtime == serial_baseline.realtime
    stats = result.dist
    assert stats is not None
    assert stats.workers == 1
    assert stats.workers_lost >= 1
    assert serial_baseline.dist is None     # the plain run stayed in-process


def test_worker_beats_reach_the_aggregator_on_the_control_channel(
        tiny_config, tiny_world, tmp_path):
    """Beats share the coordinator's one queue: every shard's final beat
    lands before its result, so the plane sees the whole run."""
    jobs = _jobs(tiny_config, tiny_world, system="realtime", shards=2)
    coordinator = Coordinator(
        jobs, workers=2, system="realtime", backend="event",
        live=LiveOptions(beat_interval_s=0.0,
                         postmortem_dir=tmp_path / "postmortems"))
    coordinator.run()
    assert coordinator.plane is not None
    snapshot = coordinator.plane.aggregator.snapshot()
    assert snapshot.done == 2 and snapshot.failed == 0
    assert snapshot.beats >= 4                  # hello + final per shard


def test_persistently_crashing_shard_exhausts_retries(
        tiny_config, tiny_world, tmp_path):
    jobs = _jobs(tiny_config, tiny_world, system="realtime", shards=2)
    _break(jobs[1])                         # detonates inside execute_shard
    coordinator = Coordinator(jobs, workers=2,
                              live=_dist_live(tmp_path),
                              system="realtime", backend="event",
                              max_attempts=2)
    with pytest.raises(DistError, match="shard 1 failed after 2"):
        coordinator.run()
    assert coordinator.stats.nacks >= 2


# ---------------------------------------------------------------------
# Crash-capture parity: in-process vs coordinator worker
# ---------------------------------------------------------------------


def test_crash_postmortem_renders_identically_across_executors(
        tiny_config, tiny_world, tmp_path, capsys):
    """The in-process loop and a coordinator worker share ``run_shard``
    and the ``capture_shard_crash`` helper, so ``obs postmortem show``
    must render byte-identical reports for the same crashing shard."""
    from repro.obs.live import CallbackTransport, WorkerLiveSetup

    jobs = _jobs(tiny_config, tiny_world, system="realtime", shards=2)
    _break(jobs[1])

    serial_dir = tmp_path / "serial-postmortems"
    setup = WorkerLiveSetup(transport=CallbackTransport(lambda beat: None),
                            beat_interval_s=0.0, ring_size=32,
                            postmortem_dir=serial_dir,
                            system="realtime", backend="event")
    with pytest.raises(AttributeError, match="window"):
        run_shard(jobs[1], live=setup)

    dist_dir = tmp_path / "dist" / "postmortems"
    coordinator = Coordinator(list(jobs), workers=1,
                              live=LiveOptions(postmortem_dir=dist_dir),
                              system="realtime", backend="event",
                              max_attempts=1)
    with pytest.raises(DistError):
        coordinator.run()

    serial_path = serial_dir / "shard-001-crash.json"
    dist_path = dist_dir / "shard-001-crash.json"
    assert serial_path.is_file() and dist_path.is_file()
    assert main(["obs", "postmortem", "show", str(serial_path)]) == 0
    serial_text = capsys.readouterr().out
    assert main(["obs", "postmortem", "show", str(dist_path)]) == 0
    dist_text = capsys.readouterr().out
    assert serial_text == dist_text
    assert "shard 1/2 [crash]" in serial_text


# ---------------------------------------------------------------------
# Coordinator unit behaviour (leases, steals, stale traffic)
# ---------------------------------------------------------------------


class _ListTransport(Transport):
    """In-memory transport for single-threaded coordinator unit tests."""

    def __init__(self):
        self.offers = []
        self.control = deque()

    def offer(self, envelope, job):
        self.offers.append((envelope, job))

    def offer_stop(self):
        self.offers.append((STOP, None))

    def collect(self, timeout_s):
        return self.control.popleft() if self.control else None

    def worker_endpoint(self):
        raise NotImplementedError("unit transport has no worker side")


def _unit_coordinator(tiny_config, tiny_world, tmp_path, shards=2,
                      **kwargs):
    jobs = _jobs(tiny_config, tiny_world, system="realtime", shards=shards)
    transport = _ListTransport()
    coordinator = Coordinator(jobs, workers=1, transport=transport,
                              live=_dist_live(tmp_path), **kwargs)
    for job in jobs:
        state = _ShardState(job=job, job_id=f"shard-{job.shard_index:03d}")
        coordinator._shards[job.shard_index] = state
        coordinator._offer(state)
    return coordinator, transport


def test_expired_lease_is_requeued_with_next_attempt(
        tiny_config, tiny_world, tmp_path):
    coordinator, transport = _unit_coordinator(tiny_config, tiny_world,
                                               tmp_path, lease_s=120.0)
    state = coordinator._shards[0]
    coordinator._handle((JobAck(worker_id="w0", job_id="shard-000",
                                shard_index=0, attempt=0), None))
    assert state.worker_id == "w0"
    state.deadline = float("-inf")          # lease expires
    coordinator._check_leases()
    assert state.attempt == 1
    assert coordinator.stats.requeues == 1
    assert coordinator.stats.stall_steals == 1     # it had an owner
    envelopes = [e for e, _ in transport.offers
                 if isinstance(e, JobEnvelope) and e.shard_index == 0]
    assert [e.attempt for e in envelopes] == [0, 1]


def test_beating_shard_keeps_its_lease_past_the_deadline(
        tiny_config, tiny_world, tmp_path):
    """A shard beat on the control channel renews the lease: a healthy
    shard running past ``lease_s`` is not stolen, a silent one is."""
    coordinator, transport = _unit_coordinator(tiny_config, tiny_world,
                                               tmp_path, lease_s=120.0)
    for index in (0, 1):
        coordinator._handle((JobAck(worker_id=f"w{index}",
                                    job_id=f"shard-{index:03d}",
                                    shard_index=index, attempt=0), None))
        coordinator._shards[index].deadline = float("-inf")  # both expired
    transport.control.append(
        (ShardBeat(shard_index=0, n_shards=2, seq=3, watermark_s=1.0), None))
    coordinator._handle(transport.collect(0.0))
    coordinator._check_leases()
    assert coordinator._shards[0].attempt == 0      # beating: kept
    assert coordinator._shards[0].worker_id == "w0"
    assert coordinator._shards[1].attempt == 1      # silent: requeued
    assert coordinator.stats.requeues == 1


def test_stall_event_steals_the_lease_early(tiny_config, tiny_world,
                                            tmp_path):
    from repro.obs.live import StragglerEvent

    coordinator, _ = _unit_coordinator(tiny_config, tiny_world, tmp_path)
    coordinator._handle((JobAck(worker_id="w0", job_id="shard-001",
                                shard_index=1, attempt=0), None))
    for index in (0, 1):                    # shard 0 is still queued
        coordinator._hooks.on_straggler(
            StragglerEvent(shard_index=index, kind="stall", silence_s=99.0))
    coordinator._hooks.on_straggler(
        StragglerEvent(shard_index=1, kind="lag"))    # lag never steals
    coordinator._steal_stalled()
    assert coordinator._shards[1].attempt == 1
    assert coordinator._shards[0].attempt == 0
    assert coordinator.stats.stall_steals == 1


def _ack(coordinator, worker_id, index):
    coordinator._handle((JobAck(worker_id=worker_id,
                                job_id=f"shard-{index:03d}",
                                shard_index=index, attempt=0), None))


def _shard_beat(coordinator, index):
    coordinator._handle((ShardBeat(shard_index=index, n_shards=3, seq=1,
                                   watermark_s=1.0), None))


def test_queued_shards_outwait_the_lease_behind_a_busy_worker(
        tiny_config, tiny_world, tmp_path):
    """More shards than workers: a shard queued behind a busy worker has
    no lease clock, so waiting past ``lease_s`` costs no re-dispatch.
    Only a shard left unclaimed for a lease while a worker idles (its
    claim was lost before the ack) is requeued."""
    lease_s = 0.2
    coordinator, _ = _unit_coordinator(tiny_config, tiny_world, tmp_path,
                                       shards=3, lease_s=lease_s)
    coordinator._handles["w0"] = _WorkerHandle(worker_id="w0", process=None)
    shards = coordinator._shards
    for index in (0, 1):                    # w0 runs shards 0, 1 in turn
        _ack(coordinator, "w0", index)
        time.sleep(1.5 * lease_s)
        _shard_beat(coordinator, index)
        coordinator._check_leases()
        shards[index].done = True
    assert [s.attempt for s in shards.values()] == [0, 0, 0]
    assert coordinator.stats.requeues == 0
    # Shard 2's claim went missing: w0 finds the queue empty and idles.
    coordinator._handle((WorkerBeat(worker_id="w0"), None))
    coordinator._check_leases()
    assert shards[2].attempt == 0           # the idle report starts a lease
    time.sleep(1.5 * lease_s)
    coordinator._check_leases()
    assert shards[2].attempt == 1
    assert coordinator.stats.requeues == 1
    assert coordinator.stats.stall_steals == 0      # nobody held it


def test_idle_report_is_disarmed_once_every_worker_is_busy(
        tiny_config, tiny_world, tmp_path):
    """An idle report that crossed an offer arms the queued shard; the
    next claim that leaves no worker idle disarms it again."""
    lease_s = 0.2
    coordinator, _ = _unit_coordinator(tiny_config, tiny_world, tmp_path,
                                       shards=3, lease_s=lease_s)
    for worker_id in ("w0", "w1"):
        coordinator._handles[worker_id] = _WorkerHandle(
            worker_id=worker_id, process=None)
    _ack(coordinator, "w0", 0)
    coordinator._handle((WorkerBeat(worker_id="w1"), None))
    _ack(coordinator, "w1", 1)              # both busy; shard 2 queued
    time.sleep(1.5 * lease_s)
    for index in (0, 1):
        _shard_beat(coordinator, index)
    coordinator._check_leases()
    assert [s.attempt for s in coordinator._shards.values()] == [0, 0, 0]
    assert coordinator.stats.requeues == 0


def test_stale_acks_nacks_and_duplicate_results_are_ignored(
        tiny_config, tiny_world, tmp_path):
    coordinator, _ = _unit_coordinator(tiny_config, tiny_world, tmp_path)
    state = coordinator._shards[0]
    state.attempt = 1                       # shard was already re-dispatched
    coordinator._handle((JobAck(worker_id="w9", job_id="shard-000",
                                shard_index=0, attempt=0), None))
    assert state.worker_id == ""            # stale claim ignored
    coordinator._handle((JobNack(worker_id="w9", job_id="shard-000",
                                 shard_index=0, attempt=0,
                                 reason="stale"), None))
    assert state.attempt == 1               # stale nack does not requeue
    result = run_shard(state.job)
    coordinator._handle_result(
        ResultEnvelope(worker_id="w1", job_id="shard-000", shard_index=0,
                       attempt=1), result)
    assert state.done
    coordinator._handle_result(
        ResultEnvelope(worker_id="w9", job_id="shard-000", shard_index=0,
                       attempt=0), result)
    assert coordinator.stats.duplicates_discarded == 1
    assert coordinator._results[0] is result


def test_malformed_result_payload_requeues_the_shard(
        tiny_config, tiny_world, tmp_path):
    coordinator, _ = _unit_coordinator(tiny_config, tiny_world, tmp_path)
    coordinator._handle_result(
        ResultEnvelope(worker_id="w0", job_id="shard-000", shard_index=0,
                       attempt=0), {"not": "a shard result"})
    assert coordinator._shards[0].attempt == 1
    assert not coordinator._shards[0].done


def test_protocol_version_mismatch_is_rejected(tiny_config, tiny_world,
                                               tmp_path):
    coordinator, _ = _unit_coordinator(tiny_config, tiny_world, tmp_path)
    with pytest.raises(DistError, match="protocol"):
        coordinator._handle((WorkerHello(worker_id="w0", protocol=99),
                             None))


def test_retry_budget_exhaustion_raises_dist_error(tiny_config, tiny_world,
                                                   tmp_path):
    coordinator, _ = _unit_coordinator(tiny_config, tiny_world, tmp_path,
                                       max_attempts=1)
    with pytest.raises(DistError, match="shard 0 failed after 1"):
        coordinator._requeue(coordinator._shards[0], "boom")


# ---------------------------------------------------------------------
# Aggregator re-arm on re-dispatch
# ---------------------------------------------------------------------


def test_reset_shard_rearms_watchdog_flags():
    clock = [0.0]
    aggregator = LiveAggregator(2, LiveOptions(stall_after_s=5.0),
                                clock=lambda: clock[0])
    aggregator.ingest(ShardBeat(shard_index=0, n_shards=2, seq=0,
                                watermark_s=1.0, failed=True))
    clock[0] = 10.0
    stalled = {e.shard_index for e in aggregator.check()
               if e.kind == "stall"}
    assert stalled == {0}                   # shard 1 never started: waiting
    view = aggregator.view(0)
    assert view.failed
    aggregator.reset_shard(0)
    view = aggregator.view(0)
    assert not view.failed and not view.stalled and not view.done
    # The re-dispatched shard waits for a worker: no re-flag until it
    # beats again and then falls silent.
    clock[0] = 20.0
    assert aggregator.check() == []
    aggregator.ingest(ShardBeat(shard_index=0, n_shards=2, seq=1,
                                watermark_s=1.0))
    clock[0] = 26.0
    assert [e.shard_index for e in aggregator.check()
            if e.kind == "stall"] == [0]
    aggregator.reset_shard(99)              # unknown index: no-op


# ---------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------


def test_cli_headline_runs_dist_executor(tmp_path, capsys):
    code = main(["headline", "--users", "40", "--days", "4",
                 "--train-days", "2", "--shards", "2", "--jobs", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[dist: " in out
    assert "energy savings" in out
