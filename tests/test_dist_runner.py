"""Tests for the repro.dist coordinator/worker runner.

The contract under test: a coordinator run — any ``parallelism`` above
one, or any chaos plan, including seeded worker-kill /
duplicate-result chaos at ``parallelism=1`` — merges **bit-identical**
to the in-process ``parallelism=1`` run; a killed worker's shards are
re-dispatched with a ``lost`` postmortem written, an expired lease's
with a ``stall`` one; a shard that keeps beating keeps its lease; a
worker outlives neither its pipe nor its coordinator; and a crashing
shard produces the same flight-recorder postmortem in-process and on a
coordinator worker, and no other.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.dist.coordinator import (
    Coordinator,
    DistError,
    _WorkerHandle,
)
from repro.dist.protocol import (
    JobNack,
    ResultEnvelope,
    WorkerReady,
)
from repro.faults.chaos import CoordinatorChaos
from repro.obs.flightrec import Postmortem
from repro.obs.ledger import snapshot_digest
from repro.obs.live import LiveOptions, ShardBeat
from repro.obs.runtime import ObsOptions
from repro.runner import Runner, ShardResult, run_shard


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


def _assert_postmortems_under(result, tmp_path):
    """Lost-worker postmortems land in the test's tmp dir, never in
    the checkout."""
    assert result.postmortems
    assert all(p.is_file() and p.is_relative_to(tmp_path)
               for p in result.postmortems)


def test_chaos_kills_requeue_and_stay_bit_identical(
        tiny_config, tiny_world, serial_baseline, tmp_path):
    """Every shard's worker dies once after computing the result; the
    coordinator re-dispatches each shard and the merged run must not
    move by a single bit."""
    chaos = CoordinatorChaos(seed=11, kill_prob=1.0)
    result = Runner(tiny_config, parallelism=2, shards=3,
                    world=tiny_world, chaos=chaos,
                    obs=ObsOptions(live=_dist_live(tmp_path))
                    ).run("headline")
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
    _assert_postmortems_under(result, tmp_path)


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


def test_traced_duplicates_larger_than_a_pipe_buffer_do_not_deadlock(
        tiny_config, tiny_world):
    """Every result is sent twice and each traced result outgrows a
    pipe buffer; with two shards per worker the coordinator sends the
    next job right after a duplicate, which only works because a worker
    writes nothing between its ready report and its next job."""
    traced = ObsOptions(trace=True)
    serial = Runner(tiny_config, parallelism=1, shards=4, world=tiny_world,
                    obs=traced).run("headline")
    jobs = _jobs(tiny_config, tiny_world, shards=4)
    assert len(pickle.dumps(run_shard(jobs[0], trace=True))) > 64 * 1024
    chaos = CoordinatorChaos(seed=5, duplicate_prob=1.0)
    result = Runner(tiny_config, parallelism=2, shards=4, world=tiny_world,
                    obs=traced, chaos=chaos).run("headline")
    assert snapshot_digest(result.metrics) == snapshot_digest(
        serial.metrics)
    assert result.comparison == serial.comparison
    assert result.trace_events == serial.trace_events
    assert result.trace_events
    stats = result.dist
    assert stats is not None
    assert stats.duplicates_discarded == 4
    assert stats.attempts == 4


def test_chaos_plan_runs_through_coordinator_at_one_worker(
        tiny_config, tiny_world, serial_baseline, tmp_path):
    """A chaos plan is never silently dropped: even at parallelism=1 the
    run goes through the coordinator (a kill needs a separate process),
    the kills bite, and the merge still equals the plain serial run."""
    chaos = CoordinatorChaos(seed=11, kill_prob=1.0)
    result = Runner(tiny_config, parallelism=1, shards=3,
                    world=tiny_world, chaos=chaos,
                    obs=ObsOptions(live=_dist_live(tmp_path))
                    ).run("headline")
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
    _assert_postmortems_under(result, tmp_path)


def test_worker_beats_reach_the_aggregator_on_the_control_channel(
        tiny_config, tiny_world, tmp_path):
    """Beats share each worker's pipe with its results: every shard's
    final beat lands before its result, so the plane sees the whole
    run."""
    jobs = _jobs(tiny_config, tiny_world, system="realtime", shards=2)
    coordinator = Coordinator(
        jobs, workers=2,
        live=LiveOptions(beat_interval_s=0.001,
                         postmortem_dir=tmp_path / "postmortems"))
    coordinator.run()
    snapshot = coordinator.plane.snapshot()
    assert snapshot.done == 2 and snapshot.failed == 0
    assert snapshot.beats >= 4                  # hello + final per shard


def test_persistently_crashing_shard_exhausts_retries(
        tiny_config, tiny_world, tmp_path):
    jobs = _jobs(tiny_config, tiny_world, system="realtime", shards=2)
    _break(jobs[1])                         # detonates inside execute_shard
    coordinator = Coordinator(jobs, workers=2,
                              live=_dist_live(tmp_path),
                              max_attempts=2)
    with pytest.raises(DistError, match="shard 1 failed after 2"):
        coordinator.run()
    assert coordinator.stats.nacks >= 2


def test_shards_crashing_until_dist_error_leave_only_crash_postmortems(
        tiny_config, tiny_world, tmp_path, monkeypatch):
    """Every shard raises on its worker: the run ends in DistError with
    each crash's own postmortem and no guessed ``lost`` ones, since no
    worker was lost."""
    import repro.experiments.harness as harness

    def _boom(*args, **kwargs):
        raise RuntimeError("device aggregation exploded")

    # Workers fork from this process, so they inherit the patch.
    monkeypatch.setattr(harness, "aggregate_devices", _boom)
    live = LiveOptions(beat_interval_s=0.001,
                       postmortem_dir=tmp_path / "postmortems")
    runner = Runner(tiny_config, shards=4, parallelism=2, world=tiny_world,
                    obs=ObsOptions(live=live))
    with pytest.raises(DistError, match="failed after"):
        runner.run("prefetch")
    names = [p.name for p in (tmp_path / "postmortems").glob("*.json")]
    assert names and all(name.endswith("-crash.json") for name in names)


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
                            beat_interval_s=0.0,
                            postmortem_dir=serial_dir)
    with pytest.raises(AttributeError, match="window"):
        run_shard(jobs[1], live=setup)

    dist_dir = tmp_path / "dist" / "postmortems"
    coordinator = Coordinator(list(jobs), workers=1,
                              live=LiveOptions(postmortem_dir=dist_dir),
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
# Coordinator unit behaviour (dispatch, leases, stale traffic) over
# real pipes; the test plays each worker on the far end of its pipe
# ---------------------------------------------------------------------


class _StubProcess:
    """A worker-process stand-in whose sentinel fires on terminate()."""

    def __init__(self):
        self._alive_r, self._alive_w = multiprocessing.Pipe(duplex=False)
        self.sentinel = self._alive_r.fileno()
        self.exitcode = None

    def terminate(self):
        self.exitcode = -15
        self._alive_w.close()

    def join(self, timeout=None):
        pass

    def is_alive(self):
        return self.exitcode is None


def _unit_coordinator(tmp_path, shards=2, workers=1, **kwargs):
    """A coordinator whose workers are pipe ends the test holds.

    Returns the coordinator and ``{worker_id: worker end of its pipe}``;
    replacements for lost workers are stubbed the same way. The jobs
    are small stand-ins: nothing executes them, and a real ShardJob
    outgrows the pipe buffer, which only a concurrently reading worker
    can drain.
    """
    jobs = [SimpleNamespace(shard_index=index, n_shards=shards,
                            mode="headline", backend="event")
            for index in range(shards)]
    live = kwargs.pop("live", _dist_live(tmp_path))
    coordinator = Coordinator(jobs, workers=workers, live=live, **kwargs)
    ends = {}

    def spawn():
        worker_id = f"w{coordinator._worker_seq}"
        coordinator._worker_seq += 1
        conn, ends[worker_id] = multiprocessing.Pipe()
        coordinator._handles[worker_id] = _WorkerHandle(
            worker_id=worker_id, process=_StubProcess(), conn=conn)
        coordinator._spawned += 1

    coordinator._spawn_worker = spawn
    for _ in range(workers):
        spawn()
    return coordinator, ends


def _say(coordinator, ends, worker_id, message, payload=None):
    """Worker ``worker_id`` sends one message; the coordinator reads it."""
    ends[worker_id].send((message, payload))
    coordinator._wait_once()


def _ready(coordinator, ends, worker_id):
    _say(coordinator, ends, worker_id, WorkerReady(worker_id=worker_id))
    coordinator._dispatch()


def _take(ends, worker_id):
    """The job the coordinator sent ``worker_id`` (envelope, job)."""
    assert ends[worker_id].poll(5.0), f"nothing sent to {worker_id}"
    return ends[worker_id].recv()


def _beat(index, n_shards=2):
    return ShardBeat(shard_index=index, n_shards=n_shards, seq=1,
                     watermark_s=1.0)


def _result(index, attempt=0, worker_id="w0"):
    return ResultEnvelope(worker_id=worker_id, job_id=f"shard-{index:03d}",
                          shard_index=index, attempt=attempt)


def test_expired_lease_is_requeued_with_next_attempt(tmp_path):
    """A silent holder is terminated; the sentinel path requeues its
    shard with the next attempt, writes a ``stall`` postmortem, and the
    replacement worker gets the new attempt."""
    coordinator, ends = _unit_coordinator(tmp_path, shards=1)
    _ready(coordinator, ends, "w0")
    envelope, job = _take(ends, "w0")
    assert (envelope.shard_index, envelope.attempt) == (0, 0)
    assert job.shard_index == 0
    state = coordinator._shards[0]
    assert state.worker_id == "w0"
    state.deadline = float("-inf")          # lease expires
    coordinator._check_leases()
    assert coordinator.stats.stall_steals == 1
    assert coordinator._handles["w0"].process.exitcode == -15
    coordinator._wait_once()                # the sentinel fires
    assert state.attempt == 1
    assert coordinator.stats.requeues == 1
    assert coordinator.stats.workers_lost == 1
    [path] = coordinator.postmortems
    assert path.name == "shard-000-stall.json"
    assert "lease expired" in Postmortem.load(path).reason
    _ready(coordinator, ends, "w1")         # the replacement
    envelope, _ = _take(ends, "w1")
    assert (envelope.shard_index, envelope.attempt) == (0, 1)
    assert coordinator.stats.attempts == 2


def test_beating_shard_keeps_its_lease_past_the_deadline(tmp_path):
    """A shard beat renews the holder's lease: a healthy shard running
    past the stall window is not stolen, a silent one is."""
    coordinator, ends = _unit_coordinator(tmp_path, workers=2)
    for worker_id in ("w0", "w1"):
        _ready(coordinator, ends, worker_id)
        _take(ends, worker_id)
    for index in (0, 1):
        coordinator._shards[index].deadline = float("-inf")  # both expired
    _say(coordinator, ends, "w0", _beat(0))
    coordinator._check_leases()
    coordinator._wait_once()                # w1's sentinel fires
    assert coordinator._shards[0].attempt == 0      # beating: kept
    assert coordinator._shards[0].worker_id == "w0"
    assert coordinator._shards[1].attempt == 1      # silent: requeued
    assert coordinator.stats.requeues == 1
    assert coordinator.stats.stall_steals == 1


def test_queued_shards_outwait_the_lease_behind_a_busy_worker(tmp_path):
    """More shards than workers: a queued shard is never sent before a
    worker reports ready, so it has no lease to lose however long it
    waits behind the busy worker."""
    window = 0.2
    live = LiveOptions(beat_interval_s=0.05, stall_after_s=window,
                       postmortem_dir=tmp_path / "postmortems")
    coordinator, ends = _unit_coordinator(tmp_path, shards=3, live=live)
    shards = coordinator._shards
    for index in (0, 1, 2):
        _ready(coordinator, ends, "w0")
        envelope, _ = _take(ends, "w0")
        assert envelope.shard_index == index
        assert not ends["w0"].poll(0.0)     # one job per ready report
        assert all(s.worker_id == "" and s.deadline == float("inf")
                   for s in shards.values()
                   if not s.done and s.job.shard_index != index)
        for _ in range(3):                  # runs 1.8 windows, beating
            time.sleep(0.6 * window)
            _say(coordinator, ends, "w0", _beat(index, n_shards=3))
            coordinator._check_leases()
        _say(coordinator, ends, "w0", _result(index),
             ShardResult(shard_index=index, n_users=1))
    assert [s.attempt for s in shards.values()] == [0, 0, 0]
    assert all(s.done for s in shards.values())
    assert coordinator.stats.requeues == 0
    assert coordinator.stats.stall_steals == 0
    assert coordinator.stats.attempts == 3


def test_stale_nacks_and_duplicate_results_are_ignored(tmp_path):
    coordinator, ends = _unit_coordinator(tmp_path)
    state = coordinator._shards[0]
    state.attempt = 1                       # shard was already re-dispatched
    _say(coordinator, ends, "w0",
         JobNack(worker_id="w0", job_id="shard-000", shard_index=0,
                 attempt=0, reason="stale"))
    assert state.attempt == 1               # stale nack does not requeue
    assert coordinator.stats.nacks == 1
    result = ShardResult(shard_index=0, n_users=1)
    _say(coordinator, ends, "w0", _result(0, attempt=1), result)
    assert state.done
    _say(coordinator, ends, "w0", _result(0, attempt=0), result)
    assert coordinator.stats.duplicates_discarded == 1
    assert coordinator.stats.requeues == 0
    assert coordinator._results[0] == result


def test_malformed_result_payload_requeues_the_shard(tmp_path):
    coordinator, ends = _unit_coordinator(tmp_path)
    _ready(coordinator, ends, "w0")
    _take(ends, "w0")
    _say(coordinator, ends, "w0", _result(0), {"not": "a shard result"})
    assert coordinator._shards[0].attempt == 1
    assert not coordinator._shards[0].done
    assert list(coordinator._queue) == [1, 0]


def test_protocol_version_mismatch_is_rejected(tmp_path):
    coordinator, ends = _unit_coordinator(tmp_path)
    with pytest.raises(DistError, match="protocol"):
        _say(coordinator, ends, "w0",
             WorkerReady(worker_id="w0", protocol=99))


def test_retry_budget_exhaustion_raises_dist_error(tmp_path):
    coordinator, _ = _unit_coordinator(tmp_path,
                                       max_attempts=1)
    with pytest.raises(DistError, match="shard 0 failed after 1"):
        coordinator._requeue(coordinator._shards[0], "boom")


# ---------------------------------------------------------------------
# Orphans: workers exit when their coordinator dies
# ---------------------------------------------------------------------

_ORPHAN_SCRIPT = r"""
import multiprocessing, os, signal, sys, threading, time

from repro.dist.coordinator import Coordinator
from repro.experiments.config import ExperimentConfig
from repro.faults.chaos import CoordinatorChaos
from repro.obs.live import LiveOptions
from repro.runner import Runner

config = ExperimentConfig(n_users=40, n_days=6, train_days=3, seed=99)
runner = Runner(config, shards=2)
jobs = runner._jobs("realtime", runner.source.world_for(config))
# Seed 1 delays both shards' results by minutes: the workers are busy.
coordinator = Coordinator(
    jobs, workers=2,
    live=LiveOptions(postmortem_dir=sys.argv[1]),
    chaos=CoordinatorChaos(seed=1, delay_mean_s=600.0))
threading.Thread(target=coordinator.run, daemon=True).start()
deadline = time.monotonic() + 60.0
while (len(multiprocessing.active_children()) < 2
       and time.monotonic() < deadline):
    time.sleep(0.05)
time.sleep(1.0)
print(" ".join(str(p.pid) for p in multiprocessing.active_children()),
      flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _pid_alive(pid):
    """True while ``pid`` runs (an unreaped zombie counts as gone)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_workers_exit_when_their_coordinator_is_killed(tmp_path):
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # Read one line rather than to EOF: surviving workers would hold
    # the inherited stdout open.
    proc = subprocess.Popen([sys.executable, "-c", _ORPHAN_SCRIPT,
                             str(tmp_path / "postmortems")],
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, env=env)
    with proc.stdout:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
    assert proc.wait(timeout=120) == -signal.SIGKILL
    try:
        assert len(pids) >= 2
        deadline = time.monotonic() + 10.0
        while any(_pid_alive(pid) for pid in pids) and \
                time.monotonic() < deadline:
            time.sleep(0.1)
        survivors = [pid for pid in pids if _pid_alive(pid)]
        assert survivors == [], "workers outlived their coordinator"
    finally:
        for pid in pids:
            if _pid_alive(pid):
                os.kill(pid, signal.SIGKILL)


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
