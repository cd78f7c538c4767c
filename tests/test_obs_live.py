"""Tests for the live telemetry plane (repro.obs.live).

Covers the beat record round-trip, the wall-clock-throttled emitter,
the plane's fold of beats under an injected fake clock, the progress
renderer's TTY/pipe modes, and — the hard invariant — that runs with
live telemetry on are bit-identical to runs with it off at jobs 1 and
4.
"""

from __future__ import annotations

import io

import pytest

from repro.obs.ledger import snapshot_digest
from repro.obs.live import (
    BeatEmitter,
    CallbackTransport,
    LiveOptions,
    LivePlane,
    NullBeatEmitter,
    ProgressRenderer,
    ShardBeat,
    render_progress,
    shard_heartbeat,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import Obs, ObsOptions
from repro.obs.trace import MemoryRecorder
from repro.runner import Runner


class FakeClock:
    """Deterministic monotonic clock for throttle tests."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ---------------------------------------------------------------------
# LiveOptions
# ---------------------------------------------------------------------


@pytest.mark.parametrize("kwargs, match", [
    ({"beat_interval_s": 0.0}, "beat_interval_s must be positive"),
    ({"stall_after_s": -1.0}, "stall_after_s must be positive"),
    ({"beat_interval_s": 45.0}, "must be below stall_after_s"),
    ({"beat_interval_s": 5.0, "stall_after_s": 5.0},
     "must be below stall_after_s"),
])
def test_live_options_reject_settings_that_steal_healthy_shards(kwargs,
                                                               match):
    """The stall window is also the coordinator's lease, so a beat
    interval at or above it would expire every healthy long shard."""
    with pytest.raises(ValueError, match=match):
        LiveOptions(**kwargs)


# ---------------------------------------------------------------------
# BeatEmitter: throttle, counter deltas, forced beats
# ---------------------------------------------------------------------


def test_emitter_throttles_on_wall_clock():
    clock = FakeClock()
    seen: list[ShardBeat] = []
    emitter = BeatEmitter(CallbackTransport(seen.append), shard_index=0,
                          n_shards=2, interval_s=10.0, clock=clock)
    assert emitter.beat(100.0) is not None       # first beat passes
    clock.advance(5.0)
    assert emitter.beat(200.0) is None           # throttled
    clock.advance(6.0)
    assert emitter.beat(300.0) is not None       # window elapsed
    assert [b.watermark_s for b in seen] == [100.0, 300.0]
    assert [b.seq for b in seen] == [0, 1]       # seq counts published only


def test_emitter_forced_and_final_bypass_throttle():
    clock = FakeClock()
    seen: list[ShardBeat] = []
    emitter = BeatEmitter(CallbackTransport(seen.append), shard_index=1,
                          n_shards=2, interval_s=1e9, clock=clock)
    assert emitter.beat(0.0, force=True) is not None
    assert emitter.beat(1.0) is None
    assert emitter.beat(2.0, final=True) is not None
    assert emitter.beat(3.0, failed=True) is not None
    assert [b.final for b in seen] == [False, True, False]
    assert seen[-1].failed


def test_final_and_failed_beats_repeat_last_published_progress():
    clock = FakeClock()
    seen: list[ShardBeat] = []
    emitter = BeatEmitter(CallbackTransport(seen.append), shard_index=0,
                          n_shards=1, interval_s=10.0, clock=clock)
    emitter.beat(0.0, done=3, total=8, events_done=120)
    assert emitter.beat(1.0, done=4, total=8, events_done=150) is None
    final = emitter.beat(2.0, users=5, final=True)
    failed = emitter.beat(3.0, failed=True)
    for beat in (final, failed):
        assert (beat.done, beat.total, beat.events_done) == (3, 8, 120)
    assert final.users == 5


def test_emitter_counters_are_deltas():
    clock = FakeClock()
    seen: list[ShardBeat] = []
    registry = MetricsRegistry()
    emitter = BeatEmitter(CallbackTransport(seen.append), shard_index=0,
                          n_shards=1, interval_s=0.0, clock=clock,
                          registry=registry)
    registry.counter("shard.events").inc(10)
    clock.advance(1.0)
    emitter.beat(1.0)
    registry.counter("shard.events").inc(5)
    clock.advance(1.0)
    emitter.beat(2.0)
    clock.advance(1.0)
    emitter.beat(3.0)
    assert seen[0].counters == {"shard.events": 10.0}
    assert seen[1].counters == {"shard.events": 5.0}
    assert seen[2].counters == {}                # no change, no payload


def test_null_emitter_is_disabled_and_silent():
    emitter = NullBeatEmitter()
    assert emitter.enabled is False
    assert emitter.beat(1.0, final=True) is None


# ---------------------------------------------------------------------
# shard_heartbeat: the one shared helper (satellite: dedup)
# ---------------------------------------------------------------------


def test_shard_heartbeat_emits_instant_and_beat():
    recorder = MemoryRecorder(shard=2)
    seen: list[ShardBeat] = []
    beats = BeatEmitter(CallbackTransport(seen.append), shard_index=2,
                        n_shards=4, interval_s=0.0, clock=FakeClock())
    obs = Obs.create(recorder, beats)
    shard_heartbeat(obs, 3600.0, component="prefetch", done=2, total=7,
                    users=10, events_done=55)
    [event] = obs.recorder.events()
    assert (event.component, event.name) == ("shard", "heartbeat")
    assert event.ts == 3600.0
    assert event.args == {"component": "prefetch", "done": 2, "total": 7,
                          "users": 10, "events_done": 55}
    [beat] = seen
    assert (beat.watermark_s, beat.done, beat.total) == (3600.0, 2, 7)


def test_shard_heartbeat_noop_without_instruments():
    obs = Obs.create()                           # Null recorder + emitter
    shard_heartbeat(obs, 1.0, component="prefetch", done=1, total=1,
                    users=1, events_done=1)
    assert obs.recorder.events() == []


def test_heartbeat_instants_identical_across_backends(tiny_config,
                                                      tiny_world):
    """Trace parity: both backends emit the same heartbeat instants."""
    def heartbeats(backend):
        result = Runner(tiny_config, shards=2, world=tiny_world,
                        backend=backend,
                        obs=ObsOptions(trace=True)).run("headline")
        return [(e.ts, e.shard, e.args) for e in result.trace_events
                if (e.component, e.name) == ("shard", "heartbeat")]

    event_hb = heartbeats("event")
    batched_hb = heartbeats("batched")
    assert event_hb and event_hb == batched_hb
    components = {args["component"] for _, _, args in event_hb}
    assert components == {"prefetch", "realtime"}


# ---------------------------------------------------------------------
# LivePlane: the fold of beats
# ---------------------------------------------------------------------


def _beat(shard, watermark=0.0, seq=0, **kw):
    return ShardBeat(shard_index=shard, n_shards=2, seq=seq,
                     watermark_s=watermark, **kw)


def test_aggregator_snapshot_folds_progress():
    plane = LivePlane(LiveOptions(), n_shards=4)
    plane.ingest(ShardBeat(shard_index=0, n_shards=4, seq=0,
                           watermark_s=10.0, done=5, total=10,
                           events_done=100, rss_bytes=512))
    plane.ingest(ShardBeat(shard_index=1, n_shards=4, seq=0,
                           watermark_s=30.0, done=10, total=10,
                           events_done=300, rss_bytes=1024, final=True))
    snap = plane.snapshot()
    assert snap.n_shards == 4 and snap.started == 2 and snap.done == 1
    assert snap.beats == 2
    assert snap.events_done == 400
    assert snap.progress == pytest.approx((0.5 + 1.0 + 0.0 + 0.0) / 4)
    assert snap.min_watermark_s == 10.0
    assert snap.peak_rss_bytes == 1024


def test_redispatched_attempts_first_beat_replaces_the_old_one():
    """Nothing to re-arm: a shard's flags are its latest beat's."""
    plane = LivePlane(LiveOptions(), n_shards=2)
    plane.ingest(_beat(0, watermark=500.0, seq=3, failed=True))
    assert plane.view(0).failed and plane.snapshot().failed == 1
    plane.ingest(_beat(0))                   # the new attempt's hello
    view = plane.view(0)
    assert not view.failed and not view.done
    assert view.last_beat.watermark_s == 0.0 and view.beats == 2
    plane.ingest(_beat(0, seq=1, final=True))
    assert plane.view(0).done and plane.snapshot().done == 1
    plane.ingest(_beat(99))                  # unknown index: dropped
    assert plane.snapshot().beats == 3


def test_plane_renders_at_most_one_line_per_beat_interval():
    clock = FakeClock()
    stream = io.StringIO()
    plane = LivePlane(LiveOptions(beat_interval_s=1.0, progress=True),
                      n_shards=2, stream=stream, clock=clock)
    plane.ingest(_beat(0, done=1, total=4))  # first beat renders
    clock.advance(0.5)
    plane.ingest(_beat(1, done=1, total=4))  # inside the interval
    assert len(stream.getvalue().splitlines()) == 1
    clock.advance(0.5)
    plane.ingest(_beat(0, seq=1, done=2, total=4))
    assert len(stream.getvalue().splitlines()) == 2
    plane.ingest(_beat(0, seq=2, final=True))
    plane.ingest(_beat(1, seq=1, final=True))
    plane.finish()                           # the last line, always
    lines = stream.getvalue().splitlines()
    assert len(lines) == 3
    assert "shards 2/2 done" in lines[-1]


# ---------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------


class _TtyStream(io.StringIO):
    def isatty(self):
        return True


def test_renderer_piped_output_is_line_oriented():
    stream = io.StringIO()
    renderer = ProgressRenderer(stream)
    plane = LivePlane(LiveOptions(), n_shards=2)
    renderer.render(plane.snapshot())
    renderer.render(plane.snapshot())            # unchanged: not rewritten
    plane.ingest(_beat(0, final=True))
    renderer.render(plane.snapshot())
    renderer.close()
    out = stream.getvalue()
    assert "\r" not in out and "\x1b" not in out
    lines = out.splitlines()
    assert len(lines) == 2                       # one per *distinct* state
    assert all(line.startswith("[live] ") for line in lines)
    assert "shards 1/2 done" in lines[1]


def test_renderer_tty_output_refreshes_one_line():
    stream = _TtyStream()
    renderer = ProgressRenderer(stream)
    plane = LivePlane(LiveOptions(), n_shards=2)
    renderer.render(plane.snapshot())
    plane.ingest(_beat(0, final=True))
    renderer.render(plane.snapshot())
    renderer.close()
    out = stream.getvalue()
    assert out.count("\r") == 2                  # one refresh per render
    assert out.endswith("\n")                    # close terminates the line


def test_render_progress_flags_trouble():
    plane = LivePlane(LiveOptions(), n_shards=2)
    plane.ingest(_beat(0))
    assert "FAILED" not in render_progress(plane.snapshot())
    plane.ingest(_beat(1, failed=True))
    assert "FAILED 1" in render_progress(plane.snapshot())


# ---------------------------------------------------------------------
# The hard invariant: live on == live off, jobs 1 and 4
# ---------------------------------------------------------------------


def _run(tiny_config, tiny_world, parallelism, live, tmp_path=None):
    options = None
    if live:
        options = ObsOptions(live=LiveOptions(
            beat_interval_s=0.01,
            postmortem_dir=tmp_path / "postmortems"))
    return Runner(tiny_config, shards=4, world=tiny_world,
                  parallelism=parallelism, obs=options).run("headline")


def test_live_runs_bit_identical_jobs1_and_jobs4(tiny_config, tiny_world,
                                                 tmp_path):
    plain = _run(tiny_config, tiny_world, 1, live=False)
    live_1 = _run(tiny_config, tiny_world, 1, True, tmp_path)
    live_4 = _run(tiny_config, tiny_world, 4, True, tmp_path)
    for live in (live_1, live_4):
        assert live.prefetch == plain.prefetch
        assert live.realtime == plain.realtime
        assert live.comparison == plain.comparison
        assert live.result_metrics() == plain.result_metrics()
        assert snapshot_digest(live.metrics) == snapshot_digest(
            plain.metrics)
        assert live.postmortems == ()


def test_healthy_run_never_trips_watchdog(tmp_path, caplog):
    """Eight shards queued on two workers: the shards that start late
    are healthy, so the plane logs no warning and the coordinator
    writes no postmortem."""
    import logging

    from repro.experiments.config import ExperimentConfig

    config = ExperimentConfig(seed=7, n_users=80, n_days=8, train_days=3)
    live = LiveOptions(beat_interval_s=0.02,
                       postmortem_dir=tmp_path / "postmortems")
    with caplog.at_level(logging.DEBUG):
        result = Runner(config, backend="batched", shards=8,
                        parallelism=2,
                        obs=ObsOptions(live=live)).run("prefetch")
    assert result.dist is not None and result.dist.workers_lost == 0
    assert result.postmortems == ()
    assert not (tmp_path / "postmortems").exists()
    assert [r.getMessage() for r in caplog.records
            if r.name == "repro.obs.live"
            and r.levelno >= logging.WARNING] == []


def _serial_live_run(tiny_config, tiny_world, shards):
    """A serial live run; returns (plane, beats in arrival order)."""
    from repro.runner import run_shard

    plane = LivePlane(LiveOptions(beat_interval_s=0.001),
                      n_shards=shards)
    seen: list[ShardBeat] = []

    def sink(beat):
        seen.append(beat)
        plane.ingest(beat)

    setup = plane.worker_setup(CallbackTransport(sink))
    runner = Runner(tiny_config, shards=shards, world=tiny_world)
    world = runner.source.world_for(tiny_config)
    for job in runner._jobs("realtime", world):
        run_shard(job, live=setup)
    plane.finish()
    return plane, seen


def test_live_plane_serial_collects_beats(tiny_config, tiny_world):
    plane, _ = _serial_live_run(tiny_config, tiny_world, shards=2)
    snap = plane.snapshot()
    assert snap.done == 2 and snap.failed == 0
    assert snap.beats >= 4                       # hello + final per shard


def test_final_snapshot_keeps_the_events_of_the_last_beats(tiny_config,
                                                           tiny_world):
    """The final beat repeats the shard's last progress, so the last
    ``[live]`` line does not fall back to ``events 0``."""
    plane, seen = _serial_live_run(tiny_config, tiny_world, shards=2)
    last_before_final = {beat.shard_index: beat.events_done
                         for beat in seen if not beat.final}
    snap = plane.snapshot()
    assert snap.done == 2
    assert snap.events_done == sum(last_before_final.values())
    assert snap.events_done > 0
