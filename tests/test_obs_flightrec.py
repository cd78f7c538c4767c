"""Tests for the crash flight recorder (repro.obs.flightrec).

Covers the bounded ring recorder, the postmortem file round-trip and
renderer, the worker-side crash capture in ``run_shard`` (the only
postmortem a serial run writes), the coordinator's ``stall`` capture,
a deliberately killed worker process in a coordinator fault run, and
the ``adprefetch obs postmortem`` CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.faults.chaos import CoordinatorChaos
from repro.faults.plan import FaultPlan
from repro.obs.flightrec import (
    Postmortem,
    RingRecorder,
    list_postmortems,
    postmortem_filename,
)
from repro.obs.live import (
    CallbackTransport,
    LiveOptions,
    ShardBeat,
    WorkerLiveSetup,
)
from repro.obs.runtime import ObsOptions
from repro.obs.trace import NULL_RECORDER, MemoryRecorder
from repro.runner import Runner, run_shard


# ---------------------------------------------------------------------
# RingRecorder
# ---------------------------------------------------------------------


def test_ring_keeps_last_n_events_and_counts_drops():
    ring = RingRecorder(NULL_RECORDER, shard=1, capacity=3)
    assert ring.enabled
    for i in range(5):
        ring.instant(float(i), "server", "epoch", args={"i": i})
    tail = ring.ring()
    assert [e.ts for e in tail] == [2.0, 3.0, 4.0]
    assert all(e.shard == 1 for e in tail)
    assert ring.dropped == 2
    # Full-trace semantics: events() is the inner (null) recorder's view.
    assert ring.events() == []


def test_ring_forwards_to_enabled_inner_recorder():
    inner = MemoryRecorder(shard=0)
    ring = RingRecorder(inner, capacity=2)
    ring.instant(1.0, "faults", "loss", args={"uid": "u1"})
    ring.complete(2.0, 0.5, "server", "plan")
    assert [e.name for e in inner.events()] == ["loss", "plan"]
    assert [e.name for e in ring.events()] == ["loss", "plan"]
    assert [e.phase for e in ring.ring()] == ["I", "X"]


# ---------------------------------------------------------------------
# Postmortem files
# ---------------------------------------------------------------------


def _postmortem(**overrides):
    fields = dict(
        kind="crash", shard_index=3, n_shards=8, system="headline",
        backend="event", reason="shard raised ValueError: boom",
        traceback="Traceback ...\nValueError: boom",
        last_beat=ShardBeat(shard_index=3, n_shards=8, seq=7,
                            watermark_s=86400.0, done=4,
                            total=10).to_jsonable(),
        ring_events=({"ts": 1.0, "ph": "I", "comp": "faults",
                      "name": "loss", "dur": 0.0, "shard": 3,
                      "args": {"uid": "u7"}},),
        ring_dropped=12,
        counters={"radio.wakeups": 42.0},
    )
    fields.update(overrides)
    return Postmortem(**fields)


def test_postmortem_round_trip(tmp_path):
    postmortem = _postmortem()
    path = postmortem.write_to(tmp_path)
    assert path.name == postmortem_filename(3, "crash")
    assert Postmortem.load(path) == postmortem


def test_postmortem_load_errors_are_one_line(tmp_path):
    bad = tmp_path / "shard-000-crash.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        Postmortem.load(bad)
    bad.write_text(json.dumps({"schema": "something-else"}))
    with pytest.raises(ValueError, match="not a postmortem"):
        Postmortem.load(bad)
    bad.write_text(json.dumps({"schema": "repro.obs.postmortem",
                               "version": 99}))
    with pytest.raises(ValueError, match="version"):
        Postmortem.load(bad)
    bad.write_text(json.dumps({"schema": "repro.obs.postmortem",
                               "version": 1, "kind": "mystery"}))
    with pytest.raises(ValueError, match="kind"):
        Postmortem.load(bad)


@pytest.mark.parametrize("change, named", [
    ({"shard_index": 1.7}, "key 'shard_index' must be an integer"),
    ({"ring_dropped": True}, "key 'ring_dropped' must be an integer"),
    ({"counters": {"a": "5"}}, "key 'counters' entry 'a' must be a number"),
    ({"ring_events": [1]}, "key 'ring_events' entry 0 must be an object"),
    ({"last_beat": []}, "key 'last_beat' must be an object"),
    ({"extra": 1}, "unexpected key 'extra'"),
])
def test_postmortem_load_rejects_malformed_fields(tmp_path, change, named):
    path = _postmortem().write_to(tmp_path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    with pytest.raises(ValueError) as excinfo:
        Postmortem.load(path)
    message = str(excinfo.value)
    assert message.startswith(f"{path}: ") and named in message
    assert "\n" not in message


def test_postmortem_render_is_readable():
    text = _postmortem().render()
    assert "shard 3/8 [crash]" in text
    assert "ValueError: boom" in text
    assert "seq=7" in text
    assert "faults/loss" in text and '"uid": "u7"' in text
    assert "12 older dropped" in text
    assert "radio.wakeups = 42" in text


def test_list_postmortems_sorted(tmp_path):
    _postmortem(shard_index=2, kind="lost", traceback="").write_to(tmp_path)
    _postmortem(shard_index=0).write_to(tmp_path)
    names = [p.name for p in list_postmortems(tmp_path)]
    assert names == ["shard-000-crash.json", "shard-002-lost.json"]
    assert list_postmortems(tmp_path / "nowhere") == []


# ---------------------------------------------------------------------
# Worker-side crash capture
# ---------------------------------------------------------------------


def _shard_jobs(tiny_config, tiny_world, system="realtime", shards=2):
    runner = Runner(tiny_config, shards=shards, world=tiny_world)
    world = runner.source.world_for(tiny_config)
    return runner._jobs(system, world)


def _setup(tmp_path, sink=None):
    return WorkerLiveSetup(
        transport=CallbackTransport(sink if sink is not None
                                    else lambda beat: None),
        beat_interval_s=0.0,
        postmortem_dir=tmp_path / "postmortems")


def test_crashed_shard_writes_flight_recorder_postmortem(
        tiny_config, tiny_world, tmp_path):
    jobs = _shard_jobs(tiny_config, tiny_world)
    bad = jobs[1]
    # A non-timeline value detonates inside the realtime engine.
    bad.timelines = {uid: "not-a-timeline" for uid in bad.timelines}
    beats: list[ShardBeat] = []
    with pytest.raises(AttributeError, match="window"):
        run_shard(bad, live=_setup(tmp_path, beats.append))
    [path] = list_postmortems(tmp_path / "postmortems")
    postmortem = Postmortem.load(path)
    assert postmortem.kind == "crash"
    assert postmortem.shard_index == 1
    assert "AttributeError" in postmortem.reason
    assert "window" in postmortem.traceback
    assert any(beat.failed for beat in beats)


def _explode_device_aggregation(monkeypatch):
    """Make every prefetch shard raise after its epoch loop."""
    import repro.experiments.harness as harness

    def _boom(*args, **kwargs):
        raise RuntimeError("device aggregation exploded")

    monkeypatch.setattr(harness, "aggregate_devices", _boom)


def test_crash_postmortem_captures_flight_recorder_ring(
        tiny_config, tiny_world, tmp_path, monkeypatch):
    """E13-style black box: the ring holds the pre-crash trace trail.

    Detonate *after* the epoch loop (in device aggregation) so the
    flight recorder has buffered the per-epoch heartbeat instants by
    the time the shard raises — without ``--trace`` being on.
    """
    _explode_device_aggregation(monkeypatch)
    jobs = _shard_jobs(tiny_config, tiny_world, system="prefetch",
                       shards=1)
    with pytest.raises(RuntimeError, match="exploded"):
        run_shard(jobs[0], live=_setup(tmp_path))
    [path] = list_postmortems(tmp_path / "postmortems")
    postmortem = Postmortem.load(path)
    assert postmortem.kind == "crash"
    assert "RuntimeError" in postmortem.reason
    heartbeats = [row for row in postmortem.ring_events
                  if row.get("name") == "heartbeat"]
    assert heartbeats, "ring should hold the pre-crash heartbeat trail"
    assert postmortem.counters.get("throughput.users_total", 0) > 0
    assert "aggregation exploded" in postmortem.render()


def test_serial_crash_leaves_only_the_crash_postmortem(
        tiny_config, tiny_world, tmp_path, monkeypatch):
    """In-process, the crashing shard writes its own black box and the
    run ends; the shards that never started get no postmortem."""
    _explode_device_aggregation(monkeypatch)
    live = LiveOptions(beat_interval_s=0.001,
                       postmortem_dir=tmp_path / "postmortems")
    with pytest.raises(RuntimeError, match="exploded"):
        Runner(tiny_config, shards=4, parallelism=1, world=tiny_world,
               obs=ObsOptions(live=live)).run("prefetch")
    assert [p.name for p in list_postmortems(tmp_path / "postmortems")] \
        == ["shard-000-crash.json"]


# ---------------------------------------------------------------------
# Coordinator-side stall capture
# ---------------------------------------------------------------------


def test_stall_flag_leaves_inspectable_postmortem(tmp_path):
    """An expired lease leaves a ``stall`` postmortem that carries the
    last beat the coordinator saw for the shard."""
    from types import SimpleNamespace

    from repro.dist.coordinator import Coordinator, _WorkerHandle

    job = SimpleNamespace(shard_index=0, n_shards=1, mode="headline",
                          backend="event")
    coordinator = Coordinator([job], workers=1,
                              live=LiveOptions(postmortem_dir=tmp_path))
    coordinator.plane.ingest(ShardBeat(shard_index=0, n_shards=1, seq=0,
                                       watermark_s=100.0))
    handle = _WorkerHandle(
        worker_id="w0", process=SimpleNamespace(exitcode=-15), conn=None,
        expired="lease expired: no message for shard 0 within 30.0s")
    coordinator._write_lost_postmortem(coordinator._shards[0], handle)
    [path] = coordinator.postmortems
    postmortem = Postmortem.load(path)
    assert path.name == "shard-000-stall.json"
    assert postmortem.kind == "stall"
    assert "lease expired" in postmortem.reason
    assert (postmortem.system, postmortem.backend) == ("headline", "event")
    assert postmortem.last_beat is not None
    assert postmortem.last_beat["watermark_s"] == 100.0


# ---------------------------------------------------------------------
# A deliberately killed worker in a coordinator fault run
# ---------------------------------------------------------------------


def test_killed_worker_leaves_readable_postmortem(tiny_config, tiny_world,
                                                  tmp_path, capsys):
    """A chaos kill takes a worker down holding its shard; the
    coordinator writes a ``lost`` postmortem an operator can read, and
    the re-dispatched shard still completes the run."""
    import dataclasses

    config = dataclasses.replace(
        tiny_config, faults=FaultPlan(loss_prob=0.1))
    live = LiveOptions(beat_interval_s=0.001,
                       postmortem_dir=tmp_path / "postmortems")
    result = Runner(config, parallelism=2, shards=2, world=tiny_world,
                    chaos=CoordinatorChaos(seed=3, kill_prob=1.0),
                    obs=ObsOptions(live=live)).run("realtime")
    assert result.dist is not None and result.dist.workers_lost >= 1
    lost = [p for p in result.postmortems if p.name.endswith("-lost.json")]
    assert lost, f"no lost postmortem in {result.postmortems}"
    # Readable through the CLI the way an operator would reach it.
    assert main(["obs", "postmortem", "show", str(lost[0])]) == 0
    out = capsys.readouterr().out
    assert "[lost]" in out and "exited (code 17)" in out


# ---------------------------------------------------------------------
# CLI: obs postmortem show | list
# ---------------------------------------------------------------------


def test_cli_postmortem_show_renders(tmp_path, capsys):
    path = _postmortem().write_to(tmp_path)
    assert main(["obs", "postmortem", "show", str(path)]) == 0
    out = capsys.readouterr().out
    assert "shard 3/8 [crash]" in out and "ValueError: boom" in out


def test_cli_postmortem_show_missing_is_one_line_error(tmp_path, capsys):
    code = main(["obs", "postmortem", "show",
                 str(tmp_path / "shard-000-crash.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_cli_postmortem_list(tmp_path, capsys):
    _postmortem(shard_index=0).write_to(tmp_path)
    _postmortem(shard_index=1, kind="stall", traceback="").write_to(tmp_path)
    assert main(["obs", "postmortem", "list", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 2
    assert "[crash] shard 0/8" in lines[0]
    assert "[stall] shard 1/8" in lines[1]


def test_cli_postmortem_list_empty_dir(tmp_path, capsys):
    assert main(["obs", "postmortem", "list", str(tmp_path)]) == 0
    assert "no postmortems" in capsys.readouterr().out
