"""repro.obs.trace: recorders, JSONL schema, Chrome export golden."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.trace import (
    NULL_RECORDER,
    TRACE_SCHEMA_VERSION,
    MemoryRecorder,
    NullRecorder,
    TraceEvent,
    read_jsonl,
    to_chrome,
    validate_jsonl,
    write_chrome,
    write_jsonl,
)

GOLDEN = Path(__file__).parent / "data" / "obs_chrome_golden.json"


def _sample_events() -> list[TraceEvent]:
    """A small fixed event stream covering spans, instants, and shards."""
    return [
        TraceEvent(ts=0.0, phase="X", component="engine", name="run",
                   dur=3600.0, shard=0, args={"n_events": 42}),
        TraceEvent(ts=12.5, phase="I", component="client", name="sync",
                   shard=0, args={"user": "u0001", "n_bytes": 2048}),
        TraceEvent(ts=60.0, phase="I", component="server", name="rescue",
                   shard=1, args={"n": 2}),
        TraceEvent(ts=90.0, phase="X", component="server", name="epoch",
                   dur=900.0, shard=1, args={"epoch": 0}),
    ]


class TestNullRecorder:
    def test_disabled_and_stateless(self):
        assert NullRecorder.enabled is False
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.instant(1.0, "server", "rescue", {"n": 1})
        NULL_RECORDER.complete(0.0, 5.0, "engine", "run")
        assert NULL_RECORDER.events() == []

    def test_zero_overhead_fast_path_shape(self):
        # ``enabled`` is a class attribute (no per-instance state), so
        # the ``if recorder.enabled:`` guard in hot paths costs one
        # attribute read and the event payload is never built.
        assert "enabled" not in vars(NULL_RECORDER)
        assert "enabled" in vars(NullRecorder) or NullRecorder.enabled is False

    def test_guarded_hot_path_never_records(self):
        recorder = NULL_RECORDER
        built = []
        for i in range(100):
            if recorder.enabled:  # pragma: no cover - must not execute
                built.append({"i": i})
                recorder.instant(float(i), "engine", "tick", built[-1])
        assert built == []


class TestMemoryRecorder:
    def test_records_in_order_with_shard_stamp(self):
        rec = MemoryRecorder(shard=3)
        rec.instant(1.0, "client", "beacon")
        rec.complete(2.0, 0.5, "server", "epoch", {"epoch": 1})
        events = rec.events()
        assert [e.name for e in events] == ["beacon", "epoch"]
        assert all(e.shard == 3 for e in events)
        assert events[1].phase == "X"
        assert events[1].dur == 0.5

    def test_events_returns_a_copy(self):
        rec = MemoryRecorder()
        rec.instant(0.0, "a", "b")
        rec.events().clear()
        assert len(rec.events()) == 1


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        events = _sample_events()
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(events, path) == len(events)
        assert read_jsonl(path) == events

    def test_header_row(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl([], path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"schema": "repro.obs.trace",
                          "version": TRACE_SCHEMA_VERSION}

    def test_byte_stable_for_identical_streams(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(_sample_events(), a)
        write_jsonl(_sample_events(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_validate_accepts_written_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(_sample_events(), path)
        assert validate_jsonl(path) == []

    def test_validate_rejects_bad_rows(self, tmp_path):
        ok = _sample_events()[0].to_jsonable()
        bad_phase = dict(ok, ph="Z")
        negative_ts = dict(ok, ts=-1.0)
        missing = {k: v for k, v in ok.items() if k != "comp"}
        path = tmp_path / "trace.jsonl"
        _write_rows(path, [_HEADER, ok, bad_phase, negative_ts, missing])
        with path.open("a") as fh:
            fh.write("{not json\n")
        problems = validate_jsonl(path)
        assert problems[:3] == [
            f"{path}: line 3: key 'ph' must be one of ('X', 'I'), got 'Z'",
            f"{path}: line 4: key 'ts' must be non-negative, got -1.0",
            f"{path}: line 5: missing key 'comp'",
        ]
        (last,) = problems[3:]
        assert last.startswith(f"{path}: line 6: not valid JSON (")

    def test_validate_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(_sample_events()[0].to_jsonable()) + "\n")
        assert any("header" in p for p in validate_jsonl(path))

    def test_validate_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_rows(path, [{"schema": "repro.obs.trace", "version": 999}])
        assert any("version" in p for p in validate_jsonl(path))

    @pytest.mark.parametrize("change, named", [
        ({"ts": "abc"}, "key 'ts' must be a number, got a string"),
        ({"ph": "Z"}, "key 'ph' must be one of"),
        ({"shard": True}, "key 'shard' must be an integer, got a boolean"),
        ({"comp": ""}, "key 'comp' must be a non-empty string"),
        ({"args": None}, "key 'args' must be an object, got null"),
        ({"extra": 1}, "unexpected key 'extra'"),
    ])
    def test_read_rejects_malformed_row(self, tmp_path, change, named):
        rows = [event.to_jsonable() for event in _sample_events()]
        rows[1] = {**rows[1], **change}
        path = tmp_path / "trace.jsonl"
        _write_rows(path, [_HEADER, *rows])
        with pytest.raises(ValueError) as excinfo:
            read_jsonl(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}: line 3: ") and named in message
        assert validate_jsonl(path) == [message]


_HEADER = {"schema": "repro.obs.trace", "version": TRACE_SCHEMA_VERSION}


def _write_rows(path: Path, rows: list[dict[str, object]]) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


class TestChromeExport:
    def test_matches_golden_file(self):
        # Regenerate with:
        #   python -c "from tests.test_obs_trace import regenerate_golden;
        #              regenerate_golden()"
        produced = to_chrome(_sample_events())
        assert produced == json.loads(GOLDEN.read_text())

    def test_structure(self, tmp_path):
        doc = to_chrome(_sample_events())
        rows = doc["traceEvents"]
        meta = [r for r in rows if r["ph"] == "M"]
        spans = [r for r in rows if r["ph"] == "X"]
        instants = [r for r in rows if r["ph"] == "i"]
        # Two shards x (1 process_name + 3 thread_name) metadata rows.
        assert len(meta) == 2 * 4
        assert {r["pid"] for r in rows} == {0, 1}
        assert len(spans) == 2 and len(instants) == 2
        # Sim seconds are exported as microseconds.
        engine_run = next(r for r in spans if r["name"] == "run")
        assert engine_run["dur"] == 3600.0 * 1e6
        assert all(r["s"] == "t" for r in instants)
        write_chrome(_sample_events(), tmp_path / "t.json")
        assert json.loads((tmp_path / "t.json").read_text()) == doc


def regenerate_golden() -> None:
    """Rewrite the committed golden file from the current exporter."""
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(to_chrome(_sample_events()), indent=2,
                                 sort_keys=True) + "\n")
