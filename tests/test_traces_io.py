"""Unit tests for trace persistence."""

import json

import pytest

from repro.traces.io import read_trace, write_trace
from repro.traces.schema import Session, Trace, UserTrace


def _sample_trace() -> Trace:
    trace = Trace(n_days=2)
    trace.add_session(Session("u1", "puzzle_blocks", 100.0, 60.0), "wp")
    trace.add_session(Session("u1", "daily_weather", 5000.0, 30.0), "wp")
    trace.add_session(Session("u2", "chat_now", 300.0, 120.0), "iphone")
    trace.users["u3"] = UserTrace("u3", "wp")   # silent user
    return trace


def test_roundtrip_preserves_everything(tmp_path):
    original = _sample_trace()
    path = tmp_path / "trace.jsonl"
    count = write_trace(original, path)
    assert count == 3
    loaded = read_trace(path)
    assert loaded.n_days == 2
    assert set(loaded.users) == {"u1", "u2", "u3"}
    assert loaded.user("u2").platform == "iphone"
    assert len(loaded.user("u3").sessions) == 0
    orig_sessions = [(s.user_id, s.app_id, s.start, s.duration)
                     for s in original.all_sessions()]
    load_sessions = [(s.user_id, s.app_id, s.start, s.duration)
                     for s in loaded.all_sessions()]
    assert orig_sessions == load_sessions


def test_read_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_trace(path)


def test_read_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"kind": "session"}) + "\n")
    with pytest.raises(ValueError, match="header"):
        read_trace(path)


def test_read_rejects_bad_version(tmp_path):
    path = tmp_path / "v99.jsonl"
    path.write_text(json.dumps({"kind": "trace-header", "version": 99,
                                "n_days": 1, "users": {}}) + "\n")
    with pytest.raises(ValueError, match="version"):
        read_trace(path)


def test_read_rejects_unexpected_record_kind(tmp_path):
    path = tmp_path / "weird.jsonl"
    header = {"kind": "trace-header", "version": 1, "n_days": 1, "users": {}}
    path.write_text(json.dumps(header) + "\n"
                    + json.dumps({"kind": "mystery"}) + "\n")
    with pytest.raises(ValueError, match="record kind"):
        read_trace(path)


def test_blank_lines_tolerated(tmp_path):
    original = _sample_trace()
    path = tmp_path / "gaps.jsonl"
    write_trace(original, path)
    content = path.read_text().replace("\n", "\n\n")
    path.write_text(content)
    loaded = read_trace(path)
    assert loaded.n_sessions() == 3


def test_platform_override_on_write(tmp_path):
    original = _sample_trace()
    path = tmp_path / "override.jsonl"
    write_trace(original, path, platforms={"u1": "iphone"})
    loaded = read_trace(path)
    assert loaded.user("u1").platform == "iphone"
    # ``platforms`` replaces the whole map; users it omits default to wp.
    assert loaded.user("u2").platform == "wp"


def _write_rows(path, *sessions):
    header = {"kind": "trace-header", "version": 1, "n_days": 1,
              "users": {"u1": "wp"}}
    path.write_text("\n".join(json.dumps(row) for row in (header, *sessions))
                    + "\n")


def _session(**changes):
    row = {"kind": "session", "user": "u1", "app": "chat_now",
           "start": 12.0, "duration": 30.0}
    row.update(changes)
    return {key: value for key, value in row.items() if value is not None}


def test_read_rejects_numeric_string_start(tmp_path):
    """A quoted number is not a number: it no longer reads back as 12."""
    path = tmp_path / "quoted.jsonl"
    _write_rows(path, _session(), _session(start="12"))
    with pytest.raises(ValueError) as excinfo:
        read_trace(path)
    message = str(excinfo.value)
    assert message.startswith(f"{path}: line 3:")
    assert "'start' must be a number" in message
    assert "\n" not in message


def test_read_rejects_session_without_app(tmp_path):
    path = tmp_path / "no-app.jsonl"
    _write_rows(path, _session(app=None))
    with pytest.raises(ValueError) as excinfo:
        read_trace(path)
    message = str(excinfo.value)
    assert message.startswith(f"{path}: line 2:")
    assert "missing key 'app'" in message
    assert "\n" not in message


def test_read_rejects_malformed_header_field(tmp_path):
    path = tmp_path / "days.jsonl"
    path.write_text(json.dumps({"kind": "trace-header", "version": 1,
                                "n_days": "2", "users": {}}) + "\n")
    with pytest.raises(ValueError, match=r"line 1: key 'n_days'"):
        read_trace(path)
