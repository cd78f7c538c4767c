"""Trace persistence: JSONL round-trip.

One JSON object per line. The first line is a header record with trace
metadata; subsequent lines are sessions. The format is append-friendly
and diff-able, which is all a research trace needs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.fields import check_object

from .schema import Session, Trace, UserTrace

_HEADER_KIND = "trace-header"
_SESSION_KIND = "session"
FORMAT_VERSION = 1


def write_trace(trace: Trace, path: str | Path,
                platforms: dict[str, str] | None = None) -> int:
    """Write ``trace`` to ``path``; returns the number of sessions written.

    ``platforms`` optionally overrides per-user platform labels; by
    default the labels stored on the trace's users are used.
    """
    path = Path(path)
    platform_of = platforms or {
        uid: u.platform for uid, u in trace.users.items()}
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        header = {
            "kind": _HEADER_KIND,
            "version": FORMAT_VERSION,
            "n_days": trace.n_days,
            "users": {uid: platform_of.get(uid, "wp") for uid in sorted(trace.users)},
        }
        fh.write(json.dumps(header) + "\n")
        for session in trace.all_sessions():
            record = {
                "kind": _SESSION_KIND,
                "user": session.user_id,
                "app": session.app_id,
                "start": round(session.start, 3),
                "duration": round(session.duration, 3),
            }
            fh.write(json.dumps(record) + "\n")
            count += 1
    return count


_HEADER_SCHEMA = {"kind": "str", "version": "int", "n_days": "int",
                  "users": "{str}"}
_SESSION_SCHEMA = {"kind": "str", "user": "str", "app": "str",
                   "start": "number", "duration": "number"}


def _read_row(path: Path, line_no: int, line: str, kind: str,
              schema: dict[str, str]) -> dict[str, Any]:
    """The row on line ``line_no``, checked against ``schema``.

    Every fault is one ``ValueError`` naming the file and the line.
    """
    where = f"{path}: line {line_no}"
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where} is not valid JSON ({exc})") from None
    if not isinstance(row, dict) or row.get("kind") != kind:
        raise ValueError(f"{where}: record kind must be {kind!r}")
    if kind == _HEADER_KIND and row.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"{where}: unsupported trace version {row.get('version')!r}")
    try:
        return check_object(row, schema, "the row")
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def read_trace(path: str | Path) -> Trace:
    """Load a trace written by :func:`write_trace`.

    Raises
    ------
    ValueError
        One line naming the file and line: an empty file, a missing or
        malformed header, an unsupported format version, or a session
        row that is not JSON or misses, adds or mistypes a key.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path}: empty trace file")
        header = _read_row(path, 1, header_line, _HEADER_KIND,
                           _HEADER_SCHEMA)
        trace = Trace(n_days=header["n_days"])
        platforms: dict[str, str] = dict(header["users"])
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            record = _read_row(path, line_no, line, _SESSION_KIND,
                               _SESSION_SCHEMA)
            session = Session(
                user_id=record["user"],
                app_id=record["app"],
                start=float(record["start"]),
                duration=float(record["duration"]),
            )
            trace.add_session(session,
                              platform=platforms.get(session.user_id, "wp"))
    # Restore users that had no sessions.
    for uid, platform in platforms.items():
        if uid not in trace.users:
            trace.users[uid] = UserTrace(uid, platform)
    for user in trace.users.values():
        user.sort()
    return trace
