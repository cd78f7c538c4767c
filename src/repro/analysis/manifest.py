"""RNG stream-name manifest (``analysis/streams.json``).

Every statically-resolvable ``RngRegistry.stream(...)`` / ``.fresh(...)``
name in shipped code is collected into a committed JSON manifest. A
stream rename silently re-seeds the renamed component — same code, new
draws, different experiment tables — so the manifest turns that invisible
hazard into a reviewable diff: CI runs ``repro-lint --check-manifest``
and fails when the manifest on disk no longer matches the code.

Sites are recorded as file paths, not lines: an edit that only moves a
call leaves the manifest byte-identical, so the check compares the
whole manifest.
"""

from __future__ import annotations

import json
from pathlib import Path

from .session import StreamSite

_VERSION = 1


def build_stream_manifest(sites: list[StreamSite]) -> dict[str, object]:
    """Group the files requesting each stream into the manifest payload."""
    grouped: dict[str, set[str]] = {}
    for site in sites:
        grouped.setdefault(site.template, set()).add(site.path)
    streams = [
        {"name": name, "sites": sorted(grouped[name])}
        for name in sorted(grouped)
    ]
    return {
        "version": _VERSION,
        "_comment": ("Generated by 'repro-lint --write-manifest'. "
                     "Renaming a stream re-seeds its component; the "
                     "manifest diff makes that reviewable."),
        "streams": streams,
    }


def write_manifest(sites: list[StreamSite], path: str | Path) -> None:
    """Write the manifest for ``sites`` to ``path`` (creating parents)."""
    payload = build_stream_manifest(sites)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2) + "\n",
                      encoding="utf-8")


def check_manifest(sites: list[StreamSite],
                   path: str | Path) -> list[str]:
    """Compare the code-derived manifest with the committed one.

    Returns human-readable drift messages (empty when the two are
    equal). A missing manifest file is itself drift.
    """
    target = Path(path)
    if not target.exists():
        return [f"stream manifest {target} is missing; run "
                "'repro-lint --write-manifest' and commit the result"]
    try:
        on_disk = json.loads(target.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError) as exc:
        return [f"stream manifest {target} is unreadable: {exc}"]
    streams = on_disk.get("streams", []) if isinstance(on_disk, dict) else None
    if not (isinstance(streams, list)
            and all(isinstance(entry, dict) for entry in streams)):
        return [f"stream manifest {target} is not an object with a list "
                "of streams; run 'repro-lint --write-manifest' and commit "
                "the result"]
    expected = build_stream_manifest(sites)
    if on_disk == expected:
        return []
    current = {entry["name"]: entry["sites"]
               for entry in expected["streams"]}
    recorded = {str(entry.get("name")): entry.get("sites")
                for entry in streams}
    problems: list[str] = []
    for name in sorted(set(current) - set(recorded)):
        problems.append(
            f"stream {name!r} is requested in {', '.join(current[name])} "
            "but absent from the manifest")
    for name in sorted(set(recorded) - set(current)):
        problems.append(
            f"manifest lists stream {name!r} which no code requests "
            "(renamed or removed?)")
    for name in sorted(set(recorded) & set(current)):
        if recorded[name] != current[name]:
            problems.append(
                f"stream {name!r} call sites moved: manifest has "
                f"{recorded[name]}, code has {current[name]}")
    if not problems:
        problems.append(f"stream manifest {target} differs from the "
                        "generated one outside its stream list")
    problems.append("regenerate with 'repro-lint --write-manifest' "
                    "and review the diff")
    return problems
