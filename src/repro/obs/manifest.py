"""Run identity hashes: the config digest and the RNG stream-manifest hash.

:meth:`repro.obs.ledger.RunRecord.for_run` derives a run's identity
from these: the content hash of the full config, and the hash of the
committed RNG stream manifest (``analysis/streams.json`` — a different
hash means components were re-seeded, see DESIGN.md §7).
``config_jsonable`` is the config section of a run's ``run.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.config import ExperimentConfig


def config_jsonable(config: "ExperimentConfig") -> dict[str, object]:
    """The config as a plain-JSON dict (stable field order).

    Round-trips through ``json`` so nested tuples (e.g. the fault
    plan's ``server_outages``) normalise to lists — a config section read
    back from disk compares equal to the one that was written.
    """
    raw = json.loads(json.dumps(dataclasses.asdict(config), default=str))
    return {name: raw[name] for name in sorted(raw)}


def config_digest(config: "ExperimentConfig") -> str:
    """Content hash of the full config (sha256 over sorted JSON)."""
    payload = json.dumps(config_jsonable(config), sort_keys=True,
                         default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def streams_manifest_hash() -> str | None:
    """sha256 of the committed RNG stream manifest, or ``None`` if absent.

    The manifest is ``analysis/streams.json`` at the repo root, absent
    for an installed package outside the repository.
    """
    path = Path(__file__).resolve().parents[3] / "analysis" / "streams.json"
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()
