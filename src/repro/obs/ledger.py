"""Append-only run ledger: the durable record of how runs evolve.

Every experiment or benchmark run appends one :class:`RunRecord` — the
run's identity (config hash, seed, RNG-stream manifest hash, fault-plan
hash, backend and its equivalence-contract hash) joined with the
deterministic counter totals, a content digest of the merged metrics
snapshot, and a flat map of the run's headline result metrics. The
same record heads the run's ``run.json`` (:mod:`repro.obs.summarize`),
so a run directory and its ledger row never disagree. Records
accumulate in a JSONL ledger (committed: ``benchmarks/ledger.jsonl``),
so the repo carries its own result trajectory and any PR that silently
changes throughput counters, energy totals, or SLA numbers is visible
as a ledger diff.

Timing-bearing observations (wall clock, peak RSS, CPU seconds) never
enter a record: a record is a pure function of (code, config, seed), so
two checkouts can diff ledgers byte for byte. A run's timings live in
its ``run.json``; cross-commit timing is ``perfbench``'s job.

Comparison machinery:

* :func:`diff_records` — metric-by-metric comparison of two records
  with :class:`~repro.sim.batched.ToleranceContract` awareness:
  counter totals must be bit-identical, contract-covered floats may
  drift within their published tolerance, everything else is exact
  (optionally loosened by ``rel_tol``).
* :func:`regress` — the CI gate: for every run key present in the
  ledger, compare the latest record against its committed baseline
  (the previous record with the same key) and fail on any drift.

``adprefetch obs ledger list|show|diff|regress`` is the CLI surface.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .fields import check_object
from .manifest import config_digest, streams_manifest_hash
from .metrics import MetricsSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.config import ExperimentConfig
    from repro.sim.batched import ToleranceContract

#: Ledger payload layout version (bumped on breaking record changes).
LEDGER_SCHEMA_VERSION = 1

#: Header row every ledger file starts with.
LEDGER_SCHEMA_NAME = "repro.obs.ledger"

#: The committed ledger the CLI reads by default.
DEFAULT_LEDGER_PATH = Path("benchmarks") / "ledger.jsonl"

#: Hex digits of the record content hash used as the record id.
_ID_LEN = 12

#: A record's JSON row: key (one per field) → JSON kind (see .fields).
_RECORD_SCHEMA = {
    "schema_version": "int", "experiment": "str", "system": "str",
    "config_hash": "str", "seed": "int", "n_shards": "int",
    "parallelism": "int", "backend": "str", "fault_plan_hash": "str?",
    "rng_stream_manifest_hash": "str?", "equivalence_contract_hash": "str?",
    "counter_totals": "{number}", "metrics": "{number}",
    "metrics_digest": "str", "seq": "int",
}


def snapshot_digest(snapshot: MetricsSnapshot) -> str:
    """Content hash of a metrics snapshot (sha256 over sorted JSON)."""
    payload = json.dumps(snapshot.to_jsonable(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True, slots=True)
class RunRecord:
    """A run's deterministic identity and totals: its ledger row.

    The one type that identifies a run: :meth:`for_run` builds it,
    ``RunResult.record`` carries it, ``run.json`` stores it under
    ``record`` and ``--ledger`` appends it. Every field must be a pure
    function of (code, config, seed) — no wall-clock quantity is ever
    written here. ``seq`` is the append position assigned by
    :class:`Ledger` (0 for a record not yet appended) and is
    deliberately excluded from :attr:`record_id`, so re-running an
    identical build appends a record with the same id.

    Records cross the process boundary when runs are distributed, so
    this class is a serialization root checked by ``repro-lint``
    RPR007: fields must remain statically picklable plain data.
    """

    experiment: str
    system: str
    config_hash: str
    seed: int
    n_shards: int
    parallelism: int
    backend: str = "event"
    fault_plan_hash: str | None = None
    rng_stream_manifest_hash: str | None = None
    equivalence_contract_hash: str | None = None
    counter_totals: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    metrics_digest: str = ""
    schema_version: int = LEDGER_SCHEMA_VERSION
    seq: int = 0

    @property
    def run_key(self) -> tuple[str, str, int, str, str | None]:
        """Identity under which records are baselined against each other.

        Parallelism is excluded on purpose: worker count is an
        execution knob and results are bit-identical at any value, so a
        jobs-4 run regresses against a jobs-1 baseline.
        """
        return (self.experiment, self.config_hash, self.seed,
                self.backend, self.fault_plan_hash)

    def _identity_jsonable(self) -> dict[str, object]:
        payload = self.to_jsonable()
        payload.pop("seq", None)
        return payload

    @property
    def record_id(self) -> str:
        """Content hash of the record (sha256 prefix, seq excluded)."""
        payload = json.dumps(self._identity_jsonable(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:_ID_LEN]

    def to_jsonable(self) -> dict[str, object]:
        """Plain-JSON row (sorted metric/counter names)."""
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "system": self.system,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "n_shards": self.n_shards,
            "parallelism": self.parallelism,
            "backend": self.backend,
            "fault_plan_hash": self.fault_plan_hash,
            "rng_stream_manifest_hash": self.rng_stream_manifest_hash,
            "equivalence_contract_hash": self.equivalence_contract_hash,
            "counter_totals": {name: self.counter_totals[name]
                               for name in sorted(self.counter_totals)},
            "metrics": {name: self.metrics[name]
                        for name in sorted(self.metrics)},
            "metrics_digest": self.metrics_digest,
            "seq": self.seq,
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, object]) -> "RunRecord":
        """Inverse of :meth:`to_jsonable`.

        Every key is required with its exact JSON type, and no other
        key may appear; a fault raises a one-line ``ValueError`` naming
        the key (:class:`Ledger` prefixes the file and line).
        """
        return cls(**check_object(payload, _RECORD_SCHEMA, "the record"))

    @classmethod
    def for_run(cls, config: "ExperimentConfig", *, system: str,
                n_shards: int, parallelism: int, backend: str = "event",
                experiment: str | None = None,
                counter_totals: Mapping[str, float] | None = None,
                metrics: Mapping[str, float] | None = None,
                metrics_digest: str = "") -> "RunRecord":
        """The record of one run of ``config`` (``seq`` 0, not appended).

        The identity hashes are derived here — config digest, fault-plan
        digest (``None`` for a fault-free run), RNG stream-manifest hash,
        and the equivalence-contract digest a batched run claims —
        so every producer of records agrees on them. ``experiment``
        labels the record (defaults to ``system``); ``metrics`` is the
        flat map of deterministic result metrics to regress on;
        ``metrics_digest`` pins the full merged snapshot without
        storing it. Totals and metrics are stored as floats, whatever
        numeric type the instruments counted in.
        """
        return cls(
            experiment=experiment if experiment else system,
            system=system,
            config_hash=config_digest(config),
            seed=config.seed,
            n_shards=n_shards,
            parallelism=parallelism,
            backend=backend,
            fault_plan_hash=(None if config.faults.is_empty
                             else config.faults.digest()),
            rng_stream_manifest_hash=streams_manifest_hash(),
            equivalence_contract_hash=(_default_contract().digest()
                                       if backend == "batched" else None),
            counter_totals={name: float(value) for name, value
                            in (counter_totals or {}).items()},
            metrics={name: float(value)
                     for name, value in (metrics or {}).items()},
            metrics_digest=metrics_digest,
        )

    def with_seq(self, seq: int) -> "RunRecord":
        """Copy of this record stamped with append position ``seq``."""
        return dataclasses.replace(self, seq=int(seq))


class LedgerError(ValueError):
    """A ledger file is missing, malformed, or a reference is ambiguous."""


class Ledger:
    """Append-only JSONL ledger of :class:`RunRecord` rows.

    The file starts with a schema header row; every append re-reads the
    current tail to assign the next ``seq``, so concurrent benchmark
    processes interleave without ever renumbering existing rows.
    """

    def __init__(self, path: str | Path = DEFAULT_LEDGER_PATH) -> None:
        self.path = Path(path)

    def records(self) -> list[RunRecord]:
        """All records in file order (empty for a missing ledger)."""
        if not self.path.exists():
            return []
        records: list[RunRecord] = []
        text = self.path.read_text(encoding="utf-8")
        for index, line in enumerate(text.splitlines()):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LedgerError(
                    f"{self.path}: line {index + 1} is not valid JSON "
                    f"({exc})") from exc
            if not isinstance(row, dict):
                raise LedgerError(
                    f"{self.path}: line {index + 1} is not a JSON object")
            if row.get("schema") == LEDGER_SCHEMA_NAME:
                if row.get("version") != LEDGER_SCHEMA_VERSION:
                    raise LedgerError(
                        f"{self.path}: unsupported ledger schema version "
                        f"{row.get('version')!r} (expected "
                        f"{LEDGER_SCHEMA_VERSION})")
                continue
            try:
                records.append(RunRecord.from_jsonable(row))
            except ValueError as exc:
                raise LedgerError(
                    f"{self.path}: line {index + 1}: {exc}") from None
        return records

    def append(self, record: RunRecord) -> RunRecord:
        """Append ``record`` (stamped with the next ``seq``) and return it."""
        existing = self.records()
        next_seq = (max(r.seq for r in existing) + 1) if existing else 1
        stamped = record.with_seq(next_seq)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            if not existing and self.path.stat().st_size == 0:
                header = {"schema": LEDGER_SCHEMA_NAME,
                          "version": LEDGER_SCHEMA_VERSION}
                fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.write(json.dumps(stamped.to_jsonable(), sort_keys=True)
                     + "\n")
        return stamped

    def resolve(self, ref: str) -> RunRecord:
        """A record by reference: seq number, id prefix, or ``latest``.

        Negative seq references count from the end (``-1`` is the most
        recent append). Id prefixes must be unambiguous; when one id
        matches several appends, the most recent wins.
        """
        records = self.records()
        if not records:
            raise LedgerError(f"{self.path}: ledger is empty or missing")
        if ref == "latest":
            return records[-1]
        try:
            seq = int(ref)
        except ValueError:
            matches = [r for r in records if r.record_id.startswith(ref)]
            if not matches:
                raise LedgerError(
                    f"{self.path}: no record with id prefix {ref!r}")
            ids = {r.record_id for r in matches}
            if len(ids) > 1:
                raise LedgerError(
                    f"{self.path}: id prefix {ref!r} is ambiguous "
                    f"({', '.join(sorted(ids))})")
            return matches[-1]
        if seq < 0:
            if -seq > len(records):
                raise LedgerError(
                    f"{self.path}: only {len(records)} records, "
                    f"cannot index {seq}")
            return records[seq]
        for record in records:
            if record.seq == seq:
                return record
        raise LedgerError(f"{self.path}: no record with seq {seq}")


# ----------------------------------------------------------------------
# Comparison: diff two records / regress a ledger against its baseline
# ----------------------------------------------------------------------


def _default_contract() -> "ToleranceContract":
    # Imported lazily: repro.sim.batched pulls simulator modules that
    # themselves import repro.obs at module load.
    from repro.sim.batched import DEFAULT_CONTRACT
    return DEFAULT_CONTRACT


def diff_records(baseline: RunRecord, candidate: RunRecord, *,
                 contract: "ToleranceContract | None" = None,
                 rel_tol: float = 0.0) -> list[str]:
    """Metric-by-metric differences (empty list == records agree).

    Counter totals are deterministic event counts and must be
    bit-identical. Result metrics covered by the tolerance contract
    (the same one batched-backend equivalence is judged under) may
    drift within their published bound; uncovered metrics must match
    exactly unless ``rel_tol`` grants headroom. Provenance mismatches
    (config hash, seed, backend, stream-manifest hash) are reported
    first — a diff across different identities is rarely meaningful.
    """
    problems: list[str] = []
    for label, a, b in (
            ("config_hash", baseline.config_hash, candidate.config_hash),
            ("seed", str(baseline.seed), str(candidate.seed)),
            ("backend", baseline.backend, candidate.backend),
            ("fault_plan_hash", str(baseline.fault_plan_hash),
             str(candidate.fault_plan_hash)),
            ("rng_stream_manifest_hash",
             str(baseline.rng_stream_manifest_hash),
             str(candidate.rng_stream_manifest_hash)),
            ("equivalence_contract_hash",
             str(baseline.equivalence_contract_hash),
             str(candidate.equivalence_contract_hash)),
            ("schema_version", str(baseline.schema_version),
             str(candidate.schema_version))):
        if a != b:
            problems.append(f"identity: {label} differs "
                            f"(baseline={a!r} candidate={b!r})")
    for name in sorted(set(baseline.counter_totals)
                       | set(candidate.counter_totals)):
        a_val = baseline.counter_totals.get(name)
        b_val = candidate.counter_totals.get(name)
        if a_val is None or b_val is None:
            problems.append(f"counter {name}: present in only one record")
        elif a_val != b_val:
            problems.append(f"counter {name}: {a_val!r} != {b_val!r} "
                            "(counters must be bit-identical)")
    active = contract if contract is not None else _default_contract()
    for name in sorted(set(baseline.metrics) | set(candidate.metrics)):
        a_opt = baseline.metrics.get(name)
        b_opt = candidate.metrics.get(name)
        if a_opt is None or b_opt is None:
            problems.append(f"metric {name}: present in only one record")
            continue
        tolerance = active.tolerance_for(name)
        if tolerance.holds(a_opt, b_opt):
            continue
        if rel_tol > 0.0 and abs(a_opt - b_opt) <= rel_tol * max(
                abs(a_opt), abs(b_opt)):
            continue
        problems.append(
            f"metric {name}: baseline={a_opt!r} candidate={b_opt!r} "
            f"exceeds rel_tol={max(tolerance.rel_tol, rel_tol)!r}")
    if (baseline.metrics_digest and candidate.metrics_digest
            and baseline.metrics_digest != candidate.metrics_digest
            and not problems):
        problems.append(
            "metrics_digest differs while every recorded total matches — "
            "an unrecorded instrument changed; regenerate the record")
    return problems


@dataclass(frozen=True, slots=True)
class RegressReport:
    """Outcome of one :func:`regress` gate."""

    compared: int
    skipped: list[str]
    problems: list[str]

    @property
    def ok(self) -> bool:
        """True when no comparison found drift."""
        return not self.problems

    def render(self) -> str:
        """Terminal rendering (one line per comparison outcome)."""
        lines = [f"ledger regress: {self.compared} comparison(s), "
                 f"{len(self.problems)} problem(s)"]
        lines.extend(f"  SKIP {note}" for note in self.skipped)
        lines.extend(f"  FAIL {problem}" for problem in self.problems)
        if self.ok and self.compared:
            lines.append("  PASS latest records match their baselines")
        return "\n".join(lines)


def regress(current: Sequence[RunRecord],
            baseline: Sequence[RunRecord] | None = None, *,
            contract: "ToleranceContract | None" = None,
            rel_tol: float = 0.0) -> RegressReport:
    """Gate the latest record of every run key against its baseline.

    With an explicit ``baseline`` ledger, the latest ``current`` record
    of each key is compared against the latest baseline record of the
    same key. Without one, the ledger is its own history: the latest
    record is compared against the *previous* record with the same key,
    so CI appends a fresh smoke record and gates it against the
    committed trajectory in place. Keys with no baseline are skipped
    (reported, not failed) — a new experiment starts its history.
    """
    by_key: dict[tuple[str, str, int, str, str | None],
                 list[RunRecord]] = {}
    for record in current:
        by_key.setdefault(record.run_key, []).append(record)
    problems: list[str] = []
    skipped: list[str] = []
    compared = 0
    baseline_by_key: dict[tuple[str, str, int, str, str | None],
                          list[RunRecord]] = {}
    if baseline is not None:
        for record in baseline:
            baseline_by_key.setdefault(record.run_key, []).append(record)
    for key in sorted(by_key, key=str):
        history = by_key[key]
        latest = history[-1]
        if baseline is not None:
            candidates = baseline_by_key.get(key, [])
            base = candidates[-1] if candidates else None
        else:
            base = history[-2] if len(history) > 1 else None
        if base is None:
            skipped.append(f"{latest.experiment} "
                           f"[{latest.record_id}]: no baseline record "
                           "for this run key yet")
            continue
        compared += 1
        for problem in diff_records(base, latest, contract=contract,
                                    rel_tol=rel_tol):
            problems.append(
                f"{latest.experiment} [{base.record_id} -> "
                f"{latest.record_id}]: {problem}")
    return RegressReport(compared=compared, skipped=skipped,
                         problems=problems)


# ----------------------------------------------------------------------
# Rendering (the CLI's list/show surfaces)
# ----------------------------------------------------------------------


def render_list(records: Iterable[RunRecord]) -> str:
    """One line per record: seq, id, experiment, identity prefix."""
    lines = []
    for record in records:
        faults = ("faults=" + record.fault_plan_hash[:8]
                  if record.fault_plan_hash else "fault-free")
        lines.append(
            f"{record.seq:>4}  {record.record_id}  "
            f"{record.experiment:<10} {record.backend:<7} "
            f"seed={record.seed} shards={record.n_shards} "
            f"config={record.config_hash[:12]} {faults} "
            f"counters={len(record.counter_totals)} "
            f"metrics={len(record.metrics)}")
    if not lines:
        return "ledger is empty"
    return "\n".join(lines)


def _fmt_num(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def render_record(record: RunRecord) -> str:
    """Full terminal rendering of one record."""
    lines = [
        f"record {record.record_id} (seq {record.seq})",
        f"  experiment: {record.experiment} (system {record.system})",
        f"  identity:   config={record.config_hash[:16]} "
        f"seed={record.seed} backend={record.backend} "
        f"shards={record.n_shards} parallelism={record.parallelism}",
        f"  provenance: streams="
        f"{(record.rng_stream_manifest_hash or 'n/a')[:16]} "
        f"faults={(record.fault_plan_hash or 'none')[:16]} "
        f"contract={(record.equivalence_contract_hash or 'n/a')[:16]}",
        f"  metrics digest: {record.metrics_digest or 'n/a'}",
    ]
    if record.counter_totals:
        lines.append("  counters:")
        lines.extend(f"    {name} = {_fmt_num(value)}"
                     for name, value in sorted(
                         record.counter_totals.items()))
    if record.metrics:
        lines.append("  metrics:")
        lines.extend(f"    {name} = {_fmt_num(value)}"
                     for name, value in sorted(record.metrics.items()))
    return "\n".join(lines)
