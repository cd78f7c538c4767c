"""The run ledger: records, append ordering, diff, regress.

Covers the :mod:`repro.obs.ledger` machinery end to end — RunRecord
round-trips and the strict row reader, seq assignment and the schema
header, reference resolution, tolerance-aware diffs, the regress gate
(including an artificially injected counter regression, which must
fail), the Runner's ``ObsOptions.ledger`` integration at jobs 1 vs 4
and its agreement with ``run.json``, and the frozen golden for
:func:`repro.obs.manifest.config_digest` so silent identity-hash drift
cannot slip through.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.obs.ledger import (
    LEDGER_SCHEMA_NAME,
    LEDGER_SCHEMA_VERSION,
    Ledger,
    LedgerError,
    RunRecord,
    diff_records,
    regress,
    snapshot_digest,
)
from repro.cli import main
from repro.obs.manifest import config_digest
from repro.obs.metrics import MetricsSnapshot
from repro.obs.resources import ResourceTelemetry
from repro.obs.runtime import ObsOptions
from repro.obs.summarize import RUN_FILENAME
from repro.runner import Runner


def make_record(**overrides) -> RunRecord:
    params = dict(
        experiment="e9",
        system="headline",
        config_hash="c" * 64,
        seed=7,
        n_shards=2,
        parallelism=1,
        backend="event",
        fault_plan_hash=None,
        rng_stream_manifest_hash="s" * 64,
        counter_totals={"throughput.users_total": 40.0,
                        "server.rescues": 3.0},
        metrics={"prefetch.energy.ad_joules": 123.456,
                 "headline.energy_savings": 0.55},
        metrics_digest="d" * 64,
    )
    params.update(overrides)
    return RunRecord(**params)


# ---------------------------------------------------------------------
# RunRecord
# ---------------------------------------------------------------------


class TestRunRecord:
    def test_jsonable_round_trip(self):
        record = make_record(seq=4)
        assert RunRecord.from_jsonable(record.to_jsonable()) == record

    def test_round_trip_through_json_text(self):
        record = make_record()
        text = json.dumps(record.to_jsonable(), sort_keys=True)
        assert RunRecord.from_jsonable(json.loads(text)) == record

    def test_record_id_excludes_seq(self):
        record = make_record()
        assert record.with_seq(9).record_id == record.record_id
        assert len(record.record_id) == 12

    def test_record_id_sensitive_to_counters(self):
        record = make_record()
        changed = make_record(
            counter_totals={**record.counter_totals,
                            "server.rescues": 4.0})
        assert changed.record_id != record.record_id

    def test_run_key_excludes_parallelism(self):
        assert (make_record(parallelism=1).run_key
                == make_record(parallelism=4).run_key)
        assert (make_record(backend="event").run_key
                != make_record(backend="batched").run_key)

    def test_for_run_carries_identity_not_timing(self):
        config = ExperimentConfig(n_users=20, n_days=4, train_days=2,
                                  seed=11)
        record = RunRecord.for_run(
            config, system="headline", n_shards=2, parallelism=1,
            experiment="e9", counter_totals={"server.rescues": 2.0})
        assert record.experiment == "e9"
        assert record.system == "headline"
        assert record.config_hash == config_digest(config)
        assert record.seed == 11
        assert record.seq == 0
        assert record.counter_totals == {"server.rescues": 2.0}
        assert record.fault_plan_hash is None
        assert record.equivalence_contract_hash is None
        assert RunRecord.for_run(
            config, system="headline", n_shards=2, parallelism=1,
            backend="batched").equivalence_contract_hash is not None
        # No timing-bearing field exists to enter the record.
        assert "elapsed" not in json.dumps(record.to_jsonable())


def test_config_digest_golden():
    """Frozen golden: the identity hash of a pinned config.

    If this fails, the config hashing scheme changed — every committed
    ledger record and run manifest becomes incomparable with history.
    Bump deliberately (regenerate benchmarks/ledger.jsonl) or fix the
    accidental drift.
    """
    config = ExperimentConfig(n_users=20, n_days=4, train_days=2, seed=11)
    assert config_digest(config) == (
        "491fad4c0488ae6f4b13cbce14e12af59f5c4b91120c655fab27f6236d63f9b6")


def test_snapshot_digest_stable_and_content_sensitive():
    snapshot = MetricsSnapshot(counters={"a": 1.0})
    assert snapshot_digest(snapshot) == snapshot_digest(
        MetricsSnapshot(counters={"a": 1.0}))
    assert snapshot_digest(snapshot) != snapshot_digest(
        MetricsSnapshot(counters={"a": 2.0}))


# ---------------------------------------------------------------------
# Ledger file: append, header, resolve, strict rows
# ---------------------------------------------------------------------


class TestLedgerFile:
    def test_append_assigns_monotone_seq(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        first = ledger.append(make_record())
        second = ledger.append(make_record(seed=8))
        assert (first.seq, second.seq) == (1, 2)
        assert [r.seq for r in ledger.records()] == [1, 2]

    def test_file_starts_with_schema_header(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.append(make_record())
        head = ledger.path.read_text().splitlines()[0]
        assert json.loads(head) == {"schema": LEDGER_SCHEMA_NAME,
                                    "version": LEDGER_SCHEMA_VERSION}

    def test_unsupported_schema_version_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps(
            {"schema": LEDGER_SCHEMA_NAME, "version": 999}) + "\n")
        with pytest.raises(LedgerError, match="schema version"):
            Ledger(path).records()

    def test_boolean_header_version_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps(
            {"schema": LEDGER_SCHEMA_NAME, "version": True}) + "\n")
        with pytest.raises(LedgerError) as excinfo:
            Ledger(path).records()
        message = str(excinfo.value)
        assert message.startswith(f"{path}: line 1:")
        assert "'version' must be an integer" in message
        assert "\n" not in message

    def test_header_row_after_line_one_raises(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.append(make_record())
        header = ledger.path.read_text().splitlines()[0]
        with ledger.path.open("a") as fh:
            fh.write(header + "\n")
        with pytest.raises(LedgerError) as excinfo:
            ledger.records()
        message = str(excinfo.value)
        assert message.startswith(f"{ledger.path}: line 3:")
        assert "header" in message and "\n" not in message

    def test_committed_ledger_loads(self):
        committed = Path(__file__).parents[1] / "benchmarks" / "ledger.jsonl"
        assert Ledger(committed).records()

    def test_malformed_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(LedgerError, match="line 1"):
            Ledger(path).records()

    def test_missing_ledger_reads_empty(self, tmp_path):
        assert Ledger(tmp_path / "absent.jsonl").records() == []

    def test_resolve_latest_seq_and_prefix(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        first = ledger.append(make_record())
        second = ledger.append(make_record(seed=8))
        assert ledger.resolve("latest") == second
        assert ledger.resolve("1") == first
        assert ledger.resolve("-2") == first
        assert ledger.resolve(first.record_id[:6]) == first

    def test_resolve_errors(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        with pytest.raises(LedgerError, match="empty or missing"):
            ledger.resolve("latest")
        ledger.append(make_record())
        with pytest.raises(LedgerError, match="no record with seq"):
            ledger.resolve("99")
        with pytest.raises(LedgerError, match="no record with id"):
            ledger.resolve("zzzzzz")


def _row(**changes):
    """A valid ledger row with ``changes`` applied (``None`` deletes)."""
    row = make_record(seq=1).to_jsonable()
    for key, value in changes.items():
        if value is None:
            del row[key]
        else:
            row[key] = value
    return row


@pytest.mark.parametrize("row, key", [
    pytest.param(_row(seed=None), "seed", id="missing-key"),
    pytest.param(_row(seed="7"), "seed", id="wrong-type"),
    pytest.param(_row(n_shards=True), "n_shards", id="bool-is-not-int"),
    pytest.param(_row(metrics={"a": "oops"}), "metrics",
                 id="non-numeric-metric"),
    pytest.param(_row(metrics={"a": "1.5"}), "metrics",
                 id="numeric-string-metric"),
    pytest.param(_row(counter_totals=[1.0]), "counter_totals",
                 id="non-object-counter-totals"),
    pytest.param(_row(extra=1), "extra", id="unknown-key"),
])
def test_malformed_row_names_file_line_and_key(tmp_path, row, key):
    """A malformed row fails loudly instead of reading as defaults."""
    path = tmp_path / "ledger.jsonl"
    path.write_text(json.dumps({"schema": LEDGER_SCHEMA_NAME,
                                "version": LEDGER_SCHEMA_VERSION}) + "\n"
                    + json.dumps(_row()) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(LedgerError) as excinfo:
        Ledger(path).records()
    message = str(excinfo.value)
    assert message.startswith(f"{path}: line 3:")
    assert repr(key) in message
    assert "\n" not in message


def test_cli_ledger_show_rejects_malformed_row(tmp_path, capsys):
    path = tmp_path / "ledger.jsonl"
    path.write_text(json.dumps({"seq": 1, "seed": "7",
                                "metrics": {"a": "oops"}}) + "\n")
    assert main(["obs", "ledger", "--ledger-path", str(path),
                 "show", "latest"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 1" in err
    assert "seed=0" not in err


# ---------------------------------------------------------------------
# diff_records
# ---------------------------------------------------------------------


class TestDiff:
    def test_identical_records_agree(self):
        assert diff_records(make_record(), make_record()) == []

    def test_counter_drift_is_always_a_problem(self):
        base = make_record()
        drifted = make_record(
            counter_totals={**base.counter_totals,
                            "server.rescues": 3.0 + 1e-12})
        problems = diff_records(base, drifted)
        assert any("bit-identical" in p for p in problems)

    def test_contract_float_within_tolerance_passes(self):
        base = make_record()
        nudged = make_record(
            metrics={**base.metrics,
                     "prefetch.energy.ad_joules": 123.456 * (1 + 1e-12)})
        assert diff_records(base, nudged) == []

    def test_uncovered_metric_needs_rel_tol(self):
        base = make_record()
        nudged = make_record(
            metrics={**base.metrics,
                     "headline.energy_savings": 0.55 * (1 + 1e-7)})
        assert diff_records(base, nudged) != []
        assert diff_records(base, nudged, rel_tol=1e-6) == []

    def test_identity_mismatch_reported(self):
        problems = diff_records(make_record(), make_record(seed=8))
        assert any(p.startswith("identity: seed") for p in problems)

    def test_digest_mismatch_caught_when_totals_match(self):
        problems = diff_records(make_record(),
                                make_record(metrics_digest="e" * 64))
        assert any("metrics_digest" in p for p in problems)


# ---------------------------------------------------------------------
# regress
# ---------------------------------------------------------------------


class TestRegress:
    def test_single_record_skips(self):
        report = regress([make_record().with_seq(1)])
        assert report.ok and report.compared == 0
        assert len(report.skipped) == 1

    def test_clean_rerun_passes(self):
        history = [make_record().with_seq(1), make_record().with_seq(2)]
        report = regress(history)
        assert report.ok and report.compared == 1

    def test_injected_counter_regression_fails(self):
        baseline = make_record().with_seq(1)
        regressed = make_record(
            counter_totals={**baseline.counter_totals,
                            "server.rescues": 99.0}).with_seq(2)
        report = regress([baseline, regressed])
        assert not report.ok
        assert any("server.rescues" in p for p in report.problems)
        assert "FAIL" in report.render()

    def test_explicit_baseline_ledger(self):
        baseline = [make_record().with_seq(1)]
        good = [make_record().with_seq(1)]
        bad = [make_record(
            metrics={"prefetch.energy.ad_joules": 200.0,
                     "headline.energy_savings": 0.55}).with_seq(1)]
        assert regress(good, baseline).ok
        assert not regress(bad, baseline).ok

    def test_keys_are_independent(self):
        # A regression in one experiment does not mask the other.
        e9 = [make_record().with_seq(1), make_record().with_seq(3)]
        e5_base = make_record(experiment="e5").with_seq(2)
        e5_bad = make_record(
            experiment="e5",
            counter_totals={"throughput.users_total": 41.0,
                            "server.rescues": 3.0}).with_seq(4)
        report = regress(e9 + [e5_base, e5_bad])
        assert report.compared == 2
        assert all("e5" in p for p in report.problems)
        assert not report.ok


# ---------------------------------------------------------------------
# Runner integration
# ---------------------------------------------------------------------


def test_runner_appends_identical_records_at_any_parallelism(tmp_path):
    """Instrumented ledger runs stay bit-identical at jobs 1 vs 4."""
    path = tmp_path / "ledger.jsonl"
    config = ExperimentConfig(n_users=24, n_days=4, train_days=2, seed=5)
    for jobs in (1, 4):
        Runner(config, parallelism=jobs, shards=4,
               obs=ObsOptions(ledger=path)).run("headline")
    records = Ledger(path).records()
    assert [r.seq for r in records] == [1, 2]
    one, four = records
    assert one.run_key == four.run_key
    assert one.counter_totals == four.counter_totals
    assert one.metrics == four.metrics
    assert one.metrics_digest == four.metrics_digest
    assert one.counter_totals["throughput.users_total"] > 0
    assert one.counter_totals["throughput.events_total"] > 0
    report = regress(records)
    assert report.ok and report.compared == 1
    # The ledger is the only file an append writes.
    assert [p.name for p in tmp_path.iterdir()] == ["ledger.jsonl"]


def test_run_json_record_is_the_appended_ledger_row(tmp_path, capsys):
    """One ``--ledger --metrics-out`` run: the record in ``run.json``
    is exactly the row the ledger received, minus its append seq."""
    ledger = tmp_path / "ledger.jsonl"
    out = tmp_path / "runs"
    assert main(["headline", "--users", "12", "--days", "6",
                 "--train-days", "3", "--seed", "15",
                 "--metrics-out", str(out), "--ledger", str(ledger)]) == 0
    capsys.readouterr()
    (run_dir,) = out.iterdir()
    record = json.loads((run_dir / RUN_FILENAME).read_text())["record"]
    row = json.loads(ledger.read_text().splitlines()[-1])
    assert (record.pop("seq"), row.pop("seq")) == (0, 1)
    assert record == row


def test_runner_result_carries_resource_telemetry():
    config = ExperimentConfig(n_users=16, n_days=4, train_days=2, seed=5)
    result = Runner(config, shards=2).run("realtime")
    telemetry = result.resources
    assert isinstance(telemetry, ResourceTelemetry)
    assert telemetry.elapsed_s > 0
    assert telemetry.users_total == \
        result.metrics.counters["throughput.users_total"]
    assert telemetry.users_per_sec > 0
    assert telemetry.events_per_sec > 0
    # getrusage is available on the platforms CI runs on.
    assert telemetry.peak_rss_bytes > 0
