"""repro.obs runtime context, run identity hashes, and the log helper."""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.experiments.config import ExperimentConfig
from repro.obs import log
from repro.obs.ledger import RunRecord
from repro.obs.manifest import config_digest, streams_manifest_hash
from repro.obs.runtime import (
    NULL_RECORDER,
    Obs,
    ObsOptions,
    activate,
    counter,
    current_obs,
    default_obs_options,
    next_run_dir,
    set_default_obs_options,
)
from repro.obs.trace import MemoryRecorder


class TestRuntimeContext:
    def test_default_bundle_counts_and_never_traces(self):
        obs = current_obs()
        assert obs.recorder is NULL_RECORDER or not obs.recorder.enabled

    def test_activate_swaps_and_restores(self):
        outer = current_obs()
        bundle = Obs.create()
        with activate(bundle):
            assert current_obs() is bundle
            counter("test.activation").inc()
        assert current_obs() is outer
        assert bundle.metrics.snapshot().counters["test.activation"] == 1

    def test_activate_nests(self):
        first, second = Obs.create(), Obs.create()
        with activate(first):
            with activate(second):
                assert current_obs() is second
            assert current_obs() is first

    def test_create_with_recorder(self):
        rec = MemoryRecorder(shard=2)
        obs = Obs.create(rec)
        assert obs.recorder is rec
        assert Obs.create().recorder.enabled is False


class TestObsOptions:
    def test_defaults_are_quiet(self):
        options = ObsOptions()
        assert options.out_dir is None
        assert options.trace is False

    def test_process_default_install_and_clear(self):
        try:
            set_default_obs_options(ObsOptions(trace=True))
            installed = default_obs_options()
            assert installed is not None and installed.trace
        finally:
            set_default_obs_options(None)
        assert default_obs_options() is None

    def test_next_run_dir_requires_out_dir(self):
        with pytest.raises(ValueError, match="out_dir"):
            next_run_dir(ObsOptions(), "headline")

    def test_next_run_dir_sequence_and_label(self, tmp_path):
        options = ObsOptions(out_dir=tmp_path)
        first = next_run_dir(options, "headline")
        second = next_run_dir(ObsOptions(out_dir=tmp_path, label="sweep"),
                              "headline")
        assert first.parent == tmp_path
        assert first.name.endswith("-headline")
        assert second.name.endswith("-sweep")
        assert first.name < second.name


class TestManifest:
    def test_config_digest_is_content_hash(self):
        a = ExperimentConfig(n_users=40, n_days=6, train_days=3, seed=99)
        b = ExperimentConfig(n_users=40, n_days=6, train_days=3, seed=99)
        c = ExperimentConfig(n_users=41, n_days=6, train_days=3, seed=99)
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)

    def test_streams_manifest_hash_present_in_repo(self):
        # analysis/streams.json is committed; the hash pins it.
        digest = streams_manifest_hash()
        assert digest is not None and len(digest) == 64

    def test_build_and_roundtrip(self, tmp_path):
        config = ExperimentConfig(n_users=40, n_days=6, train_days=3,
                                  seed=99)
        record = RunRecord.for_run(
            config, system="headline", n_shards=4, parallelism=2,
            counter_totals={"engine.events": 100.0})
        assert record.seed == 99
        assert record.config_hash == config_digest(config)
        assert record.rng_stream_manifest_hash == streams_manifest_hash()
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record.to_jsonable()))
        assert RunRecord.from_jsonable(json.loads(path.read_text())) == record


class TestLogHelper:
    def test_get_logger_roots_bare_names(self):
        assert log.get_logger("traces.generator").name == \
            "repro.traces.generator"
        assert log.get_logger("repro.server").name == "repro.server"

    def test_silent_by_default_then_enabled(self):
        stream = io.StringIO()
        logger = log.get_logger("test.obs_log")
        try:
            log.enable(level=logging.INFO, stream=stream)
            logger.info("rescued %d ads at t=%.0fs", 2, 3600.0)
        finally:
            log.disable()
        logger.info("after disable: swallowed")
        output = stream.getvalue()
        assert "rescued 2 ads at t=3600s" in output
        assert output.count("\n") == 1
        # No wall-clock timestamps in the format: comparable runs.
        assert "INFO repro.test.obs_log:" in output

    def test_enable_is_idempotent(self):
        stream = io.StringIO()
        try:
            log.enable(stream=stream)
            log.enable(stream=stream)
            log.get_logger("test.obs_log").info("once")
        finally:
            log.disable()
        assert stream.getvalue().count("once") == 1
