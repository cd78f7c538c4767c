"""repro.obs.profile: wall-clock phase stats and their merge contract."""

from __future__ import annotations

import pytest

from repro.obs.profile import PhaseProfiler, PhaseStats, RunProfile


class TestPhaseStats:
    def test_from_duration(self):
        s = PhaseStats.from_duration(2.5)
        assert s == PhaseStats(calls=1, total_s=2.5, min_s=2.5, max_s=2.5)

    def test_merge_accumulates(self):
        merged = (PhaseStats.from_duration(1.0)
                  .merge(PhaseStats.from_duration(3.0)))
        assert merged.calls == 2
        assert merged.total_s == 4.0
        assert merged.min_s == 1.0
        assert merged.max_s == 3.0
        assert merged.mean_s == 2.0

    def test_empty_is_identity(self):
        s = PhaseStats.from_duration(1.5)
        assert PhaseStats().merge(s) == s
        assert s.merge(PhaseStats()) == s

    def test_merge_is_associative(self):
        a, b, c = (PhaseStats.from_duration(d) for d in (1.0, 2.0, 4.0))
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_mean_of_empty_is_zero(self):
        assert PhaseStats().mean_s == 0.0

    def test_jsonable_roundtrip(self):
        s = PhaseStats.from_duration(0.25).merge(PhaseStats.from_duration(1.0))
        assert PhaseStats.from_jsonable(s.to_jsonable()) == s


class TestRunProfile:
    def test_jsonable_roundtrip(self):
        profile = RunProfile(phases={"x": PhaseStats.from_duration(1.0)})
        assert RunProfile.from_jsonable(profile.to_jsonable()) == profile


class TestPhaseProfiler:
    def test_phase_context_measures_time(self):
        profiler = PhaseProfiler()
        with profiler.phase("work"):
            sum(range(1000))
        stats = profiler.snapshot().phases["work"]
        assert stats.calls == 1
        assert stats.total_s >= 0.0

    def test_add_folds_external_durations(self):
        profiler = PhaseProfiler()
        profiler.add("shard.0.execute", 1.5)
        profiler.add("shard.0.execute", 0.5)
        stats = profiler.snapshot().phases["shard.0.execute"]
        assert stats.calls == 2
        assert stats.total_s == pytest.approx(2.0)

    def test_phase_records_even_on_exception(self):
        profiler = PhaseProfiler()
        with pytest.raises(RuntimeError):
            with profiler.phase("boom"):
                raise RuntimeError("boom")
        assert profiler.snapshot().phases["boom"].calls == 1

    def test_snapshot_sorted_by_name(self):
        profiler = PhaseProfiler()
        profiler.add("b.phase", 1.0)
        profiler.add("a.phase", 1.0)
        assert list(profiler.snapshot().phases) == ["a.phase", "b.phase"]
