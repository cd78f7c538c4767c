"""repro.obs.resources: sampling the process's resource footprint."""

from __future__ import annotations

import pytest

from repro.obs.resources import collect_telemetry


def test_collect_telemetry_samples_positive_rss_and_cpu():
    telemetry = collect_telemetry(elapsed_s=1.5, users_total=10,
                                  events_total=2000)
    # getrusage is available on the platforms CI runs on.
    assert telemetry.peak_rss_bytes > 0
    assert telemetry.cpu_time_s > 0
    assert telemetry.events_per_sec == pytest.approx(2000 / 1.5)
