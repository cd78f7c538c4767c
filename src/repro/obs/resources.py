"""Process resource telemetry: peak RSS, CPU time, throughput rates.

A run's ``run.json`` (:mod:`repro.obs.summarize`) records *how much
hardware* the run consumed next to *what it computed*. Everything in
this module is timing-bearing by nature — peak resident set size via
``resource.getrusage``, cumulative CPU seconds via
``time.process_time`` — so telemetry never enters a ledger record,
which must stay a pure function of (code, config, seed).

Together with :mod:`repro.obs.profile` this is the only
:mod:`repro.obs` module allowed to read a clock (repro-lint RPR001
allowlist): resource accounting is wall-clock territory, and keeping it
here preserves the one-audit-surface property — everywhere else in
``repro.obs``, time means *simulated* time.

Throughput rates divide the deterministic ``throughput.users_total`` /
``throughput.events_total`` counters (threaded through both execution
backends; identical by the backend-parity contract) by the measured
wall-clock, so users/sec and events/sec are comparable across machines
while the numerators stay bit-stable.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

try:
    import resource
    _HAVE_RUSAGE = hasattr(resource, "getrusage")
except ImportError:  # pragma: no cover - non-POSIX platforms
    _HAVE_RUSAGE = False


def peak_rss_bytes() -> int:
    """Peak resident set size of this process tree, in bytes.

    Takes the max over ``RUSAGE_SELF`` and ``RUSAGE_CHILDREN`` so runs
    that farm shards out to worker processes report the largest peak
    seen anywhere. Returns 0 on platforms without ``getrusage``.
    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; both
    normalise to bytes here.
    """
    if not _HAVE_RUSAGE:  # pragma: no cover - non-POSIX platforms
        return 0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak = max(int(own), int(children))
    if sys.platform == "darwin":  # pragma: no cover - exercised on macOS
        return peak
    return peak * 1024


def cpu_time_s() -> float:
    """Cumulative CPU seconds of this process (``time.process_time``)."""
    return time.process_time()


@dataclass(frozen=True, slots=True)
class ResourceTelemetry:
    """Resource footprint of one run (all fields timing-bearing).

    ``users_total``/``events_total`` mirror the deterministic
    throughput counters so the rates below are self-contained; the
    counters of record live in the run's metrics snapshot.
    """

    peak_rss_bytes: int = 0
    cpu_time_s: float = 0.0
    elapsed_s: float = 0.0
    users_total: float = 0.0
    events_total: float = 0.0

    @property
    def users_per_sec(self) -> float:
        """Users simulated per wall-clock second (0.0 when untimed)."""
        return self.users_total / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def events_per_sec(self) -> float:
        """Timeline events replayed per wall-clock second."""
        return self.events_total / self.elapsed_s if self.elapsed_s else 0.0


def collect_telemetry(*, elapsed_s: float, users_total: float = 0.0,
                      events_total: float = 0.0) -> ResourceTelemetry:
    """Sample the process and assemble one :class:`ResourceTelemetry`."""
    return ResourceTelemetry(
        peak_rss_bytes=peak_rss_bytes(),
        cpu_time_s=cpu_time_s(),
        elapsed_s=float(elapsed_s),
        users_total=float(users_total),
        events_total=float(events_total),
    )
