"""Show curves: from unreliable predictions to show probabilities.

The overbooking model needs, for every client, the probability that an
ad parked at queue position *j* will actually be displayed before its
deadline. That is exactly ``P(actual slots >= j | prediction n̂)`` — a
conditional distribution the ad server can estimate from the stream of
``(predicted, actual)`` pairs that client reports produce.

The estimator buckets predictions geometrically (predictions of 5 and 6
behave alike; 1 and 30 do not) and keeps an empirical tail distribution
per bucket. Before a bucket has enough data it falls back to a Poisson
prior centred on the prediction — the natural "prediction is a rate"
assumption.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

#: Prediction bucket edges (bucket b covers [EDGES[b], EDGES[b+1])).
BUCKET_EDGES: tuple[float, ...] = (0.0, 0.5, 1.5, 2.5, 4.5, 8.5, 16.5, 32.5,
                                   64.5, float("inf"))
#: Maximum queue depth the tail distribution resolves.
MAX_DEPTH = 256


def poisson_tail(rate: float, j: int) -> float:
    """``P(X >= j)`` for ``X ~ Poisson(rate)`` — the prior show curve."""
    if j <= 0:
        return 1.0
    if rate <= 0:
        return 0.0
    # P(X >= j) = 1 - sum_{i<j} e^-rate rate^i / i!
    term = math.exp(-rate)
    cdf = term
    for i in range(1, j):
        term *= rate / i
        cdf += term
        if term < 1e-15 and i > rate:
            break
    return max(0.0, min(1.0, 1.0 - cdf))


class ShowCurveEstimator:
    """Online estimator of ``P(actual >= j | predicted)``.

    Parameters
    ----------
    min_samples:
        Empirical estimates are used once a bucket has this many
        observations; below that the Poisson prior applies (blended in
        proportion to the sample count).
    """

    def __init__(self, min_samples: int = 30) -> None:
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.min_samples = min_samples
        n_buckets = len(BUCKET_EDGES) - 1
        # tail_counts[b, j] = number of observations in bucket b with
        # actual >= j (j in 0..MAX_DEPTH).
        self._tail_counts = np.zeros((n_buckets, MAX_DEPTH + 1), dtype=np.int64)
        self._totals = np.zeros(n_buckets, dtype=np.int64)

    @staticmethod
    def bucket_of(predicted: float) -> int:
        """Index of the prediction bucket containing ``predicted``."""
        if predicted < 0:
            raise ValueError("predicted must be non-negative")
        return bisect_right(BUCKET_EDGES, predicted) - 1

    def observe(self, predicted: float, actual: int) -> None:
        """Record one epoch outcome for some client."""
        if actual < 0:
            raise ValueError("actual must be non-negative")
        b = self.bucket_of(predicted)
        upto = min(actual, MAX_DEPTH)
        self._tail_counts[b, : upto + 1] += 1
        self._totals[b] += 1

    def samples(self, predicted: float) -> int:
        """Observations available in the bucket of ``predicted``."""
        return int(self._totals[self.bucket_of(predicted)])

    def saturated_bucket(self, predicted: float) -> int | None:
        """Bucket index of ``predicted`` if it is purely empirical.

        A saturated bucket (``total >= min_samples``) answers
        :meth:`at_least` from its tail counts alone — a pure function of
        ``(bucket, depth)`` that callers may memoize between
        observations. Returns ``None`` while the prior still blends in.
        """
        b = self.bucket_of(predicted)
        return b if int(self._totals[b]) >= self.min_samples else None

    def empirical_tail(self, bucket: int, depth: int) -> float:
        """``tail_counts[bucket, depth] / total`` — the saturated answer.

        Exactly the division :meth:`at_least` performs once a bucket is
        saturated (``depth`` already clamped to ``MAX_DEPTH``).
        """
        return float(self._tail_counts[bucket, depth]) / int(
            self._totals[bucket])

    def at_least(self, predicted: float, j: int) -> float:
        """``P(actual >= j | predicted)`` with prior blending.

        Monotone non-increasing in ``j``; returns 1 for ``j <= 0``.
        """
        if j <= 0:
            return 1.0
        prior = poisson_tail(predicted, j)
        b = self.bucket_of(predicted)
        total = int(self._totals[b])
        if total == 0:
            return prior
        jj = min(j, MAX_DEPTH)
        empirical = float(self._tail_counts[b, jj]) / total
        if total >= self.min_samples:
            return empirical
        w = total / self.min_samples
        return w * empirical + (1.0 - w) * prior

    def expected_shows(self, predicted: float, depth: int) -> float:
        """Expected number of displays among the first ``depth`` positions."""
        return sum(self.at_least(predicted, j) for j in range(1, depth + 1))

    def curve(self, predicted: float, depth: int) -> list[float]:
        """``[P(actual >= 1), ..., P(actual >= depth)]`` for plots/tests."""
        return [self.at_least(predicted, j) for j in range(1, depth + 1)]


class ScaledShowCurve:
    """View of a show curve for a deadline window != the epoch length.

    Predictions are per-epoch; a sale with deadline ``D`` can be shown
    during ``D / T`` epochs' worth of slots. The scaled view multiplies
    the prediction by that ratio before querying the base estimator.

    .. note:: This is a crude approximation kept for comparison; the
       production path uses :class:`WindowedShowCurveEstimator`, which
       estimates multi-epoch windows directly (hourly phone use is far
       too bursty for prediction scaling to capture the window effect).
    """

    def __init__(self, base: ShowCurveEstimator, window_ratio: float) -> None:
        if window_ratio <= 0:
            raise ValueError("window_ratio must be positive")
        self.base = base
        self.window_ratio = window_ratio

    def at_least(self, predicted: float, j: int) -> float:
        return self.base.at_least(predicted * self.window_ratio, j)


class WindowedShowCurveEstimator:
    """Show curves for every window length 1..``max_window`` epochs.

    The overbooking planner needs two different probabilities for a
    queue position:

    * ``P(actual slots within the deadline window >= j)`` — drives the
      SLA guarantee (window of ``D/T`` epochs);
    * ``P(actual slots within the duplicate-exposure window >= j)`` —
      drives the duplicate-impression risk (an already-shown replica
      survives on other clients until their next syncs propagate the
      invalidation, roughly two epochs).

    Observations arrive one epoch at a time per client; a prediction
    made at epoch *e* is matched with the rolling sums of actuals over
    ``e .. e+m-1`` for every ``m``, so each window length gets its own
    honestly-conditioned estimator.
    """

    def __init__(self, max_window: int, min_samples: int = 30) -> None:
        if max_window < 1:
            raise ValueError("max_window must be >= 1")
        self.max_window = max_window
        self._curves = {m: ShowCurveEstimator(min_samples)
                        for m in range(1, max_window + 1)}
        # Per-client open observations: (prediction, accumulated, n_epochs).
        self._open: dict[str, list[list[float]]] = {}

    def observe(self, client_id: str, predicted: float, actual: int) -> None:
        """Ingest one client-epoch: close/extend rolling windows."""
        if actual < 0:
            raise ValueError("actual must be non-negative")
        entries = self._open.setdefault(client_id, [])
        entries.append([float(predicted), 0.0, 0])
        for entry in entries:
            entry[1] += actual
            entry[2] += 1
            self._curves[entry[2]].observe(entry[0], int(entry[1]))
        if entries and entries[0][2] >= self.max_window:
            del entries[0]

    def at_least(self, predicted: float, j: int, window: int) -> float:
        """``P(actual over `window` epochs >= j | predicted)``."""
        if not 1 <= window <= self.max_window:
            raise ValueError(
                f"window must be in 1..{self.max_window}, got {window}")
        return self._curves[window].at_least(predicted, j)

    def curve_for(self, window: int) -> ShowCurveEstimator:
        return self._curves[window]


class DispatchCurve:
    """The two position-probability views the planner consumes.

    Once a prediction bucket is saturated (``total >= min_samples``),
    a query is a pure function of ``(window, bucket, depth)``, and the
    planner asks the same ones hundreds of times per epoch; those
    answers are memoized. Unsaturated buckets take the exact blended
    path, which depends on the raw prediction. The memo is not told
    about new observations: call :meth:`clear_memo` after they land.

    Parameters
    ----------
    windowed:
        The underlying multi-window estimator.
    sla_window:
        Deadline length in epochs (``D/T``).
    dup_window:
        Duplicate-exposure length in epochs: a replica of an ad shown
        elsewhere survives until the invalidation propagates through two
        sync hops, so risk accrues over ~2 epochs (capped by the SLA
        window — after the deadline clients drop the ad anyway).
    """

    def __init__(self, windowed: WindowedShowCurveEstimator,
                 sla_window: int, dup_window: int | None = None) -> None:
        if sla_window < 1 or sla_window > windowed.max_window:
            raise ValueError("sla_window out of range")
        self.windowed = windowed
        self.sla_window = sla_window
        self.dup_window = min(dup_window if dup_window is not None else 2,
                              sla_window)
        self._sla_curve = windowed.curve_for(self.sla_window)
        self._dup_curve = windowed.curve_for(self.dup_window)
        self._memo: dict[tuple[int, int, int], float] = {}

    def clear_memo(self) -> None:
        """Forget memoized answers (the estimator has seen new data)."""
        self._memo.clear()

    def _at_least(self, curve: ShowCurveEstimator, window: int,
                  predicted: float, j: int) -> float:
        if j <= 0:
            return 1.0
        bucket = curve.saturated_bucket(predicted)
        if bucket is None:
            return curve.at_least(predicted, j)
        depth = min(j, MAX_DEPTH)
        key = (window, bucket, depth)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = curve.empirical_tail(bucket, depth)
        return value

    def sla(self, predicted: float, j: int) -> float:
        """P(position ``j`` is displayed before the deadline)."""
        return self._at_least(self._sla_curve, self.sla_window, predicted, j)

    def epoch(self, predicted: float, j: int) -> float:
        """P(position ``j`` is displayed before invalidation can land)."""
        return self._at_least(self._dup_curve, self.dup_window, predicted, j)

    # Protocol compatibility: single-probability consumers get the SLA view.
    def at_least(self, predicted: float, j: int) -> float:
        return self.sla(predicted, j)
