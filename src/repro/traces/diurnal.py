"""Diurnal activity profiles.

Phone use is strongly time-of-day dependent — a morning-commute bump, a
lunch bump, and a long evening peak — and this rhythm is what makes
ad-slot counts predictable day over day (the property the paper's client
models exploit). A profile is a non-negative intensity over the 24-hour
clock built as a mixture of wrapped Gaussian bumps plus a floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Canonical dayparts: (centre hour, spread hours).
DAYPARTS: tuple[tuple[float, float], ...] = (
    (8.0, 1.5),    # morning commute
    (12.5, 1.2),   # lunch
    (17.5, 1.8),   # evening commute
    (21.0, 2.2),   # evening couch
)

HOURS_PER_DAY = 24

#: ``Generator.choice``'s tolerance on a probability vector's sum.
_PMF_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _wrapped_gaussian(hour: np.ndarray | float, mu: float, sigma: float) -> np.ndarray | float:
    """Gaussian bump on the 24-hour circle (three-image approximation)."""
    total = 0.0
    for shift in (-HOURS_PER_DAY, 0.0, HOURS_PER_DAY):
        total = total + np.exp(-0.5 * ((hour - mu + shift) / sigma) ** 2)
    return total


@dataclass(frozen=True, slots=True)
class DiurnalProfile:
    """A user's time-of-day activity intensity.

    Attributes
    ----------
    weights:
        Mixture weight per daypart in :data:`DAYPARTS`.
    floor:
        Constant background intensity (late-night stragglers).
    phase:
        Per-user clock shift in hours (early birds vs night owls).
    """

    weights: tuple[float, ...]
    floor: float = 0.05
    phase: float = 0.0
    #: Cumulative hourly PMF, built once; ``sample_hour`` inverts it.
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.weights) != len(DAYPARTS):
            raise ValueError(
                f"expected {len(DAYPARTS)} weights, got {len(self.weights)}")
        if not all(map(math.isfinite, (*self.weights, self.floor, self.phase))):
            raise ValueError("weights, floor and phase must be finite")
        if any(w < 0 for w in self.weights) or self.floor < 0:
            raise ValueError("weights and floor must be non-negative")
        if sum(self.weights) + self.floor <= 0:
            raise ValueError("profile must have positive total intensity")
        # The checks and CDF of Generator.choice(24, p=pmf), done once.
        pmf = self.hourly_pmf()
        if (not np.isfinite(pmf).all() or (pmf < 0).any()
                or abs(pmf.sum() - 1.0) > _PMF_ATOL):
            raise ValueError(
                "profile intensity does not normalise to a finite hourly PMF")
        cdf = pmf.cumsum()
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        object.__setattr__(self, "_cdf", cdf)

    def intensity(self, hour: float) -> float:
        """Unnormalised intensity at fractional ``hour`` of day."""
        h = (hour - self.phase) % HOURS_PER_DAY
        total = self.floor
        for w, (mu, sigma) in zip(self.weights, DAYPARTS):
            total += w * float(_wrapped_gaussian(h, mu, sigma))
        return total

    def hourly_pmf(self) -> np.ndarray:
        """Probability of a session starting in each of the 24 hours.

        Integrates the intensity at 10-minute resolution within each
        hour, then normalises. Returns a fresh array on every call.
        """
        grid = np.arange(0, HOURS_PER_DAY, 1 / 6) + 1 / 12
        h = (grid - self.phase) % HOURS_PER_DAY
        vals = np.full_like(h, self.floor, dtype=float)
        for w, (mu, sigma) in zip(self.weights, DAYPARTS):
            vals = vals + w * _wrapped_gaussian(h, mu, sigma)
        hourly = vals.reshape(HOURS_PER_DAY, 6).sum(axis=1)
        return hourly / hourly.sum()

    def sample_hour(self, rng: np.random.Generator) -> float:
        """Draw a fractional session-start hour from the profile.

        Inverts the cached CDF exactly as ``rng.choice(24, p=pmf)``
        does, so it consumes and returns the same draws.
        """
        hour = int(self._cdf.searchsorted(rng.random(), side="right"))
        return hour + float(rng.uniform(0.0, 1.0))


def random_profile(rng: np.random.Generator) -> DiurnalProfile:
    """Sample a heterogeneous per-user profile.

    Dirichlet daypart weights give each user a distinct rhythm; a small
    phase jitter desynchronises users so population load is smooth.
    """
    weights = tuple(float(w) for w in rng.dirichlet([2.0, 1.5, 2.0, 3.0]))
    floor = float(rng.uniform(0.02, 0.10))
    phase = float(rng.normal(0.0, 1.0))
    return DiurnalProfile(weights=weights, floor=floor, phase=phase)


def population_hourly_profile(profiles: list[DiurnalProfile]) -> np.ndarray:
    """Average hourly PMF across a population (trace characterization)."""
    if not profiles:
        raise ValueError("need at least one profile")
    acc = np.zeros(HOURS_PER_DAY)
    for p in profiles:
        acc += p.hourly_pmf()
    return acc / len(profiles)


def autocorrelation_lag_one_day(hourly_counts: np.ndarray) -> float:
    """Day-over-day Pearson correlation of an hourly count series.

    ``hourly_counts`` is a 1-D array of per-hour counts spanning whole
    days. Returns ``nan`` when either half is constant.
    """
    x = np.asarray(hourly_counts, dtype=float)
    if x.size < 2 * HOURS_PER_DAY:
        raise ValueError("need at least two days of hourly counts")
    a, b = x[:-HOURS_PER_DAY], x[HOURS_PER_DAY:]
    if a.std() == 0 or b.std() == 0:
        return math.nan
    return float(np.corrcoef(a, b)[0, 1])
