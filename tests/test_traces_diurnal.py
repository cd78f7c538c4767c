"""Unit tests for diurnal activity profiles."""

import pickle

import numpy as np
import pytest

from repro.sim.rng import RngRegistry
from repro.traces.diurnal import (
    DAYPARTS,
    HOURS_PER_DAY,
    DiurnalProfile,
    autocorrelation_lag_one_day,
    population_hourly_profile,
    random_profile,
)


def _uniformish():
    return DiurnalProfile(weights=(0.0,) * len(DAYPARTS), floor=1.0)


def test_hourly_pmf_sums_to_one(rng):
    profile = random_profile(rng)
    pmf = profile.hourly_pmf()
    assert pmf.shape == (HOURS_PER_DAY,)
    assert pmf.sum() == pytest.approx(1.0)
    assert (pmf > 0).all()


def test_flat_profile_is_uniform():
    pmf = _uniformish().hourly_pmf()
    assert np.allclose(pmf, 1.0 / HOURS_PER_DAY)


def test_evening_weighted_profile_peaks_in_evening():
    profile = DiurnalProfile(weights=(0.0, 0.0, 0.0, 1.0), floor=0.01)
    pmf = profile.hourly_pmf()
    assert 19 <= int(np.argmax(pmf)) <= 23


def test_phase_shifts_peak():
    base = DiurnalProfile(weights=(0.0, 0.0, 0.0, 1.0), floor=0.01)
    shifted = DiurnalProfile(weights=(0.0, 0.0, 0.0, 1.0), floor=0.01,
                             phase=3.0)
    delta = (int(np.argmax(shifted.hourly_pmf()))
             - int(np.argmax(base.hourly_pmf()))) % HOURS_PER_DAY
    assert delta == 3


def test_intensity_positive_everywhere(rng):
    profile = random_profile(rng)
    hours = np.linspace(0, 24, 97)
    assert all(profile.intensity(float(h)) > 0 for h in hours)


def test_sample_hour_in_range(rng):
    profile = random_profile(rng)
    samples = [profile.sample_hour(rng) for _ in range(200)]
    assert all(0.0 <= h < 24.0 for h in samples)


def test_sample_hour_follows_pmf(rng):
    profile = DiurnalProfile(weights=(0.0, 0.0, 0.0, 1.0), floor=0.02)
    samples = np.array([profile.sample_hour(rng) for _ in range(3000)])
    evening = ((samples >= 18) & (samples < 24)).mean()
    night = ((samples >= 2) & (samples < 6)).mean()
    assert evening > 5 * night


def test_profile_validation():
    with pytest.raises(ValueError):
        DiurnalProfile(weights=(1.0,))                    # wrong arity
    with pytest.raises(ValueError):
        DiurnalProfile(weights=(-1.0, 0, 0, 0))
    with pytest.raises(ValueError):
        DiurnalProfile(weights=(0.0, 0, 0, 0), floor=0.0)  # zero intensity


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("kwargs", [
    pytest.param(dict(weights=(_NAN, 0.2, 0.3, 0.4)), id="nan-weight"),
    pytest.param(dict(weights=(_INF, 0.2, 0.3, 0.4)), id="inf-weight"),
    pytest.param(dict(weights=(0.1, 0.2, 0.3, 0.4), floor=_NAN), id="nan-floor"),
    pytest.param(dict(weights=(0.1, 0.2, 0.3, 0.4), floor=_INF), id="inf-floor"),
    pytest.param(dict(weights=(0.1, 0.2, 0.3, 0.4), phase=_NAN), id="nan-phase"),
    pytest.param(dict(weights=(0.1, 0.2, 0.3, 0.4), phase=-_INF), id="inf-phase"),
    # Finite inputs whose intensity overflows: the hourly PMF is NaN.
    pytest.param(dict(weights=(1e308, 0.0, 0.0, 0.0)), id="overflowing-weight"),
    pytest.param(dict(weights=(0.0,) * 4, floor=1e308), id="overflowing-floor"),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_profile_rejects_inputs_without_a_finite_pmf(kwargs):
    # Such a profile used to construct and fail only at its first draw;
    # now it cannot be built, so it can never reach a trace.
    with pytest.raises(ValueError) as err:
        DiurnalProfile(**kwargs)
    assert "\n" not in str(err.value)


def _draws(profile, seed, n=50):
    rng = RngRegistry(seed).stream("tests")
    return [profile.sample_hour(rng) for _ in range(n)]


def test_cached_cdf_is_invisible_to_eq_hash_repr_and_pickle():
    profile = DiurnalProfile(weights=(0.1, 0.2, 0.3, 0.4), floor=0.05,
                             phase=0.5)
    twin = DiurnalProfile(weights=(0.1, 0.2, 0.3, 0.4), floor=0.05, phase=0.5)
    assert profile == twin and hash(profile) == hash(twin)
    assert repr(profile) == ("DiurnalProfile(weights=(0.1, 0.2, 0.3, 0.4), "
                             "floor=0.05, phase=0.5)")
    clone = pickle.loads(pickle.dumps(profile))
    assert clone == profile and hash(clone) == hash(profile)
    assert repr(clone) == repr(profile)
    assert _draws(clone, seed=3) == _draws(profile, seed=3)


def test_population_profile_pickles_with_its_diurnal(small_population):
    user = small_population[0]
    clone = pickle.loads(pickle.dumps(user))
    assert clone == user and hash(clone) == hash(user)
    assert _draws(clone.diurnal, seed=5) == _draws(user.diurnal, seed=5)


def test_writing_a_returned_pmf_cannot_change_later_draws():
    profile = DiurnalProfile(weights=(0.0, 0.0, 0.0, 1.0), floor=0.02)
    before = _draws(profile, seed=11)
    pmf = profile.hourly_pmf()
    try:
        pmf[:] = 0.0
        pmf[3] = 1.0
    except ValueError:
        pass                     # a read-only PMF is an acceptable answer
    assert profile.hourly_pmf()[3] != 1.0
    assert _draws(profile, seed=11) == before


def test_population_profile_averages(rng):
    profiles = [random_profile(rng) for _ in range(30)]
    pop = population_hourly_profile(profiles)
    assert pop.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        population_hourly_profile([])


def test_autocorrelation_of_perfectly_repeating_series():
    day = np.arange(HOURS_PER_DAY, dtype=float)
    series = np.tile(day, 4)
    assert autocorrelation_lag_one_day(series) == pytest.approx(1.0)


def test_autocorrelation_requires_two_days():
    with pytest.raises(ValueError):
        autocorrelation_lag_one_day(np.zeros(30))


def test_autocorrelation_constant_series_is_nan():
    assert np.isnan(autocorrelation_lag_one_day(np.ones(48)))
