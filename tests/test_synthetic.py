"""Synthetic population generator: reproducibility and archetype structure."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from fedcast.data.cleaning import clean_readings
from fedcast.data.synthetic import ARCHETYPES, generate_synthetic_households
from fedcast.errors import ValidationError


def test_same_seed_reproduces_every_reading():
    a = generate_synthetic_households(3, noise=0.05, seed=5, days=2)
    b = generate_synthetic_households(3, noise=0.05, seed=5, days=2)
    assert list(a.households) == list(b.households)
    assert a.archetype_of == b.archetype_of
    for hid, ra in a.households.items():
        rb = b.households[hid]
        assert np.array_equal(ra.minutes, rb.minutes)
        assert np.array_equal(ra.kwh, rb.kwh)
    assert np.array_equal(a.weather.air_temp_c, b.weather.air_temp_c)


def test_different_seed_changes_readings():
    a = generate_synthetic_households(1, noise=0.05, seed=5, days=1)
    b = generate_synthetic_households(1, noise=0.05, seed=6, days=1)
    assert np.any(a.households["h000"].kwh != b.households["h000"].kwh)


def test_round_robin_archetype_assignment():
    pop = generate_synthetic_households(7, archetypes=3, seed=0, days=1)
    assert list(pop.archetype_of.values()) == [0, 1, 2, 0, 1, 2, 0]
    assert pop.archetype_of["h003"] == 0
    assert pop.archetype_names == ("commuter", "night_owl", "homebody")


def test_zero_noise_reproduces_the_profile_exactly():
    pop = generate_synthetic_households(2, archetypes=1, noise=0.0, seed=9, days=1)
    profile = ARCHETYPES[0]
    start = datetime(2013, 1, 1, tzinfo=timezone.utc)  # a Tuesday
    dow = start.weekday()
    for readings in pop.households.values():
        for t in range(24):
            expected = profile["base24"][t] * profile["week7"][dow]
            slot_a = readings.kwh[2 * t]
            slot_b = readings.kwh[2 * t + 1]
            assert slot_a == pytest.approx(expected / 2, abs=1e-15)
            assert slot_b == slot_a
    # with no noise, both households are identical
    assert np.array_equal(pop.households["h000"].kwh, pop.households["h001"].kwh)


def test_archetype_peak_hours_survive_cleaning_and_noise():
    # the dominant hour of each household's mean daily profile must match
    # its archetype's built-in peak for nearly everyone
    pop = generate_synthetic_households(12, archetypes=3, noise=0.05, seed=2,
                                        days=28)
    peaks = {i: int(np.argmax(a["base24"])) for i, a in enumerate(ARCHETYPES)}
    assert sorted(peaks.values()) == [12, 18, 21]  # pairwise distinct
    hits = 0
    for hid, readings in pop.households.items():
        series = clean_readings(readings, hid)
        by_hour = np.zeros(24)
        for hour, value in zip(series.hours, series.values):
            by_hour[hour % 24] += value
        if int(np.argmax(by_hour)) == peaks[pop.archetype_of[hid]]:
            hits += 1
    assert hits >= 0.95 * len(pop.households)


def test_weather_covers_every_metered_hour():
    pop = generate_synthetic_households(1, seed=3, days=2)
    series = clean_readings(pop.households["h000"], "h000")
    weather_hours = set(pop.weather.hours.tolist())
    assert set(int(h) for h in series.hours) <= weather_hours
    assert all(0.0 <= h <= 100.0 for h in pop.weather.rel_humidity_pct)


def test_parameter_validation():
    with pytest.raises(ValidationError):
        generate_synthetic_households(0)
    with pytest.raises(ValidationError):
        generate_synthetic_households(2, archetypes=0)
    with pytest.raises(ValidationError):
        generate_synthetic_households(2, archetypes=99)
    with pytest.raises(ValidationError):
        generate_synthetic_households(2, noise=1.5)
    with pytest.raises(ValidationError):
        generate_synthetic_households(2, days=0)


@pytest.mark.parametrize("start", [
    datetime(2013, 1, 1, 0, 30),
    datetime(2013, 1, 1, 0, 0, 1),
    datetime(2013, 1, 1, 0, 0, 0, 1),
    datetime(2013, 1, 1, tzinfo=timezone(timedelta(hours=5, minutes=30))),
])
def test_a_start_off_the_whole_utc_hour_is_refused(start):
    # weather is indexed by unix hour, so it cannot carry such a start
    with pytest.raises(ValidationError, match="whole UTC hour"):
        generate_synthetic_households(1, start=start, days=1)


def test_a_fixed_offset_start_reads_profiles_in_local_time():
    # 00:00 on Friday 2013-01-04 at UTC+1 is 23:00 on Thursday in UTC: the
    # profile is looked up at the local hour and weekday, the readings and
    # weather are stamped in UTC
    start = datetime(2013, 1, 4, tzinfo=timezone(timedelta(hours=1)))
    pop = generate_synthetic_households(1, archetypes=1, noise=0.0, seed=9,
                                        days=1, start=start)
    profile = ARCHETYPES[0]
    readings = pop.households["h000"]
    first_minute = int(start.timestamp() // 60)
    assert readings.minutes[0] == first_minute
    assert pop.weather.hours[0] == first_minute // 60
    for t in range(24):
        expected = profile["base24"][t] * profile["week7"][4]  # Friday
        assert readings.kwh[2 * t] == pytest.approx(expected / 2, abs=1e-15)


def test_the_data_package_loads_the_generator_on_request():
    from fedcast.data import generate_synthetic_households as from_package
    assert from_package is generate_synthetic_households
