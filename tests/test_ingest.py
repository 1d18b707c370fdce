"""CSV wire-format round trips and malformed-row handling."""

from datetime import datetime, timezone
from types import SimpleNamespace

import pytest

from fedcast.data import (
    generate_synthetic_households,
    ingest_meter_csv,
    ingest_weather_csv,
    write_meter_csv,
    write_weather_csv,
)
from fedcast.errors import DataError


def test_meter_round_trip(tmp_path):
    pop = generate_synthetic_households(2, seed=4, days=1)
    path = tmp_path / "meters.csv"
    write_meter_csv(path, pop.households)
    readings, skipped = ingest_meter_csv(path)
    assert skipped == 0
    assert sorted(readings) == ["h000", "h001"]
    original = pop.households[0].readings
    parsed = readings["h000"]
    assert len(parsed) == len(original)
    for a, b in zip(original, parsed):
        assert b.energy_kwh == a.energy_kwh  # repr() keeps float64 exactly
        assert b.timestamp.replace(tzinfo=timezone.utc) == a.timestamp


def test_weather_round_trip(tmp_path):
    pop = generate_synthetic_households(1, seed=4, days=1)
    path = tmp_path / "weather.csv"
    write_weather_csv(path, pop.weather)
    records, skipped = ingest_weather_csv(path)
    assert skipped == 0
    assert len(records) == len(pop.weather)
    assert records[5].air_temp_c == pop.weather[5].air_temp_c


def test_malformed_meter_rows_are_skipped_and_counted(tmp_path):
    path = tmp_path / "meters.csv"
    path.write_text(
        "household_id,timestamp,kwh\n"
        "h0,2013-01-01T00:00:00,0.5\n"
        "h0,not-a-date,0.5\n"          # bad timestamp
        "h0,2013-01-01T01:00:00,-2\n"  # negative
        "h0,2013-01-01T01:30:00,nan\n" # NaN
        ",2013-01-01T02:00:00,0.5\n"   # empty id
        "h0,2013-01-01T02:30:00\n"     # short row
        "h0,2013-01-01T03:00:00,0.75\n")
    readings, skipped = ingest_meter_csv(path)
    assert skipped == 5
    assert len(readings["h0"]) == 2


def test_malformed_weather_rows_are_skipped(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text(
        "timestamp,air_temp_c,rel_humidity_pct\n"
        "2013-01-01T00:00:00,5.0,60\n"
        "2013-01-01T01:00:00,5.0,140\n"  # humidity out of range
        "2013-01-01T02:00:00,oops,60\n")
    records, skipped = ingest_weather_csv(path)
    assert skipped == 2
    assert len(records) == 1


def test_wrong_header_is_a_hard_error(tmp_path):
    path = tmp_path / "meters.csv"
    path.write_text("id,when,value\nh0,2013-01-01,0.5\n")
    with pytest.raises(DataError, match="expected header"):
        ingest_meter_csv(path)


def test_empty_file_gives_empty_result(tmp_path):
    path = tmp_path / "meters.csv"
    path.write_text("")
    readings, skipped = ingest_meter_csv(path)
    assert readings == {} and skipped == 0


def test_write_accepts_plain_dicts(tmp_path):
    from fedcast.data import RawReading
    readings = {"hx": [RawReading(datetime(2013, 1, 1), 0.25),
                       RawReading(datetime(2013, 1, 1, 0, 30), 0.3)]}
    path = tmp_path / "meters.csv"
    write_meter_csv(path, readings)
    back, _ = ingest_meter_csv(path)
    assert back["hx"][1].energy_kwh == 0.3


def test_csv_writers_that_fail_midway_leave_no_partial_file(tmp_path):
    # float() refuses one value after some rows went out: the new file
    # must not appear, and an old file must survive unchanged
    from fedcast.data import RawReading
    pop = generate_synthetic_households(2, seed=4, days=1)
    readings = {h.household_id: list(h.readings) for h in pop.households}
    readings["h001"][3] = RawReading(readings["h001"][3].timestamp, "n/a")
    weather = list(pop.weather)
    weather[5] = SimpleNamespace(timestamp=weather[5].timestamp,
                                 air_temp_c="n/a", rel_humidity_pct=50.0)
    for name, write, rows in (("meters.csv", write_meter_csv, readings),
                              ("weather.csv", write_weather_csv, weather)):
        path = tmp_path / name
        with pytest.raises(ValueError):
            write(path, rows)
        assert not path.exists()
        path.write_text("old")
        with pytest.raises(ValueError):
            write(path, rows)
        assert path.read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["meters.csv", "weather.csv"]
