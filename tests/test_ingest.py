"""CSV wire-format round trips and malformed-row handling."""

import csv
from datetime import datetime, timezone

import numpy as np
import pytest

import fedcast.data.ingest as ingest
from fedcast.data import (
    ingest_meter_csv,
    ingest_weather_csv,
    write_meter_csv,
    write_weather_csv,
)
from fedcast.data.cleaning import MeterReadings
from fedcast.data.synthetic import generate_synthetic_households
from fedcast.errors import DataError


def test_meter_round_trip(tmp_path):
    pop = generate_synthetic_households(2, seed=4, days=1)
    path = tmp_path / "meters.csv"
    write_meter_csv(path, pop.households)
    readings, skipped = ingest_meter_csv(path)
    assert skipped == 0
    assert sorted(readings) == ["h000", "h001"]
    original = pop.households["h000"]
    parsed = readings["h000"]
    assert len(parsed) == len(original)
    assert parsed.minutes.dtype == np.int64 and parsed.kwh.dtype == np.float64
    # whole-minute stamps, equal to the minute; repr() keeps float64 exactly
    assert parsed.minutes.tolist() == original.minutes.tolist()
    assert parsed.kwh.tobytes() == original.kwh.tobytes()


def test_weather_round_trip(tmp_path):
    pop = generate_synthetic_households(1, seed=4, days=1)
    path = tmp_path / "weather.csv"
    write_weather_csv(path, pop.weather)
    table, skipped = ingest_weather_csv(path)
    assert skipped == 0
    assert len(table) == len(pop.weather)
    assert table.air_temp_c[5] == pop.weather.air_temp_c[5]


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


@pytest.mark.parametrize("block_rows", [2, 5, 1 << 14])
def test_every_malformed_meter_row_kind(tmp_path, monkeypatch, block_rows):
    # every way a row can be skipped, beside rows that look odd but are
    # kept; the counts and rows are those of the record-at-a-time ingest,
    # however the file is cut into blocks
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
    path = tmp_path / "meters.csv"
    path.write_text(
        "household_id,timestamp,kwh\n"
        "h1,2013-01-01T00:30:00,0.25\n"
        " h0 ,2013-01-01T00:00:00,0.5\n"      # padded id: kept as h0
        "h0,2013-01-01T00:30:00, 1e-3 \n"     # padded value: kept
        "h0,not-a-date,0.5\n"                 # bad timestamp
        "h0,2013-02-30T00:00:00,0.5\n"        # no such day
        "h0,,0.5\n"                           # empty timestamp
        "h0,2013-01-01T01:00:00,-2\n"         # negative
        "h0,2013-01-01T01:00:00,nan\n"        # NaN
        "h0,2013-01-01T01:00:00,0.5kWh\n"     # not a number
        "h0,2013-01-01T01:00:00,\n"           # empty value
        ",2013-01-01T02:00:00,0.5\n"          # empty id
        "   ,2013-01-01T02:00:00,0.5\n"       # blank id
        "h0,2013-01-01T02:30:00\n"            # short row
        "h0,2013-01-01T02:30:00,0.5,extra\n"  # long row
        "\n"                                  # blank line
        "h2,2013-01-01T02:00:00,-0.0\n"       # negative zero: kept
        "h0,2013-01-01T03:00:00+01:00,inf\n"  # offset stamp, inf: kept
        "h0,2013-01-01T00:00:00,0.75\n"       # duplicate stamp: kept
        "h1,2013-01-01T00:00:00,0.125\n")
    readings, skipped = ingest_meter_csv(path)
    assert skipped == 12
    t0 = datetime(2013, 1, 1, tzinfo=timezone.utc).timestamp() // 60
    assert list(readings) == ["h1", "h0", "h2"]
    got = {hid: (r.minutes.tolist(), r.kwh.tolist()) for hid, r in readings.items()}
    assert got == {
        "h0": ([t0, t0 + 30, t0 + 120, t0], [0.5, 1e-3, float("inf"), 0.75]),
        "h1": ([t0 + 30, t0], [0.25, 0.125]),
        "h2": ([t0 + 120], [-0.0]),
    }


def test_a_utc_suffix_and_seven_fraction_digits_parse(tmp_path):
    # the London extract's stamp form and a "Z" suffix, both of which
    # datetime.fromisoformat reads only from Python 3.11 on
    meters = tmp_path / "meters.csv"
    meters.write_text(
        "household_id,timestamp,kwh\n"
        "h0,2013-01-01T00:00:00Z,0.5\n"
        "h0,2013-01-01 00:30:00.0000000,0.25\n")
    readings, skipped = ingest_meter_csv(meters)
    assert skipped == 0
    t0 = datetime(2013, 1, 1, tzinfo=timezone.utc).timestamp() // 60
    assert readings["h0"].minutes.tolist() == [t0, t0 + 30]
    weather = tmp_path / "weather.csv"
    weather.write_text(
        "timestamp,air_temp_c,rel_humidity_pct\n"
        "2013-01-01T00:00:00Z,5.0,60\n"
        "2013-01-01 01:00:00.0000000,6.0,70\n")
    table, skipped = ingest_weather_csv(weather)
    assert skipped == 0
    assert table.hours.tolist() == [t0 // 60, t0 // 60 + 1]


def test_a_file_of_only_malformed_rows_gives_no_households(tmp_path):
    path = tmp_path / "meters.csv"
    path.write_text("household_id,timestamp,kwh\nh0,never,1\n,2013-01-01,1\n")
    assert ingest_meter_csv(path) == ({}, 2)


def test_malformed_weather_rows_are_skipped(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text(
        "timestamp,air_temp_c,rel_humidity_pct\n"
        "2013-01-01T00:00:00,5.0,60\n"
        "2013-01-01T01:00:00,5.0,140\n"  # humidity out of range
        "2013-01-01T02:00:00,oops,60\n"
        "yesterday,5.0,60\n"             # unparseable timestamps
        "2013-13-01T00:00:00,5.0,60\n")
    table, skipped = ingest_weather_csv(path)
    assert skipped == 4
    assert len(table) == 1


T0_HOUR = int(datetime(2013, 1, 1, tzinfo=timezone.utc).timestamp() // 3600)


def test_weather_values_out_of_range_are_skipped_and_counted(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text(
        "timestamp,air_temp_c,rel_humidity_pct\n"
        "2013-01-01T00:00:00,5.0,60\n"
        "2013-01-01T01:00:00,nan,60\n"     # NaN temperature
        "2013-01-01T02:00:00,inf,60\n"     # infinite temperature
        "2013-01-01T03:00:00,-inf,60\n"
        "2013-01-01T04:00:00,5.0,nan\n"    # NaN humidity
        "2013-01-01T05:00:00,5.0,-0.5\n"   # humidity below 0
        "2013-01-01T06:00:00,5.0,100.5\n"  # humidity above 100
        "2013-01-01T07:00:00,-5.0,0\n"     # humidity at either bound: kept
        "2013-01-01T08:00:00,5.0,100\n")
    table, skipped = ingest_weather_csv(path)
    assert skipped == 6
    assert table.hours.tolist() == [T0_HOUR, T0_HOUR + 7, T0_HOUR + 8]
    assert table.air_temp_c.tolist() == [5.0, -5.0, 5.0]
    assert table.rel_humidity_pct.tolist() == [60.0, 0.0, 100.0]


def test_a_duplicate_weather_hour_keeps_its_earliest_observation(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text(
        "timestamp,air_temp_c,rel_humidity_pct\n"
        "2013-01-01T01:30:00,3.0,50\n"
        "2013-01-01T00:00:00,5.0,50\n"
        "2013-01-01T00:00:00,99.0,10\n"         # same stamp, later in the file
        "2013-01-01T01:10:00,4.0,50\n"          # earliest of hour 1
        "2013-01-01T01:45:00+01:00,7.0,50\n")   # 00:45 UTC, later in hour 0
    table, skipped = ingest_weather_csv(path)
    assert skipped == 0
    assert table.hours.tolist() == [T0_HOUR, T0_HOUR + 1]
    assert table.air_temp_c.tolist() == [5.0, 4.0]
    assert table.rel_humidity_pct.tolist() == [50.0, 50.0]


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
    t0 = datetime(2013, 1, 1, tzinfo=timezone.utc).timestamp() // 60
    readings = {"hx": MeterReadings(np.array([t0, t0 + 30], dtype=np.int64),
                                    np.array([0.25, 0.3]))}
    path = tmp_path / "meters.csv"
    write_meter_csv(path, readings)
    back, _ = ingest_meter_csv(path)
    assert back["hx"].minutes.tolist() == [t0, t0 + 30]
    assert back["hx"].kwh.tolist() == [0.25, 0.3]


def test_meter_rows_follow_the_mapping_order(tmp_path):
    # h999 before h1000, as generated; sorting the ids would swap them
    t0 = datetime(2013, 1, 1, tzinfo=timezone.utc).timestamp() // 60
    column = MeterReadings(np.array([t0], dtype=np.int64), np.array([0.5]))
    path = tmp_path / "meters.csv"
    write_meter_csv(path, {"h999": column, "h1000": column, "h0": column})
    back, _ = ingest_meter_csv(path)
    assert list(back) == ["h999", "h1000", "h0"]


def test_ingested_readings_write_back_unchanged(tmp_path):
    # ingest -> write -> ingest keeps every household's columns bit for bit,
    # and the written file is the one the readings were ingested from
    pop = generate_synthetic_households(3, seed=7, days=2)
    source = tmp_path / "source.csv"
    write_meter_csv(source, pop.households)
    readings, _ = ingest_meter_csv(source)
    path = tmp_path / "meters.csv"
    write_meter_csv(path, readings)
    back, skipped = ingest_meter_csv(path)
    assert skipped == 0 and list(back) == list(readings)
    for hid, columns in readings.items():
        assert back[hid].minutes.tobytes() == columns.minutes.tobytes()
        assert back[hid].kwh.tobytes() == columns.kwh.tobytes()
    assert path.read_bytes() == source.read_bytes()


def test_csv_writers_that_fail_midway_leave_no_partial_file(tmp_path, monkeypatch):
    # the writer refuses its tenth row after nine went out: the new file
    # must not appear, and an old file must survive unchanged
    real_writer = csv.writer

    class FailingWriter:
        def __init__(self, fh, **kwargs):
            self.writer = real_writer(fh, **kwargs)
            self.rows = 0

        def writerow(self, row):
            self.rows += 1
            if self.rows == 10:
                raise ValueError("injected failure")
            self.writer.writerow(row)

        def writerows(self, rows):
            for row in rows:
                self.writerow(row)

    monkeypatch.setattr(ingest.csv, "writer", FailingWriter)
    pop = generate_synthetic_households(2, seed=4, days=1)
    for name, write, rows in (("meters.csv", write_meter_csv, pop.households),
                              ("weather.csv", write_weather_csv, pop.weather)):
        path = tmp_path / name
        with pytest.raises(ValueError):
            write(path, rows)
        assert not path.exists()
        path.write_text("old")
        with pytest.raises(ValueError):
            write(path, rows)
        assert path.read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["meters.csv", "weather.csv"]
