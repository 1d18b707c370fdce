"""CSV ingestion and emission for meter readings and weather observations.

Wire formats:
    meters:  household_id,timestamp,kwh
    weather: timestamp,air_temp_c,rel_humidity_pct

Timestamps are ISO-8601; naive values are taken as UTC.  Malformed data rows
are skipped and counted rather than aborting the ingest, but a wrong header
is a hard error because it means the file is not the expected format at all.
"""

from __future__ import annotations

import csv
from datetime import datetime, timezone
from pathlib import Path

from ..atomic import atomic_write
from ..errors import DataError
from .cleaning import RawReading
from .features import WeatherRecord

METER_HEADER = ["household_id", "timestamp", "kwh"]
WEATHER_HEADER = ["timestamp", "air_temp_c", "rel_humidity_pct"]


def _parse_ts(text: str) -> datetime:
    ts = datetime.fromisoformat(text.strip())
    return ts.replace(tzinfo=timezone.utc) if ts.tzinfo is None else ts


def _check_header(row, expected, path):
    if [c.strip() for c in row] != expected:
        raise DataError(f"{path}: expected header {','.join(expected)!r}")


def ingest_meter_csv(path) -> tuple[dict, int]:
    """Readings grouped by household plus the count of skipped rows."""
    path = Path(path)
    by_household: dict[str, list] = {}
    skipped = 0
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return {}, 0
        _check_header(header, METER_HEADER, path)
        for row in reader:
            try:
                if len(row) != 3 or not row[0].strip():
                    raise ValueError
                ts = _parse_ts(row[1])
                kwh = float(row[2])
                if not kwh >= 0.0:  # also rejects NaN
                    raise ValueError
            except (ValueError, OverflowError):
                skipped += 1
                continue
            by_household.setdefault(row[0].strip(), []).append(RawReading(ts, kwh))
    return by_household, skipped


def ingest_weather_csv(path) -> tuple[list, int]:
    """Weather records in file order plus the count of skipped rows."""
    path = Path(path)
    records = []
    skipped = 0
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return [], 0
        _check_header(header, WEATHER_HEADER, path)
        for row in reader:
            try:
                if len(row) != 3:
                    raise ValueError
                rec = WeatherRecord(_parse_ts(row[0]), float(row[1]), float(row[2]))
            except Exception:
                skipped += 1
                continue
            records.append(rec)
    return records, skipped


def _format_ts(ts: datetime) -> str:
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts.isoformat()


def write_meter_csv(path, households) -> None:
    """Dump {household_id: [RawReading]} or SyntheticHousehold rows to CSV."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METER_HEADER)
        if isinstance(households, dict):
            items = sorted(households.items())
        else:
            items = [(h.household_id, h.readings) for h in households]
        for household_id, readings in items:
            for r in readings:
                writer.writerow([household_id, _format_ts(r.timestamp), repr(float(r.energy_kwh))])


def write_weather_csv(path, records) -> None:
    """Dump WeatherRecord rows to CSV."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEATHER_HEADER)
        for r in records:
            writer.writerow([_format_ts(r.timestamp), repr(float(r.air_temp_c)),
                             repr(float(r.rel_humidity_pct))])
